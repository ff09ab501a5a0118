import random
from math import factorial

import pytest

from cusplink import perm_action
from cusplink.finite_field import field_of_order, make_field, prime_power
from cusplink.perm_action import (
    Permutation,
    affine_group,
    group_closure,
    transitivity_degree,
)
from reference_checks import (
    affine_permutation,
    compose,
    elements as reference_elements,
    from_cycles,
    identity,
    inverse,
    is_k_transitive_literal,
    is_member,
    orbit_sizes_divide_order,
)


def cyclic(n):
    return Permutation(tuple((i + 1) % n for i in range(n)))


def test_permutation_validation():
    with pytest.raises(ValueError, match=r"^not a bijection of 0\.\.2 \(degree 3\): "
                                         r"0 is the image of two points$"):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError, match=r"^not a bijection of 0\.\.1 \(degree 2\): "
                                         r"1 is not an image$"):
        Permutation((0, 2))
    with pytest.raises(TypeError, match=r"^image 1\.0 at position 0 is not an int$"):
        Permutation((1.0, 0.0))
    with pytest.raises(TypeError, match=r"^image '1' at position 1 is not an int$"):
        Permutation((0, "1"))
    with pytest.raises(TypeError, match=r"^image True at position 1 is not an int$"):
        Permutation((0, True))


@pytest.mark.parametrize("point", [3, -1])
def test_from_cycles_refuses_a_point_out_of_range(point):
    # 3 indexed past the end, and -1 wrapped to 2
    with pytest.raises(ValueError, match=rf"^cycle point {point} is not in 0\.\.2 \(degree 3\)$"):
        from_cycles(3, [(0, point)])


@pytest.mark.parametrize("cycles, point", [([(0, 0)], 0), ([(0, 1), (1, 0)], 1),
                                           ([(0, 1), (0, 2)], 0)])
def test_from_cycles_refuses_a_repeated_point(cycles, point):
    # cycles are disjoint: a point met twice would silently drop a
    # cycle, or be refused later as a repeated image
    with pytest.raises(ValueError, match=rf"^point {point} repeats in the cycles$"):
        from_cycles(3, cycles)


def test_bijection_error_stays_short_on_a_large_degree():
    images = list(range(4032))
    images[4000] = 17
    with pytest.raises(ValueError) as refusal:
        Permutation(tuple(images))
    assert str(refusal.value) == ("not a bijection of 0..4031 (degree 4032): "
                                  "17 is the image of two points")


def test_composition_degree_mismatch_names_both_degrees():
    with pytest.raises(ValueError, match=r"^degree mismatch in composition: 3 and 2$"):
        compose(identity(3), identity(2))


def test_composition_convention():
    # compose(p, q)(x) = p(q(x)): the right factor acts first
    p = from_cycles(3, [(0, 1, 2)])
    q = from_cycles(3, [(0, 1)])
    assert compose(p, q)(0) == p(q(0)) == 2
    assert compose(q, p)(0) == q(p(0)) == 0


def test_cycle_string():
    g = from_cycles(5, [(0, 2), (1, 3)])
    assert str(g) == "(0 2)(1 3)"
    assert str(identity(3)) == "()"


def test_closure_orders():
    assert group_closure([cyclic(5)]).order == 5
    s4 = group_closure([from_cycles(4, [(0, 1)]), cyclic(4)])
    assert s4.order == 24
    assert affine_group(make_field(5, 1)).order == 20


def test_group_generators_must_be_permutations():
    with pytest.raises(ValueError, match=r"^at least one generator is required$"):
        perm_action.PermGroup([])
    with pytest.raises(TypeError, match=r"^generator \(1, 0\) at position 0 "
                                        r"is not a Permutation$"):
        perm_action.PermGroup([(1, 0)])
    with pytest.raises(TypeError, match=r"^generator \[1, 0\] at position 1 "
                                        r"is not a Permutation$"):
        group_closure([cyclic(2), [1, 0]])


def test_closure_degree_mismatch_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        group_closure([cyclic(4), cyclic(5)])
    gens = [from_cycles(4, [(0, 1)]), cyclic(4)]
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 10)
    with pytest.raises(RuntimeError):
        group_closure(gens)


def test_cap_env_override(monkeypatch):
    # S4 has order 24: refused just under the cap's bound, built at it
    gens = [from_cycles(4, [(0, 1)]), cyclic(4)]
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 23)
    with pytest.raises(RuntimeError, match=r"^group order cap 23 exceeded: "
                                           r"the order is at least 24$"):
        group_closure(gens)
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 24)
    assert group_closure(gens).order == 24
    assert len(perm_action.PermGroup(gens).elements) == 24


def test_k_transitivity_cyclic():
    c5 = group_closure([cyclic(5)])
    assert transitivity_degree(c5) == 1
    assert is_k_transitive_literal(c5, 1)
    assert not is_k_transitive_literal(c5, 2)


def test_k_transitivity_affine():
    a5 = affine_group(make_field(5, 1))
    assert transitivity_degree(a5) == 2
    # order 20 < 5*4*3 = 60, so no triple orbit can be full
    assert not is_k_transitive_literal(a5, 3)


def _sample_groups():
    yield group_closure([identity(3)])
    yield group_closure([cyclic(4)])
    yield group_closure([from_cycles(3, [(0, 1)]),
                         from_cycles(3, [(0, 1, 2)])])  # S3
    yield group_closure([cyclic(4), Permutation((0, 3, 2, 1))])  # dihedral
    yield group_closure([from_cycles(4, [(0, 1, 2)]),
                         from_cycles(4, [(1, 2, 3)])])  # A4
    yield group_closure([from_cycles(4, [(0, 1)]), cyclic(4)])  # S4
    yield affine_group(make_field(2, 2))
    yield affine_group(make_field(5, 1))


def test_single_orbit_check_matches_literal_definition():
    for group in _sample_groups():
        for k in range(1, min(3, group.degree) + 1):
            assert (transitivity_degree(group) >= k) == is_k_transitive_literal(group, k)


def test_transitivity_degree_examples():
    s4 = group_closure([from_cycles(4, [(0, 1)]), cyclic(4)])
    assert transitivity_degree(s4) == 4
    assert transitivity_degree(affine_group(make_field(2, 3))) == 2
    trivial = group_closure([identity(3)])
    assert transitivity_degree(trivial) == 0


def test_inclusive_hierarchy():
    for group in _sample_groups():
        flags = [is_k_transitive_literal(group, k) for k in range(1, group.degree + 1)]
        # once false, never true again
        seen_false = False
        for flag in flags:
            if seen_false:
                assert not flag
            seen_false = seen_false or not flag


def test_orbit_sizes_divide_order():
    for group in _sample_groups():
        assert orbit_sizes_divide_order(group)
        assert factorial(group.degree) % group.order == 0


@pytest.mark.parametrize("n,expected_order", [(5, 20), (4, 12), (7, 42)])
def test_affine_group_orders(n, expected_order):
    group = affine_group(field_of_order(n))
    assert group.degree == n
    assert group.order == expected_order


@pytest.mark.parametrize("n", [4, 5, 7, 8, 9, 11, 13])
def test_affine_group_sharply_two_transitive(n):
    group = affine_group(field_of_order(n))
    assert group.order == n * (n - 1)
    assert transitivity_degree(group) == 2


PRIME_POWERS_4_TO_64 = [n for n in range(4, 65) if prime_power(n)]


@pytest.mark.parametrize("n", PRIME_POWERS_4_TO_64)
def test_two_generators_give_the_whole_affine_group(n):
    # x -> x + 1 and x -> w*x; every translation along the additive basis
    # 1, x, ..., x^(k-1), the old generators, lies in the group they make
    spec = field_of_order(n)
    group = affine_group(spec)
    assert len(group.generators) == 2
    assert group.order == n * (n - 1)
    assert transitivity_degree(group) == 2
    for i in range(spec.k):
        assert is_member(group, affine_permutation(spec, 1, spec.p ** i))  # t = x^i
    assert is_member(group, affine_permutation(spec, spec.primitive(), 0))


def test_affine_permutation_translation_is_shift():
    spec = make_field(5, 1)
    shift = affine_permutation(spec, 1, 1)
    assert shift.images == (1, 2, 3, 4, 0)
    with pytest.raises(ValueError):
        affine_permutation(spec, 0, 1)


def test_group_elements_form_group():
    rng = random.Random(7)
    for group in _sample_groups():
        elements = reference_elements(group)
        assert identity(group.degree) in elements
        for g in elements:
            assert inverse(g) in elements
        pool = sorted(elements, key=lambda p: p.images)
        for _ in range(20):
            g, h = rng.choice(pool), rng.choice(pool)
            assert compose(g, h) in elements


def test_the_degree_bound_is_checked_before_the_chain_is_built(monkeypatch):
    bound = perm_action.MAX_GROUP_DEGREE
    assert bound == 1024
    assert group_closure([cyclic(bound)]).order == bound
    grown = []
    monkeypatch.setattr(perm_action.PermGroup, "_grow_orbit",
                        lambda self, level: grown.append(level))
    for degree in (bound + 1, 3000):
        with pytest.raises(ValueError, match=rf"^a group acts on at most MAX_GROUP_DEGREE = "
                                             rf"1024 points, got degree {degree}$") as excinfo:
            group_closure([cyclic(degree)])
        assert len(str(excinfo.value).encode()) < 200
    assert grown == []


def test_oversized_group_is_refused_while_the_chain_is_built(monkeypatch):
    # S_12 has order 479001600; listing it would take minutes
    gens = [from_cycles(12, [(0, 1)]), cyclic(12)]
    with pytest.raises(RuntimeError, match=r"^group order cap 1000000 exceeded: "
                                           r"the order is at least 6652800$"):
        group_closure(gens)
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 100)
    with pytest.raises(RuntimeError, match=r"^group order cap 100 exceeded: "
                                           r"the order is at least 132$"):
        group_closure(gens)
    with pytest.raises(RuntimeError, match=r"^group order cap 100 exceeded"):
        perm_action.PermGroup(gens).elements  # noqa: B018


def test_membership_by_sifting():
    s4 = group_closure([from_cycles(4, [(0, 1)]), cyclic(4)])
    a4 = group_closure([from_cycles(4, [(0, 1, 2)]),
                        from_cycles(4, [(1, 2, 3)])])
    odd = from_cycles(4, [(2, 3)])
    assert is_member(s4, odd) and not is_member(a4, odd)
    assert is_member(a4, from_cycles(4, [(0, 1), (2, 3)]))
    assert not is_member(s4, cyclic(5))


def test_chain_base_is_a_prefix_with_trivial_levels_kept():
    # (2 3) fixes 0 and 1, so the base runs 0, 1, 2 with two trivial orbits
    group = group_closure([from_cycles(4, [(2, 3)])])
    assert [group.orbit_length(i) for i in range(4)] == [1, 1, 2, 1]
    assert group.order == 2 and transitivity_degree(group) == 0


def test_products_of_degree_zero_and_one():
    # the gather kernel returns a bare entry for one index and cannot be
    # built for none, so these two degrees are read point by point
    assert compose(Permutation(()), Permutation(())) == Permutation(())
    assert compose(Permutation((0,)), Permutation((0,))) == Permutation((0,))
    assert perm_action._compose((5, 6), ()) == ()
    assert perm_action._compose((5, 6), (1,)) == (6,)
    assert perm_action._compose((5, 6), (1, 0)) == (6, 5)


def test_helical_link_builds_no_group(monkeypatch):
    # the helical facts are read off the map's automorphism walks, so no
    # stabilizer chain is built, even for AGL(1, 64) of order 4032
    from cusplink import link_families

    built = []
    original = perm_action.PermGroup.__init__

    def recording(group, generators):
        built.append(group)
        original(group, generators)

    monkeypatch.setattr(perm_action.PermGroup, "__init__", recording)
    blueprint = link_families.helical_link(field_of_order(64))
    assert built == []
    assert (blueprint.symmetry_order, blueprint.transitivity_degree) == (4032, 2)
    link_families.cube_link()  # a small family still builds its chain, and is seen
    assert len(built) == 1
