import random
from math import factorial

import pytest

from cusplink import perm_action
from cusplink.finite_field import field_of_order, make_field, prime_power
from cusplink.perm_action import (
    Permutation,
    affine_group,
    affine_permutation,
    group_closure,
    transitivity_degree,
)
from reference_checks import (
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
        Permutation.from_cycles(3, [(0, point)])


def test_bijection_error_stays_short_on_a_large_degree():
    images = list(range(4032))
    images[4000] = 17
    with pytest.raises(ValueError) as refusal:
        Permutation(tuple(images))
    assert str(refusal.value) == ("not a bijection of 0..4031 (degree 4032): "
                                  "17 is the image of two points")


def test_composition_degree_mismatch_names_both_degrees():
    with pytest.raises(ValueError, match=r"^degree mismatch in composition: 3 and 2$"):
        Permutation.identity(3) * Permutation.identity(2)


def test_composition_convention():
    # (p * q)(x) = p(q(x)): the right factor acts first
    p = Permutation.from_cycles(3, [(0, 1, 2)])
    q = Permutation.from_cycles(3, [(0, 1)])
    assert (p * q)(0) == p(q(0)) == 2
    assert (q * p)(0) == q(p(0)) == 0


def test_cycle_string():
    g = Permutation.from_cycles(5, [(0, 2), (1, 3)])
    assert g.cycle_string() == "(0 2)(1 3)"
    assert Permutation.identity(3).cycle_string() == "()"


def test_closure_orders():
    assert group_closure([cyclic(5)]).order == 5
    s4 = group_closure([Permutation.from_cycles(4, [(0, 1)]), cyclic(4)])
    assert s4.order == 24
    assert affine_group(make_field(5, 1)).order == 20


def test_closure_degree_mismatch_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        group_closure([cyclic(4), cyclic(5)])
    gens = [Permutation.from_cycles(4, [(0, 1)]), cyclic(4)]
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 10)
    with pytest.raises(RuntimeError):
        group_closure(gens)


def test_cap_env_override(monkeypatch):
    # S4 has order 24: refused just under the cap's bound, built at it
    gens = [Permutation.from_cycles(4, [(0, 1)]), cyclic(4)]
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
    yield group_closure([Permutation.identity(3)])
    yield group_closure([cyclic(4)])
    yield group_closure([Permutation.from_cycles(3, [(0, 1)]),
                         Permutation.from_cycles(3, [(0, 1, 2)])])  # S3
    yield group_closure([cyclic(4), Permutation((0, 3, 2, 1))])  # dihedral
    yield group_closure([Permutation.from_cycles(4, [(0, 1, 2)]),
                         Permutation.from_cycles(4, [(1, 2, 3)])])  # A4
    yield group_closure([Permutation.from_cycles(4, [(0, 1)]), cyclic(4)])  # S4
    yield affine_group(make_field(2, 2))
    yield affine_group(make_field(5, 1))


def test_single_orbit_check_matches_literal_definition():
    for group in _sample_groups():
        for k in range(1, min(3, group.degree) + 1):
            assert (transitivity_degree(group) >= k) == is_k_transitive_literal(group, k)


def test_transitivity_degree_examples():
    s4 = group_closure([Permutation.from_cycles(4, [(0, 1)]), cyclic(4)])
    assert transitivity_degree(s4) == 4
    assert transitivity_degree(affine_group(make_field(2, 3))) == 2
    trivial = group_closure([Permutation.identity(3)])
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
        elements = group.elements
        assert Permutation.identity(group.degree) in elements
        for g in elements:
            assert inverse(g) in elements
        pool = sorted(elements, key=lambda p: p.images)
        for _ in range(20):
            g, h = rng.choice(pool), rng.choice(pool)
            assert g * h in elements


def test_oversized_group_is_refused_while_the_chain_is_built(monkeypatch):
    # S_12 has order 479001600; listing it would take minutes
    gens = [Permutation.from_cycles(12, [(0, 1)]), cyclic(12)]
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
    s4 = group_closure([Permutation.from_cycles(4, [(0, 1)]), cyclic(4)])
    a4 = group_closure([Permutation.from_cycles(4, [(0, 1, 2)]),
                        Permutation.from_cycles(4, [(1, 2, 3)])])
    odd = Permutation.from_cycles(4, [(2, 3)])
    assert is_member(s4, odd) and not is_member(a4, odd)
    assert is_member(a4, Permutation.from_cycles(4, [(0, 1), (2, 3)]))
    assert not is_member(s4, cyclic(5))


def test_chain_base_is_a_prefix_with_trivial_levels_kept():
    # (2 3) fixes 0 and 1, so the base runs 0, 1, 2 with two trivial orbits
    group = group_closure([Permutation.from_cycles(4, [(2, 3)])])
    assert group.orbit_lengths == [1, 1, 2]
    assert group.order == 2 and transitivity_degree(group) == 0


def test_helical_link_never_lists_group_elements(monkeypatch):
    from cusplink import link_families

    built = []

    def recording(spec):
        built.append(affine_group(spec))
        return built[-1]

    monkeypatch.setattr(link_families, "affine_group", recording)
    blueprint = link_families.helical_link(field_of_order(64))
    (group,) = built
    assert group.order == blueprint.symmetry_order == 4032
    assert transitivity_degree(group) == blueprint.transitivity_degree == 2
    assert "elements" not in group.__dict__
