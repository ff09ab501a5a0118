import random
import re
from math import gcd, perm
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from cusplink import link_families
from cusplink.finite_field import _tables, field_of_order, make_field, prime_power
from cusplink.link_families import (
    EXAMPLE_BRAID,
    MAX_BRAID_LETTERS,
    MAX_BRAID_POWER,
    MAX_BRAID_STRANDS,
    MAX_CHAIN_LOOPS,
    MAX_HALF_TWISTS,
    BraidWord,
    LinkBlueprint,
    _check_cyclic_stabilizer,
    _closure_linking,
    braid_permutation,
    chain_link,
    cube_edge_link,
    cube_link,
    cyclic_braid_closure,
    helical_link,
    icosahedral_link,
    polygon_geometry,
)
from cusplink.perm_action import MAX_GROUP_ORDER, Permutation, group_closure, transitivity_degree
from cusplink.regular_map import biggs_map, genus_formula
from reference_checks import (
    affine_permutation,
    compose,
    face_adjacency_complete,
    from_cycles,
    genus,
    identity,
    is_k_transitive_literal,
    near_field_stabilizer,
    square_torus,
    vertices,
)


def all_blueprints():
    return [
        chain_link(5, 2),
        chain_link(6, 0),
        cyclic_braid_closure(EXAMPLE_BRAID, 1),
        cyclic_braid_closure(BraidWord(2, (1,)), 1),
        cube_link(),
        cube_edge_link(),
        icosahedral_link(),
        helical_link(field_of_order(5)),
    ]


# ---------------------------------------------------------------------------
# shared invariants


def test_linking_matrices_symmetric_zero_diagonal():
    for bp in all_blueprints():
        matrix = bp.linking_matrix
        if matrix is None:
            continue
        n = bp.n_components
        for i in range(n):
            assert matrix[i][i] == 0
            for j in range(n):
                assert matrix[i][j] == matrix[j][i]


def test_generators_preserve_linking():
    for bp in all_blueprints():
        matrix = bp.linking_matrix
        if matrix is None:
            continue
        for g in bp.generators:
            for i in range(bp.n_components):
                for j in range(bp.n_components):
                    assert matrix[g(i)][g(j)] == matrix[i][j]


def _blueprint(matrix, generators):
    group = group_closure(generators)
    return LinkBlueprint(
        family="test",
        ambient="S3",
        components=tuple(f"c{i}" for i in range(3)),
        linking_matrix=matrix,
        generators=group.generators,
        symmetry_order=group.order,
        transitivity_degree=transitivity_degree(group),
        hyperbolicity={"status": "unknown", "note": "test fixture"},
    )


_ROTATION = Permutation((1, 2, 0))
_SWAP = Permutation((1, 0, 2))
_TRIANGLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_direct_construction_derives_the_symmetry_facts():
    bp = _blueprint(_TRIANGLE, [_ROTATION, _SWAP])
    assert bp.symmetry_order == 6
    assert bp.transitivity_degree == 3
    assert bp.generators == (_ROTATION, _SWAP)
    assert bp.linking_complete


@pytest.mark.parametrize("matrix, generators, message", [
    (_TRIANGLE, [Permutation((1, 0))], "symmetry degree 2 differs from the component count 3"),
    (((0, 1), (1, 0)), [_ROTATION], "linking matrix is not 3x3"),
    (((0, 1, 1), (1, 0, 1), (1, 1)), [_ROTATION], "linking matrix is not 3x3"),
    (((1, 1, 1), (1, 1, 1), (1, 1, 1)), [_ROTATION], "diagonal entry 0 is 1, not 0"),
    (((0, 1, 2), (1, 0, 1), (1, 1, 0)), [_SWAP], r"not symmetric at \(2, 0\)"),
    (((0, 1, 0), (1, 0, 0), (0, 0, 0)), [_ROTATION], r"generator \(0 1 2\) does not preserve"),
], ids=["generator-degree", "rows", "row-length", "diagonal", "asymmetric", "not-preserved"])
def test_direct_construction_enforces_the_invariants(matrix, generators, message):
    with pytest.raises(ValueError, match=message):
        _blueprint(matrix, generators)


def test_a_blueprint_with_impossible_facts_is_refused():
    # two components, no generators, order -5 and degree 99: the order is named first
    with pytest.raises(ValueError, match=r"^symmetry order -5 is not positive$"):
        LinkBlueprint("x", "S3", ("a", "b"), None, (), -5, 99, {})


@pytest.mark.parametrize("generators, order, degree, message", [
    ((_ROTATION,), 0, 1, "symmetry order 0 is not positive"),
    ((_ROTATION,), 3, 4, "transitivity degree 4 is not in 0..3"),
    ((_ROTATION,), 3, -1, "transitivity degree -1 is not in 0..3"),
    ((), 6, 3, r"symmetry generators \(\): a group needs at least one"),
    ((_ROTATION, _SWAP), 3, 2, "symmetry order 3 is not a multiple of 6, "
                               "the number of 2-tuples of 3 components"),
    ((_ROTATION,), 4, 1, "symmetry order 4 is not a multiple of 3, "
                         "the number of 1-tuples of 3 components"),
], ids=["order-0", "degree-over-n", "degree-negative", "no-generators", "order-k2", "order-k1"])
def test_each_impossible_symmetry_fact_is_named(generators, order, degree, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LinkBlueprint("test", "S3", ("c0", "c1", "c2"), _TRIANGLE, generators, order, degree,
                      {"status": "unknown", "note": "test fixture"})


_NOT_AN_INT = "LinkBlueprint (symmetry_order, transitivity_degree) entry {} is not an int"


@pytest.mark.parametrize("order, degree, error, message", [
    (24.0, 1, TypeError, _NOT_AN_INT.format("24.0 at position 0")),
    (6, 2.0, TypeError, _NOT_AN_INT.format("2.0 at position 1")),
    (6, True, TypeError, _NOT_AN_INT.format("True at position 1")),
    (10 ** 400, 1, ValueError, "symmetry order a 1329-bit integer is not a multiple of 3, "
                               "the number of 1-tuples of 3 components"),
    (-10 ** 400, 1, ValueError, "symmetry order a negative 1329-bit integer is not positive"),
    (6, 10 ** 400, ValueError, "transitivity degree a 1329-bit integer is not in 0..3"),
], ids=["order-float", "degree-float", "degree-bool", "order-huge", "order-huge-negative",
        "degree-huge"])
def test_symmetry_facts_are_ints_shown_briefly(order, degree, error, message):
    # the order 24.0 used to be kept and printed as 24.0 by to_json_dict,
    # and the degree 2.0 to end in a raw "'float' object cannot be
    # interpreted as an integer"; a 401-digit order was echoed in full
    with pytest.raises(error) as excinfo:
        LinkBlueprint("test", "S3", ("c0", "c1", "c2"), _TRIANGLE, (_ROTATION,), order, degree,
                      {"status": "unknown", "note": "test fixture"})
    assert str(excinfo.value) == message


def test_every_family_has_possible_facts_and_no_higher_degree():
    # the six families rebuild with their own facts; one degree more, or
    # the order negated, is refused by the orbit-stabilizer bound or the range
    for bp in all_blueprints():
        def rebuilt(order, degree):
            return LinkBlueprint(bp.family, bp.ambient, bp.components, bp.linking_matrix,
                                 bp.generators, order, degree, bp.hyperbolicity, bp.params)

        n, order, degree = bp.n_components, bp.symmetry_order, bp.transitivity_degree
        assert rebuilt(order, degree).to_json_dict() == bp.to_json_dict()
        assert order % perm(n, degree) == 0, bp.family
        with pytest.raises(ValueError, match=r"^transitivity degree |^symmetry order "):
            rebuilt(order, degree + 1)
        with pytest.raises(ValueError, match=rf"^symmetry order {-order} is not positive$"):
            rebuilt(-order, degree)
    assert {bp.family for bp in all_blueprints()} == {
        "chain", "braid_closure", "cube_diagonal", "cube_edge", "icosahedral", "helical"}


def test_linking_complete_matches_the_matrix():
    blueprints = all_blueprints() + [chain_link(n, 0) for n in range(2, 12)]
    for bp in blueprints:
        matrix = bp.linking_matrix
        if matrix is None:
            assert bp.linking_complete and bp.to_json_dict()["linking"] == "complete"
            continue
        pairs = [matrix[i][j] for i in range(bp.n_components)
                 for j in range(bp.n_components) if i != j]
        assert bp.linking_complete == all(pairs), bp.family
    assert chain_link(3, 0).linking_complete and not chain_link(4, 0).linking_complete
    assert not cube_edge_link().linking_complete


def test_json_export_shape():
    payload = chain_link(5, 2).to_json_dict()
    assert payload["family"] == "chain"
    assert payload["ambient"] == "S3"
    assert payload["n_components"] == 5
    assert payload["hyperbolicity"]["status"] == "asserted_by_paper"
    assert payload["linking"][0][1] == 1
    helical_payload = helical_link(field_of_order(5)).to_json_dict()
    assert helical_payload["linking"] == "complete"
    assert helical_payload["ambient"] == "SxS1"


# ---------------------------------------------------------------------------
# chains


def test_chain_basic():
    bp = chain_link(6, 0)
    assert bp.n_components == 6
    assert bp.symmetry_order == 6
    assert bp.transitivity_degree == 1
    assert bp.hyperbolicity["status"] == "asserted_by_paper"


def test_chain_small_is_unknown():
    for t in (-2, 0, 5):
        assert chain_link(3, t).hyperbolicity["status"] == "unknown"
    assert chain_link(4, 0).hyperbolicity["status"] == "unknown"


def test_chain_neighbor_matrix():
    bp = chain_link(5, 2)
    expected = [
        [0, 1, 0, 0, 1],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [1, 0, 0, 1, 0],
    ]
    assert [list(row) for row in bp.linking_matrix] == expected
    negative = chain_link(5, -1)
    assert negative.linking_matrix[0][1] == -1


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_chain_cyclic_action_is_exactly_one_transitive(n):
    bp = chain_link(n, 0)
    group = group_closure(bp.generators)
    assert is_k_transitive_literal(group, 1)
    assert not is_k_transitive_literal(group, 2)
    assert bp.transitivity_degree == 1


def test_chain_rejects_single_loop():
    with pytest.raises(ValueError):
        chain_link(1, 0)


def test_chain_loop_count_is_bounded():
    assert chain_link(MAX_CHAIN_LOOPS, 0).symmetry_order == MAX_CHAIN_LOOPS
    with pytest.raises(ValueError, match=f"at most MAX_CHAIN_LOOPS = {MAX_CHAIN_LOOPS} loops"):
        chain_link(MAX_CHAIN_LOOPS + 1, 0)


@pytest.mark.parametrize("sign", [1, -1])
def test_chain_twist_count_is_bounded(sign):
    # up to 2**53 either way the count is printed whole and stays exact as a
    # double; one more is refused by the bound's name and the value
    assert MAX_HALF_TWISTS == 2 ** 53 == float(2 ** 53)
    chain = chain_link(5, sign * MAX_HALF_TWISTS)
    assert chain.to_json_dict()["params"]["half_twists"] == sign * MAX_HALF_TWISTS
    assert chain.linking_matrix[0][1] == sign
    with pytest.raises(ValueError, match=rf"^a chain has at most MAX_HALF_TWISTS = {2 ** 53} "
                                         rf"half-twists either way, got {sign * (2 ** 53 + 1)}$"):
        chain_link(5, sign * (MAX_HALF_TWISTS + 1))


# int() would truncate or convert each of these; a bool is an int subclass
@pytest.mark.parametrize("build, shown", [
    (lambda: chain_link(6, 0.5), "chain_link t 0.5"),
    (lambda: chain_link(6, True), "chain_link t True"),
    (lambda: chain_link(True, 0), "chain_link n True"),
    (lambda: cyclic_braid_closure(EXAMPLE_BRAID, True), "cyclic_braid_closure m True"),
    (lambda: cyclic_braid_closure(EXAMPLE_BRAID, 1.5), "cyclic_braid_closure m 1.5"),
], ids=["chain-t-float", "chain-t-bool", "chain-n-bool", "braid-m-bool", "braid-m-float"])
def test_family_arguments_must_be_ints(build, shown):
    with pytest.raises(TypeError) as refusal:
        build()
    assert str(refusal.value) == f"{shown} at position 0 is not an int"


# ---------------------------------------------------------------------------
# braids


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    # int() would truncate or convert each of these to a valid generator
    with pytest.raises(TypeError, match=r"^generator 1\.5 at position 0 is not an int$"):
        BraidWord(3, (1.5,))
    with pytest.raises(TypeError, match=r"^generator '2' at position 1 is not an int$"):
        BraidWord(3, (1, "2"))
    with pytest.raises(TypeError, match=r"^generator True at position 0 is not an int$"):
        BraidWord(3, (True,))
    # a non-int strand count used to fail later with a raw TypeError
    with pytest.raises(TypeError, match=r"^BraidWord strand count 2\.5 at position 0 is not an int$"):
        BraidWord(2.5, (1,))
    with pytest.raises(TypeError, match=r"^BraidWord strand count True at position 0 is not an int$"):
        BraidWord(True, ())


def test_example_braid_permutation():
    # strands 1..5 permute as the 5-cycle (1 3 5 4 2), 0-based (0 2 4 3 1)
    perm = braid_permutation(EXAMPLE_BRAID)
    assert perm.images == (2, 0, 4, 1, 3)
    assert str(perm) == "(0 2 4 3 1)"


def test_braid_permutation_trivia():
    assert braid_permutation(BraidWord(4, ())) == identity(4)
    assert braid_permutation(BraidWord(2, (1,))).images == (1, 0)
    # signs do not change the underlying permutation
    assert braid_permutation(BraidWord(2, (-1,))).images == (1, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))), max_size=16)
    if n > 1 else st.just([]))))
def test_braid_permutation_is_the_product_of_its_transpositions(strands_and_word):
    # the transposition of each crossing, applied left to right: the
    # later crossing is the left factor
    n, word = strands_and_word
    product = identity(n)
    for g in word:
        product = compose(from_cycles(n, [(abs(g) - 1, abs(g))]), product)
    assert braid_permutation(BraidWord(n, tuple(word))) == product


def test_example_braid_power_closes_to_five_components():
    bp = cyclic_braid_closure(EXAMPLE_BRAID, 1)
    assert bp.n_components == 5
    assert bp.family == "braid_closure"
    assert bp.params["power"] == 5
    assert bp.hyperbolicity["status"] == "conditional"
    assert bp.transitivity_degree == 1


def test_closure_of_squared_generator_is_hopf_pattern():
    bp = cyclic_braid_closure(BraidWord(2, (1,)), 1)
    assert bp.n_components == 2
    assert [list(row) for row in bp.linking_matrix] == [[0, 1], [1, 0]]


def test_higher_power_scales_linking():
    bp = cyclic_braid_closure(BraidWord(2, (1,)), 3)
    assert bp.n_components == 2
    assert bp.params["power"] == 6
    assert bp.linking_matrix[0][1] == 3


@pytest.mark.parametrize("braid", [EXAMPLE_BRAID, BraidWord(2, (1,)), BraidWord(3, (1, 2)),
                                   BraidWord(4, (1, -2, 3, 3, 3))])
@pytest.mark.parametrize("m", [2, 3, 7])
def test_power_linking_is_m_periods(braid, m):
    # the literal walk over all n*m repeats of the word
    literal = _closure_linking(BraidWord(braid.strands, braid.word * m))
    assert [list(row) for row in cyclic_braid_closure(braid, m).linking_matrix] == literal


def test_huge_power_answers_at_once():
    for braid in (EXAMPLE_BRAID, BraidWord(3, (1, 2))):
        one = cyclic_braid_closure(braid, 1).linking_matrix
        huge = cyclic_braid_closure(braid, 10 ** 9)
        assert huge.linking_matrix == tuple(tuple(10 ** 9 * x for x in row) for row in one)
        assert huge.params["power"] == braid.strands * 10 ** 9
    assert cyclic_braid_closure(BraidWord(3, (1, 2)), 10 ** 9).linking_matrix[0][1] == 10 ** 9


def test_power_past_its_bound_is_refused():
    from cusplink.link_families import MAX_BRAID_POWER

    # at the bound, a 3999-letter braid's printed numbers stay under 2**53
    at_bound = cyclic_braid_closure(BraidWord(2, (1,) * 3999), MAX_BRAID_POWER)
    assert at_bound.linking_matrix[0][1] == 3999 * MAX_BRAID_POWER < 2 ** 53
    for m, shown in [(MAX_BRAID_POWER + 1, "1000000001"), (10 ** 5000, "a 16610-bit integer")]:
        with pytest.raises(ValueError, match=f"^the power m is at most MAX_BRAID_POWER = "
                                             f"{MAX_BRAID_POWER}, got {shown}$"):
            cyclic_braid_closure(EXAMPLE_BRAID, m)


# A braid at both of its bounds closes within this many seconds.
BRAID_AT_BOUND_BUDGET_S = 1.0


def test_braids_at_their_bounds_close_quickly():
    # the widest braid, a 256-cycle, and the longest word, 4000 letters of
    # a 255-cycle (a 256-cycle is odd, so its words have odd length); at
    # the largest power every printed number stays exact as a double
    assert MAX_BRAID_STRANDS == MAX_CHAIN_LOOPS == 256 and MAX_BRAID_LETTERS == 4000
    widest = BraidWord(MAX_BRAID_STRANDS, tuple(range(1, MAX_BRAID_STRANDS)))
    longest = BraidWord(255, tuple(range(1, 255)) + (1, -1) * 1873)
    assert len(longest.word) == MAX_BRAID_LETTERS
    for braid in (widest, longest):
        started = perf_counter()
        closure = cyclic_braid_closure(braid, MAX_BRAID_POWER)
        assert perf_counter() - started < BRAID_AT_BOUND_BUDGET_S
        assert closure.n_components == braid.strands
        assert closure.linking_matrix == tuple(
            tuple(MAX_BRAID_POWER * x for x in row) for row in _closure_linking(braid))
        numbers = [closure.params["power"], *(x for row in closure.linking_matrix for x in row)]
        assert max(map(abs, numbers)) < 2 ** 53


@pytest.mark.parametrize("strands, word, message", [
    (257, (1,), "a braid has at most MAX_BRAID_STRANDS = 256 strands, got 257"),
    (10 ** 18, (1,), "a braid has at most MAX_BRAID_STRANDS = 256 strands, "
                     "got 1000000000000000000"),
    (10 ** 5000, (), "a braid has at most MAX_BRAID_STRANDS = 256 strands, "
                     "got a 16610-bit integer"),
    (2, (1,) * 4001, "a braid word has at most MAX_BRAID_LETTERS = 4000 letters, got 4001"),
    (256, (1, -1) * 2001, "a braid word has at most MAX_BRAID_LETTERS = 4000 letters, got 4002"),
], ids=["strands+1", "strands-1e18", "strands-huge", "letters+1", "both-bounds-letters+2"])
def test_braids_past_their_bounds_are_refused_before_the_closure(strands, word, message):
    # refused by the bound's name before the closure allocates its n x n
    # linking matrix or walks the word
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BraidWord(strands, word)


def test_closure_linking_refuses_a_nontrivial_total_permutation():
    # a transposition on 3 strands, cubed, is still a transposition
    with pytest.raises(ValueError, match="^total permutation is not trivial; "
                                         "components would merge$"):
        _closure_linking(BraidWord(3, (1,)))


def test_n_cycle_braid_power_returns_every_strand():
    # the n-th power of an n-cycle is the identity, so the closure of any
    # power n*m of such a braid has one component per strand
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 6)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(n - 1, 12)))
        braid = BraidWord(n, word)
        cycles = braid_permutation(braid).cycles()
        if [len(c) for c in cycles] != [n]:
            continue
        assert braid_permutation(BraidWord(n, braid.word * n)) == identity(n)
        m = rng.randint(1, 3)
        assert [list(row) for row in cyclic_braid_closure(braid, m).linking_matrix] == \
            _closure_linking(BraidWord(braid.strands, braid.word * m))
        checked += 1


def test_closure_requires_single_cycle():
    with pytest.raises(ValueError):
        cyclic_braid_closure(BraidWord(3, (1,)), 1)  # permutation is a transposition
    with pytest.raises(ValueError):
        cyclic_braid_closure(EXAMPLE_BRAID, 0)


# ---------------------------------------------------------------------------
# polyhedral links


def test_cube_link():
    bp = cube_link()
    assert bp.n_components == 4
    assert bp.symmetry_order == 24
    assert bp.transitivity_degree == 4
    assert bp.params["crossings"] == 12
    assert bp.linking_complete


def test_cube_edge_link():
    bp = cube_edge_link()
    assert bp.n_components == 12
    assert bp.symmetry_order == 24
    assert bp.transitivity_degree == 1
    # non-cyclic action: more group elements than components
    assert bp.symmetry_order > bp.n_components
    # each edge loop interlocks with the four loops sharing one of its vertices
    assert all(sum(row) == 4 for row in bp.linking_matrix)


def test_icosahedral_link():
    bp = icosahedral_link()
    assert bp.n_components == 6
    assert bp.symmetry_order == 60
    assert bp.transitivity_degree == 2
    group = group_closure(bp.generators)
    # order 60 < 6*5*4 = 120 rules out 3-transitivity
    assert not is_k_transitive_literal(group, 3)
    assert bp.params["crossings"] == 30


# ---------------------------------------------------------------------------
# polygon geometry


def test_spherical_rejected():
    assert polygon_geometry(3, 3) == "spherical"
    with pytest.raises(ValueError):
        polygon_geometry(2, 7)


@pytest.mark.parametrize("p, q, shown, position", [
    (3.5, 6, "3.5", 0), (6, 4.0, "4.0", 1), (True, 6, "True", 0), (6, True, "True", 1)])
def test_polygon_geometry_refuses_a_non_int(p, q, shown, position):
    with pytest.raises(TypeError, match=rf"^polygon_geometry \(p, q\) entry {shown} "
                                        rf"at position {position} is not an int$"):
        polygon_geometry(p, q)


# ---------------------------------------------------------------------------
# helical links


@pytest.mark.parametrize("n", [4, 5, 7, 8, 9, 11, 13])
def test_helical_families(n):
    blueprint = helical_link(field_of_order(n))
    assert blueprint.n_components == n
    assert blueprint.linking_complete
    assert blueprint.transitivity_degree == 2
    # sharply 2-transitive: order equals the number of ordered pairs
    assert blueprint.symmetry_order == n * (n - 1)
    # triangles three at a vertex (n = 4) tile the sphere; squares four at
    # a vertex (n = 5) and hexagons three at a vertex (n = 7), the torus
    expected = {4: "spherical", 5: "euclidean", 7: "euclidean"}.get(n, "hyperbolic")
    assert blueprint.params["geometry"] == expected


def test_helical_components_carry_field_labels():
    # the coefficients c0,c1,... of each face's element, in index order;
    # GF(9) is an extension of odd characteristic
    labels = {
        4: "0,0 1,0 0,1 1,1",
        8: "0,0,0 1,0,0 0,1,0 1,1,0 0,0,1 1,0,1 0,1,1 1,1,1",
        9: "0,0 1,0 2,0 0,1 1,1 2,1 0,2 1,2 2,2",
    }
    for n, shown in labels.items():
        blueprint = helical_link(field_of_order(n))
        assert blueprint.components == tuple(f"face_{label}" for label in shown.split())


def test_helical_rejects_tiny_orders():
    with pytest.raises(ValueError):
        helical_link(field_of_order(3))


@pytest.mark.parametrize("n", [n for n in range(4, 65) if prime_power(n)])
def test_helical_map_facts_match_their_second_routes(n):
    # the genus from V = n(n-1)/q against the Euler genus of the whole map
    # and the closed form; q, dart 0's vertex degree, against every vertex
    # and the order of -w in the log table; the completeness read off face
    # 0 against the edge count of every pair of faces
    spec = field_of_order(n)
    blueprint, surface = helical_link(spec), biggs_map(spec)
    log = _tables(spec)[1]
    q = (n - 1) // gcd(log[spec.p - 1] + log[spec.primitive()], n - 1)
    assert {len(v) for v in vertices(surface)} == {blueprint.params["vertex_degree"]} == {q}
    assert blueprint.params["genus"] == genus(surface) == genus_formula(n)
    assert blueprint.linking_complete and face_adjacency_complete(surface)
    assert (blueprint.symmetry_order, blueprint.transitivity_degree) == (n * (n - 1), 2)


@pytest.mark.parametrize("n", [n for n in range(4, 65) if prime_power(n)])
def test_helical_generators_are_affine_maps(n):
    # dart 0 is (0, 1): the walk to alpha(0) = (1, 0) is x -> -x + 1 on the
    # faces, and the walk to phi(0) = (0, omega) is x -> omega*x; -1 has
    # index p - 1, and two affine maps giving n(n-1) elements are AGL(1, n)
    spec = field_of_order(n)
    assert helical_link(spec).generators == (affine_permutation(spec, spec.p - 1, 1),
                                             affine_permutation(spec, spec.primitive(), 0))


def test_a_near_field_stabilizer_is_refused_by_its_cycle_lengths():
    # x -> x^3 * omega fixes 0 and sends 1 to omega, as x -> omega*x does,
    # but moves the other 8 points in two 4-cycles; no element of the
    # near-field's stabilizer (the quaternion group) is an 8-cycle
    spec = field_of_order(9)
    omega = spec.primitive()
    stabilizer = near_field_stabilizer(spec)
    assert stabilizer[omega](1) == omega
    with pytest.raises(AssertionError, match=r"^the stabilizer of face 0 is not shown cyclic: "
                                             r"its generator has cycle lengths \[1, 4, 4\], "
                                             r"not \[1, 8\]$"):
        _check_cyclic_stabilizer(stabilizer[omega], 9)


def test_helical_link_checks_the_stabilizer_of_the_walk_to_phi_0(monkeypatch):
    # no map that passes the walks and the completeness check fails this
    # check (James and Jones: such a map is some M(omega)), so the call
    # itself is what is tested here
    calls = []
    monkeypatch.setattr(link_families, "_check_cyclic_stabilizer",
                        lambda generator, n: calls.append((generator, n)))
    blueprint = helical_link(field_of_order(9))
    assert calls == [(blueprint.generators[1], 9)]


@pytest.mark.parametrize("n", [9, 25, 49])
def test_no_element_of_a_near_field_stabilizer_passes(n):
    # the check passes x -> omega*x and refuses every x -> x o a
    spec = field_of_order(n)
    _check_cyclic_stabilizer(affine_permutation(spec, spec.primitive(), 0), n)
    for element in near_field_stabilizer(spec).values():
        with pytest.raises(AssertionError, match=r"^the stabilizer of face 0 is not shown cyclic"):
            _check_cyclic_stabilizer(element, n)


@pytest.mark.parametrize("generator, lengths", [
    (Permutation((1, 2, 3, 0)), "[4]"),  # face 0 moved
    (Permutation((0, 2, 1, 3)), "[1, 2, 1]"),
    (Permutation((0, 1, 2, 3, 4)), "[1, 1, 1, 1, 1]"),  # a degree other than n
], ids=["moves-0", "two-cycles", "wrong-degree"])
def test_each_refused_stabilizer_generator_is_named(generator, lengths):
    with pytest.raises(AssertionError, match=rf"cycle lengths {re.escape(lengths)}, not \[1, 3\]$"):
        _check_cyclic_stabilizer(generator, 4)


def test_helical_link_past_the_group_order_cap():
    # AGL(1, 1024) has order 1047552, over the cap that stops a chain
    blueprint = helical_link(make_field(2, 10))
    assert blueprint.symmetry_order == 1024 * 1023 > MAX_GROUP_ORDER
    assert blueprint.transitivity_degree == 2
    assert blueprint.params["genus"] == genus_formula(1024)


def test_helical_link_refuses_a_regular_map_without_complete_adjacency(monkeypatch):
    # the 2 x 2 square torus is regular, so both walks pass, but each
    # square meets two others, along two edges each
    monkeypatch.setattr(link_families, "biggs_map", lambda spec: square_torus(2, 2))
    with pytest.raises(AssertionError, match=r"^face adjacency of the order-4 map is not "
                                             r"complete: face 0 of 4 has 4 darts, crossing "
                                             r"to 2 others$"):
        helical_link(field_of_order(4))


def test_helical_link_refuses_a_map_without_the_automorphism(monkeypatch):
    # the 2 x 3 torus has no quarter turn: no automorphism sends dart 0 to phi(0) = 1
    monkeypatch.setattr(link_families, "biggs_map", lambda spec: square_torus(2, 3))
    with pytest.raises(AssertionError, match=r"^no automorphism of the order-5 map sends "
                                             r"dart 0 to dart 1: f\(alpha\(\d+\)\) = \d+ "
                                             r"but alpha\(f\(\d+\)\) = \d+$"):
        helical_link(field_of_order(5))
