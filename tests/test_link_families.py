import random

import pytest

from cusplink.finite_field import field_of_order
from cusplink.link_families import (
    EXAMPLE_BRAID,
    MAX_CHAIN_LOOPS,
    BraidWord,
    LinkBlueprint,
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
from cusplink.perm_action import Permutation, group_closure
from reference_checks import is_k_transitive_literal


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
        for g in bp.symmetry_generators:
            for i in range(bp.n_components):
                for j in range(bp.n_components):
                    assert matrix[g(i)][g(j)] == matrix[i][j]


def _blueprint(matrix, generators):
    return LinkBlueprint(
        family="test",
        ambient="S3",
        components=tuple(f"c{i}" for i in range(3)),
        linking_matrix=matrix,
        symmetry=group_closure(generators),
        hyperbolicity={"status": "unknown", "note": "test fixture"},
    )


_ROTATION = Permutation((1, 2, 0))
_SWAP = Permutation((1, 0, 2))
_TRIANGLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_direct_construction_derives_the_symmetry_facts():
    bp = _blueprint(_TRIANGLE, [_ROTATION, _SWAP])
    assert bp.symmetry_order == 6
    assert bp.transitivity_degree == 3
    assert bp.symmetry_generators == (_ROTATION, _SWAP)
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
    group = group_closure(bp.symmetry_generators)
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
    assert perm.cycle_string() == "(0 2 4 3 1)"


def test_braid_permutation_trivia():
    assert braid_permutation(BraidWord(4, ())) == Permutation.identity(4)
    assert braid_permutation(BraidWord(2, (1,))).images == (1, 0)
    # signs do not change the underlying permutation
    assert braid_permutation(BraidWord(2, (-1,))).images == (1, 0)


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
    literal = _closure_linking(braid * m)
    assert [list(row) for row in cyclic_braid_closure(braid, m).linking_matrix] == literal


def test_huge_power_answers_at_once():
    for braid in (EXAMPLE_BRAID, BraidWord(3, (1, 2))):
        one = cyclic_braid_closure(braid, 1).linking_matrix
        huge = cyclic_braid_closure(braid, 10 ** 9)
        assert huge.linking_matrix == tuple(tuple(10 ** 9 * x for x in row) for row in one)
        assert huge.params["power"] == braid.strands * 10 ** 9
    assert cyclic_braid_closure(BraidWord(3, (1, 2)), 10 ** 9).linking_matrix[0][1] == 10 ** 9


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
        assert braid_permutation(braid * n) == Permutation.identity(n)
        m = rng.randint(1, 3)
        assert [list(row) for row in cyclic_braid_closure(braid, m).linking_matrix] == \
            _closure_linking(braid * m)
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
    group = group_closure(bp.symmetry_generators)
    # order 60 < 6*5*4 = 120 rules out 3-transitivity
    assert not is_k_transitive_literal(group, 3)
    assert bp.params["crossings"] == 30


# ---------------------------------------------------------------------------
# polygon geometry


def test_spherical_rejected():
    assert polygon_geometry(3, 3) == "spherical"
    with pytest.raises(ValueError):
        polygon_geometry(2, 7)


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
