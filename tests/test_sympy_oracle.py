"""Group orders and transitivity degrees against sympy's Schreier-Sims,
an implementation independent of cusplink's."""

from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cusplink.finite_field import field_of_order, prime_power
from cusplink.link_families import (
    EXAMPLE_BRAID,
    chain_link,
    cube_edge_link,
    cube_link,
    cyclic_braid_closure,
    helical_link,
    icosahedral_link,
)
from cusplink.perm_action import Permutation, affine_group, group_closure, transitivity_degree
from reference_checks import affine_images_by_elements, near_field_stabilizer

combinatorics = pytest.importorskip("sympy.combinatorics")
polyhedron = pytest.importorskip("sympy.combinatorics.polyhedron")


def sympy_group(generators):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in generators])


def assert_matches_sympy(group):
    oracle = sympy_group(group.generators)
    assert group.order == oracle.order()
    assert transitivity_degree(group) == oracle.transitivity_degree


@pytest.mark.parametrize("n", [n for n in range(4, 65) if prime_power(n) is not None])
def test_affine_group_matches_sympy(n):
    assert_matches_sympy(affine_group(field_of_order(n)))


@pytest.mark.parametrize("n", [n for n in range(4, 65) if prime_power(n) is not None])
def test_helical_facts_match_the_chain_and_sympy(n):
    # the order and degree read off the map's walks, against AGL(1, n)'s
    # stabilizer chain, the chain of the two walk automorphisms' face
    # permutations, and sympy's group on those permutations
    spec = field_of_order(n)
    blueprint = helical_link(spec)
    agl, walked = affine_group(spec), group_closure(blueprint.generators)
    oracle = sympy_group(blueprint.generators)
    assert ((blueprint.symmetry_order, blueprint.transitivity_degree)
            == (agl.order, transitivity_degree(agl))
            == (walked.order, transitivity_degree(walked))
            == (oracle.order(), oracle.transitivity_degree)
            == (n * (n - 1), 2))


@pytest.mark.parametrize("n", [n for n in range(4, 65) if prime_power(n) is not None])
def test_the_helical_stabilizer_of_face_0_is_cyclic(n):
    # the stabilizer of a point in a sharply 2-transitive group is the
    # near-field's multiplicative group, cyclic of order n-1 exactly over a
    # field: then the group of the two walk automorphisms is AGL(1, n)
    stabilizer = sympy_group(helical_link(field_of_order(n)).generators).stabilizer(0)
    assert stabilizer.is_cyclic and stabilizer.order() == n - 1


@pytest.mark.parametrize("n", [9, 25, 49])
def test_the_near_field_control_is_a_sharply_two_transitive_group(n):
    # the negative control of the stabilizer check: with the translation
    # x -> x + 1 its elements give order n(n-1) and degree 2, as AGL(1, n)
    # does, but a stabilizer of order n-1 that is not cyclic
    spec = field_of_order(n)
    translation = Permutation(affine_images_by_elements(spec, 1, 1))
    group = sympy_group([translation, *near_field_stabilizer(spec).values()])
    stabilizer = group.stabilizer(0)
    assert (group.order(), group.transitivity_degree) == (n * (n - 1), 2)
    assert stabilizer.order() == n - 1 and not stabilizer.is_cyclic and not stabilizer.is_abelian


@pytest.mark.parametrize("blueprint", [
    cube_link(), cube_edge_link(), icosahedral_link(), chain_link(6, 0),
    cyclic_braid_closure(EXAMPLE_BRAID)], ids=lambda b: b.family)
def test_family_groups_match_sympy(blueprint):
    assert_matches_sympy(group_closure(blueprint.generators))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300).flatmap(lambda d: st.permutations(range(d))))
def test_cycles_match_sympy(images):
    # sympy's full cyclic form, each cycle rotated to start at its least
    # point and the cycles sorted by it, is what cycles() promises; str()
    # prints the cycles that are not fixed points
    oracle = sorted(tuple(c[c.index(min(c)):] + c[:c.index(min(c))])
                    for c in combinatorics.Permutation(images).full_cyclic_form)
    perm = Permutation(tuple(images))
    assert perm.cycles() == oracle
    assert str(perm) == "".join(str(c).replace(",", "") for c in oracle if len(c) > 1) or "()"


# ---------------------------------------------------------------------------
# the example links' groups, induced from sympy's polyhedra


def _induced(pgroup, blocks):
    """The action of a polyhedron's rotation group on a list of vertex
    sets, each carried onto another by every rotation."""
    index = {block: i for i, block in enumerate(blocks)}
    return combinatorics.PermutationGroup([
        combinatorics.Permutation([index[frozenset(g.array_form[v] for v in block)]
                                   for block in blocks])
        for g in pgroup.generators])


def _antipodal_pairs(solid):
    """Each vertex with the one at the greatest graph distance from it."""
    neighbours = {v: set() for v in range(solid.size)}
    for u, v in solid.edges:
        neighbours[int(u)].add(int(v))
        neighbours[int(v)].add(int(u))
    pairs = set()
    for v in neighbours:
        frontier, seen = {v}, {v}
        while frontier:
            last = frontier
            frontier = {w for u in frontier for w in neighbours[u]} - seen
            seen |= frontier
        (far,) = last
        pairs.add(frozenset((v, far)))
    return sorted(pairs, key=sorted)


def _edges(solid):
    return sorted((frozenset(map(int, edge)) for edge in solid.edges), key=sorted)


def _suborbit_lengths(group):
    return sorted(map(len, group.stabilizer(0).orbits()))


def _relabelled_equal(blueprint, induced):
    """Some bijection sigma of the points carries the blueprint's
    generators g, as sigma g sigma^-1, into the induced group; with equal
    orders the groups are then equal."""
    degree = induced.degree
    elements = {tuple(g.array_form) for g in induced.generate()}
    for sigma in islice(permutations(range(degree)), 720):
        conjugates = []
        for g in blueprint.generators:
            images = [0] * degree
            for i in range(degree):
                images[sigma[i]] = sigma[g(i)]
            conjugates.append(tuple(images))
        if all(c in elements for c in conjugates):
            return True
    return False


@pytest.mark.parametrize("blueprint, solid, blocks, shape", [
    (cube_link(), polyhedron.cube, _antipodal_pairs, (4, 24, 4)),
    (icosahedral_link(), polyhedron.icosahedron, _antipodal_pairs, (6, 60, 2)),
    (cube_edge_link(), polyhedron.cube, _edges, (12, 24, 1)),
], ids=["cube", "icosahedral", "cube_edge"])
def test_example_links_match_the_induced_polyhedral_groups(blueprint, solid, blocks, shape):
    induced = _induced(solid.pgroup, blocks(solid))
    assert (induced.degree, induced.order(), induced.transitivity_degree) == shape
    assert (blueprint.n_components, blueprint.symmetry_order,
            blueprint.transitivity_degree) == shape
    oracle = sympy_group(blueprint.generators)
    assert _suborbit_lengths(induced) == _suborbit_lengths(oracle)
    if induced.degree <= 6:
        assert _relabelled_equal(blueprint, induced)


def test_cube_edge_group_preserves_sharing_a_vertex():
    edges = _edges(polyhedron.cube)
    induced = _induced(polyhedron.cube.pgroup, edges)
    shares = {(i, j) for i, e in enumerate(edges) for j, f in enumerate(edges) if i != j and e & f}
    for g in induced.generators:
        assert {(g(i), g(j)) for i, j in shares} == shares
    # each edge shares a vertex with four others, as each loop of the
    # cube-edge link interlocks with four
    assert len(shares) == 12 * 4
    assert sorted(sum(row) for row in cube_edge_link().linking_matrix) == [4] * 12
