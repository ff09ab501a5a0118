from itertools import product

import pytest

from cusplink.finite_field import field_of_order
from cusplink.perm_action import affine_permutation
from cusplink.regular_map import (
    RotationMap,
    affine_map_automorphism,
    biggs_map,
    face_adjacency_complete,
    face_adjacency_dot,
    genus_formula,
    induced_face_permutation,
    map_summary,
)
from reference_checks import dart_automorphism_is_valid

PRIME_POWERS = [4, 5, 7, 8, 9, 11, 13]


def two_face_sphere():
    """Two faces glued along two edges: a 2-gon bubble, used as the
    incomplete-adjacency fixture."""
    darts = [0, 1, 2, 3]
    alpha = {0: 1, 1: 0, 2: 3, 3: 2}
    phi = {0: 2, 2: 0, 1: 3, 3: 1}
    return RotationMap(darts, alpha, phi)


def test_rotation_map_validation():
    with pytest.raises(ValueError):
        RotationMap([0, 1], {0: 0, 1: 1}, {0: 1, 1: 0})  # alpha has fixed points
    with pytest.raises(ValueError):
        RotationMap([0, 1], {0: 1, 1: 0}, {0: 0, 1: 1, 2: 2})  # phi off the dart set


def test_genus_formula_values():
    assert genus_formula(5) == 1
    assert genus_formula(7) == 1  # n = 3 mod 4 branch
    assert genus_formula(9) == 10
    assert genus_formula(4) == 0
    assert genus_formula(8) == 7
    assert genus_formula(11) == 12
    assert genus_formula(13) == 27


def test_genus_formula_rejects_bad_orders():
    for n in (6, 12, 1):
        with pytest.raises(ValueError):
            genus_formula(n)
    for n in (2, 3):
        with pytest.raises(ValueError):
            genus_formula(n)


@pytest.mark.parametrize("n,V,E,g", [
    (5, 5, 10, 1),
    (7, 14, 21, 1),
    (8, 8, 28, 7),
    (9, 9, 36, 10),
    (11, 22, 55, 12),
    (13, 13, 78, 27),
])
def test_biggs_map_counts(n, V, E, g):
    summary = map_summary(biggs_map(field_of_order(n)))
    assert (summary.vertices, summary.edges, summary.faces) == (V, E, n)
    assert summary.genus == g
    assert summary.formula_genus == g


@pytest.mark.parametrize("n", PRIME_POWERS + [16, 25, 27])
def test_genus_matches_formula(n):
    surface = biggs_map(field_of_order(n))
    assert surface.genus == genus_formula(n)


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_structural_invariants(n):
    surface = biggs_map(field_of_order(n))
    assert surface.num_faces == n
    assert all(len(face) == n - 1 for face in surface.faces)
    assert surface.num_edges == n * (n - 1) // 2
    for d in surface.darts:
        assert surface.alpha[d] != d
        assert surface.alpha[surface.alpha[d]] == d
    counts = surface.face_pair_edge_counts()
    for i in range(n):
        for j in range(i + 1, n):
            assert counts[frozenset((i, j))] == 1
    assert face_adjacency_complete(surface)


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_vertex_count_rule(n):
    # 2n vertices when n = 3 mod 4, n otherwise
    surface = biggs_map(field_of_order(n))
    expected = 2 * n if n % 4 == 3 else n
    assert surface.num_vertices == expected


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_vertex_cycles_share_the_order_of_minus_omega(n):
    surface = biggs_map(field_of_order(n))
    lengths = {len(v) for v in surface.vertices}
    assert len(lengths) == 1
    expected = (-surface.omega).multiplicative_order()
    assert lengths.pop() == expected


def test_biggs_map_rejects_tiny_orders():
    with pytest.raises(ValueError):
        biggs_map(field_of_order(3))


def test_identity_automorphism():
    surface = biggs_map(field_of_order(5))
    auto = affine_map_automorphism(surface, 1, 0)
    assert all(auto[d] == d for d in surface.darts)


def test_translation_automorphism_cycles_faces():
    surface = biggs_map(field_of_order(5))
    auto = affine_map_automorphism(surface, 1, 1)
    assert dart_automorphism_is_valid(surface, auto)
    faces = induced_face_permutation(surface, auto)
    assert faces.images == (1, 2, 3, 4, 0)


def test_scaling_automorphism_fixes_zero_face():
    surface = biggs_map(field_of_order(5))
    auto = affine_map_automorphism(surface, 2, 0)
    faces = induced_face_permutation(surface, auto)
    assert faces(0) == 0
    assert sorted(len(c) for c in faces.cycles()) == [4]


def test_scale_zero_rejected():
    surface = biggs_map(field_of_order(5))
    with pytest.raises(ValueError):
        affine_map_automorphism(surface, 0, 1)


@pytest.mark.parametrize("n", [5, 7, 8])
def test_every_affine_pair_is_a_dart_automorphism(n):
    spec = field_of_order(n)
    surface = biggs_map(spec)
    elements = spec.elements()
    for s, t in product(elements[1:], elements):
        auto = affine_map_automorphism(surface, s, t)
        assert dart_automorphism_is_valid(surface, auto)
        assert induced_face_permutation(surface, auto) == affine_permutation(spec, s, t)


def test_incomplete_fixture():
    bubble = two_face_sphere()
    assert bubble.num_faces == 2
    assert not face_adjacency_complete(bubble)
    assert bubble.genus == 0


def test_map_summary_json():
    payload = map_summary(biggs_map(field_of_order(5))).to_json_dict()
    assert payload == {
        "n": 5, "V": 5, "E": 10, "F": 5,
        "genus": 1, "formula_genus": 1, "vertex_degree": 4,
    }


def test_summary_of_nonfamily_map_has_no_formula():
    summary = map_summary(two_face_sphere())
    assert summary.formula_genus is None
    assert summary.genus == 0


def test_dot_exports():
    surface = biggs_map(field_of_order(5))
    adjacency = face_adjacency_dot(surface)
    assert adjacency.startswith("graph faces {")
    assert adjacency.count("--") == 10
