import json
from itertools import product

import pytest

from cusplink.cli import main
from cusplink.finite_field import FieldSpec, field_of_order, make_field
from cusplink.perm_action import Permutation, affine_permutation
from cusplink.regular_map import (
    RotationMap,
    biggs_map,
    face_adjacency_complete,
    face_adjacency_dot,
    genus_formula,
    map_summary,
)
from reference_checks import (
    affine_map_automorphism,
    dart_automorphism_is_valid,
    gf_multiplicative_order,
    gf_multiply,
    induced_face_permutation,
    per_dart_alpha,
    per_dart_phi,
)

PRIME_POWERS = [4, 5, 7, 8, 9, 11, 13]
PRIME_POWERS_TO_64 = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                      37, 41, 43, 47, 49, 53, 59, 61, 64]


def two_face_sphere():
    """Two faces glued along two edges: a 2-gon bubble, used as the
    incomplete-adjacency fixture."""
    alpha = Permutation((1, 0, 3, 2))
    phi = Permutation((2, 3, 0, 1))
    return RotationMap(alpha, phi)


def test_rotation_map_validation():
    with pytest.raises(ValueError, match=r"^alpha fixes dart 0$"):
        RotationMap(Permutation((0, 1)), Permutation((1, 0)))
    with pytest.raises(ValueError, match=r"^alpha fixes dart 2$"):
        RotationMap(Permutation((1, 0, 2, 3)), Permutation.identity(4))
    with pytest.raises(ValueError, match=r"^alpha\(alpha\(0\)\) = 2, not 0$"):
        RotationMap(Permutation((1, 2, 0)), Permutation.identity(3))
    with pytest.raises(ValueError, match=r"^alpha has degree 2 but phi has degree 3$"):
        RotationMap(Permutation((1, 0)), Permutation((0, 1, 2)))  # phi off the dart set


def test_disconnected_map_names_its_counts():
    bubbles = RotationMap(Permutation((1, 0, 3, 2, 5, 4, 7, 6)),
                          Permutation((2, 3, 0, 1, 6, 7, 4, 5)))
    with pytest.raises(ValueError, match=r"negative genus \(V=4, E=4, F=4, chi=4\)"):
        bubbles.genus  # noqa: B018


def two_copies(surface):
    """The disjoint union of a map with a copy of itself."""
    shift = len(surface.darts)
    alpha, phi = surface.alpha.images, surface.phi.images
    return RotationMap(Permutation(alpha + tuple(d + shift for d in alpha)),
                       Permutation(phi + tuple(d + shift for d in phi)))


@pytest.mark.parametrize("surface, components, counts", [
    (RotationMap(Permutation(()), Permutation(())), 0, "V=0, E=0, F=0, chi=0"),
    (two_copies(biggs_map(field_of_order(5))), 2, "V=10, E=20, F=10, chi=0"),
])
def test_genus_needs_exactly_one_component(surface, components, counts):
    # chi = 0 reads as genus 1, but neither is one torus
    with pytest.raises(ValueError, match=rf"^map has {components} connected components "
                                         rf"\({counts}\); a genus needs exactly one$"):
        surface.genus  # noqa: B018


def test_genus_walks_a_ring_of_faces():
    # the sphere with 6 parallel edges between two vertices: face j is the
    # 2-gon between edges j and j+1, so face 0 reaches face 3 in 3 steps
    k = 6
    alpha = Permutation(tuple(d ^ 1 for d in range(2 * k)))
    phi = Permutation.from_cycles(2 * k, [(2 * j, 2 * ((j + 1) % k) + 1) for j in range(k)])
    ring = RotationMap(alpha, phi)
    assert (ring.num_vertices, ring.num_edges, ring.num_faces) == (2, k, k)
    assert ring.genus == 0


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
    assert (summary["V"], summary["E"], summary["F"]) == (V, E, n)
    assert summary["genus"] == g
    assert summary["formula_genus"] == g


@pytest.mark.parametrize("n", PRIME_POWERS + [16, 25, 27])
def test_genus_matches_formula(n):
    surface = biggs_map(field_of_order(n))
    assert surface.genus == genus_formula(n)


@pytest.mark.parametrize("p, k", [(2, 7), (3, 5), (2, 8)])
def test_genus_matches_formula_above_the_cap(p, k):
    # the library builds fields over the CLI's cap when asked to
    spec = make_field(p, k, max_order=p ** k)
    assert biggs_map(spec).genus == genus_formula(spec.n)
    assert gf_multiplicative_order(spec, spec.primitive()) == spec.n - 1


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_structural_invariants(n):
    surface = biggs_map(field_of_order(n))
    assert surface.num_faces == n
    assert all(len(face) == n - 1 for face in surface.faces)
    assert surface.num_edges == n * (n - 1) // 2
    for d in surface.darts:
        assert surface.alpha(d) != d
        assert surface.alpha(surface.alpha(d)) == d
    counts = surface.face_pair_edge_counts()
    for i in range(n):
        for j in range(i + 1, n):
            assert counts[(i, j)] == 1
    assert face_adjacency_complete(surface)


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_vertex_count_rule(n):
    # 2n vertices when n = 3 mod 4, n otherwise
    surface = biggs_map(field_of_order(n))
    expected = 2 * n if n % 4 == 3 else n
    assert surface.num_vertices == expected


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_vertex_cycles_share_the_order_of_minus_omega(n):
    spec = field_of_order(n)
    surface = biggs_map(spec)
    lengths = {len(v) for v in surface.vertices}
    assert len(lengths) == 1
    minus_omega = gf_multiply(spec, spec.p - 1, spec.primitive())
    expected = gf_multiplicative_order(spec, minus_omega)
    assert lengths.pop() == expected


def test_biggs_map_rejects_tiny_orders():
    with pytest.raises(ValueError):
        biggs_map(field_of_order(3))


def test_identity_automorphism():
    spec = field_of_order(5)
    surface = biggs_map(spec)
    auto = affine_map_automorphism(spec, 1, 0)
    assert all(auto(d) == d for d in surface.darts)


def test_translation_automorphism_cycles_faces():
    spec = field_of_order(5)
    surface = biggs_map(spec)
    auto = affine_map_automorphism(spec, 1, 1)
    assert dart_automorphism_is_valid(surface, auto)
    faces = induced_face_permutation(surface, auto)
    assert faces.images == (1, 2, 3, 4, 0)


def test_scaling_automorphism_fixes_zero_face():
    spec = field_of_order(5)
    surface = biggs_map(spec)
    auto = affine_map_automorphism(spec, 2, 0)
    faces = induced_face_permutation(surface, auto)
    assert faces(0) == 0
    assert sorted(len(c) for c in faces.cycles()) == [4]


def test_dart_map_that_splits_a_face_is_named():
    surface = biggs_map(field_of_order(5))
    with pytest.raises(ValueError,
                       match=r"^dart map sends the darts of face 0 into faces \[1, 2, 3, 4\]$"):
        induced_face_permutation(surface, surface.alpha)
    with pytest.raises(ValueError, match=r"^dart map has degree 3 but the map has 20 darts$"):
        induced_face_permutation(surface, Permutation.identity(3))


def test_scale_zero_rejected():
    with pytest.raises(ValueError):
        affine_map_automorphism(field_of_order(5), 0, 1)


@pytest.mark.parametrize("n", [5, 7, 8])
def test_every_affine_pair_is_a_dart_automorphism(n):
    spec = field_of_order(n)
    surface = biggs_map(spec)
    for s, t in product(range(1, n), range(n)):
        auto = affine_map_automorphism(spec, s, t)
        assert dart_automorphism_is_valid(surface, auto)
        assert induced_face_permutation(surface, auto) == affine_permutation(spec, s, t)


@pytest.mark.parametrize("n", PRIME_POWERS_TO_64)
def test_phi_equals_the_per_dart_route(n):
    # one affine row per face against a + omega*(b - a) dart by dart,
    # on the 16 prime and 9 extension fields up to 64
    spec = field_of_order(n)
    assert biggs_map(spec).phi == per_dart_phi(spec)


@pytest.mark.parametrize("n", PRIME_POWERS_TO_64)
def test_alpha_equals_the_per_dart_route(n):
    # two range slices per face row against (a, b) -> (b, a) dart by dart
    spec = field_of_order(n)
    assert biggs_map(spec).alpha == per_dart_alpha(spec)


@pytest.mark.parametrize("p, k", [(2, 7), (3, 5), (2, 8)])
def test_alpha_and_phi_equal_the_per_dart_routes_above_the_cap(p, k):
    spec = make_field(p, k, max_order=256)
    surface = biggs_map(spec)
    assert surface.alpha == per_dart_alpha(spec)
    assert surface.phi == per_dart_phi(spec)


def _repeat_in_face_row(monkeypatch, face: int, image_of_face: bool):
    """Patch FieldSpec.affine_images so that the rotation row of one face
    (the row of omega*x + t that fixes the face's label) sends position 1
    where it sends position 0, or, with image_of_face, to the label
    itself, so that phi sends dart (face, 1) to (face, face), no dart."""
    original = FieldSpec.affine_images

    def affine_images(spec, s, t):
        row = original(spec, s, t)
        if s != spec.primitive() or row[face] != face:
            return row
        return (row[0], face if image_of_face else row[0], *row[2:])

    monkeypatch.setattr(FieldSpec, "affine_images", affine_images)


def test_a_face_row_that_repeats_an_image_is_named(monkeypatch):
    spec = field_of_order(9)
    repeated = biggs_map(spec).phi(3 * 8)  # dart (3, 0), whose image (3, 1) now shares
    _repeat_in_face_row(monkeypatch, 3, image_of_face=False)
    with pytest.raises(ValueError, match=rf"^phi on face 3 is not a bijection: "
                                         rf"dart {repeated} is the image of two darts$"):
        biggs_map(spec)


def test_a_face_row_that_reaches_its_own_label_is_named(monkeypatch):
    _repeat_in_face_row(monkeypatch, 3, image_of_face=True)
    with pytest.raises(ValueError, match=r"^phi on face 3 is not a bijection: "
                                         r"it sends a dart to \(3, 3\)$"):
        biggs_map(field_of_order(9))


def test_incomplete_fixture():
    bubble = two_face_sphere()
    assert bubble.num_faces == 2
    assert not face_adjacency_complete(bubble)
    assert bubble.genus == 0


def test_map_summary_json(capsys):
    payload = map_summary(biggs_map(field_of_order(5)))
    assert payload == {
        "n": 5, "V": 5, "E": 10, "F": 5,
        "genus": 1, "formula_genus": 1, "vertex_degree": 4,
    }
    # the summary is what `cusplink map` prints, less its match flag
    assert main(["map", "--n", "5"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed.pop("match") is True
    assert printed == payload


def test_summary_of_nonfamily_map_has_no_formula():
    summary = map_summary(two_face_sphere())
    assert summary["formula_genus"] is None
    assert summary["genus"] == 0


def test_dot_exports():
    surface = biggs_map(field_of_order(5))
    adjacency = face_adjacency_dot(surface)
    assert adjacency.startswith("graph faces {")
    assert adjacency.count("--") == 10


@pytest.mark.parametrize("n", PRIME_POWERS_TO_64)
def test_face_adjacency_dot_is_the_complete_graph(n):
    # every two faces share exactly one edge, so the DOT lists each pair once
    surface = biggs_map(field_of_order(n))
    expected = "graph faces {\n" + "".join(
        f"  f{i} -- f{j};\n" for i in range(n) for j in range(i + 1, n)) + "}\n"
    assert face_adjacency_dot(surface) == expected
    assert surface.num_vertices == (2 * n if n % 4 == 3 else n)
