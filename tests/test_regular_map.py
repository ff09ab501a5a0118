import json
import random
import re
from itertools import chain, product
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cusplink import regular_map
from cusplink.cli import main
from cusplink.finite_field import _tables, field_of_order, make_field
from cusplink.perm_action import Permutation
from cusplink.regular_map import (
    NoAutomorphism,
    RotationMap,
    biggs_map,
    face_adjacency_dot,
    genus_formula,
    lockstep_walk,
    map_facts,
    map_summary,
)
from reference_checks import (
    affine_map_automorphism,
    affine_permutation,
    block_map,
    dart_automorphism_is_valid,
    dart_pairs,
    edges,
    face_adjacency_complete,
    face_adjacency_complete_by_counts,
    face_adjacency_dot_by_counts,
    face_pair_edge_counts,
    from_cycles,
    genus,
    gf_multiplicative_order,
    gf_multiply,
    identity,
    induced_face_permutation,
    lockstep_dfs,
    orbits,
    per_dart_alpha,
    per_dart_phi,
    phi,
    square_torus,
    two_copies,
    vertices,
)

PRIME_POWERS = [4, 5, 7, 8, 9, 11, 13]
PRIME_POWERS_TO_64 = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                      37, 41, 43, 47, 49, 53, 59, 61, 64]

ORDERS_TO_64_AND_OVER_THE_CAP = (
    [field_of_order(n) for n in PRIME_POWERS_TO_64]
    + [make_field(p, k) for p, k in [(2, 7), (3, 5), (2, 8)]])


def two_face_sphere():
    """Two faces glued along two edges: a 2-gon bubble, used as the
    incomplete-adjacency fixture.  The faces are the blocks (0, 1) and
    (2, 3), and alpha glues 0 to 2 and 1 to 3."""
    return RotationMap(Permutation((2, 3, 0, 1)), (2, 2))


def test_rotation_map_validation():
    with pytest.raises(ValueError, match=r"^alpha fixes dart 0$"):
        RotationMap(Permutation((0, 1)), (2,))
    with pytest.raises(ValueError, match=r"^alpha fixes dart 2$"):
        RotationMap(Permutation((1, 0, 2, 3)), (4,))
    with pytest.raises(ValueError, match=r"^alpha\(alpha\(0\)\) = 2, not 0$"):
        RotationMap(Permutation((1, 2, 0)), (1, 2))


def test_rotation_map_refuses_a_non_permutation():
    with pytest.raises(TypeError, match=r"^alpha \(1, 0\) is not a Permutation$"):
        RotationMap((1, 0), (2,))


@pytest.mark.parametrize("lengths, error, message", [
    ((2.0,), TypeError, r"face length 2\.0 at position 0 is not an int"),
    ((True, 1), TypeError, r"face length True at position 0 is not an int"),
    (("2",), TypeError, r"face length '2' at position 0 is not an int"),
    ((2, 0, 2), ValueError, r"face length 0 at position 1 is not positive"),
    ((5, -1), ValueError, r"face length -1 at position 1 is not positive"),
    ((-2 ** 200, 2 ** 200 + 4), ValueError,
     r"face length a negative 201-bit integer at position 0 is not positive"),
    ((3,), ValueError, r"the face lengths sum to 3, not to alpha's degree 4"),
    ((2, 2, 2), ValueError, r"the face lengths sum to 6, not to alpha's degree 4"),
    ((), ValueError, r"the face lengths sum to 0, not to alpha's degree 4"),
    ((4, 2 ** 200), ValueError,
     r"the face lengths sum to a 201-bit integer, not to alpha's degree 4"),
], ids=["float", "bool", "str", "zero", "negative", "huge-negative", "short", "long", "none",
        "huge"])
def test_rotation_map_refuses_bad_face_lengths(lengths, error, message):
    # each refusal names the length at fault, or the sum against alpha's degree
    with pytest.raises(error, match=rf"^{message}$"):
        RotationMap(Permutation((1, 0, 3, 2)), lengths)


def test_disconnected_map_names_its_counts():
    bubbles = RotationMap(Permutation((2, 3, 0, 1, 6, 7, 4, 5)), (2, 2, 2, 2))
    with pytest.raises(ValueError, match=r"^map has 2 connected components "
                                         r"\(V=4, E=4, F=4, chi=4\); a genus needs exactly one$"):
        genus(bubbles)


@pytest.mark.parametrize("surface, components, counts", [
    (RotationMap(Permutation(()), ()), 0, "V=0, E=0, F=0, chi=0"),
    (two_copies(biggs_map(field_of_order(5))), 2, "V=10, E=20, F=10, chi=0"),
])
def test_genus_needs_exactly_one_component(surface, components, counts):
    # chi = 0 reads as genus 1, but neither is one torus
    with pytest.raises(ValueError, match=rf"^map has {components} connected components "
                                         rf"\({counts}\); a genus needs exactly one$"):
        genus(surface)


@st.composite
def alphas_and_phis(draw):
    """A random fixed-point-free involution alpha and a random phi on at
    most 12 darts."""
    darts = draw(st.integers(0, 6)) * 2
    pairing = draw(st.permutations(range(darts)))
    alpha = [0] * darts
    for d, e in zip(pairing[::2], pairing[1::2]):
        alpha[d], alpha[e] = e, d
    return Permutation(tuple(alpha)), Permutation(tuple(draw(st.permutations(range(darts)))))


def rotation_systems():
    """The map of a random alpha and phi, its darts renamed into face blocks."""
    return alphas_and_phis().map(lambda drawn: block_map(*drawn)[0])


@settings(max_examples=300, deadline=None)
@given(alphas_and_phis())
def test_block_map_is_a_relabelling(drawn):
    # the renaming carries alpha and phi onto the block map's alpha and
    # its derived phi: new[sigma(d)] = sigma'(new[d]) for every dart d
    surface, new = block_map(*drawn)
    assert sorted(new) == list(surface.darts)
    for old, renamed in zip(drawn, (surface.alpha, phi(surface))):
        assert all(new[old(d)] == renamed(new[d]) for d in range(len(new)))


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_each_connected_map_is_one_closed_orientable_surface(surface):
    # the components are the orbits of <alpha, phi> on the darts, found
    # by a walk over the darts rather than over the faces
    components = len(orbits(SimpleNamespace(degree=len(surface.darts),
                                            generators=(surface.alpha, phi(surface)))))
    chi = len(vertices(surface)) - len(edges(surface)) + len(surface.faces)
    if components == 1:
        assert chi % 2 == 0 and chi <= 2
        assert genus(surface) == 1 - chi // 2
    else:
        with pytest.raises(ValueError, match=rf"^map has {components} connected components "):
            genus(surface)


def test_the_empty_map_has_no_dart_to_walk_from():
    # the bulk alpha check gathers nothing; there is no dart 0
    empty = RotationMap(Permutation(()), ())
    assert (empty.faces, edges(empty), empty.face_index, phi(empty)) == ([], [], (), identity(0))
    with pytest.raises(ValueError, match=r"^target 0 is not one of the 0 darts$"):
        lockstep_walk(empty, 0)
    with pytest.raises(ValueError, match=r"^alpha fixes dart 0$"):
        RotationMap(Permutation((0,)), (1,))


# lockstep_walk's two defects: the first dart where f*alpha and alpha*f
# differ, and an entry dart whose image lies on a face of another length
ALPHA_DEFECT = r"f\(alpha\((\d+)\)\) = (\d+) but alpha\(f\(\1\)\) = (\d+)"
FACE_LENGTH_DEFECT = (r"dart (\d+) is on a face of length (\d+) "
                      r"but f\(\1\) = (\d+) is on one of length (\d+)")


def _walk_agrees_with_the_reference(surface, target):
    """The face-row walk and the per-dart walk give the same automorphism,
    the same absence of one, or the same refusal; returns whether one exists.
    On a disconnected map the per-dart walk can map dart 0's component onto
    a smaller one with no conflict and refuse; the face-row walk then stops
    at a face of another length, which no automorphism allows."""
    try:
        expected = lockstep_dfs(surface, target)
    except ValueError:
        expected = "disconnected"
    try:
        f, defect = lockstep_walk(surface, target)
    except ValueError as refusal:
        assert expected == "disconnected"
        assert re.fullmatch(r"the walk from dart 0 misses \d+ faces: a disconnected map",
                            str(refusal))
        return False
    if defect is None:
        assert f == expected and f[0] == target
        return True
    if f is None:  # the entry dart and its image lie on faces of the named lengths
        length = {d: len(face) for face in surface.faces for d in face}
        d, m, e, k = map(int, re.fullmatch(FACE_LENGTH_DEFECT, defect).groups())
        assert (length[d], length[e]) == (m, k) and m != k
        assert expected in (None, "disconnected")
    else:  # the named dart is one where f*alpha and alpha*f differ
        d, left, right = map(int, re.fullmatch(ALPHA_DEFECT, defect).groups())
        assert (f[surface.alpha(d)], surface.alpha(f[d])) == (left, right) and left != right
        assert expected is None
    return False


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_the_face_row_walk_agrees_with_the_per_dart_walk(surface):
    for target in surface.darts:
        _walk_agrees_with_the_reference(surface, target)


def _twisted(surface):
    """The map with two edges re-paired: dart 0 and b = phi(0) swap their
    alpha partners, so 0 is glued to alpha(b) and b to alpha(0)."""
    alpha = list(surface.alpha.images)
    b = phi(surface)(0)
    alpha[0], alpha[b] = alpha[b], alpha[0]
    alpha[alpha[0]], alpha[alpha[b]] = 0, b
    return RotationMap(Permutation(tuple(alpha)), [len(face) for face in surface.faces])


@pytest.mark.parametrize("spec", ORDERS_TO_64_AND_OVER_THE_CAP, ids=lambda spec: f"n={spec.n}")
def test_biggs_maps_walk_as_the_per_dart_reference(spec):
    # both automorphisms exist on the order-n map; on the twisted map at
    # least one of them does not, and the two walks agree throughout
    surface = biggs_map(spec)
    assert all(_walk_agrees_with_the_reference(surface, target)
               for target in (surface.alpha(0), phi(surface)(0)))
    twisted = _twisted(surface)
    assert not all([_walk_agrees_with_the_reference(twisted, target)
                    for target in (twisted.alpha(0), phi(twisted)(0))])


def test_square_torus_maps():
    # the 2 x 2 torus is regular but two squares meet along two edges; the
    # 2 x 3 one has no quarter turn, so no automorphism sends 0 to phi(0)
    square, oblong = square_torus(2, 2), square_torus(2, 3)
    assert genus(square) == genus(oblong) == 1
    assert not face_adjacency_complete(square) and not face_adjacency_complete(oblong)
    assert [lockstep_walk(square, t)[1] for t in (square.alpha(0), phi(square)(0))] == [None, None]
    assert _walk_agrees_with_the_reference(oblong, oblong.alpha(0))
    assert not _walk_agrees_with_the_reference(oblong, phi(oblong)(0))


def shuffled(surface, seed: int):
    """The alpha and phi of a map with dart d renamed p[d], for a shuffle p
    of the darts: phi's cycles, listed end to end, are no longer in dart
    order."""
    p = list(surface.darts)
    random.Random(seed).shuffle(p)
    alpha, rotation = [0] * len(p), [0] * len(p)
    for d, (a, b) in enumerate(zip(surface.alpha.images, phi(surface).images)):
        alpha[p[d]], rotation[p[d]] = p[a], p[b]
    return Permutation(tuple(alpha)), Permutation(tuple(rotation))


def relabelled(surface, seed: int):
    """The shuffled map put back into blocks by block_map: its faces come
    in another order, each from another dart, so dart 0 is no longer the
    field's."""
    return block_map(*shuffled(surface, seed))[0]


@pytest.mark.parametrize("rotation", [
    pytest.param(lambda: (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))),
                 id="two_face_sphere"),
    *(pytest.param(lambda n=n: shuffled(biggs_map(field_of_order(n)), n), id=f"relabelled n={n}")
      for n in (5, 8, 9, 16)),
])
def test_the_walk_gathers_when_the_faces_are_not_in_dart_order(rotation):
    # phi's cycles are not in dart order, so block_map renames the darts
    # into face blocks rather than the walk gathering rows into dart order;
    # the map it hands over walks as the per-dart reference does, and both
    # automorphisms exist
    alpha, turn = rotation()
    assert tuple(chain.from_iterable(turn.cycles())) != tuple(range(turn.degree))
    surface, new = block_map(alpha, turn)
    assert new != tuple(surface.darts)
    assert surface.faces == phi(surface).cycles()
    assert all(_walk_agrees_with_the_reference(surface, target)
               for target in (surface.alpha(0), phi(surface)(0)))


def test_a_walk_over_a_disconnected_map_is_refused():
    # a library caller gets the ValueError; the CLI reports a map it built
    # this way as a violated invariant
    surface = two_copies(biggs_map(field_of_order(5)))
    for refused in (lambda: lockstep_walk(surface, surface.alpha(0)),
                    lambda: map_facts(surface), lambda: map_summary(surface)):
        with pytest.raises(ValueError, match=r"^the walk from dart 0 misses 5 faces: "
                                             r"a disconnected map$") as excinfo:
            refused()
        assert type(excinfo.value) is ValueError


def test_genus_walks_a_ring_of_faces():
    # the sphere with 6 parallel edges between two vertices: face j is the
    # 2-gon between edges j and j+1, so face 0 reaches face 3 in 3 steps
    k = 6
    alpha = Permutation(tuple(d ^ 1 for d in range(2 * k)))
    turn = from_cycles(2 * k, [(2 * j, 2 * ((j + 1) % k) + 1) for j in range(k)])
    ring = block_map(alpha, turn)[0]
    assert (len(vertices(ring)), len(edges(ring)), len(ring.faces)) == (2, k, k)
    assert genus(ring) == 0


def test_genus_formula_values():
    assert genus_formula(5) == 1
    assert genus_formula(7) == 1  # n = 3 mod 4 branch
    assert genus_formula(9) == 10
    assert genus_formula(4) == 0
    assert genus_formula(8) == 7
    assert genus_formula(11) == 12
    assert genus_formula(13) == 27


@pytest.mark.parametrize("n, shown", [(9.0, "9.0"), (True, "True")])
def test_genus_formula_refuses_a_non_int(n, shown):
    with pytest.raises(TypeError, match=rf"^genus_formula n {shown} at position 0 is not an int$"):
        genus_formula(n)


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
    assert genus(surface) == genus_formula(n)


@pytest.mark.parametrize("p, k", [(2, 7), (3, 5), (2, 8)])
def test_genus_matches_formula_above_the_cap(p, k):
    # the library builds fields over the CLI's cap, up to MAX_FIELD_ORDER
    spec = make_field(p, k)
    assert genus(biggs_map(spec)) == genus_formula(spec.n)
    assert gf_multiplicative_order(spec, spec.primitive()) == spec.n - 1


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_structural_invariants(n):
    surface = biggs_map(field_of_order(n))
    assert len(surface.faces) == n
    assert all(len(face) == n - 1 for face in surface.faces)
    assert len(edges(surface)) == n * (n - 1) // 2
    for d in surface.darts:
        assert surface.alpha(d) != d
        assert surface.alpha(surface.alpha(d)) == d
    counts = face_pair_edge_counts(surface)
    for i in range(n):
        for j in range(i + 1, n):
            assert counts[(i, j)] == 1
    assert face_adjacency_complete(surface)


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_vertex_count_rule(n):
    # 2n vertices when n = 3 mod 4, n otherwise
    surface = biggs_map(field_of_order(n))
    expected = 2 * n if n % 4 == 3 else n
    assert len(vertices(surface)) == expected


@pytest.mark.parametrize("n", PRIME_POWERS)
def test_vertex_cycles_share_the_order_of_minus_omega(n):
    spec = field_of_order(n)
    surface = biggs_map(spec)
    lengths = {len(v) for v in vertices(surface)}
    assert len(lengths) == 1
    minus_omega = gf_multiply(spec, spec.p - 1, spec.primitive())
    expected = gf_multiplicative_order(spec, minus_omega)
    assert lengths.pop() == expected


@pytest.mark.parametrize("spec", ORDERS_TO_64_AND_OVER_THE_CAP, ids=lambda spec: f"n={spec.n}")
def test_genus_from_the_order_of_minus_omega_in_the_log_table(spec):
    # a third route to the genus: q = ord(-w) = (n-1)/gcd(log(-1) + log(w), n-1),
    # with -1 the index p-1, is the vertex degree, so the map has
    # V = n(n-1)/q vertices, E = n(n-1)/2 edges and F = n faces
    n = spec.n
    log = _tables(spec)[1]
    q = (n - 1) // gcd(log[spec.p - 1] + log[spec.primitive()], n - 1)
    surface = biggs_map(spec)
    assert {len(v) for v in vertices(surface)} == {q}
    darts = n * (n - 1)
    chi = darts // q - darts // 2 + n
    assert darts % q == 0 and chi % 2 == 0
    assert 1 - chi // 2 == genus(surface) == genus_formula(n)


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
    assert sorted(len(c) for c in faces.cycles()) == [1, 4]


def test_dart_map_that_splits_a_face_is_named():
    surface = biggs_map(field_of_order(5))
    with pytest.raises(ValueError,
                       match=r"^dart map sends the darts of face 0 into faces \[1, 2, 3, 4\]$"):
        induced_face_permutation(surface, surface.alpha)
    with pytest.raises(ValueError, match=r"^dart map has degree 3 but the map has 20 darts$"):
        induced_face_permutation(surface, identity(3))


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
    # each face block turned one step against a + omega*(b - a) dart by
    # dart, on the 16 prime and 9 extension fields up to 64
    spec = field_of_order(n)
    assert phi(biggs_map(spec)) == per_dart_phi(spec)


@pytest.mark.parametrize("n", PRIME_POWERS_TO_64)
def test_alpha_equals_the_per_dart_route(n):
    # the Zech-table rows against (a, b) -> (b, a) dart by dart
    spec = field_of_order(n)
    assert biggs_map(spec).alpha == per_dart_alpha(spec)


@pytest.mark.parametrize("p, k", [(2, 7), (3, 5), (2, 8)])
def test_alpha_and_phi_equal_the_per_dart_routes_above_the_cap(p, k):
    spec = make_field(p, k)
    surface = biggs_map(spec)
    assert surface.alpha == per_dart_alpha(spec)
    assert phi(surface) == per_dart_phi(spec)


@pytest.mark.parametrize("spec", ORDERS_TO_64_AND_OVER_THE_CAP, ids=lambda spec: f"n={spec.n}")
def test_the_faces_biggs_map_sets_are_the_derived_ones(spec):
    # the blocks of biggs_map's face lengths are the cycles of the derived
    # phi, and the face of each dart (a, b) is a
    surface = biggs_map(spec)
    assert surface.faces == phi(surface).cycles()
    assert surface.face_index == tuple(a for a, _ in dart_pairs(spec)[0])


def test_a_wrong_zech_entry_is_refused_by_the_alpha_check(monkeypatch):
    # Z(0) = log(1 + 1) = log(-1) = 4 in GF(9), read as 0: then 1 + 1 = 1,
    # so dart 8 = (1, 1 + omega^0) goes to 1*8 + (0 + 4) = 12, whose
    # correct image is (0, 1), dart 0.  biggs_map built that alpha itself,
    # so RotationMap's ValueError is a violated invariant, not a bad input
    exp, log, zech = _tables(field_of_order(9))
    monkeypatch.setattr(regular_map, "_tables", lambda spec: (exp, log, (0,) + zech[1:]))
    with pytest.raises(AssertionError, match=r"^the order-9 map fails the alpha check: "
                                             r"alpha\(alpha\(8\)\) = 0, not 8$"):
        biggs_map(field_of_order(9))


def test_incomplete_fixture():
    bubble = two_face_sphere()
    assert len(bubble.faces) == 2
    assert not face_adjacency_complete(bubble)
    assert genus(bubble) == 0


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


def _listed_facts(surface):
    """q, V, E, F and the genus by listing every vertex, edge and face."""
    listed = vertices(surface)
    degrees = {len(v) for v in listed}
    return {"q": degrees.pop() if len(degrees) == 1 else None, "V": len(listed),
            "E": len(edges(surface)), "F": len(surface.faces), "genus": genus(surface)}


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda spec=spec: biggs_map(spec), id=f"n={spec.n}")
      for spec in ORDERS_TO_64_AND_OVER_THE_CAP),
    *(pytest.param(lambda n=n: relabelled(biggs_map(field_of_order(n)), n), id=f"relabelled n={n}")
      for n in (5, 8, 9, 16)),
    pytest.param(lambda: square_torus(2, 2), id="square_torus(2, 2)"),
    pytest.param(lambda: square_torus(1, 1), id="square_torus(1, 1)"),
    pytest.param(two_face_sphere, id="two_face_sphere"),
])
def test_map_facts_equal_the_listing_reference(build):
    # V = D/q from dart 0's vertex alone, against every vertex listed: each
    # has length q, and the Euler genus by listing is the walks' genus; on
    # every order-n map, and on regular maps whose faces are not in dart
    # order or not the field's
    surface = build()
    facts = map_facts(surface)
    assert {key: facts[key] for key in ("q", "V", "E", "F", "genus")} == _listed_facts(surface)
    assert all(len(v) == facts["q"] for v in vertices(surface))
    assert facts["walks"] == [lockstep_dfs(surface, t) for t in (surface.alpha(0), phi(surface)(0))]


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_map_facts_agree_with_the_listing_reference(surface):
    # a map the two walks accept is regular, so its listed facts are the
    # walks' facts; a refused one names the walk's defect, a disconnected
    # map or the empty map
    try:
        facts = map_facts(surface)
    except NoAutomorphism as refusal:
        assert str(refusal) == (f"no automorphism of the map sends dart 0 to dart "
                                f"{refusal.target}: {refusal.defect}")
        assert any(re.fullmatch(defect, refusal.defect)
                   for defect in (ALPHA_DEFECT, FACE_LENGTH_DEFECT))
        assert refusal.target in (surface.alpha(0), phi(surface)(0))
        return
    except ValueError as refusal:
        components = len(orbits(SimpleNamespace(degree=len(surface.darts),
                                                generators=(surface.alpha, phi(surface)))))
        if components == 0:
            assert str(refusal) == "the empty map has no dart 0 to walk from"
        else:
            assert components > 1 and re.fullmatch(
                r"the walk from dart 0 misses \d+ faces: a disconnected map", str(refusal))
        return
    assert {key: facts[key] for key in ("q", "V", "E", "F", "genus")} == _listed_facts(surface)


@st.composite
def regular_maps(draw):
    """A regular map with its darts renamed: an order-n field map, n <= 16,
    or a k x k square torus of up to 256 darts.  Half of them come
    _twisted, which keeps every face length, so the walk to alpha(0) or to
    phi(0) stops at the alpha check rather than at a face length."""
    if draw(st.booleans()):
        surface = biggs_map(field_of_order(draw(st.sampled_from(PRIME_POWERS + [16]))))
    else:
        k = draw(st.integers(1, 8))
        surface = square_torus(k, k)
    surface = relabelled(surface, draw(st.integers(0, 2 ** 32 - 1)))
    return _twisted(surface) if draw(st.booleans()) else surface


@settings(max_examples=60, deadline=None)
@given(regular_maps())
def test_walks_and_map_facts_on_regular_maps_and_their_twists(surface):
    # both walks agree with the per-dart reference; map_facts accepts the
    # maps on which both find an automorphism, with the listed facts, and
    # refuses the others by the alpha check, since no face length differs
    regular = all([_walk_agrees_with_the_reference(surface, target)
                   for target in (surface.alpha(0), phi(surface)(0))])
    try:
        facts = map_facts(surface)
    except NoAutomorphism as refusal:
        assert not regular and re.fullmatch(ALPHA_DEFECT, refusal.defect)
        return
    assert regular
    assert {key: facts[key] for key in ("q", "V", "E", "F", "genus")} == _listed_facts(surface)


def test_a_face_of_another_length_stops_the_walk():
    # dart 0 is a face of its own, but alpha(0) = 1 turns in a 3-gon, so
    # the walk to alpha(0) stops there, with no dart map, as the per-dart
    # walk finds no automorphism
    surface = RotationMap(Permutation((1, 0, 3, 2)), (1, 3))
    assert [len(face) for face in surface.faces] == [1, 3]
    defect = "dart 0 is on a face of length 1 but f(0) = 1 is on one of length 3"
    assert lockstep_walk(surface, 1) == (None, defect)
    assert lockstep_dfs(surface, 1) is None
    with pytest.raises(NoAutomorphism, match=rf"^no automorphism of the map sends dart 0 to "
                                             rf"dart 1: {re.escape(defect)}$"):
        map_facts(surface)


def test_map_facts_refuse_the_empty_map():
    # there is no dart 0 to walk from, so no alpha(0) or phi(0) to walk to
    empty = RotationMap(Permutation(()), ())
    for facts in (map_facts, map_summary):
        with pytest.raises(ValueError, match=r"^the empty map has no dart 0 to walk from$"):
            facts(empty)


def test_map_summary_refuses_a_map_that_is_not_regular():
    # the 2 x 3 torus has genus 1 by listing, but no automorphism sends
    # dart 0 to phi(0) = 1, so there is no q for every vertex to share
    oblong = square_torus(2, 3)
    assert genus(oblong) == 1
    with pytest.raises(NoAutomorphism, match=r"^no automorphism of the map sends dart 0 to "
                                             r"dart 1: f\(alpha\(\d+\)\) = \d+ but "
                                             r"alpha\(f\(\d+\)\) = \d+$"):
        map_summary(oblong)


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
    assert len(vertices(surface)) == (2 * n if n % 4 == 3 else n)


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda spec=spec: biggs_map(spec), id=f"n={spec.n}")
      for spec in ORDERS_TO_64_AND_OVER_THE_CAP),
    pytest.param(lambda: relabelled(biggs_map(field_of_order(9)), 9), id="relabelled n=9"),
    pytest.param(lambda: square_torus(2, 2), id="square_torus(2, 2)"),
    pytest.param(lambda: square_torus(1, 1), id="square_torus(1, 1)"),
    pytest.param(two_face_sphere, id="two_face_sphere"),
    pytest.param(lambda: RotationMap(Permutation(()), ()), id="empty"),
])
def test_the_face_pair_codes_read_as_the_counted_pairs(build):
    # the sorted codes give the DOT and the completeness check of the
    # counted face pairs, on maps where every two faces share one edge, two
    # faces share two edges, a face meets itself, or there is no face
    surface = build()
    assert face_adjacency_dot(surface) == face_adjacency_dot_by_counts(surface)
    assert face_adjacency_complete(surface) == face_adjacency_complete_by_counts(surface)

