"""Combinatorial maps on closed orientable surfaces, and the regular-map
family built from finite-field arithmetic.

A map is a rotation system over darts (directed edge sides) 0..D-1:
alpha, a fixed-point-free involution pairing each dart with its
reverse, and phi, the face rotation, both Permutations of degree D.
Conventions, fixed once and tested everywhere:

  faces     = cycles of phi
  edges     = cycles of alpha
  vertices  = cycles of phi * alpha   (d -> phi(alpha(d)))

For the field-labeled family the darts are the ordered pairs (a, b) of
distinct field-element indices (a dart of face a crossing toward face
b), numbered a*(n-1) + b - (b > a) in lexicographic order; with omega
a multiplicative generator,

  alpha(a, b) = (b, a)
  phi(a, b)   = (a, a + omega*(b - a)),

so the edges around face a visit the neighbors a + omega^i in
multiplicative order.  Face a's rotation is the affine map
x -> omega*x + (1 - omega)*a, so phi is filled from one affine row per
face, FieldSpec.affine_images (plain residues mod p in a prime field).
The resulting map has n faces, each an (n-1)-gon, every pair of faces
sharing exactly one edge, and its genus matches genus_formula(n):
1 + n(n-7)/4 when n = 3 mod 4, else 1 + n(n-5)/4.

RotationMap checks alpha in bulk.  biggs_map fills alpha and phi as
flat arrays over the dart ids, checks phi face row by face row, and
passes both on unchecked, so no dart is scanned twice.  The one graph
export is the face-adjacency DOT that the map subcommand prints.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import ne

from .finite_field import FieldSpec, prime_power
from .perm_action import Permutation


class RotationMap:
    """A rotation system given by two same-degree dart Permutations;
    alpha is checked to be a fixed-point-free involution."""

    def __init__(self, alpha: Permutation, phi: Permutation):
        if alpha.degree != phi.degree:
            raise ValueError(f"alpha has degree {alpha.degree} but phi has degree {phi.degree}")
        darts, images = range(alpha.degree), alpha.images
        if not all(map(ne, images, darts)) or list(map(images.__getitem__, images)) != [*darts]:
            d = next(d for d, e in enumerate(images) if e == d or images[e] != d)
            raise ValueError(f"alpha fixes dart {d}" if images[d] == d
                             else f"alpha(alpha({d})) = {images[images[d]]}, not {d}")
        self.alpha = alpha
        self.phi = phi
        self.darts = darts

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        return self.phi.cycles(include_fixed=True)

    @cached_property
    def vertices(self) -> list[tuple[int, ...]]:
        return (self.phi * self.alpha).cycles(include_fixed=True)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        return [(d, e) for d, e in enumerate(self.alpha.images) if d < e]

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.darts) // 2

    @property
    def genus(self) -> int:
        chi = self.num_vertices - self.num_edges + self.num_faces
        counts = f"V={self.num_vertices}, E={self.num_edges}, F={self.num_faces}, chi={chi}"
        if chi % 2:
            raise ValueError(f"odd Euler characteristic ({counts}); "
                             "not a closed orientable surface")
        g = (2 - chi) // 2
        if g < 0:
            raise ValueError(f"negative genus ({counts}); map is disconnected or corrupt")
        face, alpha, faces = self.face_index, self.alpha.images, self.faces
        unseen, components = set(range(len(faces))), 0
        while unseen:  # walk from face to face across alpha, until every face is seen
            components += 1
            stack = [unseen.pop()]
            while stack and unseen:
                f = stack.pop()
                reached = unseen.intersection(map(face.__getitem__, map(alpha.__getitem__, faces[f])))
                unseen -= reached
                stack += reached
        if components != 1:
            raise ValueError(f"map has {components} connected components ({counts}); "
                             "a genus needs exactly one")
        return g

    @cached_property
    def face_index(self) -> list[int]:
        """dart -> position of its face in self.faces."""
        out = [0] * len(self.darts)
        for i, face in enumerate(self.faces):
            for d in face:
                out[d] = i
        return out

    def face_pair_edge_counts(self) -> Counter:
        """How many edges each pair of faces (i, j), i <= j, shares."""
        face = self.face_index
        return Counter([(i, j) if (i := face[d]) <= (j := face[e]) else (j, i)
                        for d, e in self.edges])


def biggs_map(spec: FieldSpec) -> RotationMap:
    """Construct the regular map of the field: n faces, each an
    (n-1)-gon, labeled by the field elements, every two faces sharing
    exactly one edge."""
    if spec.n <= 3:
        raise ValueError("field order must exceed 3")
    omega = spec.primitive()
    # -1 has index p - 1, so this is 1 - omega
    shift = spec.affine_images(spec.p - 1, 1)[omega]
    shifts = spec.affine_images(shift, 0)
    n, m = spec.n, spec.n - 1
    alpha, phi = [], []
    for a, base in zip(range(n), range(0, n * m, m)):  # face a: darts base .. base + m - 1
        # alpha(a, b) = (b, a): dart b*m + a - 1 for b < a, b*m + a for b > a
        alpha += range(a - 1, base + a - 1, m)
        alpha += range(base + m + a, n * m + a, m)
        # face a turns by x -> a + omega*(x - a) = omega*x + (1 - omega)*a,
        # whose row fixes a; (a, c) is dart base + c - (c > a)
        row = spec.affine_images(omega, shifts[a])
        dart = [*range(base, base + a), -1, *range(base + a, base + m)]
        images = [*map(dart.__getitem__, row[:a]), *map(dart.__getitem__, row[a + 1:])]
        if sorted(images) != [*range(base, base + m)]:  # name a repeat, or the -1
            d = next(d for d in images if d < 0 or images.count(d) > 1)
            raise ValueError(f"phi on face {a} is not a bijection: " + (
                f"dart {d} is the image of two darts" if d >= 0
                else f"it sends a dart to ({a}, {a})"))
        phi += images
    return RotationMap(Permutation._unchecked(tuple(alpha)),
                       Permutation._unchecked(tuple(phi)))


def genus_formula(n: int) -> int:
    """Closed-form genus of the order-n map.  Requires a prime power
    n > 3; the divisibility by 4 is asserted rather than assumed."""
    if prime_power(n) is None:
        raise ValueError(f"{n} is not a prime power")
    if n <= 3:
        raise ValueError("order must exceed 3")
    numerator = n * (n - 7) if n % 4 == 3 else n * (n - 5)
    if numerator % 4:
        raise ValueError(f"genus formula not integral at n={n}")
    return 1 + numerator // 4


def map_summary(rotation_map: RotationMap) -> dict:
    """The orbit counts and Euler-characteristic genus as the map
    subcommand prints them, with the formula genus when the face count
    is a prime power above 3 and the vertex degree when all agree."""
    n = rotation_map.num_faces
    try:
        formula = genus_formula(n)
    except ValueError:
        formula = None
    degrees = {len(v) for v in rotation_map.vertices}
    return {
        "n": n,
        "V": rotation_map.num_vertices,
        "E": rotation_map.num_edges,
        "F": n,
        "genus": rotation_map.genus,
        "formula_genus": formula,
        "vertex_degree": degrees.pop() if len(degrees) == 1 else None,
    }


def face_adjacency_complete(rotation_map: RotationMap) -> bool:
    """Is the face-adjacency graph the complete graph, with exactly one
    shared edge per pair of faces?"""
    counts = rotation_map.face_pair_edge_counts()
    n = rotation_map.num_faces
    return all(counts[i, j] == 1 for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# DOT export


def face_adjacency_dot(rotation_map: RotationMap) -> str:
    lines = ["graph faces {"]
    counts = rotation_map.face_pair_edge_counts()
    for i, j in sorted(counts):
        lines.extend([f"  f{i} -- f{j};"] * counts[i, j])
    lines.append("}")
    return "\n".join(lines) + "\n"

