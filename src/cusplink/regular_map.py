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

Every RotationMap is validated when built; the one graph export is the
face-adjacency DOT that the map subcommand prints.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .finite_field import FieldSpec, prime_power
from .perm_action import Permutation


class RotationMap:
    """A rotation system given by two same-degree dart Permutations;
    alpha is checked to be a fixed-point-free involution."""

    def __init__(self, alpha: Permutation, phi: Permutation):
        if alpha.degree != phi.degree:
            raise ValueError(f"alpha has degree {alpha.degree} but phi has degree {phi.degree}")
        for d, image in enumerate(alpha.images):
            if image == d:
                raise ValueError(f"alpha fixes dart {d}")
            if alpha(image) != d:
                raise ValueError(f"alpha(alpha({d})) = {alpha(image)}, not {d}")
        self.alpha = alpha
        self.phi = phi
        self.darts = range(alpha.degree)

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        return self.phi.cycles(include_fixed=True)

    @cached_property
    def vertices(self) -> list[tuple[int, ...]]:
        return (self.phi * self.alpha).cycles(include_fixed=True)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        return self.alpha.cycles()

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
        face_index = self.face_index
        return Counter(tuple(sorted((face_index[d], face_index[e]))) for d, e in self.edges)


def _dart_permutation(n: int, image) -> Permutation:
    """The permutation of the n(n-1) darts of the order-n map that sends
    dart (a, b) to dart image(a, b); dart (a, b) is a*(n-1) + b - (b > a)."""
    pairs = (image(a, b) for a in range(n) for b in range(n) if a != b)
    return Permutation(tuple(x * (n - 1) + y - (y > x) for x, y in pairs))


class BiggsMap(RotationMap):
    """The field-labeled regular map; faces correspond to field elements."""

    def __init__(self, spec: FieldSpec):
        if spec.n <= 3:
            raise ValueError("field order must exceed 3")
        self.spec = spec
        self.omega = omega = spec.primitive()
        # -1 has index p - 1, so this is 1 - omega
        shift = spec.affine_images(spec.p - 1, 1)[omega]
        shifts = spec.affine_images(shift, 0)
        # face a turns by x -> a + omega*(x - a) = omega*x + (1 - omega)*a
        rows = [spec.affine_images(omega, shifts[a]) for a in range(spec.n)]
        super().__init__(_dart_permutation(spec.n, lambda a, b: (b, a)),
                         _dart_permutation(spec.n, lambda a, b: (a, rows[a][b])))


def biggs_map(spec: FieldSpec) -> BiggsMap:
    """Construct the regular map of the field: n faces, each an
    (n-1)-gon, labeled by the field elements, every two faces sharing
    exactly one edge."""
    return BiggsMap(spec)


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


class MapSummary:
    """Euler-characteristic bookkeeping for one map, with the formula
    value attached for comparison when it applies."""

    __slots__ = ("n", "vertices", "edges", "faces", "genus", "formula_genus", "vertex_degree")

    def __init__(self, n: int, vertices: int, edges: int, faces: int, genus: int,
                 formula_genus: int | None, vertex_degree: int | None):
        self.n = n
        self.vertices = vertices
        self.edges = edges
        self.faces = faces
        self.genus = genus
        self.formula_genus = formula_genus
        self.vertex_degree = vertex_degree

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "V": self.vertices,
            "E": self.edges,
            "F": self.faces,
            "genus": self.genus,
            "formula_genus": self.formula_genus,
            "vertex_degree": self.vertex_degree,
        }


def map_summary(rotation_map: RotationMap) -> MapSummary:
    """Count orbits, compute the genus from the Euler characteristic,
    and attach the formula genus when the face count is a prime power
    above 3."""
    n = rotation_map.num_faces
    try:
        formula = genus_formula(n)
    except ValueError:
        formula = None
    degrees = {len(v) for v in rotation_map.vertices}
    return MapSummary(
        n=n,
        vertices=rotation_map.num_vertices,
        edges=rotation_map.num_edges,
        faces=n,
        genus=rotation_map.genus,
        formula_genus=formula,
        vertex_degree=degrees.pop() if len(degrees) == 1 else None,
    )


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

