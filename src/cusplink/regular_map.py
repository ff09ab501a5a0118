"""Combinatorial maps on closed orientable surfaces, and the regular-map
family built from finite-field arithmetic.

A map is encoded as a rotation system: a set of darts (directed edge
sides), a fixed-point-free involution alpha pairing each dart with its
reverse, and a face rotation phi.  Orbit conventions, fixed once and
tested everywhere:

  faces     = orbits of phi
  edges     = orbits of alpha
  vertices  = orbits of d -> phi(alpha(d))

For the field-labeled family the darts are ordered pairs (a, b) of
distinct field elements (a dart of face a crossing toward face b), with

  alpha(a, b) = (b, a)
  phi(a, b)   = (a, a + omega*(b - a)),    omega a multiplicative generator,

so the edges around face a visit the neighbors a + omega^i in
multiplicative order.  The resulting map has n faces, each an
(n-1)-gon, every pair of faces sharing exactly one edge, and its genus
matches genus_formula(n): 1 + n(n-7)/4 when n = 3 mod 4, else
1 + n(n-5)/4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .finite_field import FieldSpec, prime_power
from .perm_action import Permutation


class RotationMap:
    """A rotation system given explicitly by alpha and phi over a dart set.

    Darts may be any sortable hashable keys.  Validation checks that
    alpha is a fixed-point-free involution and phi a bijection on the
    same dart set; everything else (face sizes, adjacency structure) is
    derived from the orbits.
    """

    def __init__(self, darts, alpha: dict, phi: dict, check: bool = True):
        self.darts = tuple(sorted(darts))
        self.alpha = dict(alpha)
        self.phi = dict(phi)
        if check:
            self._check()

    def _check(self):
        dart_set = set(self.darts)
        if len(dart_set) != len(self.darts):
            raise ValueError("duplicate darts")
        for name, mapping in (("alpha", self.alpha), ("phi", self.phi)):
            if set(mapping) != dart_set or set(mapping.values()) != dart_set:
                raise ValueError(f"{name} is not a bijection of the dart set")
        for d in self.darts:
            if self.alpha[d] == d:
                raise ValueError("alpha must be fixed-point free")
            if self.alpha[self.alpha[d]] != d:
                raise ValueError("alpha must be an involution")

    def _orbits(self, mapping) -> list[tuple]:
        seen, orbits = set(), []
        for start in self.darts:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            d = mapping(start)
            while d != start:
                cycle.append(d)
                seen.add(d)
                d = mapping(d)
            orbits.append(tuple(cycle))
        return orbits

    @cached_property
    def faces(self) -> list[tuple]:
        return self._orbits(lambda d: self.phi[d])

    @cached_property
    def vertices(self) -> list[tuple]:
        return self._orbits(lambda d: self.phi[self.alpha[d]])

    @cached_property
    def edges(self) -> list[frozenset]:
        return sorted({frozenset((d, self.alpha[d])) for d in self.darts},
                      key=lambda e: sorted(e))

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
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    @property
    def genus(self) -> int:
        chi = self.euler_characteristic
        if chi % 2:
            raise ValueError("odd Euler characteristic; not a closed orientable surface")
        g = (2 - chi) // 2
        if g < 0:
            raise ValueError("negative genus; map is disconnected or corrupt")
        return g

    @cached_property
    def face_index(self) -> dict:
        """dart -> position of its face in self.faces."""
        out = {}
        for i, face in enumerate(self.faces):
            for d in face:
                out[d] = i
        return out

    def face_pair_edge_counts(self) -> Counter:
        """How many edges each unordered pair of faces shares."""
        counts: Counter = Counter()
        for edge in self.edges:
            pair = frozenset(self.face_index[d] for d in edge)
            counts[pair] += 1
        return counts

    def __repr__(self):
        return (f"{type(self).__name__}(V={self.num_vertices}, E={self.num_edges}, "
                f"F={self.num_faces}, genus={self.genus})")


class BiggsMap(RotationMap):
    """The field-labeled regular map; faces correspond to field elements."""

    def __init__(self, spec: FieldSpec):
        if spec.n <= 3:
            raise ValueError("field order must exceed 3")
        self.spec = spec
        self.omega = spec.primitive()
        elements = spec.elements()
        darts = [(a.index, b.index) for a in elements for b in elements if a != b]
        alpha = {(i, j): (j, i) for (i, j) in darts}
        phi = {}
        for a in elements:
            for b in elements:
                if a == b:
                    continue
                successor = a + self.omega * (b - a)
                phi[(a.index, b.index)] = (a.index, successor.index)
        super().__init__(darts, alpha, phi)


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


@dataclass(frozen=True)
class MapSummary:
    """Euler-characteristic bookkeeping for one map, with the formula
    value attached for comparison when it applies."""

    n: int
    vertices: int
    edges: int
    faces: int
    euler: int
    genus: int
    formula_genus: int | None
    vertex_degree: int | None

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
        euler=rotation_map.euler_characteristic,
        genus=rotation_map.genus,
        formula_genus=formula,
        vertex_degree=degrees.pop() if len(degrees) == 1 else None,
    )


def affine_map_automorphism(rotation_map: BiggsMap, s, t) -> dict:
    """The dart permutation (a, b) -> (s*a + t, s*b + t) for a nonzero
    scale s.  It commutes with alpha and with phi, so it permutes faces,
    edges, and vertices; the induced face permutation is the affine
    permutation of the labels."""
    spec = rotation_map.spec
    s = spec.element(s)
    t = spec.element(t)
    if s.is_zero():
        raise ValueError("scale factor s must be nonzero")
    elements = spec.elements()
    image_index = [(s * e + t).index for e in elements]
    return {(i, j): (image_index[i], image_index[j]) for (i, j) in rotation_map.darts}


def induced_face_permutation(rotation_map: RotationMap, dart_map: dict) -> Permutation:
    """Project a dart permutation to the faces, checking along the way
    that it is actually well defined on phi-orbits."""
    images = [None] * rotation_map.num_faces
    for i, face in enumerate(rotation_map.faces):
        targets = {rotation_map.face_index[dart_map[d]] for d in face}
        if len(targets) != 1:
            raise ValueError("dart map does not permute faces")
        images[i] = targets.pop()
    return Permutation(tuple(images))


def face_adjacency_complete(rotation_map: RotationMap) -> bool:
    """Is the face-adjacency graph the complete graph, with exactly one
    shared edge per pair of faces?"""
    counts = rotation_map.face_pair_edge_counts()
    n = rotation_map.num_faces
    for i in range(n):
        for j in range(i + 1, n):
            if counts.get(frozenset((i, j)), 0) != 1:
                return False
    return True


def dart_automorphism_is_valid(rotation_map: RotationMap, dart_map: dict) -> bool:
    """Full check used by the property suites: the dart permutation
    commutes with alpha and with phi."""
    alpha, phi = rotation_map.alpha, rotation_map.phi
    for d in rotation_map.darts:
        if dart_map[alpha[d]] != alpha[dart_map[d]]:
            return False
        if dart_map[phi[d]] != phi[dart_map[d]]:
            return False
    return True


# ---------------------------------------------------------------------------
# DOT exports


def face_adjacency_dot(rotation_map: RotationMap, name: str = "faces") -> str:
    lines = [f"graph {name} {{"]
    counts = rotation_map.face_pair_edge_counts()
    for pair in sorted(counts, key=sorted):
        members = sorted(pair)
        if len(members) == 1:
            members = members * 2
        for _ in range(counts[pair]):
            lines.append(f"  f{members[0]} -- f{members[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dart_dot(rotation_map: RotationMap, name: str = "darts") -> str:
    """Dart structure: solid arrows for the face rotation phi, dashed
    for the edge involution alpha (one arrow per unordered pair)."""

    def node(d):
        return '"' + ",".join(str(part) for part in (d if isinstance(d, tuple) else (d,))) + '"'

    lines = [f"digraph {name} {{"]
    for d in rotation_map.darts:
        lines.append(f"  {node(d)} -> {node(rotation_map.phi[d])};")
    for edge in rotation_map.edges:
        a, b = sorted(edge)
        lines.append(f"  {node(a)} -> {node(b)} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"

