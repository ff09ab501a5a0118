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
face, FieldSpec.affine_images.
The resulting map has n faces, each an (n-1)-gon, every pair of faces
sharing exactly one edge, and its genus matches genus_formula(n):
1 + n(n-7)/4 when n = 3 mod 4, else 1 + n(n-5)/4.

RotationMap checks alpha in bulk.  Each orbit of <alpha, phi> is one
closed orientable surface, with V - E + F = 2 - 2g and g >= 0, so genus
only walks the faces to see that there is one orbit.  biggs_map fills
alpha and phi as flat arrays, checks phi once, and passes both on.  An
automorphism of a connected map is fixed by one dart's image (Biggs, JCT
B 1971; Jones and Singerman, Proc. LMS 1978), which lockstep_walk finds.
The one graph export is the face-adjacency DOT that the map subcommand
prints.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, cycle, islice, repeat
from operator import ne

from ._value import int_tuple
from .finite_field import FieldSpec, prime_power
from .perm_action import Permutation, _compose, _invert


class RotationMap:
    """A rotation system given by two same-degree dart Permutations;
    alpha is checked to be a fixed-point-free involution."""

    def __init__(self, alpha: Permutation, phi: Permutation):
        for i, (name, perm) in enumerate((("alpha", alpha), ("phi", phi))):
            if not isinstance(perm, Permutation):
                raise TypeError(f"{name} {perm!r} at position {i} is not a Permutation")
        if alpha.degree != phi.degree:
            raise ValueError(f"alpha has degree {alpha.degree} but phi has degree {phi.degree}")
        darts, images = range(alpha.degree), alpha.images
        if not all(map(ne, images, darts)) or _compose(images, images) != tuple(darts):
            d = next(d for d, e in enumerate(images) if e == d or images[e] != d)
            raise ValueError(f"alpha fixes dart {d}" if images[d] == d
                             else f"alpha(alpha({d})) = {images[images[d]]}, not {d}")
        self.alpha = alpha
        self.phi = phi
        self.darts = darts

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        return self.phi.cycles()

    @cached_property
    def vertices(self) -> list[tuple[int, ...]]:
        return (self.phi * self.alpha).cycles()

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        return [(d, e) for d, e in enumerate(self.alpha.images) if d < e]

    @property
    def genus(self) -> int:
        """The genus g of a connected map, from V - E + F = 2 - 2g."""
        face, alpha, faces = self.face_index, self.alpha.images, self.faces
        unseen, components = set(range(len(faces))), 0
        while unseen:  # walk from face to face across alpha, until every face is seen
            components += 1
            stack = [unseen.pop()]
            while stack and unseen:
                f = stack.pop()
                reached = unseen.intersection(_compose(face, _compose(alpha, faces[f])))
                unseen -= reached
                stack += reached
        V, E, F = len(self.vertices), len(self.darts) // 2, len(faces)
        if components != 1:
            raise ValueError(f"map has {components} connected components "
                             f"(V={V}, E={E}, F={F}, chi={V - E + F}); a genus needs exactly one")
        return (2 - V + E - F) // 2

    @cached_property
    def face_index(self) -> tuple[int, ...]:
        """dart -> position of its face in self.faces."""
        labels = chain.from_iterable(repeat(i, len(face)) for i, face in enumerate(self.faces))
        return _compose(tuple(labels), self.face_slot)

    @cached_property
    def face_slot(self) -> tuple[int, ...]:
        """dart -> its position in the faces listed one after another."""
        return _invert(tuple(chain.from_iterable(self.faces)))

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
        dart = (*range(base, base + a), -1, *range(base + a, base + m))
        phi += _compose(dart, row[:a] + row[a + 1:])
    if min(phi) < 0 or len(set(phi)) < len(phi):  # row a holds face a's darts, or -1
        a = next(a for a in range(n) if sorted(phi[a * m:a * m + m]) != [*range(a * m, a * m + m)])
        d = next(d for d in phi[a * m:a * m + m] if d < 0 or phi.count(d) > 1)
        raise ValueError(f"phi on face {a} is not a bijection: " + (
            f"dart {d} is the image of two darts" if d >= 0
            else f"it sends a dart to ({a}, {a})"))
    return RotationMap(Permutation._unchecked(tuple(alpha)),
                       Permutation._unchecked(tuple(phi)))


def lockstep_walk(rotation_map: RotationMap, target: int) -> tuple[tuple[int, ...], str | None]:
    """The dart map f forced by f(0) = target, and where f*alpha and alpha*f,
    or else f*phi and phi*f, first differ (None when f is an automorphism).
    Each face entered across alpha maps by one rotation onto the face of its
    entry dart's image (cut or repeated to fit); a disconnected map is refused."""
    faces, face = rotation_map.faces, rotation_map.face_index
    if not 0 <= target < len(face):
        raise ValueError(f"target {target} is not one of the {len(face)} darts")
    alpha, phi = rotation_map.alpha.images, rotation_map.phi.images
    rows = list(faces)  # f on each face, in its cycle order; unreached faces stay fixed
    unseen, frontier = set(range(len(faces))) - {face[0]}, [(0, target)]
    for s, e in frontier:  # an entry dart of a face not yet entered, and its image
        source, image = faces[face[s]], faces[face[e]]
        r = (image.index(e) - source.index(s)) % len(image)
        row = rows[face[s]] = image[r:] + image[:r]
        if len(row) != len(source):
            row = rows[face[s]] = tuple(islice(cycle(row), len(source)))
        if unseen:  # the faces across alpha from this one, each with one entry dart
            crossed = _compose(alpha, source)
            entries = dict(zip(_compose(face, crossed), zip(crossed, _compose(alpha, row))))
            frontier += map(entries.get, unseen.intersection(entries))
            unseen.difference_update(entries)
    f = _compose(tuple(chain.from_iterable(rows)), rotation_map.face_slot)
    for name, g in (("alpha", alpha), ("phi", phi)):
        if (left := _compose(f, g)) != (right := _compose(g, f)):
            d = next(d for d, (x, y) in enumerate(zip(left, right)) if x != y)
            return f, f"f({name}({d})) = {left[d]} but {name}(f({d})) = {right[d]}"
    if unseen:
        raise ValueError(f"the walk from dart 0 misses {len(unseen)} faces: a disconnected map")
    return f, None


def genus_formula(n: int) -> int:
    """Closed-form genus of the order-n map.  Requires a prime power
    n > 3; the divisibility by 4 is asserted rather than assumed."""
    (n,) = int_tuple((n,), "genus_formula n")
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
    n = len(rotation_map.faces)
    try:
        formula = genus_formula(n)
    except ValueError:
        formula = None
    degrees = {len(v) for v in rotation_map.vertices}
    return {
        "n": n,
        "V": len(rotation_map.vertices),
        "E": len(rotation_map.darts) // 2,
        "F": n,
        "genus": rotation_map.genus,
        "formula_genus": formula,
        "vertex_degree": degrees.pop() if len(degrees) == 1 else None,
    }


def face_adjacency_complete(rotation_map: RotationMap) -> bool:
    """Is the face-adjacency graph the complete graph, with exactly one
    shared edge per pair of faces?"""
    counts = rotation_map.face_pair_edge_counts()
    n = len(rotation_map.faces)
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

