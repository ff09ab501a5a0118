"""Combinatorial maps on closed orientable surfaces, and the regular-map
family built from finite-field arithmetic.

A map is a rotation system over darts (directed edge sides) 0..D-1:
alpha, a fixed-point-free involution pairing each dart with its
reverse, and the face lengths, each face a block of consecutive ids.
phi, the face rotation, turns each block one step: d to d + 1, and the
block's last dart to its first.  Conventions, fixed once and tested
everywhere:

  edges     = cycles of alpha
  vertices  = cycles of phi * alpha   (d -> phi(alpha(d)))

For the field-labeled family the darts are the ordered pairs (a, b) of
distinct field-element indices (a dart of face a crossing toward face
b); with omega the least primitive element, dart a*(n-1) + i is
(a, a + omega^i), and

  alpha(a, b) = (b, a)
  phi(a, b)   = (a, a + omega*(b - a)).

Face a turns by x -> a + omega*(x - a) (Jones and Singerman, Proc. LMS
1978), so each face is one block of n-1 darts in cycle order.  With
-1 = omega^h (h = 0 in characteristic 2), alpha sends dart a*(n-1) + i
to b*(n-1) + (i + h) mod (n-1), with b = a + omega^i read off the exp,
log and Zech tables; only a right table makes that an involution, which
RotationMap checks in bulk.  The map has n faces, each an (n-1)-gon,
every two sharing exactly one edge, and genus genus_formula(n):
1 + n(n-7)/4 when n = 3 mod 4, else 1 + n(n-5)/4.

Each orbit of <alpha, phi> is one closed orientable surface, with
V - E + F = 2 - 2g and g >= 0.  An automorphism of a connected map is
fixed by one dart's image (Biggs, JCT B 1971), which lockstep_walk finds
by turning faces onto faces, so that f*alpha = alpha*f is its one check.
The two sending dart 0 to alpha(0) and to phi(0) make every dart an image
of dart 0, so map_facts reads every vertex's degree q off dart 0's: V = D/q.
The face-adjacency DOT that the map subcommand prints reads one sorted
list of face-pair codes, i*F + j for each edge between faces i <= j.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, ne

from ._value import int_tuple, shown_int
from .finite_field import FieldSpec, _tables, prime_power
from .perm_action import Permutation, _compose


class RotationMap:
    """A rotation system given by alpha, a dart Permutation checked in bulk to
    be a fixed-point-free involution, and its face lengths: face i is the
    face_lengths[i] darts that follow faces 0..i-1."""

    def __init__(self, alpha: Permutation, face_lengths):
        if not isinstance(alpha, Permutation):
            raise TypeError(f"alpha {alpha!r} is not a Permutation")
        lengths = int_tuple(face_lengths, "face length")
        for i, length in enumerate(lengths):
            if length < 1:
                raise ValueError(f"face length {shown_int(length)} at position {i} is not positive")
        if (total := sum(lengths)) != alpha.degree:
            raise ValueError(f"the face lengths sum to {shown_int(total)}, "
                             f"not to alpha's degree {alpha.degree}")
        darts, images = range(alpha.degree), alpha.images
        if not all(map(ne, images, darts)) or _compose(images, images) != tuple(darts):
            d = next(d for d, e in enumerate(images) if e == d or images[e] != d)
            raise ValueError(f"alpha fixes dart {d}" if images[d] == d
                             else f"alpha(alpha({d})) = {images[images[d]]}, not {d}")
        self.alpha = alpha
        self.darts = darts
        self.faces = [tuple(range(start, start + length))
                      for start, length in zip(accumulate(lengths, initial=0), lengths)]
        self.face_index = tuple(chain.from_iterable(repeat(i, length)
                                                    for i, length in enumerate(lengths)))


def biggs_map(spec: FieldSpec) -> RotationMap:
    """Construct the regular map of the field: n faces, each an (n-1)-gon,
    labeled by the field elements, every two sharing exactly one edge; a
    table that fails RotationMap's alpha check is an AssertionError."""
    if spec.n <= 3:
        raise ValueError("field order must exceed 3")
    exp, log, zech = _tables(spec)
    n, m, h = spec.n, spec.n - 1, log[spec.p - 1]  # -1 has index p - 1
    steps = (*range(h, m), *range(h))  # i -> (i + h) mod m
    starts = tuple([b * m for b in exp])  # the first dart of face omega^i
    alpha = list(map(add, starts, steps))  # face 0: b = omega^i
    for r in log[1:]:  # face a = 1, 2, ...: a + omega^i = omega^(r + Z(i - r)), r = log a
        alpha += map(add, _compose(starts[r:] + starts[:r] + (0,), zech[m - r:] + zech[:m - r]),
                     steps)  # Z = m, for a + omega^i = 0, reads the 0 appended
    try:
        return RotationMap(Permutation._unchecked(tuple(alpha)), (m,) * n)
    except ValueError as refusal:
        raise AssertionError(f"the order-{n} map fails the alpha check: {refusal}") from None


def lockstep_walk(rotation_map: RotationMap, target: int) -> tuple[tuple | None, str | None]:
    """The dart map f forced by f(0) = target, and where f*alpha and alpha*f
    first differ (None when f is an automorphism).  Each face entered across
    alpha turns onto the face of its entry dart's image, so f commutes with
    phi; entering a face of another length gives (None, defect) at once, as
    no automorphism maps a face onto one.  A disconnected map is refused."""
    faces, face = rotation_map.faces, rotation_map.face_index
    if not 0 <= target < len(face):
        raise ValueError(f"target {target} is not one of the {len(face)} darts")
    alpha = rotation_map.alpha.images
    rows = list(faces)  # f on each face, in its cycle order; unreached faces stay fixed
    unseen, frontier = set(range(len(faces))) - {face[0]}, [(0, target)]
    for s, e in frontier:  # an entry dart of a face not yet entered, and its image
        source, image = faces[face[s]], faces[face[e]]
        if len(source) != len(image):
            return None, (f"dart {s} is on a face of length {len(source)} "
                          f"but f({s}) = {e} is on one of length {len(image)}")
        r = (e - image[0] - s + source[0]) % len(image)
        row = rows[face[s]] = image[r:] + image[:r]
        if unseen:  # the faces across alpha from this one, each with one entry dart
            crossed = _compose(alpha, source)
            entries = dict(zip(_compose(face, crossed), zip(crossed, _compose(alpha, row))))
            frontier += map(entries.get, unseen.intersection(entries))
            unseen.difference_update(entries)
    f = tuple(chain.from_iterable(rows))  # the faces are blocks in dart order, so f is too
    if (left := _compose(f, alpha)) != (right := _compose(alpha, f)):
        d = next(d for d, (x, y) in enumerate(zip(left, right)) if x != y)
        return f, f"f(alpha({d})) = {left[d]} but alpha(f({d})) = {right[d]}"
    if unseen:
        raise ValueError(f"the walk from dart 0 misses {len(unseen)} faces: a disconnected map")
    return f, None


class NoAutomorphism(ValueError):
    """No automorphism sends dart 0 to target; defect is lockstep_walk's."""

    def __init__(self, target: int, defect: str):
        super().__init__(f"no automorphism of the map sends dart 0 to dart {target}: {defect}")
        self.target, self.defect = target, defect


def _built_map_failure(n: int, refusal: ValueError) -> AssertionError:
    """map_facts' refusal of the order-n map the program built: a violated
    invariant, not a usage error, naming the order."""
    if isinstance(refusal, NoAutomorphism):
        return AssertionError(f"no automorphism of the order-{n} map sends dart 0 "
                              f"to dart {refusal.target}: {refusal.defect}")
    return AssertionError(f"the order-{n} map fails its walks: {refusal}")


def map_facts(rotation_map: RotationMap) -> dict:
    """The automorphisms with f(0) = alpha(0) and f(0) = phi(0) as "walks",
    and the regular map's vertex degree q, V, E, F and genus.  A map that is
    empty, disconnected or, by NoAutomorphism, not regular is refused."""
    darts, alpha, faces = len(rotation_map.darts), rotation_map.alpha.images, rotation_map.faces
    if not darts:
        raise ValueError("the empty map has no dart 0 to walk from")

    def phi(d):  # the next dart of d's face block, the last turning to the first
        block = faces[rotation_map.face_index[d]]
        return d + 1 if d < block[-1] else block[0]

    walks = []
    for target in (alpha[0], phi(0)):
        f, defect = lockstep_walk(rotation_map, target)
        if defect is not None:
            raise NoAutomorphism(target, defect)
        walks.append(f)
    q, d = 1, phi(alpha[0])
    while d:  # dart 0's vertex, under d -> phi(alpha(d))
        q, d = q + 1, phi(alpha[d])
    V, E, F = darts // q, darts // 2, len(faces)
    return {"walks": walks, "q": q, "V": V, "E": E, "F": F, "genus": (2 - V + E - F) // 2}


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
    """The map_facts of a regular map as the map subcommand prints them,
    with the closed-form genus as a second route when the face count is a
    prime power above 3 (None otherwise)."""
    facts = map_facts(rotation_map)
    try:
        formula = genus_formula(facts["F"])
    except ValueError:
        formula = None
    return {"n": facts["F"], **{key: facts[key] for key in ("V", "E", "F", "genus")},
            "formula_genus": formula, "vertex_degree": facts["q"]}


def _face_pair_codes(rotation_map: RotationMap) -> list[int]:
    """One code i*F + j per edge, i <= j its faces and F the face count, sorted."""
    face, alpha, F = rotation_map.face_index, rotation_map.alpha.images, len(rotation_map.faces)
    low = [d for d, e in enumerate(alpha) if d < e]  # one dart of each edge
    pairs = zip(_compose(face, low), _compose(face, _compose(alpha, low)))
    return sorted([i * F + j if i <= j else j * F + i for i, j in pairs])


def face_adjacency_dot(rotation_map: RotationMap) -> str:
    F = len(rotation_map.faces)
    prefix, suffix = [f"  f{i} -- f" for i in range(F)], [f"{j};\n" for j in range(F)]
    lines = [prefix[c // F] + suffix[c % F] for c in _face_pair_codes(rotation_map)]
    return "graph faces {\n" + "".join(lines) + "}\n"

