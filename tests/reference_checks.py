"""Reference implementations the tests compare the program against;
the program itself never calls them.  The group and map references
follow a definition verbatim and are exponential or linear in the
object they check, so they run on small inputs only.  The field and
train-track references run on installed oracles instead: sympy's
galoistools polynomial arithmetic, numpy's eigenvalues and exact
integer matrix powers."""

from itertools import permutations as distinct_tuples

import numpy as np
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem, gf_strip, gf_sub

from cusplink.perm_action import Permutation, affine_permutation, group_closure


def inverse(perm):
    """The inverse permutation: the points listed in the order of their
    images."""
    return Permutation(tuple(sorted(range(perm.degree), key=perm)))


def is_member(group, perm) -> bool:
    """perm lies in the group exactly when adding it to the generators
    leaves the order unchanged."""
    return (perm.degree == group.degree
            and group_closure(group.generators + (perm,)).order == group.order)


def is_k_transitive_literal(group, k: int) -> bool:
    """The definition verbatim: every source tuple reaches every target
    tuple under some element of group.elements."""
    d = group.degree
    if not 1 <= k <= d:
        raise ValueError(f"k must satisfy 1 <= k <= degree, got {k}")
    tuples = list(distinct_tuples(range(d), k))
    elements = group.elements
    for source in tuples:
        images = {tuple(g(x) for x in source) for g in elements}
        if len(images) != len(tuples):
            return False
    return True


def orbit(group, point: int) -> frozenset[int]:
    """The orbit of a point, by breadth-first images under the generators."""
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for g in group.generators:
            for x in frontier:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def orbits(group) -> list[frozenset[int]]:
    remaining = set(range(group.degree))
    out = []
    while remaining:
        found = orbit(group, min(remaining))
        out.append(found)
        remaining -= found
    return out


def orbit_sizes_divide_order(group) -> bool:
    """Orbit-stabilizer: every orbit length divides the group order."""
    order = group.order
    return all(order % len(found) == 0 for found in orbits(group))


def dart_automorphism_is_valid(rotation_map, dart_map) -> bool:
    """The dart permutation commutes with alpha and with phi."""
    alpha, phi = rotation_map.alpha, rotation_map.phi
    return dart_map * alpha == alpha * dart_map and dart_map * phi == phi * dart_map


def affine_map_automorphism(spec, s: int, t: int):
    """The dart permutation (a, b) -> (s*a + t, s*b + t) of the order-n
    map of the field spec, for a nonzero scale s, with dart (a, b)
    numbered a*(n-1) + b - (b > a).  It commutes with alpha and with phi,
    so it permutes faces, edges and vertices; the induced face
    permutation is the affine permutation of the labels."""
    n = spec.n
    image = affine_permutation(spec, s, t)
    darts = ((image(a), image(b)) for a in range(n) for b in range(n) if a != b)
    return Permutation(tuple(x * (n - 1) + y - (y > x) for x, y in darts))


def induced_face_permutation(rotation_map, dart_map):
    """Project a dart permutation to the faces, checking along the way
    that it is actually well defined on phi-cycles."""
    if dart_map.degree != len(rotation_map.darts):
        raise ValueError(f"dart map has degree {dart_map.degree} "
                         f"but the map has {len(rotation_map.darts)} darts")
    face_index = rotation_map.face_index
    images = []
    for i, face in enumerate(rotation_map.faces):
        targets = sorted({face_index[dart_map(d)] for d in face})
        if len(targets) != 1:
            raise ValueError(f"dart map sends the darts of face {i} into faces {targets}")
        images.append(targets[0])
    return Permutation(tuple(images))


def _gf_poly(spec, index):
    """The galoistools polynomial (highest degree first, no leading
    zeros) whose base-p coefficient digits spell the index."""
    digits = []
    for _ in range(spec.k):
        index, c = divmod(index, spec.p)
        digits.append(c)
    return gf_strip(digits[::-1])


def _gf_index(poly, p) -> int:
    index = 0
    for c in poly:
        index = index * p + int(c)
    return index


def gf_multiply(spec, a: int, b: int) -> int:
    """The index of a*b, by sympy's galoistools."""
    product = gf_mul(_gf_poly(spec, a), _gf_poly(spec, b), spec.p, ZZ)
    return _gf_index(gf_rem(product, list(reversed(spec.modulus)), spec.p, ZZ), spec.p)


def gf_sum(spec, a: int, b: int) -> int:
    """The index of a+b, by sympy's galoistools."""
    return _gf_index(gf_add(_gf_poly(spec, a), _gf_poly(spec, b), spec.p, ZZ), spec.p)


def gf_multiplicative_order(spec, a: int) -> int:
    """The least m >= 1 with a^m = 1, for a nonzero index a."""
    power, order = a, 1
    while power != 1:
        power, order = gf_multiply(spec, power, a), order + 1
    return order


def affine_images_by_elements(spec, s: int, t: int) -> tuple[int, ...]:
    """The index of s*x + t for each x, by sympy's galoistools on every
    field, prime or not; it reads only p, k and modulus from the spec."""
    return tuple(gf_sum(spec, gf_multiply(spec, s, x), t) for x in range(spec.n))


def per_dart_alpha(spec):
    """The edge involution of the order-n map, one dart at a time: dart
    d decodes to (a, b), with d = a*(n-1) + b - (b > a), and goes to the
    number of (b, a)."""
    m = spec.n - 1
    images = []
    for d in range(spec.n * m):
        a, j = divmod(d, m)
        b = j + (j >= a)
        images.append(b * m + a - (a > b))
    return Permutation(tuple(images))


def per_dart_phi(spec):
    """The face rotation of the order-n map, one dart at a time:
    phi(a, b) = (a, a + omega*(b - a)) in galoistools arithmetic, with
    dart (a, b) numbered a*(n-1) + b - (b > a)."""
    n, p, omega = spec.n, spec.p, spec.primitive()
    polys = [_gf_poly(spec, x) for x in range(n)]
    images = []
    for a in range(n):
        for b in range(n):
            if a != b:
                step = gf_multiply(spec, omega, _gf_index(gf_sub(polys[b], polys[a], p, ZZ), p))
                c = _gf_index(gf_add(polys[a], polys[step], p, ZZ), p)
                images.append(a * (n - 1) + c - (c > a))
    return Permutation(tuple(images))


def expand_word(rules: dict[str, str], word, iterations: int = 1) -> tuple[str, ...]:
    """Literal expansion of a word under a substitution, given as a
    {label: image word} dict."""
    current = tuple(word)
    for _ in range(iterations):
        out = []
        for letter in current:
            if letter not in rules:
                raise ValueError(f"unknown letter {letter!r}")
            out.extend(rules[letter])
        current = tuple(out)
    return current


def letter_counts(rules: dict[str, str], seed: str, iterations: int) -> dict[str, int]:
    """Letter counts of the seed letter's image after `iterations`
    substitutions: the seed's row of that power of the letter-count
    matrix, in exact integers."""
    labels = list(rules)
    matrix = np.array([[rules[label].count(other) for other in labels] for label in labels],
                      dtype=object)
    row = np.linalg.matrix_power(matrix, iterations)[labels.index(seed)]
    return dict(zip(labels, map(int, row)))


def growth_ratios(rules: dict[str, str], seed: str, iterations: int) -> list[float]:
    """Successive length ratios of the iterated seed word; they converge
    to the dominant eigenvalue."""
    lengths = [sum(letter_counts(rules, seed, k).values()) for k in range(iterations + 1)]
    return [after / before for before, after in zip(lengths, lengths[1:])]


def is_anosov(matrix) -> bool:
    """An integer 2x2 matrix of determinant +-1 with no eigenvalue on
    the unit circle, by numpy's eigenvalues."""
    (a, b), (c, d) = matrix
    moduli = np.abs(np.linalg.eigvals(np.array(matrix, dtype=float)))
    return abs(a * d - b * c) == 1 and bool(np.all(np.abs(moduli - 1.0) > 1e-12))


def composite_weights(matrix) -> tuple[float, float]:
    """The unreduced track's composite branch weights from numpy's
    Perron vector (w, z) of the transverse matrix at z = 1: the
    semicircular branch half-surrounding a puncture, w + 2z, and the
    short branch between nearest-neighbour punctures, 2w + 2z."""
    values, vectors = np.linalg.eig(np.array(matrix, dtype=float))
    w, z = vectors[:, np.argmax(values.real)].real
    w /= z
    return w + 2, 2 * w + 2
