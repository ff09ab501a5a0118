"""Reference implementations the tests compare the program against;
the program itself never calls them.  The group and map references
follow a definition verbatim and are exponential or linear in the
object they check, so they run on small inputs only.  The field and
train-track references run on installed oracles instead: sympy's
galoistools polynomial arithmetic, numpy's eigenvalues and exact
integer matrix powers."""

import functools
from collections import Counter
from itertools import permutations as distinct_tuples

import numpy as np
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem, gf_strip, gf_sub

from cusplink.finite_field import _tables
from cusplink.perm_action import Permutation, _compose, group_closure
from cusplink.regular_map import RotationMap, _face_pair_codes


def identity(degree: int):
    return Permutation(tuple(range(degree)))


def compose(p, q):
    """The product p * q, function-style: (p * q)(x) = p(q(x)), so the
    right factor acts first."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch in composition: {p.degree} and {q.degree}")
    return Permutation._unchecked(_compose(p.images, q.images))


def from_cycles(degree: int, cycles):
    """Build a permutation from disjoint cycles of point indices; a
    point out of range, or met a second time, is refused by name."""
    images = list(range(degree))
    seen = set()
    for cycle in cycles:
        for i, point in enumerate(cycle):
            if not 0 <= point < degree:  # a negative index would wrap
                raise ValueError(f"cycle point {point} is not in 0..{degree - 1} "
                                 f"(degree {degree})")
            if point in seen:
                raise ValueError(f"point {point} repeats in the cycles")
            seen.add(point)
            images[point] = cycle[(i + 1) % len(cycle)]
    return Permutation(tuple(images))


def affine_images(spec, s: int, t: int) -> tuple[int, ...]:
    """The index of s*x + t for each x in canonical order, for a nonzero s,
    by gathers from the field's tables rotated: s*x = g^(log s + log x),
    and s*x + t = t*(1 + s*x/t), where Zech's logarithm gives log(1 + g^m)."""
    spec.label(s), spec.label(t)  # each must be an element index, as label checks
    if s == 0:
        raise ValueError("scale factor s must be nonzero")
    exp, log, zech = _tables(spec)
    logs = log[1:]  # the log of each nonzero x, in index order
    if t == 0:
        return (0,) + _compose(exp[log[s]:] + exp[:log[s]], logs)
    # g^(log t + Z(log s + log x - log t)), Z = n - 1 reading the 0 appended to exp
    r, base = (log[s] - log[t]) % (spec.n - 1), log[t]
    return (t,) + _compose(exp[base:] + exp[:base] + (0,), _compose(zech[r:] + zech[:r], logs))


def affine_permutation(spec, s, t):
    """The map x -> s*x + t as a permutation of the canonical element
    order of the field; s must be nonzero."""
    return Permutation(affine_images(spec, s, t))


def inverse(perm):
    """The inverse permutation: the points listed in the order of their
    images."""
    return Permutation(tuple(sorted(range(perm.degree), key=perm)))


def is_member(group, perm) -> bool:
    """perm lies in the group exactly when adding it to the generators
    leaves the order unchanged."""
    return (perm.degree == group.degree
            and group_closure(group.generators + (perm,)).order == group.order)


def elements(group) -> frozenset:
    """Every element of the group, by breadth-first products of its
    generators, without the stabilizer chain."""
    seen = {identity(group.degree)}
    frontier = list(seen)
    while frontier:
        new = []
        for g in group.generators:
            for h in frontier:
                product = compose(g, h)
                if product not in seen:
                    seen.add(product)
                    new.append(product)
        frontier = new
    return frozenset(seen)


def is_k_transitive_literal(group, k: int) -> bool:
    """The definition verbatim: every source tuple reaches every target
    tuple under some element of the group, listed by elements()."""
    d = group.degree
    if not 1 <= k <= d:
        raise ValueError(f"k must satisfy 1 <= k <= degree, got {k}")
    tuples = list(distinct_tuples(range(d), k))
    listed = elements(group)
    for source in tuples:
        images = {tuple(g(x) for x in source) for g in listed}
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


def phi(rotation_map):
    """The face rotation as a Permutation: each dart to the next one of
    its face's block, and the block's last dart to its first."""
    images = list(range(1, len(rotation_map.darts) + 1))
    for face in rotation_map.faces:
        images[face[-1]] = face[0]
    return Permutation(tuple(images))


def dart_automorphism_is_valid(rotation_map, dart_map) -> bool:
    """The dart permutation commutes with alpha and with phi."""
    return all(compose(dart_map, g) == compose(g, dart_map)
               for g in (rotation_map.alpha, phi(rotation_map)))


def lockstep_dfs(rotation_map, target: int):
    """The automorphism f with f(0) = target, one dart at a time: a
    depth-first walk sets f(alpha(d)) = alpha(f(d)) and f(phi(d)) =
    phi(f(d)) for each dart d it has reached; None when a dart is given
    two images.  A map whose walk leaves a dart unreached is refused."""
    alpha, rotation = rotation_map.alpha, phi(rotation_map)
    images = {0: target}
    stack = [0]
    while stack:
        d = stack.pop()
        for g in (alpha, rotation):
            x, y = g(d), g(images[d])
            if x not in images:
                images[x] = y
                stack.append(x)
            elif images[x] != y:
                return None
    if len(images) < alpha.degree:
        raise ValueError(f"the walk reaches {len(images)} of {alpha.degree} darts")
    return tuple(images[d] for d in range(alpha.degree))


def vertices(rotation_map) -> list[tuple[int, ...]]:
    """Every vertex, listed: the cycles of phi * alpha (d -> phi(alpha(d)))."""
    return compose(phi(rotation_map), rotation_map.alpha).cycles()


def edges(rotation_map) -> list[tuple[int, int]]:
    """Every edge, listed: the dart pairs (d, alpha(d)) with d < alpha(d)."""
    return [(d, e) for d, e in enumerate(rotation_map.alpha.images) if d < e]


def genus(rotation_map) -> int:
    """The genus g of a connected map by listing, from V - E + F = 2 - 2g,
    once a walk from face to face across alpha has found one component."""
    face, alpha, faces = rotation_map.face_index, rotation_map.alpha.images, rotation_map.faces
    unseen, components = set(range(len(faces))), 0
    while unseen:  # walk from face to face across alpha, until every face is seen
        components += 1
        stack = [unseen.pop()]
        while stack and unseen:
            f = stack.pop()
            reached = unseen.intersection(_compose(face, _compose(alpha, faces[f])))
            unseen -= reached
            stack += reached
    V, E, F = len(vertices(rotation_map)), len(rotation_map.darts) // 2, len(faces)
    if components != 1:
        raise ValueError(f"map has {components} connected components "
                         f"(V={V}, E={E}, F={F}, chi={V - E + F}); a genus needs exactly one")
    return (2 - V + E - F) // 2


def face_adjacency_complete(rotation_map) -> bool:
    """Is the face-adjacency graph the complete graph, with exactly one
    shared edge per pair of faces?  Read off the face-pair codes of the
    DOT; edges from a face to itself are ignored."""
    F = len(rotation_map.faces)
    pairs = [c for c in _face_pair_codes(rotation_map) if c // F != c % F]
    return pairs == [i * F + j for i in range(F) for j in range(i + 1, F)]


def block_map(alpha, phi):
    """The map with the face rotation phi given as a RotationMap, whose
    faces are blocks of consecutive darts: the darts are renamed in the
    order of phi's cycles listed end to end.  Returns the map and the
    renaming, old dart d -> new[d]."""
    cycles = phi.cycles()
    new = [0] * alpha.degree
    for position, d in enumerate(d for cycle in cycles for d in cycle):
        new[d] = position
    renamed = [0] * alpha.degree
    for d, e in enumerate(alpha.images):
        renamed[new[d]] = new[e]
    return RotationMap(Permutation(tuple(renamed)), [len(cycle) for cycle in cycles]), tuple(new)


def square_torus(width: int, height: int):
    """The regular map {4,4} of width x height squares on the torus.
    Dart 4*(x*height + y) + k is side k of square (x, y), the sides
    counterclockwise from east, so each square is a block of 4 darts that
    phi turns; alpha glues its east side to the west side of (x + 1, y)
    and its north side to the south side of (x, y + 1)."""
    neighbours = ((1, 0), (0, 1), (-1, 0), (0, -1))

    def dart(x, y, k):
        return 4 * ((x % width) * height + y % height) + k

    alpha = [dart(x + dx, y + dy, (k + 2) % 4)
             for x in range(width) for y in range(height)
             for k, (dx, dy) in enumerate(neighbours)]
    return RotationMap(Permutation(tuple(alpha)), (4,) * (width * height))


def two_copies(surface):
    """The disjoint union of a map with a copy of itself."""
    shift, alpha = len(surface.darts), surface.alpha.images
    return RotationMap(Permutation(alpha + tuple(d + shift for d in alpha)),
                       [len(face) for face in surface.faces] * 2)


def affine_map_automorphism(spec, s: int, t: int):
    """The dart permutation (a, b) -> (s*a + t, s*b + t) of the order-n
    map of the field spec, for a nonzero scale s, with the darts numbered
    by dart_pairs.  It commutes with alpha and with phi, so it permutes
    faces, edges and vertices; the induced face permutation is the
    affine permutation of the labels."""
    image = affine_permutation(spec, s, t)
    pairs, number = dart_pairs(spec)
    return Permutation(tuple(number[image(a), image(b)] for a, b in pairs))


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


def face_pair_edge_counts(rotation_map) -> Counter:
    """How many edges each pair of faces (i, j), i <= j, shares, read off
    the edge list one tuple at a time."""
    face = rotation_map.face_index
    return Counter([(i, j) if (i := face[d]) <= (j := face[e]) else (j, i)
                    for d, e in edges(rotation_map)])


def face_adjacency_dot_by_counts(rotation_map) -> str:
    """The face-adjacency DOT from face_pair_edge_counts: the pairs sorted,
    each repeated once per shared edge."""
    lines = ["graph faces {"]
    counts = face_pair_edge_counts(rotation_map)
    for i, j in sorted(counts):
        lines.extend([f"  f{i} -- f{j};"] * counts[i, j])
    lines.append("}")
    return "\n".join(lines) + "\n"


def face_adjacency_complete_by_counts(rotation_map) -> bool:
    """Every two distinct faces share exactly one edge, by
    face_pair_edge_counts; edges from a face to itself are not read."""
    counts = face_pair_edge_counts(rotation_map)
    n = len(rotation_map.faces)
    return all(counts[i, j] == 1 for i in range(n) for j in range(i + 1, n))


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


def gf_difference(spec, a: int, b: int) -> int:
    """The index of a-b, by sympy's galoistools."""
    return _gf_index(gf_sub(_gf_poly(spec, a), _gf_poly(spec, b), spec.p, ZZ), spec.p)


def gf_multiplicative_order(spec, a: int) -> int:
    """The least m >= 1 with a^m = 1, for a nonzero index a."""
    power, order = a, 1
    while power != 1:
        power, order = gf_multiply(spec, power, a), order + 1
    return order


def near_field_stabilizer(spec) -> dict:
    """For a field of order p^2, p odd: the point stabilizer of the sharply
    2-transitive group of Dickson's near-field on the same elements, as
    {a: x -> x o a}, with x o a = x*a for a square a and x^p * a otherwise
    (Zassenhaus, 1936), in galoistools arithmetic."""
    if spec.k != 2 or spec.p == 2:
        raise ValueError(f"a Dickson near-field of order {spec.n} is not built here")
    squares = {gf_multiply(spec, x, x) for x in range(1, spec.n)}

    def power(x, e):
        out = 1
        for _ in range(e):
            out = gf_multiply(spec, out, x)
        return out

    return {a: Permutation(tuple(gf_multiply(spec, x if a in squares else power(x, spec.p), a)
                                 for x in range(spec.n)))
            for a in range(1, spec.n)}


def affine_images_by_elements(spec, s: int, t: int) -> tuple[int, ...]:
    """The index of s*x + t for each x, by sympy's galoistools on every
    field, prime or not; it reads only p, k and modulus from the spec."""
    return tuple(gf_sum(spec, gf_multiply(spec, s, x), t) for x in range(spec.n))


@functools.lru_cache(maxsize=4)
def dart_pairs(spec):
    """The pair (a, b) of each dart id of the order-n map, and the id of
    each pair: dart a*(n-1) + i is (a, a + omega^i), with the powers of
    omega = spec.primitive() and the sums taken in galoistools
    arithmetic, so the discrete logs come from no table of the program."""
    omega, powers = spec.primitive(), [1]
    while (power := gf_multiply(spec, powers[-1], omega)) != 1:
        powers.append(power)
    if len(powers) != spec.n - 1:
        raise ValueError(f"{omega} has order {len(powers)}, not {spec.n - 1}")
    pairs = [(a, gf_sum(spec, a, power)) for a in range(spec.n) for power in powers]
    return pairs, {pair: d for d, pair in enumerate(pairs)}


def per_dart_alpha(spec):
    """The edge involution of the order-n map, one dart at a time: dart
    (a, b) goes to the number of (b, a)."""
    pairs, number = dart_pairs(spec)
    return Permutation(tuple(number[b, a] for a, b in pairs))


def per_dart_phi(spec):
    """The face rotation of the order-n map, one dart at a time:
    phi(a, b) = (a, a + omega*(b - a)) in galoistools arithmetic."""
    pairs, number = dart_pairs(spec)
    omega = spec.primitive()
    return Permutation(tuple(
        number[a, gf_sum(spec, a, gf_multiply(spec, omega, gf_difference(spec, b, a)))]
        for a, b in pairs))


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
