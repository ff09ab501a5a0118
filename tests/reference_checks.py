"""Literal reference implementations the tests compare the program
against.  Each follows a definition verbatim and is exponential or
linear in the object it checks, so it runs on small inputs only; the
program itself never calls them."""

from itertools import permutations as distinct_tuples


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


def dart_automorphism_is_valid(rotation_map, dart_map: dict) -> bool:
    """The dart permutation commutes with alpha and with phi."""
    alpha, phi = rotation_map.alpha, rotation_map.phi
    for d in rotation_map.darts:
        if dart_map[alpha[d]] != alpha[dart_map[d]]:
            return False
        if dart_map[phi[d]] != phi[dart_map[d]]:
            return False
    return True


def expand_word(rules, word, iterations: int = 1) -> tuple[str, ...]:
    """Literal expansion of a word under a substitution."""
    current = tuple(word)
    for _ in range(iterations):
        out = []
        for letter in current:
            if letter not in rules.rules:
                raise ValueError(f"unknown letter {letter!r}")
            out.extend(rules.rules[letter])
        current = tuple(out)
    return current
