"""Permutation groups presented by generators, held as a stabilizer chain.

Points are bare indices 0..d-1; callers bind them to whatever is being
permuted (field labels, link components, map faces).  Composition is
function-style: (p * q)(x) = p(q(x)), the right factor acts first.

A PermGroup is its stabilizer chain along the fixed base 0, 1, 2, ...,
built when the group is, by the deterministic Schreier-Sims algorithm
(Seress, Permutation Group Algorithms, ch. 4; Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 4.4).  Level i of the chain
stands for G_i, the subgroup fixing each of 0..i-1; its basic orbit is
the orbit of i under G_i, with one coset representative per orbit
point.  The chain gives:

- the order, as the product of the basic-orbit lengths;
- k-transitivity, by the base-prefix criterion: G is k-transitive
  exactly when the basic orbits of 0..k-1 have lengths d, d-1, ...,
  d-k+1, because G is k-transitive when it is transitive and G_0 is
  (k-1)-transitive on the remaining points.

The product of the basic-orbit lengths found so far is a lower bound on
the order, so a group larger than MAX_GROUP_ORDER is refused while it
is still being built.  The breadth-first element list stays only for
the benchmark's traced element counter, until ROADMAP item 1 has it
count the order instead.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import prod

from ._value import Value, int_tuple

# A library caller's bound on group_closure; the largest group a command
# builds is AGL(1, 64), of order 4032.
MAX_GROUP_ORDER = 10 ** 6


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p * q on raw image tuples, unchecked: x goes to p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(p)
    for x, y in enumerate(p):
        inverse[y] = x
    return tuple(inverse)


def _bijection_error(images: tuple) -> ValueError:
    """Name the degree and the first repeated image, or else the least
    point that is not an image."""
    counts = Counter(images)
    repeated = [y for y in images if counts[y] > 1]
    defect = (f"{repeated[0]!r} is the image of two points" if repeated
              else f"{min(set(range(len(images))) - counts.keys())} is not an image")
    return ValueError(f"not a bijection of 0..{len(images) - 1} (degree {len(images)}): {defect}")


class Permutation(Value):
    """A bijection of {0, ..., d-1} stored as its image tuple; an
    immutable Value with the one field images."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = int_tuple(images, "image")  # a bool or a float can pass the sort below
        if sorted(images) != list(range(len(images))):
            raise _bijection_error(images)
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap an image tuple already known to be a bijection."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> Permutation:
        """Build from disjoint cycles of point indices."""
        images = list(range(degree))
        for cycle in cycles:
            for i, point in enumerate(cycle):
                if not 0 <= point < degree:  # a negative index would wrap
                    raise ValueError(f"cycle point {point} is not in 0..{degree - 1} "
                                     f"(degree {degree})")
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch in composition: {self.degree} and {other.degree}")
        return Permutation._unchecked(_compose(self.images, other.images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, sorted."""
        images = self.images
        seen, out = bytearray(len(images)), []
        for start in range(len(images)):
            if seen[start]:
                continue
            cycle = [start]  # start itself is never looked up again
            point = images[start]
            while point != start:
                cycle.append(point)
                seen[point] = 1
                point = images[point]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def __str__(self):
        return self.cycle_string()


class PermGroup:
    """The group generated by a nonempty list of same-degree permutations,
    held as its stabilizer chain along the base 0, 1, ..., m-1, which is
    built here, so a group of order over MAX_GROUP_ORDER is refused here.

    Level i keeps the strong generators that fix 0..i-1 and the
    transversal of its basic orbit: for each orbit point p, a group
    element u with u(i) = p, and its inverse.  Whenever a new strong
    generator fixes every base point, the next integers join the base
    until one of them is moved, even where that leaves a trivial basic
    orbit, so the base stays a prefix of 0, 1, 2, ....
    """

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("at least one generator is required")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators must share one degree")
        self.degree = degree
        self.generators = generators
        self._identity = tuple(range(degree))
        self._strong: list[list[tuple[int, ...]]] = []
        self._transversals: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
        for g in generators:
            self._absorb(g.images, 0)
        level = len(self._transversals) - 1
        while level >= 0:
            changed = self._schreier_check(level)
            level = level - 1 if changed is None else changed

    @property
    def orbit_lengths(self) -> list[int]:
        """Basic-orbit lengths of base points 0, 1, ..., m-1."""
        return [len(transversal) for transversal in self._transversals]

    def orbit_length(self, point: int) -> int:
        """Basic-orbit length of any point; 1 past the end of the base,
        where the stabilizer is trivial."""
        return len(self._transversals[point]) if point < len(self._transversals) else 1

    @property
    def order(self) -> int:
        return prod(self.orbit_lengths)

    def _sift(self, h, start: int):
        """Strip h by coset representatives from level start down; return
        the residue and the level where it left the chain (m if none)."""
        for level in range(start, len(self._transversals)):
            rep = self._transversals[level].get(h[level])
            if rep is None:
                return h, level
            h = _compose(rep[1], h)
        return h, len(self._transversals)

    def _absorb(self, h, start: int) -> int | None:
        """Sift h, which fixes 0..start-1, from level start.  A nontrivial
        residue joins the strong generators of levels start..j, j being
        the level where it left the chain; returns j, or None when h
        sifted to the identity."""
        h, j = self._sift(h, start)
        if h == self._identity:
            return None
        while j == len(self._transversals):
            self._strong.append([])
            self._transversals.append({j: (self._identity, self._identity)})
            if h[j] == j:
                j += 1
        for level in range(start, j + 1):
            self._strong[level].append(h)
            self._grow_orbit(level)
        if self.order > MAX_GROUP_ORDER:
            raise RuntimeError(f"group order cap {MAX_GROUP_ORDER} exceeded: "
                               f"the order is at least {self.order}")
        return j

    def _grow_orbit(self, level: int) -> None:
        """Extend the basic orbit of a level under its strong generators,
        keeping the representatives already chosen."""
        transversal = self._transversals[level]
        generators = self._strong[level]
        frontier = list(transversal)
        while frontier:
            new = []
            for p in frontier:
                u = transversal[p][0]
                for g in generators:
                    q = g[p]
                    if q not in transversal:
                        v = _compose(g, u)
                        transversal[q] = (v, _invert(v))
                        new.append(q)
            frontier = new

    def _schreier_check(self, level: int) -> int | None:
        """Sift each Schreier generator v^-1 g u of a level through the
        levels below it.  The first that leaves a residue is absorbed and
        the deepest level it changed is returned; None when all sift."""
        transversal = self._transversals[level]
        for p, (u, _) in transversal.items():
            for g in self._strong[level]:
                gu = _compose(g, u)
                v, v_inverse = transversal[g[p]]
                if gu == v:
                    continue
                changed = self._absorb(_compose(v_inverse, gu), level + 1)
                if changed is not None:
                    return changed
        return None

    @cached_property
    def elements(self) -> frozenset[Permutation]:
        """Every element, by breadth-first products of the generators; read
        only by the benchmark's traced counter and the tests' cross-checks."""
        generators = [g.images for g in self.generators]
        seen = {self._identity}
        frontier = [self._identity]
        while frontier:
            new = []
            for g in generators:
                for h in frontier:
                    product = _compose(g, h)
                    if product not in seen:
                        seen.add(product)
                        new.append(product)
            frontier = new
        return frozenset(map(Permutation._unchecked, seen))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"


def group_closure(generators) -> PermGroup:
    """The PermGroup of a generator list; a group over the cap is refused."""
    return PermGroup(generators)


def transitivity_degree(group: PermGroup) -> int:
    """Largest k for which the action is k-transitive (0 if not even
    transitive): the length of the base prefix whose basic orbits have
    lengths d, d-1, ...."""
    d = group.degree
    return next((i for i in range(d) if group.orbit_length(i) != d - i), d)


# ---------------------------------------------------------------------------
# the affine action x -> s*x + t on a finite field


def affine_permutation(spec, s, t) -> Permutation:
    """The map x -> s*x + t as a permutation of the canonical element
    order of the field; s must be nonzero."""
    return Permutation(spec.affine_images(s, t))


def affine_group(spec) -> PermGroup:
    """The full affine group AGL(1, n) of the field as a permutation
    group on the n field labels, generated by x -> x + 1 and x -> w*x for
    a generator w of the multiplicative group: conjugating x + 1 by the
    powers of the scaling gives every translation x + w^i.  Its order is
    n*(n-1) and the action is sharply 2-transitive."""
    return group_closure([affine_permutation(spec, 1, 1),
                          affine_permutation(spec, spec.primitive(), 0)])
