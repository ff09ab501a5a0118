"""Permutation groups presented by generators, held as a stabilizer chain.

Points are bare indices 0..d-1; callers bind them to whatever is being
permuted (field labels, link components, map faces).  Composition is
function-style: _compose(p, q)[x] = p[q[x]], the right factor acts first.

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
  (k-1)-transitive on the remaining points;
- the elements, each once, as the products u_0 u_1 ... u_(m-1) of one
  coset representative u_i per level.

The product of the basic-orbit lengths found so far is a lower bound on
the order, so a group larger than MAX_GROUP_ORDER is refused while it
is still being built.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import prod
from operator import itemgetter

from ._value import Value, int_tuple, shown_int
from .finite_field import _tables

# A library caller's bound on group_closure; the largest group a command
# builds is a chain's cyclic group, of order at most MAX_CHAIN_LOOPS = 256.
MAX_GROUP_ORDER = 10 ** 6
# A library caller's bound on the points a PermGroup acts on, as the order
# cap does not bound them: the chain keeps two tuples of the degree's length
# per basic-orbit point, so a build grows as the square of the degree (one
# 3000-cycle took 1.3 s).  The largest degree a command builds is a chain's
# or a braid's, MAX_CHAIN_LOOPS = 256.  At this bound, on a shared 2-core
# machine, the 1024-cycle took 0.14 s, and AGL(1, 997), of order 993012
# just under MAX_GROUP_ORDER, 0.37 s.
MAX_GROUP_DEGREE = 1024


def _compose(p, q) -> tuple[int, ...]:
    """p after q on raw image tuples, unchecked: x goes to p[q[x]], for any table
    p.  itemgetter gives a bare entry for one index and cannot take none."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple([p[x] for x in q])


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

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points included, each from its least point, sorted."""
        images = self.images
        seen, out = bytearray(len(images)), []
        for start in range(len(images)):
            if seen[start]:
                continue
            cycle = [start]  # start itself is never looked up again
            append, point = cycle.append, images[start]
            while point != start:
                append(point)
                seen[point] = 1
                point = images[point]
            out.append(tuple(cycle))
        return out

    def __str__(self):
        """Cycle notation without 1-cycles, such as (0 2)(1 3); the identity is ()."""
        return "".join("(" + " ".join(map(str, c)) + ")"
                       for c in self.cycles() if len(c) > 1) or "()"


class PermGroup:
    """The group generated by a nonempty list of same-degree permutations,
    held as its stabilizer chain along the base 0, 1, ..., m-1, which is
    built here, so a group of order over MAX_GROUP_ORDER is refused here;
    a degree over MAX_GROUP_DEGREE is refused before the chain is begun.

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
        for i, g in enumerate(generators):
            if not isinstance(g, Permutation):
                raise TypeError(f"generator {g!r} at position {i} is not a Permutation")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators must share one degree")
        if degree > MAX_GROUP_DEGREE:
            raise ValueError(f"a group acts on at most MAX_GROUP_DEGREE = {MAX_GROUP_DEGREE} "
                             f"points, got degree {shown_int(degree)}")
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

    def orbit_length(self, point: int) -> int:
        """Basic-orbit length of any point; 1 past the end of the base,
        where the stabilizer is trivial."""
        return len(self._transversals[point]) if point < len(self._transversals) else 1

    @property
    def order(self) -> int:
        return prod(map(len, self._transversals))

    def _absorb(self, h, start: int) -> int | None:
        """Sift h, which fixes 0..start-1, by coset representatives from
        level start down.  A nontrivial residue joins the strong
        generators of levels start..j, j being the level where it left
        the chain (m if none); returns j, or None when h sifted to the
        identity."""
        j = start
        while j < len(self._transversals) and (rep := self._transversals[j].get(h[j])):
            h = _compose(rep[1], h)
            j += 1
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
        """Every element, each once: a product of one coset representative per level."""
        elements = [self._identity]
        for transversal in reversed(self._transversals):
            elements = [_compose(u, h) for u, _ in transversal.values() for h in elements]
        return frozenset(map(Permutation._unchecked, elements))

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


def affine_group(spec) -> PermGroup:
    """The full affine group AGL(1, n) of the field as a permutation
    group on the n field labels, generated by x -> x + 1 and x -> g*x for
    the least generator g of the multiplicative group: conjugating x + 1 by
    the powers of the scaling gives every translation x + g^i.  Its order
    is n*(n-1) and the action is sharply 2-transitive."""
    exp, log, zech = _tables(spec)
    logs = log[1:]  # the log m of each nonzero x = g^m, in index order
    # g^m + 1 = g^zech[m], or 0 where zech[m] = n - 1; and g*g^m = g^(m + 1)
    return group_closure([Permutation((1,) + _compose(exp + (0,), _compose(zech, logs))),
                          Permutation((0,) + _compose(exp[1:] + exp[:1], logs))])
