"""Exact arithmetic in small finite fields GF(p^k).

An element of GF(p^k) is a polynomial residue modulo a fixed monic
irreducible polynomial, stored as the coefficient vector
(c0, ..., c_{k-1}) with c0 the constant term.  Elements are enumerated
in base-p order (c0 + c1*p + ...), so prime fields read 0, 1, ..., p-1
and GF(4) reads 0, 1, x, x+1.

Everything here targets tiny fields (order <= 64 by default), so
inverses are found by search and irreducibility is decided by trial
division; at this scale that is both fast enough and easy to audit.

The one bulk operation, FieldSpec.affine_images, gives the index of
s*x + t for every x at once.  A prime field's index is its residue, so
there it computes on ints mod p; only an extension field (k > 1) goes
through FieldElement arithmetic.
"""

from __future__ import annotations

import functools

from ._value import Value, int_tuple

DEFAULT_MAX_ORDER = 64

_setattr = object.__setattr__


def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Decompose n as (p, k) with p prime and n = p**k, else None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            m, k = n, 0
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (n, 1)


# ---------------------------------------------------------------------------
# polynomial helpers over Z/p; coefficient tuples, constant term first

def _poly_trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_rem(a: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a by a monic modulus, coefficients mod p."""
    rem = list(a)
    d = len(modulus) - 1
    while len(_poly_trim(tuple(rem))) > d:
        rem = list(_poly_trim(tuple(rem)))
        lead = rem[-1]
        shift = len(rem) - 1 - d
        for i, mi in enumerate(modulus):
            rem[shift + i] = (rem[shift + i] - lead * mi) % p
    return _poly_trim(tuple(rem))


def _monic_polys(degree: int, p: int):
    """Yield all monic polynomials of the given degree over Z/p."""
    for m in range(p ** degree):
        lower = []
        v = m
        for _ in range(degree):
            lower.append(v % p)
            v //= p
        yield tuple(lower) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Exhaustive divisor scan; poly must be monic of degree >= 1."""
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_rem(poly, g, p):
                return False
    return degree >= 1


# ---------------------------------------------------------------------------


class FieldSpec(Value):
    """A concrete model of GF(p^k): the prime, the exponent, and the
    monic irreducible modulus (length k+1 coefficient vector).
    An immutable Value with fields (p, k, modulus)."""

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        p, k = int_tuple((p, k), "FieldSpec (p, k) entry")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent k must be >= 1")
        mod = int_tuple(modulus, "modulus coefficient")
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if any(not 0 <= c < p for c in mod):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not _is_irreducible(mod, p):
            raise ValueError("modulus is reducible over Z/p")
        _setattr(self, "p", p)
        _setattr(self, "k", k)
        _setattr(self, "modulus", mod)

    @property
    def n(self) -> int:
        return self.p ** self.k

    def element(self, value) -> FieldElement:
        """Build an element from an enumeration index or a coefficient
        iterable (short vectors are zero-padded)."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if type(value) is int:
            if not 0 <= value < self.n:
                raise ValueError(f"index {value} out of range for order {self.n}")
            coeffs, v = [], value
            for _ in range(self.k):
                coeffs.append(v % self.p)
                v //= self.p
            return FieldElement(self, tuple(coeffs))
        if isinstance(value, int):  # a bool, which would read as 0 or 1
            raise TypeError(f"element index {value!r} is not an int")
        coeffs = tuple(c % self.p for c in int_tuple(value, "coefficient"))
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than k")
        coeffs = coeffs + (0,) * (self.k - len(coeffs))
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    def elements(self) -> tuple[FieldElement, ...]:
        """All n elements in canonical (base-p) order, built once per field."""
        return _elements(self)

    def affine_images(self, s, t) -> tuple[int, ...]:
        """The index of s*x + t for each x in canonical order; s and t
        are read by element() and s must be nonzero."""
        s = self.element(s)
        t = self.element(t)
        if s.is_zero():
            raise ValueError("scale factor s must be nonzero")
        if self.k == 1:
            p, s, t = self.p, s.coeffs[0], t.coeffs[0]
            return tuple([(s * x + t) % p for x in range(p)])
        return tuple([(s * x + t).index for x in self.elements()])

    def primitive(self) -> FieldElement:
        """Least element (canonical order) generating the multiplicative
        group; its powers run through all n-1 nonzero elements."""
        return _primitive(self)


class FieldElement(Value):
    """Canonical polynomial residue; an immutable Value with fields
    (spec, coeffs)."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        if len(coeffs) != spec.k:
            raise ValueError("coefficient vector must have length k")
        # k >= 1, so coeffs is not empty
        if not 0 <= min(coeffs) <= max(coeffs) < spec.p:
            raise ValueError("coefficients must be reduced mod p")
        _setattr(self, "spec", spec)
        _setattr(self, "coeffs", coeffs)

    @property
    def index(self) -> int:
        """Position in the canonical enumeration (base-p value)."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.spec.p + c
        return v

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other: FieldElement) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        # `is not` first: != on FieldSpec runs __eq__ through object.__ne__
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("elements belong to different fields")
        return other

    def __add__(self, other: FieldElement) -> FieldElement:
        other = self._coerce(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> FieldElement:
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-self._coerce(other))

    def __mul__(self, other: FieldElement) -> FieldElement:
        other = self._coerce(other)
        prod = _poly_mul(self.coeffs, other.coeffs, self.spec.p)
        rem = _poly_rem(prod, self.spec.modulus, self.spec.p)
        return self.spec.element(rem)

    def inverse(self) -> FieldElement:
        """Multiplicative inverse by exhaustive search (tiny fields)."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        one = self.spec.one
        for cand in self.spec.elements():
            if (self * cand) == one:
                return cand
        raise AssertionError("no inverse found; field is corrupt")

    def __pow__(self, exponent: int) -> FieldElement:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result, base, e = self.spec.one, self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        power, order = self, 1
        while power != self.spec.one:
            power = power * self
            order += 1
        return order

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)


def make_field(p: int, k: int, max_order: int = DEFAULT_MAX_ORDER) -> FieldSpec:
    """Construct GF(p^k) using the lexicographically smallest monic
    irreducible modulus of degree k (so prime fields reduce to plain
    mod-p arithmetic with modulus x).

    Raises ValueError for non-prime p, k < 1, or order beyond max_order.
    The cap is checked first, by a product that stops once past it, so a
    huge p or k is refused at once.
    """
    if k < 1:
        raise ValueError("exponent k must be >= 1")
    order = 1
    for _ in range(k if p > 1 else 0):
        order *= p
        if order > max_order:
            shown = f"{p}^{k}" if k > 1 and k * p.bit_length() > 128 else p ** k
            raise ValueError(f"order {shown} exceeds the cap {max_order}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for candidate in _monic_polys(k, p):
        if _is_irreducible(candidate, p):
            return FieldSpec(p, k, candidate)
    raise AssertionError("no irreducible polynomial found; unreachable")


def field_of_order(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FieldSpec:
    """make_field for a prime-power order given directly; an order over
    the cap is refused before it is factored."""
    if n > max_order:
        raise ValueError(f"order {n} exceeds the cap {max_order}")
    decomposition = prime_power(n)
    if decomposition is None:
        raise ValueError(f"{n} is not a prime power")
    return make_field(*decomposition, max_order=max_order)


@functools.lru_cache(maxsize=None)
def _elements(spec: FieldSpec) -> tuple[FieldElement, ...]:
    return tuple(spec.element(i) for i in range(spec.n))


@functools.lru_cache(maxsize=None)
def _primitive(spec: FieldSpec) -> FieldElement:
    target = spec.n - 1
    for candidate in spec.elements():
        if not candidate.is_zero() and candidate.multiplicative_order() == target:
            return candidate
    raise AssertionError("multiplicative group has no generator; unreachable")
