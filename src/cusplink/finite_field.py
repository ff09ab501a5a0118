"""Exact arithmetic in small finite fields GF(p^k).

Outside this module an element of GF(p^k) is only an index 0..n-1.
The index of the polynomial residue c0 + c1*x + ... + c_{k-1}*x^(k-1)
modulo a fixed monic irreducible polynomial is its base-p value
c0 + c1*p + ..., so prime fields read 0, 1, ..., p-1 and GF(4) reads
0, 1, x, x+1.  FieldSpec.label(i) gives the text "c0,c1,..." of index i.

Everything here targets tiny fields: an order over MAX_FIELD_ORDER is
refused before anything is factored, so orders are factored by trial
division and irreducibility is decided by a divisor scan (at most 62
divisors, for GF(2^10)); at this scale that is fast enough and easy to
audit.
Polynomial arithmetic on coefficient vectors only finds the modulus and
fills, once per field, the exp, log and Zech tables of the least primitive
element g (Lidl-Niederreiter, Finite Fields; Huber, IEEE TIT 1990)."""

from __future__ import annotations

import functools

from ._value import Value, int_tuple, shown_int

# the CLI's cap on a field order (map --n, --n of the helical family,
# census --n-max); the library's bound is MAX_FIELD_ORDER
DEFAULT_MAX_ORDER = 64
# the largest order FieldSpec, make_field and field_of_order build; it
# equals perm_action.MAX_GROUP_DEGREE
MAX_FIELD_ORDER = 1024
# prime_power's bound: it tries each divisor d <= sqrt(n), at most 10**6
MAX_TRIAL_DIVISION = 10 ** 12

_setattr = object.__setattr__


def is_prime(n: int) -> bool:
    """Whether n is prime: prime_power(n) is (n, 1)."""
    return prime_power(n) == (n, 1)


def prime_power(n: int) -> tuple[int, int] | None:
    """Decompose n as (p, k) with p prime and n = p**k, else None, by trial
    division; an n over MAX_TRIAL_DIVISION is refused."""
    if n < 2:
        return None
    if n > MAX_TRIAL_DIVISION:
        raise ValueError(f"{shown_int(n)} exceeds MAX_TRIAL_DIVISION = {MAX_TRIAL_DIVISION}, "
                         "the largest n factored by trial division")
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


def _poly_index(coeffs, p: int) -> int:
    """The canonical index of a coefficient vector, each entry read mod p."""
    v = 0
    for c in reversed(coeffs):
        v = v * p + c % p
    return v


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


def _check_order(p: int, k: int) -> None:
    """Refuse an order p^k over MAX_FIELD_ORDER by a product that stops
    once past it, so a huge p or k is refused before anything is factored."""
    order = 1
    for _ in range(k if p > 1 else 0):
        order *= p
        if order > MAX_FIELD_ORDER:
            shown = (shown_int(p ** k) if k * p.bit_length() <= 128 or k == 1
                     else f"{shown_int(p)}^{shown_int(k)}")
            raise ValueError(f"order {shown} exceeds MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")


# ---------------------------------------------------------------------------


class FieldSpec(Value):
    """A concrete model of GF(p^k): the prime, the exponent, and the
    monic irreducible modulus (length k+1 coefficient vector).
    An immutable Value with fields (p, k, modulus).  Its elements are
    the indices 0..n-1 of the canonical order, at most MAX_FIELD_ORDER."""

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        p, k = int_tuple((p, k), "FieldSpec (p, k) entry")
        _check_order(p, k)
        if not is_prime(p):
            raise ValueError(f"{shown_int(p)} is not prime")
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

    def label(self, i: int) -> str:
        """The coefficients c0,c1,... of element i, comma-separated; i must
        be an element index of this field."""
        if type(i) is not int:  # a bool or a coefficient list included
            raise TypeError(f"element index {i!r} is not an int")
        if not 0 <= i < self.n:
            raise ValueError(f"index {shown_int(i)} out of range for order {self.n}")
        return ",".join(map(str, _coefficients(self)[i]))

    def primitive(self) -> int:
        """Index of the least element (canonical order) generating the
        multiplicative group; its powers run through all n-1 nonzero
        elements."""
        exp = _tables(self)[0]
        return exp[1 % len(exp)]  # in GF(2), g = 1 = exp[0]


def make_field(p: int, k: int) -> FieldSpec:
    """Construct GF(p^k) using the lexicographically smallest monic
    irreducible modulus of degree k (so prime fields reduce to plain
    mod-p arithmetic with modulus x).

    Raises TypeError for a p or k that is not an int, and ValueError for
    k < 1, an order over MAX_FIELD_ORDER, or non-prime p; the order is
    checked before p is factored.
    """
    p, k = int_tuple((p, k), "make_field (p, k) entry")
    if k < 1:
        raise ValueError("exponent k must be >= 1")
    _check_order(p, k)
    if not is_prime(p):
        raise ValueError(f"{shown_int(p)} is not prime")
    for candidate in _monic_polys(k, p):
        if _is_irreducible(candidate, p):
            return FieldSpec(p, k, candidate)
    raise AssertionError("no irreducible polynomial found; unreachable")


def field_of_order(n: int) -> FieldSpec:
    """make_field for a prime-power order given directly; an order over
    MAX_FIELD_ORDER is refused before it is factored."""
    (n,) = int_tuple((n,), "field order")
    _check_order(n, 1)
    decomposition = prime_power(n)
    if decomposition is None:
        raise ValueError(f"{shown_int(n)} is not a prime power")
    return make_field(*decomposition)


@functools.lru_cache(maxsize=None)
def _coefficients(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """The coefficient vector (c0, ..., c_{k-1}) of every index."""
    p, k = spec.p, spec.k
    return tuple(tuple(i // p ** j % p for j in range(k)) for i in range(spec.n))


@functools.lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> tuple[tuple[int, ...], tuple, tuple]:
    """(exp, log, zech) of the least primitive index g: exp[m] is the
    index of g^m for 0 <= m < n-1, log[exp[m]] = m (log[0] is None), and
    zech[m] = log(g^m + 1), and n-1 where g^m + 1 = 0."""
    p, q = spec.p, spec.n - 1
    coefficients = _coefficients(spec)
    for g in range(1, spec.n):
        exp, x = [1], coefficients[g]
        while (i := _poly_index(x, p)) != 1:
            exp.append(i)
            x = _poly_rem(_poly_mul(x, coefficients[g], p), spec.modulus, p)
        if len(exp) == q:
            break
    else:
        raise AssertionError("multiplicative group has no generator; unreachable")
    log = [q] * spec.n  # log[0] stays n-1 while zech is read, for g^m + 1 = 0
    for m, i in enumerate(exp):
        log[i] = m
    # adding 1 only bumps the constant base-p digit of an index
    zech = tuple([log[i - i % p + (i + 1) % p] for i in exp])
    log[0] = None
    return tuple(exp), tuple(log), zech
