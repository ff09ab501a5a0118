import random
import re
from itertools import product
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from cusplink.finite_field import (
    DEFAULT_MAX_ORDER,
    MAX_FIELD_ORDER,
    MAX_TRIAL_DIVISION,
    FieldSpec,
    _tables,
    field_of_order,
    is_prime,
    make_field,
    prime_power,
)
from cusplink.regular_map import biggs_map, genus_formula
from reference_checks import (
    affine_images,
    affine_images_by_elements,
    affine_permutation,
    gf_multiplicative_order,
    gf_sum,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]
PRIME_POWERS_TO_CAP = [n for n in range(2, DEFAULT_MAX_ORDER + 1) if prime_power(n)]
EXTENSION_ORDERS_TO_CAP = [n for n in PRIME_POWERS_TO_CAP if prime_power(n)[1] > 1]


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(6) is None


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


# A large-n call answers or is refused within this many seconds.
LARGE_N_BUDGET_S = 1.0


def _sympy_prime_power(n):
    """(p, k) when sympy factors n as p**k, p prime, else None."""
    factors = factorint(n) if n >= 2 else {}
    return next(iter(factors.items())) if len(factors) == 1 else None


def test_prime_power_and_is_prime_match_sympy_up_to_20000():
    for n in range(-5, 20001):
        assert (prime_power(n), is_prime(n)) == (_sympy_prime_power(n), isprime(n)), n


# The bound itself (2^12 * 5^12), the largest prime under it, prime powers
# and a prime square just under it, and two primes near its square root.
NEAR_THE_BOUND = [MAX_TRIAL_DIVISION, 999999999989, 2 ** 39, 3 ** 25, 7 ** 14, 999983 ** 2,
                  999979 * 999983]


@pytest.mark.parametrize("n", NEAR_THE_BOUND)
def test_prime_power_answers_up_to_its_bound(n):
    start = perf_counter()
    assert (prime_power(n), is_prime(n)) == (_sympy_prime_power(n), isprime(n))
    assert perf_counter() - start < LARGE_N_BUDGET_S


@settings(max_examples=50, deadline=None)
@given(st.integers(2, MAX_TRIAL_DIVISION), st.integers(2, 10 ** 6).filter(isprime),
       st.integers(1, MAX_TRIAL_DIVISION.bit_length()))
def test_prime_power_matches_sympy_under_its_bound(n, p, k):
    # any n, and the largest power of a prime p up to k under the bound
    while p ** k > MAX_TRIAL_DIVISION:
        k -= 1
    assert prime_power(n) == _sympy_prime_power(n)
    assert prime_power(p ** k) == (p, k)


@pytest.mark.parametrize("n, shown", [
    (MAX_TRIAL_DIVISION + 1, "1000000000001"),
    (2 ** 61 - 1, "2305843009213693951"),
    ((2 ** 31 - 1) ** 2, "4611686014132420609"),
    (10 ** 5000, "a 16610-bit integer"),
], ids=["bound+1", "2^61-1", "(2^31-1)^2", "10^5000"])
def test_trial_division_past_its_bound_is_refused(n, shown):
    # genus_formula factors its n too; a 5001-digit n is shown by its size
    message = (f"{shown} exceeds MAX_TRIAL_DIVISION = {MAX_TRIAL_DIVISION}, "
               "the largest n factored by trial division")
    for call in (prime_power, is_prime, genus_formula):
        start = perf_counter()
        with pytest.raises(ValueError) as refusal:
            call(n)
        assert perf_counter() - start < LARGE_N_BUDGET_S
        assert str(refusal.value) == message, call.__name__


def _divisors_scanned(p, k):
    """How many monic divisors _is_irreducible tries on a degree-k modulus."""
    return sum(p ** d for d in range(1, k // 2 + 1))


def _guard_factoring(monkeypatch):
    """Fail any is_prime or prime_power call above MAX_FIELD_ORDER."""
    from cusplink import finite_field

    def guarded(real):
        def check(n):
            assert n <= MAX_FIELD_ORDER, f"{real.__name__}({n}) ran above the bound"
            return real(n)
        return check

    monkeypatch.setattr(finite_field, "is_prime", guarded(finite_field.is_prime))
    monkeypatch.setattr(finite_field, "prime_power", guarded(finite_field.prime_power))


def _refused_over_the_bound(call, shown):
    start = perf_counter()
    with pytest.raises(ValueError) as excinfo:
        call()
    assert perf_counter() - start < LARGE_N_BUDGET_S
    assert str(excinfo.value) == f"order {shown} exceeds MAX_FIELD_ORDER = {MAX_FIELD_ORDER}"


# Fields whose divisor scan once ran past a bound of 300 divisors: each is
# over MAX_FIELD_ORDER, so the scan never starts.
OVER_THE_SCAN_BOUND = [(307, 3), (307, 2), (17, 4), (7, 6), (2, 16), (100003, 2),
                       (999999999989, 2)]


@pytest.mark.parametrize("p, k", OVER_THE_SCAN_BOUND)
def test_divisor_scan_past_its_bound_is_refused(monkeypatch, p, k):
    # the longest scan under the bound is GF(2^10)'s 62 divisors
    from cusplink import finite_field

    def no_scan(poly, p):
        raise AssertionError(f"a scan of {_divisors_scanned(p, len(poly) - 1)} divisors started")

    assert _divisors_scanned(p, k) > 62
    monkeypatch.setattr(finite_field, "_is_irreducible", no_scan)
    modulus = (1,) + (0,) * (k - 1) + (1,)
    for call in (lambda: make_field(p, k), lambda: FieldSpec(p, k, modulus)):
        _refused_over_the_bound(call, str(p ** k))


def test_every_field_up_to_1024_builds():
    orders = [n for n in range(2, 1025) if prime_power(n)]
    start = perf_counter()
    specs = [field_of_order(n) for n in orders]
    assert perf_counter() - start < LARGE_N_BUDGET_S
    assert [spec.n for spec in specs] == orders
    assert max(_divisors_scanned(spec.p, spec.k) for spec in specs) == 62


# Just over the bound, as a prime and as a power of 2; fields whose
# divisor scan once took up to 0.2 s; a prime whose tables once took 20 s
# to run out of memory; and orders too large to compute or to show.
OVER_THE_BOUND = [(1031, 1, "1031"), (2, 11, "2048"),
                  (293, 3, "25153757"), (293, 2, "85849"), (13, 4, "28561"), (13, 5, "371293"),
                  (5, 6, "15625"), (2, 15, "32768"), (999999999989, 1, "999999999989"),
                  (3, 30000000, "3^30000000"), (100000000000031, 1, "100000000000031"),
                  pytest.param(10 ** 5000, 1, "a 16610-bit integer", id="10^5000")]


@pytest.mark.parametrize("p, k, shown", OVER_THE_BOUND)
def test_make_field_refuses_over_the_cap_before_factoring(monkeypatch, p, k, shown):
    _guard_factoring(monkeypatch)
    _refused_over_the_bound(lambda: make_field(p, k), shown)


@pytest.mark.parametrize("p, k, modulus, shown", [
    (293, 3, (3, 1, 0, 1), "25153757"),
    (999999999989, 1, (0, 1), "999999999989"),
    (1031, 1, (0, 1), "1031"),
    (2, 11, (1, 0, 1) + (0,) * 8 + (1,), "2048"),
    (2, 13, (1, 1, 0, 1, 1) + (0,) * 8 + (1,), "8192"),
    (3, 30000000, (0, 1), "3^30000000"),
    pytest.param(10 ** 5000, 1, (0, 1), "a 16610-bit integer", id="10^5000"),
])
def test_field_spec_refuses_over_the_cap_before_factoring(monkeypatch, p, k, modulus, shown):
    # the first five moduli are irreducible: each FieldSpec used to build,
    # and GF(293^3)'s label(0) then ran 32 s into a MemoryError
    _guard_factoring(monkeypatch)
    _refused_over_the_bound(lambda: FieldSpec(p, k, modulus), shown)


@pytest.mark.parametrize("n, shown", [(1025, "1025"), (1031, "1031"), (2 ** 11, "2048"),
                                      (999999999989, "999999999989"),
                                      pytest.param(10 ** 5000, "a 16610-bit integer",
                                                   id="10^5000")])
def test_field_of_order_refuses_over_the_cap_before_factoring(monkeypatch, n, shown):
    _guard_factoring(monkeypatch)
    _refused_over_the_bound(lambda: field_of_order(n), shown)


@pytest.mark.parametrize("n, primitive, last_label", [
    (1021, 10, "1020"), (1024, 2, ",".join(["1"] * 10))])
def test_fields_at_the_bound_answer(n, primitive, last_label):
    spec = field_of_order(n)
    assert FieldSpec(spec.p, spec.k, spec.modulus) == spec
    assert spec.label(n - 1) == last_label
    assert spec.primitive() == primitive
    assert gf_multiplicative_order(spec, primitive) == n - 1
    assert biggs_map(spec).alpha.degree == n * (n - 1)


def test_prime_field_modulus_is_x():
    # degree-1 modulus x reduces everything to plain mod-p arithmetic
    gf5 = make_field(5, 1)
    assert gf5.modulus == (0, 1)
    assert affine_images(gf5, 1, 4)[2] == 1  # 2 + 4
    assert affine_images(gf5, 2, 0)[3] == 1  # 2 * 3


def _monic_quadratics_over_gf2():
    return [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)]


def _has_root_or_factor(poly, p):
    # degree 2: reducible iff it has a root in Z/p
    return any((poly[0] + poly[1] * x + poly[2] * x * x) % p == 0 for x in range(p))


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    irreducible = [q for q in _monic_quadratics_over_gf2() if not _has_root_or_factor(q, 2)]
    assert irreducible == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("n", PRIME_POWERS_TO_CAP)
def test_modulus_is_the_least_irreducible_by_sympy(n):
    spec = field_of_order(n)
    assert gf_irreducible_p(list(reversed(spec.modulus)), spec.p, ZZ)
    # every monic polynomial of degree k before it in base-p order factors
    p, k = spec.p, spec.k
    for m in range(sum(c * p ** i for i, c in enumerate(spec.modulus[:-1]))):
        smaller = [1] + [m // p ** i % p for i in reversed(range(k))]
        assert not gf_irreducible_p(smaller, p, ZZ), smaller


@pytest.mark.parametrize("n", PRIME_POWERS_TO_CAP)
def test_primitive_is_the_least_generator_by_sympy(n):
    spec = field_of_order(n)
    omega = spec.primitive()
    assert gf_multiplicative_order(spec, omega) == n - 1
    assert all(gf_multiplicative_order(spec, a) < n - 1 for a in range(1, omega))


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        make_field(4, 1)
    with pytest.raises(ValueError, match=r"^exponent k must be >= 1$"):
        make_field(5, 0)
    # a p or n below 2 passes the order bound and is shown by its size
    with pytest.raises(ValueError, match=r"^a negative 16610-bit integer is not prime$"):
        make_field(-10 ** 5000, 1)
    with pytest.raises(ValueError, match=r"^a negative 16610-bit integer is not a prime power$"):
        field_of_order(-10 ** 5000)
    # 128 is over the CLI's cap, not the library's bound
    assert make_field(2, 7).n == 128 > DEFAULT_MAX_ORDER


@pytest.mark.parametrize("p, k, shown", [(3, 2.0, "2.0 at position 1"),
                                         (3.0, 2, "3.0 at position 0"),
                                         (3, True, "True at position 1")])
def test_make_field_refuses_non_int_p_and_k(p, k, shown):
    # make_field(3, 2.0) used to fail inside range() with a raw TypeError
    with pytest.raises(TypeError, match=rf"^make_field \(p, k\) entry {re.escape(shown)} is not an int$"):
        make_field(p, k)


def test_field_of_order_refuses_a_non_int_order():
    # field_of_order(9.0) used to return GF(9)
    with pytest.raises(TypeError, match=r"^field order 9\.0 at position 0 is not an int$"):
        field_of_order(9.0)


def test_gf4_multiplication():
    gf4 = make_field(2, 2)
    # x * x = x + 1, and x has index 2
    assert affine_images(gf4, 2, 0)[2] == 3
    assert gf4.label(3) == "1,1"


@pytest.mark.parametrize("p,expected", [(5, 2), (7, 3), (2, 1)])
def test_primitive_prime_fields(p, expected):
    spec = make_field(p, 1)
    assert spec.primitive() == expected
    assert gf_multiplicative_order(spec, expected) == spec.n - 1
    # and no earlier element generates
    for i in range(1, expected):
        assert gf_multiplicative_order(spec, i) < spec.n - 1


def test_enumeration_order():
    gf5 = make_field(5, 1)
    assert [gf5.label(i) for i in range(5)] == ["0", "1", "2", "3", "4"]
    gf4 = make_field(2, 2)
    assert [gf4.label(i) for i in range(4)] == ["0,0", "1,0", "0,1", "1,1"]
    gf9 = make_field(3, 2)
    assert [gf9.label(i) for i in range(9)] == ["0,0", "1,0", "2,0", "0,1", "1,1",
                                                "2,1", "0,2", "1,2", "2,2"]


def _operation_rows(spec):
    """add[b][a] = a + b and mul[a][b] = a * b, read from affine rows."""
    n = spec.n
    add = [affine_images(spec, 1, b) for b in range(n)]
    mul = [(0,) * n] + [affine_images(spec, a, 0) for a in range(1, n)]
    return add, mul


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_field_axioms(n):
    spec = field_of_order(n)
    add, mul = _operation_rows(spec)
    assert all(sorted(row) == list(range(n)) for row in add + mul[1:])

    for a, b in product(range(n), repeat=2):
        assert add[b][a] == add[a][b]
        assert mul[a][b] == mul[b][a]

    if n <= 16:
        triples = list(product(range(n), repeat=3))
    else:
        rng = random.Random(n)
        triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(2000)]
    for a, b, c in triples:
        assert add[c][add[b][a]] == add[add[c][b]][a]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[c][b]] == add[mul[a][c]][mul[a][b]]


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_inverses_and_primitive_order(n):
    spec = field_of_order(n)
    _, mul = _operation_rows(spec)
    for e in range(1, n):
        inverse = mul[e].index(1)
        assert mul[inverse][e] == 1
    assert gf_multiplicative_order(spec, spec.primitive()) == n - 1


def test_powers_of_primitive_cover_nonzero_elements():
    spec = make_field(3, 2)
    row = affine_images(spec, spec.primitive(), 0)
    powers, x = set(), 1
    for _ in range(spec.n - 1):
        powers.add(x)
        x = row[x]
    assert powers == set(range(1, spec.n))


def test_serialization_roundtrip():
    spec = make_field(3, 2)
    assert spec.label(5) == "2,1"
    for i in range(spec.n):
        assert sum(int(c) * spec.p ** j for j, c in enumerate(spec.label(i).split(","))) == i


@pytest.mark.parametrize("coeffs, shown", [([1.5, 2.9], "1.5 at position 0"),
                                           (["2", True], "'2' at position 0"),
                                           ([2, True], "True at position 1"),
                                           ((1, 2.0), "2.0 at position 1")])
def test_element_refuses_non_int_coefficients(coeffs, shown):
    # An element is an index, so a coefficient vector is refused; where
    # coefficients are still read, in the modulus, each entry must be an
    # int (int() would truncate [1.5, 2.9] to 1,2 and read ["2", True] as 2,1).
    with pytest.raises(TypeError, match=rf"^element index {re.escape(repr(coeffs))} is not an int$"):
        affine_images(make_field(3, 2), coeffs, 0)
    with pytest.raises(TypeError, match=rf"^modulus coefficient {re.escape(shown)} is not an int$"):
        FieldSpec(3, 1, coeffs)


def test_field_spec_refuses_a_non_int_modulus():
    with pytest.raises(TypeError, match=r"^modulus coefficient 1\.0 at position 2 is not an int$"):
        FieldSpec(3, 2, (1, 0, 1.0))


def test_mismatched_fields_error():
    # an index of GF(9) past the end of GF(4) is refused as s and as t
    gf4 = make_field(2, 2)
    with pytest.raises(ValueError, match=r"^index 8 out of range for order 4$"):
        affine_images(gf4, 1, 8)
    with pytest.raises(ValueError, match=r"^index 8 out of range for order 4$"):
        affine_images(gf4, 8, 0)
    # equal specs built twice give the same rows
    assert affine_images(make_field(2, 2), 3, 1) == affine_images(gf4, 3, 1)


def test_zero_division_and_negative_powers():
    spec = make_field(5, 1)
    # zero has no inverse, so it scales nothing
    with pytest.raises(ValueError, match=r"^scale factor s must be nonzero$"):
        affine_images(spec, 0, 0)
    # 2 ** -1 = 3: scaling by 2 and then by 3 is the identity
    double, third = affine_images(spec, 2, 0), affine_images(spec, 3, 0)
    assert double[3] == 1
    assert [third[double[x]] for x in range(5)] == list(range(5))


def test_field_spec_refuses_non_int_p_and_k():
    # FieldSpec(3, 2.0, ...) used to equal make_field(3, 2) with n == 9.0
    with pytest.raises(TypeError, match=r"^FieldSpec \(p, k\) entry 2\.0 at position 1 is not an int$"):
        FieldSpec(3, 2.0, (1, 0, 1))
    with pytest.raises(TypeError, match=r"^FieldSpec \(p, k\) entry 3\.0 at position 0 is not an int$"):
        FieldSpec(3.0, 2, (1, 0, 1))
    with pytest.raises(TypeError, match=r"^FieldSpec \(p, k\) entry True at position 1 is not an int$"):
        FieldSpec(3, True, (0, 1))
    assert type(make_field(3, 2).n) is int


@pytest.mark.parametrize("p, k, modulus, message", [
    (4, 1, (0, 1), "4 is not prime"),
    (3, 0, (1,), "exponent k must be >= 1"),
    (3, 2, (1, 1), "modulus must be monic of degree k"),
    (3, 2, (1, 0, 2), "modulus must be monic of degree k"),
    (3, 2, (1, 3, 1), r"modulus coefficients must lie in \[0, p\)"),
    (3, 2, (-1, 0, 1), r"modulus coefficients must lie in \[0, p\)"),
    (3, 2, (0, 0, 1), "modulus is reducible over Z/p"),  # x^2 = x * x
    (-10 ** 5000, 1, (0, 1), "a negative 16610-bit integer is not prime"),
], ids=["p-not-prime", "k-below-1", "short-modulus", "not-monic", "coefficient-p",
        "negative-coefficient", "reducible", "p-huge-negative"])
def test_field_spec_refusals(p, k, modulus, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        FieldSpec(p, k, modulus)


@pytest.mark.parametrize("index", [True, False])
def test_element_refuses_a_bool_index(index):
    # True used to read as the index 1 and False as 0
    for spec in (make_field(3, 2), make_field(5, 1)):
        for call in (lambda: affine_images(spec, 1, index), lambda: affine_images(spec, index, 1),
                     lambda: spec.label(index)):
            with pytest.raises(TypeError, match=rf"^element index {index} is not an int$"):
                call()


def test_affine_permutation_refuses_bool_arguments():
    # (True, False) used to give the identity
    with pytest.raises(TypeError, match=r"^element index True is not an int$"):
        affine_permutation(make_field(5, 1), True, False)


@pytest.mark.parametrize("n", [n for n in SMALL_ORDERS if n <= 13])
def test_affine_images_match_field_arithmetic_for_every_pair(n):
    # covers the residue route (k = 1) and the table route (4, 8, 9)
    spec = field_of_order(n)
    for s, t in product(range(1, n), range(n)):
        assert affine_images(spec, s, t) == affine_images_by_elements(spec, s, t)


@pytest.mark.parametrize("n", PRIME_POWERS_TO_CAP)
def test_tables_match_galoistools(n):
    # every field, prime ones included, reads its affine rows from these
    spec = field_of_order(n)
    exp, log, zech = _tables(spec)
    assert sorted(exp) == list(range(1, n))
    assert log[0] is None and [exp[log[i]] for i in range(1, n)] == list(range(1, n))
    assert exp[1 % (n - 1)] == spec.primitive()
    for m, z in enumerate(zech):
        one_more = gf_sum(spec, exp[m], 1)
        # where g^m + 1 = 0 the sentinel n - 1 reads the 0 the rows append to exp
        assert z == (n - 1 if one_more == 0 else log[one_more]), m


@pytest.mark.parametrize("n", EXTENSION_ORDERS_TO_CAP)
def test_affine_images_match_field_arithmetic_for_every_scale(n):
    # the t = 0 (pure log) and t != 0 (Zech) routes, at every s
    spec = field_of_order(n)
    for s, t in product(range(1, n), (0, 1, n - 1)):
        assert affine_images(spec, s, t) == affine_images_by_elements(spec, s, t), (s, t)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIME_POWERS_TO_CAP), st.data())
def test_affine_images_match_field_arithmetic_sampled(n, data):
    spec = field_of_order(n)
    s = data.draw(st.integers(1, n - 1), label="s")
    t = data.draw(st.integers(0, n - 1), label="t")
    images = affine_images(spec, s, t)
    assert images == affine_images_by_elements(spec, s, t)
    assert type(images) is tuple and sorted(images) == list(range(n))


@pytest.mark.parametrize("n", [5, 9])
def test_affine_images_refuse_a_zero_scale(n):
    spec = field_of_order(n)
    with pytest.raises(ValueError, match=r"^scale factor s must be nonzero$"):
        affine_images(spec, 0, 1)
    # the zero coefficient vector is not an index
    with pytest.raises(TypeError, match=r"^element index \[0\] is not an int$"):
        affine_images(spec, [0], 1)
