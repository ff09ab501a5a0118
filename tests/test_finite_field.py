import random
from itertools import product

import pytest

from cusplink.finite_field import (
    DEFAULT_MAX_ORDER,
    field_of_order,
    is_prime,
    make_field,
    prime_power,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(6) is None


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_field_modulus_is_x():
    # degree-1 modulus x reduces everything to plain mod-p arithmetic
    gf5 = make_field(5, 1)
    assert gf5.modulus == (0, 1)
    assert (gf5.element(2) + gf5.element(4)).index == 1
    assert (gf5.element(2) * gf5.element(3)).index == 1


def _monic_quadratics_over_gf2():
    return [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)]


def _has_root_or_factor(poly, p):
    # degree 2: reducible iff it has a root in Z/p
    return any((poly[0] + poly[1] * x + poly[2] * x * x) % p == 0 for x in range(p))


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    irreducible = [q for q in _monic_quadratics_over_gf2() if not _has_root_or_factor(q, 2)]
    assert irreducible == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(2, 7)  # 128 > default cap
    assert make_field(2, 7, max_order=128).n == 128


def test_gf4_multiplication():
    gf4 = make_field(2, 2)
    x = gf4.element([0, 1])
    assert (x * x).coeffs == (1, 1)


def _brute_force_order(element):
    power, order = element, 1
    while power != element.spec.one:
        power = power * element
        order += 1
        assert order <= element.spec.n
    return order


@pytest.mark.parametrize("p,expected", [(5, 2), (7, 3), (2, 1)])
def test_primitive_prime_fields(p, expected):
    spec = make_field(p, 1)
    primitive = spec.primitive()
    assert primitive.index == expected
    assert _brute_force_order(primitive) == spec.n - 1
    # and no earlier element generates
    for i in range(1, expected):
        assert _brute_force_order(spec.element(i)) < spec.n - 1


def test_enumeration_order():
    assert [e.index for e in make_field(5, 1).elements()] == [0, 1, 2, 3, 4]
    gf4 = make_field(2, 2)
    assert [e.coeffs for e in gf4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert len(make_field(3, 2).elements()) == 9


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_field_axioms(n):
    spec = field_of_order(n, max_order=DEFAULT_MAX_ORDER)
    elements = spec.elements()
    assert len(set(elements)) == n

    pairs = list(product(elements, repeat=2))
    for a, b in pairs:
        assert a + b == b + a
        assert a * b == b * a

    if n <= 16:
        triples = list(product(elements, repeat=3))
    else:
        rng = random.Random(n)
        triples = [tuple(rng.choice(elements) for _ in range(3)) for _ in range(2000)]
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_inverses_and_primitive_order(n):
    spec = field_of_order(n)
    one = spec.one
    for e in spec.elements():
        if e.is_zero():
            continue
        assert e * e.inverse() == one
    assert spec.primitive().multiplicative_order() == n - 1


def test_powers_of_primitive_cover_nonzero_elements():
    spec = make_field(3, 2)
    omega = spec.primitive()
    powers = {(omega ** i) for i in range(spec.n - 1)}
    assert powers == {e for e in spec.elements() if not e.is_zero()}


def test_serialization_roundtrip():
    spec = make_field(3, 2)
    assert str(spec.element([2, 1])) == "2,1"


def test_mismatched_fields_error():
    a = make_field(2, 2).element(2)
    b = make_field(3, 2).element(2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    # equal specs built twice interoperate
    c = make_field(2, 2).element(3)
    assert (a + c).spec == a.spec


def test_zero_division_and_negative_powers():
    spec = make_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        spec.zero.inverse()
    two = spec.element(2)
    assert two ** -1 == two.inverse()
    assert two ** 0 == spec.one
