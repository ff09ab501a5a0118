import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cusplink.finite_field import (
    DEFAULT_MAX_ORDER,
    FieldSpec,
    field_of_order,
    is_prime,
    make_field,
    prime_power,
)
from cusplink.perm_action import affine_permutation
from reference_checks import affine_images_by_elements

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]
PRIME_POWERS_TO_CAP = [n for n in range(2, DEFAULT_MAX_ORDER + 1) if prime_power(n)]


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


@pytest.mark.parametrize("p, k, shown", [(3, 30000000, "3^30000000"),
                                         (100000000000031, 1, "100000000000031")])
def test_make_field_refuses_over_the_cap_before_factoring(monkeypatch, p, k, shown):
    from cusplink import finite_field

    def guarded(real):
        def check(n):
            assert n <= DEFAULT_MAX_ORDER, f"{real.__name__}({n}) ran above the cap"
            return real(n)
        return check

    monkeypatch.setattr(finite_field, "is_prime", guarded(finite_field.is_prime))
    monkeypatch.setattr(finite_field, "prime_power", guarded(finite_field.prime_power))
    with pytest.raises(ValueError) as excinfo:
        make_field(p, k)
    assert str(excinfo.value) == f"order {shown} exceeds the cap {DEFAULT_MAX_ORDER}"


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
    gf9 = make_field(3, 2)
    elements = gf9.elements()
    assert [e.index for e in elements] == list(range(9))
    # one immutable tuple per field, returned again for an equal spec built anew
    assert type(elements) is tuple
    assert make_field(3, 2).elements() is elements
    with pytest.raises(TypeError):
        elements[0] = elements[1]


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


@pytest.mark.parametrize("coeffs, shown", [([1.5, 2.9], "1.5 at position 0"),
                                           (["2", True], "'2' at position 0"),
                                           ([2, True], "True at position 1"),
                                           ((1, 2.0), "2.0 at position 1")])
def test_element_refuses_non_int_coefficients(coeffs, shown):
    # int() would truncate these: [1.5, 2.9] read 1,2 and ["2", True] read 2,1
    with pytest.raises(TypeError, match=rf"^coefficient {re.escape(shown)} is not an int$"):
        make_field(3, 2).element(coeffs)


def test_field_spec_refuses_a_non_int_modulus():
    with pytest.raises(TypeError, match=r"^modulus coefficient 1\.0 at position 2 is not an int$"):
        FieldSpec(3, 2, (1, 0, 1.0))


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


def test_field_spec_refuses_non_int_p_and_k():
    # FieldSpec(3, 2.0, ...) used to equal make_field(3, 2) with n == 9.0
    with pytest.raises(TypeError, match=r"^FieldSpec \(p, k\) entry 2\.0 at position 1 is not an int$"):
        FieldSpec(3, 2.0, (1, 0, 1))
    with pytest.raises(TypeError, match=r"^FieldSpec \(p, k\) entry 3\.0 at position 0 is not an int$"):
        FieldSpec(3.0, 2, (1, 0, 1))
    with pytest.raises(TypeError, match=r"^FieldSpec \(p, k\) entry True at position 1 is not an int$"):
        FieldSpec(3, True, (0, 1))
    assert type(make_field(3, 2).n) is int


@pytest.mark.parametrize("index", [True, False])
def test_element_refuses_a_bool_index(index):
    # True used to read as the index 1 and False as 0
    with pytest.raises(TypeError, match=rf"^element index {index} is not an int$"):
        make_field(3, 2).element(index)
    with pytest.raises(TypeError, match=rf"^element index {index} is not an int$"):
        make_field(5, 1).element(index)


def test_affine_permutation_refuses_bool_arguments():
    # (True, False) used to give the identity
    with pytest.raises(TypeError, match=r"^element index True is not an int$"):
        affine_permutation(make_field(5, 1), True, False)


@pytest.mark.parametrize("n", [n for n in SMALL_ORDERS if n <= 13])
def test_affine_images_match_field_arithmetic_for_every_pair(n):
    # covers the residue route (k = 1) and the FieldElement route (4, 8, 9)
    spec = field_of_order(n)
    for s, t in product(spec.elements()[1:], spec.elements()):
        assert spec.affine_images(s, t) == affine_images_by_elements(spec, s, t)
        assert spec.affine_images(s.index, t.index) == affine_images_by_elements(spec, s, t)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIME_POWERS_TO_CAP), st.data())
def test_affine_images_match_field_arithmetic_sampled(n, data):
    spec = field_of_order(n)
    s = data.draw(st.integers(1, n - 1), label="s")
    t = data.draw(st.integers(0, n - 1), label="t")
    images = spec.affine_images(s, t)
    assert images == affine_images_by_elements(spec, s, t)
    assert type(images) is tuple and sorted(images) == list(range(n))


@pytest.mark.parametrize("n", [5, 9])
def test_affine_images_refuse_a_zero_scale(n):
    spec = field_of_order(n)
    for zero in (0, spec.zero, [0]):
        with pytest.raises(ValueError, match=r"^scale factor s must be nonzero$"):
            spec.affine_images(zero, 1)
