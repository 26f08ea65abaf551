import random
from fractions import Fraction

import pytest

from dualpair import DualPoint
from dualpair.errors import BadInputError, DivisionByZeroError, NonUnitError
from dualpair.fields import DualNumber, Fp, json_int


def test_basic_arithmetic_mod_5():
    f = Fp(5)
    assert f(3) + f(4) == 2  # 7 mod 5
    assert f(1) / f(1) == 1
    assert f(3) - f(4) == 4
    assert f(3) * f(4) == 2


def test_division_oracle_exhaustive_scan():
    # 3 / 5 mod 7 must be the unique v with 5v = 3 (mod 7)
    f = Fp(7)
    v = f(3) / f(5)
    oracle = [u for u in range(7) if (5 * u) % 7 == 3]
    assert len(oracle) == 1 and v == oracle[0]


def test_division_by_zero():
    f = Fp(5)
    with pytest.raises(DivisionByZeroError):
        f(3) / f(0)
    with pytest.raises(DivisionByZeroError):
        f(0).inverse()


def test_modulus_must_be_odd_prime_above_3():
    for bad in (0, 1, 2, 3, 4, 9, 15, 91):
        with pytest.raises(ValueError):
            Fp(bad)
    Fp(5), Fp(2**61 - 1)


def test_fp_rejects_an_element_of_another_field():
    with pytest.raises(BadInputError, match="mixed field contexts"):
        Fp(7)(Fp(5)(1))


def test_fp_reads_every_scalar_as_an_index():
    # ints and bools reduce mod p and an element of the field comes back as it is; text is
    # json_int's to read, and Fp takes none of what it refuses, nor a float or a Fraction
    f = Fp(7)
    assert [f(10), f(-1), f(True), f(False)] == [3, 6, 1, 0]
    a = f(3)
    assert f(a) is a
    for value in (2.9, 3.0, "3", "+3", "3_0", " 3", Fraction(7, 2), Fraction(3), None):
        with pytest.raises(TypeError):
            f(value)
    for text in ("+3", "3_0", " 3", 2.9):
        with pytest.raises(ValueError):
            json_int(text)
    with pytest.raises(BadInputError, match="mixed field contexts"):
        f(Fp(5)(3))
    for modulus in (7.0, "7"):  # the modulus is read the same way
        with pytest.raises(TypeError):
            Fp(modulus)


def test_equality_across_fields_is_false_where_arithmetic_raises():
    # as FpElement, Point and Polynomial answer; a sum or product across fields still raises
    a, b = Fp(5).dual(1), Fp(7).dual(1)
    assert a != b and not a == b and a != Fp(7)(1) and Fp(7)(1) != a
    assert a == Fp(5)(1) == a and a == 6 and Fp(5).dual(1, 1) != 1
    P5, P7 = DualPoint.affine(a, a), DualPoint.affine(b, b)
    assert P5 != P7 and P5 == DualPoint.affine(Fp(5).dual(6), a)
    for op in (lambda: a + b, lambda: a * b, lambda: a - Fp(7)(1)):
        with pytest.raises(BadInputError, match="mixed field contexts"):
            op()


def test_mixed_contexts_raise_bad_input():
    # a check, not an assert: under python -O it must still refuse
    a, b = Fp(5)(1), Fp(7)(1)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: b - a):
        with pytest.raises(BadInputError, match="mixed field contexts"):
            op()


def test_dual_number_rejects_mixed_contexts():
    with pytest.raises(BadInputError, match="mixed field contexts"):
        DualNumber(Fp(5)(1), Fp(7)(1))
    with pytest.raises(BadInputError, match="mixed field contexts"):
        Fp(5).dual(1, 2) * Fp(7).dual(1, 2)


def test_field_axioms_randomized():
    f = Fp(10007)
    rng = random.Random(1)
    for _ in range(1000):
        a, b, c = (f.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_negative_exponent_and_int_coercion():
    f = Fp(11)
    a = f(7)
    assert a**-1 == a.inverse()
    assert a**-2 == (a * a).inverse()
    assert 3 * a == a * 3 == f(21)
    assert 1 - a == f(1 - 7)


def test_field_context_equality_hash_and_repr():
    assert Fp(7) == Fp(7) and hash(Fp(7)) == hash(Fp(7))
    assert Fp(7) != Fp(11) and Fp(7) != 7
    assert repr(Fp(7)) == "Fp(7)"


def test_reflected_division_and_subtraction():
    f = Fp(11)
    assert 3 / f(7) == f(3) * f(7).inverse()
    z = f.dual(2, 5)
    assert 1 - z == f.dual(-1, -5)
    assert z != "2"  # a str is no dual number


def test_dual_inverse_identity_and_roundtrip():
    f = Fp(5)
    one = f.dual(1)
    assert one.inverse() == one
    z = f.dual(2, 3)
    assert z * z.inverse() == one
    assert z.inverse() * z == one


def test_dual_nilpotent_not_invertible():
    f = Fp(7)
    with pytest.raises(NonUnitError):
        f.dual(0, 1).inverse()
    with pytest.raises(NonUnitError):
        1 / f.dual(0, 3)


def test_dual_multiplication_truncates_eps_squared():
    f = Fp(5)
    a, b, c, d = 2, 3, 4, 1
    z = f.dual(a, b) * f.dual(c, d)
    assert z == f.dual(a * c, a * d + b * c)


def test_dual_ring_randomized():
    f = Fp(211)
    rng = random.Random(2)
    for _ in range(1000):
        z = DualNumber(f.random(rng), f.random(rng))
        w = DualNumber(f.random(rng), f.random(rng))
        if not (z.re.is_zero() or w.re.is_zero()):
            assert (z * w).inverse() == w.inverse() * z.inverse()
        assert z * w == w * z
        assert (z + w) - w == z


def test_dual_power_is_the_binomial_rule():
    # (a + b*eps)^n = a^n + n*a^(n-1)*b*eps against repeated products, a = 0 included; a negative n inverts first
    f = Fp(13)
    for a in range(13):
        for b in (0, 1, 7):
            z, acc = f.dual(a, b), f.dual(1)
            for n in range(30):
                assert z**n == acc
                if a:
                    assert z**-n * acc == f.dual(1)
                acc = acc * z


def test_frobenius_kills_eps():
    # (a + b*eps)^p = a^p because p >= 5 wipes the cross terms
    for p in (5, 7, 11, 13):
        f = Fp(p)
        rng = random.Random(p)
        for _ in range(50):
            z = DualNumber(f.random(rng), f.random(rng))
            assert z**p == f.dual(z.re**p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_unipotent_subgroup_structure_exhaustive(p):
    # (1 + a*eps)(1 + b*eps) = 1 + (a+b)*eps and (1 + a*eps)^n = 1 + n*a*eps
    f = Fp(p)
    for a in range(p):
        for b in range(p):
            assert f.dual(1, a) * f.dual(1, b) == f.dual(1, a + b)
    for a in range(p):
        for n in range(2 * p + 1):
            assert f.dual(1, a) ** n == f.dual(1, n * a)


def test_dual_json_roundtrip():
    f = Fp(13)
    z = f.dual(7, 12)
    assert z.to_json() == {"re": "7", "eps": "12"}
