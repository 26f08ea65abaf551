import random

import pytest

from dualpair.errors import BadInputError
from dualpair.fields import Fp
from dualpair.poly import Polynomial, _split_equal_degree, cubic_roots

from conftest import dual_horner


def test_cubic_roots_trivial_cases():
    f5 = Fp(5)
    assert [r.value for r in cubic_roots(f5, 0, 0)] == [0]  # x^3
    f7 = Fp(7)
    # x^3 + 6x = x(x^2 - 1) = x(x-1)(x+1)
    assert [r.value for r in cubic_roots(f7, 6, 0)] == [0, 1, 6]


def test_cubic_roots_against_exhaustive_scan():
    rng = random.Random(3)
    for p in (5, 13, 101, 257):
        f = Fp(p)
        for _ in range(25):
            a, b = rng.randrange(p), rng.randrange(p)
            oracle = [x for x in range(p) if (x**3 + a * x + b) % p == 0]
            assert [r.value for r in cubic_roots(f, a, b)] == oracle


def test_cubic_roots_large_p_gcd_path():
    # construct a cubic with known roots r1, r2, r3 = -(r1+r2) (no x^2 term)
    p = 2**31 - 1
    f = Fp(p)
    rng = random.Random(4)
    for _ in range(5):
        r1, r2 = rng.randrange(p), rng.randrange(p)
        r3 = (-r1 - r2) % p
        a = (r1 * r2 + r1 * r3 + r2 * r3) % p
        b = (-r1 * r2 * r3) % p
        expect = sorted(set((r1, r2, r3)))
        assert [r.value for r in cubic_roots(f, a, b)] == expect
    # generic cubics: every reported root really is one
    for _ in range(5):
        a, b = rng.randrange(p), rng.randrange(p)
        for r in cubic_roots(f, a, b):
            assert (r.value**3 + a * r.value + b) % p == 0


def test_divmod_and_gcd():
    f = Fp(13)
    x = Polynomial.x(f)
    a = (x - 3) * (x - 5) * (x + 1)
    b = (x - 5) * (x + 2)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert a.gcd(b) == (x - 5).monic()


def test_degree_sentinel_and_zero_polynomial():
    f = Fp(5)
    z = Polynomial.zero(f)
    assert z.degree == float("-inf")
    assert z.is_zero()
    assert (z + Polynomial.constant(f, 3)).degree == 0
    with pytest.raises(ValueError):
        z.roots()


def test_evaluation_horner_matches_naive():
    f = Fp(101)
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.randrange(101) for _ in range(6)]
        poly = Polynomial(f, coeffs)
        x = rng.randrange(101)
        naive = sum(c * pow(x, i, 101) for i, c in enumerate(coeffs)) % 101
        assert poly(x) == naive


def test_evaluation_at_dual_numbers_is_first_order_taylor():
    # f(a + b*eps) = f(a) + f'(a)*b*eps, for the tests' dual-number evaluation
    # (the oracle of `test_eval_lifted_is_the_dual_evaluation`)
    f = Fp(103)
    rng = random.Random(6)
    for _ in range(30):
        poly = Polynomial(f, [rng.randrange(103) for _ in range(7)])
        a, b = f.random(rng), f.random(rng)
        val = dual_horner(poly, f.dual(a, b))
        assert val.re == poly(a)
        assert val.eps == poly.derivative()(a) * b


def test_evaluation_at_a_dual_number_is_a_type_error():
    # src evaluates polynomials on F_p only; the lifted image is a closed form
    f = Fp(103)
    for poly in (Polynomial(f, [3, 1, 4]), Polynomial.zero(f)):
        with pytest.raises(TypeError):
            poly(f.dual(2, 5))
        with pytest.raises(TypeError):
            poly(2.0)


def test_factor_recovers_structure():
    f = Fp(31)
    x = Polynomial.x(f)
    irreducible_quadratic = x * x + 1  # -1 is a non-residue mod 31? 31 = 3 mod 4, yes
    product = (x - 2) * (x - 2) * (x - 7) * irreducible_quadratic
    factors = product.factor()
    assert ((x - 2).monic(), 2) in factors
    assert ((x - 7).monic(), 1) in factors
    assert (irreducible_quadratic.monic(), 1) in factors
    rebuilt = Polynomial.constant(f, 1)
    for g, m in factors:
        for _ in range(m):
            rebuilt = rebuilt * g
    assert rebuilt == product.monic()


def test_factor_randomized_against_roots():
    rng = random.Random(7)
    for p in (11, 97):
        f = Fp(p)
        for _ in range(10):
            poly = Polynomial(f, [rng.randrange(p) for _ in range(9)])
            if poly.degree < 1:
                continue
            linear_roots = {r.value for r in poly.roots()}
            factored_roots = {
                (-g[0]) % p for g, _ in poly.factor() if g.degree == 1
            }
            assert linear_roots == factored_roots


def test_split_equal_degree_of_a_constant_is_empty():
    # the empty product has no factors; the split must not search for one
    f = Fp(7)
    assert _split_equal_degree(Polynomial.constant(f, 1), 1) == []
    assert _split_equal_degree(Polynomial.constant(f, 3), 2) == []
    assert Polynomial.constant(f, 3).roots() == []


def test_pow_mod():
    f = Fp(17)
    x = Polynomial.x(f)
    mod = x * x * x - 2
    assert x.pow_mod(17, mod) == (x.pow_mod(16, mod) * x) % mod


def test_mixed_contexts_raise_bad_input():
    f, g = Polynomial(Fp(5), (1, 1)), Polynomial(Fp(7), (1, 1))
    ops = (lambda: f + g, lambda: f - g, lambda: f * g, lambda: divmod(f, g), lambda: Polynomial(Fp(5), [Fp(7)(6)]))
    for op in ops:
        with pytest.raises(BadInputError, match="mixed field contexts"):
            op()
    assert Polynomial(Fp(5), [Fp(5)(6), 7, 0]).coeffs == (1, 2)
