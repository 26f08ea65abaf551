import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpair.errors import BadInputError, DualPairError
from dualpair.fields import Fp
from dualpair.poly import Polynomial, _split_by_values, cubic_roots

from conftest import dual_horner


def test_zero_polynomial_and_inexact_division_raise():
    f = Fp(13)
    zero = Polynomial.zero(f)
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        zero.lead()
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        zero.factor()
    x_minus_1, x_minus_2 = Polynomial.from_roots(f, [1]), Polynomial.from_roots(f, [2])
    assert (x_minus_1 * x_minus_2).exact_div(x_minus_2) == x_minus_1
    with pytest.raises(ValueError, match="division was not exact"):
        Polynomial.from_roots(f, [1, 3]).exact_div(x_minus_2)


def test_negation_repr_and_factor_of_a_constant():
    f = Fp(13)
    g = Polynomial.from_roots(f, [1, 2])  # x^2 - 3x + 2
    assert -g + g == Polynomial.zero(f)
    assert repr(g) == "1*x^2 + 10*x^1 + 2"
    assert repr(Polynomial(f, [0, 0, 4])) == "4*x^2"
    assert repr(Polynomial.zero(f)) == "0"
    assert Polynomial.constant(f, 5).factor() == []


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


def test_scalars_are_read_by_fp_in_every_operation():
    # a scalar is an int, a bool or an element of the field, on either side of + - * and in
    # the constructor and evaluation; a float or str raises TypeError, as Fp raises
    f = Fp(7)
    g = Polynomial(f, (2, 5, 1))
    assert 3 + g == g + 3 == Polynomial(f, (5, 5, 1))
    assert 3 - g == -(g - 3) == Polynomial(f, (1, 2, 6))
    assert g * f(3) == f(3) * g == 3 * g == g * 3 == g * 10 == Polynomial(f, (6, 1, 3))
    assert f(3) + g == g + f(3) and True + g == g + 1 and g - f(3) == g - 3
    assert g(True) == g(f(1)) == g(8) == 1
    for op in (lambda: g + "x", lambda: "x" + g, lambda: g - 1.5, lambda: 1.5 - g, lambda: g * 1.5, lambda: 1.5 * g,
               lambda: g("3"), lambda: Polynomial(f, [2.7]), lambda: Polynomial.constant(f, "2")):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(BadInputError, match="mixed field contexts"):
        g * Fp(5)(3)


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
    assert _split_by_values(Polynomial.constant(f, 1), Polynomial.x(f), 1) == []
    assert _split_by_values(Polynomial.constant(f, 3), Polynomial.x(f), 2) == []
    assert Polynomial.constant(f, 3).roots() == []


def _is_irreducible(g: Polynomial) -> bool:
    """For degree at most 3: irreducible exactly when it has no root in F_p."""
    return g.degree == 1 or not [v for v in range(g.field.p) if g(v) == 0]


@pytest.mark.parametrize("p", [5, 7])
def test_factor_of_multiplicities_at_and_above_p(p):
    # a factor of multiplicity p or more makes g' = 0 somewhere on the way (g = h(x^p) = h^p),
    # where gcd(g, g') = g would give back the input; products of factors of degree at most 3
    # with multiplicities 1, 2, p, p + 1 and 2p
    f = Fp(p)
    rng = random.Random(p)
    multiplicities = (1, 2, p, p + 1, 2 * p)
    assert Polynomial(f, (0,) * p + (1,)).factor() == [(Polynomial.x(f), p)]  # x^p
    for _ in range(12):
        expect: dict = {}
        while len(expect) < 3:
            g = Polynomial(f, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1])
            if _is_irreducible(g):
                expect[g.coeffs] = rng.choice(multiplicities)
        product = Polynomial.constant(f, 1)
        for cs, m in expect.items():
            for _ in range(m):
                product = product * Polynomial(f, cs)
        factors = (product * 3).factor()
        rebuilt = Polynomial.constant(f, 1)
        for g, m in factors:
            assert g.lead() == 1 and _is_irreducible(g)
            for _ in range(m):
                rebuilt = rebuilt * g
        assert rebuilt == product
        assert {g.coeffs: m for g, m in factors} == expect


def test_pow_mod():
    f = Fp(17)
    x = Polynomial.x(f)
    mod = x * x * x - 2
    assert x.pow_mod(17, mod) == (x.pow_mod(16, mod) * x) % mod
    # n = 0, and a constant modulus, under which every polynomial is 0
    assert (x + 3).pow_mod(0, mod).coeffs == (1,)
    assert (x + 3).pow_mod(0, Polynomial.constant(f, 2)).is_zero()
    with pytest.raises(ZeroDivisionError):
        x.pow_mod(2, Polynomial.zero(f))
    # a negative exponent is refused, not read as its absolute value
    with pytest.raises(BadInputError):
        x.pow_mod(-5, mod)
    f1163 = Fp(1163)
    with pytest.raises(BadInputError):
        Polynomial.constant(f1163, 2).pow_mod(-1, Polynomial.x(f1163))


def test_division_operands_are_read_as_polynomials():
    # divmod, %, //, exact_div, gcd and the modulus of pow_mod and inverse_mod read a scalar as the
    # constant polynomial, so division by a unit leaves no remainder and by 0 raises ZeroDivisionError
    f = Fp(7)
    g, one, zero = Polynomial(f, (1, 2, 1)), Polynomial.constant(f, 1), Polynomial.zero(f)
    assert divmod(g, 3) == divmod(g, f(3)) == (g * 5, zero)
    assert g % 3 == zero and g // 3 == g.exact_div(3) == g * 5
    assert g.gcd(3) == g.gcd(True) == one and g.gcd(0) == g.monic() and zero.gcd(3) == one
    assert g.pow_mod(5, 3) == zero and Polynomial.x(f).inverse_mod(g) * Polynomial.x(f) % g == one
    for op in (lambda: divmod(g, 0), lambda: g % 0, lambda: g // f(0), lambda: g.pow_mod(2, 0), lambda: g.inverse_mod(0)):
        with pytest.raises(ZeroDivisionError):
            op()
    for op in (lambda: divmod(g, "3"), lambda: g % "3", lambda: g // 1.5, lambda: g.exact_div("x"), lambda: g.gcd("3"),
               lambda: g.pow_mod(2, "x"), lambda: g.inverse_mod(1.5)):
        with pytest.raises(TypeError):
            op()
    h = Polynomial(Fp(5), (1, 1))
    for op in (lambda: g % h, lambda: g // h, lambda: g.exact_div(h), lambda: g.gcd(h), lambda: g.pow_mod(2, h),
               lambda: g.inverse_mod(h), lambda: g % Fp(5)(3), lambda: g.gcd(Fp(5)(3))):
        with pytest.raises(BadInputError, match="mixed field contexts"):
            op()


def test_mixed_contexts_raise_bad_input():
    f, g = Polynomial(Fp(5), (1, 1)), Polynomial(Fp(7), (1, 1))
    ops = (lambda: f + g, lambda: f - g, lambda: f * g, lambda: divmod(f, g), lambda: Polynomial(Fp(5), [Fp(7)(6)]))
    for op in ops:
        with pytest.raises(BadInputError, match="mixed field contexts"):
            op()
    assert Polynomial(Fp(5), [Fp(5)(6), 7, 0]).coeffs == (1, 2)


# -- the packed kernels against schoolbook oracles ------------------------------------

#: p = 5, desk size, about 2^28 and the pinned 256-bit prime: at 2^28 a slot of
#: 2*28 + bits(terms) bits fits one 64-bit word up to 255 terms and takes two from 256 on
P_28 = 2**28 - 57
P_256 = 93651552868343116064426439039116612662436119053208978779440343948595872250883
PRIMES = (5, 1511, P_28, P_256)


def _trim(cs: list) -> tuple:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def school_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def school_divmod(a, b, p):
    rem, inv = list(a), pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return _trim(quo), _trim(rem[:len(b) - 1])


def school_pow_mod(a, n, m, p):
    out, base = school_divmod((1,), m, p)[1], school_divmod(a, m, p)[1]
    while n:
        if n & 1:
            out = school_divmod(school_mul(out, base, p), m, p)[1]
        base = school_divmod(school_mul(base, base, p), m, p)[1]
        n >>= 1
    return out


def school_gcd(a, b, p):
    while b:
        a, b = b, school_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


@st.composite
def coefficients(draw, p, max_degree):
    """A coefficient list of degree at most max_degree (-1 for zero): random, all p - 1
    (the largest slot sums) or sparse, with a nonzero lead."""
    degree = draw(st.one_of(st.integers(-1, 3), st.integers(-1, max_degree), st.just(max_degree)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fill = draw(st.sampled_from(("random", "top", "sparse")))
    cs = [p - 1 if fill == "top" else rng.randrange(p) if fill == "random" or rng.random() < 0.1 else 0
          for _ in range(degree + 1)]
    if cs:
        cs[-1] = cs[-1] or 1 + rng.randrange(p - 1)
    return cs


def _case(data, max_degree=64):
    p = data.draw(st.sampled_from(PRIMES))
    top = 256 if p == P_28 else max_degree
    return Fp(p), data.draw(coefficients(p, top)), data.draw(coefficients(p, top))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_packed_product_matches_schoolbook(data):
    f, a, b = _case(data)
    assert (Polynomial(f, a) * Polynomial(f, b)).coeffs == school_mul(a, b, f.p)


def test_packed_product_across_one_word_slots():
    # at p ~ 2^28 a slot of 255 terms (p - 1)^2 fits one word, and one of 256 takes two
    f = Fp(P_28)
    for n in (255, 256, 257):
        a = [P_28 - 1] * n
        assert (Polynomial(f, a) * Polynomial(f, a)).coeffs == school_mul(a, a, P_28)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_packed_divmod_matches_schoolbook(data):
    # zero, constant and non-monic divisors all come up
    f, a, b = _case(data)
    A, B = Polynomial(f, a), Polynomial(f, b)
    if not b:
        with pytest.raises(ZeroDivisionError):
            divmod(A, B)
        return
    q, r = divmod(A, B)
    assert (q.coeffs, r.coeffs) == school_divmod(a, b, f.p)
    assert (A % B, A // B) == (r, q)


def test_packed_divmod_and_gcd_across_one_word_slots():
    # quotient coefficients 1 under a divisor of all p - 1 add the largest product
    # to a slot at every row: at p ~ 2^28 one word holds a divisor of up to 254
    # terms, and at 300 a slot sized for fewer terms overflows; the gcd's first
    # step is the same division, exact when r = 0
    f, p = Fp(P_28), P_28
    rng = random.Random(12)
    for n in (254, 255, 300):
        b, q, r = [p - 1] * n, [1] * n, [rng.randrange(p) for _ in range(n - 1)]
        a = [(x + y) % p for x, y in zip(school_mul(b, q, p), r + [0] * n)]
        quo, rem = divmod(Polynomial(f, a), Polynomial(f, b))
        assert (quo.coeffs, rem.coeffs) == (tuple(q), _trim(r))
        B = Polynomial(f, b)
        assert Polynomial(f, school_mul(b, q, p)).gcd(B) == B.monic()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 2**12))
def test_packed_pow_mod_matches_schoolbook(data, n):
    p = data.draw(st.sampled_from(PRIMES))
    a = data.draw(coefficients(p, 40))
    m = data.draw(coefficients(p, 140 if p == P_28 else 24).filter(bool))
    f = Fp(p)
    assert Polynomial(f, a).pow_mod(n, Polynomial(f, m)).coeffs == school_pow_mod(a, n, m, p)


def test_packed_pow_mod_across_one_word_slots():
    # modulo a degree-m polynomial a square and its reduction sum up to 2m - 1 terms
    # in a slot: one word at p ~ 2^28 holds them up to m = 127, and at m = 250 a
    # slot sized for m terms overflows
    f = Fp(P_28)
    rng = random.Random(11)
    for m in (127, 128, 250):
        mod = [rng.randrange(P_28) for _ in range(m)] + [P_28 - 1]
        base = [P_28 - 1] * m
        assert Polynomial(f, base).pow_mod(3, Polynomial(f, mod)).coeffs == school_pow_mod(base, 3, mod, P_28)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_packed_gcd_matches_schoolbook(data):
    # a shared factor c makes the gcd nontrivial
    f, a, b = _case(data, 24)
    c = data.draw(coefficients(f.p, 6))
    a, b = school_mul(a, c, f.p), school_mul(b, c, f.p)
    assert Polynomial(f, a).gcd(Polynomial(f, b)).coeffs == school_gcd(a, b, f.p)


# gcd keeps each remainder packed, its slots brought into [0, 2p) by one Barrett
# step; at len(a) = 85 (degree 84) a slot is 2S - bits(p) + 1 bits with
# S = bits(2p + 86*2p^2): one 64-bit word at p = 56533, two at 56543 and 65521,
# and one again at 65537, where bits(p) grows by one
WORD_EDGE_PRIMES = (56533, 56543, 65521, 65537)


def test_packed_gcd_reads_a_top_slot_of_p_as_zero():
    # a remainder of each pair leaves the Barrett step with its top slot exactly
    # p (the first at p = 5, the third at p = 11): that slot is 0 mod p, and the
    # remainder's degree is read below it
    for p, a, b in ((5, [1, 1, 2], [3, 2, 0, 2, 3, 2]), (11, [9, 0, 7, 1], [2, 9, 3, 1, 4])):
        f = Fp(p)
        assert Polynomial(f, a).gcd(Polynomial(f, b)).coeffs == school_gcd(b, a, p)


def test_packed_gcd_across_its_word_sizes():
    rng = random.Random(29)
    for p in WORD_EDGE_PRIMES:
        f = Fp(p)
        c = [rng.randrange(p) for _ in range(10)] + [p - 1]
        for top in (False, True):  # random coefficients, or all p - 1
            a = [p - 1] * 75 if top else [rng.randrange(p) for _ in range(74)] + [p - 1]
            b = [p - 1] * 60 if top else [rng.randrange(p) for _ in range(59)] + [p - 1]
            a, b = school_mul(a, c, p), school_mul(b, c, p)  # degrees 84 and 69
            assert Polynomial(f, a).gcd(Polynomial(f, b)).coeffs == school_gcd(a, b, p)


def test_packed_gcd_worst_first_step():
    # every coefficient p - 1 and a large degree gap: the first division adds the
    # largest products to a slot at every row
    for p in (5, 1511, WORD_EDGE_PRIMES[1], P_28, 2**61 - 1, P_256):
        f = Fp(p)
        for gap in (42, 60, 83):
            a, b = [p - 1] * 85, [p - 1] * (85 - gap)
            assert Polynomial(f, a).gcd(Polynomial(f, b)).coeffs == school_gcd(a, b, p)
            b[0] = 1  # and a divisor off the all-(p - 1) family
            assert Polynomial(f, a).gcd(Polynomial(f, b)).coeffs == school_gcd(a, b, p)


def test_packed_gcd_every_degree_gap():
    # all p - 1, a of degree 9, 60 or 84 and b of every degree up to it: these are
    # -(x^n - 1)/(x - 1), and so is each remainder, with Euclid's degrees on (n, k),
    # so every quotient length comes up, in the first division and in later ones,
    # and with it each slot bound from min(m, len(quotient)) rows
    for p in (5, 1511, WORD_EDGE_PRIMES[1], P_28, 2**61 - 1, 2**127 - 1, P_256):
        f = Fp(p)
        for n in (10, 61, 85):
            a = [p - 1] * n
            for k in range(1, n + 1):
                b = [p - 1] * k
                assert Polynomial(f, a).gcd(Polynomial(f, b)).coeffs == school_gcd(a, b, p)


def test_split_by_values_groups_the_roots_by_value():
    # s = x^2 at p = 13 takes each nonzero square value at two roots +-r, and 0 at 0
    f = Fp(13)
    g = Polynomial.from_roots(f, range(13))
    pieces = _split_by_values(g, Polynomial(f, (0, 0, 1)))
    assert sorted(sorted(r.value for r in h.roots()) for h in pieces) == sorted(
        sorted({r, -r % 13}) for r in range(7))
    assert all(h.lead() == 1 for h in pieces)
    assert _split_by_values(Polynomial.constant(f, 5), Polynomial.x(f)) == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_inverse_mod_by_extended_euclid(data):
    f, a, m = _case(data, 24)
    if not m:
        return
    A, M = Polynomial(f, a), Polynomial(f, m)
    if school_gcd(a, m, f.p) == (1,) or len(m) == 1:
        u = A.inverse_mod(M)
        assert u.degree < M.degree
        assert (u * A) % M == Polynomial.constant(f, 1) % M
    else:
        with pytest.raises(DualPairError):
            A.inverse_mod(M)
