import random
from collections import Counter

import pytest

from dualpair import Curve, DualCurve, INFINITY, count_points, find_anomalous
from dualpair.errors import BadInputError, BadTorsionError, DegenerateEvaluationError
from dualpair.fields import Fp
from dualpair.miller import (
    ChainStep,
    binary_chain,
    chain_for,
    chain_trace,
    h_eval,
    incremental_chain,
    miller_eval,
    tail_chain,
    validate_chain,
    weil_pairing,
)

from conftest import (
    Chord,
    Vertical,
    double_and_add_chain,
    eval_line,
    line_through,
    order_by_steps,
    power_of_two_chain,
    step_multiplicities,
    trace_points,
    unrolled_step_count,
)


def test_chain_for_one_is_empty():
    assert binary_chain(1) == []
    assert incremental_chain(1) == []


def test_chain_for_11_matches_known_set():
    # double-and-add on 11 = 0b1011: double, double and add, double and add
    chain = binary_chain(11)
    members = {1} | {s.k for s in chain}
    assert members == {1, 2, 4, 5, 10, 11}
    assert chain == [(2, 1, 1), (4, 2, 2), (5, 4, 1), (10, 5, 5), (11, 10, 1)]
    validate_chain(11, chain)


@pytest.mark.parametrize("maker", [binary_chain, incremental_chain])
def test_unrolled_count_is_n_minus_1(maker):
    for n in list(range(1, 200)) + [501, 997, 1000]:
        chain = maker(n)
        validate_chain(n, chain)
        assert unrolled_step_count(n, chain) == n - 1


def test_chain_multiplicities_in_chain_order_and_kept_for_the_default_chain():
    # the oracle's multiplicities, in chain order, on the default chain's record and on a
    # caller's copy of it; the default chain's record is kept
    for n in (2, 11, 1361, 2**32 + 15):
        chain = binary_chain(n)
        mult = step_multiplicities(n, chain)
        assert list(step_multiplicities(n, chain_for(n, None).steps).values()) == [mult[s.k] for s in chain]
        assert chain_for(n, chain).steps is chain
        assert chain_for(n, None) is chain_for(n, None)
    assert step_multiplicities(11, binary_chain(11)) == {2: 4, 4: 2, 5: 2, 10: 1, 11: 1}
    plain = [tuple(s) for s in incremental_chain(7)]  # a caller's chain of plain (k, i, j) tuples
    assert list(step_multiplicities(7, chain_for(7, plain).steps).values()) == [1] * 6


def test_binary_chain_below_2_32_is_double_and_add():
    # with as many steps as the power-of-two chain: bitlen - 1 doublings and
    # popcount - 1 additions
    rng = random.Random(32)
    for n in list(range(1, 2048)) + [2**31, 2**32 - 1] + [rng.randrange(2048, 2**32) for _ in range(300)]:
        chain = binary_chain(n)
        assert chain == double_and_add_chain(n)
        assert len(chain) == len(power_of_two_chain(n)) == n.bit_length() + n.bit_count() - 2


def test_window_chain_from_2_32_on():
    # random n and the edges: the first windowed n, powers of two, all-ones n
    # (a 4-bit window at every 4 bits, the worst case) and a top window of 1
    # followed by zeros, whose first doubling is the table's 2 = 1 + 1
    rng = random.Random(256)
    randoms = [rng.randrange(2**32, 2**300) for _ in range(400)]
    edges = [2**32, 2**32 + 1, 2**32 + 15, 0b1000 << 60 | 0b1011]
    edges += [2**k for k in (33, 64, 255, 256, 299)] + [2**k - 1 for k in (33, 64, 255, 256, 300)]
    excess = []
    for n in randoms + edges:
        chain = binary_chain(n)
        validate_chain(n, chain)
        assert unrolled_step_count(n, chain) == n - 1
        bits = n.bit_length()
        # at most 8 table steps, one doubling per bit after the first, one addition per 4 bits
        assert len(chain) <= 8 + bits - 1 + bits // 4
        if n in randoms:
            excess.append(len(chain) - (bits * 6 // 5 + 9))
    # a window every 5 bits on average: about 1.2 steps per bit
    assert sum(excess) <= 0
    assert len(binary_chain(2**32 - 1)) == 62 and len(binary_chain(2**32)) == 32


def test_tail_chain_valid_and_counts():
    for n in (5, 7, 11, 97, 1009):
        for c in (2, 3, 5):
            if not 1 <= c < n:
                continue
            chain = tail_chain(n, c)
            validate_chain(n, chain)
            assert unrolled_step_count(n, chain) == n - 1


def test_chains_reject_lengths_outside_their_range():
    for build in (binary_chain, incremental_chain):
        for n in (0, -1):
            with pytest.raises(ValueError, match=r"chains exist for n >= 1"):
                build(n)
    for n, c in ((5, 0), (5, -1), (5, 5), (5, 6), (1, 1)):
        with pytest.raises(ValueError, match=r"need 1 <= c < n"):
            tail_chain(n, c)


def _divisor_oracle(curve, P, n, T, chain):
    """div(f_n) by pure bookkeeping: each step (k -> i, j) contributes
    (iP+T) + (jP+T) - (kP+T) - (T), weighted by its unrolled multiplicity.
    No field evaluation happens here."""
    mult = step_multiplicities(n, chain)
    pts = trace_points(chain_trace(curve, P, chain))
    div = Counter()
    for k, i, j in chain:
        m = mult[k]
        if m == 0 or pts[i].is_infinity or pts[j].is_infinity:
            continue
        div[curve.add(pts[i], T)] += m
        div[curve.add(pts[j], T)] += m
        div[curve.add(pts[k], T)] -= m
        div[T] -= m
    return +div


def test_divisor_of_f_n_matches_contract():
    # div(f_n) = n(P+T) - n(T) - (nP+T) + (T) for every chain shape
    rng = random.Random(31)
    for p in (11, 13):
        f = Fp(p)
        for _ in range(4):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = Curve(f, a, b)
            P, T = c.random_point(rng), c.random_point(rng)
            for n in (2, 3, 5, 8, 11):
                for chain in (binary_chain(n), incremental_chain(n)):
                    expect = Counter({c.add(P, T): n, T: -n})
                    nP_T = c.add(c.mul(n, P), T)
                    expect[nP_T] -= 1
                    expect[T] += 1
                    assert _divisor_oracle(c, P, n, T, chain) == +expect


def test_line_through_shapes():
    c = Curve(Fp(31), 1, 0)
    rng = random.Random(32)
    P = c.random_point(rng)
    T2 = c.two_torsion()[0]
    assert isinstance(line_through(c, P, P), (Chord, Vertical))
    assert isinstance(line_through(c, T2, T2), Vertical)  # tangent at 2-torsion
    assert isinstance(line_through(c, P, c.neg(P)), Vertical)
    # chord through P and Q vanishes on P, Q, -(P+Q)
    Q = c.random_point(rng)
    while Q.x == P.x:
        Q = c.random_point(rng)
    line = line_through(c, P, Q)
    for Z in (P, Q, c.neg(c.add(P, Q))):
        assert eval_line(line, Z.x, Z.y).is_zero()


def test_h_eval_degenerate_pole():
    c = find_anomalous(11, 60, 1, seed=33)[0]
    rng = random.Random(33)
    P = c.random_point(rng)
    # evaluating at a zero of the vertical through 2P (with T = infinity)
    bad = c.mul(2, P)
    with pytest.raises(DegenerateEvaluationError):
        h_eval(c, P, 1, 1, INFINITY, bad)


def test_h_eval_matches_direct_ratio():
    # independent path: evaluate l/v from raw line coefficients
    c = find_anomalous(40, 200, 1, seed=34)[0]
    rng = random.Random(34)
    P = c.random_point(rng)
    T = c.random_point(rng)
    pts = {i: c.mul(i, P) for i in (2, 3, 5)}
    for (i, j) in ((2, 3), (2, 2), (3, 5)):
        Pi, Pj = c.mul(i, P), c.mul(j, P)
        Pk = c.add(Pi, Pj)
        for _ in range(6):
            Q = c.random_point(rng)
            U = c.add(Q, c.neg(T))
            if U.is_infinity:
                continue
            ell = line_through(c, Pi, Pj)
            vv = Vertical(Pk.x)
            lv = eval_line(ell, U.x, U.y)
            vval = eval_line(vv, U.x, U.y)
            if lv.is_zero() or vval.is_zero():
                continue
            assert h_eval(c, P, i, j, T, Q) == lv / vval


def test_h_eval_at_translated_theta_changes_only_eps():
    # h(O_k + R) agrees with h(R) in the field part and differs by
    # -2*y(R)*h'(R)*k in the eps part
    c = find_anomalous(40, 200, 1, seed=35)[0]
    dc = DualCurve.canonical(c)
    rng = random.Random(35)
    P = c.random_point(rng)
    for _ in range(12):
        R = c.random_point(rng)
        k = c.field(rng.randrange(1, c.p))
        at = dc.translate(dc.embed(R), k)
        try:
            plain = h_eval(c, P, 2, 3, INFINITY, R)
            dual = h_eval(c, P, 2, 3, INFINITY, at)
        except DegenerateEvaluationError:
            continue
        assert dual.re == plain
        # derivative check: h' from the chain rule
        Pi, Pj = c.mul(2, P), c.mul(3, P)
        Pk = c.add(Pi, Pj)
        ell = line_through(c, Pi, Pj)
        assert isinstance(ell, Chord)
        lv = eval_line(ell, R.x, R.y)
        vv = eval_line(Vertical(Pk.x), R.x, R.y)
        y_slope = (3 * R.x**2 + c.A) / (2 * R.y)
        h_prime = (lv / vv) * ((y_slope - ell.m) / lv - vv.inverse())
        assert dual.eps == -2 * R.y * h_prime * k


def test_miller_eval_f1_is_constant_one():
    c = find_anomalous(11, 60, 1, seed=36)[0]
    rng = random.Random(36)
    P, T, Q = (c.random_point(rng) for _ in range(3))
    assert miller_eval(c, P, 1, T, Q) == 1


def test_miller_ratios_chain_independent():
    rng = random.Random(37)
    c = Curve(Fp(211), 3, 7)
    n = count_points(c)
    checked = 0
    for sub_n in (5, 9, 16, 25, 50):
        # different chains rescale f_n by a constant, so the ratio
        # f_n(Q1)/f_n(Q2) at shared evaluation points must coincide
        P = c.random_point(rng)
        T = c.random_point(rng)
        Q1, Q2 = c.random_point(rng), c.random_point(rng)
        vals = set()
        for chain in (binary_chain(sub_n), incremental_chain(sub_n), tail_chain(sub_n, 3)):
            # the walk's end point is the scalar multiple, whatever the chain
            assert trace_points(chain_trace(c, P, chain))[sub_n] == c.mul(sub_n, P)
            try:
                v1 = miller_eval(c, P, sub_n, T, Q1, chain)
                v2 = miller_eval(c, P, sub_n, T, Q2, chain)
                if not v2.is_zero():
                    vals.add((v1 / v2).value)
            except DegenerateEvaluationError:
                pass
        assert len(vals) <= 1
        checked += len(vals)
    assert checked >= 3  # most draws must actually evaluate


def _full_torsion_curve(n, p_limit=300):
    """Oracle search: smallest curve with all n^2 points of E[n] rational
    and enough extra points for disjoint pairing divisors."""
    from dualpair.numbertheory import is_prime

    p = 4
    while p < p_limit:
        p += 1
        if not is_prime(p) or p <= 3 or (p - 1) % n:
            continue
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                c = Curve(f, a, b)
                total = count_points(c)
                if total % n or total < n * n + 5:
                    continue
                tor = [P for P in c.points() if c.mul(n, P).is_infinity]
                if len(tor) == n * n:
                    return c, tor
    raise RuntimeError(f"no full {n}-torsion curve below {p_limit}")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_weil_pairing_properties(n):
    c, tor = _full_torsion_curve(n)
    rng = random.Random(38 + n)
    P = next(T for T in tor if not T.is_infinity and order_by_steps(c, T) == n)
    span = {c.mul(i, P) for i in range(n)}
    Q = next(T for T in tor if T not in span and order_by_steps(c, T) == n)
    e = weil_pairing(c, n, P, Q, rng)
    assert e**n == 1
    assert e != 1  # primitive for prime n on a basis
    assert weil_pairing(c, n, P, P, rng) == 1
    assert weil_pairing(c, n, Q, Q, rng) == 1
    assert e * weil_pairing(c, n, Q, P, rng) == 1  # antisymmetry
    # bilinearity on the left
    for a in range(n):
        Pa = c.mul(a, P)
        assert weil_pairing(c, n, Pa, Q, rng) == e**a
    # identity slot
    assert weil_pairing(c, n, INFINITY, Q, rng) == 1


def test_weil_pairing_bad_torsion():
    c = Curve(Fp(13), 1, 4)
    rng = random.Random(39)
    P = c.random_point(rng)
    if c.mul(5, P).is_infinity:
        P = c.random_point(rng)
    with pytest.raises(BadTorsionError):
        weil_pairing(c, 5, P, P, rng)
    with pytest.raises(BadTorsionError):
        weil_pairing(c, 13, P, P, rng)  # n = p excluded


def test_weil_pairing_translation_invariance():
    n = 3
    c, tor = _full_torsion_curve(n)
    P = next(T for T in tor if not T.is_infinity and order_by_steps(c, T) == n)
    Q = next(T for T in tor if T not in {c.mul(i, P) for i in range(n)})
    vals = {weil_pairing(c, n, P, Q, random.Random(seed)).value for seed in range(6)}
    assert len(vals) == 1


def test_malformed_caller_chain_is_bad_input():
    # validated at entry, as the pairing routes do; a bare KeyError before
    c = Curve(Fp(1361), 686, 969)
    rng = random.Random(3)
    P, T, R = (c.random_point(rng) for _ in range(3))
    for chain in ([ChainStep(3, 1, 1)], binary_chain(5)):
        with pytest.raises(BadInputError, match="bad chain"):
            miller_eval(c, P, 7, T, R, chain)
    with pytest.raises(BadInputError, match="bad chain"):
        weil_pairing(c, 7, P, P, chain=[ChainStep(3, 1, 1)])


def test_default_chain_is_built_once_per_n(monkeypatch):
    # chain_for validates a caller's chain and keeps the default one per n,
    # built through the module's binary_chain on a miss only
    from dualpair import DualCurve, miller, pairing_direct, pairing_rueck

    built = []
    monkeypatch.setattr(miller, "binary_chain", lambda n: built.append(n) or binary_chain(n))
    miller._default_chain.cache_clear()
    try:
        assert miller.chain_for(1361, None).steps == tuple(binary_chain(1361))
        assert miller.chain_for(1361, None) is miller.chain_for(1361, None)
        own = incremental_chain(7)
        assert miller.chain_for(7, own).steps is own
        with pytest.raises(BadInputError, match="bad chain"):
            miller.chain_for(7, [ChainStep(3, 1, 1)])
        c = Curve(Fp(1361), 686, 969)
        dc = DualCurve.canonical(c)
        P = c.random_point(random.Random(4))
        for _ in range(3):
            pairing_rueck(dc, P, 2)
            pairing_direct(dc, P, 2)
            miller_eval(c, P, 1361, INFINITY, c.mul(3, P))  # 3P is on no line of the chain
        assert built == [1361]
    finally:
        miller._default_chain.cache_clear()


def test_weil_pairing_gives_up_after_32_degenerate_draws(monkeypatch):
    # every evaluation degenerates, so each of the 32 draws of (T1, T2) fails, on the
    # supports' overlap or in the forced evaluation, and the last draw's reason is reported
    from dualpair import miller

    n = 3
    c, tor = _full_torsion_curve(n)
    P = next(T for T in tor if not T.is_infinity and order_by_steps(c, T) == n)
    Q = next(T for T in tor if T not in {c.mul(i, P) for i in range(n)})
    draws, evaluated = [], []

    def degenerate(*args):
        evaluated.append(len(draws))
        raise DegenerateEvaluationError(f"forced at draw {len(draws) // 2}")

    random_point = Curve.random_point
    monkeypatch.setattr(Curve, "random_point", lambda self, rng: draws.append(1) or random_point(self, rng))
    monkeypatch.setattr(miller, "trace_value", degenerate)
    with pytest.raises(DegenerateEvaluationError, match="^no good auxiliary points found: ") as exc:
        weil_pairing(c, n, P, Q, random.Random(40))
    assert len(draws) == 64 and evaluated
    last = "forced at draw 32" if evaluated[-1] == 64 else "divisor supports are not disjoint"
    assert str(exc.value) == f"no good auxiliary points found: {last}"


def test_weil_pairing_refuses_a_ratio_that_is_no_nth_root(monkeypatch):
    # the four evaluations give a ratio g with g^n != 1, which only overlapping supports
    # could cause, so each draw that reaches them is refused on that guard
    from dualpair import miller

    n = 3
    c, tor = _full_torsion_curve(n)
    P = next(T for T in tor if not T.is_infinity and order_by_steps(c, T) == n)
    Q = next(T for T in tor if T not in {c.mul(i, P) for i in range(n)})
    g = next(v for v in range(2, c.p) if pow(v, n, c.p) != 1)
    calls = []

    def skewed(curve, trace, n, T, at):
        calls.append(at)
        return curve.field(g if len(calls) % 4 == 1 else 1)  # f_p_top, the numerator of the first factor

    monkeypatch.setattr(miller, "trace_value", skewed)
    with pytest.raises(DegenerateEvaluationError) as exc:
        weil_pairing(c, n, P, Q, random.Random(2))  # a seed whose last draw has disjoint supports
    assert calls and len(calls) % 4 == 0
    assert str(exc.value) == "no good auxiliary points found: support overlap corrupted the ratio"
