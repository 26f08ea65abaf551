import random

import pytest

from dualpair import (
    Curve,
    DualCurve,
    DualPoint,
    INFINITY,
    Point,
    find_anomalous,
    lifted_pairing,
    miller_eval,
    pairing_direct,
    pairing_rueck,
    pairing_semaev,
    rueck_slope_sum,
    semaev_coefficient,
    semaev_log_derivative,
    theta_pairing,
)
from dualpair.errors import (
    BadInputError,
    BadTorsionError,
    DegenerateEvaluationError,
    NotCanonicalError,
    NotPTorsionError,
)
from dualpair.fields import Fp
from dualpair.miller import ChainStep, binary_chain, incremental_chain, tail_chain
from dualpair.pairing import PairingValue


def _affine(curve):
    return [P for P in curve.points() if not P.is_infinity]


def test_pairing_value_group():
    f = Fp(13)
    a, b = PairingValue(f(5)), PairingValue(f(11))
    assert a * b == PairingValue(f(16))
    assert a.inverse() * a == PairingValue(f(0))
    assert (a**13).is_one()  # every value has order dividing p
    assert f.dual(1, a.a) * f.dual(1, b.a) == f.dual(1, (a * b).a)  # 1 + a*eps in F_p[eps]
    assert PairingValue.from_json(f, a.to_json()) == a
    assert a / b == PairingValue(f(5 - 11))
    assert hash(a) == hash(PairingValue(f(5))) and repr(a) == "1 + 5e"


def test_identity_cases(tiny_anomalous, rng):
    dc = DualCurve.canonical(tiny_anomalous)
    P = _affine(tiny_anomalous)[0]
    for method in ("direct", "semaev", "rueck"):
        assert theta_pairing(dc, INFINITY, 3, method, rng).is_one()
        assert theta_pairing(dc, P, 0, method, rng).is_one()


def test_three_way_agreement_small(small_pool, rng):
    for c in small_pool[:6]:
        dc = DualCurve.canonical(c)
        for _ in range(8):
            P = c.random_point(rng)
            k = rng.randrange(1, c.p)
            d = pairing_direct(dc, P, k, rng=rng)
            s = pairing_semaev(dc, P, k)
            r = pairing_rueck(dc, P, k)
            assert d == s == r


def test_three_way_agreement_tiny_exhaustive(tiny_anomalous_all, rng):
    # the smallest primes are where line degeneracies are thickest
    for c in tiny_anomalous_all:
        dc = DualCurve.canonical(c)
        for P in _affine(c):
            for k in range(1, c.p):
                d = pairing_direct(dc, P, k, rng=rng)
                s = pairing_semaev(dc, P, k)
                r = pairing_rueck(dc, P, k)
                assert d == s == r


def test_nondegenerate_on_smallest_curve(tiny_anomalous, rng):
    dc = DualCurve.canonical(tiny_anomalous)
    for P in _affine(tiny_anomalous):
        assert not pairing_direct(dc, P, 1, rng=rng).is_one()


def test_log_derivative_properties(small_pool, rng):
    c = small_pool[0]
    pts = None
    while pts is None or pts[0] == pts[1]:
        pts = (c.random_point(rng), c.random_point(rng))
    P1, P2 = pts
    # lam(infinity) = 0 and lam(P) != 0
    R = c.random_point(rng)
    assert semaev_log_derivative(c, INFINITY, R).is_zero()
    got = 0
    for _ in range(30):
        R = c.random_point(rng)
        try:
            l1 = semaev_log_derivative(c, P1, R)
            l2 = semaev_log_derivative(c, P2, R)
            l12 = semaev_log_derivative(c, c.add(P1, P2), R)
        except Exception:
            continue
        assert not l1.is_zero()
        assert l12 == l1 + l2  # additive in P at fixed R
        got += 1
    assert got >= 5


def test_semaev_coefficient_r_independent(small_pool, rng):
    # y(R)*lam_R(P) must not depend on R
    c = small_pool[1]
    P = c.random_point(rng)
    vals = set()
    tried = 0
    while len(vals) < 4 and tried < 40:
        tried += 1
        R = c.random_point(rng)
        try:
            vals.add((R.y * semaev_log_derivative(c, P, R)).value)
        except Exception:
            continue
    assert len(vals) == 1 or (len(vals) > 1 and pytest.fail(f"R-dependence: {vals}"))


def test_pairing_independent_of_R_and_T_and_chain(small_pool, rng):
    c = small_pool[2]
    dc = DualCurve.canonical(c)
    P = c.random_point(rng)
    k = rng.randrange(1, c.p)
    reference = pairing_rueck(dc, P, k)
    gathered = 0
    for _ in range(40):
        R = c.random_point(rng)
        T = c.random_point(rng)
        for chain in (binary_chain(c.p), tail_chain(c.p, 3)):
            try:
                v = pairing_direct(dc, P, k, R=R, T=T, chain=chain)
            except Exception:
                continue
            assert v == reference
            gathered += 1
    assert gathered >= 10


def test_divisor_variants_agree(small_pool, rng):
    # T at infinity realizes the divisor (P) - (inf); affine T realizes
    # (P+T) - (T); the value must not move
    c = small_pool[3]
    dc = DualCurve.canonical(c)
    for _ in range(10):
        P = c.random_point(rng)
        k = rng.randrange(1, c.p)
        base = pairing_direct(dc, P, k, rng=rng)  # T = infinity policy
        got = None
        while got is None:
            T = c.random_point(rng)
            R = c.random_point(rng)
            try:
                got = pairing_direct(dc, P, k, R=R, T=T)
            except Exception:
                continue
        assert got == base


def test_rueck_sum_properties(small_pool, rng):
    c = small_pool[4]
    assert rueck_slope_sum(c, INFINITY).is_zero()
    for _ in range(20):
        P, Q = c.random_point(rng), c.random_point(rng)
        s = rueck_slope_sum(c, P)
        assert rueck_slope_sum(c, c.add(P, Q)) == s + rueck_slope_sum(c, Q)
        assert not s.is_zero()


def test_rueck_chain_independent():
    # binary vs naive vs tails, exact equality, p <= 101
    for c in find_anomalous(5, 101, count=3, seed=91):
        rng = random.Random(c.p)
        P = c.random_point(rng)
        chains = [binary_chain(c.p), incremental_chain(c.p), tail_chain(c.p, 3)]
        vals = {rueck_slope_sum(c, P, chain).value for chain in chains}
        assert len(vals) == 1


def test_rueck_bilinear_in_k(tiny_anomalous):
    dc = DualCurve.canonical(tiny_anomalous)
    P = _affine(tiny_anomalous)[0]
    p = tiny_anomalous.p
    for k in range(p):
        for j in range(p):
            assert pairing_rueck(dc, P, k + j) == pairing_rueck(dc, P, k) * pairing_rueck(dc, P, j)


def test_bilinearity_in_P(small_pool, rng):
    c = small_pool[5]
    dc = DualCurve.canonical(c)
    for _ in range(25):
        P, Q = c.random_point(rng), c.random_point(rng)
        k = rng.randrange(1, c.p)
        lhs = pairing_rueck(dc, c.add(P, Q), k)
        assert lhs == pairing_rueck(dc, P, k) * pairing_rueck(dc, Q, k)


def test_values_land_in_mu_p(tiny_anomalous, rng):
    dc = DualCurve.canonical(tiny_anomalous)
    for P in _affine(tiny_anomalous):
        v = pairing_direct(dc, P, 1, rng=rng)
        assert (v ** tiny_anomalous.p).is_one()
        assert dc.field.dual(1, v.a) ** tiny_anomalous.p == dc.field.dual(1)


def test_bad_inputs(tiny_anomalous, rng):
    c = tiny_anomalous
    dc = DualCurve.canonical(c)
    P = _affine(c)[0]
    for route in (pairing_direct, pairing_semaev, pairing_rueck):
        with pytest.raises(NotCanonicalError, match="^the pairing is defined on the canonical lift$"):
            route(DualCurve(c, 1, 0), P, 1)
    # R must be affine (and, on general curves, p-torsion outside E[2])
    with pytest.raises(BadInputError):
        semaev_log_derivative(c, P, INFINITY)
    with pytest.raises(BadInputError):
        pairing_direct(dc, P, 1, R=INFINITY)
    # non-anomalous curve: neither P nor R can be p-torsion
    c2 = Curve(Fp(31), 1, 0)
    T2 = c2.two_torsion()[0]
    P31 = c2.random_point(random.Random(1))
    assert not c2.mul(c2.p, P31).is_infinity
    dc2 = DualCurve.canonical(c2)
    chain = binary_chain(c2.p)
    # the walk's end point rejects P before any R is looked at (R = P31 is
    # itself a bad evaluation point), and also when k = 0 needs no walk value
    for kwargs in ({}, {"chain": chain}, {"R": P31}, {"R": P31, "chain": chain}):
        for k in (0, 1):
            with pytest.raises(BadTorsionError):
                pairing_direct(dc2, P31, k, **kwargs)
            with pytest.raises(BadTorsionError):
                pairing_semaev(dc2, P31, k, **kwargs)
        with pytest.raises(BadTorsionError):
            semaev_coefficient(c2, P31, **kwargs)
        if "R" not in kwargs:
            with pytest.raises(BadTorsionError):
                pairing_rueck(dc2, P31, 1, **kwargs)
    # P = O is p-torsion on every curve, so the R guard itself rejects R = P31
    for route in (lambda: pairing_direct(dc2, INFINITY, 1, R=P31), lambda: semaev_coefficient(c2, INFINITY, R=P31)):
        with pytest.raises(BadInputError, match="^evaluation point must be p-torsion$"):
            route()
    with pytest.raises(BadTorsionError):
        semaev_log_derivative(c2, T2, P31)  # 2-torsion P rejected first
    with pytest.raises(BadInputError):
        # p-torsion P missing entirely, but the R guard fires on E[2] too
        semaev_log_derivative(c2, INFINITY, T2)



def test_malformed_caller_chain_is_bad_input():
    c = Curve(Fp(1361), 686, 969)
    dc = DualCurve.canonical(c)
    P = c.random_point(random.Random(3))
    routes = [
        lambda chain: pairing_rueck(dc, P, 2, chain=chain),
        lambda chain: pairing_direct(dc, P, 2, chain=chain),
        lambda chain: pairing_semaev(dc, P, 2, chain=chain),
        lambda chain: semaev_coefficient(c, P, chain=chain),
        lambda chain: rueck_slope_sum(c, INFINITY, chain),
    ]
    for chain in ([ChainStep(2, 1, 1)], binary_chain(c.p + 2), [ChainStep(3, 1, 1)], [5]):
        for route in routes:
            with pytest.raises(BadInputError, match="bad chain"):
                route(chain)
    # a valid chain that walks past p is accepted and changes nothing
    longer = binary_chain(c.p) + [ChainStep(2 * c.p, c.p, c.p)]
    assert pairing_rueck(dc, P, 2, chain=longer) == pairing_direct(dc, P, 2, chain=longer) == pairing_rueck(dc, P, 2)


def test_off_curve_translation_point_is_bad_input():
    # T = (1, 2) is not on this curve; evaluated anyway, the direct and semaev
    # routes return values that disagree with rueck's
    c = Curve(Fp(1361), 686, 969)
    dc = DualCurve.canonical(c)
    P, R = (c.random_point(random.Random(seed)) for seed in (3, 4))
    T = Point(c.field(1), c.field(2))
    assert not c.contains(T)
    routes = [
        lambda: pairing_direct(dc, P, 1, T=T),
        lambda: pairing_direct(dc, P, 1, R=R, T=T),
        lambda: pairing_semaev(dc, P, 1, T=T),
        lambda: semaev_coefficient(c, P, T=T),
        lambda: semaev_log_derivative(c, P, R, T=T),
        lambda: miller_eval(c, P, c.p, T, R),
    ]
    for route in routes:
        with pytest.raises(BadInputError, match="translation point T"):
            route()


def test_unknown_pairing_method_is_reported_first():
    # P is not p-torsion, so a walk would raise; the method is checked before any
    c = Curve(Fp(31), 1, 0)
    dc = DualCurve.canonical(c)
    P = c.random_point(random.Random(2))
    f = dc.field
    calls = [
        lambda: lifted_pairing(dc, DualPoint.infinity(f(1)), DualPoint.infinity(f(2)), method="bogus"),
        lambda: lifted_pairing(dc, dc.embed(P), DualPoint.infinity(f(1)), method="bogus"),
        lambda: lifted_pairing(DualCurve(c, 1, 0), dc.embed(P), dc.embed(P), method="bogus"),
        lambda: theta_pairing(dc, P, 1, method="bogus"),
    ]
    for call in calls:
        with pytest.raises(BadInputError, match="unknown pairing method"):
            call()


# -- full pairing on the lifted torsion ------------------------------------


def test_lifted_pairing_defining_properties_exhaustive(tiny_anomalous, rng):
    c = tiny_anomalous
    p = c.p
    dc = DualCurve.canonical(c)
    pts = list(dc.points())

    # trivial on E[p] x E[p] and on pairs at infinity; restriction matches e
    for P in c.points():
        for Q in c.points():
            assert lifted_pairing(dc, dc.embed(P), dc.embed(Q)).is_one()
    f = dc.field
    for k in range(p):
        for j in range(p):
            assert lifted_pairing(dc, DualPoint.infinity(f(k)), DualPoint.infinity(f(j))).is_one()
    for P in _affine(c):
        for k in range(p):
            assert lifted_pairing(dc, dc.embed(P), DualPoint.infinity(f(k))) == pairing_rueck(dc, P, k)

    # self-pairing trivial and antisymmetry, over all pairs
    for Pt in pts:
        assert lifted_pairing(dc, Pt, Pt).is_one()
    for Pt in pts:
        for Qt in pts:
            assert (lifted_pairing(dc, Pt, Qt) * lifted_pairing(dc, Qt, Pt)).is_one()


def test_lifted_pairing_bilinear_and_nondegenerate_exhaustive(tiny_anomalous):
    c = tiny_anomalous
    dc = DualCurve.canonical(c)
    pts = list(dc.points())
    witnesses = pts[1], pts[c.p], pts[-1]
    for Pt in pts:
        for Qt in pts:
            s = dc.add(Pt, Qt)
            for W in witnesses:
                assert lifted_pairing(dc, s, W) == lifted_pairing(dc, Pt, W) * lifted_pairing(dc, Qt, W)
    zero = DualPoint.infinity(dc.field.zero())
    for Pt in pts:
        if Pt == zero:
            continue
        assert any(not lifted_pairing(dc, Pt, Qt).is_one() for Qt in pts)


@pytest.mark.parametrize("method", ["direct", "semaev", "rueck"])
def test_lifted_pairing_rejects_non_torsion(method):
    c = Curve(Fp(31), 1, 0)  # not anomalous
    dc = DualCurve.canonical(c)
    P = c.random_point(random.Random(2))
    theta = DualPoint.infinity(dc.field(1))
    with pytest.raises(NotPTorsionError):
        lifted_pairing(dc, dc.embed(P), theta, method=method)
    with pytest.raises(NotPTorsionError):
        lifted_pairing(dc, theta, dc.embed(P), method=method)
    with pytest.raises(NotCanonicalError):
        lifted_pairing(DualCurve(c, 1, 0), dc.embed(P), dc.embed(P))


def test_lifted_pairing_methods_agree(tiny_anomalous, rng):
    dc = DualCurve.canonical(tiny_anomalous)
    pts = list(dc.points())
    for _ in range(15):
        Pt, Qt = rng.choice(pts), rng.choice(pts)
        vals = {lifted_pairing(dc, Pt, Qt, method=m).a.value for m in ("direct", "semaev", "rueck")}
        assert len(vals) == 1


def test_routes_without_an_rng_refuse_one(tiny_anomalous):
    # semaev_coefficient, pairing_semaev and lifted_pairing draw nothing and
    # take no rng; semaev_coefficient's R, T and chain are keyword-only
    c = tiny_anomalous
    dc = DualCurve.canonical(c)
    P = _affine(c)[0]
    rng = random.Random(1)
    with pytest.raises(TypeError):
        semaev_coefficient(c, P, P)
    with pytest.raises(TypeError):
        pairing_semaev(dc, P, 1, rng=rng)
    with pytest.raises(TypeError):
        lifted_pairing(dc, dc.embed(P), dc.embed(P), "rueck", rng)
    with pytest.raises(TypeError):
        lifted_pairing(dc, dc.embed(P), dc.embed(P), rng=rng)


def test_evaluated_routes_take_r_t_and_chain_by_keyword():
    # chain comes before T in pairing_direct and after it in pairing_semaev, so
    # a positional T would land in pairing_direct's chain; all three are keyword-only
    c = Curve(Fp(1511), 1301, 497)
    dc = DualCurve.canonical(c)
    G = Point(c.field(129), c.field(526))
    R, T = c.mul(100, G), c.mul(37, G)
    expected = pairing_rueck(dc, G, 3)
    assert expected.a.value == 1340
    for route in (pairing_direct, pairing_semaev):
        assert route(dc, G, 3, R=R, T=T) == expected
        with pytest.raises(TypeError):
            route(dc, G, 3, R, T)
        with pytest.raises(TypeError):
            route(dc, G, 3, R)


def test_default_evaluation_point_draws_and_lists_no_point(monkeypatch):
    # without a caller's R the evaluation point is a multiple of P named by
    # the chain: no random point, no listing of E(F_p), no square root
    from dualpair.dlp import DlpInstance, solve
    from test_crypto256 import A as A256, A_G as A_G256, B as B256, G as G256, P as P256

    desk = find_anomalous(1000, 1500, count=1, seed=0)[0]
    G_desk = desk.random_point(random.Random(1))
    big = Curve(Fp(P256), A256, B256)
    cases = [  # (curve, G, a with e(G, O_1) = 1 + a*eps)
        (desk, G_desk, pairing_rueck(DualCurve.canonical(desk), G_desk, 1).a.value),
        (big, big.point(*G256), A_G256),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a pairing route drew, listed or took a square root")

    monkeypatch.setattr(Curve, "random_point", refuse)
    monkeypatch.setattr(Curve, "points", refuse)
    monkeypatch.setattr(Fp, "sqrt", refuse)
    for c, G, a_g in cases:
        p = c.p
        dc = DualCurve.canonical(c)
        m, k = 1 + 7919 % (p - 1), 1 + 104729 % (p - 1)
        P = c.mul(m, G)
        want = a_g * m * k % p
        assert pairing_direct(dc, P, k).a.value == want
        assert pairing_semaev(dc, P, k).a.value == want
        assert (-2 * semaev_coefficient(c, P)).value == a_g * m % p
        Ok = DualPoint.infinity(dc.field(k))
        for method in ("direct", "semaev"):
            assert lifted_pairing(dc, dc.embed(P), Ok, method=method).a.value == want
        assert solve(DlpInstance(c, G, P), "semaev").n == m


def test_degenerate_ladder_is_linear_in_p(monkeypatch):
    # every line of incremental_chain(p) meets E, and together they meet
    # every multiple of P: the chain's integers say so, and without a
    # caller's R no step value, exact or scaled, is ever computed on such a
    # chain; with a caller's R each route reads the scaled values once
    from dualpair import miller, pairing

    c = Curve(Fp(1361), 686, 969)
    dc = DualCurve.canonical(c)
    P = c.random_point(random.Random(1))
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("step_values", "scaled_step_values"):
        wrapped = counting(name, getattr(miller, name))
        monkeypatch.setattr(miller, name, wrapped)
        if hasattr(pairing, name):
            monkeypatch.setattr(pairing, name, wrapped)
    chain = incremental_chain(c.p)
    for route in (pairing_direct, pairing_semaev):
        calls.clear()
        with pytest.raises(DegenerateEvaluationError, match="all evaluation configurations degenerate: line"):
            route(dc, P, 1, chain=chain)
        assert calls == []
        with pytest.raises(DegenerateEvaluationError, match="line of step"):
            route(dc, P, 1, R=P, chain=chain)
        assert calls == ["scaled_step_values"]


def test_k_zero_evaluates_nothing_but_still_checks_r_before_t():
    # incremental_chain(p) leaves no evaluation multiple, so at k != 0 the
    # direct and semaev routes find no point; at k = 0 they evaluate nothing
    # and return 1, yet check a caller's R, then T, as at any k
    from dualpair.miller import chain_for

    c = Curve(Fp(1361), 686, 969)
    dc = DualCurve.canonical(c)
    P = c.random_point(random.Random(1))
    chain = incremental_chain(c.p)
    assert chain_for(c.p, chain).s is None
    off = Point(c.field(1), c.field(2))
    assert not c.contains(off)
    for route in (pairing_direct, pairing_semaev):
        assert route(dc, P, 0, chain=chain).a.value == 0
        with pytest.raises(DegenerateEvaluationError, match="all evaluation configurations degenerate"):
            route(dc, P, 1, chain=chain)
        with pytest.raises(BadInputError, match="^evaluation point must be affine and outside the 2-torsion$"):
            route(dc, P, 0, R=INFINITY, T=off, chain=chain)
        with pytest.raises(BadInputError, match="translation point T"):
            route(dc, P, 0, T=off, chain=chain)


def _anomalous_curves(primes):
    for p in primes:
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                c = Curve(Fp(p), a, b)
                points = list(c.points())
                if len(points) == p:
                    yield c, points


def test_scaled_routes_match_the_exact_oracle(monkeypatch):
    # direct and semaev fold each step value up to a scalar factor; the oracle
    # (conftest) folds the exact step values as numerator and denominator, or
    # batch-inverts them ratio by ratio.  Over a sample of every anomalous curve
    # with p <= 13, every P, every T at p <= 7 (T = O above), no R and every
    # caller R, on the default, tail and incremental chains, both give the
    # same value or the same DegenerateEvaluationError
    from conftest import direct_value_oracle, log_derivative_oracle
    from dualpair import pairing

    cases = []
    for c, points in _anomalous_curves((5, 7, 11, 13)):
        p = c.p
        dc = DualCurve.canonical(c)
        for chain in (None, tail_chain(p, 3), incremental_chain(p)):
            for P in _affine(c):
                for T in points if p <= 7 else [INFINITY]:
                    for R in [None] + _affine(c):
                        for route in (pairing_direct, pairing_semaev):
                            cases.append((route, dc, P, 1 + len(cases) % (p - 1), R, T, chain))
    sample = random.Random(16).sample(cases, 2500)

    def outcomes():
        out = []
        for route, dc, P, k, R, T, chain in sample:
            try:
                out.append(route(dc, P, k, R=R, T=T, chain=chain))
            except DegenerateEvaluationError as exc:
                out.append(str(exc))
        return out

    scaled = outcomes()
    monkeypatch.setattr(pairing, "_direct_value", direct_value_oracle)
    monkeypatch.setattr(pairing, "_log_derivative_value", log_derivative_oracle)
    assert scaled == outcomes()
    kinds = {(case[4] is None, type(out).__name__) for case, out in zip(sample, scaled)}
    assert kinds == {(True, "PairingValue"), (True, "str"), (False, "PairingValue"), (False, "str")}


def test_default_chain_outcomes_on_tiny_anomalous_curves(monkeypatch):
    # The default chain for p is tail_chain(p, 3) at p = 5 and 7, where
    # double-and-add leaves no evaluation multiple, and binary_chain(p) from 11
    # on; its record is built once per p.  Over every anomalous curve with p in
    # {5, 7} (every P != O, every T) and p in {11, 13} (T = O), direct and
    # semaev evaluate on it, build no chain per call, and give rueck's value.
    from dualpair import miller

    expect = {p: tuple(tail_chain(p, 3) if p <= 7 else binary_chain(p)) for p in (5, 7, 11, 13)}
    built = []
    monkeypatch.setattr(miller, "binary_chain", lambda n: built.append(n) or binary_chain(n))
    monkeypatch.setattr(miller, "tail_chain", lambda n, c: built.append((n, c)) or tail_chain(n, c))
    miller._default_chain.cache_clear()
    try:
        outcomes = {}
        for c, points in _anomalous_curves((5, 7, 11, 13)):
            p = c.p
            dc = DualCurve.canonical(c)
            for P in _affine(c):
                want = pairing_rueck(dc, P, 1)
                for T in points if p <= 7 else [INFINITY]:
                    for route in (pairing_direct, pairing_semaev):
                        try:
                            assert route(dc, P, 1, T=T) == want
                            outcome = "tail" if p <= 7 else "binary"
                        except DegenerateEvaluationError:
                            outcome = "failed"
                        key = (p <= 7, outcome)
                        outcomes[key] = outcomes.get(key, 0) + 1
            assert miller.chain_for(p, None).steps == expect[p]  # the chain those calls walked
        assert outcomes == {(True, "tail"): 416, (False, "binary"): 388}
        # the four records, built on the first call at each p; tail_chain(7, 3) builds binary_chain(4)
        assert built == [5, (5, 3), 7, (7, 3), 4, 11, 13]
    finally:
        miller._default_chain.cache_clear()


def test_evaluation_multiple_is_the_first_nondegenerate_multiple():
    # oracle: evaluate every step value at every sP; the chain record's s is
    # the first that raises nowhere, and None exactly when every s raises
    from dualpair.miller import chain_for, chain_trace, eval_point, step_values

    seen = set()
    for c, _ in _anomalous_curves((5, 7, 11, 13)):
        p, a = c.p, c.A.value
        dc = DualCurve.canonical(c)
        chains = {
            "binary": binary_chain(p),
            "tail": tail_chain(p, 3),
            "incremental": incremental_chain(p),
            "overshoot": binary_chain(p) + [ChainStep(2 * p, p, p)],
        }
        for P in _affine(c):
            want = pairing_rueck(dc, P, 1)
            for name, chain in chains.items():
                trace = chain_trace(c, P, chain)
                good = []
                for s in range(1, p):
                    S = c.mul(s, P)
                    try:
                        step_values(trace, eval_point(p, a, (S.x.value, S.y.value), 1))
                        good.append(s)
                    except DegenerateEvaluationError:
                        pass
                s = chain_for(p, chain).s
                assert s == (good[0] if good else None)
                seen.add((name, s is None))
                if s is None:
                    for route in (pairing_direct, pairing_semaev):
                        with pytest.raises(DegenerateEvaluationError, match="all evaluation configurations degenerate: line"):
                            route(dc, P, 1, chain=chain)
                    continue
                R = c.mul(s, P)
                for route in (pairing_direct, pairing_semaev):
                    assert route(dc, P, 1, chain=chain) == route(dc, P, 1, R=R, chain=chain) == want
    assert {("binary", True), ("binary", False), ("tail", False), ("incremental", True), ("overshoot", False)} <= seen


def test_default_chain_leaves_an_evaluation_multiple_below_2_16():
    # pure integers: for every prime 11 <= p < 2^16 double-and-add leaves s = 3
    # or 4, and the default chain is binary_chain(p); at p = 5 and 7 it leaves
    # none, and the default chain is tail_chain(p, 3), which leaves 4 and 6
    from dualpair.miller import chain_for
    from dualpair.numbertheory import is_prime

    misses = {}
    for p in range(5, 1 << 16):
        if not is_prime(p):
            continue
        s = chain_for(p, binary_chain(p)).s
        default = chain_for(p, None)
        if s is None:
            assert default.steps == tuple(tail_chain(p, 3)), p
            misses[p] = default.s
        else:
            assert default.steps == tuple(binary_chain(p)), p
            assert default.s == s and s in (3, 4), p
    assert misses == {5: 4, 7: 6}


def test_default_evaluation_multiple_is_kept_per_p(monkeypatch):
    # s is part of the chain record: found once per p for the default chain,
    # whose record is kept, and on every call for a caller's chain, whose
    # record is built per call
    from dualpair import miller

    asked, helper = [], miller._evaluation_multiple
    monkeypatch.setattr(miller, "_evaluation_multiple", lambda p, steps: asked.append(p) or helper(p, steps))
    miller._default_chain.cache_clear()
    try:
        c = Curve(Fp(1361), 686, 969)
        dc = DualCurve.canonical(c)
        P = c.random_point(random.Random(5))
        want = pairing_rueck(dc, P, 3)
        for _ in range(2):
            assert pairing_direct(dc, P, 3) == pairing_semaev(dc, P, 3) == want
        assert asked == [1361]
        asked.clear()
        for _ in range(2):
            assert pairing_direct(dc, P, 3, chain=binary_chain(1361)) == want
        assert asked == [1361, 1361]
        c7, points = next(_anomalous_curves((7,)))
        dc7, P7 = DualCurve.canonical(c7), points[1]
        asked.clear()
        assert pairing_semaev(dc7, P7, 1) == pairing_rueck(dc7, P7, 1)
        assert asked == [7, 7]  # binary_chain(7), which leaves none, then tail_chain(7, 3), kept in its place
        for _ in range(2):
            assert pairing_direct(dc7, P7, 1) == pairing_semaev(dc7, P7, 1) == pairing_rueck(dc7, P7, 1)
        assert asked == [7, 7]
    finally:
        miller._default_chain.cache_clear()


def test_semaev_agrees_where_the_translated_point_is_two_torsion(monkeypatch):
    # y^2 = x^3 + 3x over F_5 has #E = 10, a point of order 2, (0, 0), and four of
    # order 5: the one way S = R - T can be 2-torsion with P and R of order p.  At
    # y(S) = 0 the eps part of S + O_1 is in y alone, and Semaev's weighted sum of
    # -(eps/re)/2 still reads (y * f'/f)(R): over every P, R and chain it gives
    # rueck's and direct's value, as does the exact-value oracle
    from conftest import log_derivative_oracle
    from dualpair import pairing

    c = Curve(Fp(5), 3, 0)
    dc = DualCurve.canonical(c)
    two = c.point(0, 0)
    order_p = [P for P in _affine(c) if c.mul(5, P).is_infinity]
    assert len(list(c.points())) == 10 and len(order_p) == 4
    cases = []
    for chain in (None, incremental_chain(5), tail_chain(5, 2), tail_chain(5, 3)):
        for P in order_p:
            for R in order_p:
                T = c.add(R, c.neg(two))
                assert c.add(R, c.neg(T)) == two
                want = pairing_rueck(dc, P, 1, chain=chain)
                assert pairing_direct(dc, P, 1, R=R, T=T, chain=chain) == want
                cases.append((P, R, T, chain, want))
    assert len(cases) == 64
    for P, R, T, chain, want in cases:
        assert pairing_semaev(dc, P, 1, R=R, T=T, chain=chain) == want
    monkeypatch.setattr(pairing, "_log_derivative_value", log_derivative_oracle)
    for P, R, T, chain, want in cases:
        assert pairing_semaev(dc, P, 1, R=R, T=T, chain=chain) == want
