"""Acceptance suite: one test per criterion, exact (zero-tolerance)
equality in F_p throughout.  Each test prints a single summary line;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
import time

import pytest

from dualpair import (
    Curve,
    DlpInstance,
    DualCurve,
    DualPoint,
    INFINITY,
    canonical_witness,
    check_functoriality,
    find_anomalous,
    find_cyclic_isogeny,
    frobenius_isogeny,
    lifted_pairing,
    multiplication_isogeny,
    pairing_direct,
    pairing_rueck,
    pairing_semaev,
    solve,
    torsion_preserving_lifts,
    velu,
    weil_pairing,
)
from dualpair.dlp import attack_lift
from dualpair.errors import LiftDegenerateError, NotRationalError
from dualpair.fields import Fp
from dualpair.miller import binary_chain, tail_chain
from conftest import first_anomalous_by_scan


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pool(small_pool, medium_pool):
    return list(small_pool) + list(medium_pool)


def test_criterion_1_three_way_agreement(pool, rng):
    """>= 100 random (anomalous curve, generator, k) with p in [5, 10^4]."""
    t0 = time.time()
    curves = [first_anomalous_by_scan(5)] + pool
    curves = [c for c in curves if c and c.p <= 10_000]
    instances = 0
    while instances < 100:
        c = curves[instances % len(curves)]
        dc = DualCurve.canonical(c)
        P = c.random_point(rng)
        k = rng.randrange(1, c.p)
        d = pairing_direct(dc, P, k, rng=rng)
        s = pairing_semaev(dc, P, k, rng=rng)
        r = pairing_rueck(dc, P, k)
        if not (d == s == r):
            _report(1, False, f"mismatch at p={c.p} P={P} k={k}: {d.a}/{s.a}/{r.a}")
        instances += 1
    dt = time.time() - t0
    _report(1, dt < 10, f"{instances} instances on {len(curves)} curves, exact 3-way agreement, {dt:.2f}s (< 10s)")


def test_criterion_2_exhaustive_smallest_prime():
    """Full pairing properties over ALL p-torsion pairs at the smallest
    anomalous prime <= 50 (that is p = 5)."""
    t0 = time.time()
    c = next(first_anomalous_by_scan(p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if first_anomalous_by_scan(p))
    dc = DualCurve.canonical(c)
    pts = list(dc.points())
    zero = DualPoint.infinity(dc.field.zero())

    # cache the theta-coefficient per base point for the quadratic sweeps
    coeff = {}
    for pt in pts:
        P, _ = dc.decompose(pt)
        if P not in coeff:
            coeff[P] = lifted_pairing(dc, dc.embed(P), DualPoint.infinity(dc.field.one())).a if not P.is_infinity else dc.field.zero()

    def pair(Pt, Qt):
        P, k = dc.decompose(Pt)
        Q, j = dc.decompose(Qt)
        return coeff[P] * j - coeff[Q] * k

    checks = 0
    for Pt in pts:
        if not pair(Pt, Pt).is_zero():
            _report(2, False, f"self-pairing nontrivial at {Pt}")
        if Pt != zero and all(pair(Pt, Qt).is_zero() for Qt in pts):
            _report(2, False, f"degenerate point {Pt}")
        checks += 1
    witnesses = [pts[1], pts[c.p], pts[-1]]
    for Pt in pts:
        for Qt in pts:
            if not (pair(Pt, Qt) + pair(Qt, Pt)).is_zero():
                _report(2, False, f"antisymmetry fails at ({Pt}, {Qt})")
            s = dc.add(Pt, Qt)
            for W in witnesses:
                if pair(s, W) != pair(Pt, W) + pair(Qt, W):
                    _report(2, False, f"bilinearity fails at ({Pt}, {Qt}; {W})")
                if pair(W, s) != pair(W, Pt) + pair(W, Qt):
                    _report(2, False, f"bilinearity (right) fails at ({Pt}, {Qt}; {W})")
            checks += 1
    # spot-verify the cached-coefficient shortcut against lifted_pairing
    spot = random.Random(2)
    for _ in range(40):
        Pt, Qt = spot.choice(pts), spot.choice(pts)
        if lifted_pairing(dc, Pt, Qt).a != pair(Pt, Qt):
            _report(2, False, "coefficient cache diverged from lifted_pairing")
    dt = time.time() - t0
    _report(2, dt < 5, f"p={c.p}: {checks} exhaustive pair checks (bilinear, antisymmetric, self-trivial, non-degenerate), {dt:.2f}s (< 5s)")


def test_criterion_3_dlp_recovery(pool, large_pool, rng):
    """100 random instances per method at p up to 10^6, each attack < 1 s."""
    curves = list(pool) + list(large_pool)
    assert any(c.p > 100_000 for c in curves)
    worst = 0.0
    for method in ("semaev", "rueck", "pairing"):
        recovered = 0
        for i in range(100):
            c = curves[i % len(curves)]
            P = c.random_point(rng)
            n = rng.randrange(c.p)
            inst = DlpInstance(c, P, c.mul(n, P))
            t0 = time.time()
            res = solve(inst, method, seed=rng.randrange(2**30))
            dt = time.time() - t0
            worst = max(worst, dt)
            if res.n != n or dt >= 1.0:
                _report(3, False, f"{method} at p={c.p}: got {res.n} want {n} in {dt:.3f}s")
            recovered += 1
        assert recovered == 100
    _report(3, True, f"3 methods x 100 instances recovered exactly, max p={max(c.p for c in curves)}, worst attack {worst*1000:.1f}ms (< 1s)")


def test_criterion_4_lift_attack(pool, rng):
    """50 random non-canonical-lift recoveries plus 50 canonical refusals."""
    t0 = time.time()
    for i in range(50):
        c = pool[i % len(pool)]
        P = c.random_point(rng)
        n = rng.randrange(c.p)
        inst = DlpInstance(c, P, c.mul(n, P))
        res = solve(inst, "lift", seed=rng.randrange(2**30))
        if res.n != n:
            _report(4, False, f"lift attack wrong at p={c.p}")
        lift = DualCurve(c, *res.lift)
        if lift.has_scaling_witness():
            _report(4, False, "attack used a lift from the torsion-preserving scaling family")
    refusals = 0
    for i in range(50):
        c = pool[i % len(pool)]
        P = c.random_point(rng)
        inst = DlpInstance(c, P, c.mul(rng.randrange(c.p), P))
        canonical = DualCurve.canonical(c)
        pPt = canonical.mul(c.p, canonical.lift(P))
        if not (pPt.is_infinity and pPt.k.is_zero()):
            _report(4, False, f"canonical lift failed to preserve p-torsion at p={c.p}")
        original = DualCurve.random_lift_coeffs
        DualCurve.random_lift_coeffs = lambda self, r: (
            self.field.zero(),
            self.field.zero(),
        )
        try:
            attack_lift(inst, seed=1)
            _report(4, False, "attack accepted the canonical lift")
        except LiftDegenerateError:
            refusals += 1
        finally:
            DualCurve.random_lift_coeffs = original
    dt = time.time() - t0
    _report(4, refusals == 50 and dt < 10, f"50 recoveries on witness-free lifts, 50 canonical refusals, {dt:.2f}s (< 10s)")


def test_criterion_5_witness_biconditional_and_probe():
    """Exhaustive over all (A1, B1) for one anomalous p <= 13 with A*B != 0,
    plus the reported (never asserted) torsion-preservation probe."""
    c = first_anomalous_by_scan(5)
    assert c is not None and not c.A.is_zero() and not c.B.is_zero()
    p = c.p
    counterexamples = 0
    for a1 in range(p):
        for b1 in range(p):
            lift = DualCurve(c, a1, b1)
            j_flat = lift.j_value().eps.is_zero()
            found, k = canonical_witness(lift)
            transforms = found and 4 * k * c.A == lift.A1 and 6 * k * c.B == lift.B1
            if found != j_flat or (found and not transforms):
                counterexamples += 1
    j_in_fp, preserving = torsion_preserving_lifts(c)
    probe = f"probe: |j in F_p|={len(j_in_fp)}, |torsion-preserving|={len(preserving)}, sets_equal={j_in_fp == preserving}"
    print(f"[criterion 5] {probe}")
    _report(5, counterexamples == 0, f"p={p}: {p*p} lifts, biconditional j-flat <=> witness <=> transform, {counterexamples} counterexamples; {probe}")


def _iso_instances(ell, rng, want):
    """(curve, isogeny) pairs from anomalous sources admitting rational
    ell-isogenies; Galois-stable kernels exist iff x^2 - x + p splits mod ell."""
    found = []
    seed = 0
    while len(found) < want and seed < 250:
        seed += 1
        c = find_anomalous(20, 4000, 1, seed=seed)[0]
        try:
            found.append((c, find_cyclic_isogeny(c, ell)))
        except NotRationalError:
            continue
    return found


def test_criterion_6_isogeny_functoriality(pool, rng):
    """e_p(phi~ P, phi~ Q) = e_p(P, Q)^deg for Velu ell in {3, 5} and
    multiplication by n in {2, 3}; homomorphism on 200 pairs; Frobenius
    at p <= 13.  Rational 2-isogenies from anomalous curves do not exist
    (group order p is odd), which is machine-verified instead."""
    t0 = time.time()
    details = []

    for ell in (3, 5):
        cases = _iso_instances(ell, rng, 4)
        if not cases:
            _report(6, False, f"no rational {ell}-isogenies found")
        done = 0
        while done < 50:
            c, phi = cases[done % len(cases)]
            dc = DualCurve.canonical(c)
            Pt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            Qt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            if not check_functoriality(phi, Pt, Qt, rng=rng):
                _report(6, False, f"functoriality fails for ell={ell} at p={c.p}")
            done += 1
        details.append(f"velu-{ell}: 50/50")

    # ell = 2: verified impossibility on the anomalous pool
    for c in pool:
        if c.two_torsion():
            _report(6, False, f"anomalous curve with rational 2-torsion?! p={c.p}")
        try:
            find_cyclic_isogeny(c, 2)
            _report(6, False, f"rational 2-isogeny from anomalous p={c.p}?!")
        except NotRationalError:
            pass
    details.append(f"velu-2: impossible on all {len(pool)} anomalous sources (odd group order), verified")

    for n in (2, 3):
        done = 0
        while done < 50:
            c = pool[done % len(pool)]
            phi = multiplication_isogeny(c, n)
            dc = DualCurve.canonical(c)
            Pt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            Qt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            if not check_functoriality(phi, Pt, Qt, rng=rng):
                _report(6, False, f"multiplication functoriality fails n={n} p={c.p}")
            done += 1
        details.append(f"mult-{n}: 50/50")

    # homomorphism of the lifted maps on 200 random pairs, kernel cases included
    c2 = Curve(Fp(31), 1, 0)
    phis = [velu(c2, [INFINITY, c2.two_torsion()[0]]), multiplication_isogeny(c2, 2)]
    phis += [phi for _, phi in _iso_instances(3, rng, 1)]
    hom_pairs = 0
    while hom_pairs < 200:
        phi = phis[hom_pairs % len(phis)]
        src = DualCurve.canonical(phi.source)
        tgt = DualCurve.canonical(phi.target)
        base = phi.source
        if hom_pairs % 5 == 0 and base.two_torsion():
            P = base.two_torsion()[0]  # exercise the kernel case
        else:
            P = base.random_point(rng)
        Pt = src.compose(P, rng.randrange(base.p))
        Qt = src.compose(base.random_point(rng), rng.randrange(base.p))
        lhs = phi.eval_lifted(src.add(Pt, Qt))
        rhs = tgt.add(phi.eval_lifted(Pt), phi.eval_lifted(Qt))
        if lhs != rhs:
            _report(6, False, f"lifted map not a homomorphism at p={base.p}")
        hom_pairs += 1
    details.append("homomorphism: 200/200")

    # inseparable branch at p <= 13
    tiny = first_anomalous_by_scan(5) or first_anomalous_by_scan(7)
    fr = frobenius_isogeny(tiny)
    dtiny = DualCurve.canonical(tiny)
    tpts = list(dtiny.points())
    for Pt in tpts:
        for Qt in (tpts[1], tpts[-1]):
            if not check_functoriality(fr, Pt, Qt):
                _report(6, False, "Frobenius functoriality fails")
            if not (lifted_pairing(dtiny, Pt, Qt) ** fr.degree).is_one():
                _report(6, False, "deg-p power did not collapse to 1")
    details.append(f"frobenius p={tiny.p}: inseparable branch verified")

    dt = time.time() - t0
    _report(6, True, "; ".join(details) + f", {dt:.2f}s")


def test_criterion_7_lifted_group_law(pool, rng, tiny_anomalous_all):
    """Associativity on 1000 random triples over canonical and non-canonical
    lifts; reduction homomorphism; decomposition round trip and degenerate
    case consistency, exhaustive for p <= 13."""
    t0 = time.time()
    triples = 0
    while triples < 1000:
        c = pool[triples % len(pool)]
        a1 = rng.randrange(c.p) if triples % 2 else 0
        b1 = rng.randrange(c.p) if triples % 2 else 0
        dc = DualCurve(c, a1, b1)
        pts = [dc.lift(c.random_point(rng)) for _ in range(3)]
        pts = [dc.translate(pt, dc.field(rng.randrange(c.p))) for pt in pts]
        if rng.random() < 0.3:
            pts[rng.randrange(3)] = DualPoint.infinity(dc.field(rng.randrange(c.p)))
        A, B, C = pts
        if dc.add(dc.add(A, B), C) != dc.add(A, dc.add(B, C)):
            _report(7, False, f"associativity fails on lift ({a1},{b1}) of p={c.p}")
        red = dc.add(A, B).reduction()
        if red != c.add(A.reduction(), B.reduction()):
            _report(7, False, f"reduction not a homomorphism at p={c.p}")
        triples += 1

    roundtrips = consistency = 0
    for c in tiny_anomalous_all:
        dc = DualCurve.canonical(c)
        pts = list(dc.points())
        for Pt in pts:
            P, k = dc.decompose(Pt)
            if dc.compose(P, k) != Pt:
                _report(7, False, f"decomposition round trip fails at p={c.p}")
            roundtrips += 1
        for Pt in pts:
            for Qt in pts:
                P, k = dc.decompose(Pt)
                Q, j = dc.decompose(Qt)
                if dc.add(Pt, Qt) != dc.compose(c.add(P, Q), k + j):
                    _report(7, False, f"case split diverges from decomposition route at p={c.p}")
                consistency += 1
    dt = time.time() - t0
    primes = [c.p for c in tiny_anomalous_all]
    _report(7, True, f"1000 triples associative on mixed lifts; {roundtrips} round trips and {consistency} pair consistencies exhaustive at p in {primes}, {dt:.2f}s")


def test_criterion_8_independence_battery(pool, rng):
    """Pairing values identical across two chains, two R, two T, and both
    divisor variants; 50 instances each."""
    t0 = time.time()
    cases = {"chains": 0, "R": 0, "T": 0, "divisor": 0}
    guard = 0
    while min(cases.values()) < 50 and guard < 5000:
        guard += 1
        c = pool[guard % len(pool)]
        dc = DualCurve.canonical(c)
        P = c.random_point(rng)
        k = rng.randrange(1, c.p)
        reference = pairing_rueck(dc, P, k)

        chains = (binary_chain(c.p), tail_chain(c.p, 3))
        R1, R2 = c.random_point(rng), c.random_point(rng)
        T1, T2 = c.random_point(rng), c.random_point(rng)
        try:
            if cases["chains"] < 50:
                v = [pairing_direct(dc, P, k, R=R1, chain=ch) for ch in chains]
                if not all(x == reference for x in v):
                    _report(8, False, f"chain dependence at p={c.p}")
                cases["chains"] += 1
            if cases["R"] < 50:
                v = [pairing_direct(dc, P, k, R=R) for R in (R1, R2)]
                if not all(x == reference for x in v):
                    _report(8, False, f"R dependence at p={c.p}")
                cases["R"] += 1
            if cases["T"] < 50:
                v = [pairing_direct(dc, P, k, R=R1, T=T) for T in (T1, T2)]
                if not all(x == reference for x in v):
                    _report(8, False, f"T dependence at p={c.p}")
                cases["T"] += 1
            if cases["divisor"] < 50:
                with_translation = pairing_direct(dc, P, k, R=R1, T=T1)  # (P+T) - (T)
                plain = pairing_direct(dc, P, k, R=R1)  # (P) - (inf)
                if not (with_translation == plain == reference):
                    _report(8, False, f"divisor dependence at p={c.p}")
                cases["divisor"] += 1
        except Exception:
            continue  # degenerate draw; take a fresh one
    dt = time.time() - t0
    _report(8, min(cases.values()) >= 50, f"{cases} instances each identical, {dt:.2f}s")


def test_criterion_9_classical_weil_baseline(rng):
    """e_n bilinear, alternating, n-th power trivial, primitive on a basis:
    n in {2, 3, 5}, 20 instances per n, on searched full-torsion curves."""
    t0 = time.time()
    from test_miller import _full_torsion_curve

    for n in (2, 3, 5):
        c, tor = _full_torsion_curve(n)
        basis_pool = [T for T in tor if not T.is_infinity and c.order_of(T) == n]
        done = 0
        while done < 20:
            P = rng.choice(basis_pool)
            span = {c.mul(i, P) for i in range(n)}
            Q = rng.choice([T for T in basis_pool if T not in span])
            e = weil_pairing(c, n, P, Q, rng)
            ok = (
                e**n == 1
                and e != 1
                and weil_pairing(c, n, P, P, rng) == 1
                and e * weil_pairing(c, n, Q, P, rng) == 1
            )
            a, b = rng.randrange(n), rng.randrange(n)
            ok = ok and weil_pairing(c, n, c.mul(a, P), Q, rng) == e**a
            ok = ok and weil_pairing(c, n, P, c.mul(b, Q), rng) == e**b
            if not ok:
                _report(9, False, f"e_{n} property failure at p={c.p}")
            done += 1
    dt = time.time() - t0
    _report(9, True, f"n in (2, 3, 5): 20 instances each, bilinear/alternating/primitive, {dt:.2f}s")
