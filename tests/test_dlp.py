import random

import pytest

from dualpair import (
    AttackResult,
    Curve,
    DlpInstance,
    DualCurve,
    INFINITY,
    attack_lift,
    canonical_witness,
    find_anomalous,
    solve,
    torsion_preserving_lifts,
)
from dualpair.dlp import LIFT_RETRY_BUDGET
from dualpair.errors import BadInputError, BadTorsionError, DualPairError, LiftDegenerateError, WitnessInconsistentError
from dualpair.fields import Fp

METHODS = ("semaev", "rueck", "pairing", "lift")


def _random_instance(curve, rng):
    P = curve.random_point(rng)
    n = rng.randrange(curve.p)
    return DlpInstance(curve, P, curve.mul(n, P)), n


def test_instance_validation():
    c = Curve(Fp(31), 1, 0)  # not anomalous
    P = c.random_point(random.Random(1))
    with pytest.raises(BadTorsionError):
        DlpInstance(c, P, P)
    anom = find_anomalous(5, 100, 1, seed=50)[0]
    with pytest.raises(BadTorsionError):
        DlpInstance(anom, INFINITY, INFINITY)


@pytest.mark.parametrize("method", METHODS)
def test_trivial_instances(method, small_pool):
    c = small_pool[0]
    P = c.random_point(random.Random(51))
    assert solve(DlpInstance(c, P, P), method).n == 1
    assert solve(DlpInstance(c, P, INFINITY), method).n == 0
    assert solve(DlpInstance(c, P, c.neg(P)), method).n == c.p - 1


@pytest.mark.parametrize("method", METHODS)
def test_random_recovery(method, small_pool, medium_pool, rng):
    count = 0
    for c in list(small_pool[:4]) + list(medium_pool[:2]):
        for _ in range(5):
            inst, n = _random_instance(c, rng)
            res = solve(inst, method, seed=rng.randrange(2**30))
            assert res.n == n
            assert res.verify(inst)
            count += 1
    assert count >= 25


def test_methods_agree_everywhere(small_pool, rng):
    for c in small_pool[:5]:
        inst, n = _random_instance(c, rng)
        results = {m: solve(inst, m, seed=99).n for m in METHODS}
        assert set(results.values()) == {n}


def test_pairing_and_rueck_identical_arithmetic(small_pool, rng):
    # by construction the pairing route divides the same slope sums
    for c in small_pool[:5]:
        inst, _ = _random_instance(c, rng)
        assert solve(inst, "pairing", seed=1).n == solve(inst, "rueck", seed=2).n


def test_determinism_including_diagnostics(small_pool):
    c = small_pool[1]
    inst, _ = _random_instance(c, random.Random(52))
    for method in METHODS:
        a = solve(inst, method, seed=777)
        b = solve(inst, method, seed=777)
        assert a == b
        assert a.to_json() == b.to_json()


def test_lift_attack_reports_lift_and_retries(small_pool):
    c = small_pool[2]
    inst, n = _random_instance(c, random.Random(53))
    res = solve(inst, "lift", seed=4242)
    assert res.n == n
    assert res.lift is not None
    a1, b1 = res.lift
    lift = DualCurve(c, a1, b1)
    assert not lift.has_scaling_witness()
    js = res.to_json()
    assert js["lift"] == {"A1": str(a1), "B1": str(b1)}


def test_lift_attack_refuses_canonical(tiny_anomalous, monkeypatch):
    # forcing the canonical lift must yield p*Pt = O_0 and a refusal
    c = tiny_anomalous
    inst, _ = _random_instance(c, random.Random(54))
    canonical = DualCurve.canonical(c)
    zero = canonical.field.zero()

    pPt = canonical.mul(c.p, canonical.lift(inst.P))
    assert pPt.is_infinity and pPt.k.is_zero()

    def force_canonical(self, rng):
        return zero, zero

    monkeypatch.setattr(DualCurve, "random_lift_coeffs", force_canonical)
    with pytest.raises(LiftDegenerateError):
        attack_lift(inst, seed=55)


def test_lift_attack_rejects_product_outside_kernel(tiny_anomalous, monkeypatch):
    # a p-fold multiple that stays affine is a broken result, reported as
    # an error even where asserts are stripped (python -O)
    inst, _ = _random_instance(tiny_anomalous, random.Random(56))
    monkeypatch.setattr(DualCurve, "mul", lambda self, n, P: P)
    with pytest.raises(DualPairError, match="kernel of reduction") as info:
        attack_lift(inst, seed=57)
    assert type(info.value) is DualPairError


def test_solve_rejects_a_wrong_answer(small_pool, monkeypatch):
    # an attack that returns a wrong n is caught by the n*P = Q check in solve
    import dualpair.dlp as dlp

    curve = next(c for c in small_pool if c.p > 50)
    inst, n = _random_instance(curve, random.Random(58))
    monkeypatch.setitem(dlp._ATTACKS, "rueck", lambda inst, seed: AttackResult((n + 1) % curve.p, "rueck"))
    with pytest.raises(DualPairError, match="n\\*P != Q"):
        solve(inst, "rueck")
    assert solve(inst, "semaev").n == n


def test_unknown_attack_method_is_bad_input(small_pool):
    inst, _ = _random_instance(small_pool[0], random.Random(59))
    with pytest.raises(BadInputError, match="unknown attack method"):
        solve(inst, "bogus")


def test_lift_budget_is_bounded():
    assert 1 <= LIFT_RETRY_BUDGET <= 64


def test_canonical_witness_biconditional_exhaustive(tiny_anomalous):
    c = tiny_anomalous
    assert not c.A.is_zero() and not c.B.is_zero()
    p = c.p
    f = c.field
    for a1 in range(p):
        for b1 in range(p):
            lift = DualCurve(c, a1, b1)
            j_flat = lift.j_value().eps.is_zero()
            found, k = canonical_witness(lift)
            assert found == j_flat
            if found:
                # mu = 1 + k*eps transforms the canonical coefficients
                assert 4 * k * c.A == lift.A1
                assert 6 * k * c.B == lift.B1
            # independent oracle for the eps-part of the j-value via the
            # quotient-rule expansion (54*B*B1 term)
            a, b = c.A.value, c.B.value
            d0 = (4 * a**3 + 27 * b * b) % p
            num = (12 * a * a * a1 * d0 - 4 * a**3 * (12 * a * a * a1 + 54 * b * b1)) % p
            assert j_flat == (num == 0)


def test_canonical_witness_scaling_forward(tiny_anomalous):
    c = tiny_anomalous
    for k in range(c.p):
        lift = DualCurve(c, 4 * k * c.A.value, 6 * k * c.B.value)
        found, got = canonical_witness(lift)
        assert found and got == k


def test_canonical_witness_degenerate_base_curves():
    # A = 0: the j-value is constant, so lifts with A1 != 0 break Prop 6's
    # claimed equivalence; the operation must refuse rather than lie
    c0 = Curve(Fp(7), 0, 5)
    assert canonical_witness(DualCurve(c0, 0, 3))[0] is True
    with pytest.raises(WitnessInconsistentError):
        canonical_witness(DualCurve(c0, 1, 0))
    # B = 0 similarly
    cb = Curve(Fp(31), 1, 0)
    assert canonical_witness(DualCurve(cb, 4, 0))[0] is True  # k = 1: 4kA = 4
    with pytest.raises(WitnessInconsistentError):
        canonical_witness(DualCurve(cb, 0, 1))


def test_scaling_witness_agrees_with_canonical_witness():
    # the lift attack rejects lifts by has_scaling_witness and selfcheck asks
    # canonical_witness; a WitnessInconsistentError counts as "no witness"
    inconsistent = 0
    for p in (5, 7):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                c = Curve(f, a, b)
                for a1 in range(p):
                    for b1 in range(p):
                        lift = DualCurve(c, a1, b1)
                        try:
                            found = canonical_witness(lift)[0]
                        except WitnessInconsistentError:
                            found, inconsistent = False, inconsistent + 1
                        assert lift.has_scaling_witness() == found, (c, a1, b1)
    assert inconsistent > 0  # the A = 0 and B = 0 branches are reached


def test_noncanonical_lifts_break_torsion_empirically(tiny_anomalous, rng):
    c = tiny_anomalous
    pts = [P for P in c.points() if not P.is_infinity]
    for a1 in range(c.p):
        for b1 in range(c.p):
            lift = DualCurve(c, a1, b1)
            if lift.j_value().eps.is_zero():
                continue
            P = rng.choice(pts)
            out = lift.mul(c.p, lift.lift(P))
            assert out.is_infinity and not out.k.is_zero()


def test_lift_attack_on_degenerate_coefficient_curve():
    # A = 0 makes the j-value constant across lifts (j in F_p always), so
    # lift selection must fall back to the scaling-witness criterion; the
    # attack still works because non-witness lifts do break the torsion
    c = Curve(Fp(7), 0, 5)
    from dualpair import count_points

    assert count_points(c) == 7
    witness_family = {
        (a1, b1)
        for a1 in range(7)
        for b1 in range(7)
        if DualCurve(c, a1, b1).has_scaling_witness()
    }
    j_flat, preserving = torsion_preserving_lifts(c)
    assert len(j_flat) == 49  # the j-criterion is vacuous here
    assert witness_family == preserving == {(0, b1) for b1 in range(7)}
    P = c.random_point(random.Random(2))
    for n in range(7):
        inst = DlpInstance(c, P, c.mul(n, P))
        assert solve(inst, "lift", seed=11).n == n


def test_torsion_probe_emits_comparison(tiny_anomalous):
    j_in_fp, preserving = torsion_preserving_lifts(tiny_anomalous)
    assert (0, 0) in j_in_fp and (0, 0) in preserving
    assert len(j_in_fp) == tiny_anomalous.p  # scaling family mu = 1 + k*eps
    # reported, not asserted: print the comparison for the record
    print(f"probe p={tiny_anomalous.p}: j_in_fp={sorted(j_in_fp)} "
          f"preserving={sorted(preserving)} equal={j_in_fp == preserving}")


def test_torsion_probe_rejects_non_anomalous_curve():
    c = Curve(Fp(7), 1, 1)  # 5 points
    with pytest.raises(BadTorsionError, match="not anomalous"):
        torsion_preserving_lifts(c)


def test_attack_result_json():
    r = AttackResult(5, "rueck")
    assert r.to_json() == {"n": "5", "method": "rueck", "retries": 0}
