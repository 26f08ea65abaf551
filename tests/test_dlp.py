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
    count_points,
    find_anomalous,
    solve,
    torsion_preserving_lifts,
)
from dualpair.errors import BadInputError, BadTorsionError, DualPairError, WitnessInconsistentError
from dualpair.fields import DualNumber, Fp, FpElement
from dualpair.pairing import rueck_slope_sum

import test_crypto256 as pinned
from conftest import check_attack_cores, count_walks, dual_double_and_add

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


def test_p5_curves_with_ten_points_are_not_instances():
    # Hasse leaves both 5 and 10 for #E over F_5, so a point P != O with 5P = O
    # does not make the curve anomalous; y^2 = x^3 + 3x has 10 points
    f = Fp(5)
    tens = [Curve(f, a, b) for a in range(5) for b in range(5) if (4 * a**3 + 27 * b**2) % 5]
    tens = [c for c in tens if count_points(c) == 10]
    assert Curve(f, 3, 0) in tens
    fifths = 0
    for c in tens:
        for P in list(c.points())[1:]:
            fifths += c.mul(5, P).is_infinity
            for Q in (P, INFINITY):
                with pytest.raises(BadTorsionError, match=r"^the curve is not anomalous: p\*P != infinity$"):
                    DlpInstance(c, P, Q)
    assert fifths  # some P does have 5P = O
    c = Curve(f, 3, 0)
    with pytest.raises(BadTorsionError, match="not anomalous"):
        DlpInstance(c, c.point(1, 2), c.point(0, 0))


def test_instances_at_p5_and_p7_are_exactly_the_anomalous_curves():
    # below p = 7 a point killed by p leaves the count to decide; at 7 the walk alone does
    for p in (5, 7):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                c = Curve(f, a, b)
                anomalous = count_points(c) == p
                for P in list(c.points())[1:]:
                    if anomalous:
                        assert DlpInstance(c, P, P).slope_sum == rueck_slope_sum(c, P)
                    else:
                        with pytest.raises(BadTorsionError, match="not anomalous"):
                            DlpInstance(c, P, P)


DESK = Curve(Fp(1511), 1301, 497)  # the README's curve


@pytest.mark.parametrize("method", ("semaev", "rueck", "pairing", "lift"))
def test_solve_walks_p_once_at_construction(method, monkeypatch):
    # the instance check is P's walk and the attack reads P from it, so solve
    # walks only Q, once, and Q = O not at all
    walks = count_walks(monkeypatch)
    P = DESK.random_point(random.Random(7))
    for n in (0, 1, 2, 1000):
        Q = DESK.mul(n, P)
        inst = DlpInstance(DESK, P, Q)
        assert walks == [{1: P}]
        walks.clear()
        assert solve(inst, method).n == n
        assert walks == ([] if Q.is_infinity else [{1: Q}])
        walks.clear()


def test_instance_slope_sum_is_out_of_view():
    P = DESK.random_point(random.Random(8))
    Q = DESK.mul(5, P)
    a, b = DlpInstance(DESK, P, Q), DlpInstance(DESK, P, Q)
    assert a.slope_sum == b.slope_sum == rueck_slope_sum(DESK, P)
    object.__setattr__(b, "slope_sum", None)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "slope_sum" not in repr(a)
    assert DlpInstance(curve=DESK, P=P, Q=Q) == a
    with pytest.raises(TypeError):
        DlpInstance(DESK, P, Q, a.slope_sum)
    with pytest.raises(TypeError):
        DlpInstance(DESK, P, Q, slope_sum=a.slope_sum)
    other = DlpInstance(a.curve, a.P, DESK.mul(6, P))
    assert other != a and other.slope_sum == a.slope_sum
    P3 = DESK.mul(3, P)
    moved = DlpInstance(a.curve, P3, a.Q)  # Q = 5P = (5/3)*(3P): the slope sum must be 3P's
    assert moved.slope_sum == rueck_slope_sum(DESK, P3) == 3 * a.slope_sum
    for method in METHODS:
        assert solve(moved, method).n == 5 * pow(3, -1, DESK.p) % DESK.p
    with pytest.raises(BadTorsionError, match="the base point must generate"):
        DlpInstance(a.curve, INFINITY, a.Q)


def test_attack_cores_equal_the_public_functions(tiny_anomalous_all, small_pool):
    # every affine P for p <= 13 (at p = 5 and 7 the default chain is tail_chain(p, 3)), and desk points
    for c in tiny_anomalous_all:
        for P in list(c.points())[1:]:
            check_attack_cores(DlpInstance(c, P, P))
    rng = random.Random(9)
    for c in [DESK] + list(small_pool[:3]):
        for _ in range(3):
            check_attack_cores(_random_instance(c, rng)[0])


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
    # forcing the canonical lift must yield p*Pt = O_0, which the guard refuses
    # as a broken walk, even where asserts are stripped (python -O)
    c = tiny_anomalous
    inst, _ = _random_instance(c, random.Random(54))
    canonical = DualCurve.canonical(c)
    zero = canonical.field.zero()

    pPt = canonical.mul(c.p, canonical.lift(inst.P))
    assert pPt.is_infinity and pPt.k.is_zero()

    def force_canonical(self, rng):
        return zero, zero

    monkeypatch.setattr(DualCurve, "random_lift_coeffs", force_canonical)
    with pytest.raises(DualPairError, match=r"^p\*P~ = O_0 on a lift off the scaling family$") as info:
        attack_lift(inst, seed=55)
    assert type(info.value) is DualPairError


def test_lift_attack_rejects_product_outside_kernel(tiny_anomalous, monkeypatch):
    # a p-fold multiple that stays affine is a broken result, reported as
    # an error even where asserts are stripped (python -O)
    inst, _ = _random_instance(tiny_anomalous, random.Random(56))
    monkeypatch.setattr(DualCurve, "_mul_raw", lambda self, n, P: P)  # the walk `mul` runs once P is checked
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
                        assert lift.has_scaling_witness() == ((6 * b * a1 - 4 * a * b1) % p == 0)
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
    c = tiny_anomalous
    j_in_fp, preserving = torsion_preserving_lifts(c)
    scaling = {(a1, b1) for a1 in range(c.p) for b1 in range(c.p) if DualCurve(c, a1, b1).has_scaling_witness()}
    assert (0, 0) in scaling and len(scaling) == c.p  # mu = 1 + k*eps, one lift per k
    assert preserving == scaling == j_in_fp  # A*B != 0, so the j-value test agrees


def _lift_k(curve, a1, b1, S):
    """The k of p*lift(P) = O_k on the lift (A1, B1), from S = S(P) by the lift identity."""
    A, B = curve.A, curve.B
    return -3 * (6 * B * a1 - 4 * A * b1) / (4 * (4 * A**3 + 27 * B * B)) * S


def test_lift_identity():
    # p*lift(P) = O_k with k = -3*(6B*A1 - 4A*B1)/(4*(4A^3 + 27B^2)) * S(P): on
    # every lift of every affine P of every anomalous curve with p <= 7, and of
    # one affine P at p = 11, 13 (the A = 0 curves included), on a few
    # desk-curve lifts, and at 256 bits, where K_G follows from the pinned lift
    # and S(G) = -A_G; p*lift(P) is taken by the reference law, as
    # `DualCurve.mul` and the lift attack read the identity (`slope_factor`)
    rng = random.Random(17)
    cases = []
    for p in (5, 7, 11, 13):
        curves = [Curve(Fp(p), a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b * b) % p]
        for c in curves:
            if count_points(c) == p:
                points = [P for P in c.points() if not P.is_infinity][: None if p <= 7 else 1]
                cases += [(c, P, a1, b1) for P in points for a1 in range(p) for b1 in range(p)]
    assert {c.p for c, *_ in cases} == {5, 7, 11, 13} and any(c.A.is_zero() for c, *_ in cases)
    cases += [(DESK, DESK.random_point(rng), rng.randrange(DESK.p), rng.randrange(DESK.p)) for _ in range(4)]
    for c, P, a1, b1 in cases:
        lift = DualCurve(c, a1, b1)
        pPt, S = dual_double_and_add(lift, c.p, lift.lift(P)), rueck_slope_sum(c, P)
        assert pPt.is_infinity and pPt.k == _lift_k(c, a1, b1, S) == lift.slope_factor() * S
    c = Curve(Fp(pinned.P), pinned.A, pinned.B)
    assert rueck_slope_sum(c, c.point(*pinned.G)).value == -pinned.A_G % pinned.P
    a1, b1 = (int(pinned.LIFT_RESULT["lift"][name]) for name in ("A1", "B1"))
    assert _lift_k(c, a1, b1, c.field(-pinned.A_G)).value == pinned.K_G == DualCurve(c, a1, b1).slope_factor() * -pinned.A_G % pinned.P


def test_torsion_probe_rejects_non_anomalous_curve():
    c = Curve(Fp(7), 1, 1)  # 5 points
    with pytest.raises(BadTorsionError, match="not anomalous"):
        torsion_preserving_lifts(c)


def test_attack_result_json():
    r = AttackResult(5, "rueck")
    assert r.to_json() == {"n": "5", "method": "rueck", "retries": 0}


def test_records_are_frozen_with_field_equality_hash_and_repr():
    P = DESK.random_point(random.Random(8))
    inst = DlpInstance(DESK, P, DESK.mul(5, P))
    r = AttackResult(5, "lift", lift=(1, 2))
    assert repr(inst) == f"DlpInstance(curve={DESK!r}, P={P!r}, Q={inst.Q!r})"
    assert repr(r) == "AttackResult(n=5, method='lift', retries=0, lift=(1, 2))"
    assert r == AttackResult(n=5, method="lift", retries=0, lift=(1, 2)) and hash(r) == hash(AttackResult(5, "lift", 0, (1, 2)))
    assert r != AttackResult(5, "lift") and r != (5, "lift", 0, (1, 2))
    assert hash(inst) == hash((DESK, P, inst.Q))
    for record, name in ((inst, "P"), (inst, "slope_sum"), (r, "n"), (r, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert inst.P == P and r.n == 5


#: per method, the most FpElement and DualNumber constructions one desk solve may make, instance included
WRAPPER_CEILINGS = {"lift": (32, 2), "pairing": (30, 4), "semaev": (9, 0), "rueck": (6, 0)}


@pytest.mark.parametrize("method", METHODS)
def test_wrapper_constructions_per_desk_solve(method, monkeypatch):
    # the on-curve checks run on ints and each input is checked once, so a solve builds
    # wrappers only at its boundary; counted on the README's instance, Q = 1234*G
    G = DESK.point(129, 526)
    Q = DESK.mul(1234, G)
    assert solve(DlpInstance(DESK, G, Q), method).n == 1234  # fills the per-p chain cache
    counts = {FpElement: 0, DualNumber: 0}
    for cls in counts:
        init = cls.__init__

        def counting(self, *args, _cls=cls, _init=init):
            counts[_cls] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    assert solve(DlpInstance(DESK, G, Q), method).n == 1234
    fp, dual = WRAPPER_CEILINGS[method]
    assert counts[FpElement] <= fp and counts[DualNumber] <= dual, counts
