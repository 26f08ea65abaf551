"""The built-in invariant suite behind `dualpair selfcheck`.

Runs the structural checks the library's correctness rests on - group
laws on base and lifted curves, the canonical decomposition round trip,
three-way pairing agreement, non-degeneracy, isogeny functoriality, the
coordinate-change witness biconditional, the lifts that keep the
p-torsion being exactly the scaling lifts, the four attacks agreeing -
and reports one section per invariant with pass/fail and counts.  An
attack's error fails its instance; it does not end the report.  The two
lift sections also run on the first anomalous curve at the same p with
A != B, where a check that confuses A with B shows.
"""

from __future__ import annotations

import random

from .curve import Curve, count_points, find_anomalous
from .dlp import DlpInstance, canonical_witness, solve, torsion_preserving_lifts
from .dual_curve import DualCurve
from .errors import BadInputError, DualPairError, SearchExhaustedError, WitnessInconsistentError
from .fields import Fp
from .isogeny import check_functoriality, multiplication_isogeny
from .pairing import pairing_direct, pairing_rueck, pairing_semaev


def _section(name, passed, failed, detail=None):
    out = {"name": name, "pass": failed == 0, "checked": passed + failed, "failed": failed}
    if detail is not None:
        out["detail"] = detail
    return out


def _smallest_anomalous(p_max: int) -> Curve:
    from .numbertheory import is_prime

    for p in range(5, p_max + 1):
        if not is_prime(p):
            continue
        try:
            return find_anomalous(p, p, count=1, seed=1, budget=4 * p * p)[0]
        except SearchExhaustedError:
            continue
    raise BadInputError(f"no anomalous curve with p <= {p_max}")


def _first_anomalous_with_distinct_coefficients(p: int) -> Curve:
    """The first anomalous y^2 = x^3 + A*x + B over F_p, in the order of (A, B), with A != B."""
    field = Fp(p)
    for a in range(p):
        for b in range(p):
            if a != b and (4 * a**3 + 27 * b * b) % p and count_points(Curve(field, a, b)) == p:
                return Curve(field, a, b)
    raise BadInputError(f"no anomalous curve with A != B at p = {p}")


def run(p_max: int = 13, trials: int = 100, seed: int = 0xC11E) -> dict:
    if trials < 1:
        raise BadInputError(f"trials must be at least 1, not {trials}")
    rng = random.Random(seed)
    curve = _smallest_anomalous(p_max)
    dc = DualCurve.canonical(curve)
    p = curve.p
    sections = []

    # base group law: commutativity/associativity on random triples
    ok = bad = 0
    pts = [P for P in curve.points()]
    for _ in range(trials):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        lhs = curve.add(curve.add(P, Q), R)
        rhs = curve.add(P, curve.add(Q, R))
        if lhs == rhs and curve.add(P, Q) == curve.add(Q, P):
            ok += 1
        else:
            bad += 1
    sections.append(_section("base_group_law", ok, bad))

    # lifted group law on random valid triples, canonical and not
    ok = bad = 0
    lifts = [dc, DualCurve(curve, 1, 0), DualCurve(curve, 2, 3)]
    for lift in lifts:
        dpts = list(lift.points())
        for _ in range(max(1, trials // 2)):
            Pt, Qt, Rt = (rng.choice(dpts) for _ in range(3))
            lhs = lift.add(lift.add(Pt, Qt), Rt)
            rhs = lift.add(Pt, lift.add(Qt, Rt))
            if lhs == rhs:
                ok += 1
            else:
                bad += 1
    sections.append(_section("lifted_group_law", ok, bad))

    # canonical decomposition round trip, exhaustive
    ok = bad = 0
    for Pt in dc.points():
        P, k = dc.decompose(Pt)
        if dc.compose(P, k) == Pt:
            ok += 1
        else:
            bad += 1
    sections.append(_section("decomposition_roundtrip", ok, bad))

    # three-way pairing agreement on random (P, k)
    ok = bad = 0
    base_pts = [P for P in pts if not P.is_infinity]
    for _ in range(trials):
        P = rng.choice(base_pts)
        k = rng.randrange(1, p)
        vals = {
            pairing_direct(dc, P, k).a.value,
            pairing_semaev(dc, P, k).a.value,
            pairing_rueck(dc, P, k).a.value,
        }
        if len(vals) == 1:
            ok += 1
        else:
            bad += 1
    sections.append(_section("pairing_three_way_agreement", ok, bad))

    # non-degeneracy: every nonzero point pairs nontrivially with O_1
    ok = bad = 0
    for P in base_pts:
        if pairing_rueck(dc, P, 1).is_one():
            bad += 1
        else:
            ok += 1
    sections.append(_section("pairing_nondegenerate", ok, bad))

    # functoriality of multiplication maps
    ok = bad = 0
    for n in (2, 3):
        phi = multiplication_isogeny(curve, n)
        for _ in range(max(4, trials // 10)):
            Pt = dc.compose(rng.choice(pts), rng.randrange(p))
            Qt = dc.compose(rng.choice(pts), rng.randrange(p))
            if check_functoriality(phi, Pt, Qt):
                ok += 1
            else:
                bad += 1
    sections.append(_section("isogeny_functoriality", ok, bad))

    # coordinate-change witness biconditional, and the lifts that keep every point
    # p-torsion being the scaling lifts; exhaustive over lifts, on both curves
    ok = bad = failed = 0
    probes = []
    for c in (curve, _first_anomalous_with_distinct_coefficients(p)):
        j_in_fp, preserving = torsion_preserving_lifts(c)
        scaling = set()
        for a1 in range(p):
            for b1 in range(p):
                lift = DualCurve(c, a1, b1)
                if lift.has_scaling_witness():
                    scaling.add((a1, b1))
                try:
                    found = canonical_witness(lift)[0]
                except WitnessInconsistentError:
                    found = None
                if found is not None and found == ((a1, b1) in j_in_fp):
                    ok += 1
                else:
                    bad += 1
        failed += len(preserving ^ scaling)
        probes.append(
            {
                "curve": c.to_json(),
                "j_in_fp": sorted(j_in_fp),
                "torsion_preserving": sorted(preserving),
                "sets_equal": j_in_fp == preserving,
            }
        )
    sections.append(_section("canonical_witness_biconditional", ok, bad))
    sections.append(_section("torsion_lift_probe", 2 * p * p - failed, failed, probes))

    # attack agreement on random instances; an error fails its instance, counted by code
    ok = bad = 0
    errors = {}
    methods = ("semaev", "rueck", "pairing", "lift")
    for _ in range(max(4, trials // 4)):
        P = rng.choice(base_pts)
        n = rng.randrange(p)
        seeds = [rng.randrange(2**30) for _ in methods]
        try:
            inst = DlpInstance(curve, P, curve.mul(n, P))
            results = {solve(inst, m, seed=seed).n for m, seed in zip(methods, seeds)}
        except DualPairError as exc:
            errors[exc.code] = errors.get(exc.code, 0) + 1
            results = None
        if results == {n}:
            ok += 1
        else:
            bad += 1
    sections.append(_section("attack_agreement", ok, bad, {"errors": errors} if errors else None))

    return {
        "curve": curve.to_json(),
        "p_max": p_max,
        "trials": trials,
        "seed": seed,
        "sections": sections,
        "pass": all(s["pass"] for s in sections),
    }
