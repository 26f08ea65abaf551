"""The built-in invariant suite behind `dualpair selfcheck`.

Runs the structural checks the library's correctness rests on - group
laws on base and lifted curves, the canonical decomposition round trip,
three-way pairing agreement, non-degeneracy, isogeny functoriality, the
coordinate-change witness biconditional, the lifts that keep the
p-torsion being exactly the scaling lifts, the four attacks agreeing.
Every section has one shape: a named stream with one bool per checked
case, which `_section` counts; the random sections draw from one
`random.Random(seed)` in a fixed order.  The suite runs on F_5's two
anomalous curves, (A, B) = (3, 3) and (3, 2), in the order the search
finds them: p = 5 is the smallest prime with one.  The two lift sections
run on both, where a check that confuses A with B shows on the second;
every other section runs on the first.  An attack's error fails its
instance, counted by code; it does not end the report.
"""

from __future__ import annotations

import random

from .curve import find_anomalous
from .dlp import DlpInstance, canonical_witness, solve, torsion_preserving_lifts
from .dual_curve import DualCurve
from .errors import BadInputError, DualPairError
from .isogeny import check_functoriality, multiplication_isogeny
from .miller import tail_chain
from .pairing import pairing_direct, pairing_rueck, pairing_semaev

_METHODS = ("semaev", "rueck", "pairing", "lift")


def _section(name, outcomes, detail=None):
    outcomes = list(outcomes)
    failed = outcomes.count(False)
    out = {"name": name, "pass": failed == 0, "checked": len(outcomes), "failed": failed}
    if detail is not None:
        out["detail"] = detail
    return out


def _triples(rng, pts, count):
    return [[rng.choice(pts) for _ in range(3)] for _ in range(count)]


def _lift_sections(curves: list) -> list:
    """The witness biconditional and the torsion probe, over every lift of each curve: a lift
    has a scaling witness, whose k from `canonical_witness` gives (A1, B1) = k*(4A, 6B), exactly
    when `torsion_preserving_lifts` finds its j-value in F_p, and exactly when it keeps the p-torsion."""
    witness, probe, probes = [], [], []
    for c in curves:
        j_in_fp, preserving = torsion_preserving_lifts(c)
        for a1 in range(c.p):
            for b1 in range(c.p):
                lift = DualCurve(c, a1, b1)
                scales = lift.has_scaling_witness()
                k = canonical_witness(lift)[1] if scales else None
                k_holds = k is None or (lift.A1, lift.B1) == (4 * k * c.A, 6 * k * c.B)
                witness.append(scales == ((a1, b1) in j_in_fp) and k_holds)
                probe.append(scales == ((a1, b1) in preserving))
        probes.append(
            {
                "curve": c.to_json(),
                "j_in_fp": sorted(j_in_fp),
                "torsion_preserving": sorted(preserving),
                "sets_equal": j_in_fp == preserving,
            }
        )
    return [_section("canonical_witness_biconditional", witness), _section("torsion_lift_probe", probe, probes)]


def run(trials: int = 100, seed: int = 0xC11E) -> dict:
    if trials < 1:
        raise BadInputError(f"trials must be at least 1, not {trials}")
    rng = random.Random(seed)
    curves = find_anomalous(5, 5, count=2, seed=1)
    curve = curves[0]
    dc = DualCurve.canonical(curve)
    p, add = curve.p, curve.add
    pts = list(curve.points())
    base_pts = [P for P in pts if not P.is_infinity]
    errors = {}

    def lifted_point():
        return dc.compose(rng.choice(pts), rng.randrange(p))

    def solved(P, n, seeds):  # an error fails its instance, counted by code
        try:
            inst = DlpInstance(curve, P, curve.mul(n, P))
            return {solve(inst, m, seed=s).n for m, s in zip(_METHODS, seeds)} == {n}
        except DualPairError as exc:
            errors[exc.code] = errors.get(exc.code, 0) + 1
            return False

    sections = [
        _section(
            "base_group_law",
            (
                add(add(P, Q), R) == add(P, add(Q, R)) and add(P, Q) == add(Q, P)
                for P, Q, R in _triples(rng, pts, trials)
            ),
        ),
        _section(
            "lifted_group_law",
            (
                lift.add(lift.add(P, Q), R) == lift.add(P, lift.add(Q, R))
                for lift in (dc, DualCurve(curve, 1, 0), DualCurve(curve, 2, 3))
                for P, Q, R in _triples(rng, list(lift.points()), max(1, trials // 2))
            ),
        ),
        _section("decomposition_roundtrip", (dc.compose(*dc.decompose(Pt)) == Pt for Pt in dc.points())),
        # each draw on the default chain and on tail_chain(p, 2): at p = 5 the first ends 5 = 2 + 3, c_3 = c_2 at its
        # evaluation point, where a fold that read an add's first operand twice still agrees; the second ends 5 = 3 + 2
        _section(
            "pairing_three_way_agreement",
            (
                len({route(dc, P, k, chain=chain).a.value for route in (pairing_direct, pairing_semaev, pairing_rueck)}) == 1
                for P, k in [(rng.choice(base_pts), rng.randrange(1, p)) for _ in range(trials)]
                for chain in (None, tail_chain(p, 2))
            ),
        ),
        # non-degeneracy: every nonzero point pairs nontrivially with O_1
        _section("pairing_nondegenerate", (not pairing_rueck(dc, P, 1).is_one() for P in base_pts)),
        _section(
            "isogeny_functoriality",
            (
                check_functoriality(phi, lifted_point(), lifted_point())
                for phi in (multiplication_isogeny(curve, n) for n in (2, 3))
                for _ in range(max(4, trials // 10))
            ),
        ),
        *_lift_sections(curves),
    ]
    agreement = [
        solved(rng.choice(base_pts), rng.randrange(p), [rng.randrange(2**30) for _ in _METHODS])
        for _ in range(max(4, trials // 4))
    ]
    sections.append(_section("attack_agreement", agreement, {"errors": errors} if errors else None))
    return {
        "curve": curve.to_json(),
        "trials": trials,
        "seed": seed,
        "sections": sections,
        "pass": all(s["pass"] for s in sections),
    }
