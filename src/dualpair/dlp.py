"""Discrete-logarithm attacks on anomalous curves (#E(F_p) = p).

Given a generator P and a target Q = n*P, all four attacks recover n in
time polynomial in log p, by transporting the problem into the additive
group F_p^+ where division solves it:

* semaev  - n = c(Q) / c(P) with c(X) = (y * f_X'/f_X)(R), the additive
  invariant behind Semaev's map.  c is additive in X and nonzero off the
  identity, so the attack is total.  c(Q) is summed from Q's step values
  at one evaluation point; c(P) = S(P)/2, half of P's slope sum, since
  SEMAEV_SIGN = SLOPE_SIGN and the two routes agree exactly.
* rueck   - the same quantity computed as a chain slope sum; needs no
  auxiliary or evaluation points at all.
* pairing - n = b/a where e_p(P, O_1) = 1 + a*eps and
  e_p(Q, O_1) = 1 + b*eps; bilinearity forces b = n*a, and
  non-degeneracy gives a != 0.
* lift    - lift P, Q to a random non-canonical lift of E over the dual
  numbers; then p*Pt = O_{kP} and p*Qt = O_{kQ} with kP generically
  nonzero, and n*Pt - Qt lying in the kernel of reduction forces
  n*kP = kQ, so n = kQ/kP.  Lifts reachable from the canonical one by a
  coordinate change mu = 1 + k*eps provably keep p-torsion p-torsion and
  are rejected up front (for A*B != 0 those are exactly the lifts whose
  j-value stays in F_p); whether any other lift can still preserve
  torsion is conjectural, so a retry budget guards the kP != 0 check.

An instance is checked once, when built: its check p*P = O is P's walk
along the default chain for p, which it keeps (`DlpInstance.trace`).  The
semaev, rueck and pairing attacks read P's slope sum S(P) off that walk and
walk only Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .curve import Curve, Point, count_points
from .dual_curve import DualCurve, DualPoint
from .errors import (
    BadInputError,
    BadTorsionError,
    DualPairError,
    LiftDegenerateError,
    WitnessInconsistentError,
)
from .fields import FpElement
from .miller import ChainTrace
from .pairing import (
    SLOPE_SIGN,
    _rueck_from_trace,
    _trace,
    lifted_pairing,
    rueck_slope_sum,
    semaev_coefficient,
)

DEFAULT_SEED = 0xD0A1


@dataclass(frozen=True)
class DlpInstance:
    """An anomalous-curve discrete-log instance Q = n*P with n unknown.

    The checks run in order: Q on the curve, P != infinity, then p*P =
    infinity as P's `pairing._trace`, kept as `trace` and left out of the
    constructor, equality, hash and repr.
    """

    curve: Curve
    P: Point
    Q: Point
    trace: ChainTrace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        curve = self.curve
        curve._require_on_curve(self.Q)
        if self.P.is_infinity:
            raise BadTorsionError("the base point must generate, not be the identity")
        try:
            trace = _trace(curve, self.P)
        except BadTorsionError:
            trace = None
        # Hasse: for p >= 7 only p lies in [p+1-2*sqrt(p), p+1+2*sqrt(p)], so a point
        # of order p makes #E = p; below 7 the interval also holds 2p, so count
        if trace is None or (curve.p < 7 and count_points(curve) != curve.p):
            raise BadTorsionError("the curve is not anomalous: p*P != infinity")
        object.__setattr__(self, "trace", trace)


@dataclass(frozen=True)
class AttackResult:
    n: int
    method: str
    retries: int = 0
    lift: tuple[int, int] | None = None

    def to_json(self) -> dict:
        out = {"n": str(self.n), "method": self.method, "retries": self.retries}
        if self.lift is not None:
            out["lift"] = {"A1": str(self.lift[0]), "B1": str(self.lift[1])}
        return out

    def verify(self, inst: DlpInstance) -> bool:
        return inst.curve.mul(self.n, inst.P) == inst.Q


def attack_semaev(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """n = c(Q)/c(P) from the logarithmic-derivative invariant, c(P) = S(P)/2; deterministic, seed unused."""
    if inst.Q.is_infinity:
        return AttackResult(0, "semaev")
    cp = _rueck_from_trace(inst.trace) / 2
    cq = semaev_coefficient(inst.curve, inst.Q)
    return AttackResult(int(cq / cp), "semaev")


def attack_rueck(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """n = slope_sum(Q)/slope_sum(P); deterministic, no auxiliary points."""
    sp = _rueck_from_trace(inst.trace)
    sq = rueck_slope_sum(inst.curve, inst.Q)
    return AttackResult(int(sq / sp), "rueck")


def attack_pairing(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """n = b/a from e_p(P, O_1) = 1 + a*eps, e_p(Q, O_1) = 1 + b*eps."""
    dc = DualCurve.canonical(inst.curve)
    a = SLOPE_SIGN * _rueck_from_trace(inst.trace)  # lifted_pairing(dc, dc.embed(P), O_1).a, as embed(P) = P + O_0
    b = lifted_pairing(dc, dc.embed(inst.Q), DualPoint.infinity(dc.field.one())).a
    return AttackResult(int(b / a), "pairing")


#: Lift resamples before concluding the instance is lift-degenerate.
LIFT_RETRY_BUDGET = 8


def attack_lift(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """Multiply lifted points by p and divide in the group at infinity."""
    rng = random.Random(seed)
    curve = inst.curve
    p = curve.p
    canonical = DualCurve.canonical(curve)
    for attempt in range(LIFT_RETRY_BUDGET):
        a1, b1 = canonical.random_lift_coeffs(rng)
        lift = DualCurve(curve, a1, b1)
        pPt = lift.mul(p, lift.lift(inst.P))
        if not pPt.is_infinity:
            raise DualPairError("p*P~ left the kernel of reduction")
        if pPt.k.is_zero():
            continue  # p-torsion survived this lift; conjecturally scaling lifts only
        pQt = lift.mul(p, lift.lift(inst.Q))
        if not pQt.is_infinity:
            raise DualPairError("p*Q~ left the kernel of reduction")
        n = int(pQt.k / pPt.k)
        return AttackResult(n, "lift", retries=attempt, lift=(a1.value, b1.value))
    raise LiftDegenerateError(
        f"{LIFT_RETRY_BUDGET} sampled lifts all preserved p-torsion"
    )


_ATTACKS = {
    "semaev": attack_semaev,
    "rueck": attack_rueck,
    "pairing": attack_pairing,
    "lift": attack_lift,
}


def solve(inst: DlpInstance, method: str = "rueck", seed: int = DEFAULT_SEED) -> AttackResult:
    """Recover n by the chosen attack; the result is checked, n*P = Q, before it is returned."""
    try:
        impl = _ATTACKS[method]
    except KeyError:
        raise BadInputError(f"unknown attack method {method!r}") from None
    result = impl(inst, seed)
    if not result.verify(inst):
        raise DualPairError(f"the {method} attack returned n = {result.n}, but n*P != Q")
    return result


def canonical_witness(dc: DualCurve) -> tuple[bool, FpElement | None]:
    """Decide whether a lift is a coordinate change mu = 1 + k*eps of the
    canonical lift, returning (True, k) or (False, None).

    The test is whether the j-value 4A~^3/(4A~^3 + 27B~^2) has zero eps
    part; when it does, k is solved from 4kA = A1 and 6kB = B1 (whichever
    equations are nontrivial) and the transform mu^4 A = A~, mu^6 B = B~
    is verified.  A zero eps part with no consistent k is reported as
    WitnessInconsistentError; that can only happen on curves with A = 0
    or B = 0, where the j-value is constant in the lift coefficients.
    """
    if not dc.j_value().eps.is_zero():
        return False, None
    f = dc.field
    A, B = dc.base.A, dc.base.B
    if not A.is_zero():
        k = dc.A1 / (4 * A)
    elif not B.is_zero():
        k = dc.B1 / (6 * B)
    else:  # unreachable: 4A^3 + 27B^2 != 0
        raise AssertionError("singular base curve")
    # mu = 1 + k*eps, so mu^4 = 1 + 4k*eps and mu^6 = 1 + 6k*eps
    if 4 * k * A != dc.A1 or 6 * k * B != dc.B1:
        raise WitnessInconsistentError(
            "j-value lies in F_p but no scaling mu = 1 + k*eps matches both coefficients"
        )
    return True, k


def torsion_preserving_lifts(curve: Curve) -> tuple[set, set]:
    """Exhaustive probe (tiny p): compare the lifts whose j-value stays in
    F_p with the lifts on which every lifted base point stays p-torsion.

    Returns (j_in_fp, torsion_preserving) as sets of (A1, B1) value pairs.
    The two sets coinciding is conjectural, so callers report rather than
    assert it.  Raises BadTorsionError unless #E(F_p) = p.
    """
    p = curve.p
    pts = [P for P in curve.points() if not P.is_infinity]
    if len(pts) + 1 != p:
        raise BadTorsionError(f"the curve is not anomalous: #E(F_p) = {len(pts) + 1}, not p = {p}")
    j_in_fp = set()
    preserving = set()
    for a1 in range(p):
        for b1 in range(p):
            lift = DualCurve(curve, a1, b1)
            if lift.j_value().eps.is_zero():
                j_in_fp.add((a1, b1))
            if all(lift.mul(p, lift.lift(P)).k.is_zero() for P in pts):
                preserving.add((a1, b1))
    return j_in_fp, preserving
