"""Discrete-logarithm attacks on anomalous curves (#E(F_p) = p).

Given a generator P and a target Q = n*P, all four attacks recover n in
time polynomial in log p, by transporting the problem into the additive
group F_p^+ where division solves it.  All four read one additive
invariant, Rueck's slope sum S(P) (`pairing.rueck_slope_sum`), which is
nonzero off the identity:

* semaev  - n = c(Q) / c(P) with c(X) = (y * f_X'/f_X)(R), the additive
  invariant behind Semaev's map.  c(Q) is summed from Q's step values
  at one evaluation point; c(P) = S(P)/2, since SEMAEV_SIGN = SLOPE_SIGN
  and the two routes agree exactly.
* rueck   - n = S(Q) / S(P); needs no auxiliary or evaluation points at all.
* pairing - n = b/a where e_p(P, O_1) = 1 + a*eps and
  e_p(Q, O_1) = 1 + b*eps, with a = -S(P); bilinearity forces b = n*a.
  On E[p] x {O_k} e_p is e, so e(Q, O_1) is read by the rueck route.
* lift    - Smart's attack: lift P, Q to one lift y^2 = x^3 + (A + A1*eps)x
  + (B + B1*eps) of E off the scaling family (`has_scaling_witness`); then
  p*Pt = O_kP and p*Qt = O_kQ, and n*Pt - Qt lying in the kernel of
  reduction forces n*kP = kQ, so n = kQ/kP.  By the lift identity, which
  the tests check against the reference law exhaustively at small p,

      k = -3*(6B*A1 - 4A*B1) / (4*(4A^3 + 27B^2)) * S(P),

  so kP is read from the instance's S(P), and `DualCurve.mul` walks only Q
  on the base curve.  kP != 0 exactly off the scaling lifts, which
  `random_lift_coeffs` skips; one draw always serves, and kP = 0 is a
  broken draw or walk.

An instance is checked once, when built: Q on the curve, and p*P = O as
S(P), folded inside P's walk of the default chain for p with one
inversion (`miller.slope_walk`) and kept (`DlpInstance.slope_sum`).  All
four attacks read it and walk only Q.  The lift attack and
`AttackResult.verify` check neither point again: the one lifts and
multiplies Q by `DualCurve._lift_raw` and `_mul_raw`; the other takes n*P
by `Curve._mul_raw` below `curve.WINDOW_FROM`, and from it on tests
u*P - v*Q = O, with u = v*n (mod p) and u, v below sqrt(p)
(`numbertheory.half_euclid`), by one joint walk of the two half-length
scalars (`curve.jacobian_multi_mul`), which accepts the same n on a group
of prime order p.  The other attacks reach Q through
public routes, whose on-curve checks run on ints.  `DlpInstance` and
`AttackResult` are plain classes with frozen attributes and a frozen
dataclass's equality, hash and repr (`_Frozen`), so a process that loads
this module loads no `dataclasses` or `inspect`.
"""

from __future__ import annotations

import random
from functools import reduce

from .curve import WINDOW_FROM, Curve, Point, _certifies_anomalous, jacobian_multi_mul
from .dual_curve import DualCurve
from .errors import BadInputError, BadTorsionError, DualPairError, WitnessInconsistentError
from .fields import FpElement
from .numbertheory import half_euclid
from .pairing import SLOPE_SIGN, pairing_rueck, rueck_slope_sum, semaev_coefficient

DEFAULT_SEED = 0xD0A1


class _Frozen:
    """A record whose attributes are set once, in `__init__`, with equality, hash and
    repr over `_fields`, as a frozen dataclass has them; setting or deleting an
    attribute raises AttributeError."""

    _fields: tuple = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class DlpInstance(_Frozen):
    """An anomalous-curve discrete-log instance Q = n*P with n unknown.

    The checks run in order, once, in `__post_init__`, a method of its own so
    that the benchmark's tracer times them (`dlp.instance_check`): Q on the
    curve, P != infinity, then p*P = infinity as the end of P's walk in
    `rueck_slope_sum`, which also puts P on the curve; the sum is kept as
    `slope_sum`, out of the constructor, equality, hash and repr; the walk
    certifies #E = p (`curve._certifies_anomalous`).  The attacks and
    `AttackResult.verify` take P and Q as checked.
    """

    _fields = ("curve", "P", "Q")

    def __init__(self, curve: Curve, P: Point, Q: Point):
        self._set(curve=curve, P=P, Q=Q)
        self.__post_init__()

    def __post_init__(self):
        curve = self.curve
        curve._require_on_curve(self.Q)
        if self.P.is_infinity:
            raise BadTorsionError("the base point must generate, not be the identity")
        try:
            slope_sum = rueck_slope_sum(curve, self.P)
        except BadTorsionError:
            slope_sum = None
        if not _certifies_anomalous(curve, slope_sum is not None):
            raise BadTorsionError("the curve is not anomalous: p*P != infinity")
        self._set(slope_sum=slope_sum)


class AttackResult(_Frozen):
    """A recovered n, the attack's name, its lift retries and, for the lift attack, (A1, B1)."""

    _fields = ("n", "method", "retries", "lift")

    def __init__(self, n: int, method: str, retries: int = 0, lift: tuple[int, int] | None = None):
        self._set(n=n, method=method, retries=retries, lift=lift)

    def to_json(self) -> dict:
        out = {"n": str(self.n), "method": self.method, "retries": self.retries}
        if self.lift is not None:
            out["lift"] = {"A1": str(self.lift[0]), "B1": str(self.lift[1])}
        return out

    def verify(self, inst: DlpInstance) -> bool:
        """n*P = Q, with P and Q as the instance checked them; any int n.

        Below `WINDOW_FROM` this is `_mul_raw(n, P) == Q`.  From it on n*P is
        never formed.  The instance has Q on the curve, P != O, p*P = O and
        #E = p, so Q = m*P for one m mod p.  `half_euclid` gives u = v*n
        (mod p) with u^2 < p and 0 < v^2 <= p, so v != 0 (mod p), and
        u*P - v*Q = (u - v*m)*P is O exactly when m = n (mod p): the check
        accepts the same n as n*P = Q.  It is one walk of two half-length
        scalars (`jacobian_multi_mul`) and a test of its Z, with no
        inversion.  When n = 0 (mod p) or Q = O, n*P = Q exactly when both hold.
        """
        curve, P, Q = inst.curve, inst.P, inst.Q
        p = curve.p
        if p < WINDOW_FROM:
            return curve._mul_raw(self.n, P) == Q
        n = self.n % p
        if not n or Q.is_infinity:
            return not n and Q.is_infinity
        u, v = half_euclid(n, p)
        minus_vQ = (Q.x.value, Q.y.value if v < 0 else p - Q.y.value, 1)
        return not jacobian_multi_mul(p, curve.A.value, ((u, (P.x.value, P.y.value, 1)), (abs(v), minus_vQ)))[2]


def attack_semaev(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """n = c(Q)/c(P) from the logarithmic-derivative invariant, c(P) = S(P)/2; deterministic, seed unused."""
    if inst.Q.is_infinity:
        return AttackResult(0, "semaev")
    cp = inst.slope_sum / 2
    cq = semaev_coefficient(inst.curve, inst.Q)
    return AttackResult(int(cq / cp), "semaev")


def attack_rueck(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """n = slope_sum(Q)/slope_sum(P); deterministic, no auxiliary points."""
    sp = inst.slope_sum
    sq = rueck_slope_sum(inst.curve, inst.Q)
    return AttackResult(int(sq / sp), "rueck")


def attack_pairing(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """n = b/a from e_p(P, O_1) = 1 + a*eps, e_p(Q, O_1) = 1 + b*eps, read as e(P, O_1) and e(Q, O_1)."""
    a = SLOPE_SIGN * inst.slope_sum  # e(P, O_1) = 1 - S(P)*eps
    b = pairing_rueck(DualCurve.canonical(inst.curve), inst.Q, 1).a
    return AttackResult(int(b / a), "pairing")


def attack_lift(inst: DlpInstance, seed: int = DEFAULT_SEED) -> AttackResult:
    """Multiply lifted points by p on one non-scaling lift and divide in the group at infinity;
    p*P~ = O_kP is read from the instance, kP = lambda_L*S(P) (`DualCurve.slope_factor`)."""
    curve = inst.curve
    p = curve.p
    a1, b1 = DualCurve.canonical(curve).random_lift_coeffs(random.Random(seed))
    lift = DualCurve(curve, a1, b1)
    kP = lift.slope_factor() * inst.slope_sum
    if kP.is_zero():
        raise DualPairError("p*P~ = O_0 on a lift off the scaling family")
    pQt = lift._mul_raw(p, lift._lift_raw(inst.Q))  # Q as the instance checked it
    if not pQt.is_infinity:
        raise DualPairError("p*Q~ left the kernel of reduction")
    return AttackResult(int(pQt.k / kP), "lift", lift=(a1.value, b1.value))


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

    The witness is `has_scaling_witness`, (A1, B1) = k*(4A, 6B), and k is
    solved from whichever of 4kA = A1 and 6kB = B1 is nontrivial.  A lift
    without a witness whose j-value 4A~^3/(4A~^3 + 27B~^2) still lies in F_p
    is reported as WitnessInconsistentError; that can only happen on curves
    with A = 0 or B = 0, where the j-value is constant in the lift
    coefficients.
    """
    if not dc.has_scaling_witness():
        if dc.j_value().eps.is_zero():
            raise WitnessInconsistentError(
                "j-value lies in F_p but no scaling mu = 1 + k*eps matches both coefficients"
            )
        return False, None
    A, B = dc.base.A, dc.base.B
    return True, (dc.A1 / (4 * A) if not A.is_zero() else dc.B1 / (6 * B))


def torsion_preserving_lifts(curve: Curve) -> tuple[set, set]:
    """Exhaustive probe (tiny p): the lifts whose j-value stays in F_p and
    the lifts on which every lifted base point stays p-torsion.

    Returns (j_in_fp, torsion_preserving) as sets of (A1, B1) value pairs.
    By the lift identity (`attack_lift`) the second set is the scaling
    lifts, `has_scaling_witness`; for A*B != 0 so is the first.  p*lift(P)
    is p - 1 steps of `DualCurve.add`, as `mul` reads the identity.  Raises
    BadTorsionError unless #E(F_p) = p.
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
            if all(reduce(lift.add, [lift.lift(P)] * p).k.is_zero() for P in pts):
                preserving.add((a1, b1))
    return j_in_fp, preserving
