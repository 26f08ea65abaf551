"""The pairing between p-torsion and the points at infinity of the lift.

For an anomalous curve E (#E(F_p) = p) every rational point is p-torsion,
and on the canonical lift the p-torsion is E[p] together with the family
O_k = (k*eps : 1 : 0) at infinity.  The pairing of P in E[p] with O_k is
defined through Miller machinery as

    e(P, O_k) = prod over a chain of  h_{i,j}(O_k + R) / h_{i,j}(R)

for a fixed R in E[p] outside the 2-torsion, and equals 1 when P or O_k
is the identity.  Its values live in the p-th roots of unity
{1 + a*eps}, a group isomorphic to F_p under addition of the
a-coordinates, which is how `PairingValue` stores them.

Three routes compute the same value from one walk of P's chain (`_trace`):

* direct: e(P, O_k) = f_P(O_k + R) / f_P(R), folded from the exact step
  values h_{i,j} (`miller.step_values`) at (O_k + R) - T = S + O_k,
  S = R - T, whose eps parts are -2*y(S)*k and -(3*x(S)^2 + A)*k.  No
  analytic conventions enter; this is the package's ground truth.

* logarithmic derivative (Semaev's map): each ratio equals
  1 - 2*y(R) * (h'/h)(R) * k * eps, so the product telescopes to

      e(P, O_k) = 1 - 2*(y * f_P'/f_P)(R) * k * eps,

  with lam(P) = (f_P'/f_P)(R) the chain sum of (h'/h)(R), read from the
  eps parts of the same step values at S + O_1.  lam is additive and
  injective in P and never zero for P != infinity; y(R)*lam(P) is
  independent of R, of the divisor (equivalently of T), and of the chain.

* slope sum (Rueck's method): choosing the divisor (P) - (infinity) and
  evaluating at infinity with the uniformizer -x/y collapses the value to

      e(P, O_k) = 1 + (sum of chord/tangent slopes over the chain) * k * eps,

  with no evaluation point at all, hence no degenerate cases.  This is
  the default route.

Each public entry checks its inputs once, before any evaluation: P and a
caller's chain by P's walk, whose end point p*P is the p-torsion check; a
caller's R in `_check_eval_point`; T on the curve.  Below that everything
is plain ints, and the walk inverts nothing.  It is shared by every
evaluation and every retry at a fresh R, and S = R - T is computed once
per R.  Rueck inverts the Z of every chord step in one batch and sums the
slopes N/Z; semaev inverts the re parts of the step values in one batch;
direct multiplies them as dual numbers into one fraction, whose reduction
mod eps is f_P(R), and divides once.  No evaluation reads an affine point;
the multiples are made affine only to skip points on degenerate lines.

The scalar prefactors of the last two routes depend on orientation
conventions (line written as y - m*x - b, uniformizer -x/y); the signs
below were pinned once by matching the direct route on a single instance
and are re-verified globally by the cross-method agreement tests.

The pairing extends to the whole lifted p-torsion through the canonical
decomposition:  with Pt = P + O_k and Qt = Q + O_j,

    e_p(Pt, Qt) = e(P, O_j) * e(Q, O_k)^-1,

which is bilinear, antisymmetric, trivial on E[p] x E[p] and on pairs at
infinity, restricts to e on E[p] x {O_k}, and is non-degenerate.

On an anomalous curve the translation point T of the general Miller
setup cannot be taken outside the p-torsion.  That is harmless: the value
is divisor-independent (log-derivatives of p-th powers vanish in
characteristic p), so any T on E gives the same answer.  The default is
T at infinity, the divisor (P) - (infinity).
"""

from __future__ import annotations

import itertools
import operator
import random

from .curve import INFINITY, Curve, Point
from .dual_curve import DualCurve, DualPoint
from .errors import (
    BadInputError,
    BadTorsionError,
    DegenerateEvaluationError,
    NotCanonicalError,
    NotPTorsionError,
)
from .fields import DualNumber, Fp, FpElement, json_int
from .miller import (
    binary_chain,
    chain_trace,
    difference,
    eval_point,
    fold_trace,
    require_chain,
    require_on_curve,
    step_values,
    tail_chain,
    torsion_trace,
    trace_fraction,
)
from .numbertheory import batch_inverse

#: e(P, O_k) = 1 + SLOPE_SIGN * (chain slope sum) * k * eps
SLOPE_SIGN = -1
#: e(P, O_k) = 1 + SEMAEV_SIGN * 2 * (y * f'/f)(R) * k * eps
SEMAEV_SIGN = -1


class PairingValue:
    """An element 1 + a*eps of the p-th roots of unity of F_p[eps]."""

    __slots__ = ("a",)

    def __init__(self, a: FpElement):
        self.a = a

    def is_one(self) -> bool:
        return self.a.is_zero()

    def __mul__(self, other: "PairingValue") -> "PairingValue":
        return PairingValue(self.a + other.a)

    def inverse(self) -> "PairingValue":
        return PairingValue(-self.a)

    def __truediv__(self, other: "PairingValue") -> "PairingValue":
        return PairingValue(self.a - other.a)

    def __pow__(self, n: int) -> "PairingValue":
        return PairingValue(n * self.a)

    def as_dual(self) -> DualNumber:
        return DualNumber(self.a.field.one(), self.a)

    def __eq__(self, other):
        if not isinstance(other, PairingValue):
            return NotImplemented
        return self.a == other.a

    def __hash__(self):
        return hash(("pairing", self.a))

    def __repr__(self):
        return f"1 + {self.a}e"

    def to_json(self) -> dict:
        return {"one_plus_eps_times": str(self.a.value)}

    @staticmethod
    def from_json(field: Fp, obj: dict) -> "PairingValue":
        return PairingValue(field(json_int(obj["one_plus_eps_times"])))


# -- the boundary -----------------------------------------------------------------


def _trace(curve: Curve, P: Point, chain=None):
    """P's walk for p (binary chain by default), checked p-torsion; None for P = infinity.

    A caller's chain is validated here, once; the internal chains are valid
    by construction.
    """
    require_chain(curve.p, chain)
    if P.is_infinity:
        return None
    return torsion_trace(curve, P, chain if chain is not None else binary_chain(curve.p), curve.p)


def _check_eval_point(curve: Curve, R: Point) -> tuple:
    """R as an (x, y) int pair, once it is checked to be affine, outside E[2] and p-torsion."""
    if R.is_infinity or R.y.is_zero():
        raise BadInputError("evaluation point must be affine and outside the 2-torsion")
    if not curve.mul(curve.p, R).is_infinity:
        raise BadInputError("evaluation point must be p-torsion")
    return R.x.value, R.y.value


def _boundary(curve: Curve, P: Point, R: Point | None, T: Point | None, chain) -> tuple:
    """(P's `_trace`, R, T), each input checked once, R and T as int pairs
    (None: no caller R, T at infinity)."""
    trace = _trace(curve, P, chain)
    R = None if R is None else _check_eval_point(curve, R)
    return trace, R, require_on_curve(curve, T or INFINITY, "translation point T")


# -- the three routes ----------------------------------------------------------


def _direct_value(trace, point: tuple) -> PairingValue:
    """f_P(O_k + R) / f_P(R) at the `eval_point` tuple of (O_k + R) - T; raises on degenerate lines.

    f_P(R) is the reduction mod eps of f_P(O_k + R) = (nr + ne*eps)/(dr + de*eps),
    so the ratio is 1 + (ne/nr - de/dr)*eps, with one inversion.
    """
    p = trace.field.p
    (nr, ne), (dr, de) = trace_fraction(trace, p, point)
    return PairingValue(trace.field((ne * dr - nr * de) * pow(nr * dr, -1, p)))


def _log_derivative_value(trace, point: tuple) -> FpElement:
    """(y * f_P'/f_P)(R) at the `eval_point` tuple of S + O_1, S = R - T; raises on degenerate lines.

    At S + O_1 the eps part of a function g is -2*y(S)*(dg/dx)(S), so each step
    gives y(R) * (h'/h)(R) = -(eps/re of h's numerator - eps/re of its
    denominator)/2 from `step_values`; the re parts are inverted in one batch.
    """
    p = trace.field.p
    if not point[1]:
        raise DegenerateEvaluationError("translated evaluation point hit the 2-torsion")
    parts = [side for value in step_values(trace, point) for side in value]
    ratios = [eps * inv for (_, eps), inv in zip(parts, batch_inverse([re for re, _ in parts], p))]
    logs = [num - den for num, den in zip(ratios[::2], ratios[1::2])]
    return trace.field(fold_trace(trace, p, 0, operator.add, logs) * ((p - 1) // 2))  # (p - 1)/2 = -1/2 mod p


def rueck_slope_sum(curve: Curve, P: Point, chain=None) -> FpElement:
    """Sum of chord/tangent slopes over a chain for p with divisor (P) - (inf).

    Pure slope bookkeeping: vertical steps contribute nothing and no point
    is ever evaluated, so the computation is total.
    """
    trace = _trace(curve, P, chain)
    if trace is None:
        return curve.field.zero()
    zinv = iter(batch_inverse([trace.jac[k][2] for k, _, _, N in trace.steps if N is not None], curve.p))
    slopes = [0 if N is None else N * next(zinv) for *_, N in trace.steps]
    return curve.field(fold_trace(trace, curve.p, 0, operator.add, slopes))


# -- retry policy ---------------------------------------------------------------


def _eval_points(curve: Curve, rng: random.Random):
    """One random point of E, then every point in order, skipping infinity and the 2-torsion."""
    for R in itertools.chain([curve.random_point(rng)], curve.points()):
        if not (R.is_infinity or R.y.is_zero()):
            yield R.x.value, R.y.value


def _vanishing_points(trace) -> set:
    """The affine (x, y) where a line of the trace vanishes: iP, jP and -(i+j)P
    for a chord, +-kP for the vertical x = x_k, and +-iP for a step to O."""
    p, out, affine = trace.field.p, set(), trace.affine()
    for k, i, j, N in trace.steps:
        if affine[i] and affine[j]:
            x, y = affine[i if N is None else k]
            out.update((affine[i], affine[j], (x, y), (x, -y % p)))
    return out


def _with_retries(curve: Curve, P: Point, trace, chain, R: tuple | None, T: tuple | None, rng: random.Random | None, evaluate):
    """evaluate(trace, S) with S = R - T on the int pairs of `_boundary`, at
    a caller's R, else over the fallback ladder; S is computed once per R.

    The ladder varies the evaluation point first and the chain second; only
    the evaluation is retried, never the walk.  Its rungs are P's trace and,
    unless the caller fixed the chain, tail_chain(p, 3): over every
    anomalous curve with p <= 13, every P and every T, the binary chain
    always succeeds for p >= 11, and no tail chain with c >= 5 succeeds
    where c = 3 fails.  Each rung tries one random R and then every point
    of E in order.  Once a rung has degenerated, an R with S at infinity or
    on one of its lines is skipped unfolded.
    """
    p, a = curve.p, curve.A.value
    if R is not None:
        return evaluate(trace, difference(p, a, R, T))
    rng = rng or random.Random(0x7A1F ^ p)
    # a caller-fixed chain is the only rung; the tail chain is walked when reached
    tails = [] if chain is not None else [3]
    rungs = itertools.chain([trace], (chain_trace(curve, P, tail_chain(p, c)) for c in tails))
    last = None
    for rung in rungs:
        vanishing = None
        for Rc in _eval_points(curve, rng):
            S = difference(p, a, Rc, T)
            if vanishing and (S is None or S in vanishing):
                continue
            try:
                return evaluate(rung, S)
            except DegenerateEvaluationError as exc:
                last, vanishing = exc, vanishing or _vanishing_points(rung)
    raise DegenerateEvaluationError(f"all evaluation configurations degenerate: {last}")


# -- public pairing surface -------------------------------------------------------


def pairing_direct(dc: DualCurve, P: Point, k, R: Point | None = None, chain=None, T: Point | None = None, rng=None) -> PairingValue:
    """e(P, O_k) = f_P(O_k + R) / f_P(R) by dual-number evaluation at (O_k + R) - T."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    curve = dc.base
    k = curve.field(k)
    trace, R, T = _boundary(curve, P, R, T, chain)
    if trace is None or k.is_zero():
        return PairingValue(curve.field.zero())
    p, a = curve.p, curve.A.value
    return _with_retries(curve, P, trace, chain, R, T, rng, lambda tr, S: _direct_value(tr, eval_point(p, a, S, k.value)))


def semaev_log_derivative(curve: Curve, P: Point, R: Point, T: Point | None = None, chain=None) -> FpElement:
    """Semaev's map lam(P) = (f_P'/f_P)(R); additive and injective in P."""
    return semaev_coefficient(curve, P, R=R, T=T, chain=chain) / R.y


def semaev_coefficient(curve: Curve, P: Point, rng=None, R: Point | None = None, T: Point | None = None, chain=None) -> FpElement:
    """The R-independent combination (y * f_P'/f_P)(R).

    This is the scalar that multiplies -2*k*eps in the pairing; computing
    it through different R just rescales lam by y(R)'s reciprocal.
    """
    trace, R, T = _boundary(curve, P, R, T, chain)
    if trace is None:
        return curve.field.zero()
    p, a = curve.p, curve.A.value
    return _with_retries(curve, P, trace, chain, R, T, rng, lambda tr, S: _log_derivative_value(tr, eval_point(p, a, S, 1)))


def pairing_semaev(dc: DualCurve, P: Point, k, R: Point | None = None, T: Point | None = None, chain=None, rng=None) -> PairingValue:
    """e(P, O_k) through the logarithmic-derivative formula."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    curve = dc.base
    k = curve.field(k)
    if k.is_zero():  # no evaluation, but the inputs are still checked
        _boundary(curve, P, R, T, chain)
        return PairingValue(curve.field.zero())
    return PairingValue(SEMAEV_SIGN * 2 * semaev_coefficient(curve, P, rng=rng, R=R, T=T, chain=chain) * k)


def pairing_rueck(dc: DualCurve, P: Point, k, chain=None) -> PairingValue:
    """e(P, O_k) as 1 + (slope sum)*k*eps; total, no auxiliary points."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    return PairingValue(SLOPE_SIGN * rueck_slope_sum(dc.base, P, chain) * dc.field(k))


_THETA_METHODS = {
    "direct": lambda dc, P, k, rng: pairing_direct(dc, P, k, rng=rng),
    "semaev": lambda dc, P, k, rng: pairing_semaev(dc, P, k, rng=rng),
    "rueck": lambda dc, P, k, rng: pairing_rueck(dc, P, k),
}


def _route(method: str):
    """The route named `method`, checked once at a public entry."""
    try:
        return _THETA_METHODS[method]
    except KeyError:
        raise BadInputError(f"unknown pairing method {method!r}") from None


def theta_pairing(dc: DualCurve, P: Point, k, method: str = "rueck", rng=None) -> PairingValue:
    """e(P, O_k) by the chosen route (they agree exactly)."""
    return _route(method)(dc, P, dc.field(k), rng)


def _theta_coefficient(dc: DualCurve, P: Point, route, rng) -> FpElement:
    """The a-coordinate of e(P, O_1)."""
    try:
        return route(dc, P, dc.field.one(), rng).a
    except BadTorsionError:
        raise NotPTorsionError(f"{P} is not p-torsion, so its lift is not either") from None


def lifted_pairing(dc: DualCurve, Pt: DualPoint, Qt: DualPoint, method: str = "rueck", rng=None) -> PairingValue:
    """The full pairing e_p on the p-torsion of the canonical lift.

    Decomposes Pt = P + O_k, Qt = Q + O_j and returns
    e(P, O_j) * e(Q, O_k)^-1, which realizes bilinearity, antisymmetry,
    triviality on E[p] x E[p] and at infinity, and the restriction to e.
    """
    route = _route(method)
    if not dc.is_canonical():
        raise NotCanonicalError("the p-pairing lives on the canonical lift")
    P, k = dc.decompose(Pt)
    Q, j = dc.decompose(Qt)
    a = _theta_coefficient(dc, P, route, rng) * j - _theta_coefficient(dc, Q, route, rng) * k
    return PairingValue(a)
