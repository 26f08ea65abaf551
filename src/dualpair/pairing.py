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

Three independent routes compute the same value:

* direct: e(P, O_k) = f_P(O_k + R) / f_P(R), both values folded over the
  chain with dual-number arithmetic, O_k + R coming from the explicit
  infinity-translation formula.  No analytic conventions enter; this is
  the package's ground truth.

* logarithmic derivative (Semaev's map): each ratio equals
  1 - 2*y(R) * (h'/h)(R) * k * eps, so the product telescopes to

      e(P, O_k) = 1 - 2*(y * f_P'/f_P)(R) * k * eps,

  with lam(P) = (f_P'/f_P)(R) computed as the chain sum of (h'/h)(R).
  lam is additive and injective in P and never zero for P != infinity;
  the combination y(R)*lam(P) is independent of R, of the divisor
  (equivalently of T), and of the chain.

* slope sum (Rueck's method): choosing the divisor (P) - (infinity) and
  evaluating at infinity with the uniformizer -x/y collapses the value to

      e(P, O_k) = 1 + (sum of chord/tangent slopes over the chain) * k * eps,

  with no evaluation point at all, hence no degenerate cases.  This is
  the default route.

All three routes fold over one trace of P along the chain
(`miller.chain_trace`), whose end point p*P is the p-torsion check; the
trace is shared by every evaluation and every retry at a fresh R.  The
trace is a Jacobian walk on plain ints with one batched inversion, and
each fold inverts once more: rueck sums the int slopes and needs no
inversion at all, semaev checks every line value nonzero and inverts them
in one batch, and direct carries f_P(O_k + R) as one dual-number fraction,
whose reduction mod eps is f_P(R), and divides once.

The scalar prefactors of the last two routes depend on orientation
conventions (line written as y - m*x - b, uniformizer -x/y); the signs
below were pinned once by matching the direct route on a single instance
and are re-verified globally by the cross-method agreement tests.

The pairing extends to the whole lifted p-torsion through the canonical
decomposition:  with Pt = P + O_k and Qt = Q + O_j,

    e_p(Pt, Qt) = e(P, O_j) * e(Q, O_k)^-1,

which is bilinear, antisymmetric, trivial on E[p] x E[p] and on pairs at
infinity, restricts to e on E[p] x {O_k}, and is non-degenerate.

On an anomalous curve over F_p there is no rational point outside E[p]
(the whole group is p-torsion), so the auxiliary translation point T of
the general Miller setup cannot be taken outside the torsion.  That is
harmless: log-derivatives of p-th powers vanish in characteristic p, so
the value is divisor-independent, and any rational T (including T at
infinity, i.e. the divisor (P) - (infinity)) gives the same answer.  The
default is T at infinity; a second divisor variant with random affine T
is exercised by the independence tests.
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
from .fields import DualNumber, Fp, FpElement
from .miller import (
    binary_chain,
    chain_trace,
    fold_trace,
    line_value,
    shift,
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
        return PairingValue(field(int(obj["one_plus_eps_times"])))


# -- the chain trace -------------------------------------------------------------


def _trace(curve: Curve, P: Point, chain=None):
    """P's walk for p (binary chain by default), checked p-torsion; None for P = infinity."""
    if P.is_infinity:
        return None
    return torsion_trace(curve, P, chain if chain is not None else binary_chain(curve.p), curve.p)


def _check_eval_point(curve: Curve, R: Point):
    if R.is_infinity or R.y.is_zero():
        raise BadInputError("evaluation point must be affine and outside the 2-torsion")
    if not curve.mul(curve.p, R).is_infinity:
        raise BadInputError("evaluation point must be p-torsion")


# -- the three routes ----------------------------------------------------------


def _direct_value(dc: DualCurve, trace, k: FpElement, R: Point, T: Point) -> PairingValue:
    """f_P(O_k + R) / f_P(R) in F_p[eps] with one inversion; raises on degenerate lines.

    f_P(R) is the reduction mod eps of f_P(O_k + R) = (nr + ne*eps)/(dr + de*eps),
    so the ratio is 1 + (ne/nr - de/dr)*eps.
    """
    curve = dc.base
    p = curve.p
    (nr, ne), (dr, de) = trace_fraction(curve, trace, p, T, dc.translate(dc.embed(R), k))
    return PairingValue(curve.field((ne * dr - nr * de) * pow(nr * dr, -1, p)))


def _log_derivative_value(curve: Curve, trace, R: Point, T: Point) -> FpElement:
    """(f_P'/f_P)(R) as a chain sum of (h'/h)(R); raises on degenerate lines.

    For h = (l/v) o tau the invariant differential gives
    (h'/h)(R) = (y(S)/y(R)) * [ (y'(S) - m)/l(S) - 1/v(S) ]   with S = R - T,
    and for the pure vertical step h = v o tau it gives
    (h'/h)(R) = (y(S)/y(R)) / v(S).  Every line value is checked nonzero,
    then all of them, y(R) and 2*y(S) are inverted in one batch.
    """
    S = shift(curve, R, T)
    if S.y.is_zero():
        raise DegenerateEvaluationError("translated evaluation point hit the 2-torsion")
    p = curve.p
    coords = S.x.value, S.y.value, 0, 0, p
    denominators = [R.y.value, 2 * S.y.value]
    for _, _, _, lines in trace.steps:
        for line in lines or ():
            if line is not None:
                denominators.append(line_value(line, *coords)[0])
    inverses = iter(batch_inverse(denominators, p))
    y_ratio = S.y.value * next(inverses)
    y_slope_S = (3 * S.x.value**2 + curve.A.value) * next(inverses) % p
    values = []
    for _, _, _, lines in trace.steps:
        if lines is None:
            values.append(0)
        elif lines[1] is None:
            values.append(next(inverses))
        else:
            inv_l, inv_v = next(inverses), next(inverses)
            values.append((y_slope_S - lines[0].m) * inv_l - inv_v)
    return curve.field(y_ratio * fold_trace(trace, p, 0, operator.add, values))


def rueck_slope_sum(curve: Curve, P: Point, chain=None) -> FpElement:
    """Sum of chord/tangent slopes over a chain for p with divisor (P) - (inf).

    Pure slope bookkeeping: vertical steps contribute nothing and no point
    is ever evaluated, so the computation is total.
    """
    trace = _trace(curve, P, chain)
    if trace is None:
        return curve.field.zero()
    slopes = [0 if lines is None or lines[1] is None else lines[0].m for _, _, _, lines in trace.steps]
    return curve.field(fold_trace(trace, curve.p, 0, operator.add, slopes))


# -- retry policy ---------------------------------------------------------------


def _eval_points(curve: Curve, rng: random.Random):
    """One random point of E, then every point in order, skipping infinity and the 2-torsion.

    The stream goes past its first point only where a line of the chain
    vanishes, so the scan is bounded: a line vanishes at no more than three
    points, and lines vanishing at every point take a chain of about p/4
    steps, which in practice happens only at p = 5 and 7.
    """
    for R in itertools.chain([curve.random_point(rng)], curve.points()):
        if not (R.is_infinity or R.y.is_zero()):
            yield R


def _with_retries(curve: Curve, P: Point, trace, chain, R: Point | None, rng: random.Random | None, evaluate):
    """evaluate(trace, R) at a caller-supplied R, else over the fallback ladder.

    The ladder varies the evaluation point first and the chain second; only
    the evaluation is retried, never the walk.  Each rung tries one random R
    and then every point of E in order, which makes the computation total
    whenever any valid configuration exists.
    """
    if R is not None:
        _check_eval_point(curve, R)
        return evaluate(trace, R)
    rng = rng or random.Random(0x7A1F ^ curve.p)
    # a caller-fixed chain is the only rung; tail chains are walked when reached
    tails = [] if chain is not None else [c for c in (3, 5, 7, 9, 11, 13) if c < curve.p]
    rungs = itertools.chain([trace], (chain_trace(curve, P, tail_chain(curve.p, c)) for c in tails))
    last = None
    for rung in rungs:
        for Rc in _eval_points(curve, rng):
            try:
                return evaluate(rung, Rc)
            except DegenerateEvaluationError as exc:
                last = exc
    raise DegenerateEvaluationError(f"all evaluation configurations degenerate: {last}")


# -- public pairing surface -------------------------------------------------------


def pairing_direct(dc: DualCurve, P: Point, k, R: Point | None = None, chain=None, T: Point | None = None, rng=None) -> PairingValue:
    """e(P, O_k) = f_P(O_k + R) / f_P(R) by dual-number evaluation."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    curve = dc.base
    k = curve.field(k)
    trace = _trace(curve, P, chain)
    if trace is None or k.is_zero():
        return PairingValue(curve.field.zero())
    T = T or INFINITY
    return _with_retries(curve, P, trace, chain, R, rng, lambda tr, Rc: _direct_value(dc, tr, k, Rc, T))


def semaev_log_derivative(curve: Curve, P: Point, R: Point, T: Point | None = None, chain=None) -> FpElement:
    """Semaev's map lam(P) = (f_P'/f_P)(R); additive and injective in P."""
    trace = _trace(curve, P, chain)
    _check_eval_point(curve, R)
    if trace is None:
        return curve.field.zero()
    return _log_derivative_value(curve, trace, R, T or INFINITY)


def semaev_coefficient(curve: Curve, P: Point, rng=None, R: Point | None = None, T: Point | None = None, chain=None) -> FpElement:
    """The R-independent combination (y * f_P'/f_P)(R).

    This is the scalar that multiplies -2*k*eps in the pairing; computing
    it through different R just rescales lam by y(R)'s reciprocal.
    """
    trace = _trace(curve, P, chain)
    if trace is None:
        return curve.field.zero()
    T = T or INFINITY
    return _with_retries(curve, P, trace, chain, R, rng, lambda tr, Rc: Rc.y * _log_derivative_value(curve, tr, Rc, T))


def pairing_semaev(dc: DualCurve, P: Point, k, R: Point | None = None, T: Point | None = None, chain=None, rng=None) -> PairingValue:
    """e(P, O_k) through the logarithmic-derivative formula."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    curve = dc.base
    k = curve.field(k)
    if k.is_zero():
        _trace(curve, P, chain)  # still rejects P outside the p-torsion
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


def theta_pairing(dc: DualCurve, P: Point, k, method: str = "rueck", rng=None) -> PairingValue:
    """e(P, O_k) by the chosen route (they agree exactly)."""
    try:
        impl = _THETA_METHODS[method]
    except KeyError:
        raise BadInputError(f"unknown pairing method {method!r}") from None
    return impl(dc, P, dc.field(k), rng)


def _theta_coefficient(dc: DualCurve, P: Point, method: str, rng) -> FpElement:
    """The a-coordinate of e(P, O_1)."""
    if P.is_infinity:
        return dc.field.zero()
    try:
        return theta_pairing(dc, P, 1, method, rng).a
    except BadTorsionError:
        raise NotPTorsionError(f"{P} is not p-torsion, so its lift is not either") from None


def lifted_pairing(dc: DualCurve, Pt: DualPoint, Qt: DualPoint, method: str = "rueck", rng=None) -> PairingValue:
    """The full pairing e_p on the p-torsion of the canonical lift.

    Decomposes Pt = P + O_k, Qt = Q + O_j and returns
    e(P, O_j) * e(Q, O_k)^-1, which realizes bilinearity, antisymmetry,
    triviality on E[p] x E[p] and at infinity, and the restriction to e.
    """
    if not dc.is_canonical():
        raise NotCanonicalError("the p-pairing lives on the canonical lift")
    P, k = dc.decompose(Pt)
    Q, j = dc.decompose(Qt)
    if method not in _THETA_METHODS:  # points outside the p-torsion are reported first
        for X in (P, Q):
            _theta_coefficient(dc, X, "rueck", rng)
    a = _theta_coefficient(dc, P, method, rng) * j - _theta_coefficient(dc, Q, method, rng) * k
    return PairingValue(a)
