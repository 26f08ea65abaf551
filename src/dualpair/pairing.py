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

* direct: e(P, O_k) = f_P(O_k + R) / f_P(R), folded from the step values
  h_{i,j} (`miller.scaled_step_values`) at (O_k + R) - T = S + O_k,
  S = R - T, whose eps parts are -2*y(S)*k and -(3*x(S)^2 + A)*k.  No
  analytic conventions enter; this is the package's ground truth.

* logarithmic derivative (Semaev's map): each ratio equals
  1 - 2*y(R) * (h'/h)(R) * k * eps, so the product telescopes to

      e(P, O_k) = 1 - 2*(y * f_P'/f_P)(R) * k * eps,

  with lam(P) = (f_P'/f_P)(R) the sum of (h'/h)(R) folded along the walk,
  l_k = l_i + l_j + (h_{i,j}'/h_{i,j})(R) for each step k = i + j, each
  read from the eps/re ratio of the same step values at S + O_1.  lam is
  additive and injective in P and never zero for P != infinity; y(R)*lam(P) is
  independent of R, of the divisor (equivalently of T), and of the chain.

* slope sum (Rueck's method): choosing the divisor (P) - (infinity) and
  evaluating at infinity with the uniformizer -x/y collapses the value to

      e(P, O_k) = 1 + (sum of chord/tangent slopes over the chain) * k * eps,

  with no evaluation point at all, hence no degenerate cases.  This is
  the default route.

Each public entry checks its inputs once, before any value is returned: P
and a caller's chain by P's walk, whose end point p*P is the p-torsion check,
then a caller's R, then T on the curve; the direct and semaev routes do
this and find their one point S + O_k in `_evaluation` (or `_walked`).  Below
that everything is plain ints, and the walk inverts nothing.  Every route
reads the chain's `miller.Chain` record: the walk its steps, and the
evaluation its evaluation multiple s.
Without a caller's R the evaluation point comes from the chain, not from a
search: P has order p, so every line of the walk meets E only at multiples
of P, and S = sP is taken for the smallest s on none of them; the default
chain's record, s included, is built once per p, so P is walked once per
call at every p.  Nothing is drawn at random, and the routes are
deterministic.  Each reading inverts once.
Rueck folds the chord steps' slopes N/Z along the walk, carrying each
multiple's sum times its Z, and divides once (`miller.slope_sum`).  Semaev
folds the scaled step values' ratios h_eps/h_re along the walk in the same
way, c_k = c_i + c_j + h_eps/h_re, as fractions, three products a doubling
and six an add, and divides once (`miller.ratio_fold`).
Direct multiplies the scaled step values, each chord line read through
its step's own multiple -kP, as dual numbers into one product f, whose
ratio f_eps/f_re is the pairing's a (`miller.product_fold`).  No
evaluation reads an affine multiple of the walk.  On the default chain
below 2^32 each route folds inside one walk on local ints, with no trace
(`miller.slope_walk`): rueck for P != O, semaev and direct as `_walked`
says.  The slope sum S(P) is the one invariant behind every reading of P:
e(P, O_1) = 1 - S(P)*eps, and as SEMAEV_SIGN = SLOPE_SIGN and the routes
agree exactly, Semaev's coefficient of P is S(P)/2.  So `dlp.DlpInstance`
checks p*P = O by computing S(P) and keeps that one field element for the
attacks.

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

from .curve import INFINITY, WINDOW_FROM, Curve, Point, scalar_mul
from .dual_curve import DualCurve, DualPoint
from .errors import (
    BadInputError,
    BadTorsionError,
    DegenerateEvaluationError,
    NotCanonicalError,
    NotPTorsionError,
)
from .fields import Fp, FpElement, json_int
from .miller import (
    chain_for,
    difference,
    eval_point,
    product_fold,
    ratio_fold,
    require_on_curve,
    scaled_step_values,
    slope_sum,
    slope_walk,
    torsion_trace,
)

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
        if not isinstance(other, PairingValue):
            return NotImplemented
        return PairingValue(self.a + other.a)

    def inverse(self) -> "PairingValue":
        return PairingValue(-self.a)

    def __truediv__(self, other: "PairingValue") -> "PairingValue":
        if not isinstance(other, PairingValue):
            return NotImplemented
        return PairingValue(self.a - other.a)

    def __pow__(self, n: int) -> "PairingValue":
        return PairingValue(n * self.a)

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


def _trace(curve: Curve, P: Point, chain=None) -> tuple:
    """(the `Chain` record for p, the default chain's unless the caller gives one,
    and P's walk along it, checked p-torsion; None for P = infinity).

    A caller's chain is validated here, once; the internal chains are valid
    by construction.
    """
    rung = chain_for(curve.p, chain)
    return rung, None if P.is_infinity else torsion_trace(curve, P, rung.steps, curve.p)


def _evaluation(curve: Curve, P: Point, R: Point | None, T: Point | None, chain, k: int) -> tuple:
    """(P's walk from `_trace`, the `eval_point` tuple of S + O_k), each input checked
    once: P by its walk, then a caller's R (affine, outside E[2], p-torsion), then T on the curve.

    The point is None when P = O or k = 0, where nothing is evaluated.  S = R - T at a caller's
    R, else S = sP for the rung's evaluation multiple s (`Chain.s`), from P and s alone: the
    value depends on neither R nor T, so without a caller's R the point R = sP + T is taken, O
    included, and no line vanishes at S.
    """
    rung, trace = _trace(curve, P, chain)
    if R is not None:
        if R.is_infinity or R.y.is_zero():
            raise BadInputError("evaluation point must be affine and outside the 2-torsion")
        if not curve.mul(curve.p, R).is_infinity:
            raise BadInputError("evaluation point must be p-torsion")
    T = require_on_curve(curve, T or INFINITY, "translation point T")
    if trace is None or not k:
        return trace, None
    p, a = curve.p, curve.A.value
    if R is not None:
        S = difference(p, a, (R.x.value, R.y.value), T)
    elif rung.s is None:
        raise DegenerateEvaluationError("all evaluation configurations degenerate: lines of the chain meet E at every multiple of P")
    else:
        S = scalar_mul(p, a, rung.s, P.x.value, P.y.value)
    return trace, eval_point(p, a, S, k)


def _walked(curve: Curve, P: Point, R, T, chain, k: int, product: bool) -> int | None:
    """Direct's a (with `product`) or Semaev's c_p at sP + O_k, folded inside P's walk on the default
    chain (`miller.slope_walk`) at 11 <= p < `WINDOW_FROM`, for P affine, k != 0 and no caller's R or T,
    with the trace's checks in its order: P on the curve, then p*P = O from the walk's end.  None
    otherwise, and where the walk bails out (s = None, sP = O, a step without a chord before the
    last, a reading that vanishes), for the caller's trace walk, which raises what it raises there."""
    p, a = curve.p, curve.A.value
    if not (chain is None and R is None and T is None and 11 <= p < WINDOW_FROM and k) or P.is_infinity:
        return None
    curve._require_on_curve(P)
    s = chain_for(p, None).s
    S = s and scalar_mul(p, a, s, P.x.value, P.y.value)
    walked = S and slope_walk(curve, P, p, eval_point(p, a, S, k), product)
    if not walked:
        return None
    if walked[0][2]:
        raise BadTorsionError(f"{P} is not {p}-torsion")
    return walked[1]


# -- the three routes ----------------------------------------------------------


def _direct_value(trace, point: tuple) -> PairingValue:
    """f_P(O_k + R) / f_P(R) at the `eval_point` tuple of (O_k + R) - T; raises on degenerate lines.

    f_P(R) is the reduction mod eps of f_P(O_k + R) = c*(fr + fe*eps) for some
    c in F_p, so the ratio is 1 + (fe/fr)*eps, with one inversion; the step
    values are folded up to their scalar factors, which c absorbs.
    """
    p = trace.field.p
    fr, fe = product_fold(trace, p, scaled_step_values(trace, point))
    return PairingValue(trace.field(fe * pow(fr, -1, p)))


def _log_derivative_value(trace, point: tuple) -> FpElement:
    """(y * f_P'/f_P)(R) at the `eval_point` tuple of S + O_1, S = R - T; raises on degenerate lines.

    At S + O_1 the eps part of a function g is -2*(y*dg/dx)(S), with dg/dx taken
    along E: -2*y*g_x - (3*x^2 + A)*g_y, which holds at y(S) = 0 too.  So each
    step gives y(R) * (h'/h)(R) = -(eps/re of h)/2, a ratio its scalar factor
    leaves alone; the steps' ratios are folded along the walk and divided once,
    at p, by `miller.ratio_fold`.
    """
    p = trace.field.p
    return trace.field(ratio_fold(trace, p, scaled_step_values(trace, point)) * ((p - 1) // 2))  # (p - 1)/2 = -1/2 mod p


def rueck_slope_sum(curve: Curve, P: Point, chain=None) -> FpElement:
    """Sum of chord/tangent slopes over a chain for p with divisor (P) - (inf).

    Pure slope bookkeeping: vertical steps contribute nothing and no point
    is ever evaluated, so the computation is total: `miller.slope_walk` on
    the default chain, with p*P its end, else `miller.slope_sum` of `_trace`.
    """
    if chain is None and not P.is_infinity:
        curve._require_on_curve(P)
        end, s = slope_walk(curve, P, curve.p)
        if end[2]:
            raise BadTorsionError(f"{P} is not {curve.p}-torsion")
        return curve.field(s)
    _, trace = _trace(curve, P, chain)
    if trace is None:
        return curve.field.zero()
    return trace.field(slope_sum(trace, curve.p))


# -- public pairing surface -------------------------------------------------------


def pairing_direct(dc: DualCurve, P: Point, k, *, R: Point | None = None, chain=None, T: Point | None = None, rng=None) -> PairingValue:
    """e(P, O_k) = f_P(O_k + R) / f_P(R) by dual-number evaluation at (O_k + R) - T.

    Without R the point is chosen from P's chain (`_evaluation`, `_walked`); rng is accepted, unused.
    """
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    curve = dc.base
    k = curve.field(k).value
    a = _walked(curve, P, R, T, chain, k, True)
    if a is not None:
        return PairingValue(curve.field(a))
    trace, point = _evaluation(curve, P, R, T, chain, k)
    if point is None:
        return PairingValue(curve.field.zero())
    return _direct_value(trace, point)


def semaev_log_derivative(curve: Curve, P: Point, R: Point, T: Point | None = None, chain=None) -> FpElement:
    """Semaev's map lam(P) = (f_P'/f_P)(R); additive and injective in P."""
    return semaev_coefficient(curve, P, R=R, T=T, chain=chain) / R.y


def semaev_coefficient(curve: Curve, P: Point, *, R: Point | None = None, T: Point | None = None, chain=None) -> FpElement:
    """The R-independent combination (y * f_P'/f_P)(R).

    This is the scalar that multiplies -2*k*eps in the pairing; computing
    it through different R just rescales lam by y(R)'s reciprocal.  Without
    R the point is chosen from P's chain (`_evaluation`, `_walked`).
    """
    c = _walked(curve, P, R, T, chain, 1, False)
    if c is not None:
        return curve.field(c * ((curve.p - 1) // 2))  # (p - 1)/2 = -1/2 mod p
    trace, point = _evaluation(curve, P, R, T, chain, 1)
    if point is None:
        return curve.field.zero()
    return _log_derivative_value(trace, point)


def pairing_semaev(dc: DualCurve, P: Point, k, *, R: Point | None = None, T: Point | None = None, chain=None) -> PairingValue:
    """e(P, O_k) through the logarithmic-derivative formula."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    curve = dc.base
    k = curve.field(k)
    if k.is_zero():  # no evaluation, but the inputs are still checked
        _evaluation(curve, P, R, T, chain, 0)
        return PairingValue(curve.field.zero())
    return PairingValue(SEMAEV_SIGN * 2 * semaev_coefficient(curve, P, R=R, T=T, chain=chain) * k)


def pairing_rueck(dc: DualCurve, P: Point, k, chain=None) -> PairingValue:
    """e(P, O_k) as 1 + (slope sum)*k*eps; total, no auxiliary points."""
    if not dc.is_canonical():
        raise NotCanonicalError("the pairing is defined on the canonical lift")
    return PairingValue(SLOPE_SIGN * rueck_slope_sum(dc.base, P, chain) * dc.field(k))


_THETA_METHODS = {
    "direct": lambda dc, P, k: pairing_direct(dc, P, k),
    "semaev": lambda dc, P, k: pairing_semaev(dc, P, k),
    "rueck": lambda dc, P, k: pairing_rueck(dc, P, k),
}


def _route(method: str):
    """The route named `method`, checked once at a public entry."""
    try:
        return _THETA_METHODS[method]
    except KeyError:
        raise BadInputError(f"unknown pairing method {method!r}") from None


def theta_pairing(dc: DualCurve, P: Point, k, method: str = "rueck", rng=None) -> PairingValue:
    """e(P, O_k) by the chosen route (they agree exactly); rng is accepted, unused."""
    return _route(method)(dc, P, dc.field(k))


def _theta_coefficient(dc: DualCurve, P: Point, route) -> FpElement:
    """The a-coordinate of e(P, O_1)."""
    try:
        return route(dc, P, dc.field.one()).a
    except BadTorsionError:
        raise NotPTorsionError(f"{P} is not p-torsion, so its lift is not either") from None


def lifted_pairing(dc: DualCurve, Pt: DualPoint, Qt: DualPoint, method: str = "rueck") -> PairingValue:
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
    a = _theta_coefficient(dc, P, route) * j - _theta_coefficient(dc, Q, route) * k
    return PairingValue(a)
