"""Elliptic curves lifted to the dual numbers F_p[eps].

A lift of E: y^2 = x^3 + Ax + B replaces the coefficients by
A + A1*eps and B + B1*eps.  Its points split into two families:

* affine points (x0 + x1*eps, y0 + y1*eps), which satisfy the lifted
  Weierstrass equation; reading off the eps component, that is
  equivalent to (x0, y0) lying on E together with

      (2*y0)*y1 = (3*x0^2 + A)*x1 + A1*x0 + B1.

* points at infinity O_k = (k*eps : 1 : 0), one for every k in F_p.
  They form a subgroup isomorphic to the additive group of the field,
  and k -> O_k is that isomorphism.  O_0 is the group identity.

Reduction mod eps is a group homomorphism onto E(F_p) whose kernel is
exactly the family at infinity, giving a short exact sequence

    0 -> {O_k} -> lifted curve -> E(F_p) -> 0.

The lift with A1 = B1 = 0 is called canonical; there the sequence splits
and every point decomposes uniquely as (embedded base point) + O_k
(`decompose`).  On the canonical lift the p-torsion of an anomalous E
stays p-torsion, and so it does on the lifts that are coordinate changes
of it (`has_scaling_witness`); on every other lift it does not, which is
what the lift attack exploits.

The group law is `DualCurve._add_raw`: chord-and-tangent on affine
points of DualNumber wrappers, one dual inversion per step.  It is the
reference law, and `DualCurve.mul` takes at most one step of it.

Membership, `is_valid`, is the two equations above on ints; `add`, `mul`
and `decompose` check their points with it once, at entry, and `lift`
checks its base point by `Curve.contains` and solves the eps constraint on
ints.  `_lift_raw` and `_mul_raw` are `lift` and `mul` for a caller that
holds a checked point: the lift attack, whose instance has checked Q.

The fiber over each base point P is one coset lift(P) + O_k:
`miller.eval_point` writes the eps increments of S + O_k,
(x, y) + O_k = (x - 2*y0*k*eps, y - (3*x0^2 + A)*k*eps) with (x0, y0) the
reduction, and `_offset` reads k back from two points over the same P:
from the x eps parts, or over 2-torsion, where 3*x0^2 + A != 0 as E is
non-singular, from the y eps parts.  Every reader of a fiber uses these two:

* `translate` adds O_k by `eval_point`'s increments, and `points` lists
  each fiber as translate(lift(P), k) over all k.
* `_add_raw` takes chords and tangents with dual slopes, whose
  denominators are units as their reductions are nonzero.  Summands over
  opposite points (a vertical chord) are Q = -P + O_k, so P + Q = O_k.
  Summands over the same point are Q = P + O_k, so P + Q = `_double`(P) +
  O_k; `_double` is the tangent, or O_k for P = -P + O_k over 2-torsion.
* `decompose` reads k as the offset of pt from embed(P).
* `mul`'s affine result is translate(`_lift_raw`(nP), c - gamma(nP)), with c
  and gamma below; a lift's eps part (A1*x + B1)/(2y) is in `_lift_raw` alone.

These cases are checked against associativity and the canonical-lift
decomposition in the test suite.

`mul` walks only the base curve: for n >= 1 and P~ = lift(P) + O_k, so
k = -x1/(2*y0) as `lift` has x1 = 0, n*P~ = lift(nP) + O_c (O_c at nP = O):

    c = n*k + lambda_L*S_n(P) + n*gamma(P) - gamma(nP),
    lambda_L = -3*(6B*A1 - 4A*B1) / (4*(4A^3 + 27B^2))  (`slope_factor`),
    gamma(x, y) = [A1*(9B/2*x^2 + A^2*x + 3AB) + B1*(-3A*x^2 + 9B/2*x - 2A^2)]
                  / ((4A^3 + 27B^2)*y),   gamma(O) = 0,

S_n(P) the multiplicity-weighted slope sum of P's walk along the default
chain for n (`miller.slope_sum`; Rueck's S(P) at n = p) and nP its end.
Over C, with x = wp(u) and y = wp'(u)/2, the chord slope through u and v
is zeta(u + v) - zeta(u) - zeta(v), the addition law of the Weierstrass
zeta function; so the offset of n*lift(P) from lift(nP), a 2-cocycle, is
lambda_L times the slope cocycle plus the coboundary of the rational
gamma.  At n = p, n*gamma(P) = 0 and pP = O on an anomalous curve, so
p*lift(P) = O_{lambda_L*S(P)}: the lift identity of `dlp.attack_lift`.
gamma has a pole at the 2-torsion.  For P of order 2, 2P~ = `_double`(P~)
= O_k2, so n*P~ is O_{(n/2)*k2} for even n and P~ + O_{(n-1)/2*k2} for
odd n; for nP alone of order 2, n*P~ = (n - 1)*P~ + P~ by one step of
`_add_raw`.
"""

from __future__ import annotations

import random

from .curve import INFINITY, Curve, Point, jacobian_affine
from .errors import BadInputError, InvalidPointError, NotCanonicalError
from .fields import DualNumber, Fp, FpElement
from .miller import chain_for, chain_trace, eval_point, slope_sum


class DualPoint:
    """A point of a lifted curve: affine dual coordinates, or O_k at infinity."""

    __slots__ = ("x", "y", "k")

    def __init__(self, x: DualNumber | None, y: DualNumber | None, k: FpElement | None = None):
        self.x = x
        self.y = y
        self.k = k

    @staticmethod
    def affine(x: DualNumber, y: DualNumber) -> "DualPoint":
        return DualPoint(x, y, None)

    @staticmethod
    def infinity(k: FpElement) -> "DualPoint":
        return DualPoint(None, None, k)

    @property
    def is_infinity(self) -> bool:
        return self.k is not None

    def reduction(self) -> Point:
        """The image in E(F_p) under the mod-eps reduction."""
        if self.is_infinity:
            return INFINITY
        return Point(self.x.re, self.y.re)

    def __eq__(self, other):
        if not isinstance(other, DualPoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity and self.k == other.k
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash(("theta", self.k.value))
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return f"O_{self.k}"
        return f"({self.x}, {self.y})"

    def to_json(self) -> dict:
        if self.is_infinity:
            return {"theta": str(self.k.value)}
        return {"x": self.x.to_json(), "y": self.y.to_json()}


class DualCurve:
    """A lift y^2 = x^3 + (A + A1*eps)x + (B + B1*eps) of a base curve."""

    __slots__ = ("base", "A1", "B1")

    def __init__(self, base: Curve, a1=0, b1=0):
        self.base = base
        self.A1 = base.field(a1)
        self.B1 = base.field(b1)

    @property
    def field(self) -> Fp:
        return self.base.field

    @property
    def p(self) -> int:
        return self.base.p

    def a_lifted(self) -> DualNumber:
        return DualNumber(self.base.A, self.A1)

    def b_lifted(self) -> DualNumber:
        return DualNumber(self.base.B, self.B1)

    def is_canonical(self) -> bool:
        return not (self.A1.value or self.B1.value)

    @staticmethod
    def canonical(base: Curve) -> "DualCurve":
        return DualCurve(base, 0, 0)

    # -- membership ------------------------------------------------------

    def is_valid(self, pt: DualPoint) -> bool:
        """True iff pt satisfies the lifted Weierstrass equation, computed on ints: E's
        equation for the reduction and the eps constraint of the module docstring.
        Coordinates from another field raise BadInputError."""
        if pt.is_infinity:
            return True
        p = self.p
        if pt.x.field.p != p or pt.y.field.p != p:
            raise BadInputError("mixed field contexts")
        x0, x1, y0, y1 = pt.x.re.value, pt.x.eps.value, pt.y.re.value, pt.y.eps.value
        eps = 2 * y0 * y1 - (3 * x0 * x0 + self.base.A.value) * x1 - self.A1.value * x0 - self.B1.value
        return eps % p == 0 and self.base.contains(pt.reduction())

    def _require_valid(self, pt: DualPoint):
        if not self.is_valid(pt):
            raise InvalidPointError(f"{pt} not on lift of {self.base!r}")

    # -- lifting and embedding ---------------------------------------------

    def embed(self, P: Point) -> DualPoint:
        """The point of the canonical lift with zero eps parts over P."""
        if not self.is_canonical():
            raise NotCanonicalError("embedding with zero eps parts needs the canonical lift")
        if P.is_infinity:
            return DualPoint.infinity(self.field.zero())
        z = self.field.zero()
        return DualPoint.affine(DualNumber(P.x, z), DualNumber(P.y, z))

    def lift(self, P: Point) -> DualPoint:
        """Some point of this lift reducing to P.

        Infinity lifts to O_0.  For y0 != 0 we take x1 = 0 and solve the
        eps constraint for y1; for 2-torsion (y0 = 0) we solve it for x1
        instead, which always works because 3*x0^2 + A != 0 there.
        """
        self.base._require_on_curve(P)
        return self._lift_raw(P)

    def _lift_raw(self, P: Point) -> DualPoint:
        """`lift` for a P already checked to lie on the base curve; the eps part is solved on ints."""
        f, z = self.field, self.field.zero()
        if P.is_infinity:
            return DualPoint.infinity(z)
        p, x, y = self.p, P.x.value, P.y.value
        t = self.A1.value * x + self.B1.value
        if y:
            return DualPoint.affine(DualNumber(P.x, z), DualNumber(P.y, f(t * pow(2 * y, -1, p))))
        return DualPoint.affine(DualNumber(P.x, f(-t * pow(3 * x * x + self.base.A.value, -1, p))), DualNumber(P.y, z))

    # -- group law ---------------------------------------------------------

    def neg(self, pt: DualPoint) -> DualPoint:
        if pt.is_infinity:
            return DualPoint.infinity(-pt.k)
        return DualPoint.affine(pt.x, -pt.y)

    def translate(self, pt: DualPoint, k: FpElement) -> DualPoint:
        """pt + O_k without revalidating pt."""
        if pt.is_infinity:
            return DualPoint.infinity(pt.k + k)
        x1, y1 = eval_point(self.p, self.base.A.value, (pt.x.re.value, pt.y.re.value), int(k))[2:]
        return DualPoint.affine(DualNumber(pt.x.re, pt.x.eps + x1), DualNumber(pt.y.re, pt.y.eps + y1))

    def add(self, P: DualPoint, Q: DualPoint) -> DualPoint:
        self._require_valid(P)
        self._require_valid(Q)
        return self._add_raw(P, Q)

    def _add_raw(self, P: DualPoint, Q: DualPoint) -> DualPoint:
        if P.is_infinity and Q.is_infinity:
            return DualPoint.infinity(P.k + Q.k)
        if P.is_infinity:
            return self.translate(Q, P.k)
        if Q.is_infinity:
            return self.translate(P, Q.k)
        x0p, y0p = P.x.re, P.y.re
        x0q, y0q = Q.x.re, Q.y.re
        if x0p != x0q:
            # chord: the slope denominator is a unit
            lam = (Q.y - P.y) / (Q.x - P.x)
            return self._chord_result(lam, P, Q)
        if y0p != y0q:  # reductions are opposite affine points: Q = -P + O_k, so P + Q = O_k
            return DualPoint.infinity(self._offset(self.neg(P), Q))
        return self.translate(self._double(P), self._offset(P, Q))

    def _double(self, P: DualPoint) -> DualPoint:
        """2P for affine P: the tangent, or O_k when P reduces to 2-torsion."""
        if P.y.re.is_zero():  # P = -P + O_k
            return DualPoint.infinity(self._offset(self.neg(P), P))
        lam = (3 * P.x * P.x + self.a_lifted()) / (2 * P.y)
        return self._chord_result(lam, P, P)

    def _offset(self, P: DualPoint, Q: DualPoint) -> FpElement:
        """The k with Q = P + O_k, for affine P and Q over the same base point."""
        x0, y0 = P.x.re, P.y.re
        if not y0.is_zero():
            return (P.x.eps - Q.x.eps) / (2 * y0)
        return (P.y.eps - Q.y.eps) / (3 * x0**2 + self.base.A)

    def _chord_result(self, lam: DualNumber, P: DualPoint, Q: DualPoint) -> DualPoint:
        x3 = lam * lam - P.x - Q.x
        y3 = lam * (P.x - x3) - P.y
        return DualPoint.affine(x3, y3)

    def mul(self, n: int, P: DualPoint) -> DualPoint:
        """n*P, negative n allowed: one walk of P's reduction on the base curve along the
        default chain for n (`miller.chain_for(n, None)`), read by the closed form and the
        order-2 cases of the module docstring.  For an input O_k, n*O_k = O_{n*k}."""
        self._require_valid(P)
        return self._mul_raw(n, P)

    def _mul_raw(self, n: int, P: DualPoint) -> DualPoint:
        """`mul` for a P already checked to lie on the lift."""
        if n < 0:
            n, P = -n, self.neg(P)
        if P.is_infinity:
            return DualPoint.infinity(self.field(n * P.k.value))
        if n == 0:
            return DualPoint.infinity(self.field.zero())
        if P.y.re.is_zero():  # 2*P = O_k2
            k2 = self._double(P).k
            return DualPoint.infinity(n // 2 * k2) if n % 2 == 0 else self.translate(P, n // 2 * k2)
        P0 = P.reduction()
        rung = chain_for(n, None)
        trace = chain_trace(self.base, P0, rung.steps)
        p, f = self.p, self.field
        end = jacobian_affine(p, trace.jac[n])
        if end is not None and not end[1]:  # gamma has a pole at n*P0; (n - 1)*P0 is neither O nor of order 2
            return self._add_raw(self._mul_raw(n - 1, P), P)
        a, b, a1, b1 = self.base.A.value, self.base.B.value, self.A1.value, self.B1.value
        disc = 4 * a**3 + 27 * b * b

        def gamma(x: int, y: int) -> int:  # numerator and denominator doubled, for the 9B/2
            num = a1 * (9 * b * x * x + 2 * a * a * x + 6 * a * b) + b1 * (9 * b * x - 6 * a * x * x - 4 * a * a)
            return num * pow(2 * disc * y, -1, p)

        k = -P.x.eps.value * pow(2 * P0.y.value, -1, p)  # `lift` takes x1 = 0
        c = n * k + self.slope_factor() * slope_sum(rung, trace) + n * gamma(P0.x.value, P0.y.value)
        if end is None:
            return DualPoint.infinity(f(c))
        return self.translate(self._lift_raw(Point(f(end[0]), f(end[1]))), f(c - gamma(*end)))  # lift(nP) + O_d

    def slope_factor(self) -> int:
        """lambda_L = -3*(6B*A1 - 4A*B1)/(4*(4A^3 + 27B^2)) mod p, the factor of the slope sum in
        `mul`'s offset; p*lift(P) = O_{lambda_L*S(P)} on an anomalous curve (the lift identity)."""
        p, a, b = self.p, self.base.A.value, self.base.B.value
        return -3 * (6 * b * self.A1.value - 4 * a * self.B1.value) * pow(16 * a**3 + 108 * b * b, -1, p) % p

    # -- canonical-lift structure -------------------------------------------

    def decompose(self, pt: DualPoint) -> tuple[Point, FpElement]:
        """Write pt of the canonical lift as (base point) + O_k; returns (P, k)."""
        if not self.is_canonical():
            raise NotCanonicalError("decomposition is defined on the canonical lift")
        if pt.is_infinity:
            return INFINITY, pt.k
        self._require_valid(pt)
        P = pt.reduction()
        return P, self._offset(self.embed(P), pt)

    def compose(self, P: Point, k: FpElement) -> DualPoint:
        """(embedded P) + O_k on the canonical lift; inverse of decompose."""
        return self.translate(self.embed(P), self.field(k))

    # -- invariants ----------------------------------------------------------

    def j_value(self) -> DualNumber:
        """4*A~^3 / (4*A~^3 + 27*B~^2) over the dual numbers.

        Agrees with the j-invariant up to the constant 1728; its reduction
        mod eps is the base curve's value.  The denominator is a unit
        because the base curve is non-singular.
        """
        a3 = self.a_lifted() ** 3
        num = 4 * a3
        den = num + 27 * self.b_lifted() ** 2
        return num / den

    def points(self):
        """All points of the lift, fiber by fiber, the at-infinity family first (small p only)."""
        for P in self.base.points():
            base = self._lift_raw(P)
            for v in range(self.p):
                yield self.translate(base, self.field(v))

    def has_scaling_witness(self) -> bool:
        """Whether some mu = 1 + k*eps carries the canonical lift to this one: 6B*A1 = 4A*B1.

        mu^4 A = A~ and mu^6 B = B~ ask (A1, B1) = k*(4A, 6B), a nonzero vector
        as the base curve is non-singular.  The j-value's eps part is
        54*A^2*B*(6B*A1 - 4A*B1)/(4A^3 + 27B^2)^2, so for A*B != 0 this is the
        j-value lying in F_p.  On an anomalous curve these are exactly the
        lifts that keep the p-torsion p-torsion (`dlp.attack_lift`).
        """
        return (6 * self.base.B.value * self.A1.value - 4 * self.base.A.value * self.B1.value) % self.p == 0

    def random_lift_coeffs(self, rng: random.Random):
        """Sample (A1, B1) for a lift, skipping the lifts that are coordinate
        changes of the canonical one (those keep the p-torsion p-torsion and
        are useless for the lift attack)."""
        while True:
            a1, b1 = self.field.random(rng), self.field.random(rng)
            if not DualCurve(self.base, a1, b1).has_scaling_witness():
                return a1, b1

    def __eq__(self, other):
        if not isinstance(other, DualCurve):
            return NotImplemented
        return (
            self.base == other.base
            and self.A1 == other.A1
            and self.B1 == other.B1
        )

    def __hash__(self):
        return hash((self.base, self.A1.value, self.B1.value))

    def __repr__(self):
        return f"DualCurve(p={self.p}, A={self.base.A}+{self.A1}e, B={self.base.B}+{self.B1}e)"
