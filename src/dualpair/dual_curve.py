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

The group law is `DualCurve._add_raw`: one chord-and-tangent routine on
affine points of DualNumber wrappers, shaped like `Curve._add_raw`, with
one dual inversion per step.  It is the reference law, and
`DualCurve.mul` takes no step of it.

Membership, `is_valid`, is the two equations above on ints; `add`, `mul`
and `decompose` check their points with it once, at entry, and `lift`
checks its base point by `Curve.contains` and solves the eps constraint on
ints.  `_lift_raw` and `_mul_raw` are `lift` and `mul` for a caller that
holds a checked point: the lift attack, whose instance has checked Q.
`embed` is `lift` on the canonical lift, so it and `compose` check P as
`lift` does; there A1*x + B1 = 0, so the eps parts are zero and no
inversion is taken.

The fiber over each base point P is one coset lift(P) + O_k:
`miller.eval_point` writes the eps increments of S + O_k,
(x, y) + O_k = (x - 2*y0*k*eps, y - (3*x0^2 + A)*k*eps) with (x0, y0) the
reduction, and `_offset` reads k back from two points over the same P:
from the x eps parts, or over 2-torsion, where 3*x0^2 + A != 0 as E is
non-singular, from the y eps parts.  The fiber's readers and writers:

* `translate` adds O_k by `eval_point`'s increments, k read by `Fp`, and
  `points` lists each fiber as translate(lift(P), k) over all k.
* `_add_raw` takes a summand at infinity as a translation, O_j + O_k
  included.  Summands over different points take the chord, with a dual
  slope whose denominator is a unit as its reduction is nonzero.  Over
  opposite points, or one shared 2-torsion point, Q = -P + O_k, so
  P + Q = O_k.  Over one shared point off the 2-torsion, Q = P + O_k, so
  P + Q is the tangent at P translated by O_k.  Offsets add along a fiber,
  so the 2-torsion needs no doubling of its own.
* `decompose` reads k as the offset of pt, once checked, from lift(P).
* `mul`'s affine result is lift(nP) + O_(c - gamma(nP)), with c and gamma
  below, its eps parts written out with no pole at the 2-torsion.

These cases are checked against associativity and the canonical-lift
decomposition in the test suite.

`mul` walks only the base curve: for n >= 1 and P~ = lift(P) + O_k, so
k = -x1/(2*y0) as `lift` has x1 = 0, n*P~ = lift(nP) + O_c (O_c at nP = O):

    c = n*k + lambda_L*S_n(P) + n*gamma(P) - gamma(nP),
    lambda_L = -3*(6B*A1 - 4A*B1) / (4*(4A^3 + 27B^2))  (`slope_factor`),
    gamma(x, y) = [A1*(9B/2*x^2 + A^2*x + 3AB) + B1*(-3A*x^2 + 9B/2*x - 2A^2)]
                  / ((4A^3 + 27B^2)*y),   gamma(O) = 0,

S_n(P) the slope sum of P's walk along the default chain for n, every
chord slope as often as the unrolled product for n takes it, folded along
the walk (`miller.slope_walk`; Rueck's S(P) at n = p), and nP its end.
Over C, with x = wp(u) and y = wp'(u)/2, the chord slope through u and v
is zeta(u + v) - zeta(u) - zeta(v), the addition law of the Weierstrass
zeta function; so the offset of n*lift(P) from lift(nP), a 2-cocycle, is
lambda_L times the slope cocycle plus the coboundary of the rational
gamma.  At n = p, n*gamma(P) = 0 and pP = O on an anomalous curve, so
p*lift(P) = O_{lambda_L*S(P)}: the lift identity of `dlp.attack_lift`.
gamma has a pole at the 2-torsion, and the affine result's eps parts do not:
with gamma = g(x)/(2*disc*y), disc = 4A^3 + 27B^2 and t = A1*x + B1,
t*disc + (3x^2 + A)*g(x) = (x^3 + Ax + B)*q(x) for q(x) = A1*(27B*x + 6A^2) +
B1*(27B - 18A*x), so lift(nP) + O_(c - gamma(nP)) at nP = (x, y) is
(x + (g(x)/disc - 2y*c)*eps, y + (y*q(x)/(2*disc) - (3x^2 + A)*c)*eps), c
less its -gamma(nP).  For P of order 2, P~ = lift(P) + O_k with k =
-y1/(3*x0^2 + A) and 2P~ = O_2k: n*P~ is O_{n*k}, or P~ + O_{(n-1)*k} for odd n.
"""

from __future__ import annotations

import random

from .curve import INFINITY, Curve, Point, jacobian_affine
from .errors import BadInputError, InvalidPointError, NotCanonicalError
from .fields import DualNumber, Fp, FpElement
from .miller import eval_point, slope_walk


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
        """The point of the canonical lift with zero eps parts over P: `lift` there."""
        if not self.is_canonical():
            raise NotCanonicalError("embedding with zero eps parts needs the canonical lift")
        return self.lift(P)

    def lift(self, P: Point) -> DualPoint:
        """Some point of this lift reducing to P.

        Infinity lifts to O_0.  For y0 != 0 we take x1 = 0 and solve the
        eps constraint for y1; for 2-torsion (y0 = 0) we solve it for x1
        instead, which always works because 3*x0^2 + A != 0 there.
        """
        self.base._require_on_curve(P)
        return self._lift_raw(P)

    def _lift_raw(self, P: Point) -> DualPoint:
        """`lift` for a P already checked to lie on the base curve; the eps part is solved on ints,
        and is zero with no inversion where A1*x + B1 = 0, as everywhere on the canonical lift."""
        f, z = self.field, self.field.zero()
        if P.is_infinity:
            return DualPoint.infinity(z)
        p, x, y = self.p, P.x.value, P.y.value
        t = (self.A1.value * x + self.B1.value) % p
        if not t:
            return DualPoint.affine(DualNumber(P.x, z), DualNumber(P.y, z))
        if y:
            return DualPoint.affine(DualNumber(P.x, z), DualNumber(P.y, f(t * pow(2 * y, -1, p))))
        return DualPoint.affine(DualNumber(P.x, f(-t * pow(3 * x * x + self.base.A.value, -1, p))), DualNumber(P.y, z))

    # -- group law ---------------------------------------------------------

    def neg(self, pt: DualPoint) -> DualPoint:
        if pt.is_infinity:
            return DualPoint.infinity(-pt.k)
        return DualPoint.affine(pt.x, -pt.y)

    def translate(self, pt: DualPoint, k) -> DualPoint:
        """pt + O_k without revalidating pt, k read by `Fp`."""
        k = self.field(k)
        if pt.is_infinity:
            return DualPoint.infinity(pt.k + k)
        x1, y1 = eval_point(self.p, self.base.A.value, (pt.x.re.value, pt.y.re.value), k.value)[2:]
        return DualPoint.affine(DualNumber(pt.x.re, pt.x.eps + x1), DualNumber(pt.y.re, pt.y.eps + y1))

    def add(self, P: DualPoint, Q: DualPoint) -> DualPoint:
        self._require_valid(P)
        self._require_valid(Q)
        return self._add_raw(P, Q)

    def _add_raw(self, P: DualPoint, Q: DualPoint) -> DualPoint:
        if P.is_infinity:
            return self.translate(Q, P.k)
        if Q.is_infinity:
            return self.translate(P, Q.k)
        k = self.field.zero()
        if P.x.re == Q.x.re:
            if P.y.re == -Q.y.re:  # opposite reductions, or one 2-torsion: Q = -P + O_k, so P + Q = O_k
                return DualPoint.infinity(self._offset(self.neg(P), Q))
            # one reduction off the 2-torsion: Q = P + O_k, so P + Q is the tangent at P, translated by k
            lam, k, Q = (3 * P.x * P.x + self.a_lifted()) / (2 * P.y), self._offset(P, Q), P
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)  # the chord: its denominator is a unit
        x3 = lam * lam - P.x - Q.x
        return self.translate(DualPoint.affine(x3, lam * (P.x - x3) - P.y), k)

    def _offset(self, P: DualPoint, Q: DualPoint) -> FpElement:
        """The k with Q = P + O_k, for affine P and Q over the same base point."""
        x0, y0 = P.x.re, P.y.re
        if not y0.is_zero():
            return (P.x.eps - Q.x.eps) / (2 * y0)
        return (P.y.eps - Q.y.eps) / (3 * x0**2 + self.base.A)

    def mul(self, n: int, P: DualPoint) -> DualPoint:
        """n*P, negative n allowed: one walk of P's reduction on the base curve along the
        default chain for n (`miller.slope_walk`), read by the closed form of the module
        docstring, which takes no step of `_add_raw`.  For an input O_k, n*O_k = O_{n*k}."""
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
        p, f, a = self.p, self.field, self.base.A.value
        x0, y0 = P.x.re.value, P.y.re.value
        if not y0:  # P~ = lift(P) + O_k with 2*P~ = O_2k
            k = -P.y.eps.value * pow(3 * x0 * x0 + a, -1, p)
            return DualPoint.infinity(f(n * k)) if n % 2 == 0 else self.translate(P, f((n - 1) * k))
        nP, s_n = slope_walk(self.base, P.reduction(), n)
        b, a1, b1 = self.base.B.value, self.A1.value, self.B1.value
        disc = 4 * a**3 + 27 * b * b

        def g(x: int) -> int:  # gamma's numerator, doubled with its denominator for the 9B/2
            return a1 * (9 * b * x * x + 2 * a * a * x + 6 * a * b) + b1 * (9 * b * x - 6 * a * x * x - 4 * a * a)

        k = -P.x.eps.value * pow(2 * y0, -1, p)  # `lift` takes x1 = 0
        c = n * k + self.slope_factor() * s_n + n * g(x0) * pow(2 * disc * y0, -1, p)
        end = jacobian_affine(p, nP)
        if end is None:
            return DualPoint.infinity(f(c))
        x, y = end  # lift(nP) + O_(c - gamma(nP)), its eps parts free of gamma's pole at y = 0
        q, inv = a1 * (27 * b * x + 6 * a * a) + b1 * (27 * b - 18 * a * x), pow(2 * disc, -1, p)
        return DualPoint.affine(DualNumber(f(x), f(2 * g(x) * inv - 2 * y * c)), DualNumber(f(y), f(y * q * inv - (3 * x * x + a) * c)))

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
        return P, self._offset(self._lift_raw(P), pt)

    def compose(self, P: Point, k) -> DualPoint:
        """(embedded P) + O_k on the canonical lift; inverse of decompose."""
        return self.translate(self.embed(P), k)

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
