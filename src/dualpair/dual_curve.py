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
and every point decomposes uniquely as (embedded base point) + O_k, with

    k = -x1/(2*y0)          if y0 != 0,
    k = -y1/(3*x0^2 + A)    if y0 = 0

(the second denominator is nonzero at 2-torsion because the curve is
non-singular).  On the canonical lift the p-torsion of an anomalous E
stays p-torsion; on other lifts it generally does not, which is what the
lift attack exploits.

The group law comes twice.  `DualCurve._add_raw` extends chord-and-tangent
to affine points of DualNumber wrappers, one dual inversion per step; it
is the reference law.  `dual_jacobian_double` and `dual_jacobian_add` are
the same law in Jacobian coordinates on (re, eps) pairs of plain ints and
never invert; `DualCurve.mul` runs double-and-add on them, sends each step
they cannot take through `_add_raw`, and inverts once, at the end.

In `_add_raw` the generic chord/tangent cases follow the usual formulas
verbatim (slopes are dual numbers; denominators are units because their
reductions are nonzero).  Cases whose reductions collide cannot use a
chord and are handled by explicit formulas derived from the line through
(k*eps:1:0) and an affine point; they are validated against associativity
and the canonical-lift decomposition in the test suite:

* O_k + (x, y) = (x - 2*y0*k*eps, y - (3*x0^2 + A)*k*eps), with (x0, y0)
  the reduction of the affine point.
* summands whose reductions are opposite (a "vertical" chord) land at
  infinity: the result is O_{alpha/(2*y0)} where alpha is the eps part
  of the difference of the x coordinates.
* doubling a point reducing to 2-torsion (y = c*eps) gives
  O_{-2c/(3*x0^2 + A)}.
* summands with equal reductions but unequal coordinates differ by some
  O_k; that k is recovered from the eps part of the coordinate
  difference and the sum is (doubling) + O_k.
"""

from __future__ import annotations

import random

from .curve import INFINITY, Curve, Point
from .errors import InvalidPointError, NotCanonicalError
from .fields import DualNumber, Fp, FpElement, json_int


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

    @staticmethod
    def from_json(field: Fp, obj: dict) -> "DualPoint":
        if "theta" in obj:
            return DualPoint.infinity(field(json_int(obj["theta"])))
        return DualPoint.affine(
            DualNumber.from_json(field, obj["x"]), DualNumber.from_json(field, obj["y"])
        )


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
        return self.A1.is_zero() and self.B1.is_zero()

    @staticmethod
    def canonical(base: Curve) -> "DualCurve":
        return DualCurve(base, 0, 0)

    # -- membership ------------------------------------------------------

    def is_valid(self, pt: DualPoint) -> bool:
        """True iff pt satisfies the lifted Weierstrass equation."""
        if pt.is_infinity:
            return True
        lhs = pt.y * pt.y
        rhs = pt.x * pt.x * pt.x + self.a_lifted() * pt.x + self.b_lifted()
        return lhs == rhs

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
        if P.is_infinity:
            return DualPoint.infinity(self.field.zero())
        z = self.field.zero()
        t = self.A1 * P.x + self.B1
        if not P.y.is_zero():
            y1 = t / (2 * P.y)
            return DualPoint.affine(DualNumber(P.x, z), DualNumber(P.y, y1))
        x1 = -t / (3 * P.x**2 + self.base.A)
        return DualPoint.affine(DualNumber(P.x, x1), DualNumber(P.y, z))

    # -- group law ---------------------------------------------------------

    def neg(self, pt: DualPoint) -> DualPoint:
        if pt.is_infinity:
            return DualPoint.infinity(-pt.k)
        return DualPoint.affine(pt.x, -pt.y)

    def translate(self, pt: DualPoint, k: FpElement) -> DualPoint:
        """pt + O_k without revalidating pt."""
        if pt.is_infinity:
            return DualPoint.infinity(pt.k + k)
        x0, y0 = pt.x.re, pt.y.re
        dx = DualNumber(self.field.zero(), -2 * y0 * k)
        dy = DualNumber(self.field.zero(), -(3 * x0**2 + self.base.A) * k)
        return DualPoint.affine(pt.x + dx, pt.y + dy)

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
        if y0p != y0q:
            # reductions are opposite affine points (y0p = -y0q != 0)
            alpha = (Q.x - P.x).eps
            return DualPoint.infinity(alpha / (2 * y0p))
        if not y0p.is_zero():
            if P == Q:
                lam = (3 * P.x * P.x + self.a_lifted()) / (2 * P.y)
                return self._chord_result(lam, P, P)
            # Q = P + O_k for the k read off the x eps parts
            k = -(Q.x - P.x).eps / (2 * y0p)
            return self.translate(self._add_raw(P, P), k)
        # both reduce to the same 2-torsion point
        denom = 3 * x0p**2 + self.base.A
        if P == Q:
            return DualPoint.infinity(-2 * P.y.eps / denom)
        k = -(Q.y - P.y).eps / denom
        return self.translate(self._add_raw(P, P), k)

    def _chord_result(self, lam: DualNumber, P: DualPoint, Q: DualPoint) -> DualPoint:
        x3 = lam * lam - P.x - Q.x
        y3 = lam * (P.x - x3) - P.y
        return DualPoint.affine(x3, y3)

    def mul(self, n: int, P: DualPoint) -> DualPoint:
        """n*P; negative n allowed.

        Left-to-right double-and-add on the Jacobian law of
        `dual_jacobian_double` and `dual_jacobian_add`: int pairs, no
        inversion, one dual inversion at the end.  A step those formulas
        cannot take (colliding reductions, doubling over 2-torsion, an
        operand at infinity) goes once through `_add_raw`, and the walk
        resumes from its result.  For an input O_k, n*O_k = O_{n*k}.
        """
        self._require_valid(P)
        if n < 0:
            n, P = -n, self.neg(P)
        if P.is_infinity:
            return DualPoint.infinity(self.field(n * P.k.value))
        if n == 0:
            return DualPoint.infinity(self.field.zero())
        p, a = self.p, (self.base.A.value, self.A1.value)
        base = (P.x.re.value, P.x.eps.value, P.y.re.value, P.y.eps.value)
        acc = base + (1, 0)  # a Jacobian tuple, or O_k after a step that landed at infinity
        for bit in bin(n)[3:]:
            acc = (type(acc) is tuple and dual_jacobian_double(p, a, acc)) or self._reference_step(acc, None)
            if bit == "1":
                acc = (type(acc) is tuple and dual_jacobian_add(p, acc, base)) or self._reference_step(acc, P)
        return self._affine(acc) if type(acc) is tuple else acc

    def _affine(self, acc: tuple) -> DualPoint:
        """The affine point of a Jacobian tuple, by one dual inversion of Z."""
        p, f = self.p, self.field
        x0, x1, y0, y1, z0, z1 = acc
        i0 = pow(z0, -1, p)
        i1 = -z1 * i0 * i0 % p
        s0, s1 = i0 * i0 % p, 2 * i0 * i1 % p  # Z^-2
        t0, t1 = s0 * i0 % p, (s0 * i1 + s1 * i0) % p  # Z^-3
        return DualPoint.affine(
            DualNumber(FpElement(x0 * s0, f), FpElement(x0 * s1 + x1 * s0, f)),
            DualNumber(FpElement(y0 * t0, f), FpElement(y0 * t1 + y1 * t0, f)),
        )

    def _reference_step(self, acc, Q: DualPoint | None):
        """acc + Q, or 2*acc when Q is None, by `_add_raw`; Jacobian again when the sum is affine."""
        R = self._affine(acc) if type(acc) is tuple else acc
        S = self._add_raw(R, R if Q is None else Q)
        if S.is_infinity:
            return S
        return (S.x.re.value, S.x.eps.value, S.y.re.value, S.y.eps.value, 1, 0)

    # -- canonical-lift structure -------------------------------------------

    def decompose(self, pt: DualPoint) -> tuple[Point, FpElement]:
        """Write pt of the canonical lift as (base point) + O_k; returns (P, k)."""
        if not self.is_canonical():
            raise NotCanonicalError("decomposition is defined on the canonical lift")
        if pt.is_infinity:
            return INFINITY, pt.k
        self._require_valid(pt)
        x0, y0 = pt.x.re, pt.y.re
        if not y0.is_zero():
            k = -pt.x.eps / (2 * y0)
        else:
            k = -pt.y.eps / (3 * x0**2 + self.base.A)
        return Point(x0, y0), k

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
        """All points of the lift, at-infinity family first (small p only)."""
        for v in range(self.p):
            yield DualPoint.infinity(self.field(v))
        f = self.field
        a = self.base.A
        for P in self.base.points():
            if P.is_infinity:
                continue
            t = self.A1 * P.x + self.B1
            if not P.y.is_zero():
                for v in range(self.p):
                    x1 = f(v)
                    y1 = ((3 * P.x**2 + a) * x1 + t) / (2 * P.y)
                    yield DualPoint.affine(DualNumber(P.x, x1), DualNumber(P.y, y1))
            else:
                x1 = -t / (3 * P.x**2 + a)
                for v in range(self.p):
                    yield DualPoint.affine(DualNumber(P.x, x1), DualNumber(P.y, f(v)))

    def has_scaling_witness(self) -> bool:
        """Whether some mu = 1 + k*eps carries the canonical lift to this one.

        Equivalent to the j-value lying in F_p when A*B != 0; for A = 0 or
        B = 0 the j-value is constant in the lift coefficients and the
        witness condition is simply that the untouchable coefficient stays
        untouched.
        """
        if self.base.A.is_zero():
            return self.A1.is_zero()
        if self.base.B.is_zero():
            return self.B1.is_zero()
        return self.j_value().eps.is_zero()

    def random_lift_coeffs(self, rng: random.Random):
        """Sample (A1, B1) for a lift, skipping the lifts that are coordinate
        changes of the canonical one (those provably keep the p-torsion
        p-torsion and are useless for the lift attack)."""
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

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "A": str(self.base.A.value),
            "B": str(self.base.B.value),
            "A1": str(self.A1.value),
            "B1": str(self.B1.value),
        }

    @staticmethod
    def from_json(obj: dict) -> "DualCurve":
        base = Curve.from_json(obj)
        return DualCurve(base, json_int(obj["A1"]), json_int(obj["B1"]))


# -- Jacobian group law on int pairs ---------------------------------------------
#
# A tuple (x0, x1, y0, y1, z0, z1) of ints in [0, p) stands for the affine
# point (X/Z^2, Y/Z^3) with X = x0 + x1*eps, Y = y0 + y1*eps and
# Z = z0 + z1*eps a unit (z0 != 0); the curve coefficient is a = a0 + a1*eps.
# These are the formulas of `curve.jacobian_double` and the mixed case of
# `curve.jacobian_add` over F_p[eps].  Each returns None instead of a sum
# whose Z would not be a unit: a doubling whose operand reduces to 2-torsion,
# or an addition whose summands have reductions with the same x.


def dual_jacobian_double(p: int, a: tuple, P: tuple) -> tuple | None:
    """2P, or None when P reduces to a point of order 2."""
    x0, x1, y0, y1, z0, z1 = P
    if not y0:
        return None
    yy0, yy1 = y0 * y0 % p, 2 * y0 * y1 % p
    s0, s1 = 4 * x0 * yy0 % p, 4 * (x0 * yy1 + x1 * yy0) % p
    zz0, zz1 = z0 * z0 % p, 2 * z0 * z1 % p
    q0, q1 = zz0 * zz0 % p, 2 * zz0 * zz1 % p
    n0 = (3 * x0 * x0 + a[0] * q0) % p
    n1 = (6 * x0 * x1 + a[0] * q1 + a[1] * q0) % p
    X0, X1 = (n0 * n0 - 2 * s0) % p, 2 * (n0 * n1 - s1) % p
    d0, d1 = s0 - X0, s1 - X1
    Y0, Y1 = (n0 * d0 - 8 * yy0 * yy0) % p, (n0 * d1 + n1 * d0 - 16 * yy0 * yy1) % p
    return X0, X1, Y0, Y1, 2 * y0 * z0 % p, 2 * (y0 * z1 + y1 * z0) % p


def dual_jacobian_add(p: int, P: tuple, Q: tuple) -> tuple | None:
    """P + Q for an affine Q = (u0, u1, v0, v1), or None when the reductions share x."""
    x0, x1, y0, y1, z0, z1 = P
    u0, u1, v0, v1 = Q
    zz0, zz1 = z0 * z0 % p, 2 * z0 * z1 % p
    h0 = (u0 * zz0 - x0) % p
    if not h0:
        return None
    h1 = (u0 * zz1 + u1 * zz0 - x1) % p
    w0, w1 = z0 * zz0 % p, (z0 * zz1 + z1 * zz0) % p  # Z^3
    r0 = (v0 * w0 - y0) % p
    r1 = (v0 * w1 + v1 * w0 - y1) % p
    hh0, hh1 = h0 * h0 % p, 2 * h0 * h1 % p
    g0, g1 = h0 * hh0 % p, (h0 * hh1 + h1 * hh0) % p  # H^3
    V0, V1 = x0 * hh0 % p, (x0 * hh1 + x1 * hh0) % p
    X0 = (r0 * r0 - g0 - 2 * V0) % p
    X1 = (2 * r0 * r1 - g1 - 2 * V1) % p
    d0, d1 = V0 - X0, V1 - X1
    Y0, Y1 = (r0 * d0 - y0 * g0) % p, (r0 * d1 + r1 * d0 - y0 * g1 - y1 * g0) % p
    return X0, X1, Y0, Y1, z0 * h0 % p, (z0 * h1 + z1 * h0) % p
