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

The group law comes twice.  `DualCurve._add_raw` extends chord-and-tangent
to affine points of DualNumber wrappers, one dual inversion per step; it
is the reference law.  `dual_jacobian_double` and `dual_jacobian_add` are
the same law in Jacobian coordinates on (re, eps) pairs of plain ints and
never invert; `DualCurve.mul` takes the walk of `Curve.mul`
(`curve.window_digits`) on them, sends each step they cannot take through
`_add_raw`, and inverts once at the end, and twice more for the window's
table of odd multiples.

The fiber over each base point P is one coset lift(P) + O_k: `translate`
adds O_k, O_k + (x, y) = (x - 2*y0*k*eps, y - (3*x0^2 + A)*k*eps) with
(x0, y0) the reduction, and `_offset` reads k back from two points over
the same P: from the x eps parts, or over 2-torsion, where 3*x0^2 + A != 0
as E is non-singular, from the y eps parts.  Every reader of a fiber uses
these two:

* `points` lists each fiber as translate(lift(P), k) over all k.
* `_add_raw` takes chords and tangents with dual slopes, whose
  denominators are units as their reductions are nonzero.  Summands over
  opposite points (a vertical chord) land at O_{alpha/(2*y0)}, alpha the
  eps part of the difference of the x coordinates.  Summands over the same
  point are Q = P + O_k, so P + Q = `_double`(P) + O_k; `_double` is the
  tangent, or O_{-2c/(3*x0^2 + A)} for a P = (x, c*eps) over 2-torsion.
* `decompose` reads k as the offset of pt from embed(P).

These cases are checked against associativity and the canonical-lift
decomposition in the test suite.
"""

from __future__ import annotations

import random

from .curve import INFINITY, WINDOW_FROM, Curve, Point, window_digits
from .errors import InvalidPointError, NotCanonicalError
from .fields import DualNumber, Fp, FpElement, json_int
from .numbertheory import batch_inverse


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
        return self.translate(self._double(P), self._offset(P, Q))

    def _double(self, P: DualPoint) -> DualPoint:
        """2P for affine P: the tangent, or O_k when P reduces to 2-torsion."""
        x0, y0 = P.x.re, P.y.re
        if y0.is_zero():
            return DualPoint.infinity(-2 * P.y.eps / (3 * x0**2 + self.base.A))
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
        """n*P; negative n allowed.

        Over `window_digits(n)`, as `Curve.mul`, on the Jacobian law of
        `dual_jacobian_double` and `dual_jacobian_add`: int pairs, one dual
        inversion at the end.  The odd multiples P, 3P, ... of the digits are
        made first and scaled to Z = 1 in one batch, for the mixed addition.
        A step those formulas cannot take (colliding reductions, doubling
        over 2-torsion, an operand at infinity), in the table or the walk,
        goes once through `_add_raw`.  For an input O_k, n*O_k = O_{n*k}.
        """
        self._require_valid(P)
        if n < 0:
            n, P = -n, self.neg(P)
        if P.is_infinity:
            return DualPoint.infinity(self.field(n * P.k.value))
        if n == 0:
            return DualPoint.infinity(self.field.zero())
        digits = window_digits(n)
        table = [self._jacobian(P)]  # walk values: Jacobian tuples, or O_k after a step to infinity
        if n >= WINDOW_FROM:  # below it the digits are bits
            twice = self._scaled([self._step(table[0])])[0]
            for _ in range(max(digits) // 2):
                table.append(self._step(table[-1], twice))
            table = self._scaled(table)
        p, a = self.p, (self.base.A.value, self.A1.value)
        acc = table[digits[0] // 2]
        for d in digits[1:]:  # `_step`, inlined
            acc = (type(acc) is tuple and dual_jacobian_double(p, a, acc)) or self._reference_step(acc, None)
            if d:  # the summand of digit 1 is P itself, which `_reference_step` takes as it is
                Q = table[d // 2]
                acc = (type(acc) is tuple and type(Q) is tuple and dual_jacobian_add(p, acc, Q)) or self._reference_step(
                    acc, P if d == 1 else Q
                )
        return self._point(acc)

    def _step(self, acc, Q=None):
        """acc + Q, or 2*acc when Q is None, on walk values (Q with Z = 1 or at infinity)."""
        if type(acc) is tuple:
            if Q is None:
                S = dual_jacobian_double(self.p, (self.base.A.value, self.A1.value), acc)
            else:
                S = type(Q) is tuple and dual_jacobian_add(self.p, acc, Q)
            if S:
                return S
        return self._reference_step(acc, Q)

    def _reference_step(self, acc, Q):
        """`_step` by `_add_raw`, for a step the Jacobian formulas cannot take."""
        R = self._point(acc)
        return self._jacobian(self._add_raw(R, R if Q is None else self._point(Q)))

    def _scaled(self, accs: list) -> list:
        """The walk values with each Jacobian tuple scaled to Z = 1, by one batch inversion of the Z."""
        inverses = iter(batch_inverse([acc[4] for acc in accs if type(acc) is tuple], self.p))
        return [self._unit_z(acc, next(inverses)) if type(acc) is tuple else acc for acc in accs]

    def _unit_z(self, acc: tuple, i0: int) -> tuple:
        """The Jacobian tuple acc scaled to Z = 1, given i0 = 1/z0."""
        p = self.p
        x0, x1, y0, y1, z0, z1 = acc
        i1 = -z1 * i0 * i0 % p
        s0, s1 = i0 * i0 % p, 2 * i0 * i1 % p  # Z^-2
        t0, t1 = s0 * i0 % p, (s0 * i1 + s1 * i0) % p  # Z^-3
        return x0 * s0 % p, (x0 * s1 + x1 * s0) % p, y0 * t0 % p, (y0 * t1 + y1 * t0) % p, 1, 0

    def _point(self, acc) -> DualPoint:
        """The DualPoint of a walk value: affine by one dual inversion of Z, or O_k as it is."""
        if type(acc) is not tuple:
            return acc
        x0, x1, y0, y1, _, _ = self._unit_z(acc, pow(acc[4], -1, self.p))
        f = self.field
        return DualPoint.affine(
            DualNumber(FpElement(x0, f), FpElement(x1, f)), DualNumber(FpElement(y0, f), FpElement(y1, f))
        )

    @staticmethod
    def _jacobian(pt: DualPoint):
        """The walk value of a point: its Jacobian tuple with Z = 1, or O_k as it is."""
        return pt if pt.is_infinity else (pt.x.re.value, pt.x.eps.value, pt.y.re.value, pt.y.eps.value, 1, 0)

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
            base = self.lift(P)
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
        return 6 * self.base.B * self.A1 == 4 * self.base.A * self.B1

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
    """P + Q for a Q with Z = 1, or None when the reductions share x."""
    x0, x1, y0, y1, z0, z1 = P
    u0, u1, v0, v1, _, _ = Q
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
