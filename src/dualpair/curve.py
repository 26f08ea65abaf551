"""Short-Weierstrass elliptic curves y^2 = x^3 + A*x + B over F_p.

Chord-and-tangent group law, point counting (the quadratic-character
tally, O(p)), the certificate for #E(F_p) = p, a seeded search for
anomalous curves, and 2-torsion utilities.

The search runs each trial on plain ints (`_kills_random_point`); its
discriminant reject skips only curves with a rational point of order 2,
which have even order and so cannot be anomalous.

The group law comes twice.  `Curve.add` works on affine `Point`s of
FpElement wrappers, one inversion per addition; it is the public one and
the reference for the other.  `jacobian_double` and `jacobian_add` work on
Jacobian triples of plain ints and never invert; besides the sum they
return the numerator N of the chord-or-tangent slope N/Z3.  The sum and N
are all that `miller.chain_trace` records of a step: every line of the
Miller walk is read from them projectively, with no inversion.
`jacobian_mul` runs that law over `window_digits(n)`, the one walk of a
scalar: double-and-add on n's bits below 2^32, where the searches' and the
CLI's primes lie, and a 4-bit sliding window from 2^32 on, about 1.2 steps
per bit where double-and-add takes 1.5.  `DualCurve.mul` and the default
Miller chain (`miller.binary_chain`) take its group operations in its
order.  `Curve.mul` wraps it and inverts once, at the end.

Membership, `contains`, is computed on the ints under the wrappers.
`point`, `add` and `mul` check their points with it once, at entry, as do
the other modules' public entries; `_mul_raw` is `mul` for a caller that
holds a checked point (`dlp.AttackResult.verify`), as `_add_raw` is `add`.

A curve with #E = p has a rational point group that is cyclic of order p,
so every nonzero point generates and the whole group is p-torsion.  Those
are the attack targets of the rest of the package.  One rule certifies
them (`_certifies_anomalous`): a point P != O with p*P = O has order p, so
p divides #E; when 2p lies above the Hasse interval, which holds for
p >= 7, p is the only multiple of p in it and #E = p.  Below that the
count decides.  `is_anomalous`, `find_anomalous` and `dlp.DlpInstance`
each supply the point and its walk.
"""

from __future__ import annotations

import math
import random
import re

from .errors import BadInputError, PointNotOnCurveError, SearchExhaustedError
from .fields import Fp, FpElement, json_int
from .numbertheory import legendre, next_prime, sqrt_mod

#: Largest p the CLI checks its search's output on by `count_points`; `is_anomalous` above.
COUNT_SCAN_LIMIT = 100_000


class Point:
    """A point of E(F_p): affine coordinates, or the point at infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x: FpElement | None, y: FpElement | None):
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash("inf")
        return hash((self.x.value, self.y.value))

    def __repr__(self):
        return "inf" if self.is_infinity else f"({self.x}, {self.y})"

    def to_json(self) -> dict:
        if self.is_infinity:
            return {"inf": True}
        return {"x": str(self.x.value), "y": str(self.y.value)}

    @staticmethod
    def from_json(field: Fp, obj: dict) -> "Point":
        """{"inf": true} is infinity; otherwise x and y are read, with "inf" absent or false."""
        inf = obj.get("inf", False)
        if inf is True:
            return INFINITY
        if inf is not False:
            raise ValueError(f'"inf" must be true or false, got {inf!r}')
        return Point(field(json_int(obj["x"])), field(json_int(obj["y"])))


INFINITY = Point(None, None)


class Curve:
    """y^2 = x^3 + A*x + B over F_p with 4A^3 + 27B^2 != 0."""

    __slots__ = ("field", "A", "B")

    def __init__(self, field: Fp, a, b):
        self.field = field
        self.A = field(a)
        self.B = field(b)
        if self.discriminant_term().is_zero():
            raise ValueError("singular curve: 4A^3 + 27B^2 = 0")

    @property
    def p(self) -> int:
        return self.field.p

    def discriminant_term(self) -> FpElement:
        return 4 * self.A**3 + 27 * self.B**2

    def rhs(self, x: FpElement) -> FpElement:
        return x**3 + self.A * x + self.B

    def point(self, x, y) -> Point:
        pt = Point(self.field(x), self.field(y))
        self._require_on_curve(pt)
        return pt

    def contains(self, pt: Point) -> bool:
        """Whether pt satisfies the curve equation, computed on ints; an x from another
        field raises BadInputError, while a y from one only makes the answer False."""
        if pt.is_infinity:
            return True
        p = self.field.p
        if pt.x.field.p != p:
            raise BadInputError("mixed field contexts")
        x = pt.x.value
        return pt.y.field.p == p and (pt.y.value**2 - (x * x + self.A.value) * x - self.B.value) % p == 0

    def _require_on_curve(self, pt: Point):
        if not self.contains(pt):
            raise PointNotOnCurveError(f"{pt} not on {self!r}")

    # -- group law ------------------------------------------------------

    def neg(self, pt: Point) -> Point:
        if pt.is_infinity:
            return INFINITY
        return Point(pt.x, -pt.y)

    def add(self, P: Point, Q: Point) -> Point:
        self._require_on_curve(P)
        self._require_on_curve(Q)
        return self._add_raw(P, Q)

    def _add_raw(self, P: Point, Q: Point) -> Point:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if P.x == Q.x:
            if P.y == -Q.y:
                return INFINITY
            lam = (3 * P.x**2 + self.A) / (2 * P.y)
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
        x3 = lam**2 - P.x - Q.x
        return Point(x3, lam * (P.x - x3) - P.y)

    def sub(self, P: Point, Q: Point) -> Point:
        return self.add(P, self.neg(Q))

    def mul(self, n: int, P: Point) -> Point:
        """n*P by `jacobian_mul` in Jacobian coordinates; negative n allowed.

        The walk runs on plain ints and inverts once, at the end.
        """
        self._require_on_curve(P)
        return self._mul_raw(n, P)

    def _mul_raw(self, n: int, P: Point) -> Point:
        """`mul` for a P already checked to lie on the curve."""
        if n < 0:
            n, P = -n, self.neg(P)
        if n == 0 or P.is_infinity:
            return INFINITY
        p = self.p
        xy = jacobian_affine(p, jacobian_mul(p, self.A.value, n, (P.x.value, P.y.value, 1)))
        if xy is None:
            return INFINITY
        return Point(FpElement(xy[0], self.field), FpElement(xy[1], self.field))

    # -- point generation -------------------------------------------------

    def random_point(self, rng: random.Random) -> Point:
        """A uniformly-ish random affine point (never infinity)."""
        while True:
            x = self.field.random(rng)
            y = self.field.sqrt(self.rhs(x))
            if y is None:
                continue
            if not y.is_zero() and rng.getrandbits(1):
                y = -y
            return Point(x, y)

    def points(self):
        """All points, infinity first (small p only: O(p) memory)."""
        yield INFINITY
        for v in range(self.p):
            x = self.field(v)
            y = self.field.sqrt(self.rhs(x))
            if y is None:
                continue
            yield Point(x, y)
            if not y.is_zero():
                yield Point(x, -y)

    def two_torsion(self) -> list[Point]:
        """All rational points of order 2 (may be empty)."""
        from .poly import cubic_roots  # only isogeny asks, so the other callers skip loading poly

        return [Point(r, self.field.zero()) for r in cubic_roots(self.field, self.A, self.B)]

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return (self.p, self.A.value, self.B.value) == (other.p, other.A.value, other.B.value)

    def __hash__(self):
        return hash((self.p, self.A.value, self.B.value))

    def __repr__(self):
        return f"Curve(p={self.p}, A={self.A}, B={self.B})"

    def to_json(self) -> dict:
        return {"p": str(self.p), "A": str(self.A.value), "B": str(self.B.value)}

    @staticmethod
    def from_json(obj: dict) -> "Curve":
        field = Fp(json_int(obj["p"]))
        return Curve(field, json_int(obj["A"]), json_int(obj["B"]))


# -- Jacobian group law on plain ints --------------------------------------------
#
# A triple (X, Y, Z) of ints in [0, p) with Z != 0 stands for the affine
# point (X/Z^2, Y/Z^3); any triple with Z = 0 stands for infinity.  Neither
# operation inverts.  Each returns the sum and the numerator N of the
# chord-or-tangent slope N/Z3, where Z3 is the sum's Z; N is None when the
# step has no such line, because an operand or the sum is infinity.

JACOBIAN_INFINITY = (1, 1, 0)

#: The smallest scalar recoded with the 4-bit window; smaller ones use their bits.
WINDOW_FROM = 1 << 32
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
#: The digits of each window of the 4-bit recoding: "0", and each odd d < 16 in binary.
_WINDOW_DIGITS = {"0": b"\x00"} | {bin(d)[2:]: bytes(d.bit_length() - 1) + bytes([d]) for d in range(1, 16, 2)}


def window_digits(n: int) -> bytes:
    """n >= 1 as digits d_0 != 0, d_1, ..., one byte each, with n = sum of d_i * 2^(len - 1 - i).

    A walk starts at d_0 * P, then doubles for each later digit and adds d_i * P
    unless d_i = 0.  Below `WINDOW_FROM` the digits are n's bits; from it on,
    left to right, each longest run of at most 4 bits that starts and ends
    with a 1 is one odd digit at its lowest bit, with zeros at its others.
    """
    bits = bin(n)[2:]
    if n < WINDOW_FROM:
        return bits.encode().translate(_BIT_VALUES)
    top, *rest = re.findall("1(?:[01]{0,2}1)?|0", bits)  # the regex takes each window as long as it can
    return bytes([int(top, 2)]) + b"".join(map(_WINDOW_DIGITS.__getitem__, rest))


def jacobian_double(p: int, a: int, P: tuple) -> tuple:
    """(2P, N) on y^2 = x^3 + a*x + b; the slope is (3x^2 + a)/(2y) = N/(2YZ)."""
    X, Y, Z = P
    if not (Y and Z):
        return JACOBIAN_INFINITY, None
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    N = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (N * N - 2 * S) % p
    return (X3, (N * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p), N


def jacobian_add(p: int, a: int, P: tuple, Q: tuple) -> tuple:
    """(P + Q, N) for any P, Q; doubles when P = Q.  The chord slope is r/(Z1*Z2*H)."""
    if P is Q:
        return jacobian_double(p, a, P)
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if not Z1:
        return Q, None
    if not Z2:
        return P, None
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    S1 = Y1 * Z2 * Z2Z2 % p
    H = (X2 * Z1Z1 - U1) % p
    r = (Y2 * Z1 * Z1Z1 - S1) % p
    if not H:
        return jacobian_double(p, a, P) if not r else (JACOBIAN_INFINITY, None)
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    return (X3, (r * (V - X3) - S1 * HHH) % p, Z1 * Z2 * H % p), r


def jacobian_mul(p: int, a: int, n: int, base: tuple) -> tuple:
    """n*base for n >= 1 on the Jacobian law, left to right over `window_digits(n)`.

    Below 2^32 the digits are n's bits, and the walk is double-and-add on
    them directly: the search's `_kills` runs it thousands of times at a few
    bits, where recoding would cost more than it saves.  From 2^32 on the
    odd multiples base, 3*base, ... up to the largest digit come first, from
    2*base.
    """
    if n < WINDOW_FROM:
        acc = base
        for bit in bin(n)[3:]:
            acc = jacobian_double(p, a, acc)[0]
            if bit == "1":
                acc = jacobian_add(p, a, acc, base)[0]
        return acc
    digits = window_digits(n)
    twice = jacobian_double(p, a, base)[0]
    table = [base]
    for _ in range(max(digits) // 2):
        table.append(jacobian_add(p, a, table[-1], twice)[0])
    acc = table[digits[0] // 2]
    for d in digits[1:]:
        acc = jacobian_double(p, a, acc)[0]
        if d:
            acc = jacobian_add(p, a, acc, table[d // 2])[0]
    return acc


def jacobian_affine(p: int, P: tuple) -> tuple | None:
    """The Jacobian triple P as an affine (x, y) int pair, None for Z = 0; one inversion."""
    X, Y, Z = P
    if not Z:
        return None
    zi = pow(Z, -1, p)
    return X * zi * zi % p, Y * zi * zi * zi % p


def hasse_interval(p: int) -> tuple[int, int]:
    """The integer interval [p+1-2*sqrt(p), p+1+2*sqrt(p)] containing #E."""
    w = math.isqrt(4 * p)
    return p + 1 - w, p + 1 + w


def count_points(curve: Curve) -> int:
    """#E(F_p), infinity included: the quadratic character of x^3 + Ax + B tallied over all x, O(p)."""
    p = curve.p
    count = p + 1
    a, b = curve.A.value, curve.B.value
    e = (p - 1) // 2
    for x in range(p):
        t = (x * x * x + a * x + b) % p
        if t == 0:
            continue
        count += 1 if pow(t, e, p) == 1 else -1
    return count


def _certifies_anomalous(curve: Curve, killed: bool) -> bool:
    """#E(F_p) = p, given `killed`: whether some point P != O has p*P = O.

    Such a P has order p, so p divides #E.  When 2p exceeds the top of the
    Hasse interval (p >= 7) p is the only multiple of p in it, and P proves
    #E = p; below that (p = 5, where 10 fits too) the count decides.
    """
    p = curve.p
    return killed and (2 * p > hasse_interval(p)[1] or count_points(curve) == p)


def _kills(p: int, a: int, b: int, x: int) -> bool:
    """Whether p*P = infinity for P = (x, y) on y^2 = x^3 + a*x + b; False early if E cannot be anomalous.

    A non-square discriminant -(4a^3 + 27b^2) means the cubic has exactly
    one root, so E has a rational point of order 2 and #E is even, never p;
    such a curve is rejected without a walk.  The sign of y does not
    matter, since p*(-P) = -(p*P).
    """
    if legendre(-(4 * a * a * a + 27 * b * b), p) == -1:
        return False
    return not jacobian_mul(p, a, p, (x, sqrt_mod(x * x * x + a * x + b, p), 1))[2]


def _kills_random_point(p: int, a: int, b: int, rng: random.Random) -> bool:
    """`_kills` for a random point, drawn from rng exactly as `Curve.random_point` draws it.

    x is redrawn until x^3 + a*x + b is a square or zero, then one sign bit
    is drawn unless it is zero; the rng stream is that of a `Curve` trial.
    """
    while True:
        x = rng.randrange(p)
        t = (x * x * x + a * x + b) % p
        if legendre(t, p) != -1:
            break
    if t:
        rng.getrandbits(1)
    return _kills(p, a, b, x)


def is_anomalous(curve: Curve) -> bool:
    """True iff #E(F_p) = p, by `_certifies_anomalous` on the first affine point."""
    p, a, b = curve.p, curve.A.value, curve.B.value
    killed = _kills(p, a, b, next(x for x in range(p) if legendre(x * x * x + a * x + b, p) != -1))
    return _certifies_anomalous(curve, killed)


def find_anomalous(
    p_min: int,
    p_max: int,
    count: int = 1,
    seed: int = 0,
    budget: int = 2_000_000,
) -> list[Curve]:
    """`count` distinct anomalous curves with prime p in [p_min, p_max].

    Deterministic given `seed`: primes are drawn by re-sampling a PRNG and
    rounding up to the next prime; (A, B) are sampled uniformly per prime.
    Each trial runs on ints: it draws a random point as `Curve.random_point`
    would and walks p*P on the Jacobian law, except on curves with a
    non-square discriminant, which have a point of order 2 and so cannot be
    anomalous.  A `Curve` is built only for a hit, which `_certifies_anomalous` decides.
    When the range holds at most `budget` nonsingular (p, A, B) triples
    (p^2 - p per prime), each tried one is marked, and the search stops
    once all of them are.
    Raises BadInputError unless 3 < p_min <= p_max, and SearchExhaustedError
    when the trial budget or the range runs out first.
    """
    if p_min <= 3:
        raise BadInputError("p_min must exceed 3")
    if p_max < p_min:
        raise BadInputError("empty prime range")
    in_range, untried, q = [], 0, next_prime(p_min)
    while q <= p_max and untried <= budget:
        in_range.append(q)
        untried, q = untried + q * q - q, next_prime(q + 1)
    if not in_range:
        raise SearchExhaustedError(f"no prime > 3 in [{p_min}, {p_max}]")
    tried = {q: bytearray(q * q) for q in in_range} if untried <= budget else {}
    rng = random.Random(seed)
    found: list[Curve] = []
    seen: set[tuple[int, int, int]] = set()
    trials = 0
    while len(found) < count:
        p = next_prime(rng.randint(p_min, p_max))
        if p > p_max:
            continue
        per_prime = max(32, 4 * math.isqrt(p))
        for _ in range(per_prime):
            trials += 1
            if trials > budget:
                raise SearchExhaustedError(
                    f"no anomalous curve found in [{p_min}, {p_max}] within {budget} trials"
                )
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a * a * a + 27 * b * b) % p == 0 or (p, a, b) in seen:
                continue
            if tried and not tried[p][a * p + b]:
                tried[p][a * p + b] = 1
                untried -= 1
            if _kills_random_point(p, a, b, rng):
                curve = Curve(Fp(p), a, b)
                if _certifies_anomalous(curve, True):
                    found.append(curve)
                    seen.add((p, a, b))
                    if len(found) == count:
                        break
            if untried == 0:
                raise SearchExhaustedError(f"[{p_min}, {p_max}] holds only {len(found)} anomalous curves")
    return found
