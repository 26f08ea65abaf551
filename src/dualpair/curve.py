"""Short-Weierstrass elliptic curves y^2 = x^3 + A*x + B over F_p.

Chord-and-tangent group law, point counting (the quadratic-character
tally, O(p)), the certificate for #E(F_p) = p, a seeded search for
anomalous curves, and 2-torsion utilities.

A random point is drawn once, in `_random_x`: its x, and the sign bit
of its y.  `Curve.random_point` takes one square root of the accepted
x^3 + A*x + B; the search takes none.  Its trials run on plain ints; its
discriminant reject skips only curves with a rational point of order 2,
which have even order and so cannot be anomalous.  For a drawn point
(x, sqrt(t)), t = x^3 + A*x + B, a trial walks the image (t*x, t^2) under
the F_p-isomorphism (x, y) -> (u^2*x, u^3*y), u = sqrt(t), onto
y^2 = x^3 + A*t^2*x + B*t^3 (Silverman, AEC III.1), which has the same
group (`_kills`).  Each draw below p, of A, B and x, is `getrandbits(k)`
with k = p.bit_length(), drawn again while it is >= p: that is what
CPython's `Random.randrange(p)` does under its two Python frames (3.10 to
3.13), so every value and the rng state after each draw are randrange's,
and every seed finds the curves it found through randrange.  A trial
takes the quadratic character about three times: of the discriminant, and
of x^3 + A*x + B for each x drawn until one is a square or zero.  Below
`SQUARE_TABLE_FROM` each visit to a prime reads it from a table of the
squares mod p (`_square_table`), built per visit in about p/2 squarings;
from it on, and in `Curve.random_point`, `is_anomalous` and `count_points`,
it is Euler's criterion, one `pow`.  A visit runs max(32, 4*sqrt(p))
trials, so the table's O(p) cost and the O(sqrt(p)) pows it saves break
even near p = 2*10^4 (measured on CPython 3.11 and 3.13).  A lookup gives
the same boolean as the `pow`, so every draw, curve and error stays the
same.

The group law comes twice.  `Curve.add` works on affine `Point`s of
FpElement wrappers, one inversion per addition; it is the public one and
the reference for the other.  `jacobian_double` and `jacobian_add` work on
Jacobian triples of plain ints and never invert; besides the sum they
return the numerator N of the chord-or-tangent slope N/Z3 and the ratio F
of Z3 to the operands' Z.  The sum, N and F are all that
`miller.chain_trace` records of a step: every line of the Miller walk is
read from them projectively, and Rueck's slope sum folded, with no
inversion.
`jacobian_mul` runs that law over `window_digits(n)`, the one walk of a
scalar: double-and-add on n's bits below 2^32, where the searches' and the
CLI's primes lie, and a 4-bit sliding window from 2^32 on, about 1.2 steps
per bit where double-and-add takes 1.5.  The double-and-add walk is one
loop on local ints, with the doubling and the mixed Jacobian-affine
addition of the base (Z2 = 1; Cohen, Miyaji and Ono, ASIACRYPT 1998)
written out.  `DualCurve.mul` and the default
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
        """A uniformly-ish random affine point (never infinity): `_random_x`'s x, and the
        root min(r, p - r) of x^3 + A*x + B, negated when the drawn sign bit is set."""
        p, a, b = self.p, self.A.value, self.B.value
        x, negate = _random_x(p, a, b, rng)
        y = sqrt_mod(x * x * x + a * x + b, p)
        return Point(FpElement(x, self.field), FpElement(p - y if negate else y, self.field))

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
# operation inverts.  Each returns the sum, the numerator N of the
# chord-or-tangent slope N/Z3, where Z3 is the sum's Z, and the factor F
# with Z3 = F*Z1 for a doubling and Z3 = F*Z1*Z2 for an addition.  N and F
# are None when the step has no such line, because an operand or the sum
# is infinity; F alone is None for an addition of two triples of one point,
# which doubles, so that Z3 is no product of F with Z1*Z2.

JACOBIAN_INFINITY = (1, 1, 0)

#: The smallest scalar recoded with the 4-bit window; smaller ones use their bits.
WINDOW_FROM = 1 << 32
#: The smallest p whose search trials take Euler's criterion; below it they read `_square_table(p)`.
SQUARE_TABLE_FROM = 20_000
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
    """(2P, N, F) on y^2 = x^3 + a*x + b; the slope is (3x^2 + a)/(2y) = N/(2YZ), and F = 2Y."""
    X, Y, Z = P
    if not (Y and Z):
        return JACOBIAN_INFINITY, None, None
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    N = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (N * N - 2 * S) % p
    F = 2 * Y
    return (X3, (N * (S - X3) - 8 * YY * YY) % p, F * Z % p), N, F


def jacobian_add(p: int, a: int, P: tuple, Q: tuple) -> tuple:
    """(P + Q, N, F) for any P, Q; doubles when P = Q.  The chord slope is r/(Z1*Z2*H), and F = H."""
    if P is Q:
        return jacobian_double(p, a, P)
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if not Z1:
        return Q, None, None
    if not Z2:
        return P, None, None
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    S1 = Y1 * Z2 * Z2Z2 % p
    H = (X2 * Z1Z1 - U1) % p
    r = (Y2 * Z1 * Z1Z1 - S1) % p
    if not H:
        return (*jacobian_double(p, a, P)[:2], None) if not r else (JACOBIAN_INFINITY, None, None)
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    return (X3, (r * (V - X3) - S1 * HHH) % p, Z1 * Z2 * H % p), r, H


def jacobian_mul(p: int, a: int, n: int, base: tuple) -> tuple:
    """n*base for n >= 1 on the Jacobian law, left to right over `window_digits(n)`.

    The base is an affine point as a triple (x, y, 1).  Below 2^32 the
    digits are n's bits, and the walk is double-and-add on them directly:
    the search's `_kills` runs it thousands of times at a few bits, where
    recoding, or a function call per step, would cost more than it saves.
    That walk is one loop on local ints with `jacobian_double` and
    `jacobian_add` written out; the addition is `jacobian_add` with Z2 = 1
    (so Z2^2 = 1, U1 = X1 and S1 = Y1), and every step, the degenerate ones
    included (an operand at O, Y = 0, and H = 0), ends at the triple those
    functions return.  From 2^32 on the odd multiples base, 3*base, ... up
    to the largest digit come first, from 2*base.
    """
    if n < WINDOW_FROM:
        x, y, _ = base
        X, Y, Z = base
        for bit in bin(n)[3:]:
            if Y and Z:
                YY = Y * Y % p
                S = 4 * X * YY % p
                ZZ = Z * Z % p
                N = (3 * X * X + a * ZZ * ZZ) % p
                X3 = (N * N - 2 * S) % p
                X, Y, Z = X3, (N * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p
            else:
                X, Y, Z = JACOBIAN_INFINITY
            if bit == "1":
                if not Z:
                    X, Y, Z = base
                    continue
                ZZ = Z * Z % p
                H = (x * ZZ - X) % p
                r = (y * Z * ZZ - Y) % p
                if not H:
                    X, Y, Z = jacobian_double(p, a, (X, Y, Z))[0] if not r else JACOBIAN_INFINITY
                    continue
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X3 = (r * r - HHH - 2 * V) % p
                X, Y, Z = X3, (r * (V - X3) - Y * HHH) % p, Z * H % p
        return X, Y, Z
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


def _square_table(p: int) -> bytes:
    """t -> 1 when t is a square mod p, 0 included, else 0: Euler's criterion read as one index.

    About p/2 squarings, one per residue class {i, -i}.
    """
    table = bytearray(p)
    for i in range((p + 1) // 2):
        table[i * i % p] = 1
    return bytes(table)


def _kills(p: int, a: int, b: int, x: int, squares: bytes | None = None) -> bool:
    """Whether p*P = O for P = (x, sqrt(t)) on y^2 = x^3 + a*x + b; False early if E cannot be anomalous.

    A non-square discriminant -(4a^3 + 27b^2) means the cubic has exactly
    one root, so E has a rational point of order 2 and #E is even, never p;
    such a curve is rejected without a walk.  With t = x^3 + a*x + b a
    nonzero square, the walk is not of P but of its image (t*x, t^2) under
    the isomorphism (x, y) -> (u^2*x, u^3*y), u = sqrt(t), onto
    y^2 = x^3 + a*t^2*x + b*t^3, which needs no square root.  An isomorphism
    preserves the group law, so p*P = O exactly when p times the image is;
    and the sign of y does not matter, since p*(-P) = -(p*P).  When t = 0,
    P has order 2 and p*P = P, as p is odd.  The discriminant's character is
    read from `squares` (`_square_table(p)`) when one is given, else it is
    Euler's criterion.
    """
    d = -(4 * a * a * a + 27 * b * b) % p
    if not (squares[d] if squares else pow(d, (p - 1) // 2, p) != p - 1):
        return False
    t = (x * x * x + a * x + b) % p
    if not t:
        return False
    tt = t * t % p
    return not jacobian_mul(p, a * tt % p, p, (t * x % p, tt, 1))[2]


def _random_x(p: int, a: int, b: int, rng: random.Random, squares: bytes | None = None) -> tuple[int, int]:
    """(x, sign bit) of a random point of y^2 = x^3 + a*x + b: the one draw of `Curve.random_point`
    and of the search's trials.

    x is redrawn until x^3 + a*x + b is a square or zero, then one sign bit
    is drawn unless it is zero (the bit is 0 then).  Each x is
    `rng.getrandbits(k)`, k = p.bit_length(), drawn again while it is >= p,
    which is `randrange(p)` value for value and state for state, without
    its Python frames.  The square is read from `squares` (`_square_table(p)`)
    when one is given, else it is Euler's criterion; no root is taken.
    """
    getrandbits, k, e = rng.getrandbits, p.bit_length(), (p - 1) // 2
    while True:
        x = getrandbits(k)
        while x >= p:
            x = getrandbits(k)
        t = (x * x * x + a * x + b) % p
        if squares[t] if squares else (not t or pow(t, e, p) == 1):
            return x, t and getrandbits(1)


def is_anomalous(curve: Curve) -> bool:
    """True iff #E(F_p) = p, by `_certifies_anomalous` on the first affine point.

    The point is (x, sqrt(t)) for the least x where t = x^3 + Ax + B is a
    square or zero.  `_kills` walks its image on an isomorphic curve, whose
    group is the same, so p kills the image exactly when it kills the point.
    """
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
    rounding up to the next prime; (A, B) are sampled uniformly per prime,
    A first, each by `randrange(p)`'s own rule: `rng.getrandbits(k)`, with
    one k = p.bit_length() per prime, drawn again while it is >= p.  So the
    stream, and each seed's curves, are those of a search that calls
    randrange, without its Python frames.
    Each trial runs on ints: it draws a random point P by `_random_x`, as
    `Curve.random_point` does, and walks p times P's image on an
    isomorphic curve on the Jacobian law (`_kills`, no square root), except
    on curves with a non-square discriminant, which have a point of order 2
    and so cannot be anomalous.  p kills the image exactly when it kills P,
    so a hit is P's certificate; a `Curve` is built only for a hit, which
    `_certifies_anomalous` decides.
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
    getrandbits = rng.getrandbits
    found: list[Curve] = []
    seen: set[tuple[int, int, int]] = set()
    trials = 0
    while len(found) < count:
        p = next_prime(rng.randint(p_min, p_max))
        if p > p_max:
            continue
        per_prime, k = max(32, 4 * math.isqrt(p)), p.bit_length()
        squares = _square_table(p) if p < SQUARE_TABLE_FROM else None
        for _ in range(per_prime):
            trials += 1
            if trials > budget:
                raise SearchExhaustedError(
                    f"no anomalous curve found in [{p_min}, {p_max}] within {budget} trials"
                )
            a = getrandbits(k)
            while a >= p:
                a = getrandbits(k)
            b = getrandbits(k)
            while b >= p:
                b = getrandbits(k)
            if (4 * a * a * a + 27 * b * b) % p == 0 or (p, a, b) in seen:
                continue
            if tried and not tried[p][a * p + b]:
                tried[p][a * p + b] = 1
                untried -= 1
            if _kills(p, a, b, _random_x(p, a, b, rng, squares)[0], squares):
                curve = Curve(Fp(p), a, b)
                if _certifies_anomalous(curve, True):
                    found.append(curve)
                    seen.add((p, a, b))
                    if len(found) == count:
                        break
            if untried == 0:
                raise SearchExhaustedError(f"[{p_min}, {p_max}] holds only {len(found)} anomalous curves")
    return found
