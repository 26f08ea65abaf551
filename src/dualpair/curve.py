"""Short-Weierstrass elliptic curves y^2 = x^3 + A*x + B over F_p.

Chord-and-tangent group law, point counting (the quadratic-character
tally, O(p)), the certificate for #E(F_p) = p, a seeded search for
anomalous curves, and 2-torsion utilities.

A random point is drawn once, in `_random_x`: its x, and the sign bit
of its y.  `Curve.random_point` takes one square root of the accepted
x^3 + A*x + B; the search takes none.  Its trials run on plain ints; its
rejects skip curves with a rational point of order 2 or 3, whose order is
not prime to 6 and so never p (`_kills`).  For a drawn point
(x, sqrt(t)), t = x^3 + A*x + B, a trial walks the image P' = (t*x, t^2)
under the F_p-isomorphism (x, y) -> (u^2*x, u^3*y), u = sqrt(t), onto
y^2 = x^3 + A*t^2*x + B*t^3 (Silverman, AEC III.1), which has the same
group, to (p - 1)*P'.  Each draw below p, of A, B and x, is
`getrandbits(k)` with k = p.bit_length(), drawn again while it is >= p: that is what
CPython's `Random.randrange(p)` does under its two Python frames (3.10 to
3.13), so every value and the rng state after each draw are randrange's,
and every seed finds the curves it found through randrange.  A trial
takes the quadratic character of x^3 + A*x + B for each x drawn until one
is a square or zero.  Below `SQUARE_TABLE_FROM` it is read from a table
of the squares mod p and their roots (`_square_table`), built in about
p/2 squarings on a search's first visit to p and kept with p's inverses
(`_prime_tables`, below); from it on, and in `Curve.random_point`,
`is_anomalous` and `count_points`, it is Euler's criterion, one `pow`.
A visit runs max(32, 4*sqrt(p)) trials, so a table built for one visit,
O(p), and the O(sqrt(p)) pows it saves break even near p = 2*10^4
(measured on CPython 3.11 and 3.13).  A lookup gives the same boolean as
the `pow`, so every draw, curve and error stays the same.

Curves with a point of order 2 or 3 fall into one-parameter families
(Tate's normal form), so below `SQUARE_TABLE_FROM` one table per prime,
2p bytes indexed by the isomorphism class of E, marks them all
(`_class_table`), and a reject is one read of it.  #E depends only on
the class, so the table also keeps each walked class's answer, which a
later trial of the class reads instead of walking.  It is built in about
2p steps once the trials that searches drew at p in this process reach
p, and kept with p's other tables: a one-shot search visits a desk-size
prime once, about 4*sqrt(p) trials, and never pays for it, while a
process that searches the same primes again, as the desk workload does,
walks only the classes that it has not walked: the four desk searches
walk none of their 547 curves once their tables are built, and searches
over [1000, 1100] with seeds not run before walk about 38 curves each
over the first 200 seeds after them and fewer than 1 from the 1,200th on.
Before it is built, at A = 0, and from the bound on, the rejects are the
discriminant's character, which finds a cubic with one root, and at
p = 1 mod 3 below the bound a cube test of Cardano's resolvent, which
finds one with three.  A curve with a point of order 2 or 3 has no point
of order p at any p >= 5, so the walk would answer False too, and every
curve found stays the same.

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
written out.  The default Miller chain (`miller.binary_chain`) and
`miller.slope_walk`, which `DualCurve.mul` and Rueck's S(P) read, take its
group operations in its order.  From `SQUARE_TABLE_FROM` on, and for n
from 2^32 on, `Curve.mul` wraps it and inverts once, at the end.

Below `SQUARE_TABLE_FROM` the walks that a session repeats at one p,
`Curve.mul` and the search's kill test `_kills` (both `scalar_mul`) and
`miller.slope_walk`, take the same steps in affine coordinates: one slope a
step, about four products where the Jacobian doubling takes ten, and the
slope's denominator inverted by a read of p's table of inverses
(`_inverse_table`).  A read costs about a quarter of a mulmod where
`pow(d, -1, p)` costs about nine, and that ratio of inversion to
multiplication is what chooses the coordinates (Cohen, Miyaji and Ono).
The table is built whole on the first walk at p, by a recurrence of about
p/2 steps: 0.11 ms at p = 1,433 and 1.6 ms at 19,997 (CPython 3.11), the
time that about 30 and 320 walks to (p - 1)P save there (5.2 us against
8.4 and 7.2 against 12.3).  A visit of the search walks max(32, 4*sqrt(p))
times or fewer, so the per-prime tables outlive the visit: `_prime_tables`
keeps each prime's inverses, and its square and class tables once a search
asks for them, across walks and searches, up to `TABLE_SLOTS` slots over
all primes, and evicts the least recently used primes first.  A process
that searches or walks many times at the same primes below the bound
reads them warm.
From the bound on, a table as long as p would pay only after hundreds of
walks at p, and a walk that takes a `pow` a step measured 1.2-1.4 times
the Jacobian one (p = 20,011 to 2^31 - 1), so every walk there is
Jacobian, and a kill pays one inversion at its end.

Membership, `contains`, is computed on the ints under the wrappers.
`point`, `add` and `mul` check their points with it once, at entry, as do
the other modules' public entries; `_mul_raw` is `mul` for a caller that
holds a checked point (`dlp.AttackResult.verify` below `WINDOW_FROM`), as
`_add_raw` is `add`.  From `WINDOW_FROM` on that check walks two scalars at
once, `jacobian_multi_mul`, the windowed walk of any number of (scalar,
base) pairs, of which `jacobian_mul`'s is the one-pair case.

A curve with #E = p has a rational point group that is cyclic of order p,
so every nonzero point generates and the whole group is p-torsion.  Those
are the attack targets of the rest of the package.  One rule certifies
them: a point P != O with p*P = O has order p, so p divides #E; when 2p
lies above the Hasse interval, which holds for p >= 7, p is the only
multiple of p in it and #E = p.  At p = 5, #E = 10 fits too, but has one
point of order 2, so a non-square discriminant and a marked class, which
`_kills` rejects unwalked: its kill is all that `is_anomalous` and
`find_anomalous` read.
`dlp.DlpInstance` counts at p = 5 instead (`_certifies_anomalous`).
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
        """n*P by `scalar_mul` on plain ints; negative n allowed.

        Below `SQUARE_TABLE_FROM`, for |n| < `WINDOW_FROM`, the walk is affine
        and reads each slope's inverse from p's kept table (`_prime_tables`),
        which pays after a few dozen walks at one p (the module docstring
        gives its cost); otherwise it is `jacobian_mul`'s, which inverts
        once, at the end.
        """
        self._require_on_curve(P)
        return self._mul_raw(n, P)

    def _mul_raw(self, n: int, P: Point) -> Point:
        """`mul` for a P already checked to lie on the curve."""
        if n < 0:
            n, P = -n, self.neg(P)
        if n == 0 or P.is_infinity:
            return INFINITY
        xy = scalar_mul(self.p, self.A.value, n, P.x.value, P.y.value)
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

#: The smallest scalar recoded with the 4-bit window, where smaller ones use their bits, and the smallest
#: p whose `dlp.AttackResult.verify` walks u*P - v*Q with half-length u and v instead of n*P.
WINDOW_FROM = 1 << 32
#: The smallest p with no per-prime table: below it the search's trials read p's square table, and the
#: walks of `scalar_mul` and `miller.slope_walk` run affine on p's table of inverses (`_prime_tables`).
SQUARE_TABLE_FROM = 20_000
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
#: The digits of each window of the 4-bit recoding: "0", and each odd d < 16 in binary.
_WINDOW_DIGITS = {"0": b"\x00"} | {bin(d)[2:]: bytes(d.bit_length() - 1) + bytes([d]) for d in range(1, 16, 2)}
#: Each digit's index in its base's table [0, base, 3*base, ...] of `jacobian_multi_mul`: 0 for 0, (d + 1)/2 for odd d.
_TABLE_INDEX = bytes((d + 1) // 2 for d in range(256))


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
    from `SQUARE_TABLE_FROM` on, the search's `_kills` runs it, through
    `scalar_mul`, thousands of times at a few dozen bits, where recoding,
    or a function call per step, would cost more than it saves.
    That walk is one loop on local ints with `jacobian_double` and
    `jacobian_add` written out; the addition is `jacobian_add` with Z2 = 1
    (so Z2^2 = 1, U1 = X1 and S1 = Y1), and every step, the degenerate ones
    included (an operand at O, Y = 0, and H = 0), ends at the triple those
    functions return.  From 2^32 on it is `jacobian_multi_mul` of the one
    pair (n, base).
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
    return jacobian_multi_mul(p, a, ((n, base),))


def jacobian_multi_mul(p: int, a: int, pairs) -> tuple:
    """n_1*base_1 + n_2*base_2 + ... for (n_i >= 1, base_i) pairs, in one walk (Straus).

    Each base is an affine point as a triple (x, y, 1), and gets a table of
    its odd multiples base, 3*base, ... up to its largest `window_digits`
    digit, from 2*base.  The shorter digit strings are padded with leading
    zeros; for each column the sum doubles once, then adds, pair by pair,
    the table entry of each nonzero digit.  The walk runs down one list of
    steps: per column None, the double, then each pair's entry, or 0 for a
    zero digit.  The sum starts at O, where the first double does nothing
    and the first add takes the entry as it is, so one pair's walk takes the
    steps of `miller.binary_chain(n)` in its order.
    """
    walks = []
    for n, base in pairs:
        digits = window_digits(n)
        twice = jacobian_double(p, a, base)[0]
        table = [0, base]
        for _ in range(max(digits) // 2):
            table.append(jacobian_add(p, a, table[-1], twice)[0])
        walks.append(list(map(table.__getitem__, digits.translate(_TABLE_INDEX))))
    length, width = max(map(len, walks)), len(walks) + 1
    steps = ([None] + [0] * len(walks)) * length
    for i, entries in enumerate(walks, 1):
        steps[i + (length - len(entries)) * width :: width] = entries
    acc = JACOBIAN_INFINITY
    for entry in steps:
        if entry is None:
            acc = jacobian_double(p, a, acc)[0]
        elif entry:
            acc = jacobian_add(p, a, acc, entry)[0]
    return acc


#: The most slots that `_prime_tables` keeps over all primes, one per entry of a table: at most 4.8 MB
#: (tracemalloc, CPython 3.11, every slot an inverse; a byte of the square and class tables costs less), and at
#: least the 4p of a searched prime's three tables for every p below `SQUARE_TABLE_FROM`.
TABLE_SLOTS = 1 << 17


class _PrimeTables:
    """One prime's kept tables (`_prime_tables`): its inverses; once a search visits it, its square table
    and the count of the trials drawn at it (`drawn`); and once those reach p, its class table, which
    gathers the verdicts of the classes that `_kills` walks on it, and goes with the rest on eviction."""

    __slots__ = ("inverses", "squares", "drawn", "classes")

    def __init__(self, p: int):
        self.inverses, self.squares, self.drawn, self.classes = _inverse_table(p), None, 0, None

    def slots(self) -> int:
        return sum(len(table) for table in (self.inverses, self.squares, self.classes) if table is not None)


#: p -> p's `_PrimeTables`, least recently used first (`_prime_tables`).
_TABLES: dict[int, _PrimeTables] = {}


def _prime_tables(p: int, search: bool = False) -> _PrimeTables:
    """p's kept tables below `SQUARE_TABLE_FROM`: its inverses (`_inverse_table`); with `search`, its
    square table (`_square_table`) too, and its class table (`_class_table`) once the trials that
    searches drew at p in this process, which `find_anomalous` adds to `drawn` after each visit, reach p.

    A visit draws max(32, 4*sqrt(p)) trials, so a search that visits p once, as a one-shot search at
    desk size does, never pays for a class table, whose build of about 2p steps costs what about
    0.1p trials cost without it; a process that keeps searching p builds it once, after about
    sqrt(p)/4 visits, and it pays back within about 0.3p trials (p = 1,433, CPython 3.11).  Each
    table is built on the call that first needs it and kept in `_TABLES`, most recently asked for
    last; a table that would take the kept slots past `TABLE_SLOTS` evicts the least recently used
    primes, with their tables and trial counts, until they fit.
    """
    tables = _TABLES.pop(p, None)
    grown = tables is None
    if grown:
        tables = _PrimeTables(p)
    if search and tables.classes is None:
        if tables.squares is None:
            tables.squares, grown = _square_table(p), True
        elif tables.drawn >= p:
            tables.classes, grown = _class_table(p, tables.inverses, tables.squares), True
    if grown:
        # copies, and a default for a prime gone, so that threads sharing the tables cannot break the loops
        kept = tables.slots() + sum(kept_q.slots() for kept_q in list(_TABLES.values()))
        for q in list(_TABLES):
            if kept <= TABLE_SLOTS:
                break
            gone = _TABLES.pop(q, None)
            kept -= gone.slots() if gone else 0
    _TABLES[p] = tables
    return tables


def _inverse_table(p: int) -> list[int]:
    """d -> 1/d mod p, 0 at 0: inv[d] = -(p div d)*inv[p mod d], as p = (p div d)*d + p mod d, and
    inv[p - d] = -inv[d], so about p/2 steps of a few int operations.  A walk's read of it costs
    about a quarter of a mulmod where `pow(d, -1, p)` costs about nine."""
    inv = [0] * p
    inv[1], inv[-1] = 1, p - 1
    for d in range(2, (p + 1) // 2):
        inv[d] = i = -(p // d) * inv[p % d] % p
        inv[p - d] = p - i
    return inv


def scalar_mul(p: int, a: int, n: int, x: int, y: int) -> tuple | None:
    """n*(x, y) for n >= 1 as an affine (x, y) int pair, None for O.

    Below `SQUARE_TABLE_FROM`, for n < `WINDOW_FROM`, it is `jacobian_mul`'s
    double-and-add in affine coordinates: one slope a step, its denominator's
    inverse read from p's table (`_prime_tables`), and about four products
    where the Jacobian doubling takes ten.  A doubling at y = 0 is O, an add to O
    takes the base, an add of the base to its negative is O, and an add of
    the base to itself doubles it by `jacobian_double`.  Otherwise
    `jacobian_mul`, inverted once.
    """
    if p >= SQUARE_TABLE_FROM or n >= WINDOW_FROM:
        return jacobian_affine(p, jacobian_mul(p, a, n, (x, y, 1)))
    inv, X, Y = _prime_tables(p).inverses, x, y
    for bit in bin(n)[3:]:
        if X is not None:
            if Y:
                d = 2 * Y % p
                lam = (3 * X * X + a) * inv[d] % p
                X3 = (lam * lam - 2 * X) % p
                X, Y = X3, (lam * (X - X3) - Y) % p
            else:
                X = None
        if bit == "1":
            if X is None:
                X, Y = x, y
            elif X != x:
                d = (x - X) % p
                lam = (y - Y) * inv[d] % p
                X3 = (lam * lam - X - x) % p
                X, Y = X3, (lam * (X - X3) - Y) % p
            elif Y == y:  # an even multiple that is the base, so y != 0
                X, Y = jacobian_affine(p, jacobian_double(p, a, (x, y, 1))[0])
            else:
                X = None
    return None if X is None else (X, Y)


def jacobian_affine(p: int, P: tuple) -> tuple | None:
    """The Jacobian triple P as an affine (x, y) int pair, None for Z = 0; one inversion unless Z = 1."""
    X, Y, Z = P
    if Z == 1:  # an affine walk's end (`miller.slope_walk`)
        return X, Y
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


def _square_table(p: int) -> list[int]:
    """t -> r + 1 at t = r^2 mod p, for the root r <= (p - 1)/2, 0 included; 0 at a non-square.

    Read by truthiness it is Euler's criterion as one index; less one, a
    square's root.  About p/2 squarings, one per residue class {i, -i}.
    """
    table = [0] * p
    for i in range((p + 1) // 2):
        table[i * i % p] = i + 1
    return table


def _class_table(p: int, inv: list[int], squares: list[int]) -> bytearray:
    """The search's class table at p: 1 at the index of each F_p-isomorphism class of curves
    y^2 = x^3 + a*x + b, a != 0, that have a rational point of order 2 or 3, else 0.  The index is
    w + h*p with w = b^2/a^3, and h = 0 for a square b or b = 0, 1 for a non-square one; `inv` and
    `squares` are p's tables.

    (a, b) -> (u^4*a, u^6*b) keeps w and the character of b, and for b != 0 the two name the class,
    as the character of w is a's: w gives j, and b's character tells a curve from its quadratic
    twist.  Order 2: x^3 + a*x + b has a root r exactly when w = s*(s + 1)^2 with s = r^2/a, and a
    twist keeps a root, so both halves are marked at s*(s + 1)^2 for every s in F_p; b = 0, whose
    root is x = 0, reads w = 0, marked at s = 0.  Order 3: a curve with a != 0 and a point of order
    3 is y^2 + x*y + c*y = x^3 for some c != 0, with the point at (0, 0) (Tate's normal form; D.
    Kubert, Proc. LMS 33, 1976), whose short form scaled by 6 is A = 648c - 27, B = 11664c^2 - 1944c
    + 54 = N/36 with N = A^2 - 54A - 243.  So for each A != 0 with N != 0, w = N^2/(1296*A^3) is
    marked on N's half.  About 2p steps; A = -27, where c = 0, marks the singular curves' w = -4/27,
    which is never read.

    The search's `_kills` writes into the cells left 0 the verdict of each class it walks: 1, as a
    mark reads, for a class that is not anomalous, 2 for one that is.  #E(F_p) depends only on the
    class (Silverman, AEC III.1 and X.5: for a, b != 0, j is not 0 or 1728, so two curves with one w
    are quadratic twists of each other, isomorphic exactly when b's character agrees), so one walk
    answers every later trial of the class.
    """
    classes = bytearray(p)
    for s in range(p):
        classes[s * (s + 1) * (s + 1) % p] = 1
    classes *= 2
    k = pow(1296, -1, p)
    for A in range(1, p):
        N = (A * A - 54 * A - 243) % p
        if N:
            i = inv[A]
            q = N * i % p
            classes[k * q * q * i % p + (0 if squares[N] else p)] = 1
    return classes


def _kills(p: int, a: int, b: int, x: int, tables: _PrimeTables | None = None) -> bool:
    """Whether p*P = O for P = (x, sqrt(t)) on the nonsingular y^2 = x^3 + a*x + b, where
    t = x^3 + a*x + b is a square or zero; False early if E cannot be anomalous.

    #E = p is prime to 6, so a curve with a rational point of order 2 or 3
    cannot be anomalous; the first of these that applies rejects such curves
    without a walk:
    * with p's `tables` (`_prime_tables(p, True)`), their class table built
      and a != 0: the cell of E's class (`_class_table`), for one read of 1/a,
      three products and two table reads; it marks every curve with a point
      of order 2 or 3, b = 0 among them, and a cell that holds a walked
      class's verdict answers it, True at 2, with no walk;
    * with `tables`: a non-square discriminant D = -(4a^3 + 27b^2), which
      leaves the cubic exactly one root, read from the square table; and at
      p = 1 mod 3 a square D, which leaves three roots or none, with three
      when Cardano's resolvent is a cube: -27*D is then a square s^2, and the
      cubic splits exactly when 4*(s - 27b) is a cube; where s - 27b = 0 (only
      at a = 0) the other root -s gives 4*(-s - 27b), a cube exactly when
      4*(s + 27b) is, as -1 is one;
    * without `tables`: a non-square D, by Euler's criterion.
    With t a nonzero square, the walk is not of P but of its image
    P' = (t*x, t^2) under the isomorphism (x, y) -> (u^2*x, u^3*y), u = sqrt(t),
    onto y^2 = x^3 + a*t^2*x + b*t^3, which needs no square root.  An
    isomorphism preserves the group law, so p*P = O exactly when p*P' is; and
    the sign of y does not matter, since p*(-P) = -(p*P).  `scalar_mul` walks
    to (p - 1)*P', compared with -P' = (t*x, p - t^2), one add short of p*P':
    affine on p's table of inverses below `SQUARE_TABLE_FROM`, and
    `jacobian_mul` with one inversion from it on.  On an unmarked cell the
    walk's answer is stored there (1 + killed) when t is a nonzero square:
    p kills an affine point of E exactly when #E = p, and then every one.
    When t = 0, P has order 2 and p*P = P, as p is odd.  For a non-square t
    there is no such P, and the answer is not defined: P' then lies on the
    quadratic twist, which may be anomalous where E is not, so the answer
    depends on which rejects ran, and it is never stored.
    """
    cell = None
    if tables is None:
        if pow(-(4 * a * a * a + 27 * b * b) % p, (p - 1) // 2, p) != 1:
            return False
    elif tables.classes and a:
        i = tables.inverses[a]
        q = b * i % p
        cell = q * q * i % p + (0 if tables.squares[b] else p)
        if verdict := tables.classes[cell]:
            return verdict == 2
    else:
        squares, d = tables.squares, -(4 * a * a * a + 27 * b * b) % p
        if not squares[d]:
            return False
        if p % 3 == 1:
            s = squares[-27 * d % p] - 1
            if pow(4 * ((s - 27 * b) % p or s + 27 * b), (p - 1) // 3, p) == 1:
                return False
    t = (x * x * x + a * x + b) % p
    if not t:
        return False
    tx, tt = t * x % p, t * t % p
    killed = scalar_mul(p, a * tt % p, p - 1, tx, tt) == (tx, p - tt)
    if cell is not None and tables.squares[t]:
        tables.classes[cell] = 1 + killed
    return killed


def _random_x(p: int, a: int, b: int, rng: random.Random, squares: list[int] | None = None) -> tuple[int, int]:
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
    """True iff #E(F_p) = p, by `_kills` on the first affine point, whose kill is the certificate.

    The point is (x, sqrt(t)) for the least x where t = x^3 + Ax + B is a
    square or zero.  `_kills` walks its image on an isomorphic curve, whose
    group is the same, so p kills the image exactly when it kills the point;
    below `SQUARE_TABLE_FROM` on p's kept table of inverses, built on the
    first walk at p.
    """
    p, a, b = curve.p, curve.A.value, curve.B.value
    return _kills(p, a, b, next(x for x in range(p) if legendre(x * x * x + a * x + b, p) != -1))


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
    `Curve.random_point` does, and walks P's image P' on an isomorphic
    curve to (p - 1)*P', compared with -P' (`_kills`, no square root),
    except on curves that `_kills` finds to have a point of order 2 or 3,
    which cannot be anomalous.  p kills P' exactly when it kills P, so a
    hit is P's certificate, and a `Curve` is built only for a hit.  Below
    `SQUARE_TABLE_FROM` the trials read p's square table and walk on p's
    table of inverses, both kept across visits and searches
    (`_prime_tables`), so a process that searches the same primes again
    builds neither again; each visit adds its trials to p's count, and
    once that reaches p the next visit builds p's class table, after which
    a curve with a point of order 2 or 3 is rejected by one read of it,
    and a curve whose isomorphism class a trial has walked is answered by
    one read of the verdict kept there.
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
        tables = _prime_tables(p, True) if p < SQUARE_TABLE_FROM else None
        squares, first = tables and tables.squares, trials
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
            if (4 * a * a * a + 27 * b * b) % p == 0 or seen and (p, a, b) in seen:
                continue
            if tried and not tried[p][a * p + b]:
                tried[p][a * p + b] = 1
                untried -= 1
            if _kills(p, a, b, _random_x(p, a, b, rng, squares)[0], tables):
                found.append(Curve(Fp(p), a, b))
                seen.add((p, a, b))
                if len(found) == count:
                    break
            if untried == 0:
                raise SearchExhaustedError(f"[{p_min}, {p_max}] holds only {len(found)} anomalous curves")
        if tables:
            tables.drawn += trials - first
    return found
