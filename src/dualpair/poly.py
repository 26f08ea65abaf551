"""Dense univariate polynomials over F_p, with root finding and factoring.

Hosts the rational maps of isogenies and the cubics/division polynomials
used for torsion work.  Coefficients are stored as canonical ints in
[0, p); the zero polynomial has an empty coefficient tuple and degree
minus infinity.

Products and remainders run on packed ints (Kronecker substitution, von zur
Gathen and Gerhard, Modern Computer Algebra, section 8.4): c_0 + c_1 x + ...
becomes the one int c_0 + c_1 2^w + ..., little-endian slots of w bits, so
that x -> 2^w.  w is taken from the largest slot sum a kernel can reach, a
sum of `terms` products of two residues, 2*bits(p) + bits(terms) bits,
rounded up to whole 64-bit words; a slot then never carries into the next,
so a product of polynomials is one int product whose slots are the
coefficients before reduction mod p.  One-word slots pack and unpack through
`array('Q')`, wider ones through each slot's bytes.

* `*` is one int product, unpacked once.
* `divmod` is long division on the packed dividend: each quotient
  coefficient c is read from the top slot, and (p - c)*divisor, shifted
  under it, is added, which zeroes that slot mod p; slots only grow, so no
  borrow ever crosses one.  The dividend is unpacked once, at the end.
* `gcd` is Euclid on the same division (von zur Gathen and Gerhard, section
  3.2), with each remainder kept packed from one step to the next: one
  Barrett step (Barrett, CRYPTO '86) on the whole int, r - (((r*mu) >> S) &
  M)*p with mu = floor(2^S/p), brings every slot into [0, 2p) at once.  A
  division by a divisor of degree m leaves a remainder slot below 2p +
  min(m, len(quotient))*2p^2: a dividend's slots are below 2p, and a
  remainder slot gains one row of (p - 1)*2p for each quotient coefficient
  at or below it.  S is the bit length of that bound at its largest over
  Euclid's divisions, min(m, len(a) - m) rows in the first and (m + 1)//2
  in a later one, whose dividend has degree m at most (and one row at
  least).  M keeps the low
  S - bits(p) + 1 bits of each slot, and a slot is 2S - bits(p) + 1 bits,
  rounded up to whole 64-bit words, so that no slot's product with mu
  reaches the next slot (nor do the m + 1 rows a dividend slot takes
  overflow it).  Only the top slot is read
  exactly (mod p): for the divisor's lead, and to drop top slots that are
  0 mod p, the int 0 or p.  The gcd is unpacked once, at the end.
* `pow_mod` keeps its accumulator packed: each step is one int product and
  the packed division, and the remainder is unpacked, reduced mod p and
  repacked once per step.  The Barrett step runs there on the wider slots
  of a square and measured slower, x^p mod a degree-60 modulus taking
  66 -> 84 ms at 127 bits and 303 -> 433 ms at 256 bits (2-core Xeon,
  Python 3.11).

Every p takes one root-finding path: g = gcd(x^p - x, f) isolates the
product of the distinct rational linear factors, and the Cantor-Zassenhaus
equal-degree split (von zur Gathen and Gerhard, Modern Computer Algebra,
section 14.3) breaks g into them.  One splitter serves every squarefree
polynomial, `_split_by_values(g, s, d)`, which takes its trials
(s + c)^((p^d-1)/2) in a polynomial s in place of x.  With d = 1 the pieces
are the unions of g's roots on which s takes one value: `roots` runs it
with s = x, and the isogeny search with s = the symmetric function of a
line that splits psi_ell by lines when Frobenius is a scalar.  `factor`
runs it with s = x and the degree d of each distinct-degree piece, and is
off those paths, kept as a tested general tool.
"""

from __future__ import annotations

import sys
from array import array
from itertools import zip_longest

from .errors import BadInputError, DualPairError
from .fields import Fp, FpElement

_NEG_INF = float("-inf")
#: array('Q') holds native-order words; the packed ints are little-endian
_SWAP_WORDS = sys.byteorder != "little"


def _width(p: int, terms: int) -> int:
    """Slot bits that hold a sum of `terms` products of two ints below p, in whole 64-bit words."""
    return -(-(2 * p.bit_length() + terms.bit_length()) // 64) * 64


def _pack(coeffs, w: int) -> int:
    """sum c_i * 2^(w*i) for nonnegative c_i below 2^w."""
    if w == 64:
        words = array("Q", coeffs)
        if _SWAP_WORDS:
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")
    size = w // 8
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")


def _unpack(a: int, slots: int, w: int) -> list:
    """The `slots` w-bit slots of a nonnegative a below 2^(w*slots), lowest first."""
    size = w // 8
    raw = a.to_bytes(slots * size, "little")
    if w == 64:
        words = array("Q", raw)
        if _SWAP_WORDS:
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _divide(a: int, b: int, m: int, inv_lead: int, w: int, p: int) -> tuple[list, int]:
    """Long division of the packed a by the packed b of degree m, whose lead has
    inverse inv_lead mod p: (quotient coeffs, lowest first, reduced; the packed
    remainder, m slots, not reduced).  Each slot of a must stay below 2^w after
    it gains up to m + 1 products of an int below p and a slot of b."""
    mask = (1 << w) - 1
    quo = [0] * max(0, -(-a.bit_length() // w) - m)
    for i in range(len(quo) - 1, -1, -1):
        c = ((a >> (w * (i + m))) & mask) * inv_lead % p
        if c:
            quo[i] = c
            a += (p - c) * b << (w * i)  # the top slot becomes 0 mod p; slots above it are left as they are
    return quo, a & ((1 << (w * m)) - 1)


class Polynomial:
    """A polynomial over F_p, dense, trailing zeros stripped."""

    __slots__ = ("coeffs", "field")

    def __init__(self, field: Fp, coeffs=()):
        p = field.p
        # every other scalar is read by `Fp`, which raises on a float or another field's element
        cs = [c % p if type(c) is int else field(c).value for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.field = field

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field: Fp) -> "Polynomial":
        return Polynomial(field, ())

    @staticmethod
    def constant(field: Fp, c) -> "Polynomial":
        return Polynomial(field, (c,))

    @staticmethod
    def x(field: Fp) -> "Polynomial":
        return Polynomial(field, (0, 1))

    @staticmethod
    def from_roots(field: Fp, roots) -> "Polynomial":
        out = Polynomial.constant(field, 1)
        for r in roots:
            out = out * Polynomial(field, (-field(r), 1))
        return out

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = pow(self.lead(), -1, self.field.p)
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    # -- ring operations ----------------------------------------------

    def _operand(self, other) -> "Polynomial":
        """other as a polynomial of this field: a constant read by `Fp`, or a Polynomial of the same p."""
        if not isinstance(other, Polynomial):
            return Polynomial(self.field, (other,))
        if other.field.p != self.field.p:
            raise BadInputError("mixed field contexts")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return Polynomial(self.field, [x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        return Polynomial(self.field, [x - y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __rsub__(self, other):
        return self._operand(other) - self

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):  # a scalar product, one int multiply per coefficient
            c = other if type(other) is int else self.field(other).value
            return Polynomial(self.field, [x * c for x in self.coeffs])
        a, b = self.coeffs, self._operand(other).coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        w = _width(self.field.p, min(len(a), len(b)))
        return Polynomial(self.field, _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._operand(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            return Polynomial.zero(self.field), self
        p = self.field.p
        w = _width(p, len(b) + 1)  # a slot below p gains up to len(b) products
        quo, rem = _divide(_pack(a, w), _pack(b, w), len(b) - 1, pow(b[-1], -1, p), w, p)
        return Polynomial(self.field, quo), Polynomial(self.field, _unpack(rem, len(b) - 1, w))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division was not exact")
        return q

    def gcd(self, other) -> "Polynomial":
        p, a, b = self.field.p, self.coeffs, self._operand(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Polynomial(self.field, a).monic()
        # a division adds min(m, len(quotient)) rows of (p - 1)*2p to a remainder slot below 2p: at most
        # min(m, len(a) - m) in the first division and (m + 1)//2 in a later one, whose dividend has degree m
        bits, m = p.bit_length(), len(b) - 1
        s = (2 * p + max(1, min(m, len(a) - m), (m + 1) // 2) * 2 * p * p).bit_length()
        # no slot's product with mu reaches the next slot, nor do the m + 1 rows a dividend slot takes overflow it
        w = -(-(2 * s - bits + 1) // 64) * 64
        mu, slot = (1 << s) // p, (1 << w) - 1
        keep = _pack([(1 << (s - bits + 1)) - 1] * len(a), w)  # each slot's floor(slot*mu / 2^S)
        dividend, divisor, lead = _pack(a, w), _pack(b, w), b[-1]
        while True:
            rem = _divide(dividend, divisor, m, pow(lead, -1, p), w, p)[1]
            rem -= ((rem * mu >> s) & keep) * p  # one Barrett step on every slot: each into [0, 2p)
            n = m  # drop the top slots that are 0 mod p, the int 0 or p
            while n:
                lead = (rem >> (w * (n - 1)) & slot) % p
                if lead:
                    break
                n -= 1
            if not n:
                return Polynomial(self.field, _unpack(divisor, m + 1, w)).monic()
            dividend, divisor, m = divisor, rem & ((1 << (w * n)) - 1), n - 1

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, n: int, mod) -> "Polynomial":
        if n < 0:
            raise BadInputError("pow_mod needs an exponent n >= 0")
        mod = self._operand(mod)
        # left to right, so that a short base such as x + c costs a short multiply
        base, p, m = self % mod, self.field.p, len(mod.coeffs) - 1
        if m == 0:
            return Polynomial.zero(self.field)
        w = _width(p, 2 * m + 1)  # a square's slots, m products each, gain up to m + 1 more
        b, inv_lead = _pack(mod.coeffs, w), pow(mod.lead(), -1, p)

        def reduced(a: int) -> int:  # the packed remainder, its slots brought below p
            return _pack([c % p for c in _unpack(_divide(a, b, m, inv_lead, w, p)[1], m, w)], w)

        packed_base, acc = _pack(base.coeffs, w), 1
        for bit in bin(n)[2:]:
            acc = reduced(acc * acc)
            if bit == "1":
                acc = reduced(acc * packed_base)
        return Polynomial(self.field, _unpack(acc, m, w))

    def inverse_mod(self, mod) -> "Polynomial":
        """u with u*self = 1 mod `mod`, deg u < deg mod, by the extended Euclidean
        algorithm; raises DualPairError unless gcd(self, mod) = 1."""
        f, r0 = self.field, self._operand(mod)
        r1 = self % r0
        u0, u1 = Polynomial.zero(f), Polynomial.constant(f, 1)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1, u0, u1 = r1, r, u1, u0 - q * u1
        if r0.degree != 0:
            raise DualPairError("polynomial is not invertible modulo a polynomial it shares a factor with")
        return u0 * pow(r0.lead(), -1, f.p)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar read by `Fp` by Horner's rule, on ints."""
        f = self.field
        v, p, acc = f(x).value, f.p, 0
        for c in reversed(self.coeffs):
            acc = (acc * v + c) % p
        return FpElement(acc, f)

    # -- roots and factors ---------------------------------------------

    def roots(self) -> list[FpElement]:
        """The distinct roots in F_p, sorted by value, found deterministically."""
        f = self.field
        if self.is_zero():
            raise ValueError("every element is a root of the zero polynomial")
        x = Polynomial.x(f)
        g = (x.pow_mod(f.p, self) - x).gcd(self)  # the product of the distinct linear factors
        return [f(v) for v in sorted(-h[0] % f.p for h in _split_by_values(g, x))]

    def factor(self) -> list[tuple["Polynomial", int]]:
        """Monic irreducible factors with multiplicities (Cantor-Zassenhaus)."""
        if self.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        out: dict[tuple, int] = {}
        work = [(self.monic(), 1)]
        while work:
            g, mult = work.pop()
            if g.degree <= 0:
                continue
            dg = g.derivative()
            if dg.is_zero():  # g = h(x^p) = h^p, as c^p = c for every coefficient c
                work.append((Polynomial(self.field, g.coeffs[::self.field.p]), mult * self.field.p))
                continue
            d = g.gcd(dg)
            if d.degree > 0:
                work.append((g.exact_div(d), mult))
                work.append((d, mult))
                continue
            for irr in _factor_squarefree(g):
                out[irr.coeffs] = out.get(irr.coeffs, 0) + mult
        return sorted(
            ((Polynomial(self.field, cs), m) for cs, m in out.items()),
            key=lambda t: (t[0].degree, t[0].coeffs),
        )

    def __eq__(self, other):
        """A Polynomial of the same p with the same coefficients, or an int or an FpElement of this
        field that reads as this constant polynomial, as `FpElement.__eq__` reads an int; anything else
        is NotImplemented.  `__hash__` is unchanged, as FpElement's is by its int rule, so a constant
        and its scalar compare equal with different hashes."""
        if not isinstance(other, Polynomial):
            if not (isinstance(other, int) or isinstance(other, FpElement) and other.field.p == self.field.p):
                return NotImplemented
            other = Polynomial(self.field, (other,))
        return self.coeffs == other.coeffs and self.field.p == other.field.p

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return " + ".join(reversed(terms))


def _factor_squarefree(g: Polynomial) -> list[Polynomial]:
    """Irreducible factors of a squarefree monic g."""
    f = g.field
    out: list[Polynomial] = []
    x = Polynomial.x(f)
    xq = x
    d = 0
    rest = g
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append(rest)
            break
        xq = xq.pow_mod(f.p, rest)
        h = (xq - x).gcd(rest)
        if h.degree > 0:
            out.extend(_split_by_values(h, x, d))
            rest = rest.exact_div(h)
            xq = xq % rest
    return out


def _split_by_values(g: Polynomial, s: Polynomial, d: int = 1, counter: int = 1) -> list[Polynomial]:
    """The pieces of a squarefree monic g (none if g is constant).  With d = 1 they are the unions of
    g's roots on which s takes one value, for an s whose values there are in F_p; with s = x and every
    irreducible factor of g of degree d, they are those factors.

    This is the Cantor-Zassenhaus equal-degree split with x replaced by s: gcd(g, (s + c)^((p^d-1)/2) - 1)
    collects the roots at which s + c is a nonzero square in F_(p^d).  A piece is done when its degree
    is at most d or s is constant on it.  A trial that split g, or failed to, splits neither piece, so
    the pieces take their trials from the next one on.
    """
    f = g.field
    if g.degree <= 0:
        return []
    s = s % g
    if g.degree <= d or s.degree <= 0:
        return [g]
    exp = (f.p**d - 1) // 2
    while True:
        # deterministic trial elements: s + c, then s^2 + c1*s + c0 as needed
        trial = s + counter if counter < f.p else s * s + s * (counter // f.p) + counter % f.p
        h = (trial.pow_mod(exp, g) - 1).gcd(g)
        counter += 1
        if 0 < h.degree < g.degree:
            return _split_by_values(h, s, d, counter) + _split_by_values(g.exact_div(h), s, d, counter)


def cubic_roots(field: Fp, a, b) -> list[FpElement]:
    """All x in F_p with x^3 + a*x + b = 0, sorted by value."""
    return Polynomial(field, (b, a, 0, 1)).roots()
