"""Dense univariate polynomials over F_p, with root finding and factoring.

Hosts the rational maps of isogenies and the cubics/division polynomials
used for torsion work.  Coefficients are stored as canonical ints in
[0, p); the zero polynomial has an empty coefficient tuple and degree
minus infinity.

Every p takes one root-finding path: g = gcd(x^p - x, f) isolates the
product of the distinct rational linear factors, and the Cantor-Zassenhaus
equal-degree split (`_split_equal_degree`, von zur Gathen and Gerhard,
Modern Computer Algebra, section 14.3) with d = 1 breaks g into them.  The
isogeny search uses the same split for scalar Frobenius; the full `factor`
is off that path and is kept as a tested general tool.
"""

from __future__ import annotations

from .errors import BadInputError
from .fields import Fp, FpElement

_NEG_INF = float("-inf")


class Polynomial:
    """A polynomial over F_p, dense, trailing zeros stripped."""

    __slots__ = ("coeffs", "field")

    def __init__(self, field: Fp, coeffs=()):
        p = field.p
        # field(c) raises BadInputError on an element of another field
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
        return Polynomial(field, (int(field(c)),))

    @staticmethod
    def x(field: Fp) -> "Polynomial":
        return Polynomial(field, (0, 1))

    @staticmethod
    def from_roots(field: Fp, roots) -> "Polynomial":
        out = Polynomial.constant(field, 1)
        for r in roots:
            out = out * Polynomial(field, (-int(field(r)), 1))
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

    def _check(self, other: "Polynomial"):
        if other.field.p != self.field.p:
            raise BadInputError("mixed field contexts")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.field, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b  # reduced mod p once, by the constructor
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(self.field), self
        inv_lead = pow(other.lead(), -1, p)
        quo = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv_lead % p
            if c:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b  # reduced mod p where read, and by the constructor
        return Polynomial(self.field, quo), Polynomial(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division was not exact")
        return q

    def gcd(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, n: int, mod: "Polynomial") -> "Polynomial":
        # left to right, so that a short base such as x + c costs a short multiply
        base = self % mod
        out = Polynomial.constant(self.field, 1) % mod
        for bit in bin(n)[2:]:
            out = out * out % mod
            if bit == "1":
                out = out * base % mod
        return out

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        """Evaluate at an int or an element of F_p by Horner's rule, on ints."""
        if not isinstance(x, (int, FpElement)):
            raise TypeError(f"cannot evaluate at {type(x).__name__}")
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
        return [f(v) for v in sorted(-h[0] % f.p for h in _split_equal_degree(g, 1))]

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
            d = g.gcd(g.derivative())
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
        if not isinstance(other, Polynomial):
            return NotImplemented
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
            out.extend(_split_equal_degree(h, d))
            rest = rest.exact_div(h)
            xq = xq % rest
    return out


def _split_equal_degree(g: Polynomial, d: int) -> list[Polynomial]:
    """Split g, a product of distinct irreducibles all of degree d (none if g is constant)."""
    f = g.field
    if g.degree <= d:
        return [g.monic()] if g.degree == d else []
    one = Polynomial.constant(f, 1)
    exp = (f.p**d - 1) // 2
    counter = 1
    while True:
        # deterministic trial elements: x + c, then c*x + x^2 + ... as needed
        trial = Polynomial(f, (counter, 1)) if counter < f.p else Polynomial(f, (counter % f.p, counter // f.p, 1))
        h = trial.pow_mod(exp, g) - one
        s = h.gcd(g)
        if 0 < s.degree < g.degree:
            return _split_equal_degree(s, d) + _split_equal_degree(g.exact_div(s), d)
        counter += 1


def cubic_roots(field: Fp, a, b) -> list[FpElement]:
    """All x in F_p with x^3 + a*x + b = 0, sorted by value."""
    return Polynomial(field, (int(field(b)), int(field(a)), 0, 1)).roots()
