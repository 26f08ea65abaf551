"""Prime-field and dual-number arithmetic.

The scalar substrate for the whole package: the prime field F_p (p an odd
prime > 3) and the dual numbers F_p[eps] = F_p[x]/(x^2), whose elements
a + b*eps multiply with eps^2 = 0:

    (a + b*eps) * (c + d*eps) = a*c + (a*d + b*c)*eps

A dual number is a unit exactly when its field part is nonzero, and then

    (a + b*eps)^-1 = a^-1 - a^-2 * b * eps.

The modulus travels in an explicit field context (`Fp`) shared by all the
elements of one computation; mixing contexts raises BadInputError.  Values
are immutable and every operation is a pure function, so everything here
is safe for unrestricted concurrent use.

Integers serialize as decimal strings in JSON; a dual number serializes as
{"re": "...", "eps": "..."}.  `json_int` reads every integer field back: a
decimal string of ASCII digits with an optional "-", or a JSON integer,
never a float or a bool.
"""

from __future__ import annotations

import re

from .errors import BadInputError, DivisionByZeroError, NonUnitError
from .numbertheory import is_prime, sqrt_mod


def json_int(value) -> int:
    """An integer field of a JSON document: a JSON int (not a bool), or a decimal
    string of an optional "-" and ASCII digits, with no "+", "_" or space."""
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        return int(value)
    raise ValueError(f"expected an integer or a decimal string, got {value!r}")


class Fp:
    """Context for exact arithmetic modulo an odd prime p > 3."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p <= 3 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime > 3, got {p}")
        self.p = p

    def __call__(self, value) -> "FpElement":
        if isinstance(value, FpElement):
            if value.field.p != self.p:
                raise BadInputError("mixed field contexts")
            return value
        return FpElement(int(value) % self.p, self)

    def zero(self) -> "FpElement":
        return FpElement(0, self)

    def one(self) -> "FpElement":
        return FpElement(1, self)

    def random(self, rng) -> "FpElement":
        return FpElement(rng.randrange(self.p), self)

    def sqrt(self, a: "FpElement") -> "FpElement | None":
        r = sqrt_mod(a.value, self.p)
        return None if r is None else FpElement(r, self)

    def dual(self, re, eps=0) -> "DualNumber":
        return DualNumber(self(re), self(eps))

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"Fp({self.p})"


class FpElement:
    """An element of F_p, canonically reduced to [0, p)."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: Fp):
        self.value = value % field.p
        self.field = field

    def _coerce(self, other) -> "FpElement | None":
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise BadInputError("mixed field contexts")
            return other
        if isinstance(other, int):
            return FpElement(other, self.field)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value, self.field)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise DivisionByZeroError("inverse of 0 in F_p")
        return FpElement(pow(self.value, -1, self.field.p), self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(pow(self.value, n, self.field.p), self.field)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.value == other.value and self.field.p == other.field.p
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value}"


class DualNumber:
    """An element re + eps_part*eps of F_p[eps], with eps^2 = 0."""

    __slots__ = ("re", "eps")

    def __init__(self, re: FpElement, eps: FpElement):
        if re.field.p != eps.field.p:
            raise BadInputError("mixed field contexts")
        self.re = re
        self.eps = eps

    @property
    def field(self) -> Fp:
        return self.re.field

    def _coerce(self, other) -> "DualNumber | None":
        if isinstance(other, DualNumber):
            if other.field.p != self.field.p:
                raise BadInputError("mixed field contexts")
            return other
        if isinstance(other, (FpElement, int)):
            f = self.field
            return DualNumber(f(other), f.zero())
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.re + o.re, self.eps + o.eps)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.re - o.re, self.eps - o.eps)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.re * o.re, self.re * o.eps + self.eps * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return DualNumber(-self.re, -self.eps)

    def inverse(self) -> "DualNumber":
        if self.re.is_zero():
            raise NonUnitError("dual number with zero field part is not invertible")
        inv = self.re.inverse()
        return DualNumber(inv, -(inv * inv) * self.eps)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        out = DualNumber(f.one(), f.zero())
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.eps == o.eps

    def __hash__(self):
        return hash((self.field.p, self.re.value, self.eps.value))

    def __repr__(self):
        return f"({self.re} + {self.eps}e)"

    def to_json(self) -> dict:
        return {"re": str(self.re.value), "eps": str(self.eps.value)}
