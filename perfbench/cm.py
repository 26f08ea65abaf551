"""Anomalous curves of cryptographic size by complex multiplication.

For D in {11, 19, 43, 67, 163} the order of discriminant -D has class
number 1 and a known integral j-invariant j(-D).  When p = (1 + D*v^2)/4 is
prime, 4p = 1 + D*v^2 says a curve with CM by that order has trace +-1
over F_p, so it or its quadratic twist has exactly p points
(Leprevost, Monnerat, Varrette, Vaudenay, "Generating anomalous elliptic
curves", IPL 93, 2005).  With k = j/(1728 - j) the curve
y^2 = x^3 + 3k*x + 2k has j-invariant j.

The curve is certified with plain ints only: a nonzero point P with
p*P = O has order p, and for p >= 7 p is the only multiple of p in the
Hasse interval, so #E = p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import ecint

#: j(-D) for the class-number-1 discriminants -D with D = 3 mod 8.
J_INVARIANTS = {
    11: -(2**15),
    19: -(2**15) * 3**3,
    43: -(2**18) * 3**3 * 5**3,
    67: -(2**15) * 3**3 * 5**3 * 11**3,
    163: -(2**18) * 3**3 * 5**3 * 23**3 * 29**3,
}


@dataclass(frozen=True)
class CmCurve:
    """An anomalous curve y^2 = x^3 + a*x + b over F_p with its CM data."""

    p: int
    a: int
    b: int
    D: int
    v: int
    twisted: bool
    G: tuple[int, int]  # the certifying point, a generator since #E = p


def _certify(a: int, b: int, p: int, rng: random.Random):
    """A nonzero point killed by p, or None when the curve is not anomalous."""
    G = ecint.random_point(a, b, p, rng)
    return G if ecint.mul(p, G, a, p) is None else None


def anomalous_cm_curve(bits: int, D: int, rng: random.Random) -> CmCurve:
    """An anomalous curve over a prime p = (1 + D*v^2)/4 of exactly `bits` bits."""
    j = J_INVARIANTS[D]
    lo = math.isqrt((2 ** (bits + 1) - 1) // D) + 1  # 4p >= 2^(bits+1)
    hi = math.isqrt((2 ** (bits + 2) - 1) // D)  # 4p < 2^(bits+2)
    while True:
        v = rng.randrange(lo, hi + 1) | 1  # D*v^2 = 3 mod 8 needs v odd
        if (1 + D * v * v) % 4:
            continue
        p = (1 + D * v * v) // 4
        if p.bit_length() != bits or p < 7 or not ecint.is_probable_prime(p):
            continue
        den = (1728 - j) % p
        if j % p == 0 or den == 0:
            continue
        k = j * pow(den, -1, p) % p
        a, b = 3 * k % p, 2 * k % p
        G = _certify(a, b, p, rng)
        if G is not None:
            return CmCurve(p, a, b, D, v, False, G)
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        a, b = a * c * c % p, b * c * c * c % p
        G = _certify(a, b, p, rng)
        if G is not None:
            return CmCurve(p, a, b, D, v, True, G)
        # neither has p points: p is prime but the trace is not +-1, which
        # contradicts 4p = 1 + D*v^2; draw another v rather than trust it
