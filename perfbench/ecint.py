"""Reference arithmetic on plain ints, independent of the library under test.

The benchmark builds its inputs and checks its outputs with these functions,
never with `dualpair` itself: points are (x, y) tuples, the point at infinity
is None, and curves are y^2 = x^3 + a*x + b over F_p.
"""

from __future__ import annotations

import random

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with 16 fixed bases (proven below 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def mul(n: int, P, a: int, p: int):
    """n*P by double-and-add, n >= 0."""
    acc = None
    while n:
        if n & 1:
            acc = add(acc, P, a, p)
        P = add(P, P, a, p)
        n >>= 1
    return acc


def random_point(a: int, b: int, p: int, rng: random.Random):
    """A random affine point of y^2 = x^3 + a*x + b."""
    while True:
        x = rng.randrange(p)
        y = sqrt_mod(x * x * x + a * x + b, p)
        if y is not None and y != 0:
            return x, (y if rng.getrandbits(1) else p - y)


def count_points(a: int, b: int, p: int) -> int:
    """#E(F_p) by the quadratic-character sum over every x (small p only)."""
    e = (p - 1) // 2
    total = p + 1
    for x in range(p):
        t = (x * x * x + a * x + b) % p
        if t:
            total += 1 if pow(t, e, p) == 1 else -1
    return total


def has_rational_isogeny(p: int, ell: int) -> bool:
    """Whether an anomalous curve over F_p has a rational ell-isogeny.

    Frobenius has trace 1, so its characteristic polynomial is x^2 - x + p;
    a rational ell-isogeny exists iff that polynomial has a root mod ell.
    """
    return any((x * x - x + p) % ell == 0 for x in range(ell))
