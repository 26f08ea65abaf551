"""Integer helpers: deterministic primality, Legendre symbols and modular square roots.

Everything here is exact and deterministic.  Miller-Rabin with the fixed
witness set below is a proven primality test for all n < 3.3 * 10**24,
far beyond desk scale; above that it is an extremely strong probable-prime
test, which matches the package contract (primality of the modulus is the
caller's responsibility, constructors only assert it).
"""

from __future__ import annotations

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    k = n | 1
    while not is_prime(k):
        k += 2
    return k


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo odd prime p, or None if a is a non-residue.

    Deterministic Tonelli-Shanks; the returned root is min(r, p - r).
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def half_euclid(n: int, m: int) -> tuple[int, int]:
    """(u, v) with u = v*n (mod m), 0 <= u, u^2 < m and 0 < v^2 <= m, for any modulus m >= 2.

    The extended Euclid on (m, n mod m), stopped at the first remainder u with
    u^2 < m, and v its cofactor.  Each step keeps r = t*n (mod m) and
    |t_k|*r_(k-1) + |t_(k-1)|*r_k = m, so |v| <= m/r for the remainder r
    before u, which has r^2 >= m (Antipa et al., SAC 2005).
    """
    r0, r1, t0, t1 = m, n % m, 0, 1
    while r1 * r1 >= m:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return r1, t1
