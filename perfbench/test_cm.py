"""Tests of the benchmark's own reference code: `python3 -m pytest perfbench`."""

import random

import pytest

import cm
import ecint


@pytest.mark.parametrize("D", sorted(cm.J_INVARIANTS))
@pytest.mark.parametrize("bits", [16, 20])
def test_cm_curve_is_anomalous_by_brute_force(D, bits):
    curve = cm.anomalous_cm_curve(bits, D, random.Random(bits * 1000 + D))
    assert curve.p.bit_length() == bits
    assert 4 * curve.p == 1 + D * curve.v**2
    assert ecint.count_points(curve.a, curve.b, curve.p) == curve.p


@pytest.mark.parametrize("D", sorted(cm.J_INVARIANTS))
def test_cm_curve_at_256_bits_is_certified(D):
    curve = cm.anomalous_cm_curve(256, D, random.Random(D))
    assert curve.p.bit_length() == 256
    a, b, p = curve.a, curve.b, curve.p
    x, y = curve.G
    assert (y * y - x**3 - a * x - b) % p == 0
    assert ecint.mul(p, curve.G, a, p) is None
    assert ecint.mul(p - 1, curve.G, a, p) == (x, p - y)


def test_sqrt_and_primality_against_brute_force():
    p = 10007
    squares = {x * x % p for x in range(p)}
    for a in range(200):
        r = ecint.sqrt_mod(a, p)
        assert (r is not None) == (a % p in squares)
        if r is not None:
            assert r * r % p == a
    assert [n for n in range(100) if ecint.is_probable_prime(n)] == [
        n for n in range(2, 100) if all(n % q for q in range(2, n))
    ]


def test_isogeny_criterion_matches_roots_of_frobenius_polynomial():
    # x^2 - x + p has a root mod 3 iff p = 1 mod 3 (the roots are x = 2 then)
    assert ecint.has_rational_isogeny(7, 3)
    assert not ecint.has_rational_isogeny(11, 3)
