"""A 256-bit anomalous curve: the routes agree and every attack recovers n.

The curve is the class-number-1 CM curve with D = 19 that the benchmark's
generator (`perfbench/cm.py`) makes first for seed 1; A_G is a in
e(G, O_1) = 1 + a*eps, as the benchmark records it from the direct route.
"""

import random

import pytest

from dualpair import Curve, DualCurve
from dualpair.dlp import DlpInstance, solve
from dualpair.fields import Fp
from dualpair.pairing import theta_pairing

P = 93651552868343116064426439039116612662436119053208978779440343948595872250883
A = 74483106374822595232526290697776955099949194100797784292420390508824787287240
B = 36876439920868049600417428237624865024974846098924393203600291379369134882398
G = (
    3199616899209352732708092667057330054330427015406012229734457429135929759485,
    28874513185542215516181757128042568249710605038561467375458536704892519731916,
)
A_G = 83374376714327015063734196871498593856875597183937958387516098410910217710826


@pytest.fixture(scope="module")
def crypto256():
    curve = Curve(Fp(P), A, B)
    return curve, curve.point(*G)


def test_routes_agree_at_256_bits(crypto256):
    curve, G_ = crypto256
    dc = DualCurve.canonical(curve)
    k = 0xC0FFEE
    for method in ("direct", "semaev", "rueck"):
        assert theta_pairing(dc, G_, k, method, random.Random(1)).a.value == A_G * k % P


@pytest.mark.parametrize("method", ["semaev", "rueck", "pairing", "lift"])
def test_attacks_recover_n_at_256_bits(crypto256, method):
    curve, G_ = crypto256
    n = random.Random(256).randrange(P)
    inst = DlpInstance(curve, G_, curve.mul(n, G_))
    result = solve(inst, method)
    assert result.n == n
    assert result.verify(inst)
