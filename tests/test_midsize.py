"""Curves between the desk's (p < 10^6) and the 256-bit one: at 64 and 128 bits the
three routes agree, every attack recovers n, `AttackResult.verify` accepts
exactly n mod p, the routes, Semaev's coefficient and the lift all read one
slope sum S(P), e(P, O_k) is bilinear, the lifted
pairing is antisymmetric and non-degenerate on the lifted p-torsion, and it is
functorial under a rational ell-isogeny with ell | v and one with ell not | v,
where 4p = 1 + 11*v^2.

Each curve, with its point G, is the first that the benchmark's generator makes
for random.Random(0) with D = 11: `perfbench/cm.anomalous_cm_curve(bits, 11, random.Random(0))`.
"""

import math
import random

import pytest

from dualpair import Curve, DualCurve, DualPoint, check_functoriality, find_cyclic_isogeny
from dualpair.dlp import DlpInstance, solve
from dualpair.fields import Fp
from dualpair.pairing import lifted_pairing, rueck_slope_sum, semaev_coefficient, theta_pairing

from conftest import check_verify_accepts_exactly_n_mod_p, dual_double_and_add

#: bits -> (p, A, B, G)
CURVES = {
    64: (
        15489306363526580203,
        1436855877878161426,
        6121006039760967685,
        (4621026334484047265, 10658782386203097090),
    ),
    128: (
        182546354035291923888895984073197501069,
        13208363278991437906617705712160858145,
        8805575519327625271078470474773905430,
        (24490696424978870965720931552411130914, 13990450394131258508572953399319307160),
    ),
}

#: bits -> {"ell | v": ell, "ell not | v": ell}, each ell with a rational ell-isogeny of the curve
#: (at 64 bits 7 and 13 have none; at 128 bits 3 and 5 divide v, and 7, 13, 17 and 19 have none)
ISOGENY_ELLS = {64: {"ell | v": 3, "ell not | v": 5}, 128: {"ell | v": 5, "ell not | v": 23}}


@pytest.fixture(scope="module", params=sorted(CURVES), ids=lambda bits: f"{bits}-bit")
def midsize(request):
    p, A, B, G = CURVES[request.param]
    curve = Curve(Fp(p), A, B)
    G_ = curve.point(*G)
    # p*G = O for G != O: p divides #E, which Hasse's bound leaves no room for but p itself
    assert p.bit_length() == request.param and curve.mul(p, G_).is_infinity and not G_.is_infinity
    return curve, G_


def test_routes_read_a_equal_to_minus_the_slope_sum(midsize):
    # e(G, O_k) = 1 + a*k*eps on every route, with a(G) = -S(G)
    curve, G_ = midsize
    dc, S, k = DualCurve.canonical(curve), rueck_slope_sum(curve, G_), 0xC0FFEE
    assert [theta_pairing(dc, G_, k, method).a for method in ("direct", "semaev", "rueck")] == [-S * k] * 3


def test_theta_pairing_is_bilinear(midsize):
    # e(P + Q, O_k) = e(P, O_k)*e(Q, O_k) and e(P, O_(k + j)) = e(P, O_k)*e(P, O_j)
    curve, G_ = midsize
    dc, rng = DualCurve.canonical(curve), random.Random(curve.p)
    P, Q = curve.mul(rng.randrange(1, curve.p), G_), curve.mul(rng.randrange(1, curve.p), G_)
    k, j = rng.randrange(curve.p), rng.randrange(curve.p)
    assert theta_pairing(dc, curve.add(P, Q), k) == theta_pairing(dc, P, k) * theta_pairing(dc, Q, k)
    assert theta_pairing(dc, P, k + j) == theta_pairing(dc, P, k) * theta_pairing(dc, P, j)
    assert theta_pairing(dc, curve.mul(3, P), 2 * k) == theta_pairing(dc, P, k) ** 6


def test_lifted_pairing_is_antisymmetric_and_non_degenerate(midsize):
    # on the lifted p-torsion, the points embed(aG) + O_k: e(Pt, Qt)*e(Qt, Pt) = 1 and e(Pt, Pt) = 1;
    # e(Pt, O_1) != 1 for a != 0 and e(O_k, embed(G)) != 1 for k != 0, as S(G) != 0
    curve, G_ = midsize
    dc, rng = DualCurve.canonical(curve), random.Random(curve.p)
    a, b, k, j = (rng.randrange(1, curve.p) for _ in range(4))
    Pt, Qt = dc.compose(curve.mul(a, G_), k), dc.compose(curve.mul(b, G_), j)
    assert (lifted_pairing(dc, Pt, Qt) * lifted_pairing(dc, Qt, Pt)).is_one() and lifted_pairing(dc, Pt, Pt).is_one()
    O_1, O_k, G = DualPoint.infinity(dc.field(1)), DualPoint.infinity(dc.field(k)), dc.embed(G_)
    assert not lifted_pairing(dc, Pt, O_1).is_one() and not lifted_pairing(dc, O_1, Pt).is_one()
    assert not lifted_pairing(dc, O_k, G).is_one() and not lifted_pairing(dc, G, O_k).is_one()


def test_semaev_coefficient_is_half_the_slope_sum(midsize):
    curve, G_ = midsize
    assert semaev_coefficient(curve, G_) == rueck_slope_sum(curve, G_) / 2


def test_lift_reads_k_equal_to_lambda_times_the_slope_sum(midsize):
    # p*lift(G) = O_k by the reference law, with k = lambda_L*S(G) and
    # lambda_L = -3*(6B*A1 - 4A*B1)/(4*(4A^3 + 27B^2))
    curve, G_ = midsize
    rng = random.Random(curve.p)
    A, B, S = curve.A, curve.B, rueck_slope_sum(curve, G_)
    for _ in range(2):
        a1, b1 = curve.field.random(rng), curve.field.random(rng)
        dc = DualCurve(curve, a1, b1)
        lam = -3 * (6 * B * a1 - 4 * A * b1) / (4 * (4 * A**3 + 27 * B * B))
        pGt = dual_double_and_add(dc, curve.p, dc.lift(G_))
        assert pGt.is_infinity and pGt.k == lam * S == dc.slope_factor() * S
        assert dc.mul(curve.p, dc.lift(G_)) == pGt


@pytest.mark.parametrize("method", ["semaev", "rueck", "pairing", "lift"])
def test_attacks_recover_n(midsize, method):
    curve, G_ = midsize
    n = random.Random(curve.p.bit_length()).randrange(curve.p)
    inst = DlpInstance(curve, G_, curve.mul(n, G_))
    result = solve(inst, method)
    assert result.n == n and result.verify(inst)


def test_verify_accepts_exactly_n_mod_p(midsize):
    check_verify_accepts_exactly_n_mod_p(*midsize, random.Random(62))


@pytest.mark.parametrize("case", ["ell | v", "ell not | v"])
def test_lifted_pairing_is_functorial(midsize, case):
    # e_p(phi~(Pt), phi~(Qt)) = e_p(Pt, Qt)^ell on every route, with e_p(Pt, Qt) != 1
    curve, G_ = midsize
    p = curve.p
    ell, v = ISOGENY_ELLS[p.bit_length()][case], math.isqrt((4 * p - 1) // 11)
    assert 1 + 11 * v * v == 4 * p and (v % ell == 0) == (case == "ell | v")
    phi, dc, rng = find_cyclic_isogeny(curve, ell), DualCurve.canonical(curve), random.Random(ell)
    Pt, Qt = (dc.compose(curve.mul(rng.randrange(1, p), G_), rng.randrange(1, p)) for _ in range(2))
    assert phi.degree == ell and not lifted_pairing(dc, Pt, Qt).is_one()
    for method in ("direct", "semaev", "rueck"):
        assert check_functoriality(phi, Pt, Qt, method)
