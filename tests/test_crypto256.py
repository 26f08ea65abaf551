"""A 256-bit anomalous curve: the routes agree, every attack recovers n and
the lifted isogenies respect the pairing.

The curve is the class-number-1 CM curve with D = 19 that the benchmark's
generator (`perfbench/cm.py`) makes first for seed 1; A_G is a in
e(G, O_1) = 1 + a*eps, as the benchmark records it from the direct route.
"""

import gc
import random
import tracemalloc

import pytest

from dualpair import INFINITY, Curve, DualCurve, DualPoint, check_functoriality, find_cyclic_isogeny, velu_from_kernel_polynomial
from dualpair.curve import jacobian_mul
from dualpair.dlp import DlpInstance, solve
from dualpair.errors import NotRationalError
from dualpair.fields import Fp
from dualpair.miller import binary_chain, chain_trace, h_eval, tail_chain
from dualpair.pairing import lifted_pairing, pairing_direct, pairing_rueck, pairing_semaev, theta_pairing
from dualpair.poly import Polynomial

from conftest import (
    Vertical,
    check_attack_cores,
    count_walks,
    direct_value_oracle,
    dual_double_and_add,
    dual_evaluation,
    eval_line,
    line_through,
    log_derivative_oracle,
    mul_below_2_32,
    power_of_two_chain,
)

P = 93651552868343116064426439039116612662436119053208978779440343948595872250883
A = 74483106374822595232526290697776955099949194100797784292420390508824787287240
B = 36876439920868049600417428237624865024974846098924393203600291379369134882398
G = (
    3199616899209352732708092667057330054330427015406012229734457429135929759485,
    28874513185542215516181757128042568249710605038561467375458536704892519731916,
)
A_G = 83374376714327015063734196871498593856875597183937958387516098410910217710826
# solve(.., "lift") on the instance of test_attacks_recover_n_at_256_bits, and
# the k of p*lift(G) = O_k on the lift it drew
LIFT_RESULT = {
    "n": "52940877273050950909856492988689049655643967086755489088925917197648586427832",
    "method": "lift",
    "retries": 0,
    "lift": {
        "A1": "58342206738976043750283302265954453213867790132941297694845471606379056829475",
        "B1": "7612526798362388372416217887099161342429865967881009331205455101764851415485",
    },
}
K_G = 30538475475951497042922686040930868158838129320297877818633647890774804765022
# the kernel polynomials, constant term first, of find_cyclic_isogeny(curve, ell):
# x^2 - x + P has roots mod 5 and 7, and none mod 3 or 13
KERNELS = {
    5: (
        38117825027115092854292866415921147608376399032279287042552868593567153523724,
        62434368578895410709617626026077741774208537560736942983518048900702375754690,
        1,
    ),
    7: (
        25792644329376591976529587359979484808815179761039481107506727982900152108529,
        16977766894261032736825845673757982420476420751856213660966009994256838130455,
        31217184289447705354808813013038870889725331775276788201473322511283241321345,
        1,
    ),
}


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


def _instance(curve, G_):
    n = random.Random(256).randrange(P)
    return DlpInstance(curve, G_, curve.mul(n, G_)), n


@pytest.mark.parametrize("method", ["semaev", "rueck", "pairing", "lift"])
def test_attacks_recover_n_at_256_bits(crypto256, method):
    curve, G_ = crypto256
    inst, n = _instance(curve, G_)
    result = solve(inst, method)
    assert result.n == n
    assert result.verify(inst)


def test_solve_walks_p_once_at_256_bits(crypto256, monkeypatch):
    # construction walks P, and semaev, rueck and pairing then walk only Q
    curve, G_ = crypto256
    walks = count_walks(monkeypatch)
    inst, n = _instance(curve, G_)
    assert walks == [{1: G_}]
    for method in ("semaev", "rueck", "pairing"):
        walks.clear()
        assert solve(inst, method).n == n
        assert walks == [{1: inst.Q}]


def test_instances_keep_one_field_element_at_256_bits(crypto256):
    # an instance keeps S(P), not P's walk: 50 kept instances hold under 1 KB each
    curve, G_ = crypto256
    Q = _instance(curve, G_)[0].Q  # the first instance also fills the per-p caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [DlpInstance(curve, G_, Q) for _ in range(50)]
        gc.collect()  # which also empties the free lists that the walks' tuples went back to
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 50 and held / 50 < 1024, held / 50


def test_attack_cores_at_256_bits(crypto256):
    check_attack_cores(_instance(*crypto256)[0])


def test_lift_attack_is_pinned_at_256_bits(crypto256):
    curve, G_ = crypto256
    assert solve(_instance(curve, G_)[0], "lift").to_json() == LIFT_RESULT
    dc = DualCurve(curve, int(LIFT_RESULT["lift"]["A1"]), int(LIFT_RESULT["lift"]["B1"]))
    assert dc.mul(P, dc.lift(G_)).k.value == K_G


def test_caller_r_t_and_chains_at_256_bits(crypto256):
    # direct and semaev at a caller's R = 5G with T = 7G, and rueck, on the
    # default window chain, on the power-of-two chain it replaced and on
    # tail_chain(p, 3): the values do not depend on the chain
    curve, G_ = crypto256
    dc = DualCurve.canonical(curve)
    R, T, m, k = curve.mul(5, G_), curve.mul(7, G_), 11, 0xBEEF
    P_ = curve.mul(m, G_)
    expect = A_G * m * k % P
    assert len(binary_chain(P)) == 309 and len(power_of_two_chain(P)) == 390
    for chain in (None, power_of_two_chain(P), tail_chain(P, 3)):
        assert pairing_direct(dc, P_, k, R=R, T=T, chain=chain).a.value == expect
        assert pairing_semaev(dc, P_, k, R=R, T=T, chain=chain).a.value == expect
        assert pairing_rueck(dc, P_, k, chain=chain).a.value == expect


def test_scaled_routes_match_the_exact_oracle_at_256_bits(crypto256, monkeypatch):
    # the pinned value A_G*m*k by direct and semaev on the default chain, and
    # by the exact oracle (conftest) in place of their folds
    from dualpair import pairing

    curve, G_ = crypto256
    dc = DualCurve.canonical(curve)
    m, k = 11, 0xBEEF
    P_ = curve.mul(m, G_)
    routes = (pairing_direct, pairing_semaev)
    assert [route(dc, P_, k).a.value for route in routes] == [A_G * m * k % P] * 2
    monkeypatch.setattr(pairing, "_direct_value", direct_value_oracle)
    monkeypatch.setattr(pairing, "_log_derivative_value", log_derivative_oracle)
    assert [route(dc, P_, k).a.value for route in routes] == [A_G * m * k % P] * 2


def test_default_chain_walks_as_jacobian_mul(crypto256):
    # the Miller walk of binary_chain(n) and jacobian_mul take the same group
    # operations in the same order, so they end at the same Jacobian triple:
    # on the desk curve and the pinned one, for n below 600, around 2^32 and past it
    rng = random.Random(19)
    scalars = list(range(1, 600)) + [2**32 + d for d in range(-3, 16)] + [2**33 - 1, 2**48 + 1]
    scalars += [rng.randrange(2**32, 2**300) for _ in range(40)] + [1511, P, 3 * P + 2**40]
    desk = Curve(Fp(1511), 1301, 497)
    for curve, G_ in ((desk, desk.point(129, 526)), crypto256):
        p, a = curve.p, curve.A.value
        base = (G_.x.value, G_.y.value, 1)
        for n in scalars:
            assert chain_trace(curve, G_, binary_chain(n)).jac[n] == jacobian_mul(p, a, n, base), (p, n)


def test_window_mul_at_256_bits(crypto256):
    curve, G_ = crypto256
    rng = random.Random(32)
    lifts = [DualCurve.canonical(curve), DualCurve(curve, *(int(LIFT_RESULT["lift"][c]) for c in ("A1", "B1")))]
    for n in (rng.randrange(2**32, P), P, 2**32, -rng.randrange(2**32, P), 3 * P + 2**40):
        sign = 1 if n > 0 else -1
        assert curve.mul(n, G_) == mul_below_2_32(curve.add, curve.mul, abs(n), curve.mul(sign, G_), INFINITY)
        for dc in lifts:
            for Gt in (dc.lift(G_), dc.translate(dc.lift(G_), dc.field(7)), DualPoint.infinity(dc.field(K_G))):
                assert dc.mul(n, Gt) == dual_double_and_add(dc, abs(n), Gt if n > 0 else dc.neg(Gt))


def test_lifted_pairing_at_256_bits(crypto256):
    curve, G_ = crypto256
    dc = DualCurve.canonical(curve)
    Pt = dc.translate(dc.embed(curve.mul(3, G_)), dc.field(5))
    Qt = dc.translate(dc.embed(curve.mul(4, G_)), dc.field(9))
    for method in ("direct", "semaev", "rueck"):
        assert lifted_pairing(dc, Pt, Qt, method).a.value == A_G * (3 * 9 - 4 * 5) % P


def test_h_eval_matches_the_affine_lines_at_256_bits(crypto256):
    curve, G_ = crypto256
    T, at = curve.mul(7, G_), curve.mul(5, G_)
    S = curve.add(at, curve.neg(T))
    P2, P3 = curve.mul(2, G_), curve.mul(3, G_)
    ratio = eval_line(line_through(curve, P2, P3), S.x, S.y) / eval_line(Vertical(curve.mul(5, G_).x), S.x, S.y)
    assert h_eval(curve, G_, 2, 3, T, at) == ratio


def test_no_rational_3_or_13_isogeny_at_256_bits(crypto256):
    curve, _ = crypto256
    for ell in (3, 13):
        with pytest.raises(NotRationalError):
            find_cyclic_isogeny(curve, ell)


@pytest.mark.parametrize("ell", sorted(KERNELS))
def test_isogeny_functoriality_at_256_bits(crypto256, ell):
    curve, G_ = crypto256
    phi = find_cyclic_isogeny(curve, ell)
    assert phi.kernel_polynomial().coeffs == KERNELS[ell]
    rebuilt = velu_from_kernel_polynomial(curve, Polynomial(curve.field, KERNELS[ell]))
    assert (rebuilt.target, rebuilt.r, rebuilt.s, rebuilt.degree) == (phi.target, phi.r, phi.s, ell)
    dc, tgt = DualCurve.canonical(curve), DualCurve.canonical(phi.target)
    Pt = dc.compose(curve.mul(3, G_), 5)
    Qt = dc.compose(curve.mul(4, G_), 9)
    for method in ("direct", "semaev", "rueck"):
        assert check_functoriality(phi, Pt, Qt, method, random.Random(1))
    k = dc.field(0xC0FFEE)
    assert phi.eval_lifted(DualPoint.infinity(k)) == DualPoint.infinity(k)
    assert tgt.decompose(phi.eval_lifted(dc.compose(G_, k))) == (phi(G_), k)
    # the closed form equals the rational maps over F_p[eps] at random lifted points
    rng = random.Random(ell)
    for _ in range(4):
        Rt = dc.compose(curve.mul(rng.randrange(1, P), G_), rng.randrange(P))
        assert phi.eval_lifted(Rt) == dual_evaluation(phi, Rt)

