import hashlib
import json
import random

import pytest

from dualpair import (
    Curve,
    DualCurve,
    DualPoint,
    INFINITY,
    check_functoriality,
    compute_m,
    count_points,
    division_polynomial,
    find_anomalous,
    find_cyclic_isogeny,
    frobenius_isogeny,
    identity_isogeny,
    lifted_pairing,
    multiplication_isogeny,
    velu,
    velu_from_kernel_polynomial,
)
from dualpair.errors import BadInputError, DualPairError, NotASubgroupError, NotRationalError
from dualpair.fields import Fp
from dualpair.isogeny import Isogeny, RationalFunction, _division_polynomials, _scalar_kernels, _x_of_multiple
from dualpair.poly import Polynomial

from conftest import dual_evaluation, order_by_steps


@pytest.fixture(scope="module")
def curve_with_two_torsion():
    return Curve(Fp(31), 1, 0)


@pytest.fixture(scope="module")
def iso_pool():
    """Anomalous curves admitting rational 3- and 5-isogenies."""
    pool = {3: [], 5: []}
    for seed in range(60):
        c = find_anomalous(20, 2500, 1, seed=seed)[0]
        for ell in (3, 5):
            if len(pool[ell]) >= 3:
                continue
            try:
                pool[ell].append((c, find_cyclic_isogeny(c, ell)))
            except NotRationalError:
                pass
        if all(len(v) >= 3 for v in pool.values()):
            break
    assert all(pool.values())
    return pool


def test_identity_isogeny(tiny_anomalous):
    phi = identity_isogeny(tiny_anomalous)
    assert phi.degree == 1 and phi.m == 1
    assert phi.r.num == Polynomial.x(tiny_anomalous.field)
    assert phi.s.num == Polynomial.constant(tiny_anomalous.field, 1)
    P = next(q for q in tiny_anomalous.points() if not q.is_infinity)
    assert phi(P) == P
    assert velu(tiny_anomalous, [INFINITY]).degree == 1
    c = tiny_anomalous
    assert repr(phi.r) == "(1*x^1) / (1)"
    assert repr(phi) == f"Isogeny(deg=1, m=1, {c!r} -> {c!r})"


def test_velu_two_isogeny(curve_with_two_torsion, rng):
    c = curve_with_two_torsion
    T = c.two_torsion()[0]
    phi = velu(c, [INFINITY, T])
    assert phi.degree == 2
    assert compute_m(phi) == 1
    assert phi.curve_identity_holds()
    assert phi(T).is_infinity
    assert phi(INFINITY).is_infinity
    for _ in range(30):
        P, Q = c.random_point(rng), c.random_point(rng)
        assert phi(c.add(P, Q)) == phi.target.add(phi(P), phi(Q))
        assert phi(c.neg(P)) == phi.target.neg(phi(P))


def test_velu_klein_four_kernel(rng):
    # full rational 2-torsion: y^2 = x^3 - x over F_7
    c = Curve(Fp(7), 6, 0)
    kernel = [INFINITY] + c.two_torsion()
    assert len(kernel) == 4
    phi = velu(c, kernel)
    assert phi.degree == 4 and compute_m(phi) == 1
    for T in kernel:
        assert phi(T).is_infinity
    for _ in range(25):
        P, Q = c.random_point(rng), c.random_point(rng)
        assert phi(c.add(P, Q)) == phi.target.add(phi(P), phi(Q))


def test_velu_order_six_kernel(rng):
    # mixed-parity cyclic kernel through a point of order 6
    c = Curve(Fp(13), 0, 1)
    P = next(Q for Q in c.points() if not Q.is_infinity and order_by_steps(c, Q) == 6)
    kernel = [c.mul(i, P) for i in range(6)]
    phi = velu(c, kernel)
    assert phi.degree == 6 and compute_m(phi) == 1
    for K in kernel:
        assert phi(K).is_infinity
    for _ in range(25):
        X, Y = c.random_point(rng), c.random_point(rng)
        assert phi(c.add(X, Y)) == phi.target.add(phi(X), phi(Y))


def test_velu_rejects_non_subgroup(curve_with_two_torsion, rng):
    c = curve_with_two_torsion
    P = c.random_point(rng)
    while order_by_steps(c, P) <= 4:
        P = c.random_point(rng)
    with pytest.raises(NotASubgroupError):
        velu(c, [INFINITY, P])
    with pytest.raises(NotASubgroupError):
        velu(c, [c.two_torsion()[0]])
    with pytest.raises(NotASubgroupError, match="^kernel is not closed under addition$"):
        velu(c, [INFINITY, P, c.neg(P)])


def test_velu_odd_kernel_matches_kernel_polynomial_route(rng):
    # a curve with a rational point of order 3: kernel {inf, +-Q}
    found = None
    for p in (13, 19, 31, 43):
        f = Fp(p)
        for a in range(p):
            for b in range(1, p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                c = Curve(f, a, b)
                for P in c.points():
                    if not P.is_infinity and order_by_steps(c, P) == 3:
                        found = (c, P)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    c, Q = found
    phi_points = velu(c, [INFINITY, Q, c.neg(Q)])
    h = Polynomial.from_roots(c.field, [Q.x])
    phi_poly = velu_from_kernel_polynomial(c, h)
    assert phi_points.target == phi_poly.target
    assert phi_points.r == phi_poly.r
    assert phi_points.s == phi_poly.s
    assert phi_points.degree == phi_poly.degree == 3


def test_velu_degree_counts_distinct_kernel_points():
    c = Curve(Fp(7), 0, 1)
    T = c.point(3, 0)
    phi = velu(c, [INFINITY, T, T])
    assert phi.degree == 2
    assert phi.to_json() == velu(c, [INFINITY, T]).to_json()


def _int_add(p, a, P, Q):
    """The group law on (x, y) int pairs, None for infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        m = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        m = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (m * m - x1 - x2) % p
    return x3, (m * (x1 - x3) - y1) % p


def _rational_subgroups(p, a, b):
    """Every subgroup of E(F_p), each a sum of two cyclic ones, as frozensets of int pairs."""
    points = [None] + [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0]
    cyclic = set()
    for P in points:
        H, Q = {None}, P
        while Q is not None:
            H.add(Q)
            Q = _int_add(p, a, Q, P)
        cyclic.add(frozenset(H))
    return {frozenset(_int_add(p, a, P, Q) for P in H for Q in K) for H in cyclic for K in cyclic}


def test_velu_matches_velus_own_formulas():
    # an oracle independent of the kernel-polynomial form: Velu's per-point
    # sums over one Q of each pair +-Q, on plain ints, for every rational
    # subgroup G of every nonsingular curve with p <= 11
    #   r(x) = x + sum (v_Q/(x - x_Q) + u_Q/(x - x_Q)^2),  target (A - 5v, B - 7w)
    # with v_Q = 3x_Q^2 + A (doubled unless 2y_Q = 0), u_Q = 4y_Q^2, w = sum (u_Q + x_Q v_Q)
    subgroups = 0
    for p in (5, 7, 11):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                c = Curve(f, a, b)
                for G in _rational_subgroups(p, a, b):
                    phi = velu(c, [INFINITY if Q is None else c.point(*Q) for Q in G])
                    reps = {Q[0]: Q[1] for Q in G if Q is not None}
                    terms = [(xq, (3 * xq * xq + a) * (2 if yq else 1), 4 * yq * yq) for xq, yq in reps.items()]
                    v = sum(vq for _, vq, _ in terms)
                    w = sum(uq + xq * vq for xq, vq, uq in terms)
                    assert phi.target == Curve(f, a - 5 * v, b - 7 * w)
                    assert phi.degree == len(G)
                    for x in set(range(p)) - set(reps):
                        velu_r = x + sum(vq * pow(x - xq, -1, p) + uq * pow(x - xq, -2, p) for xq, vq, uq in terms)
                        assert phi.r(f(x)) == f(velu_r)
                    subgroups += 1
    assert subgroups == 752


def test_multiplication_by_two_formula(tiny_anomalous, rng):
    c = tiny_anomalous
    f = c.field
    phi = multiplication_isogeny(c, 2)
    a, b = int(c.A), int(c.B)
    num = Polynomial(f, (a * a, -8 * b, -2 * a, 0, 1))
    den = Polynomial(f, (4 * b, 4 * a, 0, 4))
    assert phi.r == RationalFunction(num, den)
    for _ in range(20):
        P = c.random_point(rng)
        assert phi(P) == c.mul(2, P)


@pytest.mark.parametrize("p, a, b", [(1511, 1301, 497), (5, 1, 1), (7, 3, 2)])
def test_multiplication_maps_match_the_division_polynomial_route(p, a, b):
    # the reference route: r = x([n]P) = x - psi_(n-1)*psi_(n+1)/psi_n^2, reduced by gcd, and s = r'/n;
    # Kohel's reduced fractions with monic denominators are the same coefficient for coefficient,
    # at p = 5 and 7 too, where psi_n's degree passes p
    c = Curve(Fp(p), a, b)
    f = c.field
    fx = Polynomial(f, (b, a, 0, 1))
    for n in range(1, 8):
        if n % p == 0:
            continue
        phi = multiplication_isogeny(c, n)
        r = RationalFunction(*_x_of_multiple(_division_polynomials(c, (n - 1, n, n + 1)), fx, n))
        s = r.derivative() * RationalFunction.from_poly(Polynomial.constant(f, pow(n, -1, p)))
        assert (phi.r.num, phi.r.den, phi.s.num, phi.s.den) == (r.num, r.den, s.num, s.den)
        assert phi.target == c and phi.degree == n * n and phi.m == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_multiplication_isogeny_matches_scalar(n, rng):
    c = find_anomalous(50, 400, 1, seed=40)[0]
    phi = multiplication_isogeny(c, n)
    assert phi.degree == n * n
    assert phi.m == n
    assert compute_m(phi) == n
    assert phi.curve_identity_holds()
    for _ in range(25):
        P = c.random_point(rng)
        assert phi(P) == c.mul(n, P)
    # kernel x-coordinates are exactly the zeros of psi_n; for even n the
    # factor y contributes the 2-torsion abscissae via y^2 = f(x)
    kp = phi.kernel_polynomial()
    dv = division_polynomial(c, n)
    if n % 2 == 0:
        dv = dv * Polynomial(c.field, (int(c.B), int(c.A), 0, 1))
    assert kp == dv.exact_div(dv.gcd(dv.derivative())).monic()


def test_division_polynomial_roots_are_torsion(rng):
    c = Curve(Fp(103), 2, 3)
    for n in (2, 3, 5):
        dv = division_polynomial(c, n)
        for r in dv.roots():
            y = c.field.sqrt(c.rhs(r))
            if y is None:
                continue  # torsion point lives in the quadratic extension
            from dualpair.curve import Point

            assert c.mul(n, Point(r, y)).is_infinity


def test_compute_m_matches_pointwise_evaluation():
    # the spec-level oracle: r'/s evaluated at any admissible point gives
    # the same value, which is what the symbolic quotient returns
    c = Curve(Fp(101), 2, 3)
    for phi in (multiplication_isogeny(c, 3), multiplication_isogeny(c, 5)):
        rp = phi.r.derivative()
        vals = set()
        for v in range(c.p):
            x = c.field(v)
            if not (rp.den(x).is_zero() or phi.s.den(x).is_zero() or phi.s(x).is_zero()):
                vals.add((rp(x) / phi.s(x)).value)
        assert vals == {compute_m(phi).value}


_C31 = Curve(Fp(31), 1, 0)
_X31 = RationalFunction.from_poly(Polynomial.x(_C31.field))

#: guards of the isogeny module: (call, error type, message)
_GUARDS = [
    pytest.param(lambda: multiplication_isogeny(_C31, 0), BadInputError, "multiplication maps are built for 1 <= n <= 7",
                 id="multiplication-below-range"),
    pytest.param(lambda: multiplication_isogeny(_C31, 8), BadInputError, "multiplication maps are built for 1 <= n <= 7",
                 id="multiplication-above-range"),
    pytest.param(lambda: multiplication_isogeny(Curve(Fp(5), 1, 1), 5), BadInputError,
                 "multiplication by a multiple of p is inseparable; use frobenius_isogeny", id="multiplication-by-p"),
    pytest.param(lambda: identity_isogeny(_C31).compose(identity_isogeny(Curve(Fp(31), 2, 3))), BadInputError,
                 "isogenies do not chain: inner target differs from outer source", id="compose-mismatch"),
    pytest.param(lambda: compute_m(Isogeny(_C31, _C31, _X31, _X31, 1, _C31.field.one())), DualPairError,
                 "r'/s is not constant: not an isogeny", id="compute_m-not-constant"),
    pytest.param(lambda: RationalFunction(Polynomial.x(_C31.field), Polynomial.zero(_C31.field)), ZeroDivisionError,
                 "rational function with zero denominator", id="RationalFunction-zero-denominator"),
]


@pytest.mark.parametrize("call, kind, message", _GUARDS)
def test_isogeny_guard_raises(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


def test_rational_functions_take_only_rational_functions():
    # +, * and / decline anything but a RationalFunction, so a scalar, a str or a Polynomial raises
    # TypeError on either side rather than an AttributeError for its num
    x = Polynomial.x(_C31.field)
    r = RationalFunction.from_poly(x * x + 2 * x + 1)
    for operand in (1, 2, "x", x, _C31.field(3)):
        for op in (lambda: r + operand, lambda: operand + r, lambda: r * operand, lambda: operand * r,
                   lambda: r / operand, lambda: operand / r):
            with pytest.raises(TypeError):
                op()
    assert (r + _X31) * _X31 / _X31 == r + _X31


def test_compute_m_constant_and_composition(curve_with_two_torsion):
    c = curve_with_two_torsion
    T = c.two_torsion()[0]
    phi = velu(c, [INFINITY, T])
    m2 = multiplication_isogeny(phi.target, 2)
    comp = m2.compose(phi)
    assert comp.degree == 8
    assert comp.m == compute_m(comp) == compute_m(m2) * compute_m(phi)
    # evaluation chains correctly
    rng = random.Random(44)
    for _ in range(15):
        P = c.random_point(rng)
        assert comp(P) == m2(phi(P))


def test_two_torsion_differential_identity(iso_pool, curve_with_two_torsion):
    # Differentiating the curve identity gives, for phi = (r, y*s),
    #   (3 r^2 + A2) * m = (3 x^2 + A1) * s + 2 f * s'
    # as an exact rational-function identity; the final term vanishes on
    # 2-torsion abscissae (f(x0) = 0), where the bare form
    #   (3 r(x0)^2 + A2) * m = (3 x0^2 + A1) * s(x0)
    # is what makes the lifted map a homomorphism at points of order two.
    def split_sides(phi):
        f = phi.source.field
        fx = Polynomial(f, (int(phi.source.B), int(phi.source.A), 0, 1))
        r2 = phi.r * phi.r
        lhs = RationalFunction((r2.num * 3 + r2.den * int(phi.target.A)) * int(phi.m), r2.den)
        bare = RationalFunction.from_poly(Polynomial(f, (int(phi.source.A), 0, 3))) * phi.s
        corr = RationalFunction.from_poly(fx * 2) * phi.s.derivative()
        return lhs, bare, corr

    phis = [velu(curve_with_two_torsion, [INFINITY, curve_with_two_torsion.two_torsion()[0]])]
    phis += [phi for ell in (3, 5) for _, phi in iso_pool[ell]]
    phis.append(multiplication_isogeny(curve_with_two_torsion, 3))
    for phi in phis:
        lhs, bare, corr = split_sides(phi)
        assert lhs == bare + corr

    # bare form at a rational non-kernel 2-torsion abscissa: use the
    # multiplication-by-3 map, whose kernel avoids the 2-torsion
    phi = phis[-1]
    lhs, bare, _ = split_sides(phi)
    for T in curve_with_two_torsion.two_torsion():
        assert not phi.in_kernel(T)
        assert lhs(T.x) == bare(T.x)
        # and the lifted map is a homomorphism through that point
        dc = DualCurve.canonical(curve_with_two_torsion)
        tgt = DualCurve.canonical(phi.target)
        Pt = dc.compose(T, 5)
        Qt = dc.compose(curve_with_two_torsion.point(*_some_point(curve_with_two_torsion)), 2)
        assert phi.eval_lifted(dc.add(Pt, Qt)) == tgt.add(phi.eval_lifted(Pt), phi.eval_lifted(Qt))


def _some_point(curve):
    for P in curve.points():
        if not P.is_infinity and not P.y.is_zero():
            return P.x.value, P.y.value
    raise AssertionError


def test_frobenius_is_inseparable(tiny_anomalous_all):
    for c in tiny_anomalous_all:
        phi = frobenius_isogeny(c)
        assert phi.degree == c.p
        assert phi.m.is_zero()
        assert compute_m(phi).is_zero()
        for P in c.points():
            assert phi(P) == P  # rational points are Frobenius-fixed
        dc = DualCurve.canonical(c)
        f = c.field
        # the lift sends everything at infinity to the identity, and
        # wipes eps parts of affine points
        assert phi.eval_lifted(DualPoint.infinity(f(3))) == DualPoint.infinity(f.zero())
        for P in c.points():
            if P.is_infinity:
                continue
            pt = dc.compose(P, 2)
            assert phi.eval_lifted(pt) == dc.embed(P)


def test_find_cyclic_isogeny_2_from_rational_two_torsion(curve_with_two_torsion):
    c = curve_with_two_torsion
    T = c.two_torsion()[0]
    phi = find_cyclic_isogeny(c, 2)
    assert phi.degree == 2 and phi.source == c and phi.curve_identity_holds()
    assert phi.kernel_polynomial() == Polynomial.from_roots(c.field, [T.x])
    assert phi(T) == INFINITY


def test_find_cyclic_isogeny_2_impossible_on_anomalous(small_pool):
    # #E = p odd leaves no rational 2-torsion, hence no rational 2-isogeny
    for c in small_pool[:4]:
        assert c.two_torsion() == []
        with pytest.raises(NotRationalError):
            find_cyclic_isogeny(c, 2)


#: p = 1163 has a rational 13-isogeny whose kernel polynomial is a product
#: of smaller factors; for (673, 433, 210) and (1483, 579, 416) Frobenius
#: is the scalar 2 on E[3], so psi_3 splits into four linear factors.
NAMED_CURVES = [(1163, 642, 263), (617, 179, 346), (1483, 579, 416), (673, 433, 210)]


@pytest.fixture(scope="module")
def eigen_pool():
    named = [Curve(Fp(p), a, b) for p, a, b in NAMED_CURVES]
    return named + find_anomalous(1000, 1500, count=4, seed=0)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_find_cyclic_isogeny_exists_iff_frobenius_has_an_eigenvalue(eigen_pool, ell):
    # trace 1: a rational ell-isogeny exists iff x^2 - x + p has a root mod ell
    for c in eigen_pool:
        if any((lam * lam - lam + c.p) % ell == 0 for lam in range(ell)):
            phi = find_cyclic_isogeny(c, ell)
            assert phi.degree == ell and phi.source == c
            assert phi.kernel_polynomial().degree == (ell - 1) // 2
            assert phi.curve_identity_holds()
        else:
            with pytest.raises(NotRationalError):
                find_cyclic_isogeny(c, ell)


@pytest.mark.parametrize("p, a, b, ell", [(673, 433, 210, 3), (1483, 579, 416, 3), (269, 99, 141, 5)])
def test_find_cyclic_isogeny_scalar_frobenius(p, a, b, ell):
    # Frobenius is the scalar lam = (ell + 1)/2 on E[ell], which is +-2 for
    # ell in {3, 5}: the Frobenius orbit of x(Q) is {x(Q), x(2Q)}, the
    # x-set of <Q>, so each irreducible factor of psi_ell is the kernel
    # polynomial of one of the ell + 1 rational lines; the smallest
    # coefficient tuple is returned
    c = Curve(Fp(p), a, b)
    kernels = [g for g, _ in division_polynomial(c, ell).factor()]
    assert len(kernels) == ell + 1
    for h in kernels:
        assert velu_from_kernel_polynomial(c, h).degree == ell
    assert find_cyclic_isogeny(c, ell).kernel_polynomial() == min(kernels, key=lambda h: h.coeffs)


@pytest.mark.parametrize("a, b, expected", [(468, 325, (284, 47, 1028, 1)), (370, 470, (338, 517, 921, 1))])
def test_find_cyclic_isogeny_choice_pinned(a, b, expected):
    # p = 1447 has eigenvalues 2 and 6 mod 7; the lambda = 6 kernel
    # polynomial splits into linear factors and has the smaller coeffs
    c = Curve(Fp(1447), a, b)
    h = find_cyclic_isogeny(c, 7).kernel_polynomial()
    assert h.coeffs == expected
    assert len(h.roots()) == 3


def test_find_cyclic_isogeny_rejects_bad_ell_and_curves():
    c = Curve(Fp(1361), 686, 969)
    for ell in (9, 1, -3, 15, 0, 4, 1361):
        with pytest.raises(BadInputError):
            find_cyclic_isogeny(c, ell)
    non_anomalous = Curve(Fp(1361), 1, 1)
    assert count_points(non_anomalous) != 1361
    with pytest.raises(BadInputError):
        find_cyclic_isogeny(non_anomalous, 3)


def test_find_cyclic_isogeny_targets_are_anomalous(iso_pool):
    for ell in (3, 5):
        for c, phi in iso_pool[ell]:
            assert phi.degree == ell
            assert phi.m == 1
            assert phi.curve_identity_holds()
            assert count_points(phi.target) == phi.target.p
            # no rational kernel points on an anomalous source
            assert all(
                phi.kernel_polynomial()(P.x).is_zero() is False
                for P in [c.random_point(random.Random(1)) for _ in range(5)]
            )


def test_isogeny_homomorphism_random(iso_pool, rng):
    for ell in (3, 5):
        for c, phi in iso_pool[ell]:
            for _ in range(15):
                P, Q = c.random_point(rng), c.random_point(rng)
                assert phi(c.add(P, Q)) == phi.target.add(phi(P), phi(Q))


def test_lifted_theta_maps_by_m(iso_pool):
    c, phi = iso_pool[3][0]
    f = c.field
    for k in (0, 1, 5):
        assert phi.eval_lifted(DualPoint.infinity(f(k))) == DualPoint.infinity(phi.m * f(k))
    m2 = multiplication_isogeny(c, 2)
    for k in (0, 1, 5):
        assert m2.eval_lifted(DualPoint.infinity(f(k))) == DualPoint.infinity(f(2 * k))


def test_eval_lifted_is_the_dual_evaluation(iso_pool, curve_with_two_torsion, tiny_anomalous_all):
    # the closed form embed(P) + O_k -> embed(phi(P)) + O_{m*k} equals phi's rational
    # maps over F_p[eps] off the kernel, as phi's formal-group map has linear term m,
    # and is O_{m*k} over it; the image lies on the target's canonical lift
    rng = random.Random(20)
    c2 = curve_with_two_torsion
    cases = [(c, phi) for ell in (3, 5) for c, phi in iso_pool[ell]]
    cases += [(c, multiplication_isogeny(c, n)) for c in (c2, iso_pool[3][0][0]) for n in (2, 3)]
    cases += [(c2, velu(c2, [INFINITY, T])) for T in c2.two_torsion()]
    cases += [(c, frobenius_isogeny(c)) for c in tiny_anomalous_all]
    over_kernel = {}
    for c, phi in cases:
        dc, tgt = DualCurve.canonical(c), DualCurve.canonical(phi.target)
        if c.p <= 31:
            pts = list(dc.points())
        else:
            pts = [dc.compose(c.random_point(rng), rng.randrange(c.p)) for _ in range(40)]
            pts += [DualPoint.infinity(c.field(rng.randrange(c.p))) for _ in range(3)]
        for Pt in pts:
            P, k = dc.decompose(Pt)
            if phi.in_kernel(P):
                expected = DualPoint.infinity(phi.m * k)
                over_kernel[P.is_infinity] = over_kernel.get(P.is_infinity, 0) + 1
            else:
                expected = dual_evaluation(phi, Pt)
            assert tgt.is_valid(expected)
            assert phi.eval_lifted(Pt) == expected
    # the kernels of [2] and the 2-isogeny on c2 hold an affine point
    assert over_kernel[False] == 2 * c2.p and over_kernel[True] > 0


def test_lifted_homomorphism(iso_pool, curve_with_two_torsion, rng):
    cases = [iso_pool[3][0], iso_pool[5][0]]
    c2 = curve_with_two_torsion
    cases.append((c2, velu(c2, [INFINITY, c2.two_torsion()[0]])))
    for c, phi in cases:
        dc = DualCurve.canonical(c)
        tgt = DualCurve.canonical(phi.target)
        pts = list(dc.points()) if c.p <= 31 else None
        for _ in range(40):
            if pts:
                Pt, Qt = rng.choice(pts), rng.choice(pts)
            else:
                Pt = dc.compose(c.random_point(rng), rng.randrange(c.p))
                Qt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            lhs = phi.eval_lifted(dc.add(Pt, Qt))
            rhs = tgt.add(phi.eval_lifted(Pt), phi.eval_lifted(Qt))
            assert lhs == rhs


def test_lifted_kernel_translation_independent_of_T(curve_with_two_torsion):
    # over the kernel, eval_lifted agrees with every translation conjugate
    # (translate by phi(-T)) o phi~ o (translate by T), T outside the kernel
    c = curve_with_two_torsion
    T2 = c.two_torsion()[0]
    phi = velu(c, [INFINITY, T2])
    dc = DualCurve.canonical(c)
    tgt = DualCurve.canonical(phi.target)
    outside = [T for T in c.points() if not phi.in_kernel(T)]
    assert len(outside) == len(list(c.points())) - 2
    for k in (0, 2, 11):
        Pt = dc.compose(T2, k)
        assert phi.eval_lifted(Pt) == DualPoint.infinity(c.field(k))
        for T in outside:
            conjugate = tgt.add(phi.eval_lifted(dc.add(Pt, dc.embed(T))), tgt.embed(phi(c.neg(T))))
            assert conjugate == phi.eval_lifted(Pt)


def test_functoriality_lemma_on_theta(iso_pool, rng):
    # e(phi(P), O_{m k}) = e(P, O_k)^deg on the infinity family directly
    from dualpair.pairing import pairing_rueck

    for ell in (3, 5):
        for c, phi in iso_pool[ell]:
            src = DualCurve.canonical(c)
            tgt = DualCurve.canonical(phi.target)
            for _ in range(10):
                P = c.random_point(rng)
                k = src.field(rng.randrange(1, c.p))
                lhs = pairing_rueck(tgt, phi(P), phi.m * k)
                rhs = pairing_rueck(src, P, k) ** phi.degree
                assert lhs == rhs


def test_functoriality_full(iso_pool, rng):
    for ell in (3, 5):
        for c, phi in iso_pool[ell]:
            dc = DualCurve.canonical(c)
            for _ in range(10):
                Pt = dc.compose(c.random_point(rng), rng.randrange(c.p))
                Qt = dc.compose(c.random_point(rng), rng.randrange(c.p))
                assert check_functoriality(phi, Pt, Qt, rng=rng)


def test_functoriality_multiplication(small_pool, rng):
    c = small_pool[0]
    dc = DualCurve.canonical(c)
    for n in (2, 3):
        phi = multiplication_isogeny(c, n)
        for _ in range(10):
            Pt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            Qt = dc.compose(c.random_point(rng), rng.randrange(c.p))
            # bilinearity makes this n*n = deg phi
            assert check_functoriality(phi, Pt, Qt, rng=rng)


def test_functoriality_frobenius(tiny_anomalous, rng):
    c = tiny_anomalous
    phi = frobenius_isogeny(c)
    dc = DualCurve.canonical(c)
    pts = list(dc.points())
    for _ in range(20):
        Pt, Qt = rng.choice(pts), rng.choice(pts)
        # inseparable: both sides collapse to the identity value
        assert check_functoriality(phi, Pt, Qt, rng=rng)
        img = phi.eval_lifted(Pt)
        tgt = DualCurve.canonical(phi.target)
        assert lifted_pairing(tgt, img, phi.eval_lifted(Qt)).is_one() or True
    # deg phi = p kills every pairing value mod p
    Pt, Qt = pts[1], pts[-1]
    assert (lifted_pairing(dc, Pt, Qt) ** phi.degree).is_one()


def test_isogeny_json_shape(curve_with_two_torsion):
    c = curve_with_two_torsion
    phi = velu(c, [INFINITY, c.two_torsion()[0]])
    doc = phi.to_json()
    assert doc["degree"] == "2" and doc["m"] == "1"
    for key in ("r_num", "r_den", "s_num", "s_den"):
        assert all(isinstance(v, str) for v in doc[key])
    assert doc["source"] == c.to_json()
    assert doc["target"] == phi.target.to_json()


def test_curve_identity_at_sample_points(iso_pool):
    # the spec-level check: the two sides of the curve identity agree at
    # deg + 2 admissible sample abscissae (the constructors also verify it
    # symbolically, which subsumes this)
    for ell in (3, 5):
        c, phi = iso_pool[ell][0]
        f = c.field
        fx = Polynomial(f, (int(c.B), int(c.A), 0, 1))
        needed = 3 * phi.degree + 2
        hits = 0
        for v in range(c.p):
            x = f(v)
            if phi.r.den(x).is_zero():
                continue
            lhs = fx(x) * phi.s(x) ** 2
            r = phi.r(x)
            assert lhs == r**3 + phi.target.A * r + phi.target.B
            hits += 1
            if hits >= needed:
                break
        assert hits >= needed


def test_velu_kernel_polynomial_rejects_junk(tiny_anomalous):
    c = tiny_anomalous
    f = c.field
    psi3 = division_polynomial(c, 3)
    junk = next(v for v in range(1, c.p) if not psi3(f(-v)).is_zero())
    for h in (Polynomial(f, (junk, 1)), Polynomial.zero(f)):  # x + junk has no 3-torsion root
        with pytest.raises(BadInputError):
            velu_from_kernel_polynomial(c, h)


def test_velu_kernel_polynomial_with_singular_target_is_bad_input():
    # for these h, Kohel's formula gives a target with 4*A2^3 + 27*B2^2 = 0
    c = Curve(Fp(617), 179, 346)
    for t in (50, 89, 440, 464):
        with pytest.raises(BadInputError, match="not a kernel polynomial"):
            velu_from_kernel_polynomial(c, Polynomial(c.field, (t, 1)))


def test_lifted_kernel_point_when_no_rational_point_is_outside_kernel():
    # E: y^2 = x^3 + 2x over F_5 has E(F_5) = {O, (0, 0)}, all of it in the
    # kernel, so no translation could route around it; the closed form needs none
    c = Curve(Fp(5), 2, 0)
    T2 = c.two_torsion()[0]
    assert len(list(c.points())) == 2
    phi = velu(c, [INFINITY, T2])
    dc = DualCurve.canonical(c)
    for k in range(c.p):
        assert phi.eval_lifted(dc.compose(T2, k)) == DualPoint.infinity(c.field(k))


def test_curve_identity_failure_raises(monkeypatch, curve_with_two_torsion, tiny_anomalous):
    # the result check survives python -O: it raises instead of asserting
    monkeypatch.setattr(Isogeny, "curve_identity_holds", lambda self: False)
    c = curve_with_two_torsion
    builders = [
        lambda: velu(c, [INFINITY, c.two_torsion()[0]]),
        lambda: multiplication_isogeny(c, 2),
        lambda: frobenius_isogeny(tiny_anomalous),
    ]
    for build in builders:
        with pytest.raises(DualPairError, match="left the"):
            build()



# -- the closed-form construction, psi on demand and the line split ----------------


def _kohel_normalized(curve, D):
    """Oracle: Kohel's formulas with r reduced by RationalFunction's gcd and s = r.derivative(),
    as (target, r, s), for D = prod (x - x(Q)) over the kernel's nonzero points."""
    f = curve.field
    A, B, d = int(curve.A), int(curve.B), D.degree
    e1, e2, e3 = -D[d - 1], D[d - 2], -D[d - 3]
    s1, s2 = e1, e1 * e1 - 2 * e2
    s3 = e1 * s2 - e2 * s1 + 3 * e3
    fx, Dp = Polynomial(f, (B, A, 0, 1)), D.derivative()
    num = (Polynomial(f, (-s1, d + 1)) * D - fx.derivative() * Dp - 2 * (fx * Dp.derivative())
           + (2 * (fx * Dp * Dp)).exact_div(D))
    r = RationalFunction(num, D)
    return Curve(f, A - 5 * (3 * s2 + A * d), B - 7 * (5 * s3 + 3 * A * s1 + 2 * B * d)), r, r.derivative()


def _same_as_normalized(phi, D):
    target, r, s = _kohel_normalized(phi.source, D)
    maps = [(phi.r.num, r.num), (phi.r.den, r.den), (phi.s.num, s.num), (phi.s.den, s.den)]
    return phi.target == target and all(a.coeffs == b.coeffs for a, b in maps)


#: curves with p <= 29 whose subgroups of order <= 12 include the Klein four-group (7, 6, 0),
#: orders 6 and 9 (13, 0, 1) and (17, 0, 1), 8 and 12 (17, 15, 13), 7, 10 and 11, and eight of order 8 at p = 29
VELU_CURVES = [(7, 6, 0), (13, 0, 1), (17, 15, 13), (17, 0, 1), (17, 1, 4), (17, 1, 6), (17, 2, 3), (29, 28, 25)]


def test_closed_form_velu_matches_the_normalized_construction(iso_pool):
    orders = set()
    for p, a, b in VELU_CURVES:
        c = Curve(Fp(p), a, b)
        assert _same_as_normalized(identity_isogeny(c), Polynomial.constant(c.field, 1))
        for G in _rational_subgroups(p, a, b):
            if len(G) <= 12:
                points = [INFINITY if Q is None else c.point(*Q) for Q in G]
                D = Polynomial.from_roots(c.field, [Q[0] for Q in G if Q is not None])
                assert _same_as_normalized(velu(c, points), D)
                orders.add((len(G), sum(1 for Q in G if Q is not None and Q[1] == 0)))
    assert {(4, 3), (6, 1), (7, 0), (8, 3), (9, 0), (10, 1), (11, 0), (12, 1)} <= orders
    for ell in (3, 5):
        for c, phi in iso_pool[ell]:
            h = phi.kernel_polynomial()
            assert _same_as_normalized(velu_from_kernel_polynomial(c, h), h * h)


def test_velu_kernel_polynomial_rejects_random_polynomials(iso_pool):
    # the curve identity holds for the closed form exactly when it holds for the
    # normalized maps, which are the same functions: a random h is rejected
    rng = random.Random(7)
    c = iso_pool[5][0][0]
    f = c.field
    for _ in range(40):
        h = Polynomial(f, [rng.randrange(c.p) for _ in range(rng.randrange(1, 4))] + [1])
        try:
            target, r, s = _kohel_normalized(c, h * h)
            assert not Isogeny(c, target, r, s, 2 * h.degree + 1, f.one()).curve_identity_holds()
        except ValueError:  # a singular target curve
            pass
        with pytest.raises(BadInputError, match="not a kernel polynomial"):
            velu_from_kernel_polynomial(c, h)


def _full_recurrence(curve, top):
    """Oracle: psi_0..psi_top (pure-x parts) by the recurrences, every index in turn."""
    f = curve.field
    A, B = int(curve.A), int(curve.B)
    fx = Polynomial(f, (B, A, 0, 1))
    psi = [Polynomial.zero(f), Polynomial.constant(f, 1), Polynomial.constant(f, 2),
           Polynomial(f, (-A * A, 12 * B, 6 * A, 0, 3)),
           Polynomial(f, (-A**3 - 8 * B * B, -4 * A * B, -5 * A * A, 20 * B, 5 * A, 0, 1)) * 4]
    for n in range(5, top + 1):
        m = n // 2
        if n % 2:
            a = psi[m + 2] * psi[m] * psi[m] * psi[m]
            b = psi[m - 1] * psi[m + 1] * psi[m + 1] * psi[m + 1]
            psi.append(a * fx * fx - b if m % 2 == 0 else a - b * fx * fx)
        else:
            diff = psi[m + 2] * psi[m - 1] * psi[m - 1] - psi[m - 2] * psi[m + 1] * psi[m + 1]
            psi.append(psi[m] * diff * pow(2, -1, f.p))
    return psi


P_256 = 93651552868343116064426439039116612662436119053208978779440343948595872250883


@pytest.mark.parametrize("p, a, b", [(31, 1, 0), (1511, 1301, 497), (P_256, 3, 7)], ids=["31", "1511", "256-bit"])
def test_division_polynomials_on_demand(p, a, b):
    c = Curve(Fp(p), a, b)
    full = _full_recurrence(c, 24)  # psi_22 is the first whose psi_(m-2) no other read reaches
    for n in range(25):
        psi = _division_polynomials(c, (n,))
        assert psi[n] == full[n] == division_polynomial(c, n)
        assert all(psi[k] == full[k] for k in psi)
    # the search's request: psi_13 reaches psi_0..psi_8, and nothing from psi_9 to psi_12
    assert sorted(_division_polynomials(c, (13, *range(8)))) == [*range(9), 13]
    assert sorted(_division_polynomials(c, (6, 7, 8))) == list(range(9))
    with pytest.raises(BadInputError):
        division_polynomial(c, -1)


def _lines(curve, ell):
    """Every kernel polynomial of the ell + 1 lines when Frobenius is a scalar on E[ell]."""
    d = (ell - 1) // 2
    psi = _division_polynomials(curve, (ell, *range(d + 2)))
    fx = Polynomial(curve.field, (int(curve.B), int(curve.A), 0, 1))
    return _scalar_kernels(psi, fx, psi[ell].monic(), d)


#: scalar Frobenius on E[ell] where two lines share the value of sigma = x + x([2]x) + ... +
#: x([d]x), the T^(d-1) coefficient of their kernel polynomials, found by an exhaustive search
#: over p < 2500 (j = 0 curves below 300, the others through y^2 = x^3 + 3k*x + 2k and its
#: twist); in each, Frobenius has order d on (Z/ell)^*/{+-1}, so psi_ell's irreducible
#: factors are the lines
SIGMA_COLLISIONS = [(37, 0, 5, 7), (127, 0, 3, 13), (2027, 1215, 810, 11)]


@pytest.mark.parametrize("p, a, b, ell", SIGMA_COLLISIONS)
def test_line_split_separates_lines_that_share_sigma(p, a, b, ell):
    c = Curve(Fp(p), a, b)
    d = (ell - 1) // 2
    factors = [g for g, _ in division_polynomial(c, ell).factor()]
    assert len(factors) == ell + 1 and {g.degree for g in factors} == {d}
    sigmas = [-g[d - 1] % p for g in factors]
    assert len(set(sigmas)) < len(sigmas)
    assert sorted(g.coeffs for g in _lines(c, ell)) == sorted(g.coeffs for g in factors)
    assert find_cyclic_isogeny(c, ell).kernel_polynomial() == min(factors, key=lambda g: g.coeffs)


def _searches_digest(curves, ells):
    """sha256 of the JSON list of find_cyclic_isogeny(c, ell).to_json(), None where no isogeny exists."""
    docs = []
    for c in curves:
        for ell in ells:
            try:
                docs.append(find_cyclic_isogeny(c, ell).to_json())
            except NotRationalError:
                docs.append(None)
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


#: 64-bit CM curves (perfbench/cm.py, D = 11, random.Random(6) and random.Random(0)): 11 | v on the
#: first, so Frobenius is a scalar on E[11] and the line split runs; 11 does not divide v on the
#: second, where one gcd gives the kernel.  (p, A, B, the kernel polynomial's coefficients, the
#: sha256 of the isogeny's to_json), the last as the searches before the line split gave them
CM64 = [
    (9625922394657723619, 892942708224278626, 3803935937035426957,
     (591412296794435226, 6986256732556278388, 8109124242427841856, 3736330626353549450, 3130367742119353624, 1),
     "e5d901183017278353b57d6ef4bf1f6f9f5a3ecaada2515f05a9aa9914062bc2"),
    (15489306363526580203, 1436855877878161426, 6121006039760967685,
     (8337272536255516679, 11718346089447007664, 8994717795517290537, 3965722222943725546, 2212758051932368605, 1),
     "579c70ebf3c46a6bc45023d7a9f92653e188bc8d0a5ea8bf1660d5b7b87e0202"),
]


def test_searches_return_the_isogenies_they_returned_before():
    # the isogeny workload's pool, find_anomalous(1000, 1500, count=4, seed=0), for every ell
    # it requests: eight isogenies and twelve misses, pinned from the searches before psi on
    # demand, the closed-form maps and the line split
    pool = find_anomalous(1000, 1500, count=4, seed=0)
    assert _searches_digest(pool, (3, 5, 7, 11, 13)) == "17936e95fe69a41a5182c61bab01c59c5640ebeadb285d12b1faa21d416f04b7"
    for p, a, b, kernel, digest in CM64:
        c = Curve(Fp(p), a, b)
        assert find_cyclic_isogeny(c, 11).kernel_polynomial().coeffs == kernel
        assert _searches_digest([c], (11,)) == digest


@pytest.mark.parametrize("p, a, b, ell, candidates", [(1447, 468, 325, 7, 2), (673, 433, 210, 3, 4)])
def test_find_cyclic_isogeny_raises_when_no_candidate_validates(monkeypatch, p, a, b, ell, candidates):
    # the eigenvalue test passes, but every candidate kernel polynomial fails Vélu's
    # curve identity: each is tried once, in coefficient order, then the search gives up
    from dualpair import isogeny

    tried = []

    def invalid(curve, h):
        tried.append(h.coeffs)
        raise BadInputError("forced")

    monkeypatch.setattr(isogeny, "velu_from_kernel_polynomial", invalid)
    with pytest.raises(DualPairError, match=f"^x\\^2 - x \\+ {p} has a root mod {ell}, but no {ell}-kernel validated$") as exc:
        find_cyclic_isogeny(Curve(Fp(p), a, b), ell)
    assert type(exc.value) is DualPairError
    assert len(tried) == candidates and tried == sorted(set(tried))
