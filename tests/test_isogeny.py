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
from dualpair.isogeny import Isogeny, RationalFunction
from dualpair.poly import Polynomial


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
    P = next(Q for Q in c.points() if not Q.is_infinity and c.order_of(Q) == 6)
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
    while c.order_of(P) <= 4:
        P = c.random_point(rng)
    with pytest.raises(NotASubgroupError):
        velu(c, [INFINITY, P])
    with pytest.raises(NotASubgroupError):
        velu(c, [c.two_torsion()[0]])


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
                    if not P.is_infinity and c.order_of(P) == 3:
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
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
            if rp.defined_at(x) and phi.s.defined_at(x) and not phi.s(x).is_zero():
                vals.add((rp(x) / phi.s(x)).value)
        assert vals == {compute_m(phi).value}


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
        a2 = RationalFunction.from_poly(Polynomial.constant(f, int(phi.target.A)))
        lhs = ((phi.r * phi.r).scale(3) + a2).scale(int(phi.m))
        bare = RationalFunction.from_poly(Polynomial(f, (int(phi.source.A), 0, 3))) * phi.s
        corr = RationalFunction.from_poly(fx).scale(2) * phi.s.derivative()
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

