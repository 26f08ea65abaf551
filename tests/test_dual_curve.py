import pytest

from dualpair import Curve, DualCurve, DualPoint, count_points
from dualpair.errors import InvalidPointError, NotCanonicalError
from dualpair.fields import DualNumber, Fp

from conftest import count_walks


def eq1_holds(dc, pt):
    """Independent validity oracle: base membership plus the eps constraint
    (2*y0)*y1 = (3*x0^2 + A)*x1 + A1*x0 + B1, checked coefficient by
    coefficient rather than through dual arithmetic."""
    if pt.is_infinity:
        return True
    p = dc.p
    x0, x1 = pt.x.re.value, pt.x.eps.value
    y0, y1 = pt.y.re.value, pt.y.eps.value
    a, b = dc.base.A.value, dc.base.B.value
    a1, b1 = dc.A1.value, dc.B1.value
    on_base = (y0 * y0 - x0**3 - a * x0 - b) % p == 0
    eps_ok = (2 * y0 * y1 - (3 * x0 * x0 + a) * x1 - a1 * x0 - b1) % p == 0
    return on_base and eps_ok


@pytest.fixture(scope="module")
def lifts(tiny_anomalous):
    c = tiny_anomalous
    return [DualCurve.canonical(c), DualCurve(c, 1, 0), DualCurve(c, 2, 3)]


def test_validation_matches_eq1_oracle(lifts):
    for dc in lifts:
        for pt in dc.points():
            assert dc.is_valid(pt)
            assert eq1_holds(dc, pt)
        # perturbing y1 must break validity whenever y0 != 0
        for pt in dc.points():
            if pt.is_infinity or pt.y.re.is_zero():
                continue
            bad = DualPoint.affine(pt.x, pt.y + dc.field.dual(0, 1))
            assert not dc.is_valid(bad)
            assert not eq1_holds(dc, bad)


def test_theta_points_always_valid(lifts):
    for dc in lifts:
        for k in range(dc.p):
            assert dc.is_valid(DualPoint.infinity(dc.field(k)))


def test_point_count_is_p_times_base_count(lifts):
    n = count_points(lifts[0].base)
    for dc in lifts:
        assert len(list(dc.points())) == dc.p * n


def test_points_are_the_infinity_family_and_the_eq1_solutions(lifts):
    # as a set with no repeats: O_k for every k, then over each affine base point
    # every (x1, y1) in F_p^2 that the eps constraint accepts
    c2 = Curve(Fp(13), 1, 0)
    assert c2.two_torsion()
    for dc in lifts + [DualCurve.canonical(c2), DualCurve(c2, 2, 3)]:
        f = dc.field
        pts = list(dc.points())
        assert len(set(pts)) == len(pts)
        assert all(pt.is_infinity for pt in pts[: dc.p])
        expected = {DualPoint.infinity(f(k)) for k in range(dc.p)}
        for P in dc.base.points():
            if P.is_infinity:
                continue
            for x1 in range(dc.p):
                for y1 in range(dc.p):
                    pt = DualPoint.affine(DualNumber(P.x, f(x1)), DualNumber(P.y, f(y1)))
                    if eq1_holds(dc, pt):
                        expected.add(pt)
        assert set(pts) == expected


def test_offset_reads_back_translate(tiny_anomalous_all):
    # _offset(P, P + O_k) = k at every affine point, over 2-torsion too
    for c in tiny_anomalous_all + [Curve(Fp(13), 1, 0)]:
        for dc in (DualCurve.canonical(c), DualCurve(c, 2, 3)):
            for pt in dc.points():
                if pt.is_infinity:
                    continue
                for k in range(dc.p):
                    assert dc._offset(pt, dc.translate(pt, dc.field(k))) == dc.field(k)


def test_embed_and_lift(tiny_anomalous):
    c = tiny_anomalous
    dc = DualCurve.canonical(c)
    for P in c.points():
        pt = dc.embed(P)
        assert dc.is_valid(pt)
        assert pt.reduction() == P
        if not P.is_infinity:
            assert pt.x.eps.is_zero() and pt.y.eps.is_zero()
    nc = DualCurve(c, 2, 1)
    with pytest.raises(NotCanonicalError):
        nc.embed(c.points().__next__())
    for P in c.points():
        pt = nc.lift(P)
        assert nc.is_valid(pt)
        assert pt.reduction() == P


def test_lift_two_torsion_branch():
    # needs a curve with rational 2-torsion, hence non-anomalous
    c = Curve(Fp(31), 1, 0)
    T = c.two_torsion()[0]
    for a1, b1 in ((1, 0), (3, 4), (0, 2)):
        dc = DualCurve(c, a1, b1)
        pt = dc.lift(T)
        assert dc.is_valid(pt)
        assert pt.y.re.is_zero() and pt.y.eps.is_zero()
        expect_x1 = -(dc.A1 * T.x + dc.B1) / (3 * T.x**2 + c.A)
        assert pt.x.eps == expect_x1


def test_theta_group_is_additive_group_exhaustive(tiny_anomalous_all):
    for c in tiny_anomalous_all:
        dc = DualCurve.canonical(c)
        f = dc.field
        for a in range(c.p):
            for b in range(c.p):
                s = dc.add(DualPoint.infinity(f(a)), DualPoint.infinity(f(b)))
                assert s == DualPoint.infinity(f(a + b))
        assert dc.add(DualPoint.infinity(f(2)), DualPoint.infinity(f(c.p - 2))) == DualPoint.infinity(f(0))


def test_identity_and_negation(lifts):
    for dc in lifts:
        zero = DualPoint.infinity(dc.field.zero())
        for pt in dc.points():
            assert dc.add(pt, zero) == pt
            assert dc.add(zero, pt) == pt
            assert dc.add(pt, dc.neg(pt)) == zero


def test_add_rejects_invalid_points(tiny_anomalous):
    dc = DualCurve.canonical(tiny_anomalous)
    f = dc.field
    bogus = DualPoint.affine(f.dual(0, 0), f.dual(1, 0))
    if dc.is_valid(bogus):
        bogus = DualPoint.affine(f.dual(0, 0), f.dual(2, 0))
    with pytest.raises(InvalidPointError):
        dc.add(bogus, DualPoint.infinity(f.zero()))


def test_associativity_randomized(lifts, rng):
    for dc in lifts:
        pts = list(dc.points())
        for _ in range(400):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert dc.add(dc.add(P, Q), R) == dc.add(P, dc.add(Q, R))
            assert dc.add(P, Q) == dc.add(Q, P)


def test_reduction_is_homomorphism(lifts, rng):
    for dc in lifts:
        pts = list(dc.points())
        base = dc.base
        for _ in range(300):
            P, Q = rng.choice(pts), rng.choice(pts)
            assert dc.add(P, Q).reduction() == base.add(P.reduction(), Q.reduction())
        # kernel of reduction is exactly the family at infinity
        for pt in pts:
            assert pt.reduction().is_infinity == pt.is_infinity


def test_scalar_mul_projects_to_base(lifts, rng):
    for dc in lifts:
        pts = list(dc.points())
        for _ in range(40):
            pt = rng.choice(pts)
            n = rng.randrange(-2 * dc.p, 2 * dc.p)
            assert dc.mul(n, pt).reduction() == dc.base.mul(n, pt.reduction())


def test_mul_walks_its_base_point_once(monkeypatch):
    # n*P~ is read from one walk of its reduction on the base curve, along the
    # default chain for n, on the canonical lift and off it, at n = p and past it
    c = Curve(Fp(1511), 1301, 497)  # anomalous
    P = c.point(129, 526)
    walks = count_walks(monkeypatch)
    for a1, b1 in ((0, 0), (1000, 77)):
        dc = DualCurve(c, a1, b1)
        Pt = dc.translate(dc.lift(P), dc.field(9))
        for n in (c.p, -3, 2**40 + 7):
            walks.clear()
            dc.mul(n, Pt)
            assert walks == [{1: c.neg(P) if n < 0 else P}]


def test_canonical_lift_preserves_p_torsion(tiny_anomalous):
    c = tiny_anomalous
    dc = DualCurve.canonical(c)
    zero = DualPoint.infinity(dc.field.zero())
    for P in c.points():
        assert dc.mul(c.p, dc.embed(P)) == zero


def test_noncanonical_lift_breaks_p_torsion(tiny_anomalous, rng):
    # lifts with eps-free j-value are rejected by the sampler, and on the
    # sampled ones p * lift(P) must land at infinity with nonzero slope
    c = tiny_anomalous
    canonical = DualCurve.canonical(c)
    pts = [P for P in c.points() if not P.is_infinity]
    for _ in range(10):
        a1, b1 = canonical.random_lift_coeffs(rng)
        dc = DualCurve(c, a1, b1)
        assert not dc.j_value().eps.is_zero()
        for P in pts:
            out = dc.mul(c.p, dc.lift(P))
            assert out.is_infinity
            assert not out.k.is_zero()


def test_decompose_roundtrip_exhaustive(tiny_anomalous_all):
    for c in tiny_anomalous_all:
        dc = DualCurve.canonical(c)
        for pt in dc.points():
            P, k = dc.decompose(pt)
            assert dc.compose(P, k) == pt
        # zero eps parts decompose with k = 0
        for P in c.points():
            Q, k = dc.decompose(dc.embed(P))
            assert Q == P and k.is_zero()


def test_decompose_two_torsion_branch():
    # k = -y1/(3x0^2 + A) on points over rational 2-torsion
    c = Curve(Fp(31), 1, 0)
    dc = DualCurve.canonical(c)
    T = c.two_torsion()[0]
    f = c.field
    for y1 in (1, 5, 17):
        pt = DualPoint.affine(DualNumber(T.x, f.zero()), DualNumber(T.y, f(y1)))
        assert dc.is_valid(pt)
        P, k = dc.decompose(pt)
        assert P == T
        assert k == -f(y1) / (3 * T.x**2 + c.A)
        assert dc.compose(P, k) == pt


def test_decompose_requires_canonical(tiny_anomalous):
    nc = DualCurve(tiny_anomalous, 1, 1)
    with pytest.raises(NotCanonicalError):
        nc.decompose(DualPoint.infinity(nc.field.zero()))


def test_degenerate_cases_match_decomposition_route_exhaustive(tiny_anomalous_all):
    # the case-split group law must equal (P + O_k) + (Q + O_j) = (P+Q) + O_{k+j}
    for c in tiny_anomalous_all:
        if c.p > 7:
            continue  # p^4 pairs; keep the exhaustive pass cheap
        dc = DualCurve.canonical(c)
        pts = list(dc.points())
        for Pt in pts:
            for Qt in pts:
                P, k = dc.decompose(Pt)
                Q, j = dc.decompose(Qt)
                expect = dc.compose(c.add(P, Q), k + j)
                assert dc.add(Pt, Qt) == expect


def test_degenerate_cases_2torsion_reductions():
    # same-x cases over a curve with rational 2-torsion (unreachable on
    # anomalous curves, so exercised here explicitly)
    c = Curve(Fp(31), 1, 0)
    dc = DualCurve.canonical(c)
    T = c.two_torsion()[0]
    f = c.field
    zero = DualPoint.infinity(f.zero())
    base = dc.embed(T)
    for k in (0, 1, 7):
        pt = dc.translate(base, f(k))
        # doubling a lift of 2-torsion lands at infinity with slope 2k
        assert dc.add(pt, pt) == DualPoint.infinity(f(2 * k))
        # and adding two different lifts of the same 2-torsion point
        for j in (2, 9):
            qt = dc.translate(base, f(j))
            assert dc.add(pt, qt) == DualPoint.infinity(f(k + j))
    assert dc.add(base, dc.neg(base)) == zero


def test_j_value(tiny_anomalous, rng):
    c = tiny_anomalous
    p = c.p
    assert DualCurve.canonical(c).j_value().eps.is_zero()
    # scaling lifts A1 = 4kA, B1 = 6kB keep the j-value in F_p
    for k in range(p):
        dc = DualCurve(c, 4 * k * c.A.value, 6 * k * c.B.value)
        assert dc.j_value().eps.is_zero()
    # independent symbolic oracle for the eps part:
    #   j = N/D with N = 4A~^3, D = N + 27B~^2
    #   eps(j) = (N1*D0 - N0*D1)/D0^2
    for _ in range(40):
        a1, b1 = rng.randrange(p), rng.randrange(p)
        dc = DualCurve(c, a1, b1)
        a, b = c.A.value, c.B.value
        n0, n1 = 4 * a**3, 12 * a * a * a1
        d0, d1 = n0 + 27 * b * b, n1 + 54 * b * b1
        expect = (n1 * d0 - n0 * d1) * pow(d0 * d0, -1, p) % p
        assert dc.j_value().eps == expect
        assert dc.j_value().re == n0 * pow(d0, -1, p) % p


def test_dual_point_json_roundtrip(tiny_anomalous):
    dc = DualCurve.canonical(tiny_anomalous)
    f = dc.field
    th = DualPoint.infinity(f(3))
    assert th.to_json() == {"theta": "3"}
    pt = next(p for p in dc.points() if not p.is_infinity)
    want = {name: {"re": str(v.re.value), "eps": str(v.eps.value)} for name, v in (("x", pt.x), ("y", pt.y))}
    assert pt.to_json() == want
