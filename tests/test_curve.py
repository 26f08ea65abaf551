import math
import random

import pytest

from dualpair import (
    INFINITY,
    Curve,
    DualCurve,
    DualNumber,
    DualPoint,
    PairingValue,
    Point,
    count_points,
    find_anomalous,
    hasse_interval,
)
from dualpair.curve import is_anomalous
from dualpair.errors import (
    BadInputError,
    OrderAmbiguousError,
    PointNotOnCurveError,
    SearchExhaustedError,
)
from dualpair.fields import Fp
from dualpair.numbertheory import legendre, next_prime

from conftest import first_anomalous_by_scan


def _count_by_scan(curve):
    # oracle: enumerate x, count square RHS values
    p = curve.p
    a, b = curve.A.value, curve.B.value
    n = 1
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    for x in range(p):
        n += squares.get((x**3 + a * x + b) % p, 0)
    return n


def test_identity_and_inverse():
    c = Curve(Fp(5), 3, 2)
    P = c.point(1, 1)
    assert c.add(P, INFINITY) == P
    assert c.add(INFINITY, P) == P
    assert c.add(P, c.neg(P)).is_infinity


def test_off_curve_point_rejected():
    c = Curve(Fp(5), 3, 2)
    with pytest.raises(PointNotOnCurveError):
        c.add(Point(c.field(0), c.field(1)), INFINITY)
    with pytest.raises(PointNotOnCurveError):
        c.point(0, 1)


def test_associativity_randomized():
    rng = random.Random(11)
    c = Curve(Fp(10007), 3, 7)
    pts = [c.random_point(rng) for _ in range(40)] + [INFINITY]
    for _ in range(1000):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert c.add(c.add(P, Q), R) == c.add(P, c.add(Q, R))
        assert c.add(P, Q) == c.add(Q, P)


def test_group_axioms_exhaustive_small_p():
    c = Curve(Fp(13), 1, 4)
    pts = list(c.points())
    for P in pts:
        assert c.add(P, c.neg(P)).is_infinity
        for Q in pts:
            assert c.add(P, Q) == c.add(Q, P)
    rng = random.Random(12)
    for _ in range(1500):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert c.add(c.add(P, Q), R) == c.add(P, c.add(Q, R))


def test_scalar_mul_matches_repeated_addition():
    rng = random.Random(13)
    c = Curve(Fp(101), 2, 3)
    P = c.random_point(rng)
    acc = INFINITY
    for n in range(0, 25):
        assert c.mul(n, P) == acc
        assert c.mul(-n, P) == c.neg(acc)
        acc = c.add(acc, P)
    assert c.mul(1, P) == P


def test_order_times_point_is_infinity():
    c = Curve(Fp(5), 0, 1)  # y^2 = x^3 + 1
    n = count_points(c)
    assert n == _count_by_scan(c)
    assert abs(n - 6) <= math.isqrt(4 * 5) + 1
    for P in c.points():
        assert c.mul(n, P).is_infinity


def test_count_points_hasse_bound():
    rng = random.Random(14)
    for p in (5, 13, 101, 1009):
        f = Fp(p)
        for _ in range(6):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = Curve(f, a, b)
            n = count_points(c)
            lo, hi = hasse_interval(p)
            assert lo <= n <= hi
            assert n == _count_by_scan(c)


def test_count_points_bsgs_cross_check():
    # force the order-search path on curves small enough to scan
    rng = random.Random(15)
    for p in (1009, 4001, 9973):
        f = Fp(p)
        hits = 0
        while hits < 4:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = Curve(f, a, b)
            assert count_points(c, scan_limit=0, rng=rng) == count_points(c)
            hits += 1


def test_count_points_bsgs_detects_anomalous_trace():
    c = find_anomalous(9000, 10000, 1, seed=9)[0]
    # trace 1 exactly: both counting routes agree on #E = p
    assert count_points(c) == c.p
    assert count_points(c, scan_limit=0) == c.p


def test_bsgs_ambiguity_at_tiny_p():
    # at p = 5 both 5 and 10 are multiples of the point order in the
    # Hasse interval, so the order search must refuse
    c = Curve(Fp(5), 3, 2)
    with pytest.raises(OrderAmbiguousError):
        count_points(c, scan_limit=0)


def test_bsgs_ambiguity_on_non_cyclic_group():
    # #E = 50 with full 5-torsion: the exponent is 10, and the Hasse
    # interval [29, 55] holds three multiples of it; refusal is the
    # documented outcome (the scan threshold keeps real use clear of this)
    c = Curve(Fp(41), 6, 0)
    assert count_points(c) == 50
    with pytest.raises(OrderAmbiguousError):
        count_points(c, scan_limit=0)


def test_find_anomalous_postconditions():
    curves = find_anomalous(5, 300, count=3, seed=21)
    for c in curves:
        assert count_points(c) == c.p
        P = c.random_point(random.Random(1))
        assert c.mul(c.p, P).is_infinity
        for k in (1, 2, 3, c.p - 1):
            assert not c.mul(k, P).is_infinity


def test_find_anomalous_matches_exhaustive_smallest():
    # the smallest prime <= 50 carrying an anomalous curve, by full scan
    smallest = next(p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if first_anomalous_by_scan(p))
    found = find_anomalous(5, smallest, count=1, seed=4, budget=500_000)
    assert found[0].p <= smallest


def test_find_anomalous_determinism():
    a = find_anomalous(5, 500, count=2, seed=77)
    b = find_anomalous(5, 500, count=2, seed=77)
    assert [c.to_json() for c in a] == [c.to_json() for c in b]


def test_find_anomalous_search_exhausted():
    with pytest.raises(SearchExhaustedError):
        find_anomalous(24, 28, count=1, seed=1)  # no primes in range
    for p_min, p_max in ((3, 10), (20, 10)):  # p_min <= 3, and an empty range
        with pytest.raises(BadInputError):
            find_anomalous(p_min, p_max)


def test_find_anomalous_exhausts_a_small_range_early(monkeypatch):
    # F_5 has 2 anomalous curves and F_7 has 4; once every nonsingular
    # (p, A, B) of the range has been tried the search stops, instead of
    # spending its 2,000,000-trial budget
    import dualpair.curve as curve_module

    walks = []
    trial = curve_module._kills_random_point
    monkeypatch.setattr(curve_module, "_kills_random_point", lambda *args: walks.append(args) or trial(*args))
    for p_max, count, held in ((5, 3, 2), (7, 7, 6)):
        walks.clear()
        with pytest.raises(SearchExhaustedError, match=f"holds only {held} anomalous curves"):
            find_anomalous(5, p_max, count=count)
        assert {(p, a, b) for p, a, b, _ in walks} == {
            (p, a, b) for p in (5, 7) if p <= p_max for a in range(p) for b in range(p) if (4 * a**3 + 27 * b * b) % p
        }
        assert len(walks) < 1000


def _reference_search(p_min, p_max, count, seed, budget=2_000_000):
    # the search written on the public wrappers: one Curve, random_point and
    # mul per trial, with the documented prime and (A, B) sampling
    if next_prime(p_min) > p_max:
        raise SearchExhaustedError("no prime")
    rng = random.Random(seed)
    found, trials = [], 0
    while len(found) < count:
        p = next_prime(rng.randint(p_min, p_max))
        if p > p_max:
            continue
        for _ in range(max(32, 4 * math.isqrt(p))):
            trials += 1
            if trials > budget:
                raise SearchExhaustedError("budget")
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            c = Curve(Fp(p), a, b)
            if c in found:
                continue
            if c.mul(p, c.random_point(rng)).is_infinity and (p >= 7 or count_points(c) == p):
                found.append(c)
                if len(found) == count:
                    break
    return found


_SEARCHES = [
    # (p_min, p_max, count, seed, budget)
    (5, 5, 2, 0, 2_000_000),
    (5, 7, 3, 1, 2_000_000),
    (7, 7, 2, 2, 2_000_000),
    (5, 13, 4, 3, 2_000_000),
    (100_003, 100_003, 1, 4, 2_000_000),
    (100_000, 110_000, 1, 5, 2_000_000),
    (1000, 1500, 3, 6, 40),
    (5, 20, 2, 7, 5),
] + [
    (lo, lo + width, count, seed, 2_000_000)
    for seed, (lo, width, count) in enumerate(
        [(5, 100, 3), (11, 50, 2), (20, 200, 3), (50, 400, 2), (100, 1000, 4), (300, 300, 2),
         (1000, 500, 4), (1000, 9000, 2), (3000, 100, 2), (9000, 1000, 1), (20_000, 5000, 1),
         (5, 3000, 5), (17, 0, 2), (31, 30, 2), (200, 10, 1), (60_000, 100, 1),
         (5, 40, 6), (400, 4000, 3), (2000, 2000, 2), (7, 500, 4), (10_000, 30_000, 1),
         (40, 60, 3), (1500, 50, 2), (100, 100, 1)],
        start=10,
    )
]


@pytest.mark.parametrize("p_min,p_max,count,seed,budget", _SEARCHES)
def test_find_anomalous_matches_a_reference_on_wrappers(p_min, p_max, count, seed, budget):
    def run(search):
        try:
            return [c.to_json() for c in search(p_min, p_max, count, seed, budget)]
        except SearchExhaustedError:
            return SearchExhaustedError

    assert run(find_anomalous) == run(_reference_search)


def test_find_anomalous_pinned_curves():
    curves = find_anomalous(1000, 1500, count=4, seed=0)
    assert [(c.p, c.A.value, c.B.value) for c in curves] == [
        (1361, 686, 969), (1447, 468, 325), (1447, 370, 470), (1163, 642, 263),
    ]
    curves = find_anomalous(100_000, 1_000_000, count=2, seed=5)
    assert [(c.p, c.A.value, c.B.value) for c in curves] == [(814097, 461652, 338852), (617293, 473752, 268169)]


def test_non_square_discriminant_means_two_torsion():
    # the search rejects these curves without a walk: a cubic with a
    # non-square discriminant has exactly one root, so #E is even
    rejected = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                d = (4 * a**3 + 27 * b * b) % p
                if d and legendre(-d, p) == -1:
                    assert Curve(f, a, b).two_torsion()
                    rejected += 1
    assert rejected


def test_is_anomalous_matches_the_count(monkeypatch):
    # without rng the certificate point is deterministic, not a random draw;
    # p = 5 (where #E = 10 also kills a 5-torsion point) falls back to the count
    def no_draws(self, rng):
        raise AssertionError("is_anomalous drew a random point")

    monkeypatch.setattr(Curve, "random_point", no_draws)
    for p in (5, 7, 11, 13):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p:
                    c = Curve(f, a, b)
                    assert is_anomalous(c) == (count_points(c) == p)


def test_two_torsion():
    c = Curve(Fp(5), 3, 0)  # B = 0 always has (0, 0)
    assert Point(c.field(0), c.field(0)) in c.two_torsion()
    c7 = Curve(Fp(7), 6, 0)
    assert sorted(p.x.value for p in c7.two_torsion()) == [0, 1, 6]
    rng = random.Random(16)
    for p in (11, 101):
        f = Fp(p)
        for _ in range(10):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = Curve(f, a, b)
            tt = c.two_torsion()
            for T in tt:
                assert c.mul(2, T).is_infinity and not T.is_infinity
            # oracle: count points of order 2 by scanning the cubic
            assert len(tt) == sum(1 for x in range(p) if (x**3 + a * x + b) % p == 0)


def test_anomalous_curve_has_no_two_torsion(tiny_anomalous):
    assert tiny_anomalous.two_torsion() == []


def test_scalar_bijection_on_anomalous(tiny_anomalous_all):
    # n -> n*P hits every point exactly once, exhaustively up to p <= 100
    curves = list(tiny_anomalous_all) + list(find_anomalous(50, 100, count=2, seed=8))
    for c in curves:
        assert c.p <= 100
        P = next(q for q in c.points() if not q.is_infinity)
        seen = {c.mul(n, P) for n in range(c.p)}
        assert len(seen) == c.p == count_points(c)


def test_order_of():
    c = Curve(Fp(1009), 4, 9)
    n = count_points(c)
    rng = random.Random(17)
    for _ in range(8):
        P = c.random_point(rng)
        d = c.order_of(P)
        assert n % d == 0
        assert c.mul(d, P).is_infinity
        for q in (2, 3, 5, 7):
            if d % q == 0:
                assert not c.mul(d // q, P).is_infinity


def test_point_json_roundtrip():
    c = Curve(Fp(29), 1, 18)
    P = c.random_point(random.Random(18))
    assert Point.from_json(c.field, P.to_json()) == P
    assert Point.from_json(c.field, INFINITY.to_json()).is_infinity
    assert Curve.from_json(c.to_json()) == c


def test_from_json_reads_integer_fields_exactly():
    # every from_json takes a JSON int or a decimal string, and rejects a float,
    # an infinite number and a bool instead of truncating or coercing them
    f = Fp(1511)
    readers = [
        (lambda v: Curve.from_json({"p": v, "A": 1301, "B": 497}), 1511, Curve(f, 1301, 497)),
        (lambda v: Curve.from_json({"p": "1511", "A": v, "B": "497"}), 1301, Curve(f, 1301, 497)),
        (lambda v: Point.from_json(f, {"x": v, "y": 526}), 129, Point(f(129), f(526))),
        (lambda v: DualCurve.from_json({"p": 1511, "A": 1301, "B": 497, "A1": v, "B1": 0}), 3,
         DualCurve(Curve(f, 1301, 497), 3, 0)),
        (lambda v: DualNumber.from_json(f, {"re": v, "eps": "1"}), 7, f.dual(7, 1)),
        (lambda v: DualPoint.from_json(f, {"theta": v}), 5, DualPoint.infinity(f(5))),
        (lambda v: PairingValue.from_json(f, {"one_plus_eps_times": v}), 9, PairingValue(f(9))),
    ]
    for read, good, expected in readers:
        assert read(good) == expected
        assert read(str(good)) == expected
        for bad in (float(good), good + 0.9, float("inf"), True, None, [good]):
            with pytest.raises(ValueError):
                read(bad)
