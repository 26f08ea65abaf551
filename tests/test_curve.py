import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpair import (
    INFINITY,
    Curve,
    PairingValue,
    Point,
    count_points,
    find_anomalous,
    hasse_interval,
)
from dualpair.curve import (
    JACOBIAN_INFINITY,
    SQUARE_TABLE_FROM,
    _certifies_anomalous,
    _kills,
    _prime_tables,
    _square_table,
    is_anomalous,
    jacobian_add,
    jacobian_affine,
    jacobian_double,
    jacobian_mul,
    jacobian_multi_mul,
    scalar_mul,
)
from dualpair.errors import (
    BadInputError,
    PointNotOnCurveError,
    SearchExhaustedError,
)
from dualpair.fields import Fp
from dualpair.numbertheory import half_euclid, is_prime, legendre, next_prime, sqrt_mod

import test_crypto256 as pinned
from conftest import first_anomalous_by_scan, jacobian_kills


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


def test_primes_below_3():
    assert [n for n in range(-3, 12) if is_prime(n)] == [2, 3, 5, 7, 11]
    assert [next_prime(n) for n in (-5, 0, 1, 2, 3, 4)] == [2, 2, 2, 2, 3, 5]


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


def test_count_points_bsgs_detects_anomalous_trace():
    c = find_anomalous(9000, 10000, 1, seed=9)[0]
    # trace 1 exactly: the character sum counts #E = p on the search's curve
    assert count_points(c) == c.p


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
    trial = curve_module._kills
    monkeypatch.setattr(curve_module, "_kills", lambda *args: walks.append(args) or trial(*args))
    for p_max, count, held in ((5, 3, 2), (7, 7, 6)):
        walks.clear()
        with pytest.raises(SearchExhaustedError, match=f"holds only {held} anomalous curves"):
            find_anomalous(5, p_max, count=count)
        assert {(p, a, b) for p, a, b, _, _ in walks} == {
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
] + [
    (1000, 1500, 1, seed, 2_000_000)  # the desk workload's four searches
    for seed in range(4)
] + [
    (20, 3000, 40, 3, 2_000_000),  # many finds over many primes, so many `seen` skips
    (100_000, 200_000, 2, 7, 2_000_000),  # 17- and 18-bit primes, above COUNT_SCAN_LIMIT
]


@pytest.mark.parametrize("p_min,p_max,count,seed,budget", _SEARCHES)
def test_find_anomalous_matches_a_reference_on_wrappers(p_min, p_max, count, seed, budget):
    def run(search):
        try:
            return [c.to_json() for c in search(p_min, p_max, count, seed, budget)]
        except SearchExhaustedError:
            return SearchExhaustedError

    assert run(find_anomalous) == run(_reference_search)


def test_reference_searches_run_on_both_sides_of_the_square_table():
    # the reference search takes Euler's criterion everywhere, so these cases
    # compare the table's lookups with it below SQUARE_TABLE_FROM, and the pow with it above
    assert any(p_max < SQUARE_TABLE_FROM for _, p_max, *_ in _SEARCHES)
    assert any(p_min < SQUARE_TABLE_FROM <= p_max for p_min, p_max, *_ in _SEARCHES)
    assert any(p_min >= SQUARE_TABLE_FROM for p_min, *_ in _SEARCHES)


@pytest.mark.parametrize("p", [5, 7, 1009, 1499, next(q for q in range(SQUARE_TABLE_FROM - 1, 1, -1) if is_prime(q))])
def test_square_table_is_the_quadratic_character(p):
    # nonzero exactly at the squares, 0 included, where it is one more than a root
    table = _square_table(p)
    assert len(table) == p
    assert [bool(table[t]) for t in range(p)] == [legendre(t, p) != -1 for t in range(p)]
    for t in range(p):
        if table[t]:
            assert (table[t] - 1) ** 2 % p == t, (p, t)


#: find_anomalous's results before the square table and the split-cubic reject, which must not change them;
#: the one-prime rows walk on both sides of that reject (p = 1 mod 3 and 2 mod 3), and 19993 is the largest
#: prime = 1 mod 3 below SQUARE_TABLE_FROM
_PINNED_SEARCHES = [
    ((7, 7, 3, 0), [(7, 0, 5), (7, 6, 5), (7, 5, 5)]),
    ((13, 13, 3, 0), [(13, 9, 6), (13, 7, 10), (13, 11, 3)]),
    ((1009, 1009, 3, 0), [(1009, 620, 850), (1009, 451, 945), (1009, 534, 138)]),
    ((1013, 1013, 3, 0), [(1013, 702, 972), (1013, 345, 272), (1013, 318, 815)]),
    ((19993, 19993, 3, 0), [(19993, 17083, 8535), (19993, 13779, 15055), (19993, 1931, 9999)]),
    ((1000, 1500, 1, 0), [(1361, 686, 969)]),
    ((1000, 1500, 1, 1), [(1069, 649, 933)]),
    ((1000, 1500, 1, 2), [(1319, 1094, 1047)]),
    ((1000, 1500, 1, 3), [(1123, 511, 930)]),
    ((1000, 1500, 1, 4), [(1123, 926, 777)]),
    ((1000, 1500, 1, 5), [(1319, 1259, 1104)]),
    ((1000, 1500, 1, 6), [(1439, 367, 983)]),
    ((1000, 1500, 1, 7), [(1171, 1081, 740)]),
    ((1000, 1500, 1, 8), [(1117, 347, 482)]),
    ((1000, 1500, 1, 9), [(1297, 925, 176)]),
    ((5, 50, 6, 3), [(23, 17, 7), (23, 10, 21), (47, 4, 30), (23, 21, 15), (23, 5, 14), (43, 21, 13)]),
    # the range straddles SQUARE_TABLE_FROM, with finds on both sides of it
    ((1000, 60000, 3, 0), [(51131, 8328, 15687), (49613, 27814, 45429), (3299, 44, 2306)]),
    ((1000, 60000, 3, 6), [(18223, 11904, 17807), (5623, 1741, 3415), (27361, 16211, 11019)]),
]


@pytest.mark.parametrize("args,expected", _PINNED_SEARCHES)
def test_find_anomalous_keeps_its_results(args, expected):
    p_min, p_max, count, seed = args
    assert [(c.p, c.A.value, c.B.value) for c in find_anomalous(p_min, p_max, count, seed)] == expected


def test_find_anomalous_keeps_its_desk_results():
    # sha256 of the curves of find_anomalous(1000, 1500, count=3, seed=s) for s < 40, before the split-cubic reject
    docs = [[c.to_json() for c in find_anomalous(1000, 1500, count=3, seed=s)] for s in range(40)]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "c4de9c09cb720e1475e64fddb9194499fb030259b6614aa17d2d778e0fc197ea"


def test_find_anomalous_pinned_curves():
    curves = find_anomalous(1000, 1500, count=4, seed=0)
    assert [(c.p, c.A.value, c.B.value) for c in curves] == [
        (1361, 686, 969), (1447, 468, 325), (1447, 370, 470), (1163, 642, 263),
    ]
    curves = find_anomalous(100_000, 1_000_000, count=2, seed=5)
    assert [(c.p, c.A.value, c.B.value) for c in curves] == [(814097, 461652, 338852), (617293, 473752, 268169)]


@pytest.mark.parametrize("p", [5, 7, 1009, 1499, 65537, 10**6 + 3, 2**61 - 1])
def test_search_draws_are_randrange_draws(monkeypatch, p):
    # the search draws with getrandbits, as randrange does, so that every seed
    # keeps its curves: each A and B is Random(seed).randrange(p), each x is
    # randrange(p) redrawn until x^3 + A*x + B is zero or a square (Euler's
    # criterion), then a sign bit is drawn unless it is zero; the rng state
    # after each draw is theirs.  An interpreter whose randrange drew
    # otherwise fails here
    import dualpair.curve as curve_module

    class Enough(Exception):
        pass

    draw, trials, drawn = curve_module._random_x, 12, []

    def record_draw(q, a, b, rng, squares):
        if len(drawn) == 2 * trials:
            raise Enough
        assert (squares is not None) == (q < SQUARE_TABLE_FROM)
        drawn.append(("A, B", a, b, rng.getstate()))
        x, negate = draw(q, a, b, rng, squares)
        drawn.append(("x", x, negate, rng.getstate()))
        return x, negate

    monkeypatch.setattr(curve_module, "_random_x", record_draw)
    monkeypatch.setattr(curve_module, "_kills", lambda q, a, b, x, squares: False)  # no find, so no `seen` skip
    for seed in range(12):
        drawn.clear()
        with pytest.raises(Enough):
            find_anomalous(p, p, count=1, seed=seed)
        ref, expected = random.Random(seed), []
        while len(expected) < len(drawn):
            assert next_prime(ref.randint(p, p)) == p
            for _ in range(max(32, 4 * math.isqrt(p))):
                if len(expected) == len(drawn):
                    break
                a, b = ref.randrange(p), ref.randrange(p)
                if (4 * a**3 + 27 * b * b) % p:
                    expected.append(("A, B", a, b, ref.getstate()))
                    while True:
                        x = ref.randrange(p)
                        t = (x**3 + a * x + b) % p
                        if t == 0 or pow(t, (p - 1) // 2, p) == 1:
                            break
                    negate = ref.getrandbits(1) if t else 0
                    expected.append(("x", x, negate, ref.getstate()))
        assert len(drawn) == 2 * trials
        assert drawn == expected[: len(drawn)]


@pytest.mark.parametrize("p,a,b", [(5, 3, 0), (13, 1, 4), (1511, 1301, 497), (1009, 2, 3)])
def test_random_point_is_the_written_out_draw(p, a, b):
    # x is randrange(p), redrawn until x^3 + A*x + B is zero or a square; y is its
    # least root, negated when the sign bit, drawn unless y = 0, is set.  Point
    # for point and rng state for rng state; the roots are found by search.
    # (5, 3, 0) has y = 0 at x = 0, and 13 and 1009 are 1 mod 4 (Tonelli-Shanks)
    c = Curve(Fp(p), a, b)
    roots = {}
    for r in range(p):
        roots.setdefault(r * r % p, r)
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            P = c.random_point(rng)
            while True:
                x = ref.randrange(p)
                t = (x**3 + a * x + b) % p
                if t in roots:
                    break
            y = roots[t]
            if y and ref.getrandbits(1):
                y = p - y
            assert (P.x.value, P.y.value) == (x, y)
            assert rng.getstate() == ref.getstate()


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
    # at p = 5 (where #E = 10 also kills a 5-torsion point) _certifies_anomalous
    # falls back to the count, and is_anomalous needs none (the next test).
    # The certificate itself: p | #E exactly when some P != O has p*P = O (Cauchy)
    def no_draws(self, rng):
        raise AssertionError("is_anomalous drew a random point")

    monkeypatch.setattr(Curve, "random_point", no_draws)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p:
                    c = Curve(f, a, b)
                    n = count_points(c)
                    assert is_anomalous(c) == _certifies_anomalous(c, n % p == 0) == (n == p)
                    assert not _certifies_anomalous(c, False)


def test_a_kill_is_the_certificate():
    # find_anomalous keeps a curve on a kill, and is_anomalous answers by one, with no count: a kill
    # has t a nonzero square, so P' != O has order p and p | #E, and from p = 7 on Hasse leaves only
    # #E = p; at p = 5, #E = 10 has one point of order 2, so a non-square discriminant, which _kills
    # rejects before it walks. On an anomalous curve every such x is a kill, with the table or without
    tens = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        f, table = Fp(p), _square_table(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                n = count_points(Curve(f, a, b))
                tens += n == 2 * p
                xs = [x for x in range(p) if legendre(x**3 + a * x + b, p) == 1]
                kills = [_kills(p, a, b, x, squares) for squares in (None, table) for x in xs]
                assert kills and all(kills) if n == p else not any(kills), (p, a, b)
    assert tens  # the case the discriminant reject answers, at p = 5


def _image(p, a, b, x):
    # the isomorphism (x, y) -> (u^2 x, u^3 y), u = y = sqrt(t), that `_kills` walks
    # through: the image curve (a t^2, b t^3), y, u^2 = t and u^3 = t y
    y = sqrt_mod(x**3 + a * x + b, p)
    t = y * y % p
    return Curve(Fp(p), a * t * t, b * t**3), y, t, t * y % p


def test_kills_walks_an_isomorphic_image():
    # every curve and every x with t = x^3 + ax + b a nonzero square, at
    # small p: each multiple m*P of P = (x, sqrt t), by the affine law on
    # wrappers, maps to m times the image point on the image curve
    cases = 0
    for p in (5, 7, 11, 13):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                c = Curve(f, a, b)
                for x in range(p):
                    if legendre(x**3 + a * x + b, p) != 1:
                        continue
                    image, y, u2, u3 = _image(p, a, b, x)
                    P, Pi = c.point(x, y), image.point(u2 * x, u2 * u2)
                    Q, Qi = P, Pi
                    for _ in range(p + 1 + 2 * math.isqrt(p)):
                        if Q.is_infinity:
                            assert Qi.is_infinity
                        else:
                            assert (Qi.x.value, Qi.y.value) == (u2 * Q.x.value % p, u3 * Q.y.value % p)
                        Q, Qi = c._add_raw(Q, P), image._add_raw(Qi, Pi)
                        cases += 1
    assert cases > 10_000


def test_kills_image_multiples_at_1511_and_2_31():
    # random curves and abscissas, scalars below and at p, on the Jacobian walk
    rng = random.Random(30)
    for p in (1511, 2**31 - 1):
        for _ in range(20):
            a, b = rng.randrange(p), rng.randrange(p)
            x = rng.randrange(p)
            while legendre(x**3 + a * x + b, p) != 1:
                x = rng.randrange(p)
            image, y, u2, u3 = _image(p, a, b, x)
            ai = image.A.value
            for m in list(range(1, 40)) + [p - 1, p, p + 1] + [rng.randrange(1, 2**31) for _ in range(10)]:
                Q = jacobian_affine(p, jacobian_mul(p, a, m, (x, y, 1)))
                Qi = jacobian_affine(p, jacobian_mul(p, ai, m, (u2 * x % p, u2 * u2 % p, 1)))
                assert Qi == (None if Q is None else (u2 * Q[0] % p, u3 * Q[1] % p)), (p, a, b, x, m)


def test_kills_agrees_with_the_walk_of_a_square_root():
    # at every x with t a square or zero, on every curve of both discriminant
    # classes: _kills is the discriminant reject, then p*(x, sqrt_mod(t)) = O;
    # at every x, given the table (whose split-cubic reject p = 7, 13, 19, 31
    # and 37 take, as 1 mod 3), it is what it is without it
    seen = set()
    for p in (5, 7, 11, 13, 17, 19, 31, 37):
        f, table = Fp(p), _square_table(p)
        for a in range(p):
            for b in range(p):
                d = (4 * a**3 + 27 * b * b) % p
                if d == 0:
                    continue
                c = Curve(f, a, b)
                square_d = legendre(-d, p) != -1
                for x in range(p):
                    kills = _kills(p, a, b, x)
                    assert _kills(p, a, b, x, table) == kills, (p, a, b, x)
                    y = sqrt_mod(x**3 + a * x + b, p)
                    if y is None:
                        continue
                    walked = c.mul(p, c.point(x, y)).is_infinity
                    assert kills == (square_d and walked), (p, a, b, x)
                    seen.add((square_d, y == 0, walked))
    # both classes, t = 0 in each, and a kill, which only a square discriminant
    # reaches (at p = 5 a non-square one kills on the walk, #E = 10, and is still rejected)
    assert {(True, True, False), (False, True, False), (True, False, True), (False, False, True)} <= seen


def _walks(monkeypatch):
    # every kill walk, as (p, a, n, base) with base = (x, y, 1), made while the list is alive: `_kills`
    # walks by scalar_mul
    import dualpair.curve as curve_module

    walks, walk = [], curve_module.scalar_mul

    def record(p, a, n, x, y):
        walks.append((p, a, n, (x, y, 1)))
        return walk(p, a, n, x, y)

    monkeypatch.setattr(curve_module, "scalar_mul", record)
    return walks


def test_kills_is_the_jacobian_comparison_at_every_small_case(monkeypatch):
    # at every (a, b, x) of every nonsingular curve at each p <= 43, with and without the square table,
    # _kills's affine answer, and its Jacobian one with SQUARE_TABLE_FROM lowered below every p, are
    # the oracle's: the old walk to (p - 1)P' by jacobian_mul, compared with -P' projectively
    import dualpair.curve as curve_module

    seen = set()
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        table = _square_table(p)
        expected = {
            (a, b, x, squares is None): jacobian_kills(p, a, b, x, squares)
            for a in range(p)
            for b in range(p)
            if (4 * a**3 + 27 * b * b) % p
            for x in range(p)
            for squares in (None, table)
        }
        for engine_from in (SQUARE_TABLE_FROM, 5):
            with monkeypatch.context() as m:
                m.setattr(curve_module, "SQUARE_TABLE_FROM", engine_from)
                for (a, b, x, plain), kills in expected.items():
                    assert _kills(p, a, b, x, None if plain else table) == kills, (p, a, b, x, plain, engine_from)
        seen |= set(expected.values())
    assert seen == {True, False}


def _kill_case(data) -> tuple:
    """(p, a, b, x) at a prime below 2^32 drawn near `SQUARE_TABLE_FROM` as often as anywhere, or on an
    anomalous curve pinned in this file, so that kills are drawn on both engines."""
    anomalous = [(c[0], c[1], c[2]) for _, found in _PINNED_SEARCHES for c in found] + [(814097, 461652, 338852)]
    if data.draw(st.booleans()):
        p, a, b = data.draw(st.sampled_from(anomalous))
    else:
        p = next_prime(data.draw(st.one_of(st.integers(5, 2 * SQUARE_TABLE_FROM), st.integers(5, 2**32 - 5))))
        a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
        assume((4 * a**3 + 27 * b * b) % p)
    return p, a, b, data.draw(st.integers(0, p - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_kills_is_the_jacobian_comparison_below_2_32(data):
    # random curves and anomalous ones at primes below 2^32, at random x, with the table below SQUARE_TABLE_FROM
    p, a, b, x = _kill_case(data)
    table = _square_table(p) if p < SQUARE_TABLE_FROM else None
    assert _kills(p, a, b, x) == jacobian_kills(p, a, b, x), (p, a, b, x)
    assert _kills(p, a, b, x, table) == jacobian_kills(p, a, b, x, table), (p, a, b, x)


def test_split_test_is_a_root_count(monkeypatch):
    # at p = 1 mod 3, a curve with a square discriminant has a cubic with three
    # roots or none; given the table, _kills rejects the first kind without a
    # walk and walks the second, at any x with t = x^3 + ax + b nonzero
    walks = _walks(monkeypatch)
    split = whole = 0
    for p in (q for q in range(7, 100, 6) if is_prime(q)):
        table = _square_table(p)
        for a in range(p):
            for b in range(p):
                d = -(4 * a**3 + 27 * b * b) % p
                if not d or legendre(d, p) != 1:
                    continue
                roots = sum((r**3 + a * r + b) % p == 0 for r in range(p))
                assert roots in (0, 3), (p, a, b)
                x = next(x for x in range(p) if (x**3 + a * x + b) % p)
                walks.clear()
                _kills(p, a, b, x, table)
                assert len(walks) == (roots == 0), (p, a, b)
                split, whole = split + (roots == 3), whole + (roots == 0)
    assert split > 1000 and whole > 1000


@pytest.mark.parametrize("p,walked", [(1009, 144), (1013, 246)])
def test_search_skips_the_walk_of_a_split_cubic(monkeypatch, p, walked):
    # find_anomalous(p, p, count=3, seed=0) walked 210 curves at 1009 and 246 at
    # 1013 before the split-cubic reject, which only p = 1 mod 3 takes; every
    # walked image y^2 = x^3 + a'x + b', b' read from its base point, has a cubic with no root
    walks = _walks(monkeypatch)
    find_anomalous(p, p, count=3, seed=0)
    assert len(walks) == walked
    for q, a, n, (x, y, _) in walks:
        assert (q, n) == (p, p - 1)
        b = (y * y - x**3 - a * x) % p
        assert (p % 3 == 2) or all((r**3 + a * r + b) % p for r in range(p)), (a, b)


def test_search_takes_no_square_root(monkeypatch):
    import dualpair.curve
    import dualpair.fields
    import dualpair.numbertheory

    def no_roots(a, p):
        raise AssertionError("sqrt_mod called")

    for module in (dualpair.numbertheory, dualpair.fields, dualpair.curve):
        monkeypatch.setattr(module, "sqrt_mod", no_roots)
    curves = [find_anomalous(1000, 1500, 1, seed)[0] for seed in range(4)]
    assert [(c.p, c.A.value, c.B.value) for c in curves] == [
        (1361, 686, 969), (1069, 649, 933), (1319, 1094, 1047), (1123, 511, 930),
    ]
    assert is_anomalous(Curve(Fp(1511), 1301, 497))


def _double_and_add(p, a, n, base, seen):
    # oracle: the double-and-add walk on `jacobian_double` and `jacobian_add`,
    # noting in `seen` which degenerate step each operation takes
    acc = base
    for bit in bin(n)[3:]:
        X, Y, Z = acc
        seen.add("double O" if not Z else "double Y = 0" if not Y else "double")
        acc = jacobian_double(p, a, acc)[0]
        if bit == "1":
            X, Y, Z = acc
            if not Z:
                seen.add("add to O")
            else:
                H = (base[0] * Z * Z - X) % p
                r = (base[1] * Z**3 - Y) % p
                seen.add("add" if H else "add H = 0, r = 0" if not r else "add H = 0, r != 0")
            acc = jacobian_add(p, a, acc, base)[0]
    return acc


def test_jacobian_mul_degenerate_steps():
    # points of small order on non-anomalous curves: scalars that are multiples
    # of the order take the accumulator through O, and scalars = 1 mod the order
    # make it meet the base; the inlined walk ends at the oracle's exact triple,
    # and scalar_mul's affine walk, which these p all take, at the same point
    rng = random.Random(31)
    orders, seen = set(), set()
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 1511):
        f = Fp(p)
        for _ in range(8):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            c = Curve(f, a, b)
            if count_points(c) == p:
                continue
            xs = [x for x in range(p) if legendre(x**3 + a * x + b, p) != -1][:12]
            for x in xs:
                P = c.point(x, sqrt_mod(x**3 + a * x + b, p))
                k, Q = 1, P
                while not Q.is_infinity and k <= 60:  # the order of P, if at most 60
                    k, Q = k + 1, c._add_raw(Q, P)
                if k > 60:
                    continue
                orders.add(k)
                base = (P.x.value, P.y.value, 1)
                scalars = set(range(1, 2 * k + 2))
                scalars |= {k * m + e for m in (rng.randrange(1, 2**20), rng.randrange(1, 2**31 // k)) for e in (0, 1)}
                for n in scalars:
                    assert jacobian_mul(p, a, n, base) == _double_and_add(p, a, n, base, seen), (p, a, b, P, n)
                    assert scalar_mul(p, a, n, *base[:2]) == jacobian_affine(p, jacobian_mul(p, a, n, base)), (p, a, b, P, n)
    assert {2, 3, 4, 5, 6} <= orders
    assert seen == {"double", "double O", "double Y = 0", "add", "add to O", "add H = 0, r = 0", "add H = 0, r != 0"}
    assert jacobian_mul(5, 1, 2, (0, 0, 1)) == JACOBIAN_INFINITY  # a point of order 2 on y^2 = x^3 + x


def _check_kept_tables(tables: dict) -> None:
    # every inverse slot d > 0 holds 1/d mod p and slot 0 holds 0; a kept square table is a fresh build's
    for p, (inv, *squares) in tables.items():
        assert len(inv) == p and inv[0] == 0
        assert all(d * inv[d] % p == 1 for d in range(1, p)), p
        assert squares in ([], [_square_table(p)]), p


def test_inverses_hold_only_inverses(monkeypatch):
    # the per-prime table after walks at p holds every inverse; one list per p, the one that
    # scalar_mul's walks read
    import dualpair.curve as curve_module

    for p, a, b in ((1511, 1301, 497), (19997, 3, 7)):
        c = Curve(Fp(p), a, b)
        rng = random.Random(p)
        for _ in range(20):
            P = c.random_point(rng)
            c.mul(rng.randrange(1, 2**32), P)
            c.mul(p, P)
        inv = _prime_tables(p)[0]
        assert inv is _prime_tables(p)[0]
        _check_kept_tables({p: [inv]})
    # under a budget of 1,500 slots, walks, searches and kill tests over primes 101-401 of which a few
    # fit: the kept slots stay within the budget, the least recently used primes go first, and every
    # kept table holds the inverses or is a fresh square table
    from dualpair.miller import slope_walk

    monkeypatch.setattr(curve_module, "TABLE_SLOTS", 1500)
    monkeypatch.setattr(curve_module, "_TABLES", {})
    primes = [q for q in range(101, 402) if is_prime(q)]
    rng, used, built = random.Random(48), [], {}
    for step in range(150):
        q = rng.choice(primes[: 4 + step // 10])
        a = next(a for a in iter(lambda: rng.randrange(q), None) if (4 * a**3 + 27) % q)
        c, kind = Curve(Fp(q), a, 1), rng.randrange(3)
        if kind == 0:  # a walk asks for the inverses alone
            c.mul(rng.randrange(1, 2**32), c.random_point(rng))
        elif kind == 1:  # a Miller walk too
            slope_walk(c, c.random_point(rng), rng.randrange(1, 2**32))
        else:  # a search asks for both tables, and the kill test of its find walks again
            assert is_anomalous(find_anomalous(q, q, count=1, seed=step)[0])
        used = [r for r in used if r != q] + [q]
        kept = curve_module._TABLES
        assert sum(r * len(tables) for r, tables in kept.items()) <= 1500
        assert list(kept) == used[len(used) - len(kept) :]  # the most recently used, in order
        assert (len(kept[q]) == 2) >= (kind == 2)
        _check_kept_tables(kept)
        built = {r: table for r, table in built.items() if r in kept}
        for r, tables in kept.items():  # a square table is built once while its prime stays kept
            assert len(tables) == 1 or built.setdefault(r, tables[1]) is tables[1]
    assert len(used) > len(kept) > 1


def test_jacobian_multi_mul_is_the_sum_of_its_pairs():
    # the joint walk ends at the sum of its pairs' jacobian_mul multiples, for one, two and three
    # pairs, scalars below 2^32, at it and far above it, and digit strings of unequal length; with
    # one pair it ends at jacobian_mul's own triple, on either side of 2^32
    rng = random.Random(33)
    desk = Curve(Fp(1511), 1301, 497)
    for c in (desk, Curve(Fp(pinned.P), pinned.A, pinned.B)):
        p, a = c.p, c.A.value
        points = [c.random_point(rng) for _ in range(3)]
        bases = [(P.x.value, P.y.value, 1) for P in points]
        scalars = [1, 2, 3, 15, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 7, 2**128 - 1, p - 1, p, p + 1]
        scalars += [rng.randrange(1, 2**32) for _ in range(4)] + [rng.randrange(2**32, 2**300) for _ in range(4)]
        for n in scalars:
            assert jacobian_multi_mul(p, a, ((n, bases[0]),)) == jacobian_mul(p, a, n, bases[0]), (p, n)
        for _ in range(30):
            pairs = [(rng.choice(scalars), base) for base in bases[: rng.randrange(2, 4)]]
            total = INFINITY
            for n, base in pairs:
                xy = jacobian_affine(p, jacobian_mul(p, a, n, base))
                total = c._add_raw(total, INFINITY if xy is None else c.point(*xy))
            xy = jacobian_affine(p, jacobian_multi_mul(p, a, pairs))
            assert (INFINITY if xy is None else c.point(*xy)) == total, (p, pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(20, 256).flatmap(lambda bits: st.tuples(st.integers(2 ** (bits - 1), 2**bits - 1), st.integers(-(2**bits), 2**bits))))
def test_half_euclid_splits_n_into_two_halves(mn):
    # u = v*n (mod m), 0 <= u, u^2 < m and 0 < v^2 <= m, at a prime modulus and at any other
    x, n = mn
    for m in (next_prime(x), x):
        u, v = half_euclid(n, m)
        assert (u - v * n) % m == 0 and 0 <= u and u * u < m and 0 < v * v <= m, (m, n, u, v)


def test_half_euclid_at_square_moduli():
    # a remainder r with r^2 = m, which no prime modulus has, still goes on: u^2 < m strictly
    for q in (2, 3, 7, 1009, 2**61 - 1):
        m = q * q
        for n in (q, 2 * q, m - q, q * q + q, q + 1, 1):
            u, v = half_euclid(n, m)
            assert (u - v * n) % m == 0 and 0 <= u and u * u < m and 0 < v * v <= m, (m, n, u, v)
    assert half_euclid(7, 49) == (0, -7)


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


def test_point_json_roundtrip():
    c = Curve(Fp(29), 1, 18)
    P = c.random_point(random.Random(18))
    assert Point.from_json(c.field, P.to_json()) == P
    assert Point.from_json(c.field, INFINITY.to_json()).is_infinity
    assert Curve.from_json(c.to_json()) == c


def test_point_from_json_reads_inf_as_a_json_bool():
    # only true means infinity; false or no "inf" reads x and y; anything else is malformed
    f = Fp(1511)
    assert Point.from_json(f, {"inf": True}).is_infinity
    assert Point.from_json(f, {"inf": False, "x": "129", "y": "526"}) == Point(f(129), f(526))
    assert Point.from_json(f, {"x": 129, "y": 526}) == Point(f(129), f(526))
    for bad in ("false", "true", 1, 0, None):
        with pytest.raises(ValueError):
            Point.from_json(f, {"inf": bad, "x": "129", "y": "526"})


def test_from_json_reads_integer_fields_exactly():
    # every from_json takes a JSON int or a decimal string, and rejects a float,
    # an infinite number and a bool instead of truncating or coercing them
    f = Fp(1511)
    readers = [
        (lambda v: Curve.from_json({"p": v, "A": 1301, "B": 497}), 1511, Curve(f, 1301, 497)),
        (lambda v: Curve.from_json({"p": "1511", "A": v, "B": "497"}), 1301, Curve(f, 1301, 497)),
        (lambda v: Point.from_json(f, {"x": v, "y": 526}), 129, Point(f(129), f(526))),
        (lambda v: PairingValue.from_json(f, {"one_plus_eps_times": v}), 9, PairingValue(f(9))),
    ]
    for read, good, expected in readers:
        assert read(good) == expected
        assert read(str(good)) == expected
        for bad in (float(good), good + 0.9, float("inf"), True, None, [good]):
            with pytest.raises(ValueError):
                read(bad)
