import math
import random

import pytest

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
    _certifies_anomalous,
    _kills,
    is_anomalous,
    jacobian_add,
    jacobian_affine,
    jacobian_double,
    jacobian_mul,
)
from dualpair.errors import (
    BadInputError,
    PointNotOnCurveError,
    SearchExhaustedError,
)
from dualpair.fields import Fp
from dualpair.numbertheory import legendre, next_prime, sqrt_mod

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
    # Fp.random's (through Curve.random_point, sign bit included), and the rng
    # state after each draw is theirs; an interpreter whose randrange drew
    # otherwise fails here
    import dualpair.curve as curve_module

    class Enough(Exception):
        pass

    trial, trials, drawn, xs = curve_module._kills_random_point, 12, [], []

    def record_trial(q, a, b, rng):
        if len(drawn) == 2 * trials:
            raise Enough
        drawn.append(("A, B", a, b, rng.getstate()))
        trial(q, a, b, rng)
        drawn.append(("x", xs.pop(), rng.getstate()))
        return False  # no find, so no `seen` skip, and the trials go on until Enough

    monkeypatch.setattr(curve_module, "_kills_random_point", record_trial)
    monkeypatch.setattr(curve_module, "_kills", lambda q, a, b, x: xs.append(x))
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
                    x = Curve(Fp(p), a, b).random_point(ref).x.value
                    expected.append(("x", x, ref.getstate()))
        assert len(drawn) == 2 * trials
        assert drawn == expected[: len(drawn)]


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
    # p = 5 (where #E = 10 also kills a 5-torsion point) falls back to the count.
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
    # classes: _kills is the discriminant reject, then p*(x, sqrt_mod(t)) = O
    seen = set()
    for p in (5, 7, 11, 13, 17, 19):
        f = Fp(p)
        for a in range(p):
            for b in range(p):
                d = (4 * a**3 + 27 * b * b) % p
                if d == 0:
                    continue
                c = Curve(f, a, b)
                square_d = legendre(-d, p) != -1
                for x in range(p):
                    y = sqrt_mod(x**3 + a * x + b, p)
                    if y is None:
                        continue
                    walked = c.mul(p, c.point(x, y)).is_infinity
                    assert _kills(p, a, b, x) == (square_d and walked), (p, a, b, x)
                    seen.add((square_d, y == 0, walked))
    # both classes, t = 0 in each, and a kill, which only a square discriminant
    # reaches (at p = 5 a non-square one kills on the walk, #E = 10, and is still rejected)
    assert {(True, True, False), (False, True, False), (True, False, True), (False, False, True)} <= seen


def test_search_takes_no_square_root(monkeypatch):
    import dualpair.fields
    import dualpair.numbertheory

    def no_roots(a, p):
        raise AssertionError("sqrt_mod called")

    for module in (dualpair.numbertheory, dualpair.fields):
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
    # make it meet the base; the inlined walk ends at the oracle's exact triple
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
    assert {2, 3, 4, 5, 6} <= orders
    assert seen == {"double", "double O", "double Y = 0", "add", "add to O", "add H = 0, r = 0", "add H = 0, r != 0"}
    assert jacobian_mul(5, 1, 2, (0, 0, 1)) == JACOBIAN_INFINITY  # a point of order 2 on y^2 = x^3 + x


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
