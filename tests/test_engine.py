"""The int chain engine against the affine wrapper reference.

`Curve._add_raw` and the affine lines of conftest (`line_through`, `eval_line`) work on
FpElement points with one inversion per step; they stay as the oracle for
the Jacobian walk of `miller.chain_trace`, for the line values that
`miller.scaled_step_values` reads projectively from it (checked through
`miller.step_values`, the scaled value over the scale it drops), and for
`Curve.mul`.
`DualCurve._add_raw` is the oracle for `DualCurve.mul`, the base walk plus
the slope sum.  The readings that the walk's own readings replaced stay in
conftest as oracles: the multiplicity-weighted slope sum (`weighted_slope_sum`)
for `miller.slope_sum`, folded along the walk; the multiplicity-weighted sum of
the step values' eps/re ratios (`weighted_ratio_sum`) for `miller.ratio_fold`,
semaev's sum folded along the walk; and each chord line read through iP
(`step_values_through_ip`) for `miller.step_values`, which reads it through -kP.
The trace walk of `binary_chain(n)` and its `miller.slope_sum` are the oracle for
`miller.slope_walk`, which folds the same sum inside the walk and keeps no trace; its
`scaled_step_values` folded by `miller.ratio_fold` and `miller.product_fold` are the oracle
for the walk's readings at an evaluation point, and the routes on a caller's chain, which
walk the trace, for the semaev and direct routes' values and errors on the default chain.
"""

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpair import INFINITY, Curve, DualCurve, Point, count_points
from dualpair import miller
from dualpair.curve import JACOBIAN_INFINITY, SQUARE_TABLE_FROM, jacobian_affine, jacobian_mul
from dualpair.errors import BadInputError, BadTorsionError, DegenerateEvaluationError, DualPairError, PointNotOnCurveError
from dualpair.fields import Fp
from dualpair.miller import (
    ChainStep,
    binary_chain,
    chain_for,
    chain_trace,
    eval_point,
    incremental_chain,
    product_fold,
    ratio_fold,
    scaled_step_values,
    slope_sum,
    slope_walk,
    step_values,
    tail_chain,
)
from dualpair.numbertheory import next_prime
from dualpair.pairing import pairing_direct, pairing_semaev, rueck_slope_sum, semaev_coefficient

from conftest import (
    Chord,
    Vertical,
    dual_double_and_add,
    eval_line,
    first_anomalous_by_scan,
    line_through,
    mul_below_2_32,
    order_by_steps,
    step_values_through_ip,
    trace_points,
    weighted_ratio_sum,
    weighted_slope_sum,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@st.composite
def curve_and_point(draw, primes=SMALL_PRIMES):
    """A curve over a small prime and any of its points, 2-torsion and infinity included."""
    p = draw(st.sampled_from(primes))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p)
    curve = Curve(Fp(p), a, b)
    points = list(curve.points())
    two_torsion = curve.two_torsion()
    P = draw(st.sampled_from(two_torsion)) if two_torsion and draw(st.booleans()) else draw(st.sampled_from(points))
    return curve, P


@st.composite
def chains(draw, p):
    """Binary, incremental or tail chains for n up to 3p, so small orders wrap around."""
    n = draw(st.integers(1, 3 * p))
    kind = draw(st.sampled_from(["binary", "incremental", "tail"]))
    if kind == "binary" or n == 1:
        return n, binary_chain(n)
    if kind == "incremental":
        return n, incremental_chain(n)
    return n, tail_chain(n, draw(st.integers(1, n - 1)))


def _reference_trace(curve, P, chain):
    """Multiples and lines from the affine wrapper group law, one step at a time."""
    points = {1: P}
    steps = []
    for k, i, j in chain:
        Pi, Pj = points[i], points[j]
        points[k] = curve._add_raw(Pi, Pj)
        if Pi.is_infinity or Pj.is_infinity:
            lines = None
        else:
            num = line_through(curve, Pi, Pj)
            lines = (num, None) if isinstance(num, Vertical) else (num, Vertical(points[k].x))
        steps.append((k, i, j, lines))
    return points, steps


def _check_trace(curve, P, chain) -> list:
    """Check P's trace against the reference: the multiples, each step's kind and
    slope N/Z_k, and each step's h from `step_values` at U + O_1 for every affine
    U of E, raising at the first step whose reference line vanishes there.
    Returns the step kinds ("Chord", "Vertical" or None for h = 1)."""
    trace = chain_trace(curve, P, chain)
    points, steps = _reference_trace(curve, P, chain)
    assert trace_points(trace) == points
    f = curve.field
    kinds = [None if lines is None else type(lines[0]).__name__ for *_, lines in steps]
    assert [(k, i, j) for k, i, j, _, _ in trace.steps] == [(k, i, j) for k, i, j, _ in steps]
    assert [N is not None for _, _, _, N, _ in trace.steps] == [kind == "Chord" for kind in kinds]
    slopes = [f(N) / f(trace.jac[k][2]) for k, _, _, N, _ in trace.steps if N is not None]
    assert slopes == [lines[0].m for *_, lines in steps if lines and isinstance(lines[0], Chord)]
    for U in curve.points():
        if U.is_infinity:
            continue
        x0, y0, x1, y1 = point = eval_point(curve.p, curve.A.value, (U.x.value, U.y.value), 1)
        x, y = f.dual(x0, x1), f.dual(y0, y1)
        expect, vanishing = [], None
        for k, i, j, lines in steps:
            values = [f.dual(1) if line is None else eval_line(line, x, y) for line in lines or (None, None)]
            if any(v.re.is_zero() for v in values):
                vanishing = (k, i, j)
                break
            expect.append(values[0] / values[1])
        if vanishing:
            with pytest.raises(DegenerateEvaluationError, match="line of step %d = %d \\+ %d " % vanishing):
                step_values(trace, point)
        else:
            assert [f.dual(*num) / f.dual(*den) for num, den in step_values(trace, point)] == expect
    return kinds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_chain_trace_matches_affine_reference(data):
    curve, P = data.draw(curve_and_point())
    n, chain = data.draw(chains(curve.p))
    _check_trace(curve, P, chain)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_window_chain_trace_matches_affine_reference(data):
    # from 2^32 on the default chain is the sliding window; on small curves its
    # table and walk wrap through O, with steps to infinity and equal summands
    curve, P = data.draw(curve_and_point())
    n = data.draw(st.integers(2**32, 2**48))
    _check_trace(curve, P, binary_chain(n))


def test_window_chain_trace_covers_every_step_kind():
    curve = Curve(Fp(7), 1, 0)  # 8 points, P of order 4
    P = next(X for X in curve.points() if order_by_steps(curve, X) == 4)
    assert set(_check_trace(curve, P, binary_chain(2**32 + 13))) == {"Chord", "Vertical", None}


def test_chain_trace_covers_equal_and_opposite_summands():
    # an incremental chain past the order of P adds iP to P with iP = P and iP = -P
    curve = Curve(Fp(7), 1, 0)  # 8 points, P of order 4
    P = next(X for X in curve.points() if order_by_steps(curve, X) == 4)
    assert set(_check_trace(curve, P, incremental_chain(10))) == {"Chord", "Vertical", None}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mul_matches_repeated_addition(data):
    curve, P = data.draw(curve_and_point())
    n = data.draw(st.integers(-3 * curve.p - 5, 3 * curve.p + 5))
    step = P if n >= 0 else curve.neg(P)
    expect = INFINITY
    for _ in range(abs(n)):
        expect = curve._add_raw(expect, step)
    assert curve.mul(n, P) == expect


def test_mul_zero_and_beyond_the_order():
    curve = Curve(Fp(1361), 3, 7)
    P = curve.random_point(random.Random(4))
    order = order_by_steps(curve, P)
    assert curve.mul(0, P) == INFINITY
    assert curve.mul(order, P) == INFINITY
    assert curve.mul(order + 5, P) == curve.mul(5, P)
    assert curve.mul(-(order + 5), P) == curve.neg(curve.mul(5, P))
    assert curve.mul(2**200 * order + 3, P) == curve.mul(3, P)


@st.composite
def lifted_point(draw, primes=SMALL_PRIMES):
    """A random lift of a curve (the canonical one half the time) and any point of it:
    over each base point, every one of the p points of the lift (lift(P) + O_k), the
    family O_k over infinity included."""
    curve, P = draw(curve_and_point(primes))
    p = curve.p
    canonical = draw(st.booleans())
    dc = DualCurve(curve, *(0, 0) if canonical else (draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))))
    return dc, dc.translate(dc.lift(P), dc.field(draw(st.integers(0, p - 1))))


def _repeated_dual_addition(dc, n, Pt):
    step = Pt if n >= 0 else dc.neg(Pt)
    expect = dc.lift(INFINITY)
    for _ in range(abs(n)):
        expect = dc._add_raw(expect, step)
    return expect


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_dual_mul_matches_repeated_addition(data):
    # small orders on non-anomalous curves put colliding reductions and doublings
    # over 2-torsion in the middle of the walk
    dc, Pt = data.draw(lifted_point())
    n = data.draw(st.integers(-3 * dc.p - 5, 3 * dc.p + 5))
    assert dc.mul(n, Pt) == _repeated_dual_addition(dc, n, Pt)


def test_dual_mul_far_beyond_the_group_order():
    curve = Curve(Fp(1361), 3, 7)
    rng = random.Random(5)
    dc = DualCurve(curve, 1000, 77)
    Pt = dc.translate(dc.lift(curve.random_point(rng)), dc.field(rng.randrange(1361)))
    order = count_points(curve)
    kernel = _repeated_dual_addition(dc, order, Pt)
    assert kernel.is_infinity and not kernel.k.is_zero()
    expect = dc.translate(_repeated_dual_addition(dc, 3, Pt), 2**200 * kernel.k)
    assert dc.mul(2**200 * order + 3, Pt) == expect


def _window_scalars(p):
    """Scalars at and past 2^32, where the 4-bit window starts: both signs, multiples of p."""
    return st.one_of(
        st.integers(2**32, 2**96),
        st.sampled_from([2**32, 2**32 + 1, 2**33 - 1, p << 40, p**20, 15 << 60, (1 << 64) - 1]),
    ).flatmap(lambda n: st.sampled_from([n, -n]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_window_mul_matches_multiples_below_2_32(data):
    # at p in {5, 7, 11, 13} the window's odd multiples and n*P hit infinity
    # (O_k on a lift) and 2-torsion; the lift's n*Pt is checked against
    # double-and-add on the reference law, as `DualCurve.mul` is a closed form
    dc, Pt = data.draw(lifted_point([5, 7, 11, 13]))
    curve, P = dc.base, Pt.reduction()
    n = data.draw(_window_scalars(dc.p))
    sign = 1 if n > 0 else -1
    assert curve.mul(n, P) == mul_below_2_32(curve.add, curve.mul, abs(n), curve.mul(sign, P), INFINITY)
    assert dc.mul(n, Pt) == dual_double_and_add(dc, abs(n), Pt if n > 0 else dc.neg(Pt))


# -- the readings of a walk against the readings they replaced ----------------------------------

DESK = Curve(Fp(1511), 1301, 497)
#: small non-anomalous curves with points of order 2, 3, 4, 6, 12 (#E = 12) and 2, 3, 6, 9, 18 (#E = 18)
SMALL_ORDERS = [Curve(Fp(7), 3, 1), Curve(Fp(13), 1, 1)]


def test_slope_sum_is_the_weighted_sum_on_every_chain(tiny_anomalous_all):
    # S(P) folded along the walk against the multiplicity-weighted sum, on the default, binary,
    # tail and incremental chains and on a caller's chain that walks on past p, P = O included
    for curve in [*tiny_anomalous_all, DESK]:
        p = curve.p
        past = binary_chain(p) + [ChainStep(p + 1, p, 1), ChainStep(2 * p + 1, p + 1, p)]
        chains = [chain_for(p, None).steps, binary_chain(p), tail_chain(p, 3), incremental_chain(p), past]
        for P in [INFINITY, *list(curve.points())[1:6]]:
            for chain in chains:
                trace = chain_trace(curve, P, chain)
                assert slope_sum(trace, p) == weighted_slope_sum(trace, p)
                assert rueck_slope_sum(curve, P, chain).value == (weighted_slope_sum(trace, p) if P != INFINITY else 0)


def test_slope_sum_past_the_order_of_p_is_the_weighted_sum():
    # walks past the order of P meet O, where the fold turns to plain fractions; an add of two
    # triples of one point doubles, and after O one triple stands at two multiples, so that the
    # walk doubles it with i != j (`P is Q` in `jacobian_add`); `DualCurve.mul` reads the sum
    seen = set()
    for curve in SMALL_ORDERS:
        dc = DualCurve(curve, 1, 0)  # off the scaling family, so that the slope sum shows in mul
        for P in curve.points():
            order = order_by_steps(curve, P)
            ns = [*range(1, 3 * order + 4), 2**32 + 7, 2**40 + 0xF7]
            walks = [(n, binary_chain(n)) for n in ns] + [(n, incremental_chain(n)) for n in range(1, 3 * order + 4)]
            for n, chain in walks:
                trace = chain_trace(curve, P, chain)
                assert slope_sum(trace, n) == weighted_slope_sum(trace, n), (curve, P, n, chain)
                for k, i, j, N, F in trace.steps:
                    seen.add("O" if N is None else "add doubles" if F is None else "chord")
                    if i != j and trace.jac[i] is trace.jac[j]:
                        seen.add("P is Q")
            if not P.is_infinity:
                Pt = dc.translate(dc.lift(P), dc.field(3))
                for n in ns:
                    assert dc.mul(n, Pt) == dual_double_and_add(dc, n, Pt), (curve, P, n)
    assert seen == {"chord", "O", "add doubles", "P is Q"}


def _engine(p: int) -> str:
    """The inline walk that `slope_walk` takes at p below 2^32: affine below `SQUARE_TABLE_FROM`."""
    return "affine" if p < miller.SQUARE_TABLE_FROM else "jacobian"


def _same_end(p, end, jac) -> None:
    """An inline walk's end nP against the trace's: on the Jacobian walk the exact triple (the
    same group operations in the same order), on the affine walk the affine point with Z = 1."""
    if _engine(p) == "jacobian":
        assert end == jac
    else:
        assert end == ((*jacobian_affine(p, jac), 1) if jac[2] else JACOBIAN_INFINITY)


def _slope_walk_matches_the_trace(curve, P, n) -> tuple:
    """Check `slope_walk`'s (nP, S_n) against `chain_trace` + `slope_sum` on `binary_chain(n)`, nP
    compared affine (a fallback at n = 5 and 7 walks the default chain, `tail_chain(n, 3)`), and
    as `_same_end` compares it where the walk takes a chord at every step or its last add lands
    on O; returns (engine, the walk's kind from the trace: "chords", "last add to O" or "fallback")."""
    p = curve.p
    trace = chain_trace(curve, P, binary_chain(n))
    end, s = slope_walk(curve, P, n)
    assert (jacobian_affine(p, end), s) == (jacobian_affine(p, trace.jac[n]), slope_sum(trace, n)), (curve, P, n)
    no_chord = [k for k, _, _, _, F in trace.steps if F is None]
    last = trace.steps[-1] if trace.steps else None
    kind = "chords" if not no_chord else "last add to O" if no_chord == [n] and last[1] != last[2] and not trace.jac[n][2] else "fallback"
    if kind != "fallback":
        _same_end(p, end, trace.jac[n])
    return _engine(p), kind


def _both_engines(monkeypatch, check) -> set:
    """check() as the affine walk runs it, then with `SQUARE_TABLE_FROM` lowered below every p, so
    that the Jacobian inline walk runs the same cases; the union of what the two runs saw."""
    seen = check()
    with monkeypatch.context() as m:
        m.setattr(miller, "SQUARE_TABLE_FROM", 5)
        return seen | check()


def test_slope_walk_is_the_trace_fold_at_every_point_of_small_curves(monkeypatch):
    # every affine P of the first anomalous curve of each p <= 31 and of the non-anomalous curves
    # with points of order 2, 3, 4, 6, 9, 12 and 18, for every n in [1, 3p]: walks that take a
    # chord at every step, walks whose last add lands on O, and walks that fall back to the trace,
    # on each engine
    curves = [first_anomalous_by_scan(p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)]

    def check():
        seen = set()
        for curve in [c for c in curves if c] + SMALL_ORDERS:
            for P in list(curve.points())[1:]:
                for n in range(1, 3 * curve.p + 1):
                    seen.add(_slope_walk_matches_the_trace(curve, P, n))
        return seen

    kinds = {"chords", "last add to O", "fallback"}
    assert _both_engines(monkeypatch, check) == {(engine, kind) for engine in ("affine", "jacobian") for kind in kinds}


def _prime_below_2_32(data) -> int:
    """A prime up to 2^32 - 5, the largest below 2^32, drawn near `SQUARE_TABLE_FROM` as often as
    anywhere, so that both inline walks run."""
    return next_prime(data.draw(st.one_of(st.integers(5, 2 * SQUARE_TABLE_FROM), st.integers(5, 2**32 - 5))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_slope_walk_is_the_trace_fold_below_2_32(data):
    # random curves and points at primes below 2^32, on both engines, and n < 2^32
    p = _prime_below_2_32(data)
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p)
    curve = Curve(Fp(p), a, b)
    P = curve.random_point(random.Random(data.draw(st.integers(0, 2**32))))
    _slope_walk_matches_the_trace(curve, P, data.draw(st.integers(1, 2**32 - 1)))


@pytest.mark.parametrize("curve", [Curve(Fp(5), 1, 1), Curve(Fp(7), 3, 1), Curve(Fp(1511), 1, 1)], ids=["p5", "p7", "desk"])
def test_rueck_slope_sum_raises_as_the_trace_walk_does(curve):
    # an off-curve P and a P that is not p-torsion (on these non-anomalous curves) raise the error
    # of the trace walk on the same default chain, given as a caller's chain, type and message
    p, f = curve.p, curve.field
    assert count_points(curve) != p
    on = [P for P in list(curve.points())[1:40] if not curve.mul(p, P).is_infinity]
    off = Point(on[0].x, on[0].y + f.one())
    for P, error in ((on[0], BadTorsionError), (on[-1], BadTorsionError), (off, PointNotOnCurveError)):
        with pytest.raises(error) as walked:
            rueck_slope_sum(curve, P, chain_for(p, None).steps)
        with pytest.raises(error, match=f"^{re.escape(str(walked.value))}$"):
            rueck_slope_sum(curve, P)
    with pytest.raises(BadTorsionError, match=rf"^\({on[0].x}, {on[0].y}\) is not {p}-torsion$"):
        rueck_slope_sum(curve, on[0])


def _readings_walk_matches_the_trace(curve, P, n, point) -> str:
    """Check `slope_walk`'s two folds at an `eval_point` tuple against `chain_trace` +
    `scaled_step_values` + `ratio_fold` and `product_fold` on `binary_chain(n)`, with its end nP
    as `_same_end` compares it; returns the walk's kind from the trace: "chords", "last add to
    O", or where the walk returns None, "no chord" (a step without a chord before the last) or
    "vanishes" (a reading at the point is 0)."""
    p = curve.p
    trace = chain_trace(curve, P, binary_chain(n))
    walked = [slope_walk(curve, P, n, point, product) for product in (False, True)]
    no_chord = [k for k, _, _, _, F in trace.steps if F is None]
    last = trace.steps[-1] if trace.steps else None
    to_o = no_chord == [n] and last[1] != last[2] and not trace.jac[n][2]
    try:
        values = scaled_step_values(trace, point)
    except DegenerateEvaluationError:
        values = None
    if (no_chord and not to_o) or values is None:
        assert walked == [None, None], (curve, P, n, point)
        return "no chord" if no_chord and not to_o else "vanishes"
    fr, fe = product_fold(trace, n, values)
    c = ratio_fold(trace, n, values) if trace.steps else 0  # n = 1: no step, the start's sum 0
    assert [value for _, value in walked] == [c, fe * pow(fr, -1, p) % p], (curve, P, n, point)
    for end, _ in walked:
        _same_end(p, end, trace.jac[n])
    return "last add to O" if to_o else "chords"


def test_slope_walk_readings_are_the_trace_folds_at_every_point_of_small_curves(monkeypatch):
    # every affine P of the first anomalous curve of each 11 <= p <= 31 and of the non-anomalous
    # curves with points of order 2, 3, 4, 6, 9, 12 and 18, for every n in [1, 3p], each at U + O_k
    # for another affine U and k that move with n; at n = p also at the routes' point sP + O_k for
    # several k, where every walk of an anomalous curve takes the inline folds, and the public
    # routes there equal their trace routes on the same chain, given as a caller's chain; on each engine
    anomalous = [first_anomalous_by_scan(p) for p in (11, 13, 17, 19, 23, 29, 31)]

    def check():
        seen, routed = set(), 0
        for curve in [c for c in anomalous if c] + SMALL_ORDERS:
            p, a = curve.p, curve.A.value
            affine = list(curve.points())[1:]
            for index, P in enumerate(affine):
                for n in range(1, 3 * curve.p + 1):
                    U = affine[(index + n) % len(affine)]
                    kind = _readings_walk_matches_the_trace(curve, P, n, eval_point(p, a, (U.x.value, U.y.value), n % p))
                    seen.add((_engine(p), kind))
            if count_points(curve) != p:
                continue
            dc, chain = DualCurve.canonical(curve), chain_for(p, None)
            for P in affine:
                S = curve.mul(chain.s, P)
                for k in (1, 2, p - 1):
                    point = eval_point(p, a, (S.x.value, S.y.value), k)
                    assert _readings_walk_matches_the_trace(curve, P, p, point) == "last add to O"
                    assert pairing_direct(dc, P, k) == pairing_direct(dc, P, k, chain=chain.steps)
                    routed += 1
                assert semaev_coefficient(curve, P) == semaev_coefficient(curve, P, chain=chain.steps)
                assert slope_walk(curve, P, 2**32 + 7, point) is None  # from WINDOW_FROM on the caller walks the trace
        assert routed
        return seen

    kinds = {"chords", "last add to O", "no chord", "vanishes"}
    assert _both_engines(monkeypatch, check) == {(engine, kind) for engine in ("affine", "jacobian") for kind in kinds}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_slope_walk_readings_are_the_trace_folds_below_2_32(data):
    # random curves, points and evaluation points U + O_k at primes below 2^32, on both engines, and n < 2^32
    p = _prime_below_2_32(data)
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p)
    curve = Curve(Fp(p), a, b)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    P, U = curve.random_point(rng), curve.random_point(rng)
    assume(not U.is_infinity)
    point = eval_point(p, a, (U.x.value, U.y.value), data.draw(st.integers(0, p - 1)))
    _readings_walk_matches_the_trace(curve, P, data.draw(st.integers(1, 2**32 - 1)), point)


#: anomalous curves on each side of `SQUARE_TABLE_FROM`: (p, A, B, P, Q), Q = 12345*P
BOUNDARY_ANOMALOUS = [(19867, 12175, 6241, (4402, 13004), (7212, 3972)), (20879, 19615, 13691, (2067, 1018), (16305, 20071))]


@pytest.mark.parametrize("p", [19997, 20011])
def test_the_walks_agree_across_the_memo_bound(p):
    # at the primes either side of SQUARE_TABLE_FROM, one walk per engine: slope_walk's S_n and
    # both readings against the trace folds, and Curve._mul_raw against jacobian_mul, on random
    # curves, points and scalars (n = p among them, a walk past the order of P on no anomalous
    # curve), and on the anomalous curve on the same side, where n = p ends at O
    assert _engine(p) == ("affine" if p < SQUARE_TABLE_FROM else "jacobian")
    rng = random.Random(p)
    curves = []
    while len(curves) < 4:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p:
            curves.append(Curve(Fp(p), a, b))
    kinds = set()
    for curve in curves:
        for _ in range(4):
            P, U = curve.random_point(rng), curve.random_point(rng)
            point = eval_point(p, curve.A.value, (U.x.value, U.y.value), rng.randrange(1, p))
            for n in (p, rng.randrange(1, p), rng.randrange(p, 2**32)):
                kinds.add(_slope_walk_matches_the_trace(curve, P, n))
                _readings_walk_matches_the_trace(curve, P, n, point)
                xy = jacobian_affine(p, jacobian_mul(p, curve.A.value, n, (P.x.value, P.y.value, 1)))
                assert curve._mul_raw(n, P) == (INFINITY if xy is None else curve.point(*xy))
    for q, a, b, G, Q in BOUNDARY_ANOMALOUS:
        if (q < SQUARE_TABLE_FROM) != (p < SQUARE_TABLE_FROM):
            continue
        curve = Curve(Fp(q), a, b)
        P, point = curve.point(*G), eval_point(q, a, Q, 1)
        kinds.add(_slope_walk_matches_the_trace(curve, P, q))
        assert _readings_walk_matches_the_trace(curve, P, q, point) == "last add to O"
        assert curve._mul_raw(q, P) == INFINITY and curve._mul_raw(12345, P) == curve.point(*Q)
    assert {(_engine(p), "chords"), (_engine(p), "last add to O")} <= kinds


def _raised(call) -> tuple:
    """(type, message) of the DualPairError that call raises."""
    with pytest.raises(DualPairError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("p", [5, 7, 1511])
def test_the_routes_raise_as_the_trace_routes_do(p):
    # each bad input, and each input bad two ways, raises in semaev_coefficient, pairing_semaev and
    # pairing_direct (k = 3 and 0) the type and message that the same call raises on the default
    # chain given as a caller's chain, which walks the trace; on an anomalous curve and on
    # non-anomalous ones, where P is not p-torsion, and at p = 1511 with sP = O for s = 3
    anomalous = DESK if p == 1511 else first_anomalous_by_scan(p)
    others = [Curve(Fp(p), *ab) for ab in {5: [(1, 1)], 7: [(3, 1)], 1511: [(1, 1), (0, 4)]}[p]]
    steps = chain_for(p, None).steps
    seen = []
    for curve in [anomalous, *others]:
        f, dc = curve.field, DualCurve.canonical(curve)
        affine = list(curve.points())[1:]
        G, T = affine[0], affine[-1]
        off = Point(G.x, G.y + f.one())
        two = next((X for X in affine if X.y.is_zero()), None)
        cases = [dict(P=off), dict(P=G), dict(P=two), dict(P=G, T=off), dict(P=off, R=T), dict(P=G, R=INFINITY),
                 dict(P=G, R=two), dict(P=INFINITY, R=G), dict(P=INFINITY, T=off)]
        for kw in cases:
            if None in kw.values():  # no 2-torsion point
                continue
            P = kw.pop("P")
            for route, args in ((semaev_coefficient, (curve, P)), (pairing_semaev, (dc, P, 3)),
                                (pairing_direct, (dc, P, 3)), (pairing_direct, (dc, P, 0))):
                try:
                    route(*args, chain=steps, **kw)
                except DualPairError:
                    want = _raised(lambda: route(*args, chain=steps, **kw))
                    assert _raised(lambda: route(*args, **kw)) == want, (curve, P, kw, route)
                    seen.append(want[0])
                else:
                    assert route(*args, **kw) == route(*args, chain=steps, **kw)
    assert {PointNotOnCurveError, BadInputError, BadTorsionError} <= set(seen)
    if p == 1511:  # (0, 2) has order 3 on y^2 = x^3 + 4, and s = 3
        curve = others[-1]
        P = curve.point(0, 2)
        assert chain_for(p, None).s == 3 and curve.mul(3, P).is_infinity
        assert _raised(lambda: semaev_coefficient(curve, P)) == (BadTorsionError, "(0, 2) is not 1511-torsion")


def test_ratio_fold_is_the_weighted_sum_on_every_chain(tiny_anomalous_all):
    # semaev's sum folded along the walk against the multiplicity-weighted sum of the same scaled
    # step values, on the default, binary, tail and incremental chains and on a caller's chain
    # that walks on past p, P = O included, at U + O_1 for every affine U where no line vanishes
    # (on the desk curve's 1,510-step incremental chain, for every 30th U).  On the small curves
    # every affine point is walked, and each sum is also taken at every multiple k of the walk,
    # where the start points' sum 0 shows: a start sum of 1 adds k, which is 0 mod p at k = p
    folded, skipped = 0, 0
    for curve in [*tiny_anomalous_all, DESK]:
        p, a, desk = curve.p, curve.A.value, curve is DESK
        past = binary_chain(p) + [ChainStep(p + 1, p, 1), ChainStep(2 * p + 1, p + 1, p)]
        chains = [chain_for(p, None).steps, binary_chain(p), tail_chain(p, 3), incremental_chain(p), past]
        affine = list(curve.points())[1:]
        for P in [INFINITY, *(affine[:2] if desk else affine)]:
            for chain in chains:
                trace = chain_trace(curve, P, chain)
                ns = [p] if desk else [k for k, _, _ in chain]
                for U in affine[:: 30 if desk and len(chain) > 100 else 1]:
                    try:
                        values = scaled_step_values(trace, eval_point(p, a, (U.x.value, U.y.value), 1))
                    except DegenerateEvaluationError:
                        skipped += 1
                        continue
                    for n in ns:
                        assert ratio_fold(trace, n, values) == weighted_ratio_sum(trace, n, values), (curve, P, U, n)
                        folded += 1
    assert folded > skipped > 0


def test_step_values_are_the_through_ip_reading_at_every_affine_point(tiny_anomalous_all):
    # each chord line read through -kP against the same line read through iP, as exact
    # fractions in F_p[eps], at U + O_k for every affine U, on every walk of every point
    # along several chains; where a line vanishes both raise at the same step
    read, raised = 0, 0
    for curve in [*tiny_anomalous_all, Curve(Fp(5), 3, 0)]:
        p, a, f = curve.p, curve.A.value, curve.field
        chains = [chain_for(p, None).steps, incremental_chain(p), binary_chain(2 * p + 1)]
        affine = [U for U in curve.points() if not U.is_infinity]
        for P in curve.points():
            for chain in chains:
                trace = chain_trace(curve, P, chain)
                for U in affine:
                    for k in (1, 3):
                        point = eval_point(p, a, (U.x.value, U.y.value), k)
                        try:
                            expect = [f.dual(*num) / f.dual(*den) for num, den in step_values_through_ip(trace, point)]
                        except DegenerateEvaluationError as exc:
                            with pytest.raises(DegenerateEvaluationError, match=re.escape(str(exc))):
                                step_values(trace, point)
                            raised += 1
                            continue
                        assert [f.dual(*num) / f.dual(*den) for num, den in step_values(trace, point)] == expect
                        read += 1
    assert read and raised
