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
for `miller.slope_sum`, folded along the walk, and each chord line read
through iP (`step_values_through_ip`) for `miller.step_values`, which reads
it through -kP.
"""

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpair import INFINITY, Curve, DualCurve, count_points
from dualpair.errors import DegenerateEvaluationError
from dualpair.fields import Fp
from dualpair.miller import (
    ChainStep,
    binary_chain,
    chain_for,
    chain_trace,
    eval_point,
    incremental_chain,
    slope_sum,
    step_values,
    tail_chain,
)
from dualpair.pairing import rueck_slope_sum

from conftest import (
    Chord,
    Vertical,
    dual_double_and_add,
    eval_line,
    line_through,
    mul_below_2_32,
    order_by_steps,
    step_values_through_ip,
    trace_points,
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
