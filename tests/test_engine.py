"""The int chain engine against the affine wrapper reference.

`Curve._add_raw` and `miller.line_through` work on FpElement points with
one inversion per step; they stay as the oracle for the Jacobian walk of
`miller.chain_trace`, for `Curve.mul` and for `batch_inverse`.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpair import INFINITY, Curve
from dualpair.errors import DivisionByZeroError
from dualpair.fields import Fp
from dualpair.miller import (
    Vertical,
    binary_chain,
    chain_trace,
    incremental_chain,
    line_through,
    tail_chain,
)
from dualpair.numbertheory import batch_inverse

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@st.composite
def curve_and_point(draw):
    """A curve over a small prime and any of its points, 2-torsion and infinity included."""
    p = draw(st.sampled_from(SMALL_PRIMES))
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


def _plain(lines):
    if lines is None:
        return None
    return tuple(None if line is None else (type(line).__name__, *map(int, line)) for line in lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_chain_trace_matches_affine_reference(data):
    curve, P = data.draw(curve_and_point())
    n, chain = data.draw(chains(curve.p))
    trace = chain_trace(curve, P, chain)
    points, steps = _reference_trace(curve, P, chain)
    assert trace.points == points
    assert [(k, i, j, _plain(lines)) for k, i, j, lines in trace.steps] == [
        (k, i, j, _plain(lines)) for k, i, j, lines in steps
    ]


def test_chain_trace_covers_equal_and_opposite_summands():
    # an incremental chain past the order of P adds iP to P with iP = P and iP = -P
    curve = Curve(Fp(7), 1, 0)  # 8 points, P of order 4
    P = next(X for X in curve.points() if curve.order_of(X) == 4)
    chain = incremental_chain(10)
    trace = chain_trace(curve, P, chain)
    points, steps = _reference_trace(curve, P, chain)
    assert trace.points == points
    kinds = {_plain(lines)[0][0] if lines else None for *_, lines in trace.steps}
    assert kinds == {"Chord", "Vertical", None}
    assert [_plain(lines) for *_, lines in trace.steps] == [_plain(lines) for *_, lines in steps]


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
    order = curve.order_of(P)
    assert curve.mul(0, P) == INFINITY
    assert curve.mul(order, P) == INFINITY
    assert curve.mul(order + 5, P) == curve.mul(5, P)
    assert curve.mul(-(order + 5), P) == curve.neg(curve.mul(5, P))
    assert curve.mul(2**200 * order + 3, P) == curve.mul(3, P)


def test_batch_inverse_edges():
    assert batch_inverse([], 7) == []
    assert batch_inverse([3], 7) == [5]
    with pytest.raises(DivisionByZeroError):
        batch_inverse([2, 0, 3], 7)
    with pytest.raises(DivisionByZeroError):
        batch_inverse([0], 7)
    with pytest.raises(DivisionByZeroError):
        batch_inverse([4, 14], 7)  # zero mod p, not only 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_PRIMES + [2**127 - 1]), st.data())
def test_batch_inverse_matches_pow(p, data):
    values = data.draw(st.lists(st.integers(1, p - 1), max_size=12))
    assert batch_inverse(values, p) == [pow(v, -1, p) for v in values]
