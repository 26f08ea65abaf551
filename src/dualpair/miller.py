"""Addition chains, line functions, and Miller-style function evaluation.

For an n-torsion point P and an auxiliary point T, let f_k be the function
with divisor k(P+T) - k(T) - (kP+T) + (T).  Then f_1 is constant and

    f_{i+j} = f_i * f_j * h_{i,j},

where h_{i,j} is a ratio of translated lines through multiples of P:
writing l_{i,j} for the line through iP and jP, v_i for the vertical line
through iP, and tau for translation by -T,

    h_{i,j} = (l_{i,j} / v_{i+j}) o tau       when (i+j)P != infinity,
    h_{i,j} = v_i o tau                       when (i+j)P  = infinity,
    h_{i,j} = 1                               when iP or jP = infinity.

Walking an addition chain for n therefore evaluates f_n = f_P as a product
of n-1 line-ratio contributions; a binary chain keeps the number of
distinct contributions O(log n).  Functions are used only inside ratios,
so the normalizing constant of f_P never needs to be materialized.

Each (P, chain) is walked once: `chain_trace` gets every step's sum and
lines from one slope.  Every evaluation and retry is a memoized fold over
that trace, whose end point nP is the n-torsion check.  The same trace
drives the classical Weil pairing

    e_n(P, Q) = f_P(D_Q) / f_Q(D_P)

for gcd(n, p) = 1, with D_P = (P+T1) - (T1) and D_Q = (Q+T2) - (T2) chosen
to have disjoint support (re-randomized on degenerate evaluations).
"""

from __future__ import annotations

import operator
import random
from typing import NamedTuple

from .curve import INFINITY, Curve, Point
from .errors import BadTorsionError, DegenerateEvaluationError
from .fields import FpElement
from .dual_curve import DualCurve, DualPoint


class ChainStep(NamedTuple):
    """One step k = i + j of an addition-chain decomposition."""

    k: int
    i: int
    j: int


def binary_chain(n: int) -> list[ChainStep]:
    """Powers of two up to n's top bit, then set bits summed high to low.

    For n = 11 this yields the chain on {1, 2, 4, 8, 10, 11}.
    """
    if n < 1:
        raise ValueError("chains exist for n >= 1")
    steps = []
    power = 1
    while 2 * power <= n:
        steps.append(ChainStep(2 * power, power, power))
        power *= 2
    bits = [1 << b for b in range(n.bit_length()) if n >> b & 1]
    acc = bits.pop()
    while bits:
        b = bits.pop()
        steps.append(ChainStep(acc + b, acc, b))
        acc += b
    return steps


def incremental_chain(n: int) -> list[ChainStep]:
    """The naive chain 1, 2, 3, ..., n (n - 1 distinct steps)."""
    if n < 1:
        raise ValueError("chains exist for n >= 1")
    return [ChainStep(k, k - 1, 1) for k in range(2, n + 1)]


def tail_chain(n: int, c: int) -> list[ChainStep]:
    """A binary chain for n - c glued to an incremental chain for c.

    Varying c shifts which multiples of P show up in the line functions,
    which is how degenerate evaluations are dodged at very small p.
    """
    if not 1 <= c < n:
        raise ValueError("need 1 <= c < n")
    if c == 1:
        return binary_chain(n)
    steps = [ChainStep(k, k - 1, 1) for k in range(2, c + 1)]
    defined = {1} | {s.k for s in steps}
    if n - c not in defined:
        for s in binary_chain(n - c):
            if s.k not in defined:
                steps.append(s)
                defined.add(s.k)
    steps.append(ChainStep(n, n - c, c))
    return steps


def validate_chain(n: int, chain: list[ChainStep]) -> None:
    defined = {1}
    for k, i, j in chain:
        if i + j != k or i not in defined or j not in defined or k in defined:
            raise ValueError(f"invalid chain step {k} = {i} + {j}")
        defined.add(k)
    if n not in defined:
        raise ValueError(f"chain never reaches {n}")


def step_multiplicities(n: int, chain: list[ChainStep]) -> dict[int, int]:
    """How many times each step's contribution occurs in the unrolled product."""
    need = {n: 1}
    for k, i, j in reversed(chain):
        c = need.get(k, 0)
        if c:
            need[i] = need.get(i, 0) + c
            need[j] = need.get(j, 0) + c
    return {s.k: need.get(s.k, 0) for s in chain}


def unrolled_step_count(n: int, chain: list[ChainStep]) -> int:
    """Total multiplicity-weighted contributions; always n - 1."""
    return sum(step_multiplicities(n, chain).values())


# -- line functions -----------------------------------------------------------


class Chord(NamedTuple):
    """The function y - m*x - b."""

    m: FpElement
    b: FpElement


class Vertical(NamedTuple):
    """The function x - c."""

    c: FpElement


def line_through(curve: Curve, P: Point, Q: Point):
    """The line through two affine points (tangent when they coincide)."""
    if P.is_infinity or Q.is_infinity:
        raise ValueError("lines through infinity are handled by the step rules")
    if P == Q:
        if P.y.is_zero():
            return Vertical(P.x)
        m = (3 * P.x**2 + curve.A) / (2 * P.y)
    elif P.x == Q.x:
        return Vertical(P.x)
    else:
        m = (Q.y - P.y) / (Q.x - P.x)
    return Chord(m, P.y - m * P.x)


def eval_line(line, x, y):
    """Evaluate at coordinates from F_p or F_p[eps]."""
    if isinstance(line, Vertical):
        return x - line.c
    return y - line.m * x - line.b


def step_lines(curve: Curve, Pi: Point, Pj: Point):
    """(Pi + Pj, lines of h_{i,j}), both from the step's one slope.

    The lines are (numerator, denominator), or None when h is constant 1;
    only the pure-vertical case (i+j)P = infinity has no denominator.
    """
    if Pi.is_infinity or Pj.is_infinity:
        return curve._add_raw(Pi, Pj), None
    num = line_through(curve, Pi, Pj)
    if isinstance(num, Vertical):
        return INFINITY, (num, None)
    x = num.m**2 - Pi.x - Pj.x
    return Point(x, -(num.m * x + num.b)), (num, Vertical(x))


# -- the chain trace ------------------------------------------------------------


class ChainTrace(NamedTuple):
    """One walk of an addition chain from P."""

    steps: list  # (k, i, j, lines of h_{i,j}) in chain order
    points: dict  # k -> kP for k = 1 and every k the chain defines


def chain_trace(curve: Curve, P: Point, chain: list[ChainStep]) -> ChainTrace:
    """Walk the chain from P once, one slope per step; P is not validated.

    The lines are all that any evaluation needs, and points[n] = nP.
    """
    points = {1: P}
    steps = []
    for k, i, j in chain:
        points[k], lines = step_lines(curve, points[i], points[j])
        steps.append((k, i, j, lines))
    return ChainTrace(steps, points)


def torsion_trace(curve: Curve, P: Point, chain: list[ChainStep], n: int) -> ChainTrace:
    """P's trace along a chain for n; raises unless P is n-torsion on the curve."""
    curve._require_on_curve(P)
    trace = chain_trace(curve, P, chain)
    if not trace.points[n].is_infinity:
        raise BadTorsionError(f"{P} is not {n}-torsion")
    return trace


def fold_trace(trace: ChainTrace, n: int, unit, op, value):
    """Memoized val(k) = op(op(val(i), val(j)), value(lines)); returns val(n)."""
    vals = {1: unit}
    for k, i, j, lines in trace.steps:
        vals[k] = op(op(vals[i], vals[j]), value(lines))
    return vals[n]


# -- evaluation ---------------------------------------------------------------


def shift(curve: Curve, at, T: Point):
    """Translate the evaluation point by -T (tau), in E or in the lift."""
    if isinstance(at, DualPoint):
        dc = DualCurve.canonical(curve)
        out = dc._add_raw(at, dc.neg(dc.embed(T)))
    else:
        out = curve._add_raw(at, curve.neg(T))
    if out.is_infinity:
        raise DegenerateEvaluationError("evaluation point translated to infinity")
    return out


def eval_nonzero(line, U):
    """line(U) for a Point or DualPoint U; raises where it vanishes (mod eps)."""
    v = eval_line(line, U.x, U.y)
    if (v if isinstance(v, FpElement) else v.re).is_zero():
        raise DegenerateEvaluationError(f"line {line} vanishes at the evaluation point")
    return v


def _eval_h(curve: Curve, lines, U):
    """h at a translated point U (Point or DualPoint); raises on degeneracy."""
    if lines is None:
        return curve.field.one() if isinstance(U, Point) else curve.field.dual(1)
    num, den = lines
    nv = eval_nonzero(num, U)
    return nv if den is None else nv / eval_nonzero(den, U)


def trace_value(curve: Curve, trace: ChainTrace, n: int, T: Point, at):
    """f_n(at) for the divisor n(P+T) - n(T), folded over P's trace.

    `at` may be a Point of E or a DualPoint of the canonical lift; the
    result is an FpElement or DualNumber accordingly, up to the constant.
    """
    U = shift(curve, at, T)
    unit = curve.field.dual(1) if isinstance(at, DualPoint) else curve.field.one()
    return fold_trace(trace, n, unit, operator.mul, lambda lines: _eval_h(curve, lines, U))


def h_eval(curve: Curve, P: Point, i: int, j: int, T: Point, at):
    """The single cocycle value h_{i,j}(at) for (P+T) - (T); `at` as in `trace_value`."""
    _, lines = step_lines(curve, curve.mul(i, P), curve.mul(j, P))
    return _eval_h(curve, lines, shift(curve, at, T))


def miller_eval(curve: Curve, P: Point, n: int, T: Point, at, chain=None):
    """f_P(at) for the divisor n(P+T) - n(T), up to the global constant."""
    chain = chain if chain is not None else binary_chain(n)
    return trace_value(curve, chain_trace(curve, P, chain), n, T, at)


def weil_pairing(curve: Curve, n: int, P: Point, Q: Point, rng=None, chain=None) -> FpElement:
    """The Weil pairing e_n(P, Q) for gcd(n, p) = 1, as an n-th root of unity.

    Auxiliary translation points are drawn at random and re-drawn when an
    evaluation degenerates (a handful of bad choices among ~p points); the
    traces of P and Q are walked once and only the evaluation is redone.
    """
    if n < 1 or n % curve.p == 0:
        raise BadTorsionError("n must be positive and coprime to p")
    chain = chain if chain is not None else binary_chain(n)
    tp, tq = (torsion_trace(curve, X, chain, n) for X in (P, Q))
    if P.is_infinity or Q.is_infinity:
        return curve.field.one()
    rng = rng or random.Random(0x5EA1)
    last = None
    for _ in range(32):
        T1, T2 = curve.random_point(rng), curve.random_point(rng)
        try:
            qt2 = curve.add(Q, T2)
            pt1 = curve.add(P, T1)
            if len({pt1, T1, qt2, T2}) < 4 or qt2.is_infinity or pt1.is_infinity:
                raise DegenerateEvaluationError("divisor supports are not disjoint")
            f_p_top = trace_value(curve, tp, n, T1, qt2)
            f_p_bot = trace_value(curve, tp, n, T1, T2)
            f_q_top = trace_value(curve, tq, n, T2, pt1)
            f_q_bot = trace_value(curve, tq, n, T2, T1)
            if f_p_bot.is_zero() or f_q_top.is_zero():
                raise DegenerateEvaluationError("zero denominator in pairing ratio")
            value = (f_p_top / f_p_bot) * (f_q_bot / f_q_top)
            if (value**n) != 1:
                raise DegenerateEvaluationError("support overlap corrupted the ratio")
            return value
        except DegenerateEvaluationError as exc:
            last = exc
    raise DegenerateEvaluationError(f"no good auxiliary points found: {last}")
