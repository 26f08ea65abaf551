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

Each (P, chain) is walked once, on plain ints: `chain_trace` adds in
Jacobian coordinates (`curve.jacobian_add`, through `step_lines`), which
gives every step's sum and the numerator of its one slope without an
inversion, then inverts every Z of the walk in one batch (Montgomery's
trick, `numbertheory.batch_inverse`) to read off the affine multiples,
the slopes and the lines.  Every evaluation and retry is a memoized fold
over that trace, whose end point nP is the n-torsion check.  A fold of
f_P carries the numerator and denominator products of the line values
and divides once.  The same trace drives the classical Weil pairing

    e_n(P, Q) = f_P(D_Q) / f_Q(D_P)

for gcd(n, p) = 1, with D_P = (P+T1) - (T1) and D_Q = (Q+T2) - (T2) chosen
to have disjoint support (re-randomized on degenerate evaluations).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .curve import INFINITY, JACOBIAN_INFINITY, Curve, Point, jacobian_add
from .errors import BadTorsionError, DegenerateEvaluationError
from .fields import Fp, FpElement
from .dual_curve import DualCurve, DualPoint
from .numbertheory import batch_inverse


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
    """The function y - m*x - b (ints in a chain trace, FpElements from `line_through`)."""

    m: int | FpElement
    b: int | FpElement


class Vertical(NamedTuple):
    """The function x - c."""

    c: int | FpElement


def line_through(curve: Curve, P: Point, Q: Point):
    """The line through two affine points (tangent when they coincide).

    One inversion on FpElement wrappers: the affine reference for the lines
    of `chain_trace`.
    """
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
    """Evaluate at coordinates from F_p or F_p[eps], or at ints (unreduced)."""
    if isinstance(line, Vertical):
        return x - line.c
    return y - line.m * x - line.b


def step_lines(p: int, a: int, Pi: tuple, Pj: tuple) -> tuple:
    """(Pi + Pj, N) for one chain step on Jacobian int triples.

    N is the numerator of the step's one slope N/Z(Pi + Pj), or None when
    the step has no chord: an operand or the sum is infinity.  The lines
    of h_{i,j} are read off once the walk's Z's are inverted.  Every walk
    calls this once per step, through the module global, so that the
    benchmark's tracer (`perfbench/tracing.py`) can count chain steps.
    """
    return jacobian_add(p, a, Pi, Pj)


# -- the chain trace ------------------------------------------------------------


class ChainTrace(NamedTuple):
    """One walk of an addition chain, on plain ints mod p."""

    steps: list  # (k, i, j, lines of h_{i,j}) in chain order, lines with int coefficients
    affine: dict  # k -> (x, y) of kP, or None for infinity
    field: Fp

    @property
    def points(self) -> dict:
        """k -> kP as Points."""
        f = self.field
        return {k: INFINITY if xy is None else Point(f(xy[0]), f(xy[1])) for k, xy in self.affine.items()}


def _walk(curve: Curve, start: dict, chain: list[ChainStep]) -> ChainTrace:
    """Walk the chain from start = {multiple: Point} in Jacobian coordinates.

    One batch inversion of every Z then gives the affine multiples and the
    slopes m_k = N_k/Z_k, from which each step's lines are built.
    """
    p, a = curve.p, curve.A.value
    jac = {k: JACOBIAN_INFINITY if P.is_infinity else (P.x.value, P.y.value, 1) for k, P in start.items()}
    nums = []
    for k, i, j in chain:
        jac[k], N = step_lines(p, a, jac[i], jac[j])
        nums.append(N)
    finite = [k for k, J in jac.items() if J[2]]
    zinv = dict(zip(finite, batch_inverse([jac[k][2] for k in finite], p)))
    affine = dict.fromkeys(jac)
    for k, zi in zinv.items():
        X, Y, _ = jac[k]
        zi2 = zi * zi % p
        affine[k] = (X * zi2 % p, Y * zi2 * zi % p)
    steps = []
    for (k, i, j), N in zip(chain, nums):
        Pi, Pj = affine[i], affine[j]
        if Pi is None or Pj is None:
            lines = None
        elif N is None:
            lines = (Vertical(Pi[0]), None)
        else:
            m = N * zinv[k] % p
            lines = (Chord(m, (Pi[1] - m * Pi[0]) % p), Vertical(affine[k][0]))
        steps.append((k, i, j, lines))
    return ChainTrace(steps, affine, curve.field)


def chain_trace(curve: Curve, P: Point, chain: list[ChainStep]) -> ChainTrace:
    """Walk the chain from P once, one slope per step; P is not validated.

    The lines are all that any evaluation needs, and affine[n] is nP.
    """
    return _walk(curve, {1: P}, chain)


def torsion_trace(curve: Curve, P: Point, chain: list[ChainStep], n: int) -> ChainTrace:
    """P's trace along a chain for n; raises unless P is n-torsion on the curve."""
    curve._require_on_curve(P)
    trace = chain_trace(curve, P, chain)
    if trace.affine[n] is not None:
        raise BadTorsionError(f"{P} is not {n}-torsion")
    return trace


def fold_trace(trace: ChainTrace, n: int, unit, op, values: list):
    """Memoized val(k) = op(op(val(i), val(j)), value of step k); returns val(n).

    `values` runs parallel to trace.steps; the walk's start points fold to `unit`.
    """
    vals = dict.fromkeys(trace.affine, unit)
    for (k, i, j, _), v in zip(trace.steps, values):
        vals[k] = op(op(vals[i], vals[j]), v)
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


def line_value(line, x0: int, y0: int, x1: int, y1: int, p: int) -> tuple:
    """An int line at (x0 + x1*eps, y0 + y1*eps) as (re, eps); raises where re = 0."""
    re = eval_line(line, x0, y0) % p
    if not re:
        raise DegenerateEvaluationError(f"line {line} vanishes at the evaluation point")
    return re, (x1 if isinstance(line, Vertical) else y1 - line.m * x1) % p


def trace_fraction(curve: Curve, trace: ChainTrace, n: int, T: Point, at) -> tuple:
    """f_n(at) as (numerator, denominator) products, each an (re, eps) int pair.

    `at` is a Point of E (eps parts 0) or a DualPoint of the canonical
    lift; raises DegenerateEvaluationError where a line vanishes.
    """
    U = shift(curve, at, T)
    p = curve.p
    if isinstance(U, DualPoint):
        coords = U.x.re.value, U.y.re.value, U.x.eps.value, U.y.eps.value, p
    else:
        coords = U.x.value, U.y.value, 0, 0, p
    one = (1, 0)
    nums, dens = [], []
    for _, _, _, lines in trace.steps:
        num, den = lines or (None, None)
        nums.append(one if num is None else line_value(num, *coords))
        dens.append(one if den is None else line_value(den, *coords))

    def mul(u, v):
        return u[0] * v[0] % p, (u[0] * v[1] + u[1] * v[0]) % p

    return fold_trace(trace, n, one, mul, nums), fold_trace(trace, n, one, mul, dens)


def trace_value(curve: Curve, trace: ChainTrace, n: int, T: Point, at):
    """f_n(at) for the divisor n(P+T) - n(T), folded over P's trace.

    `at` may be a Point of E or a DualPoint of the canonical lift; the
    result is an FpElement or DualNumber accordingly, up to the constant.
    The numerator and denominator products are divided once.
    """
    (nr, ne), (dr, de) = trace_fraction(curve, trace, n, T, at)
    p = curve.p
    inv = pow(dr, -1, p)
    re = nr * inv % p
    if isinstance(at, DualPoint):
        return curve.field.dual(re, (ne - re * de) * inv)
    return curve.field(re)


def h_eval(curve: Curve, P: Point, i: int, j: int, T: Point, at):
    """The single cocycle value h_{i,j}(at) for (P+T) - (T); `at` as in `trace_value`."""
    trace = _walk(curve, {i: curve.mul(i, P), j: curve.mul(j, P)}, [ChainStep(i + j, i, j)])
    return trace_value(curve, trace, i + j, T, at)


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
