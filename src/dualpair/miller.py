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
of n-1 line-ratio contributions; the default chain (`binary_chain`, the
walk of `curve.window_digits`) keeps the number of distinct contributions
O(log n).  Functions are used only inside ratios, so the normalizing
constant of f_P never needs to be materialized: every ratio of its values,
so every pairing value, is the same on any chain for n.

Every reader of a chain reads one record of it, `Chain(steps,
multiplicities, s)` (`chain_for`): the steps; each step's multiplicity in
the unrolled product, which weights semaev's sum of step ratios
(`weighted_sum`); and s, the first multiple of a point of order n on no
line of the walk, where the routes evaluate.  The default chain's record is
built once per n and kept: `binary_chain(n)`'s, or at n = 5 and 7, where
that leaves no s, `tail_chain(n, 3)`'s.  A caller's chain is validated and
gets its record per call.  Each (P, chain) is walked once, on plain ints:
`chain_trace` adds in Jacobian coordinates (`step_lines`), inverts nothing,
and records the multiples and each step's slope numerator N and Z ratio F;
its end point nP is the n-torsion check.  Rueck's slope sum, which rueck
and `DualCurve.mul` read, is folded along that record as the walk went,
one product or three a step, and divided once (`slope_sum`).  The lines
are read from it in one place, projectively (`scaled_step_values`): each
chord line through the step's own multiple -kP, each h up to a factor in
F_p, which leaves every eps/re ratio alone, so the pairing routes read it
as it is; no multiple is ever made affine.
`trace_value` checks T and `at` once and turns at - T into an int tuple
(`eval_point`), where a memoized fold of the exact values (`step_values`,
read by the same reader) gives f_P with one division.
The same trace drives the Weil pairing

    e_n(P, Q) = f_P(D_Q) / f_Q(D_P)

for gcd(n, p) = 1, with D_P = (P+T1) - (T1) and D_Q = (Q+T2) - (T2) chosen
to have disjoint support (re-randomized on degenerate evaluations).
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from .curve import JACOBIAN_INFINITY, Curve, Point, jacobian_add, jacobian_affine, window_digits
from .errors import BadInputError, BadTorsionError, DegenerateEvaluationError
from .fields import Fp, FpElement


class ChainStep(NamedTuple):
    """One step k = i + j of an addition-chain decomposition."""

    k: int
    i: int
    j: int


def binary_chain(n: int) -> list[ChainStep]:
    """The default chain for n: the walk of `window_digits(n)`, step for step that of `jacobian_mul`.

    2 = 1 + 1 and d = (d - 2) + 2 for the odd digits d up to the largest,
    then a doubling per later digit and acc + d after each nonzero d; for
    n = 11 the chain on {1, 2, 4, 5, 10, 11}, and 309 steps for the tests'
    256-bit p.
    """
    if n < 1:
        raise ValueError("chains exist for n >= 1")
    digits = window_digits(n)
    steps = [ChainStep(2, 1, 1)] if n > 1 else []
    steps += [ChainStep(d, d - 2, 2) for d in range(3, max(digits) + 1, 2)]
    acc = digits[0]
    for d in digits[1:]:
        if acc > 1:  # 2 = 1 + 1 is already a step; no other multiple of the walk is in the table
            steps.append(ChainStep(2 * acc, acc, acc))
        acc *= 2
        if d:
            steps.append(ChainStep(acc + d, acc, d))
            acc += d
    return steps


def incremental_chain(n: int) -> list[ChainStep]:
    """The naive chain 1, 2, 3, ..., n (n - 1 distinct steps)."""
    if n < 1:
        raise ValueError("chains exist for n >= 1")
    return [ChainStep(k, k - 1, 1) for k in range(2, n + 1)]


def tail_chain(n: int, c: int) -> list[ChainStep]:
    """The default chain (`binary_chain`) for n - c glued to an incremental chain for c.

    Varying c shifts which multiples of P show up in the line functions:
    tail_chain(n, 3) is the default chain at n = 5 and 7, where `binary_chain`
    leaves no evaluation multiple.
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
    return {k: need.get(k, 0) for k, _, _ in chain}


def _evaluation_multiple(n: int, steps) -> int | None:
    """The smallest s in [1, n) with sP on no line of a walk of P, P of order n; None if there is none.

    Only multiples of P lie on the lines, and which ones follows from each
    step k = i + j with the indices mod n: a chord step's line meets E at
    iP, jP and -kP and its vertical at +-kP; a step to O is the vertical at
    +-iP; a step with an operand at O has no line.  `binary_chain(p)` leaves
    s = 3 or 4 for every prime 11 <= p < 2*10^5 and none at p = 5 and 7,
    where tail_chain(p, 3) leaves s = 4 and 6.
    """
    excluded = set()
    for k, i, j in steps:
        i, j, k = i % n, j % n, k % n
        if i and j:
            excluded.update((i, j, k, n - k) if k else (i, n - i))
    return next((s for s in range(1, n) if s not in excluded), None)


class Chain(NamedTuple):
    """A chain for n and what the walks of it read: the steps, each step's
    multiplicity in the unrolled product (`step_multiplicities`, in chain
    order), which weights semaev's sum, and the evaluation multiple s
    (`_evaluation_multiple`)."""

    steps: tuple | list
    multiplicities: tuple
    s: int | None


def _record(n: int, steps) -> Chain:
    mult = step_multiplicities(n, steps)
    return Chain(steps, tuple(mult[k] for k, _, _ in steps), _evaluation_multiple(n, steps))


@functools.lru_cache(maxsize=64)
def _default_chain(n: int) -> Chain:
    record = _record(n, tuple(binary_chain(n)))  # the module global, so that a wrapped `binary_chain` sees each miss
    if record.s is None and n > 3:  # n = 5 and 7, where tail_chain(n, 3) leaves s = 4 and 6
        record = _record(n, tuple(tail_chain(n, 3)))
    return record


def chain_for(n: int, chain) -> Chain:
    """The `Chain` record of a caller's chain for n, validated (BadInputError), or for
    None that of the default chain, built once per n and kept."""
    if chain is None:
        return _default_chain(n)
    try:
        validate_chain(n, chain)
    except (ValueError, TypeError) as exc:
        raise BadInputError(f"bad chain for n = {n}: {exc}") from None
    return _record(n, chain)


#: (Pi + Pj, N, F) for one chain step: N is the numerator of the step's slope N/Z(Pi + Pj), and
#: Z(Pi + Pj) is F*Z(Pi) for a doubling and F*Z(Pi)*Z(Pj) for an add; N and F are None when the step
#: has no chord, F alone for an add of two triples of one point.  Every walk calls it through this
#: module global, once per step, so that the benchmark's tracer (`perfbench/tracing.py`) can count
#: chain steps.
step_lines = jacobian_add


# -- the chain trace ------------------------------------------------------------


class ChainTrace(NamedTuple):
    """One walk of an addition chain, on plain ints mod p: the Jacobian multiples, slope numerators and Z ratios."""

    steps: list  # (k, i, j, N, F) in chain order, N and F from `step_lines`; the step's slope is N/Z(kP)
    jac: dict  # k -> kP as a Jacobian int triple, Z = 0 for infinity
    field: Fp


def _walk(curve: Curve, start: dict, chain: list[ChainStep]) -> ChainTrace:
    """Walk the chain from start = {multiple: Point} in Jacobian coordinates, inverting nothing."""
    p, a = curve.p, curve.A.value
    jac = {k: JACOBIAN_INFINITY if P.is_infinity else (P.x.value, P.y.value, 1) for k, P in start.items()}
    steps = []
    for k, i, j in chain:
        jac[k], N, F = step_lines(p, a, jac[i], jac[j])
        steps.append((k, i, j, N, F))
    return ChainTrace(steps, jac, curve.field)


def chain_trace(curve: Curve, P: Point, chain: list[ChainStep]) -> ChainTrace:
    """Walk the chain from P once, one slope numerator per step; P is not validated, jac[n] is nP."""
    return _walk(curve, {1: P}, chain)


def torsion_trace(curve: Curve, P: Point, chain: list[ChainStep], n: int) -> ChainTrace:
    """P's trace along a chain for n; raises unless P is n-torsion on the curve."""
    curve._require_on_curve(P)
    trace = chain_trace(curve, P, chain)
    if trace.jac[n][2]:
        raise BadTorsionError(f"{P} is not {n}-torsion")
    return trace


def weighted_sum(p: int, terms) -> int:
    """The sum of m*top/bottom over (m, top, bottom) terms mod p, every bottom nonzero: one running fraction, divided once.
    Semaev's sum of step ratios, weighted by `Chain.multiplicities`."""
    num, den = 0, 1
    for m, top, bottom in terms:
        if m:
            num, den = (num * bottom + m * top * den) % p, den * bottom % p
    return num * pow(den, -1, p) % p


def slope_sum(trace: ChainTrace, n: int) -> int:
    """S_n, the sum of the chord slopes N/Z_k that a walk takes on its way to n, each as often as
    the unrolled product for n takes it; S(P) at n = p.  One inversion, at n, which need not be
    the walk's last step: a caller's chain may walk past it.

    The sum is folded along the walk as S_k = S_i + S_j + N/Z_k, with no slope term where a step
    has no chord.  While the steps have F from `step_lines` (so Z_k = F*Z_i for a doubling and
    F*Z_i*Z_j for an add) the fold carries T_k = S_k*Z_k: a doubling is T_k = 2F*T_i + N, one
    product, and an add T_k = F*(T_i*Z_j + T_j*Z_i) + N, three.  From the first step without F,
    one that meets O or an add that takes the doubling branch, it carries plain fractions
    (`_slope_fractions`).
    """
    if n == 1:
        return 0
    p, jac = trace.field.p, trace.jac
    scaled, steps = {1: 0}, iter(trace.steps)
    for step in steps:
        k, i, j, N, F = step
        if F is None:
            return _slope_fractions(p, jac, scaled, n, step, steps)
        if i == j:
            t = (2 * F * scaled[i] + N) % p
        else:
            t = (F * (scaled[i] * jac[j][2] + scaled[j] * jac[i][2]) + N) % p
        if k == n:
            return t * pow(jac[k][2], -1, p) % p
        scaled[k] = t


def _slope_fractions(p: int, jac: dict, scaled: dict, n: int, step: tuple, steps) -> int:
    """`slope_sum`'s fold from `step` on, over the rest of the `steps` iterator, with each
    S_k as a fraction (num, den), den nonzero; a sum from before `step` is read as T_k/Z_k
    where a step reads it (Z = 0 only at a start point O, whose sum is 0)."""
    sums = {}
    for k, i, j, N, _ in (step, *steps):
        a, b = sums[i] if i in sums else (scaled[i], jac[i][2] or 1)
        c, d = sums[j] if j in sums else (scaled[j], jac[j][2] or 1)
        num, den = a * d + c * b, b * d % p
        if N is not None:
            Z = jac[k][2]
            num, den = num * Z + N * den, den * Z % p
        if k == n:
            return num * pow(den, -1, p) % p
        sums[k] = num % p, den


def product_fold(trace: ChainTrace, n: int, values: list) -> tuple:
    """f_n as the memoized product val(k) = val(i)*val(j)*(value of step k) of
    (re, eps) int pairs, `values` parallel to trace.steps and the walk's start
    points at 1, with a square for i = j: a doubling step costs five products
    instead of six."""
    p = trace.field.p
    vals = dict.fromkeys(trace.jac, (1, 0))
    for (k, i, j, _, _), (hr, he) in zip(trace.steps, values):
        ar, ae = vals[i]
        if i == j:
            r, e = ar * ar % p, 2 * ar * ae % p
        else:
            br, be = vals[j]
            r, e = ar * br % p, (ar * be + ae * br) % p
        vals[k] = r * hr % p, (r * he + e * hr) % p
    return vals[n]


# -- evaluation ---------------------------------------------------------------


def require_on_curve(curve: Curve, X: Point, role: str) -> tuple | None:
    """X as an (x, y) int pair (None for infinity), checked to lie on the curve."""
    if not curve.contains(X):
        raise BadInputError(f"{role} {X} is not on {curve!r}")
    return None if X.is_infinity else (X.x.value, X.y.value)


def difference(p: int, a: int, R: tuple | None, T: tuple | None) -> tuple | None:
    """R - T on (x, y) int pairs, None for infinity; one inversion unless T is infinity."""
    if T is None:
        return R
    R = JACOBIAN_INFINITY if R is None else (*R, 1)
    return jacobian_affine(p, jacobian_add(p, a, R, (T[0], -T[1] % p, 1))[0])


def eval_point(p: int, a: int, S: tuple | None, k: int = 0) -> tuple:
    """S + O_k = (x + eps*(-2*y*k), y + eps*(-(3*x^2 + a)*k)) as the int tuple
    (x0, y0, x1, y1); raises DegenerateEvaluationError when S is infinity."""
    if S is None:
        raise DegenerateEvaluationError("evaluation point translated to infinity")
    x, y = S
    return x, y, -2 * y * k % p, -(3 * x * x + a) * k % p


def _vanishes(k: int, i: int, j: int) -> DegenerateEvaluationError:
    return DegenerateEvaluationError(f"line of step {k} = {i} + {j} vanishes at the evaluation point")


def scaled_step_values(trace: ChainTrace, point: tuple) -> list:
    """Every step's h_{i,j} at an `eval_point` tuple as one (re, eps) int pair, up to a
    nonzero factor in F_p, which leaves every eps/re ratio, so every pairing value, alone;
    raises DegenerateEvaluationError where a line vanishes.

    Read projectively from the Jacobian multiples by `_step_readings`, inverting
    nothing: a chord step is (L + L_eps*eps)/(V_k + V_{k,eps}*eps) up to a factor Z_k,
    so (L*V_k, L_eps*V_k - L*V_{k,eps}) up to V_k^2 as well; a step to infinity is
    (V_i, V_{i,eps}), and a step without lines (1, 0).
    """
    return _step_readings(trace, point, False)


def step_values(trace: ChainTrace, point: tuple) -> list:
    """Every step's h_{i,j} at an `eval_point` tuple as (numerator, denominator), each an
    (re, eps) int pair; raises DegenerateEvaluationError where a line vanishes.

    Read by `_step_readings`: a chord step is (L + L_eps*eps)/(Z_k*V_k + Z_k*V_{k,eps}*eps),
    a step to infinity V_i/Z_i^2 and a step without lines 1/1.
    """
    return _step_readings(trace, point, True)


def _step_readings(trace: ChainTrace, point: tuple, exact: bool) -> list:
    """The one reading of each step's lines at an `eval_point` tuple: `step_values`'
    fractions when exact, else `scaled_step_values`' scaled values.

    With V = Z^2*x - X for a multiple (X, Y, Z), a chord step's line is read through the
    step's own multiple -kP, which lies on it: with slope N/Z_k, l = y + y_k -
    (N/Z_k)*(x - x_k) is L/Z_k^3 for L = Z_k^3*y + Y_k - N*V_k, and v_k = V_k/Z_k^2, so
    h = L/(Z_k*V_k), with no read of iP: eleven products with the scaled value, each
    multiple read once, by the step that made it.  A step to infinity has h = v_i =
    V_i/Z_i^2.  The eps parts are the same formulas in (x1, y1): L_eps = Z_k^3*y1 -
    N*V_{k,eps}.
    """
    x0, y0, x1, y1 = point
    p, jac, one = trace.field.p, trace.jac, (1, 0)
    out = []
    for k, i, j, N, _ in trace.steps:
        if N is None:  # an operand at infinity, no line; else the vertical at iP
            (Xi, _, Zi), Zj = jac[i], jac[j][2]
            if not (Zi and Zj):
                out.append((one, one) if exact else one)
                continue
            zzi = Zi * Zi % p
            Vi, Vi1 = (zzi * x0 - Xi) % p, zzi * x1 % p
            if not Vi:
                raise _vanishes(k, i, j)
            out.append(((Vi, Vi1), (zzi, 0)) if exact else (Vi, Vi1))
            continue
        Xk, Yk, Zk = jac[k]
        zzk = Zk * Zk % p
        zzzk = zzk * Zk % p
        Vk, Vk1 = (zzk * x0 - Xk) % p, zzk * x1 % p
        L = (zzzk * y0 + Yk - N * Vk) % p
        Le = zzzk * y1 - N * Vk1
        if not (L and Vk):
            raise _vanishes(k, i, j)
        if exact:
            out.append(((L, Le % p), (Zk * Vk % p, Zk * Vk1 % p)))
        else:
            out.append((L * Vk % p, (Le * Vk - L * Vk1) % p))
    return out


def trace_fraction(trace: ChainTrace, n: int, point: tuple) -> tuple:
    """f_n at an `eval_point` tuple as (numerator, denominator), each an
    (re, eps) int pair; raises DegenerateEvaluationError where a line vanishes."""
    values = step_values(trace, point)
    return tuple(product_fold(trace, n, [v[side] for v in values]) for side in (0, 1))


def trace_value(curve: Curve, trace: ChainTrace, n: int, T: Point, at):
    """f_n(at) for the divisor n(P+T) - n(T), folded over P's trace, up to the constant.

    T must lie on E, and `at` on E (giving an FpElement) or on the canonical
    lift (giving a DualNumber), where `decompose` writes it as R + O_k; then
    at - T = (R - T) + O_k is turned into ints once.
    """
    from .dual_curve import DualCurve, DualPoint  # dual_curve imports this module

    T = require_on_curve(curve, T, "translation point T")
    dual = isinstance(at, DualPoint)
    R, k = DualCurve.canonical(curve).decompose(at) if dual else (at, curve.field.zero())
    R = require_on_curve(curve, R, "evaluation point")
    p, a = curve.p, curve.A.value
    (nr, ne), (dr, de) = trace_fraction(trace, n, eval_point(p, a, difference(p, a, R, T), k.value))
    inv = pow(dr, -1, p)
    re = nr * inv % p
    return curve.field.dual(re, (ne - re * de) * inv) if dual else curve.field(re)


def h_eval(curve: Curve, P: Point, i: int, j: int, T: Point, at):
    """The single cocycle value h_{i,j}(at) for (P+T) - (T); `at` as in `trace_value`."""
    trace = _walk(curve, {i: curve.mul(i, P), j: curve.mul(j, P)}, [ChainStep(i + j, i, j)])
    return trace_value(curve, trace, i + j, T, at)


def miller_eval(curve: Curve, P: Point, n: int, T: Point, at, chain=None):
    """f_P(at) for the divisor n(P+T) - n(T), up to the global constant."""
    curve._require_on_curve(P)
    return trace_value(curve, chain_trace(curve, P, chain_for(n, chain).steps), n, T, at)


def weil_pairing(curve: Curve, n: int, P: Point, Q: Point, rng=None, chain=None) -> FpElement:
    """The Weil pairing e_n(P, Q) for gcd(n, p) = 1, as an n-th root of unity.

    Auxiliary translation points are drawn at random and re-drawn when an
    evaluation degenerates (a handful of bad choices among ~p points); the
    traces of P and Q are walked once and only the evaluation is redone.
    """
    if n < 1 or n % curve.p == 0:
        raise BadTorsionError("n must be positive and coprime to p")
    chain = chain_for(n, chain).steps
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
            value = (f_p_top / f_p_bot) * (f_q_bot / f_q_top)  # no line value, so no f, is 0
            if (value**n) != 1:
                raise DegenerateEvaluationError("support overlap corrupted the ratio")
            return value
        except DegenerateEvaluationError as exc:
            last = exc
    raise DegenerateEvaluationError(f"no good auxiliary points found: {last}")
