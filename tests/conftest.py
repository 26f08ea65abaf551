import operator
import random
import sys
from typing import NamedTuple

import pytest

from dualpair import (
    INFINITY,
    AttackResult,
    Curve,
    DlpInstance,
    DualCurve,
    DualPoint,
    Point,
    attack_pairing,
    attack_rueck,
    attack_semaev,
    count_points,
    find_anomalous,
    lifted_pairing,
    miller,
)
from dualpair.curve import jacobian_mul
from dualpair.errors import DegenerateEvaluationError
from dualpair.fields import Fp, FpElement
from dualpair.miller import ChainStep, step_values, trace_fraction
from dualpair.pairing import SLOPE_SIGN, PairingValue, rueck_slope_sum, semaev_coefficient

SEED = 0x5EED


def first_anomalous_by_scan(p: int) -> Curve | None:
    """Oracle: lexicographically first (A, B) with #E(F_p) = p, by full scan."""
    field = Fp(p)
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = Curve(field, a, b)
            if count_points(c) == p:
                return c
    return None


def order_by_steps(curve: Curve, P: Point) -> int:
    """Oracle: the order of P, by adding P to itself with `Curve._add_raw` until infinity (small p only)."""
    n, Q = 1, P
    while not Q.is_infinity:
        n, Q = n + 1, curve._add_raw(Q, P)
    return n


def double_and_add_chain(n: int) -> list[ChainStep]:
    """Oracle: the chain that `binary_chain` returns below 2^32, read off n's bits
    after the top one: double, then add P when the bit is set."""
    steps, acc = [], 1
    for bit in bin(n)[3:]:
        steps.append(ChainStep(2 * acc, acc, acc))
        acc *= 2
        if bit == "1":
            steps.append(ChainStep(acc + 1, acc, 1))
            acc += 1
    return steps


def power_of_two_chain(n: int) -> list[ChainStep]:
    """Oracle and a second chain for n: powers of two up to n's top bit, then
    the set bits summed high to low (390 steps for the tests' 256-bit p)."""
    steps, power = [], 1
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


def step_multiplicities(n: int, chain: list[ChainStep]) -> dict[int, int]:
    """Oracle: how many times each step's contribution occurs in the unrolled product for n,
    by one pass back over the chain (0 for a step the product does not take)."""
    need = {n: 1}
    for k, i, j in reversed(chain):
        c = need.get(k, 0)
        if c:
            need[i] = need.get(i, 0) + c
            need[j] = need.get(j, 0) + c
    return {k: need.get(k, 0) for k, _, _ in chain}


def weighted_sum(p: int, terms) -> int:
    """Oracle: the sum of m*top/bottom over (m, top, bottom) terms mod p, every bottom nonzero,
    as one running fraction, divided once."""
    num, den = 0, 1
    for m, top, bottom in terms:
        if m:
            num, den = (num * bottom + m * top * den) % p, den * bottom % p
    return num * pow(den, -1, p) % p


def jacobian_kills(p: int, a: int, b: int, x: int, squares: list[int] | None = None) -> bool:
    """Oracle: `curve._kills` as it was before the class table, on the Jacobian walk: the discriminant
    reject, and with `squares` (`curve._square_table(p)`) the split-cubic one at p = 1 mod 3, then
    (p - 1)*P' for P' = (t*x, t^2) by `jacobian_mul`, compared with -P' projectively, with no
    inversion; O is (1, 1, 0), which fails the first comparison."""
    d = -(4 * a * a * a + 27 * b * b) % p
    if squares:
        if not squares[d]:
            return False
        if p % 3 == 1:
            s = squares[-27 * d % p] - 1
            if pow(4 * ((s - 27 * b) % p or s + 27 * b), (p - 1) // 3, p) == 1:
                return False
    elif pow(d, (p - 1) // 2, p) == p - 1:
        return False
    t = (x * x * x + a * x + b) % p
    if not t:
        return False
    tx, tt = t * x % p, t * t % p
    X, Y, Z = jacobian_mul(p, a * tt % p, p - 1, (tx, tt, 1))
    ZZ = Z * Z % p
    return X == tx * ZZ % p and (Y + tt * ZZ * Z) % p == 0


def unrolled_step_count(n: int, chain: list[ChainStep]) -> int:
    """Total multiplicity-weighted contributions; always n - 1."""
    return sum(step_multiplicities(n, chain).values())


class Chord(NamedTuple):
    """The function y - m*x - b."""

    m: FpElement
    b: FpElement


class Vertical(NamedTuple):
    """The function x - c."""

    c: FpElement


def line_through(curve: Curve, P: Point, Q: Point):
    """Oracle: the line through two affine points (tangent when they coincide),
    with one inversion on FpElement wrappers: the affine reference for the lines
    that `miller.step_values` reads from a chain trace."""
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
    """A `line_through` line at coordinates from F_p or F_p[eps]."""
    if isinstance(line, Vertical):
        return x - line.c
    return y - line.m * x - line.b


def fold_trace(trace, n: int, unit, op, values: list):
    """Oracle: the memoized val(k) = op(op(val(i), val(j)), value of step k) over a chain
    trace; returns val(n).  `values` runs parallel to trace.steps; the walk's start
    points fold to `unit`."""
    vals = dict.fromkeys(trace.jac, unit)
    for (k, i, j, _, _), v in zip(trace.steps, values):
        vals[k] = op(op(vals[i], vals[j]), v)
    return vals[n]


def weighted_slope_sum(trace, n: int) -> int:
    """Oracle for `miller.slope_sum`: every chord step's slope N/Z_k, weighted by its step's
    multiplicity in the unrolled product for n (`step_multiplicities`) and summed as one running
    fraction (`weighted_sum`), with no fold along the walk and no Z ratio read."""
    mult = step_multiplicities(n, [step[:3] for step in trace.steps])
    terms = ((mult[k], N, trace.jac[k][2]) for k, _, _, N, _ in trace.steps if N is not None)
    return weighted_sum(trace.field.p, terms)


def weighted_ratio_sum(trace, n: int, values: list) -> int:
    """Oracle for `miller.ratio_fold`: every step's ratio eps/re of its (re, eps) pair in `values`,
    parallel to trace.steps, weighted by its step's multiplicity in the unrolled product for n
    (`step_multiplicities`) and summed as one running fraction (`weighted_sum`), with no fold
    along the walk."""
    mult = step_multiplicities(n, [step[:3] for step in trace.steps])
    terms = ((mult[k], eps, re) for (k, _, _, _, _), (re, eps) in zip(trace.steps, values))
    return weighted_sum(trace.field.p, terms)


def step_values_through_ip(trace, point: tuple) -> list:
    """Oracle for `miller.step_values`: each chord line read through the step's operand iP, not
    through -kP.  With V = Z^2*x - X, h = (L*Z_k)/(V_k*Z_i^3) for L = Z_k*(Z_i^3*y - Y_i) -
    N*Z_i*V_i, which is the line times Z_k*Z_i^3; a step to infinity is V_i/Z_i^2 and a step
    without lines 1/1, each as ((re, eps), (re, eps)) at an `eval_point` tuple.  Raises
    DegenerateEvaluationError where a line vanishes."""
    x0, y0, x1, y1 = point
    p, jac = trace.field.p, trace.jac
    out = []
    for k, i, j, N, _ in trace.steps:
        (Xi, Yi, Zi), (Xk, _, Zk) = jac[i], jac[k]
        if not (Zi and jac[j][2]):
            out.append(((1, 0), (1, 0)))
            continue
        zzi = Zi * Zi % p
        Vi, Vi1 = (zzi * x0 - Xi) % p, zzi * x1 % p
        if N is None:
            if not Vi:
                raise DegenerateEvaluationError(f"line of step {k} = {i} + {j} vanishes at the evaluation point")
            out.append(((Vi, Vi1), (zzi, 0)))
            continue
        zzzi, zzk = zzi * Zi % p, Zk * Zk % p
        Vk, Vk1 = (zzk * x0 - Xk) % p, zzk * x1 % p
        L = (Zk * (zzzi * y0 - Yi) - N * Zi * Vi) % p
        Le = zzzi * (Zk * y1 - N * x1)
        if not (L and Vk):
            raise DegenerateEvaluationError(f"line of step {k} = {i} + {j} vanishes at the evaluation point")
        out.append(((L * Zk % p, Le * Zk % p), (Vk * zzzi % p, Vk1 * zzzi % p)))
    return out


def trace_points(trace) -> dict:
    """k -> kP as Points, each Jacobian multiple of a chain trace made affine on its own."""
    f, p = trace.field, trace.field.p
    out = {}
    for k, (X, Y, Z) in trace.jac.items():
        zi = pow(Z, -1, p) if Z else None
        out[k] = INFINITY if zi is None else Point(f(X * zi * zi), f(Y * zi * zi * zi))
    return out


def count_walks(monkeypatch) -> list:
    """The start points of every chain walk from now on, appended as each walk begins, once per walk
    whichever engine runs it: `miller.slope_walk`, `miller._walk`, or the one falling back to the other."""
    walks, running = [], []

    def counted(engine, start):
        def walk(*args, **kwargs):
            if not running:
                walks.append(start(*args, **kwargs))
            running.append(engine)
            try:
                return engine(*args, **kwargs)
            finally:
                running.pop()

        return walk

    monkeypatch.setattr(miller, "_walk", counted(miller._walk, lambda curve, start, chain: start))
    engine = miller.slope_walk
    for module in list(sys.modules.values()):  # every namespace that holds it, as the benchmark's tracer patches
        if module.__name__.startswith("dualpair") and getattr(module, "slope_walk", None) is engine:
            monkeypatch.setattr(module, "slope_walk", counted(engine, lambda curve, P, n, point=None, product=False: {1: P}))
    return walks


def check_attack_cores(inst) -> None:
    """The attacks' values of P, read from the instance's slope sum, equal the public functions of P:
    with Q = P, each attack divides the public function's value by its own, so n = 1.
    Semaev's attack takes c(P) as half of P's slope sum, which is Semaev's own route's c(P)."""
    c, P, S = inst.curve, inst.P, inst.slope_sum
    dc = DualCurve.canonical(c)
    assert S == rueck_slope_sum(c, P)
    assert S / 2 == semaev_coefficient(c, P)
    assert SLOPE_SIGN * S == lifted_pairing(dc, dc.embed(P), DualPoint.infinity(dc.field.one())).a
    same = DlpInstance(c, P, P)
    assert [attack(same).n for attack in (attack_semaev, attack_rueck, attack_pairing)] == [1, 1, 1]


def check_verify_accepts_exactly_n_mod_p(curve: Curve, G: Point, rng: random.Random) -> None:
    """`AttackResult.verify` on Q = n*G accepts n, n + p and n - p, and rejects n +- 1, p - n, -n and 0,
    for n above and below 2^32 and at 1 and p - 1; on Q = O it accepts exactly the multiples of p."""
    p = curve.p
    for n in (rng.randrange(2**32, p), rng.randrange(2, 2**32), 1, p - 1):
        inst = DlpInstance(curve, G, curve.mul(n, G))
        answers = {m: AttackResult(m, "rueck").verify(inst) for m in (n, n + 1, n - 1, p - n, n + p, n - p, 0, -n)}
        assert answers == {m: m in (n, n + p, n - p) for m in answers}, n
    at_o = DlpInstance(curve, G, INFINITY)
    assert [AttackResult(m, "rueck").verify(at_o) for m in (0, p, -p, 1, p - 1, p + 1)] == [True] * 3 + [False] * 3


def direct_value_oracle(trace, point: tuple) -> PairingValue:
    """Oracle for `pairing._direct_value`: f_P(O_k + R)/f_P(R) from the exact step values,
    f_P(O_k + R) = (nr + ne*eps)/(dr + de*eps) with f_P(R) = nr/dr, so 1 + (ne/nr - de/dr)*eps."""
    p = trace.field.p
    (nr, ne), (dr, de) = trace_fraction(trace, p, point)
    return PairingValue(trace.field((ne * dr - nr * de) * pow(nr * dr, -1, p)))


def log_derivative_oracle(trace, point: tuple):
    """Oracle for `pairing._log_derivative_value`: the memoized chain sum
    of -(eps/re of h's numerator - eps/re of its denominator)/2 from the exact step values,
    every re part inverted on its own."""
    p = trace.field.p
    parts = [side for value in step_values(trace, point) for side in value]
    ratios = [eps * pow(re, -1, p) for re, eps in parts]
    logs = [num - den for num, den in zip(ratios[::2], ratios[1::2])]
    return trace.field(fold_trace(trace, p, 0, operator.add, logs) * ((p - 1) // 2))


def dual_horner(poly, x):
    """Oracle: a polynomial over F_p evaluated at a dual number by Horner's rule."""
    acc = x.field.dual(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def dual_evaluation(phi, Pt: DualPoint) -> DualPoint:
    """Oracle for `Isogeny.eval_lifted` off the kernel: phi's rational maps evaluated
    with dual arithmetic at an affine Pt, (r(x~), y~*s(x~)); the denominators are
    units there because their reductions are nonzero."""

    def at(f, x):
        return dual_horner(f.num, x) / dual_horner(f.den, x)

    return DualPoint.affine(at(phi.r, Pt.x), Pt.y * at(phi.s, Pt.x))


def dual_double_and_add(dc: DualCurve, n: int, Pt: DualPoint) -> DualPoint:
    """Oracle: n*Pt for n >= 0 by double-and-add on the reference law `DualCurve._add_raw`."""
    acc = dc.lift(INFINITY)
    for bit in bin(n)[2:]:
        acc = dc._add_raw(acc, acc)
        if bit == "1":
            acc = dc._add_raw(acc, Pt)
    return acc


def mul_below_2_32(add, mul, n: int, P, zero):
    """Oracle for `Curve.mul`: n*P for n >= 0 by Horner in base 2^31, taking only
    multiples below 2^32, where `Curve.mul` is plain double-and-add."""
    acc = zero
    for shift in range(31 * (n.bit_length() // 31), -1, -31):
        acc = add(mul(2**31, acc), mul(n >> shift & (2**31 - 1), P))
    return acc


@pytest.fixture
def fresh_tables(monkeypatch) -> dict:
    """`curve._TABLES` emptied for one test, so that no table or trial count that earlier tests left
    decides which walks it makes; the process's own tables come back after it."""
    import dualpair.curve as curve_module

    monkeypatch.setattr(curve_module, "_TABLES", {})
    return curve_module._TABLES


@pytest.fixture(scope="session")
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def tiny_anomalous():
    """The lexicographically smallest anomalous curve (p = 5 if one exists)."""
    for p in (5, 7, 11, 13):
        c = first_anomalous_by_scan(p)
        if c is not None:
            return c
    raise RuntimeError("no tiny anomalous curve")


@pytest.fixture(scope="session")
def tiny_anomalous_all():
    """One anomalous curve per prime p <= 13 admitting one."""
    out = []
    for p in (5, 7, 11, 13):
        c = first_anomalous_by_scan(p)
        if c is not None:
            out.append(c)
    return out


@pytest.fixture(scope="session")
def small_pool():
    """Anomalous curves with p up to a few thousand (search is fast there)."""
    return find_anomalous(5, 4000, count=10, seed=SEED)


@pytest.fixture(scope="session")
def medium_pool():
    """Anomalous curves in the 10^3..10^4 range."""
    return find_anomalous(1_000, 10_000, count=5, seed=SEED + 1)


@pytest.fixture(scope="session")
def large_pool():
    """Anomalous curves above the scan threshold, from `find_anomalous`'s search, whose trial walks p*P on ints."""
    return find_anomalous(100_000, 1_000_000, count=2, seed=SEED + 2)
