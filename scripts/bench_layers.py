"""Per-layer timings of the pairing routes, with an optional A/B against another commit.

Times, on the pinned 256-bit curve of `tests/test_crypto256.py` and on one
desk-size curve (p = 1511):

* `pair.direct`, `pair.semaev`, `pair.rueck`: e(P, O_k) by each route
* `instance`: `DlpInstance` construction alone, whose check p*P = O walks P
* `verify`: `AttackResult(n, "rueck").verify` on an instance already built,
  the check n*P = Q that closes every solve
* `solve.semaev`, `solve.rueck`, `solve.pairing`, `solve.lift`:
  `DlpInstance` construction and one attack, checked n*P = Q, as `dlp.solve`
  runs it
* `semaev.caller_chain` and `rueck.caller_chain`: `semaev_coefficient` and
  `rueck_slope_sum` of P on a caller's chain, `tail_chain(p, 3)`, which is
  validated and gets its `Chain` record on every call
* `miller.step_values` and `miller.scaled_step_values`: the exact and the
  scaled step readings of P's walk along the default chain
  (`miller.chain_for(p, None)`) at the routes' evaluation point sP
* `Curve.mul`: a full-size scalar multiple of P
* `dual_curve.mul`: p*lift(P) on the lift (A1, B1) = `LIFT`, off the
  scaling family, as in the lift attack
* `isogeny.eval_lifted`: a rational ell-isogeny from `find_cyclic_isogeny`
  (ell = 5 at 256 bits, 17 at p = 1511) at the lifted point embed(Q) + O_k
* the desk-size isogeny layer (`isogeny` in the record): `find_cyclic_isogeny`
  for ell = 13 on (1163, 642, 263), where Frobenius is not a scalar on
  E[13], and for ell = 3 on (1447, 468, 325), where it is, so that every
  line of E[3] is rational and psi_3 is split; the two parts of the ell = 13
  search that do not depend on the split, `isogeny.psi` (`division_polynomial`
  for psi_13, with the psi_n its recurrence reads) and `isogeny.velu`
  (`velu_from_kernel_polynomial` on the kernel it finds); the polynomial kernels at
  degree 84, with psi = psi_13 of the first curve, made monic: `poly.mul`
  (psi * psi), `poly.mod` ((x^p mod psi)^2 mod psi), `poly.pow_mod`
  (x^p mod psi) and `poly.gcd`, the ell = 13 search's first kernel gcd,
  gcd(psi, X_p*psi_5^2 - num) with X_p = x^p mod psi and num/psi_5^2 =
  x([5]P), built from the `division_polynomial` values; a gcd ladder,
  `poly.gcd.61`, `poly.gcd.127` and `poly.gcd.256`, on fixed inputs of
  degrees 60 and 59 with a common factor of degree 15 over primes of 61,
  127 and 256 bits; `poly.factor` of
  psi_3^2*psi_5 of the first curve, whose multiplicities stay below p, so
  that trees whose `factor` loops on a p-th power answer it too; and
  `isogeny.multiplication`, `multiplication_isogeny` for n = 2..7 on the
  desk curve (1511, 1301, 497)
* the CM isogeny layer (`isogeny.cm` in the record): `find_cyclic_isogeny`
  on anomalous CM curves from `perfbench/cm.py` with ell | v, where Frobenius
  is a scalar on E[ell] and psi_ell is split by lines: ell = 11 and 13 at
  128 bits and ell = 7, 11 and 13 at 256 bits, each curve drawn from a fixed
  (bits, D, seed).  These calls take seconds, so each is timed once, by
  the call that gives its value, and only in the children of the first
  `CM_ROUNDS` rounds of each side
* the search layer (`search` in the record): `curve.find_anomalous` for
  the desk workload's four searches, one curve in [1000, 1500] for each
  seed in 0-3 (`search.find.seed0`-`seed3`), the same four searches cold
  (`search.find.cold.seed0`-`seed3`: before each call the per-prime tables
  of `curve._prime_tables` are emptied, untimed, so that each call builds
  them as a one-shot search in a fresh process does), and for three
  curves at one prime with seed 0, `search.p1009` (p = 1 mod 3, where
  curves whose cubic splits are rejected without a walk) and
  `search.p1013` (p = 2 mod 3, where they are walked), and
  `curve.is_anomalous` on the desk curve (1511, 1301, 497)
* the CLI process layer (`cli` in the record), on the desk curve: whole
  child processes of `python -c pass` and of `python -m dualpair.cli`
  running `pair --method rueck`, `dlp --method rueck` and
  `find-anomalous --min 1000 --max 1500 --seed 0`, timed from the parent,
  one of each per side in every round; each child's stdout and exit code
  are among the side's values.  Whether `PYTHONDONTWRITEBYTECODE` was set
  is in `host`, since without bytecode every child compiles what it imports.

Each timing is taken in child processes that import `dualpair` from one
side's `src`; every child runs each operation once, which fills the
per-p caches and gives the values, then times the operations `--inner`
times in turn; `search.is_anomalous`, a call of about 0.02 ms, is timed
as a loop of 200 calls per sample and recorded in ms per call.  Over all
children of a side the record holds best, quartiles and worst, in ms.

    python3 scripts/bench_layers.py [--reps N] [--inner M] [--against REV] [--out FILE]
                                    [--isolate LAYER:OP[,LAYER:OP...]] [--order shuffled [--seed S]]

The working tree's `src`, uncommitted changes included, is copied into a
temporary directory, and every child imports from that copy and runs the
CLI children in it.  With `--against REV` the `src` of REV is unpacked
(`git archive`) beside it, so that both sides start from the same kind of
directory, and the two sides run in alternating child processes, `--reps`
of each, alternating which side runs first; the record then holds, per
operation, the change side's median over the parent side's median within
each round, and those ratios' median, quartiles, best, worst and the count
of rounds below 1 (`paired_ratios`).  Both sides may be one tree
(`--against HEAD` on a clean tree): that A/A run gives the band each
ratio moves in when nothing differs, which ROADMAP item L records.  No child
writes bytecode into the repository's `src`.  Each side also records
the values it computed: the three routes' pairing values, the two
caller-chain values, the four solves' recovered n, `verify`'s answers
for n, n + 1, p - n, p + n and 0 on Q = n*P and on Q = O, p*lift(P)
(a point at infinity) and n*lift(P) (an affine point) for the solves' n,
the lifted isogeny image,
`miller_eval`'s f_P with T = O at sP and at sP + O_k, embed(P), the
first 8 `Curve.random_point` draws of `random.Random(s)` for s = 0-3
with the sha256 of the rng state they leave, each found
isogeny of the isogeny and CM isogeny layers (`to_json`, the
`isogeny.velu` and `isogeny.multiplication` maps' too), the sha256 of each of its
polynomial results' coefficient tuples (the gcd ladder's among them, so
that multi-word slots are compared too) and `poly.factor`'s factors and
multiplicities, the sha256 of the invariant suite's report
`selfcheck.run(trials=8, seed=5)` (JSON, keys sorted, without the
`p_max` field that older trees echo), the sha256 of the reference law
`DualCurve.add` over every ordered pair of points of the lifts (0, 0),
(1, 0), (0, 1) and (2, 3) of the suite's two curves (`find_anomalous(5, 5,
count=2, seed=1)`), the search layer's curves and
`is_anomalous` answer, and the CLI children's
stdout and exit codes; the script exits 1 if any
of them differ between the sides or between the runs of one side, and
then names on stderr the first 20 that differ, each as `layer.value`
with its side and round.  Each side names the tree it timed by
`src_sha256`, the sha256 of the sorted
`src/dualpair/*.py` paths and bytes; its `commit` is null when `src` has
uncommitted changes.  Only the standard library is used.

In one child the rows share a process, and a row's time moves by a few
per cent with what the rows around it run.  `--isolate` times only the
named rows, each LAYER:OP with LAYER a curve's name, `isogeny` or
`search` (`desk:pair.semaev`): per side and per round, each row gets a
child process of its own, which builds the row's layer as above, values
included, then runs that row once untimed and `--inner` times timed; the
sides alternate as above, and no CLI child or CM search runs.  The
record's `modes` names each timed row's mode, `shared` or `isolated`, and
`isolate` lists the rows; the values are each isolated row's layer's.

`--order shuffled` moves every row among its neighbours from round to
round: each round draws a seed from `--seed` (drawn from the system when
not given), and both sides' children of the round order by it, so that
the two sides of a round time the same order.  A shared child builds and
times the layers in a drawn order, and each layer's rows in a drawn order
within its round robin (the CLI children still follow, in their order);
under `--isolate` the rows' children run in a drawn order.  The record's
`order` keeps the mode (`fixed` or `shuffled`), the seed, and for a
shuffled run each round's rows as LAYER:OP, in the order timed.

A desk-size walk (p below `curve.SQUARE_TABLE_FROM`) reads each slope's
inverse from p's table, and a search's trials read p's square table too,
both kept per prime by `curve._prime_tables` and built on the first call
at p.  So every row but the cold searches times kept tables, the steady
state of a long session at the same primes, and not a one-shot call,
which builds them first; the cold search rows give that cost per row.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, p, A, B, G, n for solve.*, scalar for Curve.mul, ell for isogeny.eval_lifted)
CURVES = [
    (
        "crypto-256",
        93651552868343116064426439039116612662436119053208978779440343948595872250883,
        74483106374822595232526290697776955099949194100797784292420390508824787287240,
        36876439920868049600417428237624865024974846098924393203600291379369134882398,
        (
            3199616899209352732708092667057330054330427015406012229734457429135929759485,
            28874513185542215516181757128042568249710605038561467375458536704892519731916,
        ),
        52940877273050950909856492988689049655643967086755489088925917197648586427832,
        81059307473838052434838125935787004557212545451669290185779426474424935019031,
        5,
    ),
    ("desk", 1511, 1301, 497, (129, 526), 1033, 1409, 17),
]
#: the isogeny layer's searches: (operation, p, A, B, ell); the poly.* operations run on the first curve's psi_13
ISOGENY_SEARCHES = [
    ("isogeny.find.l13", 1163, 642, 263, 13),
    ("isogeny.find.l3.scalar", 1447, 468, 325, 3),
]
#: the CM isogeny layer's searches: (operation, bits, D, seed, ell), each curve the first
#: `cm.anomalous_cm_curve(bits, D, random.Random(seed))`, whose v has the factor ell
CM_SEARCHES = [
    ("isogeny.find.cm128.l11", 128, 11, 0, 11),
    ("isogeny.find.cm128.l13", 128, 11, 13, 13),
    ("isogeny.find.cm256.l7", 256, 11, 5, 7),
    ("isogeny.find.cm256.l11", 256, 11, 5, 11),
    ("isogeny.find.cm256.l13", 256, 11, 5, 13),
]
#: rounds whose children also run the CM isogeny layer, once per search
CM_ROUNDS = 3
#: the gcd ladder: (bits, p), each run on u*c and v*c of degrees 60 and 59 with a common monic c of degree 15,
#: all drawn from random.Random(GCD_LADDER_SEED)
GCD_LADDER = [(61, 2**61 - 1), (127, 2**127 - 1), (256, CURVES[0][1])]
GCD_LADDER_SEED = 29
#: the search layer's `find_anomalous` calls: (operation, p_min, p_max, count, seed), the desk workload's four
#: searches, then one prime on each side of the split-cubic reject, which only p = 1 mod 3 takes, then the
#: desk searches again, cold
SEARCHES = [(f"search.find.seed{seed}", 1000, 1500, 1, seed) for seed in range(4)] + [
    ("search.p1009", 1009, 1009, 3, 0),
    ("search.p1013", 1013, 1013, 3, 0),
] + [(f"search.find.cold.seed{seed}", 1000, 1500, 1, seed) for seed in range(4)]
#: the search rows timed cold: the per-prime tables are emptied, untimed, before each call (`_empty_prime_tables`)
COLD = {op for op, *_ in SEARCHES if op.startswith("search.find.cold.")}
#: the layers that a child times in turn, each built by `_layer`, and that `--isolate` rows name
LAYERS = [name for name, *_ in CURVES] + ["isogeny", "search"]
#: operations that one sample times as a loop of this many calls, recorded in ms per call, so that a
#: call of tens of microseconds is not read at the timer's resolution
LOOPED = {"search.is_anomalous": 200}
#: k in e(P, O_k) for the pair.* operations
K = 3
#: (A1, B1) of the lift for `dual_curve.mul`: off the scaling family, 6B*A1 != 4A*B1, as B != 0 on both curves
LIFT = (1, 0)
#: the CLI process layer: operation -> the interpreter's argv, on the desk curve (Q = 1234*G, as in the README)
_DESK_FLAG = ["--curve", json.dumps({"p": "1511", "A": "1301", "B": "497"})]
CLI = {
    "python -c pass": ["-c", "pass"],
    "cli.pair.rueck": ["-m", "dualpair.cli", "pair", *_DESK_FLAG, "--point", "129,526", "--k", str(K), "--method", "rueck"],
    "cli.dlp.rueck": ["-m", "dualpair.cli", "dlp", *_DESK_FLAG, "--p-point", "129,526", "--q-point", "988,1402", "--method", "rueck"],
    "cli.find-anomalous": ["-m", "dualpair.cli", "find-anomalous", "--min", "1000", "--max", "1500", "--seed", "0"],
}


# -- the child: one side's timings and values ---------------------------------------


def _operations(p: int, a: int, b: int, G: tuple, n: int, scalar: int, ell: int) -> tuple[dict, dict]:
    """(operation name -> zero-argument callable, value name -> value) on one curve."""
    from dualpair import miller, pairing
    from dualpair.curve import INFINITY, Curve, Point
    from dualpair.dlp import AttackResult, DlpInstance, solve
    from dualpair.dual_curve import DualCurve
    from dualpair.fields import Fp
    from dualpair.isogeny import find_cyclic_isogeny

    curve = Curve(Fp(p), a, b)
    P = Point(curve.field(G[0]), curve.field(G[1]))
    Q = curve.mul(n, P)
    dc = DualCurve.canonical(curve)
    chain = miller.chain_for(p, None)  # the default chain's record: the routes' walk and evaluation multiple s
    tail = miller.tail_chain(p, 3)  # a caller's chain, checked and given its record per call
    trace = miller.chain_trace(curve, P, chain.steps)
    S = curve.mul(chain.s, P)
    point = miller.eval_point(p, a, (S.x.value, S.y.value), K)
    phi, lifted = find_cyclic_isogeny(curve, ell), dc.compose(Q, K)
    lift = DualCurve(curve, *LIFT)
    Pt = lift.lift(P)
    inst, at_o = DlpInstance(curve, P, Q), DlpInstance(curve, P, INFINITY)
    ops = {
        "pair.direct": lambda: pairing.pairing_direct(dc, P, K),
        "pair.semaev": lambda: pairing.pairing_semaev(dc, P, K),
        "pair.rueck": lambda: pairing.pairing_rueck(dc, P, K),
        "semaev.caller_chain": lambda: pairing.semaev_coefficient(curve, P, chain=tail),
        "rueck.caller_chain": lambda: pairing.rueck_slope_sum(curve, P, chain=tail),
        "instance": lambda: DlpInstance(curve, P, Q),
        "verify": lambda: AttackResult(n, "rueck").verify(inst),
        **{f"solve.{m}": lambda m=m: solve(DlpInstance(curve, P, Q), m) for m in ("semaev", "rueck", "pairing", "lift")},
        "miller.step_values": lambda: miller.step_values(trace, point),
        "miller.scaled_step_values": lambda: miller.scaled_step_values(trace, point),
        "curve.mul": lambda: curve.mul(scalar, P),
        "dual_curve.mul": lambda: lift.mul(p, Pt),
        "isogeny.eval_lifted": lambda: phi.eval_lifted(lifted),
    }
    values = {f"{op}.a": str(ops[op]().a.value) for op in ("pair.direct", "pair.semaev", "pair.rueck")}
    values.update({op: str(ops[op]().value) for op in ("semaev.caller_chain", "rueck.caller_chain")})
    values.update({f"{op}.n": str(fn().n) for op, fn in ops.items() if op.startswith("solve.")})
    values.update({op: ops[op]().to_json() for op in ("dual_curve.mul", "isogeny.eval_lifted")})
    values["verify"] = {name: [AttackResult(m, "rueck").verify(at) for m in (n, n + 1, p - n, p + n, 0)]
                        for name, at in (("Q = nP", inst), ("Q = O", at_o))}
    values["miller_eval"] = str(miller.miller_eval(curve, P, p, INFINITY, S).value)  # f_P(sP), T = O
    values["miller_eval.lifted"] = miller.miller_eval(curve, P, p, INFINITY, dc.compose(S, K)).to_json()  # f_P(sP + O_k)
    values["dual_curve.mul.n"] = lift.mul(n, Pt).to_json()  # n*lift(P), an affine point: mul's lift(nP) + O_d
    values["dual_curve.embed"] = dc.embed(P).to_json()
    values["curve.random_point"] = []
    for seed in range(4):  # the first 8 points each seed draws, and the rng state they leave
        rng = random.Random(seed)
        points = [curve.random_point(rng).to_json() for _ in range(8)]
        state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()
        values["curve.random_point"].append({"points": points, "state": state})
    return ops, values


def _isogeny_operations() -> tuple[dict, dict]:
    """(operation name -> zero-argument callable, value name -> value) for the isogeny layer."""
    from dualpair.curve import Curve
    from dualpair.fields import Fp
    from dualpair.isogeny import division_polynomial, find_cyclic_isogeny, multiplication_isogeny, velu_from_kernel_polynomial
    from dualpair.poly import Polynomial

    ops, values = {}, {}
    for op, p, a, b, ell in ISOGENY_SEARCHES:
        ops[op] = lambda curve=Curve(Fp(p), a, b), ell=ell: find_cyclic_isogeny(curve, ell)
        values[op] = ops[op]().to_json()
    _, p, a, b, ell = ISOGENY_SEARCHES[0]
    curve = Curve(Fp(p), a, b)
    f = curve.field
    kernel = find_cyclic_isogeny(curve, ell).kernel_polynomial()
    ops["isogeny.psi"] = lambda: division_polynomial(curve, ell)
    ops["isogeny.velu"] = lambda: velu_from_kernel_polynomial(curve, kernel)
    values["isogeny.psi"] = hashlib.sha256(str(ops["isogeny.psi"]().coeffs).encode()).hexdigest()
    values["isogeny.velu"] = ops["isogeny.velu"]().to_json()
    psi = {n: division_polynomial(curve, n) for n in range(ell + 1)}  # a call that every tree answers alike
    psi_ell = psi[ell].monic()  # degree 84
    x = Polynomial.x(f)
    xp = x.pow_mod(p, psi_ell)
    square = xp * xp
    lam = next(lam for lam in range(1, ell) if (lam * lam - lam + p) % ell == 0)
    mu = min(lam, ell - lam)  # x([mu]P) = num/den = x - psi_(mu-1)*psi_(mu+1)/psi_mu^2, with y^2 = f in the even psi_n
    den, prod = psi[mu] * psi[mu], psi[mu - 1] * psi[mu + 1]
    fx = Polynomial(f, (b, a, 0, 1))
    den, prod = (den, fx * prod) if mu % 2 else (fx * den, prod)
    num = x * den - prod
    eigen = xp * den - num  # the search's first kernel gcd is gcd(psi_ell, eigen)
    ops.update({
        "poly.mul": lambda: psi_ell * psi_ell,
        "poly.mod": lambda: square % psi_ell,
        "poly.pow_mod": lambda: x.pow_mod(p, psi_ell),
        "poly.gcd": lambda: psi_ell.gcd(eigen),
    })
    rng = random.Random(GCD_LADDER_SEED)
    for bits, q in GCD_LADDER:
        fq = Fp(q)
        common = Polynomial(fq, [rng.randrange(q) for _ in range(15)] + [1])
        u, v = (Polynomial(fq, [rng.randrange(q) for _ in range(n)] + [1]) * common for n in (45, 44))
        ops[f"poly.gcd.{bits}"] = lambda u=u, v=v: u.gcd(v)
    for op in ops:
        if op.startswith("poly."):
            values[op] = hashlib.sha256(str(ops[op]().coeffs).encode()).hexdigest()
    factored = psi[3] * psi[3] * psi[5]  # multiplicities 2 and 1, below p
    ops["poly.factor"] = lambda: factored.factor()
    values["poly.factor"] = [[list(g.coeffs), m] for g, m in ops["poly.factor"]()]
    _, p, a, b, *_ = CURVES[1]
    ops["isogeny.multiplication"] = lambda desk=Curve(Fp(p), a, b): [multiplication_isogeny(desk, n) for n in range(2, 8)]
    values["isogeny.multiplication"] = [phi.to_json() for phi in ops["isogeny.multiplication"]()]
    return ops, values


def _cm_searches() -> tuple[dict, dict]:
    """(operation name -> one timing in ms, value name -> value) for the CM isogeny layer."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # cm imports ecint from there
    import cm
    from dualpair.curve import Curve
    from dualpair.fields import Fp
    from dualpair.isogeny import find_cyclic_isogeny

    timings, values = {}, {}
    for op, bits, D, seed, ell in CM_SEARCHES:
        c = cm.anomalous_cm_curve(bits, D, random.Random(seed))
        curve = Curve(Fp(c.p), c.a, c.b)
        start = time.perf_counter()
        phi = find_cyclic_isogeny(curve, ell)
        timings[op] = [(time.perf_counter() - start) * 1e3]
        values[op] = phi.to_json()
    return timings, values


def _search_operations() -> tuple[dict, dict]:
    """(operation name -> zero-argument callable, value name -> value) for the search layer."""
    from dualpair.curve import Curve, find_anomalous, is_anomalous
    from dualpair.fields import Fp

    ops = {op: lambda args=args: find_anomalous(*args) for op, *args in SEARCHES}
    values = {op: [c.to_json() for c in fn()] for op, fn in ops.items()}
    _, p, a, b, *_ = CURVES[1]
    curve = Curve(Fp(p), a, b)
    ops["search.is_anomalous"] = lambda: [is_anomalous(curve) for _ in range(LOOPED["search.is_anomalous"])]
    values["search.is_anomalous"] = is_anomalous(curve)
    return ops, values


def _timed(ops: dict, inner: int) -> dict:
    """operation -> `inner` timings in ms (per call for a `LOOPED` one), after one untimed call of each;
    a `COLD` one on emptied per-prime tables."""
    for fn in ops.values():
        fn()
    samples = {op: [] for op in ops}
    for _ in range(inner):  # round robin, so that a slow spell of the host is shared by every operation
        for op, fn in ops.items():
            if op in COLD:
                _empty_prime_tables()
            start = time.perf_counter()
            fn()
            samples[op].append((time.perf_counter() - start) * 1e3 / LOOPED.get(op, 1))
    return samples


def _empty_prime_tables() -> None:
    """Empty the per-prime tables that the child's `dualpair.curve` keeps: `_TABLES`, or in older trees
    the inverse memo `_inverses` (an lru_cache); trees older still keep none."""
    from dualpair import curve

    if hasattr(curve, "_TABLES"):
        curve._TABLES.clear()
    elif hasattr(curve, "_inverses"):
        curve._inverses.cache_clear()


def _drawn(items, rng: random.Random | None) -> list:
    """items as a list, in the order rng draws (`--order shuffled`), or as given without one."""
    items = list(items)
    return items if rng is None else rng.sample(items, len(items))


def _layer(name: str) -> tuple[dict, dict]:
    """(operations, values) of one of the `LAYERS`."""
    for curve, *spec in CURVES:
        if curve == name:
            return _operations(*spec)
    return {"isogeny": _isogeny_operations, "search": _search_operations}[name]()


def isolated_child(src: str, inner: int, row: str) -> dict:
    """One row's timings alone: its layer is built as `child` builds it, values included, and then
    only the row runs, once untimed and `inner` times timed."""
    sys.path.insert(0, src)
    layer, op = row.split(":", 1)
    ops, values = _layer(layer)
    if op not in ops:
        sys.exit(f"no row {row}: {layer} has {', '.join(ops)}")
    return {"timings_ms": {layer: _timed({op: ops[op]}, inner)}, "values": {row: values}}


def child(src: str, inner: int, cm: bool, order_seed: int | None = None) -> dict:
    """One side's timings and values, every layer in one process: in `LAYERS`' order and each layer's
    own, or with `order_seed` the layers, and each layer's rows, in the order `random.Random(order_seed)`
    draws; `order` lists the rows as timed."""
    sys.path.insert(0, src)
    out = {"timings_ms": {}, "values": {}, "order": []}
    rng = None if order_seed is None else random.Random(order_seed)
    for name in _drawn(LAYERS, rng):
        ops, out["values"][name] = _layer(name)
        ops = dict(_drawn(ops.items(), rng))
        out["order"] += [f"{name}:{op}" for op in ops]
        out["timings_ms"][name] = _timed(ops, inner)
    if cm:
        out["timings_ms"]["isogeny.cm"], out["values"]["isogeny.cm"] = _cm_searches()
    from dualpair import selfcheck

    report = selfcheck.run(trials=8, seed=5)  # by keyword, as every tree takes it
    report.pop("p_max", None)  # echoed by older trees, where it changed nothing else
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    out["values"]["selfcheck.run(trials=8, seed=5)"] = digest
    out["values"]["dual_curve.add"] = _reference_law_digest()
    return out


def _reference_law_digest() -> str:
    """sha256 of `DualCurve.add` over every ordered pair of lifted points on the invariant suite's
    two curves, on the lifts (0, 0), (1, 0), (0, 1) and (2, 3): 5,000 sums."""
    from dualpair import DualCurve, find_anomalous

    digest = hashlib.sha256()
    for curve in find_anomalous(5, 5, count=2, seed=1):  # as `selfcheck.run` draws them
        for a1, b1 in ((0, 0), (1, 0), (0, 1), (2, 3)):
            dc = DualCurve(curve, a1, b1)
            pts = list(dc.points())
            for P in pts:
                for Q in pts:
                    digest.update(json.dumps(dc.add(P, Q).to_json()).encode())
    return digest.hexdigest()


# -- the parent: sides, alternation and the record ---------------------------------


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _src_lines(src: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((src / "dualpair").glob("*.py")))


def _src_sha256(src: Path) -> str:
    """The sha256 of the sorted src/dualpair/*.py paths and bytes under src."""
    digest = hashlib.sha256()
    for f in sorted((src / "dualpair").glob("*.py")):
        digest.update(f"src/dualpair/{f.name}\0".encode() + f.read_bytes() + b"\0")
    return digest.hexdigest()


def _copy_src(into: Path) -> Path:
    """The working tree's src, uncommitted changes included, without bytecode caches."""
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def _unpack_src(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = into / "src.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):  # 3.10.12, 3.11.4 and 3.12 on; 3.14 makes it the default
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into / "src"


def _host() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _summary(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"best": min(samples), "q1": q1, "median": median, "q3": q3, "worst": max(samples), "n": len(samples)}


def _paired_ratios(change: list, parent: list) -> dict:
    """layer -> operation -> the change/parent ratios of the two sides' medians within each round, summarized."""
    out = {}
    for name, ops in change[0]["timings_ms"].items():
        out[name] = {}
        for op in ops:
            rounds = [statistics.median(c["timings_ms"][name][op]) / statistics.median(p["timings_ms"][name][op])
                      for c, p in zip(change, parent) if name in c["timings_ms"] and name in p["timings_ms"]]
            out[name][op] = {**_summary(rounds), "below_1": sum(r < 1 for r in rounds)}
    return out


def _differing(values: dict, ref: dict) -> list[str]:
    """'side round r: layer.value' for each value of each round that differs from ref's."""
    out = []
    for side, runs in values.items():
        for rnd, run in enumerate(runs, 1):
            for layer, got in run.items():
                want = ref.get(layer)
                if got == want:
                    continue
                if isinstance(got, dict) and isinstance(want, dict):
                    out += [f"{side} round {rnd}: {layer}.{op}" for op in sorted(got.keys() | want.keys()) if got.get(op) != want.get(op)]
                else:
                    out.append(f"{side} round {rnd}: {layer}")
    return out


def _run_child(src: Path, inner: int, cm: bool, order_seed: int | None) -> dict:
    seeded = [] if order_seed is None else ["--order-seed", str(order_seed)]
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--inner", str(inner), *(["--cm"] if cm else []), *seeded],
        check=True, capture_output=True, text=True,
    )
    run = json.loads(done.stdout)
    run["timings_ms"]["cli"], run["values"]["cli"] = {}, {}
    env = dict(os.environ, PYTHONPATH=str(src))
    for op, argv in CLI.items():  # cwd is src too, so `-m` finds this side's package first
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=src, env=env, capture_output=True, text=True)
        run["timings_ms"]["cli"][op] = [(time.perf_counter() - start) * 1e3]
        run["values"]["cli"][op] = {"exit": proc.returncode, "stdout": proc.stdout}
    return run


def _run_isolated(src: Path, inner: int, rows: list) -> dict:
    """One round of one side under `--isolate`: a child per row, in the order given."""
    run = {"timings_ms": {}, "values": {}, "order": rows}
    for row in rows:
        done = subprocess.run([sys.executable, __file__, "--child", str(src), "--inner", str(inner), "--row", row],
                              capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"the child for {row} failed:\n{done.stderr}")
        part = json.loads(done.stdout)
        for layer, timings in part["timings_ms"].items():
            run["timings_ms"].setdefault(layer, {}).update(timings)
        run["values"].update(part["values"])
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=10, help="child processes per side (default 10)")
    ap.add_argument("--inner", type=int, default=5, help="timed calls per operation in each child (default 5)")
    ap.add_argument("--against", metavar="REV", help="also run the src of this git revision, alternating with this tree")
    ap.add_argument("--out", help="write the JSON record here instead of to stdout")
    ap.add_argument("--isolate", metavar="ROW[,ROW...]",
                    help="time only these rows, each LAYER:OP (e.g. desk:pair.semaev), each in a child process of its own")
    ap.add_argument("--order", choices=("fixed", "shuffled"), default="fixed",
                    help="the order of the rows in each round: as listed (default), or drawn per round from --seed,"
                         " the same on both sides")
    ap.add_argument("--seed", type=int, help="the seed of --order shuffled (default: drawn; the record keeps it)")
    ap.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    ap.add_argument("--order-seed", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--cm", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--row", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps < 1 or args.inner < 1:
        ap.error("--reps and --inner must be at least 1")
    if args.child:
        json.dump(isolated_child(args.child, args.inner, args.row) if args.row else child(args.child, args.inner, args.cm, args.order_seed),
                  sys.stdout)
        return 0
    rows = args.isolate.split(",") if args.isolate else []
    for row in rows:
        if row.split(":", 1)[0] not in LAYERS or ":" not in row:
            ap.error(f"--isolate takes LAYER:OP rows with LAYER one of {', '.join(LAYERS)}, not {row!r}")
    if args.seed is not None and args.order != "shuffled":
        ap.error("--seed draws the order of --order shuffled")
    seed = None
    if args.order == "shuffled":
        seed = random.SystemRandom().getrandbits(32) if args.seed is None else args.seed
    rng = None if seed is None else random.Random(seed)

    dirty = bool(_git("status", "--porcelain", "src"))
    with tempfile.TemporaryDirectory() as tmp:
        change = _copy_src(Path(tmp) / "change")
        sides = {"change": {"src": change, "commit": None if dirty else _git("rev-parse", "HEAD"), "uncommitted_changes": dirty}}
        if args.against:
            sides["parent"] = {"src": _unpack_src(args.against, Path(tmp) / "parent"), "commit": _git("rev-parse", args.against)}
        runs = {side: [] for side in sides}
        order = list(sides)
        for rep in range(args.reps):
            round_seed = None if rng is None else rng.getrandbits(32)  # both sides' children of the round draw from it
            round_rows = _drawn(rows, None if rng is None else random.Random(round_seed))
            for side in order if rep % 2 == 0 else order[::-1]:
                if rows:
                    runs[side].append(_run_isolated(sides[side]["src"], args.inner, round_rows))
                else:
                    runs[side].append(_run_child(sides[side]["src"], args.inner, rep < CM_ROUNDS, round_seed))
        for meta in sides.values():
            src = meta.pop("src")
            meta["src_lines"], meta["src_sha256"] = _src_lines(src), _src_sha256(src)

    values = {side: [run["values"] for run in rs] for side, rs in runs.items()}
    ref = values["change"][0]  # the first round runs every layer; a later one may leave out isogeny.cm
    differing = _differing(values, ref)
    identical = not differing
    record = {
        "python": platform.python_version(),
        "host": _host(),
        "reps": args.reps,
        "inner": args.inner,
        "k": K,
        "curves": {name: {"p": str(p)} for name, p, *_ in CURVES},
        "isogeny_searches": {op: {"p": str(p), "A": str(a), "B": str(b), "ell": ell} for op, p, a, b, ell in ISOGENY_SEARCHES},
        "cm_searches": {op: {"bits": bits, "D": D, "seed": seed, "ell": ell} for op, bits, D, seed, ell in CM_SEARCHES},
        "cm_rounds": 0 if rows else min(CM_ROUNDS, args.reps),
        "isolate": rows,
        "order": {"mode": args.order, "seed": seed, "rounds": [run["order"] for run in runs["change"]] if rng else []},
        "modes": {name: {op: "isolated" if rows else "shared" for op in ops} for name, ops in runs["change"][0]["timings_ms"].items()},
        "searches": {op: {"p_min": lo, "p_max": hi, "count": count, "seed": seed} for op, lo, hi, count, seed in SEARCHES},
        "cli": CLI,
        "values_identical": identical,
        "sides": {},
    }
    for side, meta in sides.items():
        timings = {}
        for name, ops in runs[side][0]["timings_ms"].items():
            timings[name] = {op: _summary([s for run in runs[side] if name in run["timings_ms"] for s in run["timings_ms"][name][op]])
                             for op in ops}
        record["sides"][side] = {**meta, "values": values[side][0], "timings_ms": timings}
    if "parent" in runs:
        record["paired_ratios"] = _paired_ratios(runs["change"], runs["parent"])
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not identical:
        print("pairing values, recovered n, lifted multiples, isogenies, polynomial results, found curves, selfcheck reports,"
              " reference-law sums or CLI documents differ between runs:",
              *differing[:20], *([f"... and {len(differing) - 20} more"] if len(differing) > 20 else []),
              sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
