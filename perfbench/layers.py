"""Per-layer numbers for the traced run.

Span counts are per request over the first cycle of the traced phase, which
is the same list of requests on every run with the same seed, so they
repeat exactly.  Self times are per request over the whole traced phase.
The `fields` layer is too fine-grained to wrap, so it is measured by a
micro-benchmark of the wrappers against the same operations on plain ints.
"""

from __future__ import annotations

import random
import statistics
import time

from dualpair.fields import DualNumber, Fp

_now = time.perf_counter_ns


def _ns_per_op(body, items, repeats=7) -> float:
    runs = []
    for _ in range(repeats):
        t0 = _now()
        body(items)
        runs.append((_now() - t0) / len(items))
    return statistics.median(runs)


def fields_microbench(p: int, seed: int, n: int = 2000) -> dict[str, float]:
    """ns per operation of FpElement/DualNumber and of plain-int mulmod and inverse at p."""
    rng = random.Random(f"{seed}/fields/{p}")
    f = Fp(p)
    pairs = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(n)]
    fe = [(f(x), f(y)) for x, y in pairs]
    du = [(DualNumber(f(x), f(y)), DualNumber(f(y), f(x))) for x, y in pairs]

    def empty(items):
        for a, b in items:
            pass

    def mul(items):
        for a, b in items:
            a * b

    def inv(items):
        for a, b in items:
            a.inverse()

    def int_mulmod(items):
        for a, b in items:
            a * b % p

    def int_inv(items):
        for a, b in items:
            pow(a, -1, p)

    loop = _ns_per_op(empty, pairs)
    out = {
        "fields.mul_ns": _ns_per_op(mul, fe) - loop,
        "fields.inv_ns": _ns_per_op(inv, fe) - loop,
        "fields.dual_mul_ns": _ns_per_op(mul, du) - loop,
        "fields.dual_inv_ns": _ns_per_op(inv, du) - loop,
        "fields.int_mulmod_ns": _ns_per_op(int_mulmod, pairs) - loop,
        "fields.int_inv_ns": _ns_per_op(int_inv, pairs) - loop,
    }
    out["fields.wrapper_ratio"] = out["fields.mul_ns"] / out["fields.int_mulmod_ns"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Span names whose per-request call counts and self times are reported.
CALLS = [
    "curve.mul", "curve.points", "curve.random_point", "curve.is_anomalous",
    "numbertheory.is_prime", "numbertheory.sqrt_mod",
    "miller.binary_chain", "miller.tail_chain",
    "pairing.rueck_slope_sum", "pairing.semaev_coefficient", "pairing.pairing_direct",
    "pairing.lifted_pairing", "dual_curve.mul", "dual_curve.random_lift_coeffs",
    "poly.factor", "isogeny.division_polynomial", "isogeny.velu_from_kernel_polynomial",
]
SELF_MS = [
    "curve.mul", "numbertheory.is_prime", "numbertheory.sqrt_mod", "miller.binary_chain",
    "pairing.rueck_slope_sum", "pairing.semaev_coefficient", "pairing.pairing_direct",
    "pairing.lifted_pairing", "dual_curve.mul", "poly.factor", "isogeny.division_polynomial",
    "isogeny.check_functoriality",
    "dlp.solve.semaev", "dlp.solve.rueck", "dlp.solve.pairing", "dlp.solve.lift",
]


def span_metrics(tracer, first_cycle: int, n_traced: int, lift_retries: list[int]) -> dict[str, float]:
    calls, good = tracer.calls(first_cycle)
    selfs = tracer.self_times()
    out = {f"{nm}.calls": calls[nm] / first_cycle for nm in CALLS}
    out.update({f"{nm}.self_ms": selfs.get(nm, 0) / n_traced / 1e6 for nm in SELF_MS})
    out["miller.chain_steps"] = calls["miller.chain_steps"] / first_cycle
    out["curve.find_anomalous.useful_ratio"] = _ratio(
        good["curve.find_anomalous"], calls["curve.is_anomalous"]
    )
    out["isogeny.candidate_useful_ratio"] = _ratio(
        good["isogeny.velu_from_kernel_polynomial"], calls["isogeny.velu_from_kernel_polynomial"]
    )
    checks = tracer.durations("dlp.instance_check")
    out["dlp.instance_check_ms"] = _ratio(sum(checks), len(checks)) / 1e6
    out["dlp.lift.retries"] = _ratio(sum(lift_retries), len(lift_retries))
    out["dlp.lift.useful_ratio"] = _ratio(len(lift_retries), calls["dual_curve.random_lift_coeffs"])
    return out


def cli_split(work, argvs: list[list[str]], cli_ms: float, repeats: int = 10) -> dict[str, float]:
    """Split one cli process into interpreter start, import, main() and the rest."""
    interp, imported = [], []
    for _ in range(repeats):
        for argv, sink in ((["-c", "pass"], interp), (["-c", "import dualpair.cli"], imported)):
            t0 = _now()
            proc = work.spawn(argv)
            sink.append((_now() - t0) / 1e6)
            if proc.returncode != 0:
                raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[:200]}")
    main = []
    for args in argvs:
        t0 = _now()
        work.main_in_process(args)
        main.append((_now() - t0) / 1e6)
    out = {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imported) - statistics.median(interp),
        "cli.main_ms": statistics.median(main),
    }
    out["cli.other_ms"] = cli_ms - sum(out.values())
    return out
