"""The dualpair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it imports `dualpair` from ./src and
nothing else, and exits non-zero without a result when ./src is missing.
Workloads (BENCHMARK.json says why each was chosen):

  crypto-256  the seven-operation rotation on 256-bit CM anomalous curves
  desk        the rotation on searched curves with p in [1000, 1500], plus search
  isogeny     find_cyclic_isogeny for l in {3, 5, 7, 11, 13} on the desk curves
  cli         one `python -m dualpair.cli` child at a time on desk inputs

Each workload is a closed loop with one client in this process.  The seed
makes the inputs; every output is checked, untimed.  Report lines start
with "#" and give, as measured, every end-to-end figure of the workload
(per operation: median, the highest percentile with at least ten samples
beyond it, and the count).  The last line is the JSON result:

  --trace 0  the end-to-end metrics of BENCHMARK.json.  Times and rates are
             scaled to the nominal host speed of `speed.py`, which takes
             out the drift of a shared host; latency_ms is the geometric
             mean, over the (operation, curve) pairs, of each pair's
             median: the workloads time a fixed pool of curves whose costs
             differ, so a median over all curves would jump between them.
  --trace 1  the per-layer metrics: half the time untraced, half traced
             (spans around the library's public functions, see tracing.py),
             the tracing overhead between the two, and every span written
             to .perfbench/trace-<workload>-seed<seed>.tsv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

import speed

WORKLOADS = ("crypto-256", "desk", "isogeny", "cli")
SETUP_REPEATS = 5
#: Every run does at least this many whole cycles, so that each operation has
#: at least two samples per curve however slow the host is.
MIN_CYCLES = 2
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass
class Loop:
    """What one closed-loop phase did."""

    meter: speed.Speedometer
    ns: dict = field(default_factory=lambda: defaultdict(list))  # kind -> request times
    starts: dict = field(default_factory=lambda: defaultdict(list))  # kind -> request start times
    curves: dict = field(default_factory=lambda: defaultdict(list))  # kind -> Request.curve
    attempted: int = 0
    ok: int = 0
    errors: int = 0
    wrong: int = 0
    messages: list = field(default_factory=list)
    first_cycle: list = field(default_factory=list)  # the requests of cycle 0
    lift_retries: list = field(default_factory=list)  # lift solves of cycle 0

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.ns.values()) / 1e9

    @property
    def ops_per_s(self) -> float:
        return self.ok / self.busy_s

    def scaled(self) -> dict[str, list[float]]:
        """Request times in ns at the nominal host speed, per kind."""
        scale = self.meter.scale
        return {
            kind: [d * scale(t, t + d) for t, d in zip(self.starts[kind], ns)]
            for kind, ns in self.ns.items()
        }

    def scaled_ops_per_s(self) -> float:
        return self.ok / (sum(sum(v) for v in self.scaled().values()) / 1e9)


def execute(req, loop: Loop, tracer, index: int, in_first_cycle: bool) -> None:
    if tracer is not None:
        tracer.current_request = index
        span = tracer.open("bench." + req.kind)
    t0 = time.perf_counter_ns()
    try:
        result, error = req.run(), None
    except Exception as exc:  # the request failed; the loop goes on
        result, error = None, exc
    loop.ns[req.kind].append(time.perf_counter_ns() - t0)
    loop.starts[req.kind].append(t0)
    loop.curves[req.kind].append(req.curve)
    if tracer is not None:
        tracer.close(span, error is None)
        tracer.current_request = -1
    loop.attempted += 1
    if error is not None:
        if req.expect_error is not None and isinstance(error, req.expect_error):
            loop.ok += 1
            return
        loop.errors += 1
        loop.messages.append(f"{req.kind}: {type(error).__name__}: {error}")
        return
    try:
        good = req.expect_error is None and req.check(result)
    except Exception as exc:  # a malformed output is a wrong answer
        good = False
        loop.messages.append(f"{req.kind}: check raised {type(exc).__name__}: {exc}")
    if good:
        loop.ok += 1
        if in_first_cycle and req.kind == "solve.lift":
            loop.lift_retries.append(result.retries)
    else:
        loop.wrong += 1
        loop.messages.append(f"{req.kind}: wrong answer")


def run_loop(work, state, seed: int, seconds: float, tracer=None) -> Loop:
    """Run whole cycles, at least MIN_CYCLES, until `seconds` of wall time have passed."""
    loop = Loop(work.speedometer())
    deadline = time.perf_counter() + seconds
    index = c = 0
    while True:
        requests = work.cycle(state, seed, c)
        if c == 0:
            loop.first_cycle = requests
        for req in requests:
            loop.meter.sample_if_due()
            execute(req, loop, tracer, index, c == 0)
            index += 1
        c += 1
        if c >= MIN_CYCLES and time.perf_counter() >= deadline:
            loop.meter.sample()
            return loop


def describe(ns: list[int]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ms = sorted(v / 1e6 for v in ns)
    n = len(ms)
    text = f"median={statistics.median(ms):.4f} ms"
    tail = [q for q in PERCENTILES if n * (1 - q / 100) >= 10]
    if tail:
        q = tail[-1]
        text += f" p{q:g}={ms[math.ceil(q / 100 * n) - 1]:.4f} ms"
    return text + f" n={n}"


def report_lines(loop: Loop) -> list[str]:
    """Every end-to-end figure of the workload, by name, with its unit."""
    groups: dict[str, list[int]] = defaultdict(list)
    for kind, ns in sorted(loop.ns.items()):
        if kind.startswith(("solve.", "pair.")):
            op, method = kind.split(".")
            groups[f"{op}_ms.{method}"] = ns
        elif kind == "search":
            groups["search_ms"] = ns
        elif kind.startswith("isogeny."):
            groups["isogeny_ms"] += ns
            groups[f"isogeny_ms.l{kind.split('.')[1]}"] = ns
        elif kind.startswith("cli."):
            groups["cli_ms"] += ns
            groups[f"cli_ms.{kind[4:]}"] = ns
    lines = [f"# {name}: {describe(ns)}" for name, ns in groups.items()]
    lines.append(f"# ops_per_s: {loop.ops_per_s:.4f} 1/s")
    lines.append(f"# failed_frac: {(loop.errors + loop.wrong) / loop.attempted:.4f} "
                 f"({loop.errors} errors, {loop.wrong} wrong answers, {loop.attempted} attempted)")
    return lines


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment(root: str, seed: int) -> dict:
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dualpair benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dualpair", "__init__.py")):
        print(f"error: {src}/dualpair not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import dualpair

    if os.path.dirname(os.path.abspath(dualpair.__file__)) != os.path.join(src, "dualpair"):
        print(f"error: imported dualpair from {dualpair.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    print("# env " + json.dumps(environment(root, args.seed), sort_keys=True), flush=True)
    work = workloads.make(args.workload, root)
    setup_meter = speed.Speedometer(speed.compute_reference_ns, speed.COMPUTE_NOMINAL_MS, 0)
    setup_ns = []
    for _ in range(SETUP_REPEATS):
        setup_meter.sample()
        t0 = time.perf_counter_ns()
        state = work.setup(args.seed)
        setup_ns.append((t0, time.perf_counter_ns() - t0))
    setup_meter.sample()
    work.verify(state)
    for t in state:
        truth = f" a(G)={t.aG}" if t.aG else ""
        print(f"# curve p={t.p} A={t.a} B={t.b} G={t.G[0]},{t.G[1]}{truth} {t.note}".rstrip())
    print(f"# setup_s: median={statistics.median(d for _, d in setup_ns) / 1e9:.4f} s n={len(setup_ns)}")
    setup_s = statistics.median(d * setup_meter.scale(t, t + d) for t, d in setup_ns) / 1e9

    if args.trace:
        metrics, loops = traced(work, state, args, root)
        wanted = spec["per_layer"]
    else:
        loop = run_loop(work, state, args.seed, args.seconds)
        loops = [loop]
        metrics = end_to_end(args.workload, loop, setup_s, setup_meter)
        wanted = spec["end_to_end"]

    for line in report_lines(loops[0]):
        print(line)
    for msg in sorted(set(m for lp in loops for m in lp.messages))[:20]:
        print(f"# failure {msg}")
    result = {
        "correct": all(lp.wrong == 0 for lp in loops),
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.errors + lp.wrong for lp in loops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def end_to_end(workload: str, loop: Loop, setup_s: float, setup_meter) -> dict[str, float]:
    """The end-to-end metrics, with times and rates at the nominal host speed."""
    groups = defaultdict(list)  # (kind, curve) -> scaled times
    for kind, ns in loop.scaled().items():
        for i, v in zip(loop.curves[kind], ns):
            groups[kind, i].append(v)
    latency_ms = statistics.geometric_mean(statistics.median(ns) for ns in groups.values()) / 1e6
    print(f"# host speed: reference median {setup_meter.median_ms():.4f} ms at set-up, "
          f"{loop.meter.median_ms():.4f} ms in the loop ({len(loop.meter.ns)} samples); the lines "
          f"below are as measured, the JSON result is scaled to the nominal reference time")
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    print(f"# peak_rss_mb: {rss_mb:.4f} MB ({'largest child' if workload == 'cli' else 'this process'})")
    return {
        "setup_s": setup_s,
        "ops_per_s": loop.scaled_ops_per_s(),
        "latency_ms": latency_ms,
        "peak_rss_mb": rss_mb,
    }


def traced(work, state, args, root: str) -> tuple[dict[str, float], list[Loop]]:
    """Half the time untraced, half traced; the per-layer metrics."""
    import layers
    import tracing

    untraced = run_loop(work, state, args.seed, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run_loop(work, state, args.seed, args.seconds / 2, tracer)
        first = len(loop.first_cycle)
        n_traced = loop.attempted
        loops = [untraced, loop]
        if args.workload == "cli":
            # the children are not traced: replay the first cycle in this process
            n_traced = first
            loops.append(Loop(loop.meter))
            for i, req in enumerate(loop.first_cycle):
                tracer.current_request = i
                code, out = work.main_in_process(req.argv)
                tracer.current_request = -1
                execute_check(req, code, out, loops[-1])
    finally:
        tracer.uninstall()
    metrics = layers.span_metrics(tracer, first, n_traced, loops[-1].lift_retries)
    metrics.update(layers.fields_microbench(work.layer_p(state), args.seed))
    if args.workload == "cli":
        cli_ms = statistics.median(v for ns in loop.ns.values() for v in ns) / 1e6
        metrics.update(layers.cli_split(work, [r.argv for r in loop.first_cycle], cli_ms))
    else:
        metrics.update(dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.other_ms"), 0.0))
    # each phase at the nominal host speed, so that drift between them cancels
    fast, slow = untraced.scaled_ops_per_s(), loop.scaled_ops_per_s()
    metrics["trace.ops_per_s_untraced"] = fast
    metrics["trace.ops_per_s_traced"] = slow
    metrics["trace.overhead_frac"] = fast / slow - 1
    metrics["trace.spans_per_request"] = len(tracer.name) / n_traced
    print(f"# tracing overhead: {metrics['trace.overhead_frac']:.4f} "
          f"({fast:.4f} 1/s untraced, {slow:.4f} 1/s traced, at the nominal host speed)")
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.tsv")
    tracer.write(path)
    print(f"# spans: {len(tracer.name)} written to {os.path.relpath(path, root)}")
    return metrics, loops


def execute_check(req, code: int, out: str, loop: Loop) -> None:
    """Check one in-process `cli.main` replay like its child process."""
    loop.attempted += 1
    if code != 0:
        loop.errors += 1
        loop.messages.append(f"{req.kind} in process: exit {code}")
        return
    try:
        good = req.check(types.SimpleNamespace(stdout=out))
    except Exception as exc:  # a malformed output is a wrong answer
        good = False
        loop.messages.append(f"{req.kind} in process: check raised {type(exc).__name__}: {exc}")
    if not good:
        loop.wrong += 1
        loop.messages.append(f"{req.kind} in process: wrong answer")
        return
    loop.ok += 1
    if req.kind == "cli.solve.lift":
        loop.lift_retries.append(json.loads(out)["retries"])


if __name__ == "__main__":
    sys.exit(main())
