"""Per-layer timings of the pairing routes, with an optional A/B against another commit.

Times, on the pinned 256-bit curve of `tests/test_crypto256.py` and on one
desk-size curve (p = 1511):

* `pair.direct`, `pair.semaev`, `pair.rueck`: e(P, O_k) by each route
* `instance`: `DlpInstance` construction alone, whose check p*P = O walks P
* `solve.semaev`, `solve.rueck`, `solve.pairing`, `solve.lift`:
  `DlpInstance` construction and one attack, checked n*P = Q, as `dlp.solve`
  runs it
* `miller.step_values` and `miller.scaled_step_values`: the exact and the
  scaled step readings of P's walk along the default chain
  (`miller.chain_for(p, None)`) at the routes' evaluation point sP
* `Curve.mul`: a full-size scalar multiple of P
* `dual_curve.mul`: p*lift(P) on the lift (A1, B1) = `LIFT`, off the
  scaling family, as in the lift attack
* `isogeny.eval_lifted`: a rational ell-isogeny from `find_cyclic_isogeny`
  (ell = 5 at 256 bits, 17 at p = 1511) at the lifted point embed(Q) + O_k
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
times in turn.  Over all children of a
side the record holds best, quartiles and worst, in ms, and
`pair.direct` and `pair.semaev` relative to `pair.rueck`: best to best,
median to median, and the median of the ratios within one round, whose
two timings are taken moments apart and so share the host's state.

    python3 scripts/bench_layers.py [--reps N] [--inner M] [--against REV] [--out FILE]

With `--against REV` the `src` of REV is unpacked (`git archive`) into a
temporary directory and the two sides run in alternating child processes,
`--reps` of each, alternating which side runs first.  Each side also
records the pairing values, recovered n, p*lift(P) and lifted isogeny
image it computed, the sha256 of the invariant suite's report
`selfcheck.run(trials=8, seed=5)` (JSON, keys sorted, without the
`p_max` field that older trees echo), and the CLI children's
stdout and exit codes; the script exits 1 if any
of them differ between the sides or between the runs of one side.  Each
side names the tree it timed by `src_sha256`, the sha256 of the sorted
`src/dualpair/*.py` paths and bytes; its `commit` is null when `src` has
uncommitted changes.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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
    from dualpair.curve import Curve, Point
    from dualpair.dlp import DlpInstance, solve
    from dualpair.dual_curve import DualCurve
    from dualpair.fields import Fp
    from dualpair.isogeny import find_cyclic_isogeny

    curve = Curve(Fp(p), a, b)
    P = Point(curve.field(G[0]), curve.field(G[1]))
    Q = curve.mul(n, P)
    dc = DualCurve.canonical(curve)
    chain = miller.chain_for(p, None)  # the default chain's record: the routes' walk and evaluation multiple s
    trace = miller.chain_trace(curve, P, chain.steps)
    S = curve.mul(chain.s, P)
    point = miller.eval_point(p, a, (S.x.value, S.y.value), K)
    phi, lifted = find_cyclic_isogeny(curve, ell), dc.compose(Q, K)
    lift = DualCurve(curve, *LIFT)
    Pt = lift.lift(P)
    ops = {
        "pair.direct": lambda: pairing.pairing_direct(dc, P, K),
        "pair.semaev": lambda: pairing.pairing_semaev(dc, P, K),
        "pair.rueck": lambda: pairing.pairing_rueck(dc, P, K),
        "instance": lambda: DlpInstance(curve, P, Q),
        **{f"solve.{m}": lambda m=m: solve(DlpInstance(curve, P, Q), m) for m in ("semaev", "rueck", "pairing", "lift")},
        "miller.step_values": lambda: miller.step_values(trace, point),
        "miller.scaled_step_values": lambda: miller.scaled_step_values(trace, point),
        "curve.mul": lambda: curve.mul(scalar, P),
        "dual_curve.mul": lambda: lift.mul(p, Pt),
        "isogeny.eval_lifted": lambda: phi.eval_lifted(lifted),
    }
    values = {f"{op}.a": str(ops[op]().a.value) for op in ("pair.direct", "pair.semaev", "pair.rueck")}
    values.update({f"{op}.n": str(fn().n) for op, fn in ops.items() if op.startswith("solve.")})
    values.update({op: ops[op]().to_json() for op in ("dual_curve.mul", "isogeny.eval_lifted")})
    return ops, values


def child(src: str, inner: int) -> dict:
    sys.path.insert(0, src)
    out = {"timings_ms": {}, "values": {}}
    for name, *spec in CURVES:
        ops, values = _operations(*spec)
        out["values"][name] = values
        for fn in ops.values():
            fn()
        samples = {op: [] for op in ops}
        for _ in range(inner):  # round robin, so that a slow spell of the host is shared by every operation
            for op, fn in ops.items():
                start = time.perf_counter()
                fn()
                samples[op].append((time.perf_counter() - start) * 1e3)
        out["timings_ms"][name] = samples
    from dualpair import selfcheck

    report = selfcheck.run(trials=8, seed=5)  # by keyword, as every tree takes it
    report.pop("p_max", None)  # echoed by older trees, where it changed nothing else
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    out["values"]["selfcheck.run(trials=8, seed=5)"] = digest
    return out


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


def _unpack_src(rev: str, into: Path) -> Path:
    archive = into / "src.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
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


def _run_child(src: Path, inner: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--inner", str(inner)], check=True, capture_output=True, text=True
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=10, help="child processes per side (default 10)")
    ap.add_argument("--inner", type=int, default=5, help="timed calls per operation in each child (default 5)")
    ap.add_argument("--against", metavar="REV", help="also run the src of this git revision, alternating with this tree")
    ap.add_argument("--out", help="write the JSON record here instead of to stdout")
    ap.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps < 1 or args.inner < 1:
        ap.error("--reps and --inner must be at least 1")
    if args.child:
        json.dump(child(args.child, args.inner), sys.stdout)
        return 0

    dirty = bool(_git("status", "--porcelain", "src"))
    sides = {"change": {"src": ROOT / "src", "commit": None if dirty else _git("rev-parse", "HEAD"), "uncommitted_changes": dirty}}
    with tempfile.TemporaryDirectory() as tmp:
        if args.against:
            sides["parent"] = {"src": _unpack_src(args.against, Path(tmp)), "commit": _git("rev-parse", args.against)}
        runs = {side: [] for side in sides}
        order = list(sides)
        for rep in range(args.reps):
            for side in order if rep % 2 == 0 else order[::-1]:
                runs[side].append(_run_child(sides[side]["src"], args.inner))
        for meta in sides.values():
            src = meta.pop("src")
            meta["src_lines"], meta["src_sha256"] = _src_lines(src), _src_sha256(src)

    values = {side: [run["values"] for run in rs] for side, rs in runs.items()}
    identical = all(v == values["change"][0] for vs in values.values() for v in vs)
    record = {
        "python": platform.python_version(),
        "host": _host(),
        "reps": args.reps,
        "inner": args.inner,
        "k": K,
        "curves": {name: {"p": str(p)} for name, p, *_ in CURVES},
        "cli": CLI,
        "values_identical": identical,
        "sides": {},
    }
    for side, meta in sides.items():
        timings = {}
        for name, ops in runs[side][0]["timings_ms"].items():
            timings[name] = {op: _summary([s for run in runs[side] for s in run["timings_ms"][name][op]]) for op in ops}
        ratios = {name: {} for name, *_ in CURVES}
        for name in ratios:
            t = timings[name]
            for op in ("pair.direct", "pair.semaev"):
                paired = [a / b for run in runs[side] for a, b in zip(run["timings_ms"][name][op], run["timings_ms"][name]["pair.rueck"])]
                ratios[name][f"{op}/pair.rueck"] = {
                    "best": t[op]["best"] / t["pair.rueck"]["best"],
                    "median": t[op]["median"] / t["pair.rueck"]["median"],
                    "paired_median": statistics.median(paired),
                }
        record["sides"][side] = {**meta, "values": values[side][0], "timings_ms": timings, "ratios_to_rueck": ratios}
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not identical:
        print("pairing values, recovered n, lifted multiples, isogeny images, selfcheck reports or CLI documents differ between runs",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
