"""The library surface that the benchmark reads.

`perfbench/tracing.py` wraps library functions by module and name, and
`perfbench/workloads.py` sends arguments that the library accepts without
using them (an rng or a seed).  These tests keep both working, so that a
change to src that would break the benchmark fails here first.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

from dualpair import Curve, DualCurve, Point, check_functoriality, pairing_direct, pairing_rueck, theta_pairing
from dualpair.cli import main
from dualpair.fields import Fp
from dualpair.isogeny import multiplication_isogeny

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

#: The desk curve of the README, G and Q = 1234*G on it.
DESK = {"p": "1511", "A": "1301", "B": "497"}
G, Q = (129, 526), (988, 1402)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    names = [(modname, path) for modname, path, _ in tracing.TARGETS + tracing.COUNTED]
    for modname, _ in names:  # the package loads submodules on first use, so load each one the tracer patches
        importlib.import_module(modname)
    originals = [_resolve(*name) for name in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, original in zip(names, originals):
            assert _resolve(*name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    assert [_resolve(*name) for name in names] == originals


def _desk():
    curve = Curve(Fp(int(DESK["p"])), int(DESK["A"]), int(DESK["B"]))
    return curve, Point(curve.field(G[0]), curve.field(G[1]))


def test_the_rng_forms_the_workloads_send():
    curve, P = _desk()
    dc = DualCurve.canonical(curve)
    want = pairing_rueck(dc, P, 1)
    assert pairing_direct(dc, P, 1, rng=random.Random(curve.p)) == want
    for method in ("direct", "semaev", "rueck"):
        assert theta_pairing(dc, P, 1, method, random.Random(curve.p + 1)) == want
    Pt = dc.translate(dc.embed(P), dc.field(3))
    Qt = dc.translate(dc.embed(curve.mul(5, P)), dc.field(7))
    assert check_functoriality(multiplication_isogeny(curve, 2), Pt, Qt, rng=random.Random(1)) is True


def test_the_seed_flags_the_workloads_send(capsys):
    curve, P = _desk()
    a = pairing_rueck(DualCurve.canonical(curve), P, 1).a.value
    flags = ["--curve", json.dumps(DESK), "--seed", "77"]
    for method in ("direct", "semaev", "rueck"):
        assert main(["pair", *flags, "--point", "%d,%d" % G, "--k", "3", "--method", method]) == 0
        assert json.loads(capsys.readouterr().out) == {"one_plus_eps_times": str(3 * a % curve.p)}
    for method in ("semaev", "rueck", "pairing", "lift"):
        assert main(["dlp", *flags, "--p-point", "%d,%d" % G, "--q-point", "%d,%d" % Q, "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["method"]) == ("1234", method)


def test_the_tracer_counts_every_chain_step():
    # miller.chain_steps counts calls of miller.step_lines through the module
    # global; a walk that called jacobian_add by its own name would count 0
    from dualpair.miller import chain_for
    from dualpair.pairing import rueck_slope_sum

    curve, P = _desk()
    steps = len(chain_for(curve.p, None).steps)
    tracer = _load_tracing().Tracer()
    tracer.current_request = 0
    try:
        tracer.install()
        rueck_slope_sum(curve, P)
    finally:
        tracer.uninstall()
    calls, _ = tracer.calls(1)
    assert steps > 0 and calls["miller.chain_steps"] == steps
