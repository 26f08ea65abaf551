"""What a process loads: the package surface resolves on first use, and each
CLI subcommand imports only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualpair

SRC = str(Path(dualpair.__file__).resolve().parent.parent)
SUBMODULES = sorted(f.stem for f in Path(dualpair.__file__).parent.glob("*.py") if f.stem != "__init__")

#: every name the package exports, by the module that defines it
EXPORTS = {
    "curve": ["INFINITY", "Curve", "Point", "count_points", "find_anomalous", "hasse_interval"],
    "dlp": [
        "AttackResult",
        "DlpInstance",
        "attack_lift",
        "attack_pairing",
        "attack_rueck",
        "attack_semaev",
        "canonical_witness",
        "solve",
        "torsion_preserving_lifts",
    ],
    "dual_curve": ["DualCurve", "DualPoint"],
    "errors": ["DualPairError"],
    "fields": ["DualNumber", "Fp", "FpElement"],
    "isogeny": [
        "Isogeny",
        "check_functoriality",
        "compute_m",
        "division_polynomial",
        "find_cyclic_isogeny",
        "frobenius_isogeny",
        "identity_isogeny",
        "multiplication_isogeny",
        "velu",
        "velu_from_kernel_polynomial",
    ],
    "miller": ["binary_chain", "h_eval", "incremental_chain", "miller_eval", "tail_chain", "weil_pairing"],
    "pairing": [
        "PairingValue",
        "lifted_pairing",
        "pairing_direct",
        "pairing_rueck",
        "pairing_semaev",
        "rueck_slope_sum",
        "semaev_coefficient",
        "semaev_log_derivative",
        "theta_pairing",
    ],
    "poly": ["Polynomial", "cubic_roots"],
}
NAMES = {name for names in EXPORTS.values() for name in names}

#: the README's desk curve, G and Q = 1234*G on it
CURVE = '{"p": "1511", "A": "1301", "B": "497"}'
G, Q = "129,526", "988,1402"
#: the dualpair modules each subcommand loads
PAIR = {"cli", "curve", "dual_curve", "errors", "fields", "miller", "numbertheory", "pairing"}
DLP = PAIR | {"dlp"}
FIND = {"cli", "curve", "errors", "fields", "numbertheory"}


def _child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh `python -S` that imports dualpair from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_every_name_resolves_to_its_home_object():
    for module, names in EXPORTS.items():
        home = getattr(dualpair, module)
        for name in names:
            assert getattr(dualpair, name) is getattr(home, name), name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from dualpair import *", namespace)
    assert len(NAMES) == 48
    assert set(namespace) - {"__builtins__"} == NAMES
    assert set(dualpair.__all__) == NAMES


def test_dir_lists_every_export_and_submodule():
    assert NAMES | set(SUBMODULES) <= set(dir(dualpair))


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "jacobian_mul", "COUNT_SCAN_LIMIT"):  # the last two are curve's, not exported
        with pytest.raises(AttributeError):
            getattr(dualpair, name)


def test_bare_import_loads_nothing_and_every_submodule_resolves():
    code = (
        "import json, sys, types, dualpair\n"
        "loaded = [m for m in sys.modules if m.startswith('dualpair.')]\n"
        "subs = json.loads(sys.argv[1])\n"
        "ok = [isinstance(getattr(dualpair, s), types.ModuleType) and getattr(dualpair, s).__name__ == 'dualpair.' + s"
        " for s in subs]\n"
        "print(json.dumps([loaded, ok]))\n"
    )
    proc = _child(code, json.dumps(SUBMODULES))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [True] * len(SUBMODULES)]


_CLI = (
    "import json, sys\n"
    "from dualpair.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write(json.dumps([code, sorted(sys.modules)]))\n"
)
_RUNS = [
    *[
        pytest.param(["pair", "--curve", CURVE, "--point", G, "--k", "3", "--method", m], PAIR, id=f"pair-{m}")
        for m in ("direct", "semaev", "rueck")
    ],
    *[
        pytest.param(["dlp", "--curve", CURVE, "--p-point", G, "--q-point", Q, "--method", m], DLP, id=f"dlp-{m}")
        for m in ("semaev", "rueck", "pairing", "lift")
    ],
    pytest.param(["find-anomalous", "--min", "1000", "--max", "1500", "--seed", "0"], FIND, id="find-anomalous"),
]


@pytest.mark.parametrize("argv, want", _RUNS)
def test_each_subcommand_loads_only_its_modules(argv, want):
    proc = _child(_CLI, *argv)
    code, modules = json.loads(proc.stderr)
    assert code == 0 and proc.stdout.endswith("\n")
    if argv[0] == "dlp":
        assert json.loads(proc.stdout)["n"] == "1234"
    assert {m.split(".", 1)[1] for m in modules if m.startswith("dualpair.")} == want
    assert not {"dualpair.isogeny", "dualpair.selfcheck", "dualpair.poly"} & set(modules)
    assert not {"dataclasses", "inspect"} & set(modules)
