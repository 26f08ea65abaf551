import json
import os
import random
import subprocess
import sys

import pytest

import dualpair
from dualpair import Curve, count_points, find_anomalous, selfcheck
from dualpair.cli import main
from dualpair.errors import BadInputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def anomalous():
    return find_anomalous(50, 2000, 1, seed=60)[0]


@pytest.fixture(scope="module")
def curve_flag(anomalous):
    return json.dumps(anomalous.to_json())


def _point_flag(curve, seed=61):
    P = curve.random_point(random.Random(seed))
    return P, f"{P.x.value},{P.y.value}"


def test_find_anomalous_output_and_validation(capsys):
    code, out, err = run_cli(capsys, "find-anomalous", "--min", "5", "--max", "100", "--count", "1", "--seed", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 1
    c = Curve.from_json(doc[0])
    assert count_points(c) == c.p
    assert 5 <= c.p <= 100


def test_find_anomalous_deterministic(capsys):
    a = run_cli(capsys, "find-anomalous", "--min", "5", "--max", "200", "--count", "2", "--seed", "9")
    b = run_cli(capsys, "find-anomalous", "--min", "5", "--max", "200", "--count", "2", "--seed", "9")
    assert a == b
    assert a[0] == 0


def test_find_anomalous_exhausted_range(capsys):
    # F_5 has only two anomalous curves: the range is known to be exhausted
    # once its 20 nonsingular (A, B) have been tried, long before the budget
    code, out, err = run_cli(capsys, "find-anomalous", "--min", "5", "--max", "5", "--count", "3")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "SearchExhausted" and "holds only 2" in doc["message"]


def test_find_anomalous_usage_errors(capsys):
    code, out, err = run_cli(capsys, "find-anomalous", "--min", "4", "--max", "4")
    assert code == 64
    assert json.loads(err)["error"] == "Usage"
    code, _, err = run_cli(capsys, "find-anomalous", "--min", "2", "--max", "100")
    assert code == 64
    code, _, err = run_cli(capsys, "find-anomalous", "--min", "banana", "--max", "4")
    assert code == 64


def test_pair_k_zero_is_identity(capsys, anomalous, curve_flag):
    _, ptf = _point_flag(anomalous)
    code, out, _ = run_cli(capsys, "pair", "--curve", curve_flag, "--point", ptf, "--k", "0")
    assert code == 0
    assert json.loads(out) == {"one_plus_eps_times": "0"}


def test_pair_infinity_point(capsys, anomalous, curve_flag):
    code, out, _ = run_cli(capsys, "pair", "--curve", curve_flag, "--point", "inf", "--k", "5")
    assert code == 0
    assert json.loads(out) == {"one_plus_eps_times": "0"}


def test_pair_methods_agree(capsys, anomalous, curve_flag):
    _, ptf = _point_flag(anomalous)
    outs = set()
    for method in ("direct", "semaev", "rueck"):
        code, out, _ = run_cli(capsys, "pair", "--curve", curve_flag, "--point", ptf, "--k", "7", "--method", method)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_pair_rejects_non_anomalous(capsys):
    # every route's walk checks p*P = O itself, also when k = 0
    c = Curve.from_json({"p": "31", "A": "1", "B": "0"})
    P = c.random_point(random.Random(3))
    for method in ([], ["--method", "direct"], ["--method", "semaev"], ["--method", "rueck"]):
        for k in ("0", "1"):
            code, _, err = run_cli(
                capsys, "pair", "--curve", json.dumps(c.to_json()), "--point", f"{P.x.value},{P.y.value}", "--k", k, *method
            )
            assert code == 3
            assert json.loads(err)["error"] == "BadTorsion"


def test_dlp_all_methods_same_n(capsys, anomalous, curve_flag):
    P, ptf = _point_flag(anomalous)
    n = 1234 % anomalous.p
    Q = anomalous.mul(n, P)
    qf = f"{Q.x.value},{Q.y.value}" if not Q.is_infinity else "inf"
    got = {}
    for method in ("semaev", "rueck", "pairing", "lift"):
        code, out, _ = run_cli(
            capsys, "dlp", "--curve", curve_flag, "--p-point", ptf, "--q-point", qf, "--method", method
        )
        assert code == 0
        doc = json.loads(out)
        got[method] = int(doc["n"])
        assert doc["method"] == method
    assert set(got.values()) == {n}


def test_dlp_q_equals_p(capsys, anomalous, curve_flag):
    _, ptf = _point_flag(anomalous)
    code, out, _ = run_cli(capsys, "dlp", "--curve", curve_flag, "--p-point", ptf, "--q-point", ptf)
    assert code == 0
    assert json.loads(out)["n"] == "1"


def test_dlp_malformed_point_is_usage(capsys, anomalous, curve_flag):
    code, _, err = run_cli(capsys, "dlp", "--curve", curve_flag, "--p-point", "zork", "--q-point", "inf")
    assert code == 64
    assert json.loads(err)["error"] == "Usage"
    code, _, err = run_cli(capsys, "dlp", "--curve", curve_flag, "--p-point", "1,2,3", "--q-point", "inf")
    assert code == 64


def test_non_integer_json_numbers_are_usage(capsys):
    # a float, an overflowing number or a bool in a curve or point field is a
    # usage error, not a traceback or a silently truncated value
    good_curve = '{"p": 1511, "A": 1301, "B": 497}'
    cases = [
        ('{"p": 1e400, "A": 1, "B": 2}', "1,2"),
        ('{"p": 1511.9, "A": 1301, "B": 497}', "129,526"),
        ('{"p": 1511, "A": true, "B": 497}', "129,526"),
        (good_curve, '{"x": 1e400, "y": 1}'),
        (good_curve, '{"x": 129.7, "y": 526}'),
    ]
    for curve, point in cases:
        code, out, err = run_cli(capsys, "pair", "--curve", curve, "--point", point, "--k", "1")
        assert (code, out) == (64, "")
        assert json.loads(err)["error"] == "Usage"
    expected = run_cli(capsys, "pair", "--curve", '{"p": "1511", "A": "1301", "B": "497"}', "--point", "129,526", "--k", "1")
    assert expected[0] == 0
    for curve, point in [(good_curve, "129,526"), (good_curve, '{"x": 129, "y": "526"}')]:
        assert run_cli(capsys, "pair", "--curve", curve, "--point", point, "--k", "1") == expected


def test_point_file_indirection(tmp_path, capsys, anomalous, curve_flag):
    P, ptf = _point_flag(anomalous)
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(curve_flag)
    point_file = tmp_path / "point.txt"
    point_file.write_text(ptf + "\n")
    code, out, _ = run_cli(
        capsys, "pair", "--curve", f"@{curve_file}", "--point", f"@{point_file}", "--k", "2"
    )
    assert code == 0
    direct = run_cli(capsys, "pair", "--curve", curve_flag, "--point", ptf, "--k", "2")
    assert json.loads(out) == json.loads(direct[1])



def test_unreadable_file_flag_is_usage(tmp_path, capsys, curve_flag):
    missing = tmp_path / "nonexistent"
    code, out, err = run_cli(capsys, "pair", "--curve", curve_flag, "--point", f"@{missing}", "--k", "2")
    assert (code, out) == (64, "")
    assert json.loads(err)["error"] == "Usage"
    code, _, err = run_cli(capsys, "pair", "--curve", f"@{tmp_path}", "--point", "inf", "--k", "2")
    assert code == 64 and json.loads(err)["error"] == "Usage"


def test_selfcheck_p_max_below_five_is_usage(capsys):
    for p_max in ("3", "4", "-1"):
        code, out, err = run_cli(capsys, "selfcheck", "--p-max", p_max)
        assert (code, out) == (64, "")
        assert json.loads(err)["error"] == "Usage"
    with pytest.raises(BadInputError):
        selfcheck.run(3, trials=1)  # the library reports it with a defined error too


def test_selfcheck_passes_and_reproducible(capsys):
    a = run_cli(capsys, "selfcheck", "--p-max", "13", "--trials", "40", "--seed", "5")
    assert a[0] == 0
    report = json.loads(a[1])
    assert report["pass"] is True
    names = {s["name"] for s in report["sections"]}
    assert "torsion_lift_probe" in names
    assert "pairing_three_way_agreement" in names
    b = run_cli(capsys, "selfcheck", "--p-max", "13", "--trials", "40", "--seed", "5")
    assert a == b


def test_unknown_subcommand_is_usage(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 64


def _run_optimized(*argv):
    """Run the CLI under python -O, where assert statements are stripped."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualpair.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "dualpair.cli", *argv], capture_output=True, text=True, env=env, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_results_do_not_depend_on_asserts(capsys, anomalous, curve_flag):
    args = ("selfcheck", "--p-max", "13", "--trials", "20", "--seed", "5")
    code, out, err = _run_optimized(*args)
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True
    assert out == run_cli(capsys, *args)[1]
    P, ptf = _point_flag(anomalous)
    n = 777 % anomalous.p
    Q = anomalous.mul(n, P)
    for method in ("semaev", "rueck", "pairing", "lift"):
        code, out, err = _run_optimized(
            "dlp", "--curve", curve_flag, "--p-point", ptf, "--q-point", f"{Q.x.value},{Q.y.value}", "--method", method
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["n"], doc["method"]) == (str(n), method)
