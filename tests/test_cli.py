import hashlib
import inspect
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


def test_find_anomalous_above_the_count_limit_certifies_without_counting(capsys, monkeypatch):
    # above COUNT_SCAN_LIMIT the CLI's check is is_anomalous, so no count runs; the output
    # is pinned byte for byte, and the curve passes the count.  The handler imports
    # count_points from dualpair.curve when it runs, so that is the one binding to patch.
    import dualpair.curve

    def no_count(curve):
        raise AssertionError("count_points ran above COUNT_SCAN_LIMIT")

    monkeypatch.setattr(dualpair.curve, "count_points", no_count)
    code, out, err = run_cli(capsys, "find-anomalous", "--min", "100000", "--max", "200000", "--seed", "3")
    assert (code, out, err) == (0, '[{"A": "45294", "B": "123952", "p": "131203"}]\n', "")
    monkeypatch.undo()
    c = Curve.from_json(json.loads(out)[0])
    assert c.p > dualpair.curve.COUNT_SCAN_LIMIT and count_points(c) == c.p


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


def test_find_anomalous_help_names_the_search_budget(capsys):
    # the subcommand's help, in the command list and its own, gives the budget
    # after which the search exits 2, as find_anomalous's default sets it
    budget = f'{inspect.signature(find_anomalous).parameters["budget"].default:,} trials'
    for argv in (["--help"], ["find-anomalous", "--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert budget in text and "exit 2" in text


def test_find_anomalous_usage_errors(capsys):
    code, out, err = run_cli(capsys, "find-anomalous", "--min", "4", "--max", "4")
    assert code == 64
    assert json.loads(err)["error"] == "Usage"
    code, _, err = run_cli(capsys, "find-anomalous", "--min", "2", "--max", "100")
    assert code == 64
    code, _, err = run_cli(capsys, "find-anomalous", "--min", "banana", "--max", "4")
    assert code == 64
    for argv in (("--min", "100", "--max", "50"), ("--min", "5", "--max", "100", "--count", "0")):
        code, out, err = run_cli(capsys, "find-anomalous", *argv)
        assert (code, out) == (64, "")
        assert json.loads(err) == {"error": "Usage", "message": "need --max >= --min and --count >= 1"}


@pytest.mark.parametrize("p,a,b", [(31, 1, 0), (100_003, 1, 1)])
def test_find_anomalous_rejects_a_search_result_that_is_not_anomalous(capsys, monkeypatch, p, a, b):
    # the CLI checks each curve the search returns, by the count up to COUNT_SCAN_LIMIT and by
    # is_anomalous above it; the handler imports find_anomalous from dualpair.curve when it runs
    import dualpair.curve

    c = Curve.from_json({"p": str(p), "A": str(a), "B": str(b)})
    assert count_points(c) != p and (p <= dualpair.curve.COUNT_SCAN_LIMIT) == (p == 31)
    monkeypatch.setattr(dualpair.curve, "find_anomalous", lambda *args: [c])
    code, out, err = run_cli(capsys, "find-anomalous", "--min", "5", "--max", str(p))
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "Error" and doc["message"] == f"search returned {c!r}, which is not anomalous"


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


def test_dlp_on_a_p5_curve_with_ten_points_is_bad_torsion(capsys):
    # P = (1, 2) has order 5 on y^2 = x^3 + 3x over F_5, but #E = 10
    curve = json.dumps({"p": "5", "A": "3", "B": "0"})
    for method in ("semaev", "rueck", "pairing", "lift"):
        code, out, err = run_cli(capsys, "dlp", "--curve", curve, "--p-point", "1,2", "--q-point", "0,0", "--method", method)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "BadTorsion", "message": "the curve is not anomalous: p*P != infinity"}


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


def test_decimal_strings_are_strict(capsys):
    # a string integer is an optional "-" and ASCII digits, in JSON fields and
    # in each coordinate of the x,y form; int() would take each of the rejected
    # forms, and the accepted ones give the document of the plain form
    good_curve, good_point = '{"p": "1511", "A": "1301", "B": "497"}', "129,526"
    expected = run_cli(capsys, "pair", "--curve", good_curve, "--point", good_point, "--k", "5")
    assert expected[0] == 0 and json.loads(expected[1]) == {"one_plus_eps_times": "1226"}
    rejected = ["1_511", " 1511 ", "1511\\n", "+1511", "", "-", "1511.0", "0x5e7", "\u0661\u0665\u0661\u0661", "\uff11\uff15\uff11\uff11"]
    cases = [('{"p": "%s", "A": "1301", "B": "497"}' % p, good_point) for p in rejected]
    cases += [('{"p": "1511", "A": "\u0661\u0663\u0660\u0661", "B": "497"}', good_point)]
    cases += [(good_curve, '{"x": "%s", "y": "526"}' % x) for x in ("1_29", " 129", "+129", "\u0661\u0662\u0669")]
    cases += [(good_curve, point) for point in ("1_29,526", "129,5_26", "+129,526", "129,", ",526", "\u0661\u0662\u0669,526", "12 9,526")]
    for curve, point in cases:
        code, out, err = run_cli(capsys, "pair", "--curve", curve, "--point", point, "--k", "5")
        assert (code, out) == (64, ""), (curve, point)
        assert json.loads(err)["error"] == "Usage"
    accepted = [
        ('{"p": 1511, "A": 1301, "B": 497}', good_point),
        ('{"p": "1511", "A": "-210", "B": "0497"}', good_point),
        (good_curve, "129, 526"),
        (good_curve, " 129 ,526 "),
        (good_curve, "129,-985"),
        (good_curve, '{"x": 129, "y": "-985"}'),
    ]
    for curve, point in accepted:
        assert run_cli(capsys, "pair", "--curve", curve, "--point", point, "--k", "5") == expected, (curve, point)


def test_integer_flags_are_strict(capsys):
    # every integer flag takes an optional "-" and ASCII digits, as json_int does;
    # int() would take each of the rejected forms
    curve = '{"p": "1511", "A": "1301", "B": "497"}'
    commands = {
        "find-anomalous": ["--min", "5", "--max", "100", "--count", "1", "--seed", "3"],
        "pair": ["--curve", curve, "--point", "129,526", "--k", "5", "--seed", "3"],
        "dlp": ["--curve", curve, "--p-point", "129,526", "--q-point", "988,1402", "--method", "lift", "--seed", "3"],
        "selfcheck": ["--trials", "1", "--seed", "3"],
    }
    arabic_indic = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))
    for command, argv in commands.items():
        expected = run_cli(capsys, command, *argv)
        assert expected[0] == 0
        for i in range(0, len(argv), 2):
            if argv[i] in ("--curve", "--point", "--p-point", "--q-point", "--method"):
                continue
            value = argv[i + 1]
            for bad in (value + "_0", "+" + value, " " + value, value.translate(arabic_indic)):
                assert int(bad) in (int(value), 10 * int(value))
                changed = argv[: i + 1] + [bad] + argv[i + 2:]
                code, out, err = run_cli(capsys, command, *changed)
                assert (code, out) == (64, ""), (command, argv[i], bad)
                assert json.loads(err)["error"] == "Usage"
            changed = argv[: i + 1] + ["0" + value] + argv[i + 2:]
            assert run_cli(capsys, command, *changed) == expected, (command, argv[i])
    pair = commands["pair"]
    assert json.loads(run_cli(capsys, "pair", *pair)[1]) == {"one_plus_eps_times": "1226"}
    minus = run_cli(capsys, "pair", *pair[:4], "--k", "-5")
    assert minus == run_cli(capsys, "pair", *pair[:4], "--k", "1506")
    assert minus[0] == 0 and json.loads(minus[1]) == {"one_plus_eps_times": str(-1226 % 1511)}


def test_point_inf_must_be_a_json_bool(capsys):
    curve = '{"p": 1511, "A": 1301, "B": 497}'
    expected = run_cli(capsys, "pair", "--curve", curve, "--point", "129,526", "--k", "5")
    assert expected[0] == 0 and json.loads(expected[1]) == {"one_plus_eps_times": "1226"}
    point = '{"inf": false, "x": "129", "y": "526"}'
    assert run_cli(capsys, "pair", "--curve", curve, "--point", point, "--k", "5") == expected
    for inf in ('"false"', "1", "0"):
        point = '{"inf": %s, "x": "129", "y": "526"}' % inf
        code, out, err = run_cli(capsys, "pair", "--curve", curve, "--point", point, "--k", "5")
        assert (code, out) == (64, "")
        assert json.loads(err)["error"] == "Usage"
    code, out, _ = run_cli(capsys, "pair", "--curve", curve, "--point", '{"inf": true}', "--k", "5")
    assert code == 0 and json.loads(out) == {"one_plus_eps_times": "0"}


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


def test_selfcheck_has_no_p_max_flag(capsys):
    # the suite runs on F_5's two anomalous curves whatever the caller asks for,
    # so a prime bound is not a setting of it
    code, out, err = run_cli(capsys, "selfcheck", "--p-max", "13")
    assert (code, out) == (64, "")
    assert json.loads(err)["error"] == "Usage"
    with pytest.raises(TypeError):
        selfcheck.run(13, 8, 5)  # nor of the library's run


def test_selfcheck_trials_below_one_is_usage(capsys):
    # a suite that checks nothing must not report a pass
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "selfcheck", "--trials", trials)
        assert (code, out) == (64, "")
        assert json.loads(err)["error"] == "Usage"
    with pytest.raises(BadInputError):
        selfcheck.run(trials=0)


def test_selfcheck_one_trial_checks_every_section():
    report = selfcheck.run(trials=1)
    assert report["pass"] is True
    assert all(section["checked"] >= 1 for section in report["sections"])


def test_selfcheck_passes_and_reproducible(capsys):
    a = run_cli(capsys, "selfcheck", "--trials", "40", "--seed", "5")
    assert a[0] == 0
    report = json.loads(a[1])
    assert report["pass"] is True
    names = {s["name"] for s in report["sections"]}
    assert "torsion_lift_probe" in names
    assert "pairing_three_way_agreement" in names
    b = run_cli(capsys, "selfcheck", "--trials", "40", "--seed", "5")
    assert a == b


def test_selfcheck_reports_an_attack_error_as_a_failed_check(capsys, monkeypatch):
    # a broken attack fails its instances, counted by error code; every
    # section is still reported, and the CLI exits 1 with the report
    from dualpair import dlp
    from dualpair.errors import DualPairError

    def broken(inst, seed):
        raise DualPairError("broken attack")

    monkeypatch.setitem(dlp._ATTACKS, "lift", broken)
    report = selfcheck.run(trials=8, seed=5)
    sections = {s["name"]: s for s in report["sections"]}
    assert report["pass"] is False
    assert [name for name, s in sections.items() if not s["pass"]] == ["attack_agreement"]
    agreement = sections["attack_agreement"]
    assert agreement["failed"] == agreement["checked"] == 4
    assert agreement["detail"] == {"errors": {"Error": 4}}
    assert len(sections) == 9
    code, out, err = run_cli(capsys, "selfcheck", "--trials", "8", "--seed", "5")
    assert (code, err) == (1, "")
    assert json.loads(out) == json.loads(json.dumps(report))


def test_selfcheck_tells_a_from_b_in_the_scaling_witness(monkeypatch):
    # selfcheck's curve has A = B, so a witness that reads B where it should
    # read A passes there; the second curve of the lift sections, with A != B,
    # fails it
    from dualpair import DualCurve

    monkeypatch.setattr(DualCurve, "has_scaling_witness", lambda self: 6 * self.base.B * self.A1 == 4 * self.base.B * self.B1)
    report = selfcheck.run(trials=4)
    assert report["pass"] is False
    failing = {s["name"] for s in report["sections"] if not s["pass"]}
    assert failing == {"canonical_witness_biconditional", "torsion_lift_probe"}
    probe = next(s for s in report["sections"] if s["name"] == "torsion_lift_probe")
    assert [c["curve"] for c in probe["detail"]] == [{"p": "5", "A": "3", "B": "3"}, {"p": "5", "A": "3", "B": "2"}]


@pytest.mark.parametrize(
    "args, digest",
    [
        ((8, 5), "d4a602c3d0eb5b60d814a41254e4b9957eebdf03a2132d5f0b6b1f9818e65921"),
        ((100, 0xC11E), "80362a5a6905140e541e94ece60962079eec728cba652c9486543cc05c5b4b15"),
    ],
)
def test_selfcheck_report_is_pinned(args, digest):
    # the report's exact bytes: every section draws from the shared rng in one
    # fixed order, so the same (trials, seed) names the same report
    report = json.dumps(selfcheck.run(*args), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_selfcheck_takes_each_lift_j_value_once(monkeypatch):
    # the biconditional reads the j-values torsion_preserving_lifts has taken,
    # and asks canonical_witness for k on the scaling lifts only
    from dualpair import DualCurve

    j_value, witness = DualCurve.j_value, selfcheck.canonical_witness
    j_calls, witness_calls = [], []

    def counted_j_value(self):
        j_calls.append((self.base.A.value, self.base.B.value, self.A1.value, self.B1.value))
        return j_value(self)

    def recorded_witness(dc):
        witness_calls.append(dc.has_scaling_witness())
        return witness(dc)

    monkeypatch.setattr(DualCurve, "j_value", counted_j_value)
    monkeypatch.setattr(selfcheck, "canonical_witness", recorded_witness)
    report = selfcheck.run()
    assert report["pass"] is True
    biconditional = next(s for s in report["sections"] if s["name"] == "canonical_witness_biconditional")
    assert biconditional["checked"] == 50  # every lift of both p = 5 curves
    assert len(j_calls) == len(set(j_calls)) == 50
    assert witness_calls == [True] * 10  # the p scaling lifts k*(4A, 6B) of each curve


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
    args = ("selfcheck", "--trials", "20", "--seed", "5")
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
