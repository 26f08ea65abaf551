"""scripts/bench_layers.py's paired-ratio record on two synthetic two-round runs: one summary of the raw ratios per row;
one cheap row timed alone (`--isolate`); and one shared round in a shuffled order (`--order shuffled`)."""

import importlib.util
import itertools
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_ratios_summarize_each_row_raw():
    bench = _load()
    # each run: layer -> operation -> one child's timings in ms; "isogeny.cm" runs in the first round only
    change = [
        {"timings_ms": {"desk": {"pair.rueck": [2.0, 4.0], "verify": [1.0, 1.0]}, "isogeny.cm": {"isogeny.find": [3.0]}}},
        {"timings_ms": {"desk": {"pair.rueck": [1.0, 1.0], "verify": [0.5, 1.5]}}},
    ]
    parent = [
        {"timings_ms": {"desk": {"pair.rueck": [1.5, 1.5], "verify": [2.0, 2.0]}, "isogeny.cm": {"isogeny.find": [6.0]}}},
        {"timings_ms": {"desk": {"pair.rueck": [2.0, 2.0], "verify": [1.0, 1.0]}}},
    ]
    ratios = bench._paired_ratios(change, parent)
    assert sorted(ratios) == ["desk", "isogeny.cm"]
    assert sorted(ratios["desk"]) == ["pair.rueck", "verify"]
    for row in (*ratios["desk"].values(), *ratios["isogeny.cm"].values()):
        assert {"best", "q1", "median", "q3", "worst", "n", "below_1"} == set(row)  # no control_normalized
    rueck = ratios["desk"]["pair.rueck"]  # rounds 3/1.5 = 2 and 1/2 = 0.5
    assert (rueck["best"], rueck["median"], rueck["worst"], rueck["n"], rueck["below_1"]) == (0.5, 1.25, 2.0, 2, 1)
    assert rueck["q1"] < rueck["median"] < rueck["q3"]
    assert ratios["desk"]["verify"]["median"] == 0.75  # rounds 0.5 and 1
    assert ratios["isogeny.cm"]["isogeny.find"] == {"best": 0.5, "q1": 0.5, "median": 0.5, "q3": 0.5, "worst": 0.5,
                                                     "n": 1, "below_1": 1}


def test_isolate_times_each_named_row_alone(tmp_path):
    # one round: one child for the row, which times only it and records its layer's values
    bench = _load()
    out = tmp_path / "record.json"
    assert bench.main(["--isolate", "desk:verify", "--reps", "1", "--inner", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["isolate"] == ["desk:verify"] and record["modes"] == {"desk": {"verify": "isolated"}}
    assert record["values_identical"] and record["cm_rounds"] == 0
    side = record["sides"]["change"]
    assert list(side["timings_ms"]) == ["desk"] and side["timings_ms"]["desk"]["verify"]["n"] == 2
    assert list(side["values"]) == ["desk:verify"] and "pair.rueck.a" in side["values"]["desk:verify"]


def test_shuffled_order_is_drawn_from_the_recorded_seed(tmp_path, monkeypatch):
    # one round in one shared child, no CM search: the layers and each layer's rows run in the order the
    # round's seed draws, which the record's seed gives again, and every row is timed once per inner call
    bench = _load()
    monkeypatch.setattr(bench, "CM_ROUNDS", 0)
    out = tmp_path / "record.json"
    assert bench.main(["--order", "shuffled", "--seed", "47", "--reps", "1", "--inner", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["values_identical"] and record["order"]["mode"] == "shuffled" and record["order"]["seed"] == 47
    [timed] = record["order"]["rounds"]
    round_seed = bench.random.Random(47).getrandbits(32)  # the first round's, as main draws it for both sides
    layers = bench._drawn(bench.LAYERS, bench.random.Random(round_seed))  # the child's first draw
    assert [name for name, _ in itertools.groupby(row.split(":", 1)[0] for row in timed)] == layers
    timings = record["sides"]["change"]["timings_ms"]
    assert sorted(timed) == sorted(f"{name}:{op}" for name in bench.LAYERS for op in timings[name])
    assert timed != [f"{name}:{op}" for name in bench.LAYERS for op in timings[name]]  # not the fixed order
    assert all(timings[name][op]["n"] == 1 for name in bench.LAYERS for op in timings[name])
    # each search row's kill walks per call: the desk searches walk 547 curves on emptied tables, and none
    # once the warm calls have built the class tables of every prime they visit and kept the verdict of
    # every class they walk; 20 searches with seeds no earlier call ran walk 146, the classes not yet walked
    walks = record["sides"]["change"]["walks"]
    assert sorted(walks) == sorted([*(op for op, *_ in bench.SEARCHES), bench.FRESH])
    assert sum(walks[f"search.find.cold.seed{s}"] for s in range(4)) == 547
    assert sum(walks[f"search.find.seed{s}"] for s in range(4)) == 0
    assert walks[bench.FRESH] == 146
