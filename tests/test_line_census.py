"""scripts/line_census.py on a synthetic tree: it names the one line that never ran, and `UNRUN` excuses it."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_census.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_names_the_unrun_line_of_a_synthetic_tree(tmp_path):
    census = _load("line_census", SCRIPT)
    tree = tmp_path / "tree"
    tree.mkdir()
    source = tree / "sign.py"
    source.write_text('"""Docstrings are no statement lines."""\n\n\ndef sign(x):\n    """Nor is this one."""\n'
                      "    if x < 0:\n        return -1\n    return 1\n")
    recorder = census.Recorder(tree)
    recorder.start()
    try:
        assert _load("sign", source).sign(5) == 1
    finally:
        recorder.stop()
    assert census.statement_lines(source) == {4: "def sign(x):", 6: "if x < 0:", 7: "return -1", 8: "return 1"}
    missing, _ = census.unexplained(tree, recorder.ran, unrun=[])
    assert [(Path(path).name, line, text) for path, line, text in missing] == [("sign.py", 7, "return -1")]
    assert census.unexplained(tree, recorder.ran, unrun=[("sign.py", "return -1", "no caller passes x < 0")]) == ([], {0: 1})
