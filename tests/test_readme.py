"""The README's CLI examples and library quick tour, run as written."""

import json
import pathlib
import re
import shlex

from dualpair.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _examples():
    """(argv, expected JSON) for every README command followed by a JSON `# ->` line."""
    out = []
    for block in _blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        for line, after in zip(lines, lines[1:]):
            if line.startswith("dualpair ") and after.startswith("# -> "):
                try:
                    expected = json.loads(after[len("# -> "):])
                except json.JSONDecodeError:
                    continue  # an output shape such as [{"A": "...", ...}, ...]
                out.append((shlex.split(line)[1:], expected))
    return out


def test_readme_cli_examples(capsys):
    examples = _examples()
    assert sorted(argv[0] for argv, _ in examples) == ["dlp", "pair"]
    for argv, expected in examples:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (json.loads(captured.out), captured.err) == (expected, "")


def test_readme_quick_tour():
    (tour,) = [b for b in _blocks("python") if "from dualpair import" in b]
    exec(compile(tour, str(README), "exec"), {})
