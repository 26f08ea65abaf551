"""Which statement lines of src/dualpair the tier-1 tests never run.

A pytest run with a plugin that uses only the standard library.  From
before the conftests load to the end of the session it records each line
that runs in a file under src/dualpair: with `sys.monitoring` on Python
3.12 and later, each line reported once and then switched off, and with
`sys.settrace` before.  At the end it lists every statement line that never ran and that
`UNRUN` gives no reason for, and the session exits 1 if there is any.  A
statement line is the first line of a statement; docstrings, and `global`
and `nonlocal` declarations, which compile to no code, are none.

    PYTHONPATH=src python scripts/line_census.py [pytest arguments]

Each unrun line gets a test, or is deleted, or goes on `UNRUN` with its
reason, as `UNREAD` in tests/test_readers.py does for definitions.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dualpair"
#: the nodes whose body may open with a docstring, which is no statement line
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: (file name; the line's text, stripped; reason): unrun lines that stay, matched by pattern
UNRUN = [
    ("poly.py", "words.byteswap()", "runs only on a big-endian host, where array's machine words are not little-endian"),
    ("cli.py", "sys.exit(main())", "runs only when cli is the main module, in child processes that the census does not record"),
]


def statement_lines(path: Path) -> dict[int, str]:
    """line -> stripped text, for the first line of each statement in the file at path."""
    source = path.read_text()
    text = source.splitlines()
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree) if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None}
    return {
        node.lineno: text[node.lineno - 1].strip()
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal)) and id(node) not in docstrings
    }


class Recorder:
    """The (file, line) pairs that run in files under root between `start` and `stop`."""

    def __init__(self, root: Path):
        self.root = os.path.join(os.path.abspath(root), "")
        self.ran: set[tuple[str, int]] = set()
        self._files: dict[str, str | None] = {}  # co_filename -> its absolute path, or None outside root

    def _file(self, name: str) -> str | None:
        if name not in self._files:
            path = os.path.abspath(name)
            self._files[name] = path if path.startswith(self.root) else None
        return self._files[name]

    if sys.version_info >= (3, 12):

        def start(self):
            mon = sys.monitoring  # the coverage tool's id, or the next free one under a census that runs this one
            self._tool = next(i for i in range(mon.COVERAGE_ID, mon.OPTIMIZER_ID) if mon.get_tool(i) is None)
            mon.use_tool_id(self._tool, "line_census")
            mon.register_callback(self._tool, mon.events.LINE, self._line)
            mon.set_events(self._tool, mon.events.LINE)

        def stop(self):
            mon = sys.monitoring
            mon.set_events(self._tool, 0)
            mon.register_callback(self._tool, mon.events.LINE, None)
            mon.free_tool_id(self._tool)

        def _line(self, code, line):
            path = self._file(code.co_filename)
            if path is not None:
                self.ran.add((path, line))
            return sys.monitoring.DISABLE

    else:

        def start(self):
            self._previous = sys.gettrace(), threading.gettrace()
            sys.settrace(self._call)
            threading.settrace(self._call)

        def stop(self):
            sys.settrace(self._previous[0])
            threading.settrace(self._previous[1])

        def _call(self, frame, event, arg):
            return self._local if self._file(frame.f_code.co_filename) is not None else None

        def _local(self, frame, event, arg):
            if event == "line":
                self.ran.add((self._file(frame.f_code.co_filename), frame.f_lineno))
            return self._local


def unexplained(root: Path, ran: set, unrun=UNRUN) -> tuple[list, dict]:
    """([(path, line, text)] for each unrun statement line under root that no `unrun` entry matches,
    {entry index: lines it matched})."""
    missing, matched = [], {}
    for path in sorted(Path(root).resolve().rglob("*.py")):
        name = str(path)
        for line, text in sorted(statement_lines(path).items()):
            if (name, line) in ran:
                continue
            hit = next((i for i, (file, pattern, _) in enumerate(unrun) if file == path.name and text == pattern), None)
            if hit is None:
                missing.append((name, line, text))
            else:
                matched[hit] = matched.get(hit, 0) + 1
    return missing, matched


class Census:
    """The pytest plugin: a `Recorder` of root from before the conftests load, and its report at the session's end."""

    def __init__(self, root: Path):
        self.root = root
        self.recorder = Recorder(root)
        self.result: tuple[list, dict] | None = None

    def pytest_load_initial_conftests(self, early_config, parser, args):
        self.recorder.start()

    def pytest_sessionfinish(self, session, exitstatus):
        self.recorder.stop()
        self.result = unexplained(self.root, self.recorder.ran)
        if self.result[0] and not session.exitstatus:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        if self.result is None:
            return
        missing, matched = self.result
        write = terminalreporter.write_line
        terminalreporter.section("line census")
        for i, (file, pattern, reason) in enumerate(UNRUN):
            write(f"UNRUN {matched.get(i, 0):3d} x {file}: {pattern}  ({reason})")
        for path, line, text in missing:
            write(f"unrun: {os.path.relpath(path)}:{line}: {text}")
        write(f"{len(missing)} unrun statement lines without a reason")


def main(argv=None) -> int:
    import pytest

    return pytest.main(sys.argv[1:] if argv is None else argv, plugins=[Census(SRC)])


if __name__ == "__main__":
    sys.exit(main())
