"""Spans and counters recorded from outside the library.

`Tracer.install` replaces public functions and methods of `dualpair` with
wrappers that open a span on entry and close it on exit.  A function is
replaced in every `dualpair` module namespace that holds it, so calls made
through `from .x import f` are seen too; a method is replaced on its class.
Spans live in flat arrays (name, parent, request, start, end, ok) until the
run ends, when `self_times` reduces them and `write` saves them.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest, so the children cover disjoint parts of
the parent's interval.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

_now = time.perf_counter_ns

#: (module, attribute path, span name) for every wrapped callable.  A span
#: name of None means the name is computed from the call (see `_dlp_solve`).
TARGETS = [
    ("dualpair.numbertheory", "is_prime", "numbertheory.is_prime"),
    ("dualpair.numbertheory", "sqrt_mod", "numbertheory.sqrt_mod"),
    ("dualpair.curve", "Curve.mul", "curve.mul"),
    ("dualpair.curve", "Curve.points", "curve.points"),
    ("dualpair.curve", "Curve.random_point", "curve.random_point"),
    ("dualpair.curve", "is_anomalous", "curve.is_anomalous"),
    ("dualpair.curve", "find_anomalous", "curve.find_anomalous"),
    ("dualpair.miller", "binary_chain", "miller.binary_chain"),
    ("dualpair.miller", "tail_chain", "miller.tail_chain"),
    ("dualpair.dual_curve", "DualCurve.mul", "dual_curve.mul"),
    ("dualpair.dual_curve", "DualCurve.random_lift_coeffs", "dual_curve.random_lift_coeffs"),
    ("dualpair.pairing", "rueck_slope_sum", "pairing.rueck_slope_sum"),
    ("dualpair.pairing", "semaev_coefficient", "pairing.semaev_coefficient"),
    ("dualpair.pairing", "pairing_direct", "pairing.pairing_direct"),
    ("dualpair.pairing", "pairing_semaev", "pairing.pairing_semaev"),
    ("dualpair.pairing", "pairing_rueck", "pairing.pairing_rueck"),
    ("dualpair.pairing", "theta_pairing", "pairing.theta_pairing"),
    ("dualpair.pairing", "lifted_pairing", "pairing.lifted_pairing"),
    ("dualpair.dlp", "DlpInstance.__post_init__", "dlp.instance_check"),
    ("dualpair.dlp", "solve", None),
    ("dualpair.poly", "Polynomial.factor", "poly.factor"),
    ("dualpair.isogeny", "division_polynomial", "isogeny.division_polynomial"),
    ("dualpair.isogeny", "velu_from_kernel_polynomial", "isogeny.velu_from_kernel_polynomial"),
    ("dualpair.isogeny", "find_cyclic_isogeny", "isogeny.find_cyclic_isogeny"),
    ("dualpair.isogeny", "check_functoriality", "isogeny.check_functoriality"),
    ("dualpair.cli", "main", "cli.main"),
]

#: Called once per chain step by every chain walk; counted, not spanned.
COUNTED = [("dualpair.miller", "step_lines", "miller.chain_steps")]


def _dlp_solve(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "rueck")
    return f"dlp.solve.{method}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0)
        self.ok.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int, ok: bool = True) -> None:
        self.end[idx] = _now()
        self.ok[idx] = ok
        self._stack.pop()

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name if name is not None else _dlp_solve(args, kwargs))
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer.close(idx, ok)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, self.current_request)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "dualpair" or k.startswith("dualpair.")]
        for targets, make in ((TARGETS, self._spanned), (COUNTED, self._counted)):
            for modname, path, name in targets:
                owner = sys.modules[modname]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, make(original, name))
                    continue
                original = getattr(owner, path)
                wrapped = make(original, name)
                for mod in modules:
                    if getattr(mod, path, None) is original:
                        self._undo.append((mod, path, original))
                        setattr(mod, path, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, int]:
        """Total self time in ns per span name."""
        n = len(self.name)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        out: dict[str, int] = Counter()
        for i in range(n):
            out[self.names[self.name[i]]] += end[i] - start[i] - child[i]
        return out

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == nid]

    def calls(self, below_request: int) -> tuple[Counter, Counter]:
        """(calls, successful calls) per span name over requests < below_request,
        counted calls included."""
        calls: Counter = Counter()
        good: Counter = Counter()
        for i in range(len(self.name)):
            if 0 <= self.request[i] < below_request:
                nm = self.names[self.name[i]]
                calls[nm] += 1
                good[nm] += self.ok[i]
        for (nm, req), c in self.counts.items():
            if 0 <= req < below_request:
                calls[nm] += c
        return calls, good

    def write(self, path) -> None:
        """Save every span as a tab-separated line: name parent request start_ns end_ns ok."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\trequest\tstart_ns\tend_ns\tok\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.ok[i]}\n"
                )
