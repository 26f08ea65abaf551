"""The four workloads: set-up, one rotation of requests, and the checks.

Every workload is a closed loop with one client: the next request starts
when the previous one has returned.  A *cycle* is one full rotation over
the workload's (curve, operation) pairs; runs always finish the cycle they
are in, so every run does the same mix of work.  The library sees only the
generated inputs; each output is checked against references built with
`ecint` (plain ints) or once at set-up, and no check is timed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import cm
import ecint
import speed
from dualpair import cli, curve, dlp, isogeny, pairing
from dualpair.curve import Curve, Point
from dualpair.dual_curve import DualCurve, DualPoint
from dualpair.errors import NotRationalError
from dualpair.fields import DualNumber, Fp

#: The seven library operations every pairing workload rotates through.
ROTATION = [
    ("solve", "semaev"),
    ("solve", "rueck"),
    ("solve", "pairing"),
    ("solve", "lift"),
    ("pair", "direct"),
    ("pair", "semaev"),
    ("pair", "rueck"),
]
#: The desk pool is one fixed search, so every seed times the same curves
#: (their cost differs by 4x at l = 13); the seed picks generators, scalars
#: and lifted points.  Four curves keep an isogeny cycle near 10 s on a
#: 2-core Xeon (Python 3.11), so a run of two cycles stays under half a minute.
DESK_RANGE = (1000, 1500)
DESK_POOL = 4
DESK_POOL_SEED = 0
#: `find_anomalous(1000, 1500, count=1, seed=s)` cycles over these seeds.
SEARCH_SEEDS = tuple(range(DESK_POOL))
CRYPTO_BITS = 256
CRYPTO_CURVES = 4
ELLS = (3, 5, 7, 11, 13)


class SetupError(Exception):
    """The set-up produced data that failed its own reference check."""


class ChildFailed(Exception):
    """A cli child exited with a non-zero status."""


@dataclass
class Target:
    """One curve with its generator G and the ground-truth a(G)."""

    p: int
    a: int
    b: int
    G: tuple[int, int]
    curve: Curve
    aG: int = 0
    note: str = ""


@dataclass
class Request:
    kind: str  # solve.<method> | pair.<method> | search | isogeny.<ell> | cli.<cmd>
    run: object  # zero-argument callable: the timed call
    check: object  # result -> bool
    argv: list = field(default_factory=list)  # cli workload only
    curve: int = 0  # index of the curve (or search seed) in the workload's pool
    #: An exception type that is the right answer (no rational isogeny).
    expect_error: type | None = None


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(x) for x in parts))


def _point(c: Curve, xy) -> Point:
    return Point(c.field(xy[0]), c.field(xy[1]))


def _target(p: int, a: int, b: int, rng: random.Random) -> Target:
    G = ecint.random_point(a, b, p, rng)
    return Target(p, a, b, G, Curve(Fp(p), a, b))


def _ground_truth(t: Target) -> None:
    """a(G) from e(G, O_1) = 1 + a*eps by the direct route (timed at set-up)."""
    dc = DualCurve.canonical(t.curve)
    t.aG = pairing.pairing_direct(dc, _point(t.curve, t.G), 1, rng=random.Random(t.p)).a.value


def _confirm_ground_truth(t: Target) -> None:
    dc = DualCurve.canonical(t.curve)
    G = _point(t.curve, t.G)
    for method in ("semaev", "rueck"):
        a = pairing.theta_pairing(dc, G, 1, method, random.Random(t.p + 1)).a.value
        if a != t.aG or a == 0:
            raise SetupError(f"a(G) by {method} is {a}, by direct {t.aG} (p={t.p})")


def _desk_pool(seed: int) -> list[Target]:
    found = curve.find_anomalous(*DESK_RANGE, count=DESK_POOL, seed=DESK_POOL_SEED)
    rng = _rng(seed, "desk-generators")
    return [_target(c.p, c.A.value, c.B.value, rng) for c in found]


def _certify_desk(targets: list[Target]) -> None:
    for t in targets:
        if not DESK_RANGE[0] <= t.p <= DESK_RANGE[1] or ecint.count_points(t.a, t.b, t.p) != t.p:
            raise SetupError(f"search returned a curve that is not anomalous: {t.p, t.a, t.b}")


# -- request builders -------------------------------------------------------------


def _solve_request(t: Target, method: str, rng: random.Random) -> Request:
    p, a = t.p, t.a
    m, n = rng.randrange(1, p), rng.randrange(1, p)
    Pxy = ecint.mul(m, t.G, a, p)
    Qxy = ecint.mul(n, Pxy, a, p)
    P, Q = _point(t.curve, Pxy), _point(t.curve, Qxy)

    def run():
        return dlp.solve(dlp.DlpInstance(t.curve, P, Q), method)

    return Request(f"solve.{method}", run, lambda r: r.n == n)


def _pair_request(t: Target, method: str, rng: random.Random) -> Request:
    p = t.p
    m, k = rng.randrange(1, p), rng.randrange(1, p)
    P = _point(t.curve, ecint.mul(m, t.G, t.a, p))
    expect = t.aG * m * k % p
    route_rng = rng.getrandbits(32)

    def run():
        dc = DualCurve.canonical(t.curve)
        return pairing.theta_pairing(dc, P, k, method, random.Random(route_rng))

    return Request(f"pair.{method}", run, lambda v: v.a.value == expect)


def _tagged(i: int, requests: list[Request]) -> list[Request]:
    for req in requests:
        req.curve = i
    return requests


def _rotation(t: Target, *key) -> list[Request]:
    """The seven operations of ROTATION on one curve, with fresh inputs."""
    out = []
    for j, (op, method) in enumerate(ROTATION):
        build = _solve_request if op == "solve" else _pair_request
        out.append(build(t, method, _rng(*key, j)))
    return out


def _search_ok(found: list[tuple[int, int, int]]) -> bool:
    """One (p, A, B) in range, with p prime and exactly p points."""
    return len(found) == 1 and all(
        DESK_RANGE[0] <= p <= DESK_RANGE[1] and ecint.is_probable_prime(p) and ecint.count_points(a, b, p) == p
        for p, a, b in found
    )


def _search_request(s: int) -> Request:
    return Request(
        "search",
        lambda: curve.find_anomalous(*DESK_RANGE, count=1, seed=s),
        lambda found: _search_ok([(c.p, c.A.value, c.B.value) for c in found]),
    )


def _lifted(t: Target, rng: random.Random) -> DualPoint:
    """P + O_k on the canonical lift, for P = m*G, built from plain ints."""
    p = t.p
    x0, y0 = ecint.mul(rng.randrange(1, p), t.G, t.a, p)
    k = rng.randrange(1, p)
    f = t.curve.field
    return DualPoint.affine(
        DualNumber(f(x0), f(-2 * y0 * k)), DualNumber(f(y0), f(-(3 * x0 * x0 + t.a) * k))
    )


def _isogeny_request(t: Target, ell: int, rng: random.Random) -> Request:
    Pt, Qt = _lifted(t, rng), _lifted(t, rng)
    exists = ecint.has_rational_isogeny(t.p, ell)
    route_rng = rng.getrandbits(32)

    def run():
        phi = isogeny.find_cyclic_isogeny(t.curve, ell)
        return phi, isogeny.check_functoriality(phi, Pt, Qt, rng=random.Random(route_rng))

    def check(result):
        phi, functorial = result
        return exists and functorial and phi.degree == ell and phi.source == t.curve

    # NotRationalError is the right answer only when no isogeny exists; when
    # one exists it is a miss and fails the request.
    return Request(f"isogeny.{ell}", run, check, expect_error=None if exists else NotRationalError)


# -- workloads ----------------------------------------------------------------------


class Workload:
    name = ""

    def setup(self, seed: int):
        """Timed set-up; returns the state `cycle` draws requests from."""
        raise NotImplementedError

    def verify(self, state) -> None:
        """Untimed reference checks of the set-up; raises SetupError."""

    def cycle(self, state, seed: int, c: int) -> list[Request]:
        raise NotImplementedError

    def layer_p(self, state) -> int:
        return state[0].p

    def speedometer(self) -> speed.Speedometer:
        return speed.Speedometer(speed.compute_reference_ns, speed.COMPUTE_NOMINAL_MS, 50_000_000)


class Crypto256(Workload):
    name = "crypto-256"

    def setup(self, seed):
        rng = _rng(seed, "cm")
        ds = sorted(cm.J_INVARIANTS)
        targets = []
        for i in range(CRYPTO_CURVES):
            D = ds[(seed + i) % len(ds)]
            c = cm.anomalous_cm_curve(CRYPTO_BITS, D, rng)
            t = Target(c.p, c.a, c.b, c.G, Curve(Fp(c.p), c.a, c.b), note=f"D={c.D} v={c.v}")
            _ground_truth(t)
            targets.append(t)
        return targets

    def verify(self, state):
        for t in state:
            _confirm_ground_truth(t)

    def cycle(self, state, seed, c):
        return [req for i, t in enumerate(state) for req in _tagged(i, _rotation(t, seed, self.name, c, i))]


class Desk(Workload):
    name = "desk"

    def setup(self, seed):
        targets = _desk_pool(seed)
        for t in targets:
            _ground_truth(t)
        return targets

    def verify(self, state):
        _certify_desk(state)
        for t in state:
            _confirm_ground_truth(t)

    def cycle(self, state, seed, c):
        out = []
        for i, t in enumerate(state):
            out += _tagged(i, _rotation(t, seed, self.name, c, i) + [_search_request(SEARCH_SEEDS[i])])
        return out


class Isogeny(Workload):
    name = "isogeny"

    def setup(self, seed):
        return _desk_pool(seed)

    def verify(self, state):
        _certify_desk(state)

    def cycle(self, state, seed, c):
        out = []
        for i, t in enumerate(state):
            out += _tagged(i, [_isogeny_request(t, ell, _rng(seed, self.name, c, i, ell)) for ell in ELLS])
        return out


class Cli(Desk):
    """One `python -m dualpair.cli` child at a time on desk inputs."""

    name = "cli"

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def speedometer(self) -> speed.Speedometer:
        return speed.Speedometer(self._interpreter_ns, 60.0, 500_000_000)

    def _interpreter_ns(self) -> int:
        t0 = time.perf_counter_ns()
        proc = self.spawn(["-c", "pass"])
        if proc.returncode != 0:
            raise ChildFailed(f"python -c pass exited {proc.returncode}")
        return time.perf_counter_ns() - t0

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )

    def cycle(self, state, seed, c):
        out = []
        for i, t in enumerate(state):
            curve_json = json.dumps({"p": str(t.p), "A": str(t.a), "B": str(t.b)})
            reqs = []
            for j, (op, method) in enumerate(ROTATION):
                build = self._dlp if op == "solve" else self._pair
                reqs.append(build(t, curve_json, method, _rng(seed, self.name, c, i, j)))
            args = ["find-anomalous", "--min", str(DESK_RANGE[0]), "--max", str(DESK_RANGE[1]),
                    "--count", "1", "--seed", str(SEARCH_SEEDS[i])]
            reqs.append(self._request("search", args, lambda doc: _search_ok(
                [(int(c["p"]), int(c["A"]), int(c["B"])) for c in doc])))
            out += _tagged(i, reqs)
        return out

    def _dlp(self, t: Target, curve_json: str, method: str, rng: random.Random) -> Request:
        p = t.p
        Pxy = ecint.mul(rng.randrange(1, p), t.G, t.a, p)
        n = rng.randrange(1, p)
        Qxy = ecint.mul(n, Pxy, t.a, p)
        args = ["dlp", "--curve", curve_json, "--p-point", "%d,%d" % Pxy, "--q-point", "%d,%d" % Qxy,
                "--method", method, "--seed", str(rng.getrandbits(16))]
        return self._request(f"solve.{method}", args, lambda doc: doc["n"] == str(n) and doc["method"] == method)

    def _pair(self, t: Target, curve_json: str, method: str, rng: random.Random) -> Request:
        p = t.p
        m, k = rng.randrange(1, p), rng.randrange(1, p)
        Pxy = ecint.mul(m, t.G, t.a, p)
        expect = {"one_plus_eps_times": str(t.aG * m * k % p)}
        args = ["pair", "--curve", curve_json, "--point", "%d,%d" % Pxy, "--k", str(k),
                "--method", method, "--seed", str(rng.getrandbits(16))]
        return self._request(f"pair.{method}", args, lambda doc: doc == expect)

    def _request(self, kind, args, ok) -> Request:
        argv = ["-m", "dualpair.cli", *args]

        def run():
            proc = self.spawn(argv)
            if proc.returncode != 0:
                raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
            return proc

        return Request(f"cli.{kind}", run, lambda proc: ok(json.loads(proc.stdout)), argv=args)

    def main_in_process(self, args) -> tuple[int, str]:
        """`cli.main(args)` in this process, stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
        return code, out.getvalue()


def make(name: str, root: str) -> Workload:
    table = {"crypto-256": Crypto256, "desk": Desk, "isogeny": Isogeny}
    if name == "cli":
        return Cli(root)
    return table[name]()
