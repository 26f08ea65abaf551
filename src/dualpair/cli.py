"""Command-line front end.

Subcommands: find-anomalous | pair | dlp | selfcheck.  Every invocation
writes a single JSON document to stdout; errors go to stderr as JSON with
a machine-readable code.  Exit status: 0 success, 2 search exhaustion,
3 mathematical degeneracy, 64 usage errors.

Curve and point flags accept inline values or "@path" to read the same
format from a file.
"""

from __future__ import annotations

import argparse
import json
import sys

# Only what the parser and main() use is imported here.  Each handler imports
# the modules it runs, when it runs, so one process loads only its own
# subcommand's modules: `pair` loads no `dlp`, `isogeny`, `selfcheck` or `poly`.
# (The module docstring is the --help text, so this note is a comment.)
from .errors import DualPairError
from .fields import json_int

USAGE_EXIT = 64
DEFAULT_SEED = 20259


class UsageError(DualPairError):
    exit_code = USAGE_EXIT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _maybe_file(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise UsageError(f"cannot read {value[1:]!r}: {exc.strerror or exc}") from None
    return value


def _parse_curve(value: str):
    from .curve import Curve

    try:
        return Curve.from_json(json.loads(_maybe_file(value)))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad curve: {exc}") from None


def _parse_point(curve, value: str):
    from .curve import INFINITY, Point

    raw = _maybe_file(value).strip()
    try:
        if raw in ("inf", "infinity"):
            return INFINITY
        if raw.startswith("{"):
            pt = Point.from_json(curve.field, json.loads(raw))
        else:
            xs, ys = raw.split(",")
            pt = Point(curve.field(json_int(xs.strip())), curve.field(json_int(ys.strip())))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad point {value!r}: {exc}") from None
    if not curve.contains(pt):
        raise UsageError(f"point {raw!r} is not on the curve")
    return pt


def _build_parser() -> _Parser:
    parser = _Parser(prog="dualpair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser(
        "find-anomalous",
        help="search for curves with #E(F_p) = p (at most 2,000,000 trials, then exit 2)",
        description="Find --count distinct curves with #E(F_p) = p and prime p in [--min, --max], "
        "deterministically per --seed.  The search gives up after a budget of 2,000,000 trials "
        "with exit 2 (SearchExhausted); a trial's cost grows with p, so near p = 10^20 "
        "that takes minutes.",
    )
    find.add_argument("--min", type=json_int, required=True)
    find.add_argument("--max", type=json_int, required=True)
    find.add_argument("--count", type=json_int, default=1)
    find.add_argument("--seed", type=json_int, default=DEFAULT_SEED)

    pair = sub.add_parser("pair", help="evaluate the pairing e(P, O_k)")
    pair.add_argument("--curve", required=True)
    pair.add_argument("--point", required=True)
    pair.add_argument("--k", type=json_int, required=True)
    pair.add_argument("--method", choices=("direct", "semaev", "rueck"), default="rueck")
    pair.add_argument("--seed", type=json_int, default=DEFAULT_SEED, help="accepted, unused: every route is deterministic")

    dlp = sub.add_parser("dlp", help="solve Q = n*P on an anomalous curve")
    dlp.add_argument("--curve", required=True)
    dlp.add_argument("--p-point", required=True)
    dlp.add_argument("--q-point", required=True)
    dlp.add_argument("--method", choices=("semaev", "rueck", "pairing", "lift"), default="rueck")
    dlp.add_argument("--seed", type=json_int, default=DEFAULT_SEED)

    check = sub.add_parser("selfcheck", help="run the invariant suite")
    check.add_argument("--trials", type=json_int, default=100)
    check.add_argument("--seed", type=json_int, default=DEFAULT_SEED)
    return parser


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_find_anomalous(args) -> int:
    from .curve import COUNT_SCAN_LIMIT, count_points, find_anomalous, is_anomalous
    from .numbertheory import next_prime

    if args.min <= 3:
        raise UsageError("--min must exceed 3")
    if args.max < args.min or args.count < 1:
        raise UsageError("need --max >= --min and --count >= 1")
    if next_prime(args.min) > args.max:
        raise UsageError(f"no prime > 3 in [{args.min}, {args.max}]")
    curves = find_anomalous(args.min, args.max, args.count, args.seed)
    for c in curves:
        # the O(p) count shares no code with the search's walk; above the limit, the p*P certificate
        if not (count_points(c) == c.p if c.p <= COUNT_SCAN_LIMIT else is_anomalous(c)):
            raise DualPairError(f"search returned {c!r}, which is not anomalous")
    _emit([c.to_json() for c in curves])
    return 0


def _cmd_pair(args) -> int:
    from .dual_curve import DualCurve
    from .pairing import theta_pairing

    curve = _parse_curve(args.curve)
    P = _parse_point(curve, args.point)
    value = theta_pairing(DualCurve.canonical(curve), P, args.k % curve.p, args.method)
    _emit(value.to_json())
    return 0


def _cmd_dlp(args) -> int:
    from .dlp import DlpInstance, solve

    curve = _parse_curve(args.curve)
    P = _parse_point(curve, args.p_point)
    Q = _parse_point(curve, args.q_point)
    result = solve(DlpInstance(curve, P, Q), args.method, args.seed)
    _emit(result.to_json())
    return 0


def _cmd_selfcheck(args) -> int:
    from . import selfcheck

    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    report = selfcheck.run(args.trials, args.seed)
    _emit(report)
    return 0 if report["pass"] else 1


_COMMANDS = {
    "find-anomalous": _cmd_find_anomalous,
    "pair": _cmd_pair,
    "dlp": _cmd_dlp,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except DualPairError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
