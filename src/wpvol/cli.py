"""Command-line front end.

Subcommands: chamber classify / chamber enumerate, volume, wallcross, eval,
verify.  All rationals in CLI I/O are strings "p/q"; pi stays formal except
under --numeric, which prints a decimal at --precision digits.

Exit codes: 0 success, 1 domain error (on a wall, not realizable, an input
past a cost bound, ...), 2 usage error.

Three bounds keep the cost of a command line finite, each checked before
any work and raising BoundExceededError (exit 1, as the enumeration bound
does): the number of points n of --weights and --chamber, the degree
3g - 3 + n of the volumes that volume, wallcross and eval compute, and the
--precision digits of eval --numeric.  The library API has no such bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .chambers import (
    Chamber,
    StabilitySpace,
    WeightVector,
    chamber_from_json_dict,
    classify,
    enumerate_chambers,
)
from .errors import BoundExceededError, WpvolError
from .poly import Poly
from .rationals import parse_weights
from .verify import SUITES as VERIFY_SUITES, run as run_verify
from .volumes import chamber_volume, piecewise_volume, wall_crossing_poly

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# Each bound is set from cold times, one process each (start-up included), on
# a 2-core x86_64 machine with 7 GB and Python 3.11.7.  MAX_POINTS: the
# volume of the all-light chamber, which crosses every wall, takes 10.1-14.7 s
# at 598 MB for D_{1,7} (three runs) and 143.5 s at 6 980 MB for D_{1,8}.
# MAX_DEGREE: that volume takes 6.7-7.2 s at 423 MB for D_{2,6} (degree 9,
# three runs) and 94.7 s at 4 955 MB for D_{2,7} (degree 10).  MAX_DIGITS:
# eval --numeric takes 0.44 s at 10 000 digits and 17.8 s at 100 000.
MAX_POINTS = 7
MAX_DEGREE = 9
MAX_DIGITS = 10_000


def _bounded_space(g: int, n: int, volumes: bool) -> StabilitySpace:
    """D_{g,n} of a command line, within the bounds on n and, for a command
    that computes volumes, on their degree."""
    if n > MAX_POINTS:
        raise BoundExceededError(f"n={n} exceeds the command-line bound MAX_POINTS={MAX_POINTS}")
    if volumes and 3 * g - 3 + n > MAX_DEGREE:
        raise BoundExceededError(
            f"degree 3g-3+n={3 * g - 3 + n} exceeds the command-line bound MAX_DEGREE={MAX_DEGREE}"
        )
    return StabilitySpace(g, n)


def _json(data: dict) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


def _emit(data: dict, poly: Poly, fmt: str) -> str:
    if fmt == "json":
        return _json(data)
    if fmt == "latex":
        return poly.to_latex()
    lines = []
    for k, v in data.items():
        if isinstance(v, dict):
            if k == "chamber":
                lines.append(f"chamber: {json.dumps(v, separators=(',', ':'))}")
            continue
        lines.append(f"{k}: {v}")
    lines.append(str(poly))
    return "\n".join(lines)


def _parse_chamber(args) -> Chamber:
    """The chamber named by exactly one of --weights and --chamber, in a
    space within the bounds of a volume command."""
    if args.weights is not None:
        a = parse_weights(args.weights)
        return classify(WeightVector(_bounded_space(args.g, len(a), True), a))
    c = chamber_from_json_dict(json.loads(args.chamber), g=args.g, n=args.n)
    _bounded_space(c.space.g, c.space.n, True)
    return c


def cmd_chamber_classify(args) -> int:
    a = parse_weights(args.weights)
    c = classify(WeightVector(_bounded_space(args.g, len(a), False), a))
    print(_json(c.to_json_dict()) if args.format == "json" else str(c))
    return EXIT_OK


def cmd_chamber_enumerate(args) -> int:
    space = StabilitySpace(args.g, args.n)
    chambers = enumerate_chambers(space, up_to_symmetry=args.up_to_symmetry)
    if args.format == "json":
        print(_json({"count": len(chambers), "chambers": [c.to_json_dict() for c in chambers]}))
    else:
        print(f"{len(chambers)} chambers")
        for c in chambers:
            print(" ", c)
    return EXIT_OK


def cmd_volume(args) -> int:
    c = _parse_chamber(args)
    vr = chamber_volume(c)
    print(_emit(vr.to_json_dict(), vr.poly, args.format))
    return EXIT_OK


def cmd_wallcross(args) -> int:
    c = _parse_chamber(args)
    wall = {int(x) for x in args.wall.split(",")}
    wcp = wall_crossing_poly(c, wall)
    print(_emit(wcp.to_json_dict(), wcp.poly, args.format))
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.numeric and args.precision < 1:
        raise ValueError("precision must be at least 1 digit")  # as wpvol.numeric
    if args.numeric and args.precision > MAX_DIGITS:
        raise BoundExceededError(
            f"precision {args.precision} exceeds the command-line bound MAX_DIGITS={MAX_DIGITS}"
        )
    a = parse_weights(args.weights)
    w = WeightVector(_bounded_space(args.g, len(a), True), a)
    if args.numeric:
        c, vr, value = piecewise_volume(w, numeric=True, digits=args.precision)
        data = {"chamber": c.to_json_dict(), "value_numeric": str(value)}
        if args.format == "json":
            print(_json(data))
        else:
            print(value)
        return EXIT_OK
    c, vr, value = piecewise_volume(w)
    data = {"chamber": c.to_json_dict(), "value_poly": value.to_json_dict()}
    print(_emit(data, value, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verify(args.suite)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        print(
            _json(
                {
                    "suite": args.suite,
                    "passed": len(results) - len(failures),
                    "failed": len(failures),
                    "results": [r.to_json_dict() for r in results],
                }
            )
        )
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.id}: {r.description}")
            if not r.passed:
                print(f"    expected: {r.expected}")
                print(f"    computed: {r.computed}")
        print(f"{len(results) - len(failures)} passed, {len(failures)} failed")
    return EXIT_OK if not failures else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpvol",
        description="Exact Weil-Petersson volumes of conical hyperbolic surfaces "
        "across the Hassett chamber decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "latex")):
        p.add_argument("--g", type=int, required=True, help="genus")
        p.add_argument("--format", choices=formats, default="text")

    def chamber_source(p):
        p.add_argument("--n", type=int, help="number of marked points (for --chamber)")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--weights", help="classify these weights first")
        source.add_argument("--chamber", help='inline chamber JSON {"light_max":[[3,4]]}')

    p = sub.add_parser("chamber", help="chamber operations")
    chamber_sub = p.add_subparsers(dest="chamber_command", required=True)
    pc = chamber_sub.add_parser("classify", help="classify a weight vector")
    common(pc, ("text", "json"))
    pc.add_argument("--weights", required=True, help='comma-separated rationals "1/2,1/2,3/4"')
    pc.set_defaults(func=cmd_chamber_classify)
    pe = chamber_sub.add_parser("enumerate", help="enumerate all realizable chambers")
    common(pe, ("text", "json"))
    pe.add_argument("--n", type=int, required=True, help="number of marked points")
    pe.add_argument("--up-to-symmetry", action="store_true")
    pe.set_defaults(func=cmd_chamber_enumerate)

    p = sub.add_parser("volume", help="chamber volume polynomial")
    common(p)
    chamber_source(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("wallcross", help="wall-crossing polynomial")
    common(p)
    chamber_source(p)
    p.add_argument("--wall", required=True, help='wall set "1,2"')
    p.set_defaults(func=cmd_wallcross)

    p = sub.add_parser("eval", help="evaluate the volume at a weight vector")
    common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--numeric", action="store_true", help="numeric output (quarantined)")
    p.add_argument("--precision", type=int, default=50, help="digits for --numeric")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=[*VERIFY_SUITES, "all"], default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WpvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
