"""Command-line interface.

Subcommands:

- ``basis``       dump the SU(n) generator basis to a labeled text file
- ``make-state``  write a named-family density matrix as a dm file
- ``detect``      certify entanglement of a dm file (optionally optimized)
- ``scan``        sweep a family parameter against the rotation angle, to CSV
- ``ppt``         partial-transpose oracle only

Exit codes: 0 entangled_certified, 1 inconclusive, 2 separable,
3 usage/parameter error, 4 unreadable/invalid input file. ``main`` alone
maps a refusal to 3 or 4, by one rule: a ValueError or MemoryError (an
allocation that the arguments make impossible) raised before the command
starts reading its input file is a usage error, 3; from the read on, it is
an input error, 4, such as a level pair the file's shape cannot hold. An
OSError is an i/o error, 4.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dmfile
from .ggm import build_basis
from .search import (
    DetectionReport,
    SCAN_FAMILIES,
    SearchConfig,
    evaluate_at_identity,
    maximize_violation,
    scan_1d,
)
from .states import FAMILY_PARAMS
from .states import horodecki33, iso23, werner  # noqa: F401  hooked by name: perfbench/spans.py
from .witness import classify_ppt, ppt_min_eigenvalue

EXIT_USAGE = 3
EXIT_INPUT = 4

# Keyed by verdict value: Verdict and PptVerdict are str enums, so either's
# members look up their own value here.
_EXIT = {"entangled_certified": 0, "entangled": 0, "inconclusive": 1, "separable": 2}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 means 'separable' here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_basis = sub.add_parser("basis", help="dump the SU(n) generator basis")
    p_basis.add_argument("--dim", type=int, required=True, help="dimension n >= 2")
    p_basis.add_argument("--out", required=True, help="output path")
    p_basis.set_defaults(func=_cmd_basis)

    p_make = sub.add_parser("make-state", help="write a named-family state")
    fam = p_make.add_subparsers(dest="family", required=True, parser_class=_Parser)
    for name, par in FAMILY_PARAMS.items():
        f = fam.add_parser(name, help=f"{par.shape.dim_a}x{par.shape.dim_b} {par.title}")
        lo, hi = par.domain
        f.add_argument(f"--{par.name}", type=float, required=True,
                       help=f"{par.meaning} in [{lo:g}, {hi:g}]")
        f.add_argument("--out", required=True, help="output path")
        f.set_defaults(func=_cmd_make_state)

    p_detect = sub.add_parser("detect", help="certify entanglement of a dm file")
    p_detect.add_argument("path", help="input dm file")
    p_detect.add_argument("--optimize", action="store_true",
                          help="maximize the violation over local unitaries")
    p_detect.add_argument("--pair", type=int, nargs=2, metavar=("J", "K"),
                          help="use this level pair only (default: every valid "
                               "pair at the identity; (1, 2) for --optimize, "
                               "which reaches every pair)")
    p_detect.add_argument("--seed", type=int, default=SearchConfig.seed, help="search seed")
    p_detect.add_argument("--restarts", type=int, default=SearchConfig.restarts,
                          help="random restarts after the zero start and the start "
                               "at the partial transpose's lowest eigenvector; skipped "
                               "when the partial transpose is proven positive, where "
                               "no start can violate, and once a start certifies at "
                               "the bound no start can exceed")
    p_detect.add_argument("--json", action="store_true", dest="as_json",
                          help="print the report as a single JSON line")
    p_detect.set_defaults(func=_cmd_detect)

    p_scan = sub.add_parser("scan", help="violation grid over (family param, p)")
    p_scan.add_argument("family", choices=sorted(FAMILY_PARAMS))
    p_scan.add_argument("--param-min", type=float, default=None)
    p_scan.add_argument("--param-max", type=float, default=None)
    p_scan.add_argument("--param-steps", type=int, default=101)
    p_scan.add_argument("--p-steps", type=int, default=101,
                        help="rotation-angle steps over [0, pi]")
    p_scan.add_argument("--pair", type=int, nargs=2, default=(1, 2), metavar=("J", "K"))
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=_cmd_scan)

    p_ppt = sub.add_parser("ppt", help="partial-transpose oracle for a dm file")
    p_ppt.add_argument("path", help="input dm file")
    p_ppt.set_defaults(func=_cmd_ppt)

    return parser


def _cmd_basis(args) -> int:
    dmfile.write_basis(build_basis(args.dim), args.out)
    print(f"wrote {args.dim * args.dim - 1} generators to {args.out}")
    return 0


def _cmd_make_state(args) -> int:
    fn, _ = SCAN_FAMILIES[args.family]
    rho = fn(getattr(args, FAMILY_PARAMS[args.family].name))
    dmfile.write_density(rho, args.out)
    print(f"wrote {args.family} state ({rho.shape.dim_a}x{rho.shape.dim_b}) to {args.out}")
    return 0


def _print_report(report: DetectionReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    y = report.y_values
    print(f"verdict: {report.verdict.value}")
    print(f"best_f: {report.best_f:.12g}")
    print(f"best_pair: {report.best_pair[0]},{report.best_pair[1]}")
    print(f"y1: {y.y1:.12g}  y2: {y.y2:.12g}  y3: {y.y3:.12g}")
    print(f"ppt_min_eigenvalue: {report.ppt_min:.12g}")
    print(f"ppt_verdict: {report.ppt_verdict.value}")
    print(f"evaluations: {report.evaluations}")


def _read_input(args):
    """Read the command's input file; a refusal from here on is an input error."""
    args.reading = True
    return dmfile.read_density(args.path)


def _cmd_detect(args) -> int:
    pair = tuple(args.pair) if args.pair else None
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed, pair=pair)
    rho = _read_input(args)
    report = maximize_violation(rho, cfg) if args.optimize else evaluate_at_identity(rho, pair)
    _print_report(report, args.as_json)
    return _EXIT[report.verdict]


def _cmd_scan(args) -> int:
    lo, hi = FAMILY_PARAMS[args.family].domain
    param_min = lo if args.param_min is None else args.param_min
    param_max = hi if args.param_max is None else args.param_max
    grid = f"parameter grid [{param_min}, {param_max}]"
    if not (lo <= param_min <= hi and lo <= param_max <= hi):  # NaN fails too
        raise ValueError(f"{grid} outside family domain [{lo}, {hi}]")
    if param_min > param_max:
        raise ValueError(f"{grid} runs backwards: need param-min <= param-max")
    if args.param_steps < 1 or args.p_steps < 2:
        raise ValueError("need param-steps >= 1 and p-steps >= 2")
    params = np.linspace(param_min, param_max, args.param_steps)
    p_values = np.linspace(0.0, np.pi, args.p_steps)
    rows = scan_1d(args.family, params, p_values, tuple(args.pair))
    dmfile.write_scan_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_ppt(args) -> int:
    rho = _read_input(args)
    min_eig = ppt_min_eigenvalue(rho)
    verdict = classify_ppt(min_eig, rho.shape)
    print(f"ppt_min_eigenvalue: {min_eig:.12g}")
    print(f"ppt_verdict: {verdict.value}")
    return _EXIT[verdict]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse help/version exit with 0; usage errors come through _Parser.
        return int(exc.code or 0)
    args.reading = False  # set by _read_input
    try:
        return args.func(args)
    except OSError as exc:
        print(f"entcert: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, MemoryError) as exc:
        if args.reading:
            print(f"entcert: input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"entcert {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
