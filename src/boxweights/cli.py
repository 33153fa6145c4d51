"""Command-line front end.

Subcommands: exponents, characteristic, sharpness, split, bellman-verify,
conclusion-check, make-grid, export-csv.  All tabular output is CSV with a
leading comment block carrying the tool version and the full parameter set,
so identical invocations produce byte-identical files.  Files are written
atomically (temp file + rename).  Subcommands put raw values in their rows;
_write_csv writes every CSV and _print_row every key=value line, both
through the one value formatter _text.

Exit codes: 0 success, 2 precondition violation, 3 numeric failure,
4 infeasible split.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .bellman import (
    DEFAULT_REFINE_FACTOR,
    DEFAULT_REFINE_LEVELS,
    DEFAULT_STABILITY_RTOL,
    DEFAULT_VERIFY_SEGMENTS,
    DEFAULT_VERIFY_TOL,
    DEFAULT_X1_RANGE,
    AveragePairRegion,
    builtin_candidate,
    read_candidate,
    refinement_gaps,
    theorem_conclusion_check,
    verify_candidate,
)
from .characteristics import characteristic
from .errors import (
    BoxweightsError,
    InfeasibleSplitError,
    NumericFailureError,
    PreconditionError,
)
from .exponents import Branch, ClassKind, PParam, extremal_alpha, sharp_range
from .grids import (
    PrefixTables,
    power_weight_grid,
    read_grid,
    uniform_measure,
    write_grid,
    WeightGrid,
    _atomic_write,
)
from .splitting import (
    DEFAULT_RATIO_C,
    DEFAULT_SEGMENT_SAMPLES,
    SplitConfig,
    build_tree,
)

#: Central defaults shared by the CLI and documented in the README.
DEFAULTS = {
    "ratio_c": DEFAULT_RATIO_C,
    "q1_factor": 1.05,
    "segment_samples": DEFAULT_SEGMENT_SAMPLES,
    "seed": 0,
    "verify_segments": DEFAULT_VERIFY_SEGMENTS,
    "verify_rel_tol": DEFAULT_VERIFY_TOL,
    "x1_range": DEFAULT_X1_RANGE,
    "refine_factor": DEFAULT_REFINE_FACTOR,
    "refine_levels": DEFAULT_REFINE_LEVELS,
    "stability_rtol": DEFAULT_STABILITY_RTOL,
    "sharpness_cells": (256, 1024, 4096, 16384),
    "conclusion_cells": 256,
    "a_side_inside_offset": 0.1,
    "rh_side_inside_offset": -0.5,
}


def _text(value) -> str:
    """A value as CSV and stdout write it: None empty, a float its repr, anything else str.

    repr(float(v)), not repr(v): numpy 2 scalars repr as np.float64(...).
    """
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _params(args, *drop, **resolved) -> dict:
    """A CSV's ``# param`` block: the parsed options but the output paths and drop, then resolved."""
    drop = {"csv", "out", "trace", "report", "func", *drop}
    params = {"class" if k == "klass" else k: v for k, v in vars(args).items() if k not in drop}
    return {**params, **resolved}


def _option(flag: str, parse, text: str):
    """parse(text), with a ValueError turned into a PreconditionError that names the option."""
    try:
        return parse(text)
    except ValueError as err:
        raise PreconditionError(f"bad {flag} '{text}': {err}") from None


def _float_pair(text: str) -> tuple[float, float]:
    lo, hi = map(float, text.split(","))
    return lo, hi


def _write_csv(path, params: dict, columns, rows) -> None:
    """Version and sorted ``# param`` lines, the column header, one line per row dict."""
    _atomic_write(path, _csv_lines(params, columns, rows))


def _csv_lines(params: dict, columns, rows):
    yield f"# boxweights {__version__}\n"
    for key in sorted(params):
        yield f"# param {key}={_text(params[key])}\n"
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(_text, map(row.get, columns))) + "\n"


def _print_row(row: dict) -> None:
    """The row of a one-row CSV as key=value pairs on stdout."""
    print(" ".join(f"{key}={_text(value)}" for key, value in row.items()))


# ----------------------------------------------------------------------
# Subcommand implementations.
# ----------------------------------------------------------------------


def cmd_exponents(args) -> int:
    rng = sharp_range(ClassKind(args.klass), PParam(args.p), args.Q)
    row = {"class": args.klass, "p": args.p, "Q": args.Q}
    for name in ("s_minus", "s_plus", "a_lower", "rh_upper"):
        row[name] = getattr(rng, name)
    _print_row(row)
    if args.csv:
        _write_csv(args.csv, _params(args), tuple(row), [row])
    return 0


def cmd_characteristic(args) -> int:
    measure, weight = read_grid(args.grid)
    report = characteristic(measure, weight, ClassKind(args.klass), args.p)
    row = {
        "class": args.klass,
        "q": args.p,
        "value": report.value,
        "argmax": report.argmax_box,
        "boxes_scanned": report.boxes_scanned,
    }
    _print_row(row)
    if args.csv:
        _write_csv(args.csv, _params(args), tuple(row), [row])
    return 0


def cmd_sharpness(args) -> int:
    kind = ClassKind(args.klass)
    side = Branch(args.side)
    p = PParam(args.p)
    rng = sharp_range(kind, p, args.Q)
    alpha = extremal_alpha(kind, p, args.Q, side)
    if side is Branch.MINUS:
        probe, sharp_q, offset = ClassKind.MUCKENHOUPT_A, rng.a_lower, DEFAULTS["a_side_inside_offset"]
    else:
        probe, sharp_q, offset = ClassKind.REVERSE_HOLDER, rng.rh_upper, DEFAULTS["rh_side_inside_offset"]
    critical_q = sharp_q if args.critical_q is None else args.critical_q
    inside_q = critical_q + offset if args.inside_q is None else args.inside_q
    cells = _option("--cells", lambda text: [int(c) for c in text.split(",")], args.cells)
    rows = []
    for n in cells:
        measure, weight = power_weight_grid(alpha, n)
        # Both scans share the grid's mass and w tables.
        tables = PrefixTables(measure, weight)
        critical = characteristic(measure, weight, probe, critical_q, tables)
        inside = characteristic(measure, weight, probe, inside_q, tables)
        rows.append(
            {
                "cells": n,
                "critical_q": critical_q,
                "critical_value": critical.value,
                "inside_q": inside_q,
                "inside_value": inside.value,
            }
        )
        print(
            f"N={n} [{probe.value}] q={critical_q:g}: {critical.value:.9f}   "
            f"q={inside_q:g}: {inside.value:.9f}"
        )
    for label in ("critical", "inside"):
        gaps, ratios = refinement_gaps([float(row[f"{label}_value"]) for row in rows])
        print(
            f"{label}: rel gaps {['%.4f' % g for g in gaps]}, "
            f"increment ratios {['%.3f' % r for r in ratios]}"
        )
    if args.out:
        _write_csv(
            args.out,
            _params(args, alpha=alpha, probe_class=probe.value, critical_q=critical_q, inside_q=inside_q),
            ("cells", "critical_q", "critical_value", "inside_q", "inside_value"),
            rows,
        )
    return 0


def cmd_split(args) -> int:
    measure, weight = read_grid(args.grid)
    kind = ClassKind(args.klass)
    p = PParam(args.p)
    # The Q check and the tree share the grid's mass, w and w**s2 tables.
    tables = PrefixTables(measure, weight)
    base = characteristic(measure, weight, kind, args.p, tables)
    Q = base.value if args.Q is None else args.Q
    if base.value > Q * (1.0 + 1e-9):
        raise PreconditionError(
            f"grid characteristic {base.value} exceeds the requested bound Q={Q}"
        )
    Q1 = Q * DEFAULTS["q1_factor"] if args.Q1 is None else args.Q1
    config = SplitConfig(
        kind=kind,
        p=p,
        Q=Q,
        Q1=Q1,
        c=args.c,
        levels=args.levels,
        segment_samples=args.segment_samples,
    )
    tree = build_tree(measure, weight, config, tables=tables)
    for level in range(tree.depth + 1):
        nodes = tree.levels[level]
        ratios = [n.ratio for n in nodes if n.ratio is not None]
        print(
            f"level {level}: nodes={len(nodes)} "
            f"max_diameter={tree.max_diameter(level):.6g}"
            + (
                f" ratio_range=[{min(ratios):.4f}, {max(ratios):.4f}]"
                if ratios
                else ""
            )
        )
    if args.trace:
        # one row per node, breadth first; a leaf has no split record
        rows = [
            {"level": n.level, "box": n.box, "axis": n.axis, "breakpoint": n.split_coord, "ratio": n.ratio,
             "x1": n.point.x1, "x2": n.point.x2, "segment_max": n.segment_psi_max, "diameter": n.diameter}
            for n in tree.nodes()
        ]
        _write_csv(args.trace, _params(args, Q=Q, Q1=Q1), tuple(rows[0]), rows)
    return 0


def cmd_bellman_verify(args) -> int:
    kind = ClassKind(args.klass)
    p = PParam(args.p)
    if args.candidate.startswith("builtin:"):
        cand = _option("--candidate", lambda text: builtin_candidate(text, kind, p, args.Q), args.candidate)
    else:
        cand = read_candidate(args.candidate)
    r = args.r if args.r is not None else cand.r
    region = AveragePairRegion(kind, p, args.Q)
    x1_range = _option("--x1-range", _float_pair, args.x1_range)
    report = verify_candidate(
        region,
        cand,
        r,
        segments=args.segments,
        seed=args.seed,
        rel_tol=args.tol,
        x1_range=x1_range,
    )
    verdict = "pass" if report.verdict else "fail"
    print(
        f"verdict={verdict} segments={report.segments_tested} "
        f"violations={len(report.violations)} "
        f"boundary_max_error={report.boundary_max_error:.3g} c_hat={report.c_hat:.9g}"
    )
    for v in report.violations[:10]:
        print(
            f"  violation at lam={v.lam}: deficit={v.deficit:.3g} "
            f"between {v.x_a} and {v.x_b}"
        )
    if report.failure_point is not None:
        print(f"  candidate undefined at {report.failure_point}")
    if args.report:
        rows = [
            {
                "record": "summary",
                "verdict": verdict,
                "violations": len(report.violations),
                "boundary_max_error": report.boundary_max_error,
                "c_hat": report.c_hat,
            }
        ]
        for v in report.violations:
            rows.append(
                {
                    "record": "violation",
                    "lam": v.lam,
                    "deficit": v.deficit,
                    "x_a": "|".join(map(_text, v.x_a)),
                    "x_b": "|".join(map(_text, v.x_b)),
                }
            )
        columns = ("record", "lam", "deficit", "x_a", "x_b", "verdict", "violations",
                   "boundary_max_error", "c_hat")
        _write_csv(args.report, _params(args, r=r), columns, rows)
    return 0


def cmd_conclusion_check(args) -> int:
    if args.grid:
        measure, weight = read_grid(args.grid)
    elif args.alpha is not None:
        measure, weight = power_weight_grid(args.alpha, args.cells)
    else:
        raise PreconditionError("provide either --grid or --alpha/--cells")
    kind = ClassKind(args.klass)
    probe = ClassKind(args.probe_class) if args.probe_class else None
    report = theorem_conclusion_check(
        measure,
        weight,
        kind,
        PParam(args.p),
        args.q,
        args.Q,
        probe_kind=probe,
        refine_factor=args.refine_factor,
        levels=args.levels,
        stability_rtol=args.stability_rtol,
    )
    print(
        f"verdict={report.verdict} q={args.q:g} probe={report.probe_kind.value} "
        f"values={['%.9g' % v for v in report.values]} last_gap={report.last_gap:.4g}"
        + (f" contraction={report.contraction:.4g}" if report.contraction else "")
    )
    if args.out:
        # the grid source stands for --alpha and --cells
        params = _params(
            args, "alpha", "cells", probe_class=report.probe_kind.value,
            grid=args.grid or f"power:{args.alpha}:{args.cells}",
        )
        rows = [
            {"cells": c, "value": v}
            for c, v in zip(report.cell_counts, report.values)
        ]
        rows.append({"cells": "verdict", "value": report.verdict})
        _write_csv(args.out, params, ("cells", "value"), rows)
    return 0


def cmd_make_grid(args) -> int:
    if args.generator == "power":
        measure, weight = power_weight_grid(args.alpha, args.cells)
    else:
        measure = uniform_measure(args.cells)
        weight = WeightGrid(np.full(measure.shape, args.value))
    write_grid(args.out, measure, weight)
    print(f"wrote {args.out} ({args.generator}, {args.cells} cells)")
    return 0


def cmd_export_csv(args) -> int:
    measure, weight = read_grid(args.grid)
    columns = [f"{c}{ax}" for ax in range(measure.ndim) for c in ("i", "lo", "hi")] + ["mass", "value"]
    bps = [b.tolist() for b in measure.breakpoints]
    cells = zip(np.ndindex(measure.shape), measure.mass.ravel().tolist(), weight.values.ravel().tolist())
    # one row per cell, row-major: index and bounds per axis, mass, value
    rows = [
        dict(zip(columns, [*(x for ax, i in enumerate(idx) for x in (i, bps[ax][i], bps[ax][i + 1])), m, v]))
        for idx, m, v in cells
    ]
    _write_csv(args.out, {"grid": args.grid}, columns, rows)
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it takes far longer than parsing.

    No argument has a mutable default, and parse_args leaves the parser as
    it was, so every call of main() parses with the same tree.
    """
    parser = argparse.ArgumentParser(
        prog="boxweights",
        description="Sharp exponents, box characteristics and splitting experiments "
        "for strong Muckenhoupt / Reverse Holder weights.",
    )
    parser.add_argument("--version", action="version", version=f"boxweights {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_p(sp):
        sp.add_argument("--class", dest="klass", choices=["ap", "rh"], required=True)
        sp.add_argument("--p", type=float, required=True)

    sp = sub.add_parser("exponents", help="sharp self-improvement exponent window")
    add_class_p(sp)
    sp.add_argument("--Q", type=float, required=True)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("characteristic", help="box characteristic of a grid weight")
    add_class_p(sp)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_characteristic)

    sp = sub.add_parser("sharpness", help="refinement table for the extremal power weight")
    add_class_p(sp)
    sp.add_argument("--Q", type=float, required=True)
    sp.add_argument("--side", choices=["plus", "minus"], required=True)
    sp.add_argument(
        "--cells",
        default=",".join(str(c) for c in DEFAULTS["sharpness_cells"]),
        help="comma-separated cell counts",
    )
    sp.add_argument("--critical-q", type=float, default=None)
    sp.add_argument("--inside-q", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sharpness)

    sp = sub.add_parser("split", help="build a measure-balanced split tree")
    add_class_p(sp)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--Q", type=float, default=None, help="default: grid characteristic")
    sp.add_argument("--Q1", type=float, default=None, help=f"default: {DEFAULTS['q1_factor']} * Q")
    sp.add_argument("--c", type=float, default=DEFAULTS["ratio_c"])
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument(
        "--samples", dest="segment_samples", metavar="SAMPLES", type=int, default=DEFAULTS["segment_samples"]
    )
    sp.add_argument("--trace", default=None)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("bellman-verify", help="verify a candidate function")
    add_class_p(sp)
    sp.add_argument("--Q", type=float, required=True)
    sp.add_argument("--r", type=float, default=None, help="default: candidate metadata")
    sp.add_argument("--candidate", required=True, help="builtin:linear, builtin:power:<r> or a file path")
    sp.add_argument("--segments", type=int, default=DEFAULTS["verify_segments"])
    sp.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    sp.add_argument("--tol", type=float, default=DEFAULTS["verify_rel_tol"])
    sp.add_argument(
        "--x1-range",
        default=f"{DEFAULTS['x1_range'][0]},{DEFAULTS['x1_range'][1]}",
        help="comma-separated sampling range for x1",
    )
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=cmd_bellman_verify)

    sp = sub.add_parser("conclusion-check", help="membership trend across refinements")
    add_class_p(sp)
    sp.add_argument("--Q", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--probe-class", choices=["ap", "rh"], default=None)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--cells", type=int, default=DEFAULTS["conclusion_cells"])
    sp.add_argument("--refine-factor", type=int, default=DEFAULTS["refine_factor"])
    sp.add_argument("--levels", type=int, default=DEFAULTS["refine_levels"])
    sp.add_argument("--stability-rtol", type=float, default=DEFAULTS["stability_rtol"])
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_conclusion_check)

    sp = sub.add_parser("make-grid", help="write a generated grid file")
    sp.add_argument("--generator", choices=["power", "constant"], required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--cells", type=int, required=True)
    sp.add_argument("--value", type=float, default=1.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_make_grid)

    sp = sub.add_parser("export-csv", help="CSV dump of a grid file's cell table")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_export_csv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleSplitError as exc:
        print(f"infeasible split: {exc}", file=sys.stderr)
        return 4
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (BoxweightsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
