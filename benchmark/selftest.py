"""Show that every checker accepts a right result and rejects corrupted ones.

    python3 benchmark/selftest.py

Each case takes a result the program computed, checks it as is (it must
pass), then feeds the checker deliberately corrupted copies: a value off by
one ulp, a wrong argmax, a wrong box count, a split tree with a leaf
missing or overlapping another, and a few more.  Exits 0 when every honest
result passes and every corrupted one is rejected.
"""

from __future__ import annotations

import math
import shutil
import sys

import numpy as np

import oracles as O
import tracing
import workloads
from run import ROOT, import_program


def main() -> int:
    lib = import_program()
    if lib is None:
        print("error: boxweights not found under src/", file=sys.stderr)
        return 2
    A = lib.ClassKind.MUCKENHOUPT_A
    rng = np.random.default_rng(7)
    cases = []  # (description, errors, expect_rejection)

    def case(name, errors, reject):
        cases.append((name, errors, reject))

    # Scans: 1-D exhaustively, 2-D by count, argmax value and a box sample.
    for shape, exhaustive in (((30,), True), ((9, 8), False)):
        mass = np.exp(rng.normal(0.0, 0.7, shape))
        values = np.exp(rng.normal(0.0, 1.0, shape))
        bps = tuple(np.linspace(0.0, 1.0, n + 1) for n in shape)
        rep = lib.characteristics.characteristic(lib.GridMeasure(bps, mass), lib.WeightGrid(values), A, 2.5)
        grid = O.Grid(mass, values, "ap", 2.5)
        value, box, count = rep.value, rep.argmax_box.ranges, rep.boxes_scanned
        wrong_box = tuple((0, n) for n in shape) if box != tuple((0, n) for n in shape) else tuple((0, 1) for _ in shape)
        tag = f"{len(shape)}-D scan"

        def check(v, b, c):
            return O.check_scan(grid, v, b, c, np.random.default_rng(1), samples=200, exhaustive=exhaustive)

        case(f"{tag}, as computed", check(value, box, count), False)
        case(f"{tag}, value one ulp up", check(math.nextafter(value, math.inf), box, count), True)
        case(f"{tag}, value one ulp down", check(math.nextafter(value, 0.0), box, count), True)
        case(f"{tag}, wrong argmax", check(value, wrong_box, count), True)
        case(f"{tag}, count + 1", check(value, box, count + 1), True)
        case(f"{tag}, count - 1", check(value, box, count - 1), True)

    # A value below the true supremum with a consistent argmax: only the
    # sample or the brute force can see it.
    mass, values = np.ones(30), np.exp(rng.normal(0.0, 1.0, 30))
    grid = O.Grid(mass, values, "ap", 2.5)
    best, best_box, n = O.brute_force(grid)
    second = max(((grid.box_value(b), b) for b in O.all_boxes((30,)) if b != best_box))
    case("1-D scan, runner-up reported as the supremum",
         O.check_scan(grid, second[0], second[1], n, np.random.default_rng(1), samples=0, exhaustive=True), True)

    # Split trees.
    m, w = lib.grids.power_weight_grid(0.5, 256)
    Q = O.power_closed_form("ap", 2.0, 0.5)
    config = lib.splitting.SplitConfig(kind=A, p=2.0, Q=Q, Q1=Q * 1.5, levels=5)
    tree = lib.splitting.build_tree(m, w, config)
    levels = [[{"box": nd.box.ranges, "axis": nd.axis, "split_index": nd.split_index, "ratio": nd.ratio,
                "point": nd.point, "segment_max": nd.segment_psi_max} for nd in level] for level in tree.levels]

    def check_tree(lv):
        return O.check_tree({"levels": lv}, m.mass, w.values, "ap", 2.0, config.c, config.Q1, 257)

    case("split tree, as built", check_tree(levels), False)
    missing = [list(level) for level in levels]
    del missing[-1][3]
    case("split tree, one leaf missing", check_tree(missing), True)
    overlap = [list(level) for level in levels]
    (a, b), = overlap[-1][3]["box"]
    overlap[-1][3] = dict(overlap[-1][3], box=((a, b + 1),))
    case("split tree, one leaf overlapping its neighbour", check_tree(overlap), True)
    bad_ratio = [list(level) for level in levels]
    bad_ratio[1][0] = dict(bad_ratio[1][0], ratio=math.nextafter(bad_ratio[1][0]["ratio"], 1.0))
    case("split tree, ratio one ulp off", check_tree(bad_ratio), True)
    tight = O.check_tree({"levels": levels}, m.mass, w.values, "ap", 2.0, config.c, 1.0, 257)
    case("split tree, checked against a band it does not satisfy", tight, True)

    # Ladders, round trips, prefix tables and the linear chain.
    case("ladder, increasing", O.check_ladder("x", [1.0, 1.5, 1.5, 2.0]), False)
    case("ladder, one step down", O.check_ladder("x", [1.0, 1.5, 1.4, 2.0]), True)
    arr = rng.random(100)
    flipped = arr.copy()
    flipped[17] = math.nextafter(flipped[17], 2.0)
    case("round trip, identical", O.check_same_arrays("x", [arr], [arr.copy()]), False)
    case("round trip, one ulp changed", O.check_same_arrays("x", [arr], [flipped]), True)
    cells = {1.0: rng.random(50)}
    case("tables, fsum sums", O.check_tables("x", cells, lambda s, bx: O.box_sum(cells[s], bx),
                                             np.random.default_rng(2), 20), False)
    case("tables, sums one ulp up", O.check_tables(
        "x", cells, lambda s, bx: math.nextafter(O.box_sum(cells[s], bx), math.inf), np.random.default_rng(2), 20),
         True)
    chain = lib.splitting.chain_report(tree, 1.0, lib.bellman.builtin_candidate("builtin:linear", A, 2.0, 2.0))
    case("linear chain, as computed", O.check_linear_chain(chain.s_values, m.mass, w.values), False)
    case("linear chain, one level off", O.check_linear_chain(
        chain.s_values[:2] + (chain.s_values[2] * (1 + 1e-12),) + chain.s_values[3:], m.mass, w.values), True)

    case("tracing, a traced call that raises", traced_raise_errors(lib), False)

    bad = 0
    for name, errors, reject in cases:
        good = bool(errors) == reject
        bad += not good
        what = "rejected" if errors else "accepted"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {what}" + (f" ({errors[0][:90]})" if errors else ""))
    print(f"{len(cases) - bad} of {len(cases)} cases behave as expected")
    return 0 if bad == 0 else 1


def traced_raise_errors(lib) -> list:
    """A traced run whose scan raises still gives the per-layer metrics of the calls that returned."""
    A = lib.ClassKind.MUCKENHOUPT_A
    m, w = lib.grids.power_weight_grid(0.5, 16)
    workdir = ROOT / ".bench_runs" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        good = lib.characteristics.characteristic(m, w, A, 2.0)
        try:
            lib.characteristics.characteristic(m, w, A, 1.0)
            return ["characteristic with q=1 for A_q returned instead of raising"]
        except lib.PreconditionError:
            pass
        pass_spans, tracer.spans = tracer.spans, []
        workloads.layer_probe(lib, workdir)
        tracer.recording = False
        metrics, _ = tracing.per_layer_metrics(pass_spans, 1, tracer.spans)
    except Exception as exc:
        return [f"per-layer metrics failed: {exc!r}"]
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    errors = []
    if [s.get("raised", False) for s in pass_spans if s["name"] == "characteristics.scan"] != [False, True]:
        errors.append("the raising scan's span is not marked raised")
    if metrics["characteristics.boxes_scanned"]["value"] != good.boxes_scanned:
        errors.append(f"boxes_scanned {metrics['characteristics.boxes_scanned']['value']}, "
                      f"want {good.boxes_scanned} from the call that returned")
    return errors


if __name__ == "__main__":
    sys.exit(main())
