"""The three workloads: inputs from a seed, a fixed task list, and checks.

Each builder takes the imported boxweights modules, the seed and a scratch
directory, generates and writes the inputs, and returns a Workload.  A task's
``run`` is the timed call into the program; its ``check`` uses only the
oracles module and runs after the timed passes.  Task sizes are laid out so
that the median task time falls in the middle of a cluster of similar tasks,
not on the edge between two clusters, where it would jump between them.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O
from tracing import LOOSE_Q1_FACTOR, TIGHT_Q1_FACTOR

LADDER_CELLS = (256, 1024, 2048)
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # A fault probe: the operation counts as failed when its check fails.
    # Every other task fails only when it raises.
    probe: bool = False


@dataclass
class Workload:
    tasks: list
    warmup: str


def _lognormal_grid(rng, shape, sigma_mass=0.7, sigma_w=1.0):
    """Irregular breakpoints, log-normal masses and values."""
    bps = tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, n))]) for n in shape)
    mass = np.exp(rng.normal(0.0, sigma_mass, shape))
    values = np.exp(rng.normal(0.0, sigma_w, shape))
    return bps, mass, values


def _quiet_cli(lib, argv):
    with redirect_stdout(io.StringIO()):
        code = lib.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"boxweights {argv[0]} exited with {code}")


def _read_csv(path):
    params, rows = {}, []
    with open(path) as handle:
        lines = handle.read().splitlines()
    for line in lines:
        if line.startswith("# param "):
            key, value = line[len("# param "):].split("=", 1)
            params[key] = value
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    return params, rows


def _box(text):
    return tuple(tuple(int(x) for x in r.split(":")) for r in text.split(";"))


def _window_errors(klass, p, Q, r):
    """The power weight x**(-s) at either branch root s has characteristic Q."""
    errors = []
    for s in (r.s_minus, r.s_plus):
        got = O.power_closed_form(klass, p, -s)
        if abs(got - Q) > 1e-9 * Q:
            errors.append(f"sharp_range {klass} p={p!r} Q={Q!r}: x**{-s!r} has characteristic {got!r}")
    if r.a_lower != 1.0 - r.s_minus or r.rh_upper != 1.0 / r.s_plus or not r.s_minus < 0 < r.s_plus:
        errors.append(f"sharp_range {klass} p={p!r} Q={Q!r}: inconsistent window {r}")
    return errors


def _report(rep):
    return rep.value, rep.argmax_box.ranges, rep.boxes_scanned


# ----------------------------------------------------------------------
# ladder-1d
# ----------------------------------------------------------------------


def ladder_1d(lib, seed: int, workdir: Path) -> Workload:
    ch, gr, ex = lib.characteristics, lib.grids, lib.exponents
    A, R = lib.ClassKind.MUCKENHOUPT_A, lib.ClassKind.REVERSE_HOLDER
    kinds = {"ap": A, "rh": R}
    rng = np.random.default_rng(seed)
    params = {"ap": (rng.uniform(1.6, 2.0), rng.uniform(1.2, 1.5)),
              "rh": (rng.uniform(2.0, 2.6), rng.uniform(1.2, 1.5))}
    check_rng = np.random.default_rng([seed, 1])
    tasks = []

    def ladder_checks(name, klass, side, alpha, probe, crit_q, in_q, cells, crit, inside):
        errors = O.check_ladder(f"{name} critical", crit) + O.check_ladder(f"{name} inside", inside)
        p, Q = params[klass]
        closed_q = O.power_closed_form(klass, p, alpha)
        if abs(closed_q - Q) > 1e-9 * Q:
            errors.append(f"{name}: x**{alpha!r} has closed-form characteristic {closed_q!r}, not Q={Q!r}")
        bound = O.power_closed_form(probe, in_q, alpha)
        for n, c, v in zip(cells, crit, inside):
            if not v <= bound * (1.0 + 1e-12):
                errors.append(f"{name} N={n}: inside value {v!r} above the continuum {bound!r}")
            if not c >= v:
                errors.append(f"{name} N={n}: critical value {c!r} below inside value {v!r}")
            if klass == "ap" and side == "minus":
                lo, hi = O.critical_envelope(alpha, n)
                if not lo * (1 - 1e-9) <= c <= hi * (1 + 1e-9):
                    errors.append(f"{name} N={n}: critical {c!r} outside the (ln N)**alpha envelope [{lo!r}, {hi!r}]")
        if klass == "ap" and side == "minus" and not (alpha <= 1.0 and abs(crit_q - (1 + alpha)) <= 1e-12 * crit_q):
            errors.append(f"{name}: critical q {crit_q!r} is not 1 + alpha for alpha={alpha!r} <= 1")
        return errors

    # Sharpness ladders through the CLI: one scan per exponent per grid.
    for klass, side in (("ap", "minus"), ("rh", "plus")):
        p, Q = params[klass]
        out = workdir / f"sharpness-{klass}-{side}.csv"
        argv = ["sharpness", "--class", klass, "--p", repr(p), "--Q", repr(Q), "--side", side,
                "--cells", ",".join(map(str, LADDER_CELLS)), "--out", out]

        def run(argv=argv, out=out):
            _quiet_cli(lib, argv)
            return _read_csv(out)

        def check(res, name=f"sharpness-{klass}-{side}", klass=klass, side=side):
            prm, rows = res
            probe = prm["probe_class"]
            return ladder_checks(
                name, klass, side, float(prm["alpha"]), probe, float(prm["critical_q"]), float(prm["inside_q"]),
                [int(r["cells"]) for r in rows], [float(r["critical_value"]) for r in rows],
                [float(r["inside_value"]) for r in rows])

        tasks.append(Task(f"sharpness-cli-{klass}-{side}", run, check))

    # The same ladders through the library, both exponents sharing the mass and w tables.
    for klass, side in (("ap", "plus"), ("rh", "minus")):
        p, Q = params[klass]

        def run(klass=klass, side=side, p=p, Q=Q):
            rng_ = ex.sharp_range(kinds[klass], p, Q)
            if side == "plus":
                alpha, probe, crit = -rng_.s_plus, R, rng_.rh_upper
                inside = crit - 0.5
            else:
                alpha, probe, crit = -rng_.s_minus, A, rng_.a_lower
                inside = crit + 0.1
            rows = []
            for n in LADDER_CELLS:
                m, w = gr.power_weight_grid(alpha, n)
                tables = gr.PrefixTables(m, w, (1.0, ch.second_moment_exponent(probe, crit),
                                                ch.second_moment_exponent(probe, inside)))
                rows.append((n, m.mass, w.values, _report(ch.characteristic(m, w, probe, crit, tables)),
                             _report(ch.characteristic(m, w, probe, inside, tables))))
            return rng_, alpha, probe.value, crit, inside, rows

        def check(res, name=f"ladder-{klass}-{side}", klass=klass, side=side, p=p, Q=Q):
            window, alpha, probe, crit_q, in_q, rows = res
            errors = _window_errors(klass, p, Q, window)
            errors += ladder_checks(name, klass, side, alpha, probe, crit_q, in_q,
                                   [r[0] for r in rows], [r[3][0] for r in rows], [r[4][0] for r in rows])
            for n, mass, values, crit, inside in rows:
                x = np.arange(n + 1) / n
                exact = (x[1:] ** (alpha + 1) - x[:-1] ** (alpha + 1)) * n / (alpha + 1)
                if not np.allclose(values, exact, rtol=1e-9, atol=0.0) or not np.all(mass == 1.0 / n):
                    errors.append(f"{name} N={n}: cells are not the exact averages of x**{alpha!r}")
                for q, (v, box, cnt) in ((crit_q, crit), (in_q, inside)):
                    errors += O.check_scan(O.Grid(mass, values, probe, q), v, box, cnt, check_rng, samples=32)
            return errors

        tasks.append(Task(f"ladder-{klass}-{side}", run, check))

    # Seeded log-normal ladders on non-uniform masses, one exponent per refined grid.
    for klass, q in (("ap", rng.uniform(1.5, 3.0)), ("rh", rng.uniform(1.5, 3.0))):
        bps, mass, values = _lognormal_grid(rng, (256,))
        base = (lib.GridMeasure(bps, mass), lib.WeightGrid(values))

        def run(base=base, klass=klass, q=q):
            m, w = base
            rows = [(m.mass, w.values, _report(ch.characteristic(m, w, kinds[klass], q)))]
            for _ in range(3):
                m, w = gr.refine(m, w, 2)
                rows.append((m.mass, w.values, _report(ch.characteristic(m, w, kinds[klass], q))))
            return rows

        def check(rows, klass=klass, q=q, mass=mass, values=values):
            errors = O.check_ladder(f"lognormal-{klass}", [r[2][0] for r in rows])
            k = 1
            for m, v, (val, box, cnt) in rows:
                if m.size != mass.size * k or not np.array_equal(v, np.repeat(values, k)):
                    errors.append(f"lognormal-{klass}: refined grid of {m.size} cells is not the repeated base grid")
                k *= 2
                errors += O.check_scan(O.Grid(m, v, klass, q), val, box, cnt, check_rng, samples=32)
            return errors

        tasks.append(Task(f"lognormal-ladder-{klass}", run, check))

    # The conclusion-check probe through the library on the extremal weights,
    # at an exponent inside the window, where the continuum bounds the ladder.
    for klass in ("ap", "rh"):
        p, Q = params[klass]
        window = ex.sharp_range(kinds[klass], p, Q)
        if klass == "ap":
            alpha, q_in = -window.s_minus, window.a_lower + 0.1
        else:
            alpha, q_in = -window.s_plus, window.rh_upper - 0.5

        def run(klass=klass, p=p, Q=Q, alpha=alpha, q_in=q_in):
            m, w = gr.power_weight_grid(alpha, 128)
            rep = lib.bellman.theorem_conclusion_check(m, w, kinds[klass], p, q_in, Q, refine_factor=4, levels=2)
            return rep.cell_counts, rep.values

        def check(res, klass=klass, alpha=alpha, q_in=q_in):
            counts, values = res
            bound = O.power_closed_form(klass, q_in, alpha)
            errors = O.check_ladder(f"conclusion-{klass}", values)
            if counts != (128, 512, 2048):
                errors.append(f"conclusion-{klass}: cell counts {counts}")
            errors += [f"conclusion-{klass}: value {v!r} above the continuum {bound!r}" for v in values
                       if not v <= bound * (1 + 1e-12)]
            return errors

        tasks.append(Task(f"conclusion-lib-{klass}", run, check))

    # The CLI reading grid files: conclusion-check and characteristic.
    bps, mass_64, values_64 = _lognormal_grid(rng, (64,))
    small = workdir / "lognormal-64.txt"
    gr.write_grid(small, lib.GridMeasure(bps, mass_64), lib.WeightGrid(values_64))
    q_rh = rng.uniform(1.5, 3.0)
    out = workdir / "conclusion.csv"

    def run_conclusion_cli():
        _quiet_cli(lib, ["conclusion-check", "--class", "ap", "--p", "2", "--Q", "1e6", "--q", repr(q_rh),
                         "--probe-class", "rh", "--grid", small, "--refine-factor", "2", "--levels", "3",
                         "--out", out])
        return _read_csv(out)

    def check_conclusion_cli(res):
        _, rows = res
        values = [float(r["value"]) for r in rows if r["cells"] != "verdict"]
        counts = [int(r["cells"]) for r in rows if r["cells"] != "verdict"]
        errors = O.check_ladder("conclusion-cli", values)
        if counts != [64, 128, 256, 512]:
            errors.append(f"conclusion-cli: cell counts {counts}")
        best, _, _ = O.brute_force(O.Grid(mass_64, values_64, "rh", q_rh))
        if values and values[0] != best:
            errors.append(f"conclusion-cli: base value {values[0]!r}, brute force {best!r}")
        return errors

    tasks.append(Task("conclusion-cli", run_conclusion_cli, check_conclusion_cli))

    bps, mass_1k, values_1k = _lognormal_grid(rng, (1024,))
    big = workdir / "lognormal-1024.txt"
    gr.write_grid(big, lib.GridMeasure(bps, mass_1k), lib.WeightGrid(values_1k))
    q_ap = rng.uniform(1.5, 3.0)
    out_c = workdir / "characteristic.csv"

    def run_characteristic_cli():
        _quiet_cli(lib, ["characteristic", "--class", "ap", "--p", repr(q_ap), "--grid", big, "--csv", out_c])
        return _read_csv(out_c)[1][0]

    def check_characteristic_cli(row):
        return O.check_scan(O.Grid(mass_1k, values_1k, "ap", q_ap), float(row["value"]), _box(row["argmax"]),
                            int(row["boxes_scanned"]), check_rng, samples=64)

    tasks.append(Task("characteristic-cli", run_characteristic_cli, check_characteristic_cli))

    # Exhaustive brute force at the smallest size, both classes.
    small_scans = []
    for klass in ("ap", "rh"):
        bps, mass_s, values_s = _lognormal_grid(rng, (40,), sigma_w=1.5)
        small_scans.append((klass, rng.uniform(1.5, 3.0), mass_s, values_s,
                            (lib.GridMeasure(bps, mass_s), lib.WeightGrid(values_s))))

    def run_small():
        return [_report(ch.characteristic(*grid, kinds[klass], q)) for klass, q, _, _, grid in small_scans]

    def check_small(reports):
        return [e for (klass, q, mass_s, values_s, _), rep in zip(small_scans, reports)
                for e in O.check_scan(O.Grid(mass_s, values_s, klass, q), *rep, check_rng, samples=0,
                                      exhaustive=True)]

    tasks.append(Task("exhaustive-40", run_small, check_small))

    # Exponent windows at further seeded (p, Q).
    windows = [(k, rng.uniform(1.5, 3.0), rng.uniform(1.1, 2.0)) for k in ("ap", "rh", "ap", "rh")]

    def run_windows():
        return [ex.sharp_range(kinds[k], p_, Q_) for k, p_, Q_ in windows]

    def check_windows(ranges):
        return [e for (k, p_, Q_), r in zip(windows, ranges) for e in _window_errors(k, p_, Q_, r)]

    tasks.append(Task("sharp-range", run_windows, check_windows))

    # Fault probes on fixed inputs.  Both characteristics are invariant under
    # w -> c*w, so the scaled scans must agree with the unscaled one.
    scale_cases = [(A, 1.1, 1e40), (R, 10.0, 1e-40)]
    four = lib.GridMeasure((np.linspace(0.0, 1.0, 5),), np.full(4, 0.25))
    w4 = np.array([1.0, 2.0, 1.0, 3.0])

    def run_scale():
        out = []
        for kind, q, c in scale_cases:
            try:
                out.append((ch.characteristic(four, lib.WeightGrid(w4), kind, q).value,
                            ch.characteristic(four, lib.WeightGrid(w4 * c), kind, q).value))
            except lib.PreconditionError as exc:
                out.append(("refused", str(exc)))
        return out

    def check_scale(out):
        errors = []
        for (kind, q, c), (a, b) in zip(scale_cases, out):
            if a == "refused":
                if not b:
                    errors.append("scale invariance: refusal names no reason")
            elif not abs(a - b) <= 1e-12 * abs(a):
                errors.append(f"scale invariance {kind.value} q={q}: w gives {a!r}, {c:g}*w gives {b!r}")
        return errors

    tasks.append(Task("scale-invariance", run_scale, check_scale, probe=True))

    # Cell moments spanning far more than double-double carries.
    wide = []
    for s in range(60):
        g = np.random.default_rng(s)
        masses = np.exp(g.uniform(-20.0, 20.0, 12))
        wide.append((masses, np.exp(g.uniform(-30.0, 30.0, 12))))
    wide_grids = [(lib.GridMeasure((np.linspace(0.0, 1.0, 13),), m), lib.WeightGrid(v)) for m, v in wide]

    def run_wide():
        out = []
        for m, w in wide_grids:
            try:
                out.append(_report(ch.characteristic(m, w, R, 2.0)))
            except lib.PreconditionError as exc:
                out.append(("refused", str(exc)))
        return out

    def check_wide(out):
        errors = []
        for s, ((m, v), res) in enumerate(zip(wide, out)):
            if res[0] == "refused":
                if not res[1]:
                    errors.append(f"dynamic range seed {s}: refusal names no reason")
                continue
            best, box, n = O.brute_force(O.Grid(m, v, "rh", 2.0))
            if (res[0], tuple(res[1])) != (best, box):
                errors.append(f"dynamic range seed {s}: {res[0]!r} at {res[1]}, fsum oracle {best!r} at {box}")
        return errors

    tasks.append(Task("dynamic-range", run_wide, check_wide, probe=True))
    return Workload(tasks, warmup="conclusion-lib-ap")


# ----------------------------------------------------------------------
# scan-nd
# ----------------------------------------------------------------------


def scan_nd(lib, seed: int, workdir: Path) -> Workload:
    ch = lib.characteristics
    kinds = {"ap": lib.ClassKind.MUCKENHOUPT_A, "rh": lib.ClassKind.REVERSE_HOLDER}
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng([seed, 1])
    tasks = []

    def scan_task(name, shape, klass, exhaustive=False, samples=48):
        bps, mass, values = _lognormal_grid(rng, shape)
        grid = (lib.GridMeasure(bps, mass), lib.WeightGrid(values))
        q = rng.uniform(1.5, 3.0)

        def run():
            return _report(ch.characteristic(*grid, kinds[klass], q))

        def check(res):
            return O.check_scan(O.Grid(mass, values, klass, q), *res, check_rng, samples=samples,
                                exhaustive=exhaustive)

        tasks.append(Task(name, run, check))

    def product_task(name, shape, klass):
        factors = [_lognormal_grid(rng, (n,)) for n in shape]
        mass, values = factors[0][1], factors[0][2]
        for _, m, v in factors[1:]:
            mass, values = np.multiply.outer(mass, m), np.multiply.outer(values, v)
        grid = (lib.GridMeasure(tuple(f[0][0] for f in factors), mass), lib.WeightGrid(values))
        q = rng.uniform(1.5, 3.0)

        def run():
            return _report(ch.characteristic(*grid, kinds[klass], q))

        def check(res):
            value, box, count = res
            sups = [O.brute_force(O.Grid(m, v, klass, q)) for _, m, v in factors]
            want = math.prod(s[0] for s in sups)
            errors = O.check_scan(O.Grid(mass, values, klass, q), value, box, count, check_rng, samples=16)
            if abs(value - want) > O.product_tolerance(klass, q, len(shape)) * want:
                errors.append(f"{name}: value {value!r} is not the product {want!r} of the 1-D suprema")
            if tuple(box) != tuple(s[1][0] for s in sups):
                errors.append(f"{name}: argmax {box} is not the product of the 1-D argmaxes")
            return errors

        tasks.append(Task(name, run, check))

    scan_task("scan-2d-ap", (24, 24), "ap")
    scan_task("scan-2d-rh", (24, 24), "rh")
    scan_task("scan-3d-ap", (7, 7, 7), "ap", samples=24)
    scan_task("scan-3d-rh", (7, 7, 7), "rh", samples=24)
    product_task("product-2d-ap", (24, 24), "ap")
    product_task("product-3d-rh", (7, 7, 7), "rh")
    scan_task("exhaustive-2d", (5, 6), "rh", exhaustive=True)
    scan_task("exhaustive-3d", (3, 3, 4), "ap", exhaustive=True)
    product_task("product-3d-ap-small", (4, 5, 3), "ap")
    return Workload(tasks, warmup="scan-2d-ap")


# ----------------------------------------------------------------------
# split-io
# ----------------------------------------------------------------------


def split_io(lib, seed: int, workdir: Path) -> Workload:
    gr, sp, bl = lib.grids, lib.splitting, lib.bellman
    A = lib.ClassKind.MUCKENHOUPT_A
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng([seed, 1])
    tasks = []

    # Grid files of about 1e5 cells, written and then read back as two tasks;
    # the read checks the round trip.
    io_grids = {"1d": _lognormal_grid(rng, (100_000,)), "2d": _lognormal_grid(rng, (316, 316))}
    for tag, (bps, mass, values) in io_grids.items():
        pair = (lib.GridMeasure(bps, mass), lib.WeightGrid(values))
        path = workdir / f"grid-{tag}.txt"

        def check(res, tag=tag, bps=bps, mass=mass, values=values):
            m, w = res
            return O.check_same_arrays(f"read-{tag}", [*bps, mass, values], [*m.breakpoints, m.mass, w.values])

        tasks.append(Task(f"write-{tag}", lambda pair=pair, path=path: gr.write_grid(path, *pair), lambda res: []))
        tasks.append(Task(f"read-{tag}", lambda path=path: gr.read_grid(path), check))

    # Prefix tables at the same size: mass and w.
    for tag, (bps, mass, values) in io_grids.items():
        pair = (lib.GridMeasure(bps, mass), lib.WeightGrid(values))

        def run(pair=pair):
            return gr.PrefixTables(*pair, (1.0,))

        def check(tables, tag=tag, mass=mass, values=values):
            cells = {0.0: mass, 1.0: O.moment(mass, values, 1.0)}

            def query(s, box):
                b = lib.BoxIdx(box)
                return tables.mass_sum(b) if s == 0.0 else tables.moment_sum(s, b)

            return O.check_tables(f"tables-{tag}", cells, query, check_rng, samples=12 if tag == "1d" else 40)

        tasks.append(Task(f"tables-{tag}", run, check, ))

    # Split trees of the extremal A_2 power weight, Q from the closed form.
    # alpha is fixed: how many positions the tight band rejects swings
    # several-fold with alpha, and some alpha make the tight band infeasible.
    alpha, p, cells, levels = 0.5, 2.0, 2048, 9
    tree_m, tree_w = gr.power_weight_grid(alpha, cells)
    Q = O.power_closed_form("ap", p, alpha)
    for band, factor in (("loose", LOOSE_Q1_FACTOR), ("tight", TIGHT_Q1_FACTOR)):
        config = sp.SplitConfig(kind=A, p=p, Q=Q, Q1=Q * factor, levels=levels)

        def run(config=config):
            return sp.build_tree(tree_m, tree_w, config)

        def check(tree, config=config, band=band):
            errors = _tree_errors(tree, tree_m.mass, tree_w.values, "ap", config)
            if len(tree.levels) != levels + 1:
                errors.append(f"tree-{band}: {len(tree.levels)} levels")
            return errors

        tasks.append(Task(f"tree-{band}", run, check))

    # Chain reports on a bounded weight whose average points stay inside the
    # fixture lattices; for A_2, <w><1/w> <= max w / min w gives Q.
    fixture_paths = [FIXTURES / "candidate_ap_p2_r12_Q2.txt", FIXTURES / "candidate_control_x13.txt"]
    fixtures = [bl.read_candidate(f) for f in fixture_paths]
    # Masses within a factor 1.6 keep every ratio window (0.2, 0.8) feasible.
    bps, _, _ = _lognormal_grid(rng, (256,))
    mass_c = np.exp(rng.uniform(math.log(0.8), math.log(1.25), 256))
    values_c = np.exp(rng.uniform(math.log(0.6), math.log(1.6), 256))
    chain_pair = (lib.GridMeasure(bps, mass_c), lib.WeightGrid(values_c))
    q_chain = float(values_c.max() / values_c.min())
    # Q1 = 2 Q: a band factor of its own, so tracing does not count this tree as a loose-band tree.
    chain_config = sp.SplitConfig(kind=A, p=2.0, Q=q_chain, Q1=q_chain * 2.0, levels=6)
    candidates = [bl.builtin_candidate("builtin:linear", A, 2.0, 2.0),
                  bl.builtin_candidate("builtin:power:1.3", A, 2.0, 2.0), *fixtures]

    def run_chain():
        tree = sp.build_tree(*chain_pair, chain_config)
        return tree, [sp.chain_report(tree, c.r, c) for c in candidates]

    def check_chain(res):
        tree, reports = res
        errors = _tree_errors(tree, mass_c, values_c, "ap", chain_config)
        errors += O.check_linear_chain(reports[0].s_values, mass_c, values_c)
        for c, rep in zip(candidates, reports):
            if len(rep.s_values) != 7 or not all(math.isfinite(s) for s in rep.s_values):
                errors.append(f"chain {c.source}: S_M {rep.s_values}")
        return errors

    tasks.append(Task("chain-reports", run_chain, check_chain))

    region = bl.AveragePairRegion(A, 2.0, 2.0)

    def run_builtins():
        return (bl.verify_candidate(region, candidates[0], 1.0, seed=seed),
                bl.verify_candidate(region, candidates[1], 1.3, seed=seed))

    def check_builtins(res):
        linear, power = res
        errors = []
        if not (linear.verdict and linear.c_hat == 1.0 and linear.segments_tested == 200):
            errors.append(f"builtin:linear: verdict {linear.verdict}, c_hat {linear.c_hat!r}")
        if power.verdict or not power.violations:
            errors.append("builtin:power:1.3 passes segment concavity; x1**1.3 is convex in x1")
        return errors

    tasks.append(Task("verify-builtins", run_builtins, check_builtins))

    def run_fixtures():
        good, control = (bl.read_candidate(f) for f in fixture_paths)
        return (good, bl.verify_candidate(region, good, good.r, segments=400, seed=seed, rel_tol=1e-3,
                                          x1_range=(0.5, 2.0)),
                bl.verify_candidate(region, control, control.r, segments=200, seed=seed, x1_range=(0.5, 2.0)))

    def check_fixtures(res):
        good, good_rep, control_rep = res
        errors = []
        if (good.kind.value, good.p.p, good.r, good.Q) != ("ap", 2.0, 1.2, 2.0):
            errors.append(f"fixture metadata {(good.kind, good.p, good.r, good.Q)}")
        if not good_rep.verdict or good_rep.segments_tested != 400:
            errors.append(f"candidate_ap_p2_r12_Q2 fails at its lattice tolerance: {len(good_rep.violations)} violations")
        if control_rep.verdict:
            errors.append("candidate_control_x13 passes the verifier")
        return errors

    tasks.append(Task("verify-fixtures", run_fixtures, check_fixtures))
    return Workload(tasks, warmup="verify-fixtures")


def _tree_errors(tree, mass, values, klass, config):
    levels = [[{"box": n.box.ranges, "axis": n.axis, "split_index": n.split_index, "ratio": n.ratio,
                "point": n.point, "segment_max": n.segment_psi_max} for n in level] for level in tree.levels]
    return O.check_tree({"levels": levels}, mass, values, klass, config.p.p, config.c, config.Q1,
                        config.segment_samples)


WORKLOADS = {"ladder-1d": ladder_1d, "scan-nd": scan_nd, "split-io": split_io}


def layer_probe(lib, workdir: Path) -> None:
    """One small call into every traced layer, for layers a workload never calls."""
    A = lib.ClassKind.MUCKENHOUPT_A
    gr, sp = lib.grids, lib.splitting
    rng = np.random.default_rng(0)
    m, w = gr.power_weight_grid(0.5, 512)
    lib.characteristics.characteristic(m, w, A, 2.0)
    for shape in ((10, 10), (5, 5, 5)):
        bps, mass, values = _lognormal_grid(rng, shape)
        lib.characteristics.characteristic(lib.GridMeasure(bps, mass), lib.WeightGrid(values), A, 2.0)
    gr.write_grid(workdir / "probe.txt", m, w)
    gr.read_grid(workdir / "probe.txt")
    gr.refine(*gr.power_weight_grid(0.5, 256), 2)
    Q = O.power_closed_form("ap", 2.0, 0.5)
    for factor in (LOOSE_Q1_FACTOR, TIGHT_Q1_FACTOR):
        tree = sp.build_tree(m, w, sp.SplitConfig(kind=A, p=2.0, Q=Q, Q1=Q * factor, levels=5))
    linear = lib.bellman.builtin_candidate("builtin:linear", A, 2.0, 2.0)
    sp.chain_report(tree, 1.0, linear)
    lib.bellman.verify_candidate(lib.bellman.AveragePairRegion(A, 2.0, 2.0), linear, 1.0, segments=50)
    lib.bellman.read_candidate(FIXTURES / "candidate_ap_p2_r12_Q2.txt")
    m64, w64 = gr.power_weight_grid(0.5, 64)
    lib.bellman.theorem_conclusion_check(m64, w64, A, 2.0, 1.6, Q, levels=1)
    _quiet_cli(lib, ["exponents", "--class", "ap", "--p", "2", "--Q", "1.5"])
