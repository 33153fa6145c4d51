import math
import sys
from unittest import mock

import numpy as np
import pytest

from boxweights import (
    AvgPoint,
    BoxIdx,
    ClassKind,
    GridMeasure,
    PParam,
    SplitConfig,
    WeightGrid,
    build_tree,
    chain_report,
    choose_direction,
    choose_position,
    power_weight_grid,
    segment_max,
)
from boxweights._summation import dd_add
from boxweights.bellman import BellmanCandidate, read_candidate
from boxweights.characteristics import characteristic, pair_gauge
from boxweights.errors import InfeasibleSplitError, PreconditionError, ZeroMeasureBoxError
from boxweights.grids import PrefixTables, uniform_measure
from boxweights import splitting
from boxweights.splitting import ChainReport, segment_maxima

from conftest import FIXTURE_DIR

A = ClassKind.MUCKENHOUPT_A
P2 = PParam(2.0)


def config(**kw):
    base = dict(kind=A, p=P2, Q=1.5, Q1=1.6, c=0.2, levels=4)
    base.update(kw)
    return SplitConfig(**base)


class TestChooseDirection:
    def test_longest_edge(self):
        measure = GridMeasure(
            (np.linspace(0, 2, 5), np.linspace(0, 1, 5)), np.full((4, 4), 1 / 16)
        )
        assert choose_direction(measure, BoxIdx.full((4, 4))) == 0

    def test_tie_breaks_to_first_axis(self):
        measure = uniform_measure((4, 4))
        assert choose_direction(measure, BoxIdx.full((4, 4))) == 0

    def test_three_axes(self):
        measure = GridMeasure(
            (np.linspace(0, 1, 3), np.linspace(0, 3, 3), np.linspace(0, 2, 3)),
            np.full((2, 2, 2), 1 / 8),
        )
        assert choose_direction(measure, BoxIdx.full((2, 2, 2))) == 1


class TestSegmentMax:
    def test_identical_endpoints(self):
        x = AvgPoint(2.5, 0.625)
        assert segment_max(x, x, A, P2) == 1.5625

    def test_two_cell_segment_quadratic_vertex(self):
        # (4 - 3*lam)(0.25 + 0.75*lam) peaks at lam = 1/2 with value 1.5625,
        # and 0.5 is on the sampled grid for odd sample counts
        got = segment_max(AvgPoint(1.0, 1.0), AvgPoint(4.0, 0.25), A, P2, 257)
        assert got == 1.5625

    def test_matches_quadratic_closed_form(self):
        # cross-validation of the sampled maximum against the exact vertex
        # of the Muckenhoupt p=2 gauge, which is quadratic along segments
        rng = np.random.default_rng(4)
        for _ in range(50):
            xa = AvgPoint(float(rng.uniform(0.2, 4)), float(rng.uniform(0.2, 4)))
            xb = AvgPoint(float(rng.uniform(0.2, 4)), float(rng.uniform(0.2, 4)))
            a1, d1 = xb.x1, xa.x1 - xb.x1
            a2, d2 = xb.x2, xa.x2 - xb.x2
            cands = [a1 * a2, (a1 + d1) * (a2 + d2)]
            if d1 * d2 != 0:
                lam = -(a1 * d2 + a2 * d1) / (2 * d1 * d2)
                if 0 < lam < 1:
                    cands.append((a1 + lam * d1) * (a2 + lam * d2))
            exact = max(cands)
            got = segment_max(xa, xb, A, P2, 257)
            assert got == pytest.approx(exact, rel=1e-3)
            assert got <= exact + 1e-12

    def test_lower_boundary_chord_bulges_above_one(self):
        # the gauge=1 curve is strictly convex, so a chord between two of its
        # points passes strictly above gauge 1 in between
        xa = AvgPoint(0.5, 1.0 / 0.5)
        xb = AvgPoint(2.0, 1.0 / 2.0)
        got = segment_max(xa, xb, A, P2, 257)
        assert got > 1.0 + 1e-3

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(PreconditionError):
            segment_max(AvgPoint(1.0, 0.0), AvgPoint(1.0, 1.0), A, P2)


class TestPeakSamples:
    @pytest.mark.parametrize("samples", [2, 17, 257])
    @pytest.mark.parametrize("kind", [A, ClassKind.REVERSE_HOLDER])
    def test_peak_samples_are_samples_of_segment_maxima(self, kind, samples):
        rng = np.random.default_rng(samples + 1000 * (kind is A))
        p = float(rng.uniform(1.3, 4.0))
        ends = np.exp(rng.uniform(-2.0, 2.0, (4, 600)))
        ends[0, 100:150] = ends[2, 100:150]  # d1 = 0
        ends[1, 150:200] = ends[3, 150:200]  # d2 = 0
        ends[:2, 200:250] = ends[2:, 200:250]  # coincident endpoints
        ends[rng.integers(4, size=50), np.arange(250, 300)] = rng.choice([0.0, -0.5, -3.0], 50)
        lam = np.linspace(0.0, 1.0, samples)
        idx, peaks = splitting._peak_samples(lam, *ends, kind, p)  # no RuntimeWarning, nonpositive included
        with np.errstate(all="ignore"):
            full = splitting._gauges(lam, *ends, kind, p)
            maxima = segment_maxima(lam, *ends, kind, p)
        assert np.array_equal(np.take_along_axis(full, idx, axis=1).view(np.uint64), peaks.view(np.uint64))
        assert np.array_equal(full.max(axis=1).view(np.uint64), maxima.view(np.uint64))
        # On a segment of distinct positive ends the gauge has one critical
        # point, so the peak samples hold the sampled maximum; it lies inside
        # for some segments and at an end for others.  (With d1 = 0, d2 = 0
        # or coincident ends the gauge is monotone or constant up to the
        # rounding of the samples.)
        assert peaks[:100].max(axis=1).tolist() == maxima[:100].tolist()
        inside = (full[:100].argmax(axis=1) > 0) & (full[:100].argmax(axis=1) < samples - 1)
        assert samples == 2 or 0 < np.count_nonzero(inside) < 100
        for limit in (1.0, *np.quantile(maxima[:100], [0.1, 0.5, 0.9]).tolist(), math.inf):
            out = splitting._out_of_band(lam, *ends, kind, p, limit)
            assert not (out & ~(maxima > limit)).any()  # only segments above the limit are rejected
            assert out[:100].tolist() == (maxima[:100] > limit).tolist()


class TestForeignTables:
    """Tables built for another pair are refused, as characteristic refuses them."""

    def test_build_tree_and_choose_position_refuse_them(self):
        # tables of x**2 read on x**0.5 put the root point at (0.3333, 30.33), not (0.6667, 1.819)
        measure, weight = power_weight_grid(0.5, 8)
        cfg = config(Q=3.0, Q1=4.0, levels=2)
        other = PrefixTables(*power_weight_grid(2.0, 8))
        match = "prefix tables were built for another measure or weight"
        with pytest.raises(PreconditionError, match=match):
            build_tree(measure, weight, cfg, tables=other)
        with pytest.raises(PreconditionError, match=match):
            choose_position(measure, weight, BoxIdx.full(measure.shape), 0, cfg, other)
        own = PrefixTables(measure, weight, (1.0, cfg.moment_exponent))
        assert build_tree(measure, weight, cfg, tables=own).root == build_tree(measure, weight, cfg).root


class TestChoosePosition:
    def test_uniform_midpoint(self):
        measure = uniform_measure(4)
        weight = WeightGrid(np.ones(4))
        choice = choose_position(measure, weight, BoxIdx(((0, 4),)), 0, config(c=0.25))
        assert choice.index == 2
        assert choice.coord == 0.5
        assert choice.ratio == 0.5

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_axis_outside_the_box_is_refused(self, axis):
        # axis -1 read as the last axis gave split_coord 0.0, breakpoint 0 of no axis
        measure = uniform_measure((6, 8))
        weight = WeightGrid(np.ones((6, 8)))
        with pytest.raises(PreconditionError, match=f"axis {axis} is not an axis of the box 0:6;0:8"):
            choose_position(measure, weight, BoxIdx.full((6, 8)), axis, config(Q=1.5, Q1=3.0))

    def test_infeasible_reports_best_ratio(self):
        measure = GridMeasure(
            (np.linspace(0, 1, 5),), np.array([0.7, 0.1, 0.1, 0.1])
        )
        weight = WeightGrid(np.ones(4))
        with pytest.raises(InfeasibleSplitError) as err:
            choose_position(measure, weight, BoxIdx(((0, 4),)), 0, config(c=0.4))
        assert err.value.best_ratio == pytest.approx(0.7, abs=1e-12)
        assert err.value.best_segment_max is None

    def test_two_cell_accepted_within_band(self, two_cell):
        cfg = config(Q=1.5625, Q1=1.6, c=0.4, levels=1)
        choice = choose_position(*two_cell, BoxIdx(((0, 2),)), 0, cfg)
        assert choice.index == 1
        assert choice.ratio == 0.5
        assert choice.segment_psi_max == 1.5625
        assert choice.left_point == AvgPoint(1.0, 1.0)
        assert choice.right_point == AvgPoint(4.0, 0.25)

    def test_two_cell_rejected_when_band_too_tight(self, two_cell):
        cfg = config(Q=1.51, Q1=1.55, c=0.4, levels=1)
        with pytest.raises(InfeasibleSplitError) as err:
            choose_position(*two_cell, BoxIdx(((0, 2),)), 0, cfg)
        assert err.value.best_segment_max == 1.5625

    def test_single_cell_axis(self):
        measure = uniform_measure(1)
        weight = WeightGrid(np.ones(1))
        with pytest.raises(InfeasibleSplitError, match="single cell"):
            choose_position(measure, weight, BoxIdx(((0, 1),)), 0, config())

    def test_tables_beyond_the_certificate_are_refused(self):
        # 12 masses in e**[-40, 40]: the mass table's margin is about 2e17
        mass = np.exp(np.random.default_rng(0).uniform(-40.0, 40.0, 12))
        measure = GridMeasure((np.linspace(0.0, 1.0, 13),), mass)
        with pytest.raises(PreconditionError, match=r"cell masses span .*\(margin 1\.95e\+17\)"):
            choose_position(measure, WeightGrid(np.ones(12)), BoxIdx.full((12,)), 0, config())


class TestBuildTree:
    def test_uniform_perfect_tree(self):
        measure = uniform_measure(16)
        weight = WeightGrid(np.ones(16))
        tree = build_tree(measure, weight, config(Q=1.0001, Q1=1.05, levels=4))
        assert tree.depth == 4
        assert [len(level) for level in tree.levels] == [1, 2, 4, 8, 16]
        for node in tree.nodes():
            assert node.point == AvgPoint(1.0, 1.0)
            if node.children:
                assert node.ratio == 0.5

    def test_2d_alternating_axes_diameter_halves(self):
        measure = uniform_measure((16, 16))
        weight = WeightGrid(np.ones((16, 16)))
        tree = build_tree(measure, weight, config(Q=1.0001, Q1=1.05, levels=8))
        axes = [tree.levels[lv][0].axis for lv in range(8)]
        assert axes == [0, 1, 0, 1, 0, 1, 0, 1]
        d0 = tree.root.diameter
        for lv in range(2, 9, 2):
            assert tree.max_diameter(lv) == pytest.approx(
                d0 / 2 ** (lv // 2), rel=1e-12
            )

    def test_partition_and_convex_combination(self):
        measure, weight = power_weight_grid(0.5, 2**8)
        cfg = config(Q=4.0 / 3.0, Q1=1.4, c=0.2, levels=6)
        tree = build_tree(measure, weight, cfg)
        leaves = tree.leaves()
        assert math.fsum(n.mass for n in leaves) == pytest.approx(
            tree.root.mass, rel=1e-12
        )
        # leaves tile the root box without overlap
        spans = sorted(n.box.ranges[0] for n in leaves)
        assert spans[0][0] == 0 and spans[-1][1] == 2**8
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        for node in tree.nodes():
            if node.children:
                left, right = node.children
                lam = left.mass / node.mass
                assert lam * left.point.x1 + (1 - lam) * right.point.x1 == pytest.approx(
                    node.point.x1, rel=1e-12
                )
                assert lam * left.point.x2 + (1 - lam) * right.point.x2 == pytest.approx(
                    node.point.x2, rel=1e-12
                )
                assert cfg.c < node.ratio < 1 - cfg.c
                assert node.segment_psi_max <= cfg.Q1

    def test_diameter_decay_1d(self):
        measure, weight = power_weight_grid(0.5, 2**12)
        cfg = config(Q=4.0 / 3.0, Q1=1.4, c=0.2, levels=12)
        tree = build_tree(measure, weight, cfg)
        diams = [tree.max_diameter(lv) for lv in range(13)]
        assert all(b < a for a, b in zip(diams, diams[1:]))
        assert diams[12] <= 0.15 * tree.root.diameter

    def test_diameter_decay_2d(self):
        measure = uniform_measure((64, 64))
        rng = np.random.default_rng(2)
        weight = WeightGrid(rng.uniform(0.9, 1.1, (64, 64)))
        from boxweights import ap_characteristic

        bound = ap_characteristic(measure, weight, P2).value
        cfg = config(Q=bound * 1.0001, Q1=bound * 1.05, c=0.2, levels=12)
        tree = build_tree(measure, weight, cfg)
        diams = [tree.max_diameter(lv) for lv in range(13)]
        assert all(b < a for a, b in zip(diams, diams[1:]))
        assert diams[12] <= 0.15 * tree.root.diameter

    def test_4d_tree_cycles_the_axes(self):
        measure = uniform_measure((4, 4, 4, 4))
        weight = WeightGrid(np.random.default_rng(4).uniform(0.9, 1.1, (4, 4, 4, 4)))
        bound = characteristic(measure, weight, A, 2.0).value
        tree = build_tree(measure, weight, config(Q=bound * 1.0001, Q1=bound * 1.05, c=0.2, levels=6))
        assert [len(level) for level in tree.levels] == [1, 2, 4, 8, 16, 32, 64]
        assert [tree.levels[lv][0].axis for lv in range(6)] == [0, 1, 2, 3, 0, 1]
        # the leaves tile the 256 cells
        assert sum(math.prod(b - a for a, b in n.box.ranges) for n in tree.leaves()) == 4**4
        assert math.fsum(n.mass for n in tree.leaves()) == pytest.approx(tree.root.mass, rel=1e-12)

    def test_infeasible_node_reports_path(self):
        # a dominant cell deep in the grid defeats the ratio window
        mass = np.full(8, 1e-4)
        mass[5] = 1.0
        measure = GridMeasure((np.linspace(0, 1, 9),), mass)
        weight = WeightGrid(np.ones(8))
        with pytest.raises(InfeasibleSplitError) as err:
            build_tree(measure, weight, config(Q=1.0001, Q1=1.05, c=0.4, levels=3))
        assert err.value.path is not None


class TestStepFunctionConvergence:
    def test_l1_decreases_and_vanishes_at_full_depth(self):
        n = 2**12
        measure, weight = power_weight_grid(0.5, n)
        cfg = config(Q=4.0 / 3.0, Q1=1.4, c=0.2, levels=12)
        tree = build_tree(measure, weight, cfg)
        tables = tree.tables
        total = tree.root.mass
        avg_w = tables.moment_sum(1.0, tree.root.box) / total

        def l1(level):
            err = 0.0
            for node in tree.levels[level]:
                a, b = node.box.ranges[0]
                cells_w = weight.values[a:b]
                cells_m = measure.mass[a:b]
                err += float(np.sum(cells_m * np.abs(cells_w - node.point.x1)))
            return err / total

        dists = [l1(lv) for lv in range(13)]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert dists[12] == 0.0
        assert dists[12] <= 0.02 * avg_w


def _per_node_chain(tree, r, candidate):
    """chain_report as it was when it evaluated the candidate one node at a time."""
    evaluate = candidate.evaluate if hasattr(candidate, "evaluate") else candidate
    total = tree.root.mass
    s_values = []
    for level_nodes in tree.levels:
        terms = []
        for node in level_nodes:
            try:
                val = float(evaluate(node.point.x1, node.point.x2))
            except Exception as exc:
                raise PreconditionError(
                    f"candidate evaluation failed at point {tuple(node.point)}: {exc}"
                ) from exc
            terms.append(node.mass / total * val)
        s_values.append(math.fsum(terms))
    terminal = tree.tables.moment_sum(r, tree.root.box) / total
    return ChainReport(r=r, s_values=tuple(s_values), terminal_avg_wr=terminal)


class TestChainReport:
    def test_linear_candidate_is_conserved(self):
        measure, weight = power_weight_grid(0.5, 2**8)
        cfg = config(Q=4.0 / 3.0, Q1=1.4, c=0.2, levels=6)
        tree = build_tree(measure, weight, cfg)
        rep = chain_report(tree, 1.0, lambda x1, x2: x1)
        assert max(rep.s_values) - min(rep.s_values) <= 1e-12
        assert rep.s_values[0] == pytest.approx(rep.terminal_avg_wr, rel=1e-12)

    def test_constant_weight_any_candidate_with_unit_value(self):
        measure = uniform_measure(16)
        weight = WeightGrid(np.ones(16))
        tree = build_tree(measure, weight, config(Q=1.0001, Q1=1.05, levels=4))
        rep = chain_report(tree, 1.7, lambda x1, x2: x1**1.7)
        assert rep.s_values == pytest.approx([1.0] * 5, abs=1e-12)

    def test_tabulated_majorant_chain(self, majorant_r15):
        cand, _ = majorant_r15
        measure, weight = power_weight_grid(0.5, 2**10)
        cfg = config(Q=4.0 / 3.0, Q1=1.5, c=0.2, levels=6)
        tree = build_tree(measure, weight, cfg)
        rep = chain_report(tree, 1.5, cand)
        eps_fp = 1e-9
        assert all(
            later <= earlier + eps_fp
            for earlier, later in zip(rep.s_values, rep.s_values[1:])
        )
        assert rep.s_values[0] >= rep.s_values[-1]
        assert rep.s_values[-1] >= rep.terminal_avg_wr - 1e-6

    def test_level_arrays_equal_per_node_evaluation(self, majorant_r15):
        power_tree = build_tree(*power_weight_grid(0.5, 2**10), config(Q=4.0 / 3.0, Q1=1.5, c=0.2, levels=6))
        # a bounded weight: <w><1/w> <= 1.27 keeps every point inside the fixture lattices
        rng = np.random.default_rng(6)
        values = np.exp(rng.uniform(math.log(0.6), math.log(1.6), 256))
        measure = GridMeasure((np.linspace(0.0, 1.0, 257),), np.exp(rng.uniform(-0.2, 0.2, 256)))
        q = float(values.max() / values.min())
        bounded_tree = build_tree(measure, WeightGrid(values), config(Q=q, Q1=2.0 * q, levels=6))
        fixtures = [read_candidate(FIXTURE_DIR / name) for name in ("candidate_ap_p2_r12_Q2.txt", "candidate_control_x13.txt")]
        runs = [
            (power_tree, 1.5, majorant_r15[0]),
            (power_tree, 1.7, lambda x1, x2: x1**1.7),
            *((tree, r, BellmanCandidate.power(A, P2, r, 2.0)) for tree in (power_tree, bounded_tree) for r in (1.0, 1.3)),
            (bounded_tree, 1.0, BellmanCandidate.linear(A, P2, 2.0)),
            *((bounded_tree, cand.r, cand) for cand in fixtures),
        ]
        for tree, r, cand in runs:
            assert repr(chain_report(tree, r, cand)) == repr(_per_node_chain(tree, r, cand))

    @pytest.mark.parametrize(
        "bad, low, high",
        [(np.nan, 0.0, 0.3), (np.inf, 0.0, 0.3), (-np.inf, 0.0, 0.3), (-np.inf, 0.5, 0.6)],
    )
    def test_non_finite_value_names_the_first_such_point(self, bad, low, high):
        # x1 runs 0.236 .. 0.968 on level 3 and 0.333 .. 0.935 above it, so
        # level 3 is the first to hold a non-finite value, and +inf as well;
        # with -inf, math.fsum could not add the level
        measure, weight = power_weight_grid(0.5, 2**8)
        tree = build_tree(measure, weight, config(Q=4.0 / 3.0, Q1=2.0, levels=4))

        def cand(x1, x2):
            return np.where((low < x1) & (x1 < high), bad, np.where(x1 > 0.95, np.inf, x1))

        first = next(n for n in tree.nodes() if not math.isfinite(cand(*n.point)))
        assert first.level == 3 and first.path == ("000" if low == 0.0 else "010")
        with pytest.raises(PreconditionError) as err:
            chain_report(tree, 1.0, cand)
        value = float(cand(*first.point))
        assert str(err.value) == f"candidate evaluation failed at point {tuple(first.point)}: value {value!r} is not finite"

    def test_failing_level_names_the_first_failing_node(self, majorant_r12):
        cand, _ = majorant_r12
        measure, weight = power_weight_grid(0.5, 2**8)
        tree = build_tree(measure, weight, config(Q=4.0 / 3.0, Q1=1.5, c=0.2, levels=6))
        known = {node.point.x1 for level in tree.levels[:3] for node in level}

        def picky(x1, x2):
            # defined at the points of levels 0-2 only: all of level 3 fails
            unknown = [x for x in np.atleast_1d(x1).tolist() if x not in known]
            if unknown:
                raise ValueError(f"undefined at x1={unknown[0]!r}")
            return x1

        for candidate in (cand, picky):
            errors = []
            for report in (chain_report, _per_node_chain):
                with pytest.raises(PreconditionError) as info:
                    report(tree, 1.2, candidate)
                errors.append((str(info.value), repr(info.value.__cause__)))
            assert errors[0] == errors[1]
            assert errors[0][0].startswith("candidate evaluation failed at point")

    def test_candidate_error_carries_point(self, majorant_r12):
        cand, _ = majorant_r12
        # the r=1.2 table covers x1 in [0.5, 2] only; tree points go below
        measure, weight = power_weight_grid(0.5, 2**8)
        cfg = config(Q=4.0 / 3.0, Q1=1.5, c=0.2, levels=6)
        tree = build_tree(measure, weight, cfg)
        with pytest.raises(PreconditionError, match="candidate evaluation failed"):
            chain_report(tree, 1.2, cand)


# ----------------------------------------------------------------------
# The batched splitter against a test-local copy of the per-position loop:
# one corner-loop box sum per query, one segment_max call per candidate.
# ----------------------------------------------------------------------


def _ref_box_sum(hi, lo, ranges):
    acc_h, acc_l = 0.0, 0.0
    for mask in range(1 << hi.ndim):
        idx = tuple(
            ranges[ax][0] if (mask >> ax) & 1 else ranges[ax][1] for ax in range(hi.ndim)
        )
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        acc_h, acc_l = dd_add(acc_h, acc_l, sign * hi[idx], sign * lo[idx])
    return float(acc_h + acc_l)


def _ref_point(tables, box, s2):
    m = _ref_box_sum(*tables.table(None), box.ranges)
    if m <= 0.0:
        raise ZeroMeasureBoxError(box)
    x1 = _ref_box_sum(*tables.table(1.0), box.ranges) / m
    x2 = _ref_box_sum(*tables.table(s2), box.ranges) / m
    return m, AvgPoint(x1, x2)


def _ref_segment_max(x_a, x_b, kind, p, samples):
    if min(x_a.x1, x_a.x2, x_b.x1, x_b.x2) <= 0.0:
        raise PreconditionError("average points must have positive coordinates")
    lam = np.linspace(0.0, 1.0, samples)
    x1 = lam * x_a.x1 + (1.0 - lam) * x_b.x1
    x2 = lam * x_a.x2 + (1.0 - lam) * x_b.x2
    return float(np.max(pair_gauge(kind, p, x1, x2)))


def _ref_split_box(box, axis, k):
    left, right = list(box.ranges), list(box.ranges)
    a, b = box.ranges[axis]
    left[axis], right[axis] = (a, k), (k, b)
    return BoxIdx(tuple(left)), BoxIdx(tuple(right))


def _ref_choose(measure, box, axis, config, tables):
    s2 = config.moment_exponent
    a, b = box.ranges[axis]
    if b - a < 2:
        raise InfeasibleSplitError(
            f"box {box} has a single cell along axis {axis}; no interior breakpoint", box=box
        )
    total = _ref_box_sum(*tables.table(None), box.ranges)
    if total <= 0.0:
        raise ZeroMeasureBoxError(box)
    positions = []
    for k in range(a + 1, b):
        left, _ = _ref_split_box(box, axis, k)
        positions.append((k, _ref_box_sum(*tables.table(None), left.ranges) / total))
    best_any = min(positions, key=lambda kr: (abs(kr[1] - 0.5), kr[0]))
    window = [kr for kr in positions if config.c < kr[1] < 1.0 - config.c]
    window.sort(key=lambda kr: (abs(kr[1] - 0.5), kr[0]))
    best_psi = None
    for k, ratio in window:
        left, right = _ref_split_box(box, axis, k)
        m_left, x_left = _ref_point(tables, left, s2)
        m_right, x_right = _ref_point(tables, right, s2)
        smax = _ref_segment_max(x_left, x_right, config.kind, config.p, config.segment_samples)
        if smax <= config.Q1:
            coord = float(measure.breakpoints[axis][k])
            return (axis, k, coord, ratio, smax, x_left, x_right, m_left, m_right)
        if best_psi is None or smax < best_psi:
            best_psi = smax
    raise InfeasibleSplitError(
        f"no feasible split of {box} along axis {axis}: best ratio "
        f"{best_any[1]:.6g} with window ({config.c}, {1 - config.c}), "
        f"best segment max {best_psi}",
        box=box,
        best_ratio=best_any[1],
        best_segment_max=best_psi,
    )


def _ref_tree(measure, weight, config, tables=None):
    """Node records of the tree, each child re-queried from its box."""
    s2 = config.moment_exponent
    tables = tables or PrefixTables(measure, weight, (1.0, s2))
    nodes = []

    def grow(box, level, path):
        mass, point = _ref_point(tables, box, s2)
        record = [box.ranges, level, path, mass, tuple(point), measure.box_diameter(box)]
        nodes.append(record)
        split = [None] * 5
        if level < config.levels:
            axis = choose_direction(measure, box)
            try:
                choice = _ref_choose(measure, box, axis, config, tables)
            except InfeasibleSplitError as exc:
                exc.path = path
                raise
            split = list(choice[:5])
            left, right = _ref_split_box(box, axis, choice[1])
            record.extend(split)
            grow(left, level + 1, path + "0")
            grow(right, level + 1, path + "1")
        else:
            record.extend(split)

    grow(BoxIdx.full(measure.shape), 0, "")
    return sorted(nodes, key=lambda record: record[1])  # level by level, as tree.nodes()


def _records(tree):
    return [
        [n.box.ranges, n.level, n.path, n.mass, tuple(n.point), n.diameter, n.axis,
         n.split_index, n.split_coord, n.ratio, n.segment_psi_max]
        for n in tree.nodes()
    ]


def _outcome(build):
    """repr of every number (so -0.0 and nan compare exactly) or of the error."""
    try:
        return ("ok", repr(build()))
    except (InfeasibleSplitError, ZeroMeasureBoxError, PreconditionError) as exc:
        fields = (exc.best_ratio, exc.best_segment_max, exc.path) if isinstance(
            exc, InfeasibleSplitError
        ) else ()
        return (type(exc).__name__, str(exc), repr(fields))


def _seeded_case(rng, ndim):
    shape = tuple(int(rng.integers(1, {1: 30, 2: 10, 3: 6}[ndim])) for _ in range(ndim))
    bps = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.2, 2.0, n)]) for n in shape)
    style = int(rng.integers(4))
    if style == 0:  # equal masses: ratio ties at equal distance from 1/2
        mass = np.ones(shape)
    elif style == 1:  # zero-mass slabs: runs of equal ratios
        mass = np.where(rng.random(shape) < 0.4, 0.0, rng.uniform(0.5, 2.0, shape))
        mass.flat[0] += 1.0
    else:
        mass = np.exp(rng.uniform(-2.0, 2.0, shape))
    values = np.ones(shape) if style == 0 and rng.random() < 0.5 else np.exp(rng.uniform(-1, 1, shape))
    kind = A if rng.random() < 0.5 else ClassKind.REVERSE_HOLDER
    Q = float(rng.uniform(1.01, 3.0))
    config = SplitConfig(
        kind=kind,
        p=float(rng.uniform(1.3, 4.0)),
        Q=Q,
        Q1=Q * float(rng.choice([1.0001, 1.001, 1.01, 1.1, 2.0])),  # tight bands reject many
        c=float(rng.choice([0.05, 0.2, 0.3, 0.45])),
        levels=int(rng.integers(1, 6)),
        segment_samples=int(rng.choice([2, 17, 257])),
    )
    return GridMeasure(bps, mass), WeightGrid(values), config


class TestSplitBox:
    @pytest.mark.parametrize("ranges, axis", [(((0, 5),), 0), (((2, 4), (1, 9)), 1), (((0, 3), (4, 6), (1, 2)), 0)])
    def test_children_and_errors_match_boxidx(self, ranges, axis):
        box = BoxIdx(ranges)
        a, b = ranges[axis]
        for k in range(a - 1, b + 2):
            got = _outcome(lambda: splitting._split_box(box, np.int64(axis), np.int64(k)))
            want = _outcome(lambda: _ref_split_box(box, axis, k))
            assert got == want
            if a < k < b:
                children = splitting._split_box(box, np.int64(axis), np.int64(k))
                assert children == _ref_split_box(box, axis, k)
                assert all(type(x) is int for child in children for r in child.ranges for x in r)


class TestBatchedSplitterAgainstLoop:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_seeded_trees(self, ndim):
        rng = np.random.default_rng(100 + ndim)
        kinds = set()
        for _ in range(40):
            measure, weight, cfg = _seeded_case(rng, ndim)
            got = _outcome(lambda: _records(build_tree(measure, weight, cfg)))
            want = _outcome(lambda: _ref_tree(measure, weight, cfg))
            assert got == want
            kinds.add(got[0])
        # both built trees and infeasible nodes are covered
        assert {"ok", "InfeasibleSplitError"} <= kinds

    def test_deep_3d_tree_of_many_columns(self):
        # 12 x 10 x 8 cells of lognormal masses and weight, 7 levels: at the
        # deepest split level most boxes have a column of their own
        rng = np.random.default_rng(7)
        shape = (12, 10, 8)
        bps = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.2, 2.0, n)]) for n in shape)
        measure = GridMeasure(bps, np.exp(rng.uniform(-2.0, 2.0, shape)))
        weight = WeightGrid(np.exp(rng.uniform(-1.0, 1.0, shape)))
        for kind, p in ((A, 2.0), (ClassKind.REVERSE_HOLDER, 2.5)):
            cfg = config(kind=kind, p=p, Q=2.0, Q1=20.0, c=0.1, levels=7)
            got = _outcome(lambda: _records(build_tree(measure, weight, cfg)))
            assert got == _outcome(lambda: _ref_tree(measure, weight, cfg))
            assert got[0] == "ok"
            deepest = build_tree(measure, weight, cfg).levels[6]
            columns = {(n.axis, n.box.ranges[:n.axis] + n.box.ranges[n.axis + 1:]) for n in deepest}
            assert 2 * len(columns) > len(deepest) == 64

    def test_benchmark_power_trees(self):
        measure, weight = power_weight_grid(0.5, 512)
        for factor in (1.5, 1.0005):
            cfg = config(Q=4.0 / 3.0, Q1=4.0 / 3.0 * factor, levels=7)
            got = _outcome(lambda: _records(build_tree(measure, weight, cfg)))
            assert got == _outcome(lambda: _ref_tree(measure, weight, cfg))
            assert got[0] == "ok"

    def test_power_tree_with_an_infeasible_tight_band(self):
        # x**-0.3 at 512 cells: the tight band rejects every root position;
        # at 8 levels x**0.2 fails first at node 1010011
        for alpha, levels, path in ((-0.3, 7, ""), (0.2, 8, "1010011")):
            measure, weight = power_weight_grid(alpha, 512)
            Q = 1.0 / ((1.0 + alpha) * (1.0 - alpha))  # the continuum A_2 characteristic
            cfg = config(Q=Q, Q1=Q * 1.0005, levels=levels)
            got = _outcome(lambda: _records(build_tree(measure, weight, cfg)))
            assert got == _outcome(lambda: _ref_tree(measure, weight, cfg))
            assert got[0] == "InfeasibleSplitError" and got[2].endswith(f"{path!r})")

    def test_first_failure_in_preorder_is_raised(self):
        # The root splits at 8.  Node 1 = [8, 14) has no ratio in (0.4, 0.6),
        # node 0 = [0, 8) splits at 4, and node 01 = [4, 8) has none either:
        # a level at a time meets node 1 first, preorder meets node 01 first.
        mass = np.array([1.0, 1.0, 1.0, 1.0, 0.1, 3.0, 0.1, 0.1, 0.1, 0.1, 0.1, 6.8, 0.1, 0.1])
        measure = GridMeasure((np.linspace(0.0, 1.0, 15),), mass)
        weight = WeightGrid(np.ones(14))
        cfg = config(Q=1.0001, Q1=1.05, c=0.4, levels=3)
        with pytest.raises(InfeasibleSplitError, match="along axis 0"):
            choose_position(measure, weight, BoxIdx(((8, 14),)), 0, cfg)
        got = _outcome(lambda: _records(build_tree(measure, weight, cfg)))
        assert got == _outcome(lambda: _ref_tree(measure, weight, cfg))
        assert got[0] == "InfeasibleSplitError" and "no feasible split of 4:8" in got[1]
        assert got[2].endswith("'01')")

    @pytest.mark.parametrize(
        "Q1, zero_at, want",
        [
            (1.4, 1, "ok"),  # k = 2 is feasible and wins in the first round
            (1.3, 3, "ok"),  # k = 2 is rejected; k = 1 wins in the round that holds k = 3
            (1.3, 1, "ZeroMeasureBoxError"),  # k = 2 is rejected; k = 1 stops the search
        ],
    )
    def test_zero_mass_child_after_a_feasible_candidate(self, monkeypatch, Q1, zero_at, want):
        # Search order k = 2, 1, 3 with segment maxima 1.333, 1.296 and 1.268.
        # On exact sums a window position never has a zero-mass child (c <
        # ratio < 1 - c gives 0 < left < total), so the mass sum of the right
        # child [zero_at, 4) is patched to read 0 in both searches.
        measure = GridMeasure((np.linspace(0.0, 1.0, 5),), np.ones(4))
        weight = WeightGrid(np.array([2.0, 1.0, 1.0, 3.0]))
        cfg = config(Q=1.0001, Q1=Q1, levels=1)
        tables = PrefixTables(measure, weight, (1.0, cfg.moment_exponent))
        mass_hi = tables.table(None)[0]
        between, ref_box_sum = splitting._between, _ref_box_sum

        def patched_between(column, x, y):
            sums = between(column, x, y)
            hit = (np.asarray(x) == zero_at) & (np.asarray(y) == 4)
            # the mass column of this 1-D tree holds the mass table's entries
            return np.where(hit, 0.0, sums) if np.array_equal(column[0], mass_hi) else sums

        def patched_ref(hi, lo, ranges):
            return 0.0 if hi is mass_hi and ranges == ((zero_at, 4),) else ref_box_sum(hi, lo, ranges)

        monkeypatch.setattr(splitting, "_between", patched_between)
        monkeypatch.setattr(sys.modules[__name__], "_ref_box_sum", patched_ref)
        got = _outcome(lambda: _records(build_tree(measure, weight, cfg, tables=tables)))
        assert got == _outcome(lambda: _ref_tree(measure, weight, cfg, tables))
        assert got[0] == want
        if want != "ok":
            assert got[1] == "box 1:4 has zero measure"

    def test_segment_calls_of_few_samples_give_the_same_trees(self, monkeypatch):
        # one segment per call of either kind, then three sampled in full and
        # 192 screened by their peak samples a call; the x**0.2 tree fails at
        # node 1010011
        runs = []
        for alpha, factor, levels in ((0.5, 1.5, 7), (0.5, 1.0005, 7), (0.2, 1.0005, 8)):
            Q = 1.0 / ((1.0 + alpha) * (1.0 - alpha))
            runs.append((*power_weight_grid(alpha, 512), config(Q=Q, Q1=Q * factor, levels=levels)))
        want = [_outcome(lambda: _records(build_tree(*run))) for run in runs]
        assert [w[0] for w in want] == ["ok", "ok", "InfeasibleSplitError"]
        for cap in (1, 3 * 257):
            monkeypatch.setattr(splitting, "_CALL_SAMPLES", cap)
            with mock.patch.object(splitting, "segment_maxima", wraps=segment_maxima) as full, \
                    mock.patch.object(splitting, "_out_of_band", wraps=splitting._out_of_band) as peak:
                assert [_outcome(lambda: _records(build_tree(*run))) for run in runs] == want
            for spy, most in ((full, max(1, cap // 257)), (peak, max(1, cap // 4))):
                assert max(len(call.args[1]) for call in spy.call_args_list) == most

    def test_trees_do_not_depend_on_the_peak_sample_filter(self, monkeypatch):
        # A filter that rejects nothing sends every candidate to full
        # sampling in search order; one that rejects everything leaves each
        # node its first candidate and then its whole window sampled in
        # full.  Both give the reference trees and errors, so every printed
        # or raised segment maximum comes from full sampling.
        builds = []
        for ndim in (1, 2, 3):
            rng = np.random.default_rng(100 + ndim)  # the cases of test_seeded_trees
            builds += [_seeded_case(rng, ndim) for _ in range(40)]
        for alpha, levels in ((-0.3, 7), (0.2, 8)):  # test_power_tree_with_an_infeasible_tight_band
            Q = 1.0 / ((1.0 + alpha) * (1.0 - alpha))
            builds.append((*power_weight_grid(alpha, 512), config(Q=Q, Q1=Q * 1.0005, levels=levels)))
        want = [_outcome(lambda: _ref_tree(*case)) for case in builds]
        for rejects in (False, True):
            monkeypatch.setattr(splitting, "_out_of_band", lambda lam, a1, *rest: np.full(a1.size, rejects))
            assert [_outcome(lambda: _records(build_tree(*case))) for case in builds] == want

    def test_a_stopping_candidate_stops_the_search_whatever_its_samples(self):
        # Node 0 searches candidates 0-3: 0 and 1 leave the band (gauge 16 at
        # (4, 4)), 2 is marked to stop (a zero mass or a nonpositive
        # coordinate) with samples far above Q1, 3 lies in the band.  Node 1
        # has candidate 4 only.  Candidate 1 is rejected by its peak samples
        # and never sampled in full, nor is 3.
        far, near = (4.0, 4.0), (1.0, 1.0)
        pairs = [(far, near), (far, far), (far, far), (near, near), (near, near)]
        ends = [np.array([pair[side][c] for pair in pairs]) for side in (0, 1) for c in (0, 1)]
        stop = np.array([False, False, True, False, False])
        psi, first = splitting._first_stops(splitting._samples(257), ends, stop, np.array([0, 0, 0, 0, 1]),
                                            np.array([0, 4]), np.array([4, 5]), config(Q=1.5, Q1=1.6))
        assert first.tolist() == [2, 4]
        assert psi.tolist()[:3:2] == [16.0, 16.0] and np.isnan(psi[[1, 3]]).all()

    def test_tight_power_tree_samples_few_segments_in_full(self):
        # the benchmark's 2048-cell trees: every loose-band node stops at its
        # first candidate; the tight band rejects most first candidates
        measure, weight = power_weight_grid(0.5, 2048)
        for factor, most in ((1.5, 511), (1.0005, 600)):
            cfg = config(Q=4.0 / 3.0, Q1=4.0 / 3.0 * factor, levels=9)
            with mock.patch.object(splitting, "segment_maxima", wraps=segment_maxima) as full:
                assert build_tree(measure, weight, cfg).depth == 9
            assert sum(len(call.args[1]) for call in full.call_args_list) <= most

    @pytest.mark.parametrize(
        "mass, c, Q1",
        [
            ([1.0, 1.0, 1.0, 1.0], 0.2, 1.6),  # 0.25 and 0.75 tie at distance 1/4
            ([1.0, 0.0, 0.0, 1.0], 0.2, 1.6),  # three positions at ratio 1/2
            ([1.0, 1.0, 1.0, 1.0], 0.2, 1.0001),  # tight band: every position rejected
            ([0.7, 0.1, 0.1, 0.1], 0.4, 1.6),  # empty window
            ([0.0, 0.0, 1.0, 1.0], 0.2, 1.6),
        ],
    )
    def test_choose_position_cases(self, mass, c, Q1):
        measure = GridMeasure((np.linspace(0.0, 1.0, 5),), np.array(mass))
        weight = WeightGrid(np.array([1.0, 3.0, 2.0, 4.0]))
        cfg = config(Q=1.00001, Q1=Q1, c=c)
        tables = PrefixTables(measure, weight, (1.0, cfg.moment_exponent))
        def fields(choice):
            return (choice.axis, choice.index, choice.coord, choice.ratio, choice.segment_psi_max,
                    choice.left_point, choice.right_point, choice.left_mass, choice.right_mass)

        for box in (BoxIdx(((0, 4),)), BoxIdx(((1, 4),)), BoxIdx(((1, 3),)), BoxIdx(((2, 3),))):
            got = _outcome(lambda: fields(choose_position(measure, weight, box, 0, cfg, tables)))
            assert got == _outcome(lambda: _ref_choose(measure, box, 0, cfg, tables))

    def test_equal_distance_tie_goes_to_smaller_index(self):
        # positions 1 and 3 sit at ratios 1/4 and 3/4 with segment maximum
        # 10/9; position 2, at ratio 1/2, has 9/8 and fails the band
        measure = GridMeasure((np.linspace(0.0, 1.0, 5),), np.ones(4))
        weight = WeightGrid(np.array([1.0, 1.0, 2.0, 1.0]))
        choice = choose_position(measure, weight, BoxIdx(((0, 4),)), 0, config(Q=1.11, Q1=1.12))
        assert (choice.index, choice.ratio) == (1, 0.25)
        assert choice.segment_psi_max == pytest.approx(10.0 / 9.0, rel=1e-15)

    def test_zero_mass_box(self):
        measure = GridMeasure((np.linspace(0.0, 1.0, 5),), np.array([0.0, 0.0, 1.0, 1.0]))
        weight = WeightGrid(np.ones(4))
        with pytest.raises(ZeroMeasureBoxError):
            choose_position(measure, weight, BoxIdx(((0, 2),)), 0, config())
        with pytest.raises(ZeroMeasureBoxError):
            build_tree(measure, weight, config(levels=1), root_box=BoxIdx(((0, 2),)))

    def test_single_cell_axis_in_3d(self):
        measure = uniform_measure((1, 3, 2))
        weight = WeightGrid(np.ones((1, 3, 2)))
        box = BoxIdx.full((1, 3, 2))
        with pytest.raises(InfeasibleSplitError, match="single cell"):
            choose_position(measure, weight, box, 0, config())
        # ratios 1/3 and 2/3 lie 0.16666666666666669 and 0.16666666666666663 from 1/2
        cfg = config(Q=1.0001, Q1=1.05, c=0.3)
        tables = PrefixTables(measure, weight, (1.0, cfg.moment_exponent))
        assert choose_position(measure, weight, box, 1, cfg).index == 2
        assert _ref_choose(measure, box, 1, cfg, tables)[1] == 2

    @pytest.mark.parametrize("p", [1.37, 2.0, 3.3, 10.0])
    @pytest.mark.parametrize("kind", [A, ClassKind.REVERSE_HOLDER])
    def test_segment_maxima_equal_single_calls(self, kind, p):
        rng = np.random.default_rng(int(p * 100))
        ends = [np.exp(rng.uniform(-3.0, 3.0, 512)) for _ in range(4)]
        lam = np.linspace(0.0, 1.0, 257)
        batch = segment_maxima(lam, *ends, kind, p)
        single = [
            _ref_segment_max(AvgPoint(ends[0][i], ends[1][i]), AvgPoint(ends[2][i], ends[3][i]),
                             kind, p, 257)
            for i in range(512)
        ]
        assert batch.tolist() == single
        assert [segment_max(AvgPoint(ends[0][i], ends[1][i]), AvgPoint(ends[2][i], ends[3][i]),
                            kind, p) for i in range(512)] == single


class TestPrecisionCertificate:
    def test_tables_beyond_the_certificate_are_refused_as_the_scan_refuses_them(self):
        # mass in e**[-1, 1] and w in e**[-200, 200]: no moment cell is lost,
        # but the moment tables span far beyond what double-double certifies
        rng = np.random.default_rng(11)
        refused = 0
        for shape in ((7,), (3, 4), (3, 4, 2), (2, 2, 3)) * 3:
            bps = tuple(np.arange(m + 1.0) for m in shape)
            measure = GridMeasure(bps, np.exp(rng.uniform(-1.0, 1.0, shape)))
            weight = WeightGrid(np.exp(rng.uniform(-200.0, 200.0, shape)))
            kind = A if rng.random() < 0.5 else ClassKind.REVERSE_HOLDER
            p = float(rng.uniform(1.7, 4.0) if kind is A else rng.uniform(1.1, 1.5))
            with pytest.raises(PreconditionError) as scan:
                characteristic(measure, weight, kind, p)
            cfg = SplitConfig(kind=kind, p=p, Q=1e6, Q1=1e300, levels=2)
            with pytest.raises(PreconditionError) as split:
                build_tree(measure, weight, cfg)
            assert str(split.value) == str(scan.value)
            assert "beyond the about 2**51" in str(split.value)
            refused += 1
        assert refused == 12


class TestLostMomentCells:
    def test_underflowing_moment_is_named(self):
        rng = np.random.default_rng(0)
        measure = uniform_measure(64)
        weight = WeightGrid(rng.uniform(1.0, 2.0, 64) * 1e-40)
        rh = ClassKind.REVERSE_HOLDER
        cfg = SplitConfig(kind=rh, p=10.0, Q=3.0, Q1=3.5, levels=3)
        with pytest.raises(PreconditionError, match=r"w\*\*10\.0 is 0\.0 at positive-mass cell \(0,\)"):
            build_tree(measure, weight, cfg)
        # the scan rescales the same weight
        assert characteristic(measure, weight, rh, 10.0).value == 1.2828159890069144

    def test_zero_mass_cells_are_not_lost(self):
        mass = np.array([1.0, 0.0, 1.0, 1.0])
        measure = GridMeasure((np.linspace(0.0, 1.0, 5),), mass)
        weight = WeightGrid(np.array([1.0, 1e-300, 1.0, 2.0]))
        tree = build_tree(measure, weight, config(Q=1.5, Q1=2.0, c=0.2, levels=1))
        assert tree.root.mass == 3.0


class TestWeightScale:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_power_of_two_scale_keeps_positions_and_ratios(self, ndim):
        # both classes are invariant under w -> c*w; with c = 2**k and moment
        # exponents -1 (A, p = 2) and 2 (RH, p = 2) every cell moment, table
        # entry and average scales exactly, by c and by c**s2
        rng = np.random.default_rng(60 + ndim)
        built = 0
        for _ in range(12):
            measure, weight, cfg = _seeded_case(rng, ndim)
            cfg = SplitConfig(kind=cfg.kind, p=2.0, Q=cfg.Q, Q1=cfg.Q1, c=cfg.c,
                              levels=cfg.levels, segment_samples=cfg.segment_samples)
            s2 = cfg.moment_exponent
            k = int(rng.choice([-60, -7, 5, 90]))
            scaled = WeightGrid(np.ldexp(weight.values, k))
            try:
                base = build_tree(measure, weight, cfg)
            except InfeasibleSplitError as exc:
                with pytest.raises(InfeasibleSplitError) as err:
                    build_tree(measure, scaled, cfg)
                assert (err.value.path, err.value.best_ratio) == (exc.path, exc.best_ratio)
                continue
            built += 1
            tree = build_tree(measure, scaled, cfg)
            for node, ref in zip(tree.nodes(), base.nodes(), strict=True):
                assert (node.box, node.axis, node.split_index, node.ratio, node.mass) == (
                    ref.box, ref.axis, ref.split_index, ref.ratio, ref.mass
                )
                assert node.point == (math.ldexp(ref.point.x1, k), math.ldexp(ref.point.x2, round(k * s2)))
        assert built >= 3
