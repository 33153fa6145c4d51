import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from boxweights import (
    BoxIdx,
    ClassKind,
    GridMeasure,
    PrefixTables,
    WeightGrid,
    box_average,
    characteristic,
    naive_characteristic,
    power_weight_grid,
    read_grid,
    refine,
    validate,
    write_grid,
)
from boxweights import grids
from boxweights.bellman import BellmanCandidate, CandidateTable, read_candidate, write_candidate
from boxweights.errors import PreconditionError, ZeroMeasureBoxError
from boxweights._summation import dd_add, dd_box_diffs, dd_prefix_tables, dd_sub, dd_sub_rounded, two_prod
from boxweights.grids import (
    _parse_float,
    _parse_floats,
    _TokenReader,
    _wrap_floats,
    lost_moment_cell,
    moment_cells,
    scan_tables,
    scan_weight,
    uniform_measure,
)

from conftest import FIXTURE_DIR, MALFORMED_FILES, REPO_ROOT, random_pair


class TestValidate:
    def test_accepts_good_pair(self, uniform4):
        measure, weight = uniform4
        assert validate(measure, weight) == (measure, weight)

    def test_negative_mass(self):
        with pytest.raises(PreconditionError, match=r"negative mass at cell \(2,\)"):
            GridMeasure((np.linspace(0, 1, 5),), np.array([0.1, 0.1, -0.2, 0.1]))

    def test_zero_weight(self):
        with pytest.raises(PreconditionError, match=r"non-positive weight at cell"):
            WeightGrid(np.array([1.0, 0.0, 2.0]))

    def test_shape_mismatch(self):
        measure = uniform_measure(4)
        with pytest.raises(PreconditionError, match="match"):
            validate(measure, WeightGrid(np.ones(3)))

    def test_non_increasing_breakpoints(self):
        with pytest.raises(PreconditionError, match="strictly increasing"):
            GridMeasure((np.array([0.0, 0.5, 0.5, 1.0]),), np.ones(3))

    def test_zero_total_mass(self):
        with pytest.raises(PreconditionError, match="total mass"):
            GridMeasure((np.linspace(0, 1, 3),), np.zeros(2))

    def test_any_number_of_axes_but_none(self):
        with pytest.raises(PreconditionError, match="at least one axis"):
            GridMeasure((), np.ones(()))
        bps = tuple(np.linspace(0, 1, 3) for _ in range(4))
        assert GridMeasure(bps, np.ones((2, 2, 2, 2))).ndim == 4

    def test_arrays_frozen(self, uniform4):
        measure, weight = uniform4
        with pytest.raises(ValueError):
            measure.mass[0] = 5.0
        with pytest.raises(ValueError):
            weight.values[0] = 5.0

    def test_checks_only_the_shapes(self, uniform4, monkeypatch):
        # the constructors checked every field already; validate rebuilds nothing
        def rebuilt(self):
            raise AssertionError("validate re-constructed a dataclass")

        monkeypatch.setattr(GridMeasure, "__post_init__", rebuilt)
        monkeypatch.setattr(WeightGrid, "__post_init__", rebuilt)
        assert validate(*uniform4) == uniform4


class TestScanWeight:
    def test_lost_moment_cell_names_the_first(self):
        mass = np.array([[0.0, 1.0], [1.0, 1.0]])
        moments = {
            1.0: np.array([[0.0, 2.0], [3.0, 4.0]]),
            -2.0: np.array([[0.0, 0.0], [math.inf, 1.0]]),
        }
        # zero-mass cells are never lost; exponents are tried in the order given
        assert lost_moment_cell(mass, moments) == (-2.0, (0, 1), 0.0)
        moments[-2.0] = np.array([[0.0, 1.0], [math.inf, 1.0]])
        assert lost_moment_cell(mass, moments) == (-2.0, (1, 0), math.inf)
        assert lost_moment_cell(mass, {1.0: moments[1.0]}) is None

    def test_keeps_w_when_no_cell_is_lost(self, uniform4):
        measure, weight = uniform4
        moments = {s: moment_cells(measure.mass, weight.values, s) for s in (1.0, -1.0)}
        assert scan_weight(measure.mass, weight, moments) == (weight, moments)

    def test_centres_w_by_a_power_of_two(self):
        measure = uniform_measure(4)
        weight = WeightGrid(np.array([1.0, 2.0, 1.0, 3.0]) * 1e-40)
        moments = {s: moment_cells(measure.mass, weight.values, s) for s in (1.0, 10.0)}
        centred, recentred = scan_weight(measure.mass, weight, moments)
        ratio = centred.values / weight.values
        assert np.all(ratio == ratio[0]) and math.frexp(ratio[0])[0] == 0.5
        assert lost_moment_cell(measure.mass, recentred) is None
        assert np.array_equal(recentred[10.0], moment_cells(measure.mass, centred.values, 10.0))

    def test_centres_w_whose_moment_sums_overflow(self):
        # every cell is finite, but w's cells sum beyond the doubles: w is
        # centred, and with moment exponents 1 and -1 every scale by a power
        # of two is exact, so the scan equals that of w / 2**1023 bit for bit
        measure = GridMeasure((np.arange(5.0),), np.ones(4))
        values = np.array([1e308, 1.7e308, 1e308, 1.5e308])
        moments = {s: moment_cells(measure.mass, values, s) for s in (1.0, -1.0)}
        assert lost_moment_cell(measure.mass, moments) is None
        centred, _ = scan_weight(measure.mass, WeightGrid(values), moments)
        assert np.isfinite(centred.values.sum())
        got = characteristic(measure, WeightGrid(values), ClassKind.MUCKENHOUPT_A, 2.0)
        want = characteristic(measure, WeightGrid(np.ldexp(values, -1023)), ClassKind.MUCKENHOUPT_A, 2.0)
        assert got.value == want.value == 1.0720588235294117
        assert (got.argmax_box, got.boxes_scanned, got.exact_boxes) == (
            want.argmax_box, want.boxes_scanned, want.exact_boxes
        )

    def test_scan_tables_share_the_mass_record(self):
        measure = uniform_measure(4)
        weight = WeightGrid(np.array([1.0, 2.0, 1.0, 3.0]) * 1e-40)
        given = PrefixTables(measure, weight)
        tables = scan_tables(measure, weight, (1.0, 10.0), given)
        assert tables is not given and tables.weight is not weight
        for mine, theirs in zip(tables.table(None), given.mass_table):
            assert mine is theirs


class TestBoxIdx:
    def test_rejects_empty_range(self):
        with pytest.raises(PreconditionError):
            BoxIdx(((2, 2),))

    def test_full(self):
        assert BoxIdx.full((3, 4)).ranges == ((0, 3), (0, 4))

    def test_shape_check(self):
        with pytest.raises(PreconditionError):
            BoxIdx(((0, 5),)).check_shape((4,))

    def test_str(self):
        assert str(BoxIdx(((0, 2), (1, 3)))) == "0:2;1:3"


class TestBoxAverage:
    def test_mean(self, uniform4):
        measure, weight = uniform4
        assert box_average(measure, weight, BoxIdx(((0, 4),)), 1.0) == 2.5

    def test_subbox(self, uniform4):
        measure, weight = uniform4
        assert box_average(measure, weight, BoxIdx(((2, 4),)), 1.0) == 3.5

    def test_negative_exponent(self, uniform4):
        measure, weight = uniform4
        expected = (1.0 + 0.5 + 1.0 / 3.0 + 0.25) / 4.0
        assert box_average(measure, weight, BoxIdx(((0, 4),)), -1.0) == pytest.approx(
            expected, abs=1e-7
        )

    def test_zero_measure_box(self):
        measure = GridMeasure((np.linspace(0, 1, 4),), np.array([0.0, 1.0, 1.0]))
        weight = WeightGrid(np.ones(3))
        with pytest.raises(ZeroMeasureBoxError):
            box_average(measure, weight, BoxIdx(((0, 1),)), 1.0)

    def test_tables_of_another_grid_are_refused(self):
        # tables of x**2 read on x**0.5 gave 0.3333 for the full box, not 0.6667
        measure, weight = power_weight_grid(0.5, 8)
        full = BoxIdx.full(measure.shape)
        with pytest.raises(PreconditionError, match="prefix tables were built for another measure or weight"):
            box_average(measure, weight, full, 1.0, PrefixTables(*power_weight_grid(2.0, 8)))
        own = PrefixTables(measure, weight)
        assert box_average(measure, weight, full, 1.0, own) == box_average(measure, weight, full, 1.0)


class TestPowerWeightGrid:
    def test_constant(self):
        measure, weight = power_weight_grid(0.0, 8)
        assert np.all(weight.values == 1.0)
        assert np.all(measure.mass == 1.0 / 8.0)

    def test_linear_is_midpoints(self):
        _, weight = power_weight_grid(1.0, 4)
        assert np.array_equal(weight.values, np.array([1, 3, 5, 7]) / 8.0)

    def test_sqrt_first_cell(self):
        _, weight = power_weight_grid(0.5, 2)
        assert weight.values[0] == pytest.approx(0.5**1.5 / (1.5 * 0.5), abs=1e-7)

    def test_monotone_in_alpha_sign(self):
        _, inc = power_weight_grid(0.7, 16)
        _, dec = power_weight_grid(-0.3, 16)
        assert np.all(np.diff(inc.values) > 0)
        assert np.all(np.diff(dec.values) < 0)

    def test_not_integrable(self):
        with pytest.raises(PreconditionError, match="integrable"):
            power_weight_grid(-1.0, 4)


class TestRefine:
    def test_copy_semantics(self):
        measure = uniform_measure(2)
        weight = WeightGrid(np.array([1.0, 3.0]))
        m2, w2 = refine(measure, weight, 2)
        assert np.array_equal(w2.values, [1.0, 1.0, 3.0, 3.0])
        assert np.array_equal(m2.mass, np.full(4, 0.25))

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(3)
        measure, weight = random_pair(rng, max_cells=7, ndim_choices=(2,))
        m2, _ = refine(measure, weight, 3)
        assert m2.total_mass == pytest.approx(measure.total_mass, rel=1e-12)

    def test_power_regeneration(self):
        pair = power_weight_grid(1.0, 2)
        m2, w2 = refine(*pair, 2)
        m4, w4 = power_weight_grid(1.0, 4)
        assert np.array_equal(w2.values, w4.values)
        assert np.array_equal(m2.mass, m4.mass)
        assert w2.power_alpha == 1.0

    def test_bad_factor(self):
        with pytest.raises(PreconditionError):
            refine(*power_weight_grid(0.0, 2), 1)


class TestPrefixConsistency:
    def test_against_naive_loops(self):
        # random boxes on random grids: prefix query vs direct fsum
        rng = np.random.default_rng(42)
        for _ in range(40):
            measure, weight = random_pair(rng, max_cells=9, zero_mass_fraction=0.1)
            s = float(rng.uniform(-2.5, 2.5))
            tables = PrefixTables(measure, weight, (s,))
            cells = tables.cells(s)
            for _ in range(25):
                ranges = tuple(
                    sorted(rng.integers(0, m + 1, 2).tolist())
                    for m in measure.shape
                )
                if any(a == b for a, b in ranges):
                    continue
                box = BoxIdx(tuple((a, b) for a, b in ranges))
                direct = math.fsum(cells[box.as_slices()].reshape(-1).tolist())
                got = tables.moment_sum(s, box)
                assert got == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_large_1d_grid(self):
        measure, weight = power_weight_grid(0.5, 2**12)
        tables = PrefixTables(measure, weight, (-1.0,))
        cells = tables.cells(-1.0)
        box = BoxIdx(((17, 3500),))
        direct = math.fsum(cells[17:3500].tolist())
        assert tables.moment_sum(-1.0, box) == direct

    def test_64_cells_per_axis(self):
        rng = np.random.default_rng(13)
        for shape in ((64,), (64, 64)):
            bps = tuple(np.sort(rng.uniform(0, 1, m + 1)) + np.arange(m + 1) * 1e-6 for m in shape)
            measure = GridMeasure(bps, rng.uniform(0.05, 1.0, shape))
            weight = WeightGrid(rng.uniform(0.1, 4.0, shape))
            s = -1.5
            tables = PrefixTables(measure, weight, (s,))
            cells = tables.cells(s)
            for _ in range(40):
                ranges = tuple(
                    sorted(rng.integers(0, m + 1, 2).tolist()) for m in shape
                )
                if any(a == b for a, b in ranges):
                    continue
                box = BoxIdx(tuple((a, b) for a, b in ranges))
                direct = math.fsum(cells[box.as_slices()].reshape(-1).tolist())
                assert tables.moment_sum(s, box) == pytest.approx(direct, rel=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            measure, weight = random_pair(rng, max_cells=10)
            tables = PrefixTables(measure, weight, (1.0,))
            ax = int(rng.integers(0, measure.ndim))
            m = measure.shape[ax]
            if m < 2:
                continue
            cut = int(rng.integers(1, m))
            full = BoxIdx.full(measure.shape)
            left = list(full.ranges)
            right = list(full.ranges)
            left[ax] = (0, cut)
            right[ax] = (cut, m)
            left, right = BoxIdx(tuple(left)), BoxIdx(tuple(right))
            assert tables.mass_sum(full) == pytest.approx(
                tables.mass_sum(left) + tables.mass_sum(right), rel=1e-12
            )
            assert tables.moment_sum(1.0, full) == pytest.approx(
                tables.moment_sum(1.0, left) + tables.moment_sum(1.0, right),
                rel=1e-12,
            )

    def test_jensen_on_all_boxes(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            measure, weight = random_pair(rng, max_cells=6, ndim_choices=(1, 2))
            p = float(rng.uniform(1.2, 4.0))
            p1 = -1.0 / (p - 1.0)
            tables = PrefixTables(measure, weight, (1.0, p, p1))
            shape = measure.shape
            import itertools

            axis_ranges = [
                [(a, b) for a in range(m) for b in range(a + 1, m + 1)]
                for m in shape
            ]
            for ranges in itertools.product(*axis_ranges):
                box = BoxIdx(ranges)
                m = tables.mass_sum(box)
                if m <= 0:
                    continue
                avg_w = tables.moment_sum(1.0, box) / m
                avg_wp = tables.moment_sum(p, box) / m
                avg_wp1 = tables.moment_sum(p1, box) / m
                assert avg_w <= avg_wp ** (1.0 / p) * (1 + 1e-12)
                assert avg_w * avg_wp1 ** (p - 1.0) >= 1.0 - 1e-12

    def test_zero_mass_cells_ignore_weight_power(self):
        mass = np.array([0.0, 0.5, 0.5])
        values = np.array([1e-300, 2.0, 3.0])
        cells = moment_cells(mass, values, -3.0)
        assert cells[0] == 0.0
        assert np.all(np.isfinite(cells))


def _exact_prefix(cells):
    """Prefix sums of the cells as exact Fractions, shape cells.shape + 1 per axis."""
    exact = np.zeros(tuple(m + 1 for m in cells.shape), dtype=object)
    exact[(slice(1, None),) * cells.ndim] = np.vectorize(Fraction, otypes=[object])(cells)
    for axis in range(cells.ndim):
        exact = np.cumsum(exact, axis=axis)
    return exact


def _exact_box_sum(exact, ranges):
    """Exact sum over the box from a Fraction prefix table, by inclusion-exclusion."""
    total = Fraction(0)
    for corner in itertools.product(*(((b, 1), (a, -1)) for a, b in ranges)):
        sign = math.prod(sg for _, sg in corner)
        total += sign * exact[tuple(i for i, _ in corner)]
    return total


class TestBoxDiffs:
    def test_dd_sub_is_dd_add_of_the_negation(self):
        # bit for bit, signed zeros included; NaNs may differ in the sign bit
        special = [0.0, -0.0, 1.0, -1.0, 3.0, 0.1, 1.5, 1.0 + 2.0**-52, 2.0**-53, -(2.0**-53),
                   5e-324, -5e-324, 1e-300, -1e-300, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]
        grid = tuple(np.array(list(itertools.product(special, repeat=4))).T)
        rng = np.random.default_rng(33)
        n = 100_000
        ah = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        bh = ah * rng.choice([1.0, -1.0, 0.5, 1.0 + 2.0**-52], n) + rng.choice([0.0, 1e-20, 1.0], n)
        al, bl = (x * 2.0**-60 * rng.standard_normal(n) for x in (ah, bh))
        for ah, al, bh, bl in (grid, (ah, al, bh, bl)):
            with np.errstate(all="ignore"):
                got, want = dd_sub(ah, al, bh, bl), dd_add(ah, al, -bh, -bl)
            for x, y in zip(got, want):
                same = (x.view(np.int64) == y.view(np.int64)) | (np.isnan(x) & np.isnan(y))
                assert same.all(), np.flatnonzero(~same)[:5]

    def test_scan_style_batches_equal_one_box_reductions(self):
        # The scan's bounds: a start and every end on axis 0, every (a, b)
        # pair of each middle axis, the last axis kept, three tables stacked
        # on a kept leading axis.  Each element equals the one-box reduction
        # bit for bit, on tables far beyond the certificate too.
        rng = np.random.default_rng(31)
        checked = 0
        for ndim in (1, 2, 3):
            for _ in range(12):
                shape = tuple(int(n) for n in rng.integers(1, 7, ndim))
                cells = np.exp(rng.uniform(-300.0, 300.0, (3, *shape))) * (rng.random((3, *shape)) < 0.8)
                hi, lo = (np.stack(t) for t in zip(*map(dd_prefix_tables, cells)))
                ext = hi.shape[1:]
                if ndim == 1:
                    ia, ib = np.triu_indices(ext[0], k=1)
                    h, l = dd_box_diffs(hi, lo, (None, (ia, ib)))
                    for k, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
                        one = dd_box_diffs(hi, lo, (None, (a, b)))
                        assert [h[:, k].tobytes(), l[:, k].tobytes()] == [x.tobytes() for x in one]
                        checked += 1
                    continue
                pairs = [np.triu_indices(n, k=1) for n in ext[1:-1]]
                for a in range(ext[0] - 1):
                    h, l = dd_box_diffs(hi, lo, (None, (a, np.arange(a + 1, ext[0])), *pairs))
                    for idx in np.ndindex(h.shape[1:-1]):
                        ranges = [(a, a + 1 + idx[0])]
                        ranges += [(int(ia[k]), int(ib[k])) for (ia, ib), k in zip(pairs, idx[1:])]
                        one = dd_box_diffs(hi, lo, (None, *ranges))
                        got = (h[(slice(None), *idx)], l[(slice(None), *idx)])
                        assert [x.tobytes() for x in got] == [x.tobytes() for x in one]
                        checked += 1
        assert checked >= 1000

    def test_certified_sums_are_the_exact_sum_rounded_once(self):
        # Whichever axis is kept (the splitter's columns; the last is
        # mass_sum's and the scan's), every box sum of a certified table is
        # the exact Fraction sum rounded once.
        rng = np.random.default_rng(32)
        tables = 0
        for ndim, top, count in ((1, 13, 60), (2, 7, 40), (3, 5, 20)):
            for t in range(count):
                shape = tuple(int(m) for m in rng.integers(1, top, ndim))
                style = t % 4
                if style == 0:
                    cells = np.exp(rng.uniform(-15.0, 15.0, shape))
                elif style == 1:  # a huge first cell over small ones
                    cells = rng.uniform(0.5, 1.0, shape)
                    cells.flat[0] = 2.0 ** float(rng.uniform(30.0, 49.0))
                elif style == 2:
                    cells = 2.0 ** rng.integers(-20, 20, shape).astype(float)
                else:
                    cells = rng.uniform(0.0, 1.0, shape)
                cells = cells * (rng.random(shape) < 0.85)
                if not cells.sum() > 0:
                    continue
                measure = GridMeasure(tuple(np.arange(m + 1.0) for m in shape), cells)
                prefix = PrefixTables(measure, WeightGrid(np.ones(shape)))
                if not prefix.precision_margin() < 1.0:
                    continue
                tables += 1
                hi, lo = prefix.mass_table
                exact = _exact_prefix(cells)
                for ranges in itertools.product(*(itertools.combinations(range(m + 1), 2) for m in shape)):
                    want = float(_exact_box_sum(exact, ranges))
                    assert prefix.mass_sum(BoxIdx(ranges)) == want
                    for keep in range(ndim):
                        bounds = [None if ax == keep else r for ax, r in enumerate(ranges)]
                        h, l = dd_box_diffs(hi, lo, bounds)
                        a, b = ranges[keep]
                        assert float(dd_sub_rounded(h[b], l[b], h[a], l[a])) == want, (ranges, keep)
        assert tables >= 100


def _sequential_prefix_tables(cells):
    """The per-index dd_add recurrence the cascaded build replaced."""
    shape = tuple(m + 1 for m in cells.shape)
    hi = np.zeros(shape, dtype=np.float64)
    lo = np.zeros(shape, dtype=np.float64)
    hi[tuple(slice(1, None) for _ in cells.shape)] = cells
    if cells.ndim == 1:
        ah, al = 0.0, 0.0
        out_h, out_l = hi.tolist(), lo.tolist()
        for j in range(1, shape[0]):
            ah, al = dd_add(ah, al, out_h[j], 0.0)
            out_h[j], out_l[j] = ah, al
        return np.asarray(out_h), np.asarray(out_l)
    for axis in range(cells.ndim):
        for j in range(2, shape[axis] + 1):
            cur = (slice(None),) * axis + (j - 1,)
            prev = (slice(None),) * axis + (j - 2,)
            hi[cur], lo[cur] = dd_add(hi[cur], lo[cur], hi[prev], lo[prev])
    return hi, lo


def _certified(cells, hi):
    """PrefixTables' certificate: at most two cells, or a margin below 1."""
    positive = cells[cells > 0.0]
    if cells.size <= 2 or not positive.size:
        return True
    return float(np.abs(hi).max()) * 2.0**-103 / float(np.spacing(positive.min())) < 1.0


def _table_cases(rng):
    """Seeded cells of 1 to 3 axes: the kinds of tables the scan certifies."""
    for n in (*range(1, 41), 256, 1024, 4096):  # power ladders
        yield power_weight_grid(float(rng.uniform(-0.9, 3.0)), n)[1].values ** float(rng.uniform(-3.0, 3.0)) / n
    for _ in range(300):  # 1- and 2-cell tables at any ratio, zeros included
        shape = ((1,), (2,), (1, 2), (2, 1), (1, 1), (1, 2, 1), (2, 1, 1))[int(rng.integers(7))]
        cells = np.exp(rng.uniform(-700.0, 700.0, shape)) * (rng.random(shape) < 0.8)
        yield cells
    for shape in ((2000,), (300,), (40, 40), (12, 12, 12)) * 5:  # margins near 1 on long axes
        cells = rng.uniform(0.5, 1.0, shape)
        cells.flat[0] = 2.0 ** float(rng.uniform(47.0, 48.9))
        yield cells
    for ndim, top in ((1, 200), (2, 16), (3, 7)):
        for style in range(6):
            for _ in range(60):
                shape = tuple(int(m) for m in rng.integers(1, top, ndim))
                if style == 0:  # zeros of either sign
                    cells = np.zeros(shape) * float(rng.choice([1.0, -1.0]))
                elif style == 1:  # constant cells
                    cells = np.full(shape, float(np.exp(rng.uniform(-30.0, 30.0))))
                elif style == 2:  # a huge first cell over small ones
                    cells = rng.uniform(0.5, 1.0, shape)
                    cells.flat[0] = 2.0 ** float(rng.uniform(30.0, 51.0))  # margins on both sides of 1
                elif style == 3:  # powers of two and their ladders
                    cells = 2.0 ** rng.integers(-20, 20, shape).astype(float)
                elif style == 4:
                    cells = np.exp(rng.uniform(-15.0, 15.0, shape))
                else:
                    cells = rng.uniform(0.0, 1.0, shape)
                yield cells * (rng.random(shape) < 0.85)


class TestCascadedPrefixTables:
    def test_certified_tables_equal_the_sequential_recurrence(self):
        # a certified table is the unique normalised pair, bit for bit
        rng = np.random.default_rng(21)
        certified = 0
        for cells in _table_cases(rng):
            want = _sequential_prefix_tables(cells)
            if not _certified(cells, want[0]):
                continue
            certified += 1
            got = dd_prefix_tables(cells)
            assert got[0].tobytes() == want[0].tobytes(), cells.shape
            assert got[1].tobytes() == want[1].tobytes(), cells.shape
        assert certified >= 1000

    def test_entries_are_the_rounded_exact_sums(self):
        # hi == RN(P) and lo == P - hi exactly, P the exact prefix sum
        rng = np.random.default_rng(22)
        checked = 0
        for cells in itertools.islice(_table_cases(rng), 0, None, 7):
            if cells.size > 300:
                continue
            hi, lo = dd_prefix_tables(cells)
            if not _certified(cells, hi):
                continue
            exact = np.vectorize(Fraction, otypes=[object])(cells)
            for axis in range(cells.ndim):
                exact = np.cumsum(exact, axis=axis)
            for idx in np.ndindex(cells.shape):
                entry = tuple(i + 1 for i in idx)
                assert float(hi[entry]) == float(exact[idx])
                assert Fraction(float(lo[entry])) == exact[idx] - Fraction(float(hi[entry]))
            checked += 1
        assert checked >= 100

    def test_overflowed_sums_are_nan_from_the_first_on(self):
        hi, _ = dd_prefix_tables(np.array([1e308, 1.0, 1e308, 1.0]))
        assert hi[:2].tolist() == [0.0, 1e308]
        assert np.isnan(hi[3:]).all()
        with np.errstate(over="ignore"):
            measure = GridMeasure((np.arange(4.0),), np.array([1e308, 1e308, 1.0]))
        with pytest.raises(PreconditionError, match=r"span nan .* \(margin nan\)"):
            PrefixTables(measure, WeightGrid(np.ones(3))).certify()


def _old_tokens(text):
    """The line-by-line tokenizer the reader replaced."""
    return [tok for line in text.splitlines() for tok in line.split("#", 1)[0].split()]


class TestGridFiles:
    def test_written_bytes_unchanged(self):
        # _wrap_floats formats exactly as repr(float(v)) per value, 8 a line
        rng = np.random.default_rng(9)
        arr = np.concatenate([
            np.exp(rng.uniform(-700.0, 700.0, 37)), [0.0, -0.0, 5e-324, 1e16, 2.0**53, 0.1, 1.0 / 3.0],
        ])
        want = [" ".join(repr(float(v)) for v in arr[i : i + 8]) for i in range(0, arr.size, 8)]
        want = "".join(line + "\n" for line in want)
        assert "".join(_wrap_floats(arr)) == want
        assert "".join(_wrap_floats(arr.reshape(4, 11))) == want

    def test_tokens_match_line_by_line_reader(self, tmp_path):
        # every line end str.splitlines knows ends a comment
        text = (
            "# head\ngrid 1 # c\x0cdim 1\x0bbreakpoints 0 3 #x\x1c0 0.5\x1d1 #y\x1e\x85mass 2"
            "\u2028 0.5 #z\u2029 0.5\r\nvalues 2\r1 2 # tail"
        )
        path = tmp_path / "odd.txt"
        path.write_text(text, newline="")
        with open(path) as handle:
            expected = _old_tokens(handle.read())
        with _TokenReader(path, "grid") as reader:
            assert reader.take(len(expected)) == expected
            assert reader.at_end()
        measure, weight = read_grid(path)
        assert np.array_equal(measure.mass, [0.5, 0.5])
        assert np.array_equal(weight.values, [1.0, 2.0])

    @pytest.mark.parametrize(
        "token, error",
        [("zz", "could not convert string to float: 'zz'"),
         ("0x1.q", "invalid hexadecimal floating-point string")],
    )
    def test_bad_token_errors_unchanged(self, tmp_path, token, error):
        path = tmp_path / "bad.txt"
        path.write_text(f"grid 1\ndim 1\nbreakpoints 0 3\n0 0x1p-1 {token}\n")
        with pytest.raises(ValueError) as err:
            read_grid(path)
        assert str(err.value) == error

    def test_token_cast_equals_float_per_token(self):
        rng = np.random.default_rng(10)
        toks = [repr(float(v)) for v in np.exp(rng.uniform(-700.0, 700.0, 500))]
        toks += ["0", "-0", "+1.5", "1e5", "5e-324", "0.1", "1_000", "\u0661\u0662\u0663", "1e500", "1e-400"]
        assert _parse_floats(toks).tobytes() == np.array([float(t) for t in toks]).tobytes()

    @pytest.mark.parametrize(
        "token",
        ["1_000", "\u0661\u0662\u0663", "\u06f4.5", "Infinity", "1e500", "1e-400",
         "0x1p-3", "0X1P-3", "1.5e", "--1"],
    )
    def test_token_cast_agrees_with_the_per_token_reader(self, token):
        # same values, or the same error text, as _parse_float token by token
        def outcome(parse):
            try:
                return repr(list(parse()))
            except ValueError as err:
                return str(err)

        toks = ["0.5", token, "2"]
        assert outcome(lambda: _parse_floats(toks).tolist()) == outcome(lambda: map(_parse_float, toks))

    @pytest.mark.parametrize("ndim", [2, 4])
    def test_round_trip_exact(self, tmp_path, ndim):
        rng = np.random.default_rng(5)
        measure, weight = random_pair(rng, max_cells=6 if ndim == 2 else 3, ndim_choices=(ndim,))
        path = tmp_path / "grid.txt"
        write_grid(path, measure, weight)
        m2, w2 = read_grid(path)
        assert len(m2.breakpoints) == ndim
        for a, b in zip(measure.breakpoints, m2.breakpoints):
            assert np.array_equal(a, b)
        assert np.array_equal(measure.mass, m2.mass)
        assert np.array_equal(weight.values, w2.values)

    def test_generator_tag_round_trip(self, tmp_path):
        pair = power_weight_grid(0.5, 8)
        path = tmp_path / "power.txt"
        write_grid(path, *pair)
        _, w2 = read_grid(path)
        assert w2.power_alpha == 0.5

    def test_hex_floats_accepted(self, tmp_path):
        text = """# comment line
grid 1
dim 1
breakpoints 0 3
0x0p+0 0x1p-1 0x1p+0
mass 2
0x1p-1 0.5
values 2
1.0 0x1.8p+1
"""
        path = tmp_path / "hex.txt"
        path.write_text(text)
        measure, weight = read_grid(path)
        assert np.array_equal(measure.breakpoints[0], [0.0, 0.5, 1.0])
        assert np.array_equal(measure.mass, [0.5, 0.5])
        assert np.array_equal(weight.values, [1.0, 3.0])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("grid 1\ndim 1\nbreakpoints 0 3\n0.0 0.5\n")
        with pytest.raises(PreconditionError, match="truncated"):
            read_grid(path)


def _repr_lines(arr) -> str:
    """The text _wrap_floats must give: repr(float(v)) per value, 8 a line."""
    vals = np.asarray(arr, dtype=np.float64).reshape(-1).tolist()
    return "".join(" ".join(map(repr, vals[i : i + 8])) + "\n" for i in range(0, len(vals), 8))


def _assert_writes_repr(arr) -> None:
    """_wrap_floats gives _repr_lines; on a mismatch, names the first differing line."""
    got, want = "".join(_wrap_floats(arr)), _repr_lines(arr)
    if got != want:
        diff = [(i, g, w) for i, (g, w) in enumerate(itertools.zip_longest(got.split("\n"), want.split("\n")))
                if g != w]
        pytest.fail(f"{len(diff)} lines differ, the first: line {diff[0][0]}, {diff[0][1]!r} != {diff[0][2]!r}")


def _ties(rng, n):
    """Doubles m / 2**17 in [1, 10), m odd: 18 digits ending in 5, a tie at 17 digits."""
    return (2 * rng.integers(2**16, 5 * 2**17, n) + 1) / 2.0**17


def _boundaries(rng, n):
    """Doubles with a 16-digit string exactly half an ulp away: the string reads
    back to them when their last bit is 0 (18014398509481992.0 is
    1.801439850948199e+16) and to a neighbour when it is 1."""
    j = rng.integers(2**54 // 20, 2**55 // 20 - 1, n)  # ulp 4: x = 0 mod 4, 2 away from 10Z
    k = rng.integers(2**55 // 40, 2**56 // 40 - 1, n)  # ulp 8: x = 0 mod 8, 4 away from 10Z
    return np.concatenate([20 * j + 8, 20 * j + 12, 40 * k + 16, 40 * k + 24]).astype(np.float64)


def _writer_corpus() -> np.ndarray:
    """1.1e6 seeded values of the kinds grid files hold, and the formatter's hard cases."""
    rng = np.random.default_rng(20)
    sign = lambda n: rng.choice([-1.0, 1.0], n)  # noqa: E731
    finfo = np.finfo(np.float64)
    return np.concatenate([
        np.exp(rng.normal(0.0, 2.0, 250_000)),
        sign(250_000) * np.exp(rng.uniform(-700.0, 700.0, 250_000)),
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
        sign(100_000) * rng.integers(0, 10**7, 100_000) / 10.0 ** rng.integers(0, 6, 100_000),
        rng.integers(-(2**53), 2**53, 100_000).astype(np.float64),
        np.cumsum(rng.uniform(0.0, 1e-3, 100_000)),
        sign(50_000) * _ties(rng, 50_000),
        _boundaries(rng, 20_000),
        np.ldexp(1.0, np.arange(-1074, 1024)), -np.ldexp(1.0, np.arange(-1074, 1024)),
        [9999999999999998.0, 1e16, 1e-4, 1e-5, 5e-324, finfo.max, -finfo.max, finfo.tiny, 0.0, -0.0,
         np.inf, -np.inf, np.nan, 1e23, 1e22, 0.1, 0.3, 1.0 / 3.0, 123456789012345678.0],
    ])


class TestTwoProd:
    def test_exact_over_the_writers_magnitudes(self):
        # the writer multiplies x in (1e-280, 1e291) by 10**(16 - e); the split
        # overflows beyond about 1.3e300, so operands run up to 1e300
        rng = np.random.default_rng(21)
        n = 3000
        a = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-280, 291, n)
        b = rng.uniform(1.0, 10.0, n) * 10.0 ** (15 - np.floor(np.log10(a)))
        near_limit = rng.uniform(1.0, 1.34, 200) * 1e300
        a = np.concatenate([a, near_limit, 1.0 / near_limit, -a[:100]])
        b = np.concatenate([b, rng.uniform(1.0, 10.0, 200) * 1e-290, rng.uniform(1.0, 10.0, 200) * 1e290, b[:100]])
        hi, lo = two_prod(a, b)
        assert np.array_equal(hi, a * b)
        for x, y, h, l in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()):
            assert Fraction(h) + Fraction(l) == Fraction(x) * Fraction(y)


class TestFloatWriter:
    """_wrap_floats writes repr(float(v)) per value, decided a block at a time."""

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(0, 3 * grids._WRITE_BLOCK),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_equals_repr_on_any_array(self, arr):
        _assert_writes_repr(arr)

    def test_equals_repr_on_a_seeded_corpus(self):
        corpus = _writer_corpus()
        assert corpus.size >= 10**6
        _assert_writes_repr(corpus)

    def test_fast_path_decides_and_ties_fall_back(self):
        rng = np.random.default_rng(22)
        lognormal = np.exp(rng.normal(0.0, 1.0, 10**5))
        ties = _ties(rng, 1000)
        with mock.patch.object(grids, "_fallback", wraps=grids._fallback) as fallback:
            _assert_writes_repr(lognormal)
            assert fallback.call_count <= 100
            fallback.reset_mock()
            _assert_writes_repr(ties)
        assert sorted(call.args[0] for call in fallback.call_args_list) == sorted(ties.tolist())

    @pytest.mark.parametrize("name", ["multi_axis/grid2d.txt", "multi_axis/grid3d.txt"])
    def test_rewritten_grid_fixture_is_byte_identical(self, tmp_path, name):
        path = tmp_path / "grid.txt"
        write_grid(path, *read_grid(FIXTURE_DIR / name))
        assert path.read_bytes() == (FIXTURE_DIR / name).read_bytes()

    @pytest.mark.parametrize("name", ["candidate_ap_p2_r12_Q2.txt", "candidate_control_x13.txt"])
    def test_rewritten_candidate_fixture_is_byte_identical(self, tmp_path, name):
        path = tmp_path / "candidate.txt"
        write_candidate(path, read_candidate(FIXTURE_DIR / name))
        assert path.read_bytes() == (FIXTURE_DIR / name).read_bytes()

    def test_writing_loads_no_fractions_or_decimal(self, tmp_path):
        # a fresh process pays for every module the writer imports
        code = (
            "import sys, numpy as np, boxweights\n"
            "m, w = boxweights.power_weight_grid(0.5, 64)\n"
            f"boxweights.write_grid({str(tmp_path / 'grid.txt')!r}, m, w)\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
        assert (tmp_path / "grid.txt").stat().st_size > 0


def _outcome(read, path):
    """What a reader makes of a file: its arrays' bytes, or its error's type and text."""
    try:
        result = read(path)
    except (PreconditionError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(result, tuple):
        measure, weight = result
        arrays = (*measure.breakpoints, measure.mass, weight.values)
        return [(a.shape, a.tobytes()) for a in arrays], weight.power_alpha
    table = result.table
    return [(a.shape, a.tobytes()) for a in (table.xi, table.eta, table.values)], result.Q


_GRID_HEAD = "grid 1\ndim 1\nbreakpoints 0 3\n"

# case -> (file text, the start of the error read_grid raises on it or None,
#          the power_alpha of the weight read)
_CHUNK_EDGE_CASES = {
    "line ends": (
        "# head\ngrid 1 # c\x0cdim 1\x0bbreakpoints 0 3 #x\x1c0 0.5\x1d1 #y\x1e\x85mass 2"
        "\u2028 0.5 #z\u2029 0.5\r\nvalues 2\r1 2 # tail",
        None, None,
    ),
    "crlf and lone cr": (
        _GRID_HEAD.replace("\n", "\r\n") + "0 0.5 1\rmass 2\r\r0.5 0.5 #\r\nvalues 2\r1 2\r", None, None,
    ),
    "no trailing newline": (_GRID_HEAD + "0 0.5 1\nmass 2\n0.5 0.5\nvalues 2\n1 2", None, None),
    "long line": ("grid 1 dim 1 breakpoints 0 3 0 0.5 1 mass 2 0.5 0.5 values 2 1 2\n", None, None),
    "hex in second chunk": (
        _GRID_HEAD + "0 0x1p-1 1\nmass 2\n0x1p-1 0.5\nvalues 2\n1.0 0x1.8p+1\n", None, None,
    ),
    "bad token": (
        _GRID_HEAD + "0 0.5 1\nmass 2\n0.5 0.5\nvalues 2\n1 zz\n", "could not convert string to float: 'zz'", None,
    ),
    "truncated and bad": (_GRID_HEAD + "0 zz\n# one short\n", "truncated grid file", None),
    "negative count": (_GRID_HEAD + "0 0.5 1\nmass -2\n0.5 0.5\n", "negative count -2 in grid file", None),
    "generator": (
        _GRID_HEAD + "0 0.5 1\nmass 2\n0.5 0.5\nvalues 2\n1 2\ngenerator power 0.5 # g\n", None, 0.5,
    ),
}


class TestChunkBoundaries:
    """Read a few characters at a time, files give the tokens, arrays and errors of a whole-file read."""

    @pytest.mark.parametrize("case", sorted(_CHUNK_EDGE_CASES))
    def test_grid_reads_equal_the_whole_file_read(self, tmp_path, monkeypatch, case):
        text, error, power_alpha = _CHUNK_EDGE_CASES[case]
        path = tmp_path / "grid.txt"
        path.write_text(text, newline="")
        with open(path) as handle:
            expected = _old_tokens(handle.read())
        monkeypatch.setattr(grids, "_READ_CHUNK", 1 << 20)
        whole = _outcome(read_grid, path)
        if error is None:
            assert isinstance(whole[0], list)
            assert whole[1] == power_alpha
        else:
            assert whole[0] == "PreconditionError"
            assert whole[1].startswith(error)
        for chunk in range(1, 12):
            monkeypatch.setattr(grids, "_READ_CHUNK", chunk)
            with _TokenReader(path, "grid") as reader:
                assert reader.take(len(expected)) == expected
                assert reader.at_end()
            assert _outcome(read_grid, path) == whole

    def test_candidate_reads_equal_the_whole_file_read(self, tmp_path, monkeypatch):
        text = (FIXTURE_DIR / "candidate_control_x13.txt").read_text()
        # a comment and odd line ends inside the header, a hex value after it
        text = text.replace("\np ", " # note\x0bp ", 1).replace("\nr ", "\r\nr ", 1)
        values = text.index("\n", text.index("values ")) + 1
        path = tmp_path / "candidate.txt"
        path.write_text(text[:values] + "0x1.8p+1 " + text[values:].split(None, 1)[1], newline="")
        monkeypatch.setattr(grids, "_READ_CHUNK", 1 << 20)
        whole = _outcome(read_candidate, path)
        assert isinstance(whole[0], list)
        for chunk in (1, 2, 5, 64):
            monkeypatch.setattr(grids, "_READ_CHUNK", chunk)
            assert _outcome(read_candidate, path) == whole

    def test_count_beyond_the_file_is_truncated(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(_GRID_HEAD.replace(" 3", " 10000000000000000") + "0 zz\n")
        with pytest.raises(PreconditionError, match="truncated grid file"):
            read_grid(path)


class TestMalformedFiles:
    """A malformed header token is refused by its keyword and file; a malformed float by its text."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_refused_as_precondition(self, tmp_path, case):
        kind, text, keyword = MALFORMED_FILES[case]
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
        with pytest.raises(PreconditionError) as err:
            (read_grid if kind == "grid" else read_candidate)(path)
        if keyword is None:
            assert str(err.value) == "could not convert string to float: 'zz'"
        else:
            assert str(err.value).startswith(f"bad '{keyword}' in {kind} file {path}: ")


class TestFileMemory:
    """Files are read and written a chunk at a time: memory is the arrays plus one chunk."""

    # one 64 KiB chunk's text and tokens take about 0.8 MiB, and so do the
    # checks of a measure's constructor on 1e5 cells
    ALLOWANCE = 2**20

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def grid_1e5(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 10**5
        pair = GridMeasure((np.linspace(0.0, 1.0, n + 1),), np.exp(rng.normal(0.0, 1.0, n))), \
            WeightGrid(np.exp(rng.normal(0.0, 1.0, n)))
        return tmp_path / "grid.txt", pair

    def test_write_grid_peaks_below_1_mib(self, grid_1e5):
        path, pair = grid_1e5
        # whole-file text: 18.0 MiB
        assert self._peak(write_grid, path, *pair)[0] <= 2**20

    def test_read_grid_holds_its_arrays_and_one_chunk(self, grid_1e5):
        path, pair = grid_1e5
        write_grid(path, *pair)
        # whole-file text and tokens: 26.9 MiB
        peak, (measure, weight) = self._peak(read_grid, path)
        arrays = (*measure.breakpoints, measure.mass, weight.values)
        assert peak <= sum(a.nbytes for a in arrays) + self.ALLOWANCE

    def test_read_candidate_holds_its_arrays_and_one_chunk(self, tmp_path):
        cand = read_candidate(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt")
        xi, eta = cand.table.xi, cand.table.eta
        table = CandidateTable(
            xi=np.linspace(xi[0], xi[-1], 400), eta=np.linspace(eta[0], eta[-1], 250),
            values=np.exp(np.random.default_rng(5).normal(0.0, 1.0, (400, 250))),
        )
        path = tmp_path / "candidate.txt"
        write_candidate(path, BellmanCandidate.from_table(cand.kind, cand.p, cand.r, cand.Q, table))
        peak, again = self._peak(read_candidate, path)
        assert np.array_equal(again.table.values, table.values)
        arrays = (again.table.xi, again.table.eta, again.table.values)
        assert peak <= sum(a.nbytes for a in arrays) + self.ALLOWANCE


class TestPrecisionCertificate:
    def test_box_sums_beyond_the_certificate_are_refused(self):
        # 12 masses in e**[-40, 40], margin about 2e17: the mass table would
        # give 1.1266441132481038e-16 for box 2:3, against
        # 1.1266441132491998e-16 from math.fsum
        mass = np.exp(np.random.default_rng(0).uniform(-40.0, 40.0, 12))
        measure, weight = GridMeasure((np.linspace(0.0, 1.0, 13),), mass), WeightGrid(np.ones(12))
        tables = PrefixTables(measure, weight)
        box = BoxIdx(((2, 3),))
        with pytest.raises(PreconditionError, match=r"cell masses span .*\(margin 1\.95e\+17\)"):
            tables.mass_sum(box)
        with pytest.raises(PreconditionError, match=r"cell moments of w\*\*1\.0 span"):
            tables.moment_sum(1.0, box)
        with pytest.raises(PreconditionError, match="cell masses span"):
            box_average(measure, weight, box, 1.0)

    def test_certified_box_sums_are_unchanged(self):
        rng = np.random.default_rng(3)
        mass, values = np.exp(rng.uniform(-3.0, 3.0, (4, 5))), np.exp(rng.uniform(-2.0, 2.0, (4, 5)))
        measure, weight = GridMeasure((np.arange(5.0), np.arange(6.0)), mass), WeightGrid(values)
        tables = PrefixTables(measure, weight)
        tables.certify(None, 1.0, 2.5)
        for ranges in itertools.product(*(itertools.combinations(range(m + 1), 2) for m in (4, 5))):
            box, cells = BoxIdx(ranges), tuple(slice(a, b) for a, b in ranges)
            m = math.fsum(mass[cells].ravel().tolist())
            assert tables.mass_sum(box) == m
            assert tables.moment_sum(2.5, box) == math.fsum((mass * values**2.5)[cells].ravel().tolist())
            assert box_average(measure, weight, box, 1.0, tables) == tables.moment_sum(1.0, box) / m

    def test_certify_names_the_worst_table(self):
        # the mass and w tables are certified, the w**2 table is not
        values = np.exp(np.random.default_rng(4).uniform(-15.0, 15.0, 12))
        tables = PrefixTables(uniform_measure(12), WeightGrid(values))
        tables.certify()
        tables.certify(None, 1.0)
        with pytest.raises(PreconditionError, match=r"w\*\*2\.0 span"):
            tables.certify(None, 2.0, 1.0)

    def test_overflowed_prefix_sums_are_the_worst(self):
        # w*mass cells of about 1e308: their prefix sums overflow and the
        # margin is NaN, which no comparison ranks above a finite margin;
        # the scan centres such a w first (TestScanWeight)
        measure = GridMeasure((np.arange(5.0),), np.ones(4))
        weight = WeightGrid(np.array([1e308, 1.7e308, 1e308, 1.5e308]))
        with pytest.raises(PreconditionError, match=r"w\*\*1\.0 span nan .* \(margin nan\)"):
            PrefixTables(measure, weight).certify(None, 1.0, -1.0)

    def test_ordinary_grid_is_certified(self):
        measure, weight = power_weight_grid(0.5, 4096)
        tables = PrefixTables(measure, weight, (1.0, -1.0))
        for s in (None, 1.0, -1.0):
            assert 0.0 < tables.precision_margin(s) < 1e-6

    def test_two_cells_need_no_bound(self):
        # one two_sum holds any two cells exactly, whatever their ratio
        measure, weight = uniform_measure(2), WeightGrid(np.array([1e-60, 1e25]))
        assert PrefixTables(measure, weight).precision_margin(1.0) == 0.0

    def test_margin_crosses_one_at_about_two_to_the_51(self):
        # max|P| * 2**-103 / ulp(smallest cell) with unit smallest cell
        for top, certified in ((2.0**50, True), (2.0**51 - 2.0**-1, True), (2.0**51, False)):
            mass = np.array([1.0, top - 1.0, 0.0])
            tables = PrefixTables(GridMeasure((np.arange(4.0),), mass), WeightGrid(np.ones(3)))
            assert (tables.precision_margin() < 1.0) is certified

    def test_wide_dynamic_range_is_refused_with_its_span(self):
        # w**2 cell moments spanning about 1e53: the double-double prefix
        # route gave 5542.70 at 0:2 where the fsum supremum is 192610.49 at 6:8
        g = np.random.default_rng(4)
        mass = np.exp(g.uniform(-20.0, 20.0, 12))
        measure = GridMeasure((np.linspace(0.0, 1.0, 13),), mass)
        weight = WeightGrid(np.exp(g.uniform(-30.0, 30.0, 12)))
        with pytest.raises(PreconditionError, match=r"w\*\*2\.0 span 1\.0\de\+53"):
            characteristic(measure, weight, ClassKind.REVERSE_HOLDER, 2.0)
        value, box, _ = naive_characteristic(measure, weight, ClassKind.REVERSE_HOLDER, 2.0)
        assert (round(value, 2), box) == (192610.49, BoxIdx(((6, 8),)))

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.integers(1, 10),
        spread=st.floats(0.0, 40.0),
        kind=st.sampled_from([ClassKind.MUCKENHOUPT_A, ClassKind.REVERSE_HOLDER]),
        q=st.floats(1.1, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_scans_equal_the_fsum_oracle(self, cells, spread, kind, q, seed):
        # masses and values in e**[-spread, spread], up to about +-17 decades
        g = np.random.default_rng(seed)
        measure = GridMeasure(
            (np.arange(cells + 1.0),), np.exp(g.uniform(-spread, spread, cells))
        )
        weight = WeightGrid(np.exp(g.uniform(-spread, spread, cells)))
        try:
            report = characteristic(measure, weight, kind, q)
        except PreconditionError as exc:
            assert "span" in str(exc)
            return
        value, box, count = naive_characteristic(measure, weight, kind, q)
        assert (report.value, report.argmax_box, report.boxes_scanned) == (value, box, count)
