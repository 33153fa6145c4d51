import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxweights import (
    BoxIdx,
    ClassKind,
    GridMeasure,
    PParam,
    PrefixTables,
    WeightGrid,
    ap_characteristic,
    characteristic,
    naive_characteristic,
    pair_gauge,
    q_scan,
    rh_characteristic,
)
from boxweights import characteristics
from boxweights.characteristics import second_moment_exponent
from boxweights.errors import PreconditionError
from boxweights.grids import power_weight_grid, uniform_measure

from conftest import load_repo_module, random_pair

A = ClassKind.MUCKENHOUPT_A
RH = ClassKind.REVERSE_HOLDER
P2 = PParam(2.0)


class TestPairGauge:
    def test_boundary_is_one(self):
        for x1 in (0.25, 1.0, 7.5):
            assert pair_gauge(A, P2, x1, x1 ** P2.p1) == pytest.approx(1.0, rel=1e-14)
            assert pair_gauge(RH, P2, x1, x1 ** P2.p) == pytest.approx(1.0, rel=1e-14)

    def test_two_cell_full_box_point(self):
        assert pair_gauge(A, P2, 2.5, 0.625) == 1.5625


class TestCharacteristics:
    def test_two_cell_muckenhoupt(self, two_cell):
        report = ap_characteristic(*two_cell, P2)
        assert report.value == 1.5625
        assert report.argmax_box == BoxIdx(((0, 2),))
        assert report.boxes_scanned == 3

    def test_two_cell_reverse_holder(self, two_cell):
        report = rh_characteristic(*two_cell, P2)
        assert report.value == pytest.approx(math.sqrt(8.5) / 2.5, abs=1e-6)

    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_weight(self, kind, p):
        measure = uniform_measure((3, 4))
        weight = WeightGrid(np.full((3, 4), 2.7))
        report = characteristic(measure, weight, kind, p)
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.value >= 1.0 - 1e-12

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 2)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("kind", [A, RH])
    def test_tie_break_is_lexicographic(self, kind, shape):
        # with w == 1 every box value is exactly 1.0, so the argmax is the
        # lexicographically smallest index tuple
        measure = uniform_measure(shape)
        weight = WeightGrid(np.ones(shape))
        report = characteristic(measure, weight, kind, 2.0)
        assert report.value == 1.0
        assert report.argmax_box == BoxIdx(((0, 1),) * len(shape))

    def test_power_grid_ap(self):
        measure, weight = power_weight_grid(0.5, 2**12)
        report = ap_characteristic(measure, weight, P2)
        target = 4.0 / 3.0
        assert target - 0.02 <= report.value <= target + 1e-9

    def test_power_grid_rh(self):
        measure, weight = power_weight_grid(1.0, 2**12)
        report = rh_characteristic(measure, weight, P2)
        assert report.value == pytest.approx(2.0 / math.sqrt(3.0), rel=0.01)

    def test_value_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            measure, weight = random_pair(rng, max_cells=8)
            report = characteristic(measure, weight, A, 2.0)
            assert report.value >= 1.0 - 1e-12

    def test_overflow_reports_infinity(self):
        measure = uniform_measure(3)
        weight = WeightGrid(np.array([1e-300, 1.0, 2.0]))
        report = characteristic(measure, weight, A, 1.05)  # w**(-20) overflows
        assert report.value == math.inf
        assert report.argmax_box == BoxIdx(((0, 1),))
        assert report.boxes_scanned == 6
        got = (report.value, report.argmax_box, report.boxes_scanned)
        assert got == naive_characteristic(measure, weight, A, 1.05)


class TestOverflowArgmax:
    """With an overflowed moment cell the value is +inf at the oracle's box."""

    def test_first_box_holding_the_cell(self):
        # cell 1's w**s2 overflows; the oracle's first +inf box is 0:2, not 1:2
        measure = GridMeasure((np.arange(3.0),), np.array([7.64182922e48, 5.94977071e-37]))
        weight = WeightGrid(np.array([8.38987030e28, 2.03937094e-61]))
        q = 1.1165993613586842
        report = characteristic(measure, weight, A, q)
        got = (report.value, report.argmax_box, report.boxes_scanned)
        assert got == (math.inf, BoxIdx(((0, 2),)), 3)
        assert got == naive_characteristic(measure, weight, A, q)

    def test_seeded_two_cell_sweep(self):
        # masses and values in e**[-150, 150]; about 5% of the grids overflow
        rng = np.random.default_rng(0)
        overflowed = 0
        for _ in range(1500):
            measure = GridMeasure((np.arange(3.0),), np.exp(rng.uniform(-150.0, 150.0, 2)))
            weight = WeightGrid(np.exp(rng.uniform(-150.0, 150.0, 2)))
            if rng.random() < 0.5:
                kind, q = A, float(rng.uniform(1.05, 3.0))
            else:
                kind, q = RH, float(rng.uniform(1.0, 12.0))
            with np.errstate(all="ignore"):
                want = naive_characteristic(measure, weight, kind, q)
            report = characteristic(measure, weight, kind, q)
            assert (report.value, report.argmax_box, report.boxes_scanned) == want
            overflowed += want[0] == math.inf
        assert overflowed >= 40

    @pytest.mark.parametrize(
        "kind, q, mass, w",
        [
            # w*mu and w**2*mu of cell 0 overflow: <w**2>**(1/2) / <w> is inf/inf
            (RH, 2.0, (1e200, 1.0), (1e200, 1.0)),
            # w*mu of cell 0 underflows to 0 and w**-20*mu overflows: 0 * inf
            (A, 1.05, (1e-30, 1.0), (1e-300, 1.0)),
        ],
    )
    def test_first_box_without_value_is_refused(self, kind, q, mass, w):
        # no power of two centres these weights, and the first box that holds
        # the overflowed cell has the value nan: the oracle's maximum lies
        # elsewhere (1.0 at 1:2 for the first, +inf at 0:2 for the second)
        measure = GridMeasure((np.arange(3.0),), np.array(mass))
        weight = WeightGrid(np.array(w))
        with np.errstate(all="ignore"):
            with pytest.raises(PreconditionError, match=r"box 0:1, the first that holds it, has no value \(nan\)"):
                characteristic(measure, weight, kind, q)
            value, box, _ = naive_characteristic(measure, weight, kind, q)
        assert box != BoxIdx(((0, 1),))


class TestQScan:
    def test_constant_all_one(self):
        measure = uniform_measure(4)
        weight = WeightGrid(np.ones(4))
        entries = q_scan(measure, weight, A, [1.5, 2.0, 3.0])
        assert [e.value for e in entries] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_a_monotone_down_in_q(self, two_cell):
        entries = q_scan(*two_cell, A, [2.0, 3.0])
        assert entries[1].value <= entries[0].value

    def test_invalid_entries_recorded_and_scan_continues(self, two_cell):
        entries = q_scan(*two_cell, A, [0.5, 1.0, 2.0])
        assert entries[0].error is not None
        assert entries[1].error is not None
        assert entries[2].error is None
        assert entries[2].value == 1.5625

    def test_rh_q_one_is_unity_ratio(self, two_cell):
        entries = q_scan(*two_cell, RH, [1.0])
        assert entries[0].value == pytest.approx(1.0, abs=1e-12)


class TestMonotonicityProperties:
    def test_a_class_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            measure, weight = random_pair(rng, max_cells=7)
            qs = sorted(rng.uniform(1.05, 6.0, 3))
            entries = q_scan(measure, weight, A, qs)
            vals = [e.value for e in entries]
            assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12

    def test_rh_class_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            measure, weight = random_pair(rng, max_cells=7)
            qs = sorted(rng.uniform(1.0, 6.0, 3))
            entries = q_scan(measure, weight, RH, qs)
            vals = [e.value for e in entries]
            assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [1e-3, 7.0, 1e4])
    def test_scaling_weight_preserves_value_and_argmax(self, c):
        rng = np.random.default_rng(9)
        for _ in range(10):
            measure, weight = random_pair(rng, max_cells=7)
            kind = A if rng.integers(2) == 0 else RH
            q = float(rng.uniform(1.2, 4.0))
            base = characteristic(measure, weight, kind, q)
            scaled = characteristic(
                measure, WeightGrid(weight.values * c), kind, q
            )
            assert scaled.value == pytest.approx(base.value, rel=1e-12)
            assert scaled.argmax_box == base.argmax_box

    @pytest.mark.parametrize(
        "kind, q, c, expected",
        [
            (A, 1.1, 1e40, 1.8660691432486598),
            (RH, 10.0, 1e-40, 1.4949453963769563),
            (RH, 2.0, 1e200, 1.118033988749895),
        ],
    )
    def test_scale_beyond_moment_range(self, kind, q, c, expected):
        # w**s2 of the scaled weight underflows to 0 (or overflows) in every cell
        measure = uniform_measure(4)
        weight = WeightGrid(np.array([1.0, 2.0, 1.0, 3.0]))
        scaled_weight = WeightGrid(weight.values * c)
        base = characteristic(measure, weight, kind, q)
        scaled = characteristic(measure, scaled_weight, kind, q)
        assert base.value == expected
        assert scaled.value == pytest.approx(expected, rel=1e-12)
        assert scaled.argmax_box == base.argmax_box
        assert scaled.boxes_scanned == base.boxes_scanned
        value, box, count = naive_characteristic(measure, scaled_weight, kind, q)
        assert (scaled.value, scaled.argmax_box, scaled.boxes_scanned) == (value, box, count)

    def test_rescale_ignores_zero_mass_weights(self):
        # the zero-mass cell's weight would leave the double range if scaled
        # with the rest; it contributes nothing, so it must not matter
        breakpoints = (np.linspace(0.0, 1.0, 5),)
        measure = GridMeasure(breakpoints, np.array([1.0, 1.0, 0.0, 1.0]))
        base = characteristic(measure, WeightGrid(np.array([1.0, 2.0, 1.0, 3.0])), A, 1.1)
        weight = WeightGrid(np.array([1e40, 2e40, 1e-300, 3e40]))
        scaled = characteristic(measure, weight, A, 1.1)
        assert scaled.value == pytest.approx(base.value, rel=1e-12)
        assert (scaled.argmax_box, scaled.boxes_scanned) == (base.argmax_box, base.boxes_scanned)
        value, box, count = naive_characteristic(measure, weight, A, 1.1)
        assert (scaled.value, scaled.argmax_box, scaled.boxes_scanned) == (value, box, count)

    @pytest.mark.parametrize(
        "kind, q, values, expected",
        [
            (RH, 10.0, [1e-60, 1e25], 2.0 * 0.5**0.1),
            (A, 1.1, [1e-25, 1e60], 0.5**1.1 * 1e85),
        ],
    )
    def test_range_no_scale_recovers_stays_finite(self, kind, q, values, expected):
        # w**s2 spans more decades than a double holds, so every power-of-two
        # scale loses a cell; the centred one would overflow.  The small cell
        # underflows harmlessly and the two-cell box attains the supremum.
        measure = uniform_measure(2)
        weight = WeightGrid(np.array(values))
        report = characteristic(measure, weight, kind, q)
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert report.argmax_box == BoxIdx(((0, 2),))
        assert report.boxes_scanned == 3
        value, box, count = naive_characteristic(measure, weight, kind, q)
        assert (report.value, report.argmax_box, report.boxes_scanned) == (value, box, count)


class TestExactTableLayer:
    """characteristic reads its sums from one grids.scan_tables call."""

    @pytest.fixture
    def prefix_calls(self, monkeypatch):
        from boxweights import grids

        calls = []
        build = grids.dd_prefix_tables

        def counting(cells):
            calls.append(cells.shape)
            return build(cells)

        monkeypatch.setattr(grids, "dd_prefix_tables", counting)
        return calls

    def test_rescaled_grid_builds_one_table_set(self, table_builds, prefix_calls):
        # w**10 underflows in every cell, so w is centred before any moment
        # table is built: mass, w and w**10 of the centred weight only
        measure = uniform_measure((6, 5))
        weight = WeightGrid(np.random.default_rng(0).uniform(1.0, 2.0, (6, 5)) * 1e-40)
        report = characteristic(measure, weight, RH, 10.0)
        assert (report.value, str(report.argmax_box)) == (1.2828159890069146, "2:3;1:4")
        assert len(table_builds) == 1
        assert len(prefix_calls) == 3

    def test_fitting_tables_need_no_build(self, table_builds, prefix_calls):
        measure, weight = power_weight_grid(0.5, 64)
        tables = PrefixTables(measure, weight, (1.0, -1.0))
        del table_builds[:], prefix_calls[:]
        report = characteristic(measure, weight, A, 2.0, tables)
        assert (table_builds, prefix_calls) == ([], [])
        assert report == characteristic(measure, weight, A, 2.0)

    def test_tables_of_another_grid_are_refused(self):
        measure, weight = power_weight_grid(0.5, 8)
        other = PrefixTables(*power_weight_grid(2.0, 8))
        with pytest.raises(PreconditionError, match="another measure or weight"):
            characteristic(measure, weight, A, 2.0, other)
        # the same values on another pair are still another grid
        with pytest.raises(PreconditionError, match="another measure or weight"):
            characteristic(measure, weight, A, 2.0, PrefixTables(*power_weight_grid(0.5, 8)))

    def test_nan_box_never_wins_its_row(self):
        # sw and ss of box 1:2 both underflow to 0, so its value is nan; the
        # row 0 maximum is at 0:2, and box 1:2 still counts
        measure = GridMeasure(
            (np.arange(3.0),), np.array([4.936275671532364e-164, 4.881095512916996e-159])
        )
        weight = WeightGrid(np.array([6.409018138508776e-165, 1.516190293307694e36]))
        report = characteristic(measure, weight, RH, 8.461094268187766)
        assert (report.value, str(report.argmax_box), report.boxes_scanned) == (
            1.0000089178021618, "0:2", 3,
        )
        with np.errstate(invalid="ignore"):  # the oracle's value of box 1:2 is 0/0
            value, box, count = naive_characteristic(measure, weight, RH, 8.461094268187766)
        assert (report.value, report.argmax_box, report.boxes_scanned) == (value, box, count)


class TestOracleEquivalence:
    def test_exact_agreement_small_grids(self):
        rng = np.random.default_rng(123)
        for trial in range(40):
            measure, weight = random_pair(
                rng, max_cells=10, zero_mass_fraction=0.1 if trial % 3 == 0 else 0.0
            )
            kind = A if trial % 2 == 0 else RH
            q = float(rng.uniform(1.2, 4.0))
            report = characteristic(measure, weight, kind, q)
            value, box, count = naive_characteristic(measure, weight, kind, q)
            assert report.value == value
            assert report.argmax_box == box
            assert report.boxes_scanned == count

    def test_random_three_dimensional_grids(self):
        rng = np.random.default_rng(321)
        for trial in range(12):
            measure, weight = random_pair(
                rng,
                max_cells=5,
                ndim_choices=(3,),
                zero_mass_fraction=0.2 if trial % 3 == 1 else 0.0,
            )
            if trial % 3 == 2:
                # equal masses and weights in {1, 2}: many boxes tie at the max
                measure = GridMeasure(measure.breakpoints, np.ones(measure.shape))
                weight = WeightGrid(rng.integers(1, 3, measure.shape).astype(float))
            kind = A if trial % 2 == 0 else RH
            q = 2.0 if trial % 3 == 2 else float(rng.uniform(1.2, 4.0))
            report = characteristic(measure, weight, kind, q)
            value, box, count = naive_characteristic(measure, weight, kind, q)
            assert report.value == value
            assert report.argmax_box == box
            assert report.boxes_scanned == count

    def test_three_dimensional_grid(self):
        rng = np.random.default_rng(77)
        bps = tuple(np.linspace(0, 1, m + 1) for m in (3, 4, 2))
        mass = rng.uniform(0.1, 1.0, (3, 4, 2))
        values = rng.uniform(0.5, 2.0, (3, 4, 2))
        measure, weight = GridMeasure(bps, mass), WeightGrid(values)
        report = characteristic(measure, weight, A, 2.5)
        value, box, count = naive_characteristic(measure, weight, A, 2.5)
        assert report.value == value
        assert report.argmax_box == box
        assert report.boxes_scanned == count


class TestAnyDimension:
    @pytest.mark.parametrize("ndim", [4, 5])
    def test_seeded_grids_equal_the_oracle(self, ndim):
        rng = np.random.default_rng(ndim)
        for trial in range(15):
            shape = tuple(int(m) for m in rng.integers(1, 4, ndim))
            bps = tuple(np.linspace(0, 1, m + 1) for m in shape)
            mass = np.where(rng.random(shape) < 0.25, 0.0, rng.uniform(0.1, 1.0, shape))
            mass.flat[-1] = 1.0
            # weights in {1, 2, 3}: many boxes tie at the max
            values = rng.integers(1, 4, shape).astype(float) if trial % 2 else rng.uniform(0.5, 2.0, shape)
            measure, weight = GridMeasure(bps, mass), WeightGrid(values)
            for kind, q in ((A, 1.7), (RH, 2.3)):
                report = characteristic(measure, weight, kind, q)
                want = naive_characteristic(measure, weight, kind, q)
                assert (report.value, report.argmax_box, report.boxes_scanned) == want, (ndim, trial, kind)

    def test_product_of_power_weights_factors(self):
        oracles = load_repo_module("benchmark/oracles.py")
        m1, w1 = power_weight_grid(0.5, 6)
        one = characteristic(m1, w1, A, 1.6)
        measure = GridMeasure(m1.breakpoints * 4, np.einsum("i,j,k,l->ijkl", *[m1.mass] * 4))
        weight = WeightGrid(np.einsum("i,j,k,l->ijkl", *[w1.values] * 4))
        report = characteristic(measure, weight, A, 1.6)
        assert abs(report.value - one.value**4) <= oracles.product_tolerance("ap", 1.6, 4) * one.value**4
        assert report.argmax_box == BoxIdx(one.argmax_box.ranges * 4)

    @pytest.mark.parametrize("kind, q", [(A, 1.6), (RH, 2.5)])
    def test_weight_of_one_coordinate_has_the_one_dimensional_value(self, kind, q):
        oracles = load_repo_module("benchmark/oracles.py")
        w = np.exp(np.random.default_rng(8).normal(0.0, 1.0, 8))
        # cell masses 1/8 and 1/128 are powers of two, so the moment cells
        # differ by a power of two and each value rounds three exact sums
        one = characteristic(uniform_measure(8), WeightGrid(w), kind, q).value
        shape = (2, 8, 4, 2)
        weight = WeightGrid(np.broadcast_to(w[None, :, None, None], shape))
        value = characteristic(uniform_measure(shape), weight, kind, q).value
        assert abs(value - one) <= oracles.product_tolerance(kind.value, q, 1) * one


class TestStackMemory:
    """The scan holds one stack of bounded size at a time, and reads the 1-D tables in place."""

    @staticmethod
    def _peak(*args):
        tracemalloc.start()
        try:
            characteristic(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("shape", [(6,) * 5, (24,) * 3])
    def test_scans_peak_below_16_mib(self, shape):
        weight = WeightGrid(np.exp(np.random.default_rng(3).normal(0.0, 1.0, shape)))
        assert self._peak(uniform_measure(shape), weight, A, 2.0) < 16 * 2**20

    def test_1d_scan_reads_the_tables_in_place(self):
        measure, weight = power_weight_grid(0.5, 2**18)
        tables = PrefixTables(measure, weight, (1.0, second_moment_exponent(A, 1.6)))
        # The scan's own arrays peak at 24.0 MiB (the cell ratios are
        # written into the padded block buffer); a copy of the six 2 MiB
        # tables into a stack would add 12 MiB.
        assert self._peak(measure, weight, A, 1.6, tables) <= 24.1 * 2**20


class TestSecondMomentExponent:
    def test_values(self):
        assert second_moment_exponent(A, 2.0) == -1.0
        assert second_moment_exponent(A, 3.0) == -0.5
        assert second_moment_exponent(RH, 2.5) == 2.5

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            second_moment_exponent(A, 1.0)
        with pytest.raises(PreconditionError):
            second_moment_exponent(RH, 0.9)


# ----------------------------------------------------------------------
# Tile branch and bound against a full exact sweep.
# ----------------------------------------------------------------------


def _no_bound(kind, q, big, small, extremes):
    return np.full(big.shape[1], np.inf)


def full_sweep(measure, weight, kind, q):
    """characteristic() with pruning off: no tile is bounded, so every box is evaluated exactly."""
    with mock.patch.object(characteristics, "_tile_bound", _no_bound):
        return characteristic(measure, weight, kind, q)


def assert_matches_sweep(measure, weight, kind, q):
    report = characteristic(measure, weight, kind, q)
    # Leaves of more boxes than one batch are screened: with an empty batch
    # every leaf tile is, and each is evaluated alone.
    with mock.patch.object(characteristics, "_LEAF_BLOCK", 0):
        screened = characteristic(measure, weight, kind, q)
    sweep = full_sweep(measure, weight, kind, q)
    for got in (report, screened):
        assert (got.value, got.argmax_box, got.boxes_scanned) == (sweep.value, sweep.argmax_box, sweep.boxes_scanned)
    # the sweep evaluates every box of the grid once
    assert sweep.exact_boxes == math.prod(n * (n + 1) // 2 for n in measure.shape)
    assert 0 <= report.exact_boxes <= sweep.exact_boxes
    return report


def _grid(mass, values):
    mass = np.asarray(mass, dtype=float)
    bps = tuple(np.arange(m + 1.0) for m in mass.shape)
    return GridMeasure(bps, mass), WeightGrid(np.asarray(values, dtype=float))


def _row_maximum(measure, weight, kind, q, a):
    """Largest value of the 1-D boxes [a, b), each from its math.fsum sums."""
    s2 = second_moment_exponent(kind, q)
    mass, w = measure.mass, weight.values
    return max(
        float(characteristics._vec_values(
            kind, q, *(math.fsum(x[a:b]) for x in (mass, mass * w, mass * w**s2))
        ))
        for b in range(a + 1, len(mass) + 1)
    )


def _surrogate_row_maxima(measure, weight, kind, q):
    """Per start a, the largest value of the boxes [a, b) on hi-only prefix differences."""
    s2 = second_moment_exponent(kind, q)
    tables = PrefixTables(measure, weight, (1.0, s2))
    h = np.stack([tables.table(None)[0], tables.table(1.0)[0], tables.table(s2)[0]])
    with np.errstate(all="ignore"):
        return np.array(
            [characteristics._vec_values(kind, q, *(h[:, a + 1 :] - h[:, a, None])).max() for a in range(h.shape[1] - 1)]
        )


class TestTileBranchAndBound:
    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize(
        "mass, values",
        [
            ([1, 1, 1, 1, 1, 1], [1, 3, 1, 3, 1, 3]),
            ([[1, 1, 1], [1, 1, 1]], [[1, 2, 1], [2, 1, 2]]),
            # the smallest tied box, (0:1, 2:4), lies in a later row than the
            # first tied row's (0:2, 0:1)
            ([[1, 1, 1, 1], [1, 1, 1, 1]], [[1, 1, 1, 4], [4, 1, 1, 1]]),
            ([[[1, 1], [1, 1]], [[1, 1], [1, 1]]], [[[1, 2], [2, 1]], [[2, 1], [1, 2]]]),
        ],
        ids=["1d", "2d", "2d-later-row", "3d"],
    )
    def test_exact_ties_across_rows(self, kind, mass, values):
        report = assert_matches_sweep(*_grid(mass, values), kind, 2.0)
        assert report.value > 1.0

    @pytest.mark.parametrize(
        "kind, q, mass, values, rows",
        [
            # the best row comes after a row one ulp below it
            (A, 1.5, [3, 1, 2, 2], [3, 4, 4, 3], (2, 0)),
            (A, 1.5, [2, 1, 1, 3, 1, 2], [5, 4, 4, 5, 5, 4], (0, 1)),
        ],
    )
    def test_maxima_one_ulp_apart_in_different_rows(self, kind, q, mass, values, rows):
        measure, weight = _grid(mass, values)
        maxima = [_row_maximum(measure, weight, kind, q, a) for a in rows]
        assert maxima[0] == np.nextafter(maxima[1], np.inf)
        report = assert_matches_sweep(measure, weight, kind, q)
        assert report.value == maxima[0]
        assert report.argmax_box.ranges[0][0] == rows[0]

    @pytest.mark.parametrize("seed", [37, 95, 109])
    def test_error_term_keeps_rows_the_surrogate_misorders(self, seed):
        # A 2**k first cell leaves low parts near 2**(k - 53) in every later
        # prefix, so the surrogate maxima of the unit cells' rows are off by
        # about 1e-4 of their value: enough to rank the best row below another.
        g = np.random.default_rng(seed)
        n, k = int(g.integers(6, 20)), int(g.integers(30, 46))
        mass = g.uniform(0.5, 1.0, n)
        mass[0] = 2.0**k
        measure, weight = _grid(mass, g.uniform(0.9, 1.1, n))
        q = float(g.uniform(1.3, 3.0))
        report = assert_matches_sweep(measure, weight, A, q)
        vmax = _surrogate_row_maxima(measure, weight, A, q)
        assert vmax[report.argmax_box.ranges[0][0]] < vmax.max()

    @pytest.mark.parametrize("kind", [A, RH])
    def test_huge_first_cell_goes_to_the_exact_pass(self, kind):
        # Every prefix after the first cell carries a low part near ulp(2**44)/2,
        # too large against the unit cells for the float screen, yet the table
        # is still certified exact.
        rng = np.random.default_rng(11)
        mass = np.concatenate([[2.0**44], rng.uniform(0.5, 1.0, 30)])
        measure, weight = _grid(mass, rng.uniform(0.5, 2.0, 31))
        assert PrefixTables(measure, weight).precision_margin() < 1.0
        report = assert_matches_sweep(measure, weight, kind, 2.5)
        # every leaf tile screened: the screen refuses them all the same
        with mock.patch.object(characteristics, "_LEAF_BLOCK", 0):
            assert characteristic(measure, weight, kind, 2.5).exact_boxes > report.boxes_scanned // 2
        value, box, count = naive_characteristic(measure, weight, kind, 2.5)
        assert (report.value, report.argmax_box, report.boxes_scanned) == (value, box, count)

    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize("shape", [(24,), (5, 6), (3, 4, 5)], ids=["1d", "2d", "3d"])
    def test_runs_of_zero_mass_cells(self, kind, shape):
        rng = np.random.default_rng(12)
        mass = rng.uniform(0.2, 1.0, shape).reshape(-1)
        for start, length in ((2, 3), (9, 4), (mass.size - 2, 2)):
            mass[start : start + length] = 0.0
        measure, weight = _grid(mass.reshape(shape), rng.uniform(0.3, 3.0, shape))
        report = assert_matches_sweep(measure, weight, kind, 1.8)
        value, box, count = naive_characteristic(measure, weight, kind, 1.8)
        assert (report.value, report.argmax_box, report.boxes_scanned) == (value, box, count)

    @pytest.mark.parametrize("kind, q", [(A, 2.0), (RH, 2.5)])
    @pytest.mark.parametrize("shape", [(1024,), (12, 9)], ids=["1d", "2d"])
    def test_constant_weight(self, kind, q, shape):
        # Every value is 1 up to a few ulps (rh q=2.5 computes 1.0000000000000002
        # at 0:67 on 1024 cells), so no tile can be pruned: every box ties.
        measure = uniform_measure(shape)
        report = assert_matches_sweep(measure, WeightGrid(np.full(shape, 2.7)), kind, q)
        assert report.exact_boxes == math.prod(n * (n + 1) // 2 for n in shape)

    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.sampled_from([(1,), (2,), (9,), (17,), (1, 3), (4, 4), (3, 6), (2, 2, 2), (3, 2, 4)]),
        kind=st.sampled_from([A, RH]),
        q=st.floats(1.2, 6.0),
        data=st.data(),
    )
    def test_hypothesis_grids_match_sweep(self, shape, kind, q, data):
        size = int(np.prod(shape))
        cell = st.one_of(st.just(0.0), st.floats(1e-2, 1e2))
        mass = np.array(data.draw(st.lists(cell, min_size=size, max_size=size)))
        if not mass.sum() > 0.0:
            mass[0] = 1.0
        values = data.draw(st.lists(st.floats(0.2, 5.0), min_size=size, max_size=size))
        grid = _grid(mass.reshape(shape), np.reshape(values, shape))
        try:
            assert_matches_sweep(*grid, kind, q)
        except PreconditionError as exc:
            # beyond the precision certificate both routes refuse alike
            assert "span" in str(exc)

    def test_seeded_grids_match_sweep(self):
        rng = np.random.default_rng(13)
        for trial in range(60):
            measure, weight = random_pair(
                rng,
                max_cells=(12, 6, 4)[trial % 3],
                ndim_choices=((1,), (2,), (3,))[trial % 3],
                zero_mass_fraction=0.25 if trial % 4 == 0 else 0.0,
            )
            assert_matches_sweep(measure, weight, A if trial % 2 else RH, float(rng.uniform(1.1, 5.0)))

    def test_seeded_wide_grids_match_sweep(self):
        # 1-D grids wide enough for tiles off the diagonal at three levels,
        # some of whose smallest boxes average beyond every other cell
        rng = np.random.default_rng(14)
        for trial in range(80):
            n = int(rng.integers(30, 90))
            sigma = (0.7, 1.2, 1.6)[trial % 3]
            measure, weight = _grid(rng.uniform(0.1, 1.0, n), np.exp(rng.normal(0.0, sigma, n)))
            kind = (A, RH)[trial % 4 // 2]
            q = float(rng.uniform(1.3, 4.0)) if kind is A else float(rng.uniform(1.5, 8.0))
            try:
                assert_matches_sweep(measure, weight, kind, q)
            except PreconditionError as exc:
                # beyond the precision certificate both routes refuse alike
                assert "span" in str(exc)

    @pytest.mark.parametrize(
        "probe, alpha, q",
        [(A, 0.5, 1.5), (A, 0.5, 1.6), (RH, -0.5, 2.0), (RH, -0.5, 1.5)],
        ids=["ap-critical", "ap-inside", "rh-critical", "rh-inside"],
    )
    def test_power_ladder_evaluates_few_boxes_exactly(self, probe, alpha, q):
        # the A_2 ladder of x**0.5 (minus side) and x**-0.5 (plus side), 2048 cells
        measure, weight = power_weight_grid(alpha, 2048)
        report = characteristic(measure, weight, probe, q)
        assert report.boxes_scanned == 2048 * 2049 // 2
        assert report.exact_boxes <= 0.01 * report.boxes_scanned

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 20], ids=["one-tile", "three-tiles", "unbounded"])
    def test_any_step_size_matches_sweep(self, chunk, monkeypatch):
        # Steps of one tile (or of as many as their parent step) refine by
        # halves; an unbounded step goes from the whole column straight to
        # the leaves.
        monkeypatch.setattr(characteristics, "_TILE_CHUNK", chunk)
        rng = np.random.default_rng(15)
        runs = rng.uniform(0.2, 1.0, 60) * (rng.random(60) > 0.3)
        runs[0] = 1.0
        grids = [
            _grid(rng.uniform(0.1, 1.0, 70), np.exp(rng.normal(0.0, 1.2, 70))),
            _grid(np.ones((9, 13)), rng.choice([1.0, 2.0, 4.0], (9, 13))),  # ties
            _grid(np.ones(40), np.full(40, 2.7)),  # constant weight
            _grid(runs.reshape(3, 4, 5), rng.uniform(0.3, 3.0, (3, 4, 5))),  # zero-mass runs
        ]
        for (measure, weight), kind, q in zip(grids, (A, RH, A, RH), (1.8, 2.5, 2.0, 1.6)):
            assert_matches_sweep(measure, weight, kind, q)
        # a grid of several stacks: 21 columns of 31 entries, 3 columns a stack
        monkeypatch.setattr(characteristics, "_STACK_BLOCK", 100)
        measure, weight = _grid(rng.uniform(0.1, 1.0, (6, 30)), np.exp(rng.normal(0.0, 1.0, (6, 30))))
        assert_matches_sweep(measure, weight, A, 2.2)

    @pytest.mark.parametrize("cells, most", [(256, 2), (2048, 5)])
    @pytest.mark.parametrize("probe, alpha, q", [(A, 0.5, 1.5), (A, 0.5, 1.6), (RH, -0.5, 2.0)], ids=["ap-critical", "ap-inside", "rh"])
    def test_power_ladder_scans_in_few_rounds(self, cells, most, probe, alpha, q):
        # Each round bounds one step of tiles; a step refines its survivors
        # straight to the finest side that fits the next step.
        measure, weight = power_weight_grid(alpha, cells)
        with mock.patch.object(characteristics, "_tile_bound", wraps=characteristics._tile_bound) as bound:
            characteristic(measure, weight, probe, q)
        assert 1 <= bound.call_count <= most

    def test_bound_holds_on_every_tile_of_every_side(self):
        # The schedule may bound a tile of any side, so U must cover every
        # exact value of every aligned tile, leaf to top.
        rng = np.random.default_rng(16)
        for trial in range(12):
            n = int(rng.integers(9, 70))
            measure, weight = _grid(rng.uniform(0.1, 1.0, n), np.exp(rng.normal(0.0, 1.5, n)))
            kind, q = (A, float(rng.uniform(1.3, 3.0))) if trial % 2 else (RH, float(rng.uniform(1.5, 6.0)))
            tables = PrefixTables(measure, weight)
            ((hl, _),) = characteristics._stacks(tables.stacked(None, 1.0, second_moment_exponent(kind, q)))
            stack = characteristics._Stack(hl, kind, q)
            a, b = np.triu_indices(n + 1, k=1)
            with np.errstate(all="ignore"):
                values = characteristics._vec_values(kind, q, *stack.sums(0, a, b))
            side = stack.leaf
            while side <= stack.top:
                i, j = np.triu_indices(-(-n // side))
                a_lo, b_lo = i * side, j * side + 1
                a_hi, b_hi = np.minimum(a_lo + side, n) - 1, np.minimum(b_lo - 1 + side, n)
                corners = stack.sums(0, np.stack([a_lo, a_hi]), np.stack([b_hi, b_lo]))
                corners[:, 1, a_hi >= b_lo] = np.nan
                with np.errstate(all="ignore"):
                    bound = characteristics._tile_bound(kind, q, corners[:, 0], corners[:, 1], stack.extremes(0, i, j, side))
                for t in range(len(i)):
                    inside = (a // side == i[t]) & ((b - 1) // side == j[t])
                    assert np.nanmax(values[inside]) <= bound[t], (trial, side, i[t], j[t])
                side *= 2

    def test_refine_goes_to_the_finest_side_that_fits_a_step(self, monkeypatch):
        def children(n, side, f, tiles):
            return [(k, f * i + di, f * j + dj) for k, i, j in tiles for di in range(f) for dj in range(f)
                    if f * i + di <= f * j + dj and (f * j + dj) * (side // f) < n]

        rng = np.random.default_rng(17)
        for trial in range(300):
            chunk = int(rng.choice([1, 3, 16, 100, 1024]))
            monkeypatch.setattr(characteristics, "_TILE_CHUNK", chunk)
            n = int(rng.integers(1, 3000))
            top = 1 << (n - 1).bit_length()
            leaf = min(8, top)
            side = 2 * top >> int(rng.integers(0, (2 * top // leaf).bit_length() - 1))
            i = rng.integers(0, -(-n // side), int(rng.integers(1, 40)))
            j = np.maximum(i, rng.integers(0, -(-n // side), len(i)))
            tiles = list(zip(rng.integers(0, 5, len(i)).tolist(), i.tolist(), j.tolist()))
            # halve at least once, then while the children still fit one
            # step: _TILE_CHUNK tiles, or as many as the tiles refined
            step, f = max(chunk, len(tiles)), 2
            while side // (2 * f) >= leaf and len(children(n, side, 2 * f, tiles)) <= step:
                f *= 2
            steps = characteristics._refine(n, leaf, side, *(np.array(x) for x in zip(*tiles)))
            want = children(n, side, f, tiles)
            assert [s for s, *_ in steps] == [side // f] * -(-len(want) // step)
            assert all(len(k) <= step for _, k, _, _ in steps)
            got = [t for _, *kij in reversed(steps) for t in zip(*(x.tolist() for x in kij))]
            assert got == want
