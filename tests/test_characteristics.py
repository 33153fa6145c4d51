import math

import numpy as np
import pytest

from boxweights import (
    BoxIdx,
    ClassKind,
    GridMeasure,
    PParam,
    WeightGrid,
    ap_characteristic,
    characteristic,
    naive_characteristic,
    pair_gauge,
    q_scan,
    rh_characteristic,
)
from boxweights.characteristics import second_moment_exponent
from boxweights.errors import PreconditionError
from boxweights.grids import power_weight_grid, uniform_measure

from conftest import random_pair

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
        assert report.boxes_scanned == 0


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
