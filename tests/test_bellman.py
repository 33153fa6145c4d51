import math

import numpy as np
import pytest

from boxweights import (
    AveragePairRegion,
    BellmanCandidate,
    ClassKind,
    PParam,
    WeightGrid,
    membership,
    power_weight_grid,
    theorem_conclusion_check,
    verify_candidate,
)
from boxweights.bellman import (
    Membership,
    builtin_candidate,
    read_candidate,
    refinement_gaps,
    tabulate_candidate,
    write_candidate,
)
from boxweights.errors import PreconditionError
from boxweights.grids import uniform_measure

from conftest import FIXTURE_DIR

A = ClassKind.MUCKENHOUPT_A
RH = ClassKind.REVERSE_HOLDER
P2 = PParam(2.0)


class TestMembership:
    def test_lower_boundary_point_is_inside(self):
        region = AveragePairRegion(A, P2, 2.0)
        assert membership(region, 1.0, 1.0) is Membership.INSIDE

    def test_two_cell_point_inside_q2(self):
        region = AveragePairRegion(A, P2, 2.0)
        assert membership(region, 2.5, 0.625) is Membership.INSIDE

    def test_two_cell_point_above_q15(self):
        region = AveragePairRegion(A, P2, 1.5)
        assert membership(region, 2.5, 0.625) is Membership.ABOVE

    def test_below(self):
        region = AveragePairRegion(A, P2, 2.0)
        assert membership(region, 1.0, 0.5) is Membership.BELOW

    def test_nonpositive_coordinates_rejected(self):
        region = AveragePairRegion(A, P2, 2.0)
        with pytest.raises(PreconditionError):
            membership(region, 0.0, 1.0)

    @pytest.mark.parametrize("kind", [A, RH])
    def test_boundary_curve_consistency(self, kind):
        region = AveragePairRegion(kind, P2, 2.0)
        rng = np.random.default_rng(0)
        x1s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
        for x1 in x1s:
            x1 = float(x1)
            x2 = float(region.lower_boundary_x2(x1))
            assert membership(region, x1, x2) is Membership.INSIDE
            assert region.gauge(x1, x2) == pytest.approx(1.0, rel=1e-10)


class TestVerifyCandidate:
    def test_builtin_linear_passes(self):
        region = AveragePairRegion(A, P2, 2.0)
        cand = BellmanCandidate.linear(A, P2, 2.0)
        report = verify_candidate(region, cand, 1.0, segments=200, seed=0)
        assert report.verdict
        assert report.violations == ()
        assert report.boundary_max_error <= 1e-10
        assert report.c_hat == pytest.approx(1.0, abs=1e-12)

    def test_analytic_convex_control_fails(self):
        region = AveragePairRegion(A, P2, 2.0)
        cand = BellmanCandidate.power(A, P2, 1.3, 2.0)
        report = verify_candidate(region, cand, 1.3, segments=200, seed=0)
        assert not report.verdict
        assert len(report.violations) >= 1
        # boundary is exact for the pure power function
        assert report.boundary_max_error <= 1e-12

    def test_tabulated_convex_control_fails(self):
        region = AveragePairRegion(A, P2, 2.0)
        cand = tabulate_candidate(
            lambda x1, x2: np.asarray(x1) ** 1.3,
            A,
            P2,
            1.3,
            2.0,
            x1_range=(0.5, 2.0),
            n1=301,
            n2=401,
        )
        report = verify_candidate(
            region, cand, 1.3, segments=200, seed=0, x1_range=(0.5, 2.0)
        )
        assert not report.verdict
        assert len(report.violations) >= 1

    def test_r_outside_admissible_window_rejected(self):
        region = AveragePairRegion(A, P2, 2.0)
        cand = BellmanCandidate.linear(A, P2, 2.0)
        with pytest.raises(PreconditionError, match="admissible"):
            verify_candidate(region, cand, 1.45, segments=10, seed=0)

    def test_undefined_point_fails_with_location(self):
        region = AveragePairRegion(A, P2, 2.0)
        # tiny coverage: queries outside the lattice must fail the verdict
        cand = tabulate_candidate(
            lambda x1, x2: np.asarray(x1),
            A,
            P2,
            1.0,
            2.0,
            x1_range=(0.9, 1.1),
            n1=11,
            n2=11,
        )
        report = verify_candidate(
            region, cand, 1.0, segments=20, seed=0, x1_range=(0.5, 2.0)
        )
        assert not report.verdict
        assert report.failure_point is not None

    def test_monotone_in_tolerance(self, majorant_r12):
        cand, info = majorant_r12
        region = AveragePairRegion(A, P2, 2.0)
        tol = 40.0 * info["h_xi"] ** 2
        rep_loose = verify_candidate(
            region, cand, 1.2, segments=300, seed=0, rel_tol=tol, x1_range=(0.5, 2.0)
        )
        rep_looser = verify_candidate(
            region, cand, 1.2, segments=300, seed=0, rel_tol=10 * tol, x1_range=(0.5, 2.0)
        )
        assert rep_loose.verdict
        assert rep_looser.verdict
        assert len(rep_looser.violations) <= len(rep_loose.violations)

    def test_fine_majorant_passes_with_growth_constant(self, majorant_r12):
        # bilinear tabulation carries O(h**2) curvature noise, so the pass
        # tolerance is lattice-commensurate rather than 1e-9
        cand, info = majorant_r12
        region = AveragePairRegion(A, P2, 2.0)
        tol = 40.0 * info["h_xi"] ** 2
        report = verify_candidate(
            region, cand, 1.2, segments=400, seed=0, rel_tol=tol, x1_range=(0.5, 2.0)
        )
        assert report.verdict
        assert report.violations == ()
        assert 1.0 < report.c_hat <= info["c_hat_bound"] + 1e-6
        assert report.boundary_max_error <= 4.0 * info["h_xi"] ** 2 * report.c_hat

    def test_deterministic_for_fixed_seed(self):
        region = AveragePairRegion(A, P2, 2.0)
        cand = BellmanCandidate.power(A, P2, 1.3, 2.0)
        rep1 = verify_candidate(region, cand, 1.3, segments=50, seed=7)
        rep2 = verify_candidate(region, cand, 1.3, segments=50, seed=7)
        assert rep1 == rep2


class TestShippedFixture:
    def test_coarse_fixture_verifies_at_lattice_tolerance(self):
        cand = read_candidate(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt")
        assert (cand.kind, cand.p.p, cand.r, cand.Q) == (A, 2.0, 1.2, 2.0)
        region = AveragePairRegion(A, P2, 2.0)
        report = verify_candidate(
            region, cand, 1.2, segments=400, seed=0, rel_tol=1e-3, x1_range=(0.5, 2.0)
        )
        assert report.verdict
        assert report.c_hat == pytest.approx(1.7437, abs=2e-3)

    def test_control_fixture_fails(self):
        cand = read_candidate(FIXTURE_DIR / "candidate_control_x13.txt")
        region = AveragePairRegion(A, P2, 2.0)
        report = verify_candidate(
            region, cand, cand.r, segments=200, seed=0, x1_range=(0.5, 2.0)
        )
        assert not report.verdict
        assert len(report.violations) >= 1

    def test_candidate_file_round_trip(self, tmp_path):
        cand = read_candidate(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt")
        path = tmp_path / "copy.txt"
        write_candidate(path, cand)
        again = read_candidate(path)
        assert np.array_equal(cand.table.values, again.table.values)
        assert np.array_equal(cand.table.xi, again.table.xi)
        assert again.r == cand.r

    def test_builtin_parser(self):
        cand = builtin_candidate("builtin:linear", A, P2, 2.0)
        assert cand.r == 1.0
        cand = builtin_candidate("builtin:power:1.3", A, P2, 2.0)
        assert cand.r == 1.3
        with pytest.raises(PreconditionError):
            builtin_candidate("builtin:magic", A, P2, 2.0)


class TestConclusionCheck:
    def test_hypothesis_bound_enforced(self):
        measure, weight = power_weight_grid(0.5, 256)
        with pytest.raises(PreconditionError, match="exceeds"):
            theorem_conclusion_check(measure, weight, A, P2, 2.0, Q=1.05)

    def test_refinement_gaps(self):
        gaps, ratios = refinement_gaps([1.0, 2.0, 2.5, 2.5, 2.0])
        assert gaps == [1.0, 0.25, 0.0, 0.2]
        # a zero increment has no ratio after it
        assert ratios == [0.5, 0.0]
        assert refinement_gaps([3.0]) == ([], [])

    def test_base_and_level_zero_share_tables(self, table_builds):
        measure, weight = power_weight_grid(0.5, 64)
        theorem_conclusion_check(
            measure, weight, A, P2, 1.7, Q=4.0 / 3.0 + 1e-9, refine_factor=2, levels=2
        )
        assert [m.shape for m in table_builds] == [(64,), (128,), (256,)]

    def test_constant_weight_stabilizes(self):
        measure = uniform_measure(8)
        weight = WeightGrid(np.ones(8))
        report = theorem_conclusion_check(
            measure, weight, A, P2, 2.0, Q=1.01, refine_factor=2, levels=2
        )
        assert report.verdict == "stabilizing"
        assert report.last_gap == 0.0

    def test_critical_exponent_diverges(self):
        measure, weight = power_weight_grid(0.5, 256)
        report = theorem_conclusion_check(
            measure, weight, A, P2, 1.5, Q=4.0 / 3.0 + 1e-9, refine_factor=4, levels=2
        )
        assert report.verdict == "divergent-trend"
        assert all(b > a for a, b in zip(report.values, report.values[1:]))

    def test_interior_exponent_stabilizes(self):
        measure, weight = power_weight_grid(0.5, 256)
        report = theorem_conclusion_check(
            measure, weight, A, P2, 2.5, Q=4.0 / 3.0 + 1e-9, refine_factor=4, levels=2
        )
        assert report.verdict == "stabilizing"

    def test_rh_probe_on_rh_weight(self):
        measure, weight = power_weight_grid(-1.0 / 3.0, 256)
        Q = 2.0 / math.sqrt(3.0) + 1e-9
        div = theorem_conclusion_check(
            measure, weight, RH, P2, 3.0, Q=Q, refine_factor=4, levels=2
        )
        assert div.verdict == "divergent-trend"
        ok = theorem_conclusion_check(
            measure, weight, RH, P2, 2.0, Q=Q, refine_factor=4, levels=2
        )
        assert ok.verdict == "stabilizing"

    def test_cross_class_probe(self):
        # Muckenhoupt hypothesis probed for Reverse Holder membership
        measure, weight = power_weight_grid(0.5, 256)
        report = theorem_conclusion_check(
            measure,
            weight,
            A,
            P2,
            1.5,
            Q=4.0 / 3.0 + 1e-9,
            probe_kind=RH,
            refine_factor=2,
            levels=2,
        )
        assert report.probe_kind is RH
        assert report.verdict == "stabilizing"

    def test_rh_side_window_of_muckenhoupt_weight(self):
        # x**(-1/2) has Muckenhoupt characteristic 4/3 and its Reverse
        # Holder window ends at q = 2: the q=2.5 probe diverges while the
        # q=1.5 probe settles
        measure, weight = power_weight_grid(-0.5, 256)
        Q = 4.0 / 3.0 + 1e-9
        div = theorem_conclusion_check(
            measure, weight, A, P2, 2.5, Q=Q, probe_kind=RH,
            refine_factor=4, levels=2,
        )
        assert div.verdict == "divergent-trend"
        ok = theorem_conclusion_check(
            measure, weight, A, P2, 1.5, Q=Q, probe_kind=RH,
            refine_factor=4, levels=2,
        )
        assert ok.verdict == "stabilizing"
