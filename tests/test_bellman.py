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
    BOUNDARY_POINTS,
    ConcavityViolation,
    Membership,
    VerificationReport,
    builtin_candidate,
    read_candidate,
    refinement_gaps,
    tabulate_candidate,
    write_candidate,
)
from boxweights.cli import main
from boxweights.errors import CandidateDomainError, PreconditionError
from boxweights.exponents import r_is_admissible
from boxweights.grids import uniform_measure
from boxweights.splitting import AvgPoint, segment_max

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


def _sequential_verify(region, candidate, r, segments=200, seed=0, rel_tol=1e-9, x1_range=(0.1, 10.0)):
    """verify_candidate as it was when it evaluated the candidate one point at a time."""
    p = region.p
    if not r_is_admissible(region.kind, p, region.Q, r):
        raise PreconditionError(
            f"r={r} lies outside the admissible exponent windows for "
            f"{region.kind.value} with p={p.p}, Q={region.Q}"
        )
    evaluate = candidate.evaluate if hasattr(candidate, "evaluate") else candidate
    rng = np.random.default_rng(seed)
    log_lo, log_hi = math.log(x1_range[0]), math.log(x1_range[1])

    def draw_point() -> AvgPoint:
        x1 = math.exp(rng.uniform(log_lo, log_hi))
        g = rng.uniform(1.0, region.Q)
        return AvgPoint(x1, float(region.x2_at_gauge(x1, g)))

    pairs = []
    attempts = 0
    while len(pairs) < segments:
        attempts += 1
        if attempts > 1000 * segments:
            raise PreconditionError("segment rejection sampling stalled; check Q and x1_range")
        a, b = draw_point(), draw_point()
        if segment_max(a, b, region.kind, p) <= region.Q:
            pairs.append((a, b))

    violations = []
    c_hat = -math.inf
    c_hat_point = (math.nan, math.nan)
    failure_point = None

    def track_growth(x1, x2, value):
        nonlocal c_hat, c_hat_point
        ratio = value / x1**r
        if ratio > c_hat:
            c_hat = ratio
            c_hat_point = (x1, x2)

    try:
        for a, b in pairs:
            va = float(evaluate(a.x1, a.x2))
            vb = float(evaluate(b.x1, b.x2))
            track_growth(a.x1, a.x2, va)
            track_growth(b.x1, b.x2, vb)
            for lam in (0.25, 0.5, 0.75):
                mx1 = lam * a.x1 + (1.0 - lam) * b.x1
                mx2 = lam * a.x2 + (1.0 - lam) * b.x2
                vm = float(evaluate(mx1, mx2))
                track_growth(mx1, mx2, vm)
                deficit = lam * va + (1.0 - lam) * vb - vm
                scale = max(1.0, abs(va), abs(vb), abs(vm))
                if deficit > rel_tol * scale:
                    violations.append(ConcavityViolation(x_a=tuple(a), x_b=tuple(b), lam=lam, deficit=deficit))
        boundary_err = 0.0
        boundary_arg = math.nan
        for x1 in np.exp(np.linspace(log_lo, log_hi, BOUNDARY_POINTS)):
            x1 = float(x1)
            x2 = float(region.lower_boundary_x2(x1))
            val = float(evaluate(x1, x2))
            track_growth(x1, x2, val)
            err = abs(val - x1**r)
            if err > boundary_err:
                boundary_err = err
                boundary_arg = x1
    except CandidateDomainError as exc:
        failure_point = exc.point
        boundary_err, boundary_arg = math.inf, math.nan
        c_hat, c_hat_point = math.inf, (math.nan, math.nan)

    return VerificationReport(
        kind=region.kind,
        p=p.p,
        r=r,
        Q=region.Q,
        segments_tested=len(pairs),
        violations=tuple(violations),
        boundary_max_error=boundary_err,
        boundary_argmax_x1=boundary_arg,
        c_hat=c_hat,
        c_hat_point=c_hat_point,
        rel_tol=rel_tol,
        seed=seed,
        verdict=not violations and math.isfinite(c_hat),
        failure_point=failure_point,
    )


def _outcome(verify, *args, **kwargs):
    """repr of the report, or the type and text of the error."""
    try:
        return repr(verify(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBatchedVerifier:
    """The array verifier gives the report of one candidate call per point."""

    def test_reports_equal_the_sequential_ones(self):
        region = AveragePairRegion(A, P2, 2.0)
        good = read_candidate(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt")
        control = read_candidate(FIXTURE_DIR / "candidate_control_x13.txt")
        table13 = tabulate_candidate(
            lambda x1, x2: np.asarray(x1) ** 1.3, A, P2, 1.3, 2.0, x1_range=(0.5, 2.0), n1=61, n2=81
        )
        runs = [
            (good, dict(segments=400, rel_tol=1e-3)),
            (control, {}),
            (table13, {}),
            (builtin_candidate("builtin:linear", A, P2, 2.0), {}),
            (builtin_candidate("builtin:power:1.3", A, P2, 2.0), {}),
        ]
        outcomes = set()
        for seed in range(3):
            for x1_range in ((0.5, 2.0), (0.6, 1.7), (0.1, 10.0)):
                for cand, kwargs in runs:
                    args = (region, cand, cand.r)
                    kwargs = dict(kwargs, seed=seed, x1_range=x1_range)
                    want = _outcome(_sequential_verify, *args, **kwargs)
                    assert _outcome(verify_candidate, *args, **kwargs) == want, (cand.source, seed, x1_range)
                    outcomes.add("failure_point=None" in want)
        rh = AveragePairRegion(RH, P2, 2.0)
        for seed in range(3):
            for cand, r in ((BellmanCandidate.linear(RH, P2, 2.0), 1.0), (BellmanCandidate.power(RH, P2, 2.0, 2.0), 2.0)):
                want = _outcome(_sequential_verify, rh, cand, r, segments=100, seed=seed)
                assert _outcome(verify_candidate, rh, cand, r, segments=100, seed=seed) == want
        assert outcomes == {True, False}  # domain failures among them

    def test_midpoint_failure_keeps_the_earlier_quarter_point_violation(self):
        # A tabulated lattice is a rectangle, so no midpoint of two points
        # inside it leaves it; a candidate undefined at one midpoint stands in.
        region = AveragePairRegion(A, P2, 2.0)
        power = BellmanCandidate.power(A, P2, 1.3, 2.0)
        queried = []

        def recording(x1, x2):
            queried.append((x1, x2))
            return power.evaluate(x1, x2)

        _sequential_verify(region, recording, 1.3, segments=20, seed=3)
        hole = queried[5 * 3 + 3]  # a, b, m.25, m.5, m.75 per segment: segment 3's m.5

        def holed(x1, x2):
            b1, b2 = np.broadcast_arrays(x1, x2)
            if np.any((b1 == hole[0]) & (b2 == hole[1])):
                raise CandidateDomainError(hole)
            return power.evaluate(x1, x2)

        want = _sequential_verify(region, holed, 1.3, segments=20, seed=3)
        got = verify_candidate(region, holed, 1.3, segments=20, seed=3)
        assert repr(got) == repr(want)
        assert got.failure_point == hole and not got.verdict
        # every quarter point of segments 0-2 and segment 3's m.25 violate
        assert [v.lam for v in got.violations] == [0.25, 0.5, 0.75] * 3 + [0.25]
        assert got.violations[-1].x_a == queried[15]

    def test_first_non_finite_value_fails_like_a_domain_error(self):
        region = AveragePairRegion(A, P2, 2.0)
        got = verify_candidate(region, lambda x1, x2: np.where(x1 > 1, np.nan, x1), 1.0)
        assert not got.verdict and got.failure_point[0] > 1 and got.c_hat == math.inf
        # x1**1.3 violates concavity: the violations before the failure stay
        power = BellmanCandidate.power(A, P2, 1.3, 2.0)
        for bad in (np.nan, np.inf, -np.inf):

            def partial(x1, x2):
                return np.where(np.asarray(x1) > 8.0, bad, power.evaluate(x1, x2))

            def holed(x1, x2):
                b1, b2 = (x.reshape(-1) for x in np.broadcast_arrays(x1, x2))
                if np.any(b1 > 8.0):
                    k = int(np.argmax(b1 > 8.0))
                    raise CandidateDomainError((float(b1[k]), float(b2[k])))
                return power.evaluate(x1, x2)

            got = verify_candidate(region, partial, 1.3, segments=40, seed=2)
            assert repr(got) == repr(_sequential_verify(region, holed, 1.3, segments=40, seed=2))
            assert got.violations and not got.verdict and got.failure_point[0] > 8.0

    def test_sampling_box_beyond_the_doubles_is_refused_before_any_draw(self):
        cases = [
            # x2 = (g*x1)**2 underflows to 0 for x1 near 1e-163
            (RH, 2.0, 2.0, (1e-163, 1e-150), 1.0),
            # x2 = (g/x1)**100 overflows for small x1
            (A, 1.01, 1.5, (1e-3, 1.0), 1.0),
            # x1**1.2 underflows to 0
            (A, 2.0, 2.0, (1e-300, 1e-299), 1.2),
        ]
        for kind, p, Q, x1_range, r in cases:
            region = AveragePairRegion(kind, p, Q)
            drawn = []

            def recording(x1, x2):
                drawn.append(x1)
                return x1

            for segments in (1, 3):
                with pytest.raises(PreconditionError, match="narrow the x1 range"):
                    verify_candidate(region, recording, r, segments=segments, x1_range=x1_range)
            assert not drawn
        code = main(["bellman-verify", "--class", "ap", "--p", "1.01", "--Q", "1.5",
                     "--candidate", "builtin:linear", "--x1-range", "0.001,1"])
        assert code == 2

    def test_stall_fires_at_the_same_attempt(self):
        # no segment fits a band this thin
        region = AveragePairRegion(A, 2.0, 1.0 + 1e-12)
        cand = BellmanCandidate.linear(A, 2.0, 1.0 + 1e-12)
        for seed in range(3):
            kwargs = dict(segments=2, seed=seed, x1_range=(1e-3, 1e3))
            want = _outcome(_sequential_verify, region, cand, 1.0, **kwargs)
            assert "stalled" in want
            assert _outcome(verify_candidate, region, cand, 1.0, **kwargs) == want


class TestCandidateArrays:
    def test_table_names_the_first_point_outside_the_lattice(self):
        table = read_candidate(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt").table
        with pytest.raises(CandidateDomainError, match=r"lattice: \(100\.0, 1\.0\)$") as info:
            table(np.array([1.0, 100.0]), np.array([1.0, 1.0]))
        assert info.value.point == (100.0, 1.0)
        # broadcast arrays, C order
        with pytest.raises(CandidateDomainError) as info:
            table(np.array([[1.0], [1.1]]), np.array([1.0, 1e-3, 1e3]))
        assert info.value.point == (1.0, 1e-3)
        with pytest.raises(CandidateDomainError) as info:
            table(0.01, 1.0)
        assert info.value.point == (0.01, 1.0)

    def test_table_values_on_arrays_equal_the_values_per_point(self):
        table = read_candidate(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt").table
        rng = np.random.default_rng(4)
        x1 = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 2000))
        x2 = np.exp(rng.uniform(-0.05, 0.05, 2000)) / x1 * rng.uniform(1.0, 2.0, 2000)
        got = table(x1, x2)
        assert got.tolist() == [float(table(a, b)) for a, b in zip(x1.tolist(), x2.tolist())]

    def test_power_candidate_uses_python_power_on_arrays(self):
        power = BellmanCandidate.power(A, P2, 1.3, 2.0)
        x = np.exp(np.random.default_rng(5).uniform(-5.0, 5.0, (40, 50)))
        got = power.evaluate(x, x)
        assert got.shape == x.shape
        assert got.reshape(-1).tolist() == [v**1.3 for v in x.reshape(-1).tolist()]
        assert power.evaluate(2.0, 1.0) == 2.0**1.3


class TestBellmanVerifyGolden:
    """stdout and --report CSV of bellman-verify, byte for byte.

    The copies under tests/fixtures/bellman_verify/ were written by the
    one-point-at-a-time verifier: run each case in a directory holding
    candidate_control_x13.txt, with the stdout in <case>.stdout.
    """

    CASES = {
        "power13": ["--candidate", "builtin:power:1.3"],
        "control_x13": ["--candidate", "candidate_control_x13.txt", "--x1-range", "0.5,2.0"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_is_byte_identical(self, case, tmp_path, monkeypatch, capsys):
        golden = FIXTURE_DIR / "bellman_verify"
        (tmp_path / "candidate_control_x13.txt").write_bytes((FIXTURE_DIR / "candidate_control_x13.txt").read_bytes())
        monkeypatch.chdir(tmp_path)
        argv = ["bellman-verify", "--class", "ap", "--p", "2", "--Q", "2", *self.CASES[case], "--report", f"{case}.csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (golden / f"{case}.stdout").read_text()
        assert (tmp_path / f"{case}.csv").read_bytes() == (golden / f"{case}.csv").read_bytes()


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
