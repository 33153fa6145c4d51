import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxweights import (
    Branch,
    ClassKind,
    PParam,
    analytic_power_characteristic,
    extremal_alpha,
    implicit_value,
    sharp_range,
    solve_branch,
)
from boxweights.errors import PreconditionError
from boxweights.exponents import admissible_r_ranges, r_is_admissible

A = ClassKind.MUCKENHOUPT_A
RH = ClassKind.REVERSE_HOLDER
P2 = PParam(2.0)


class TestPParam:
    def test_p1(self):
        assert PParam(2.0).p1 == -1.0
        assert PParam(3.0).p1 == -0.5
        assert PParam(1.5).p1 == -2.0

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
    def test_rejects_bad_p(self, bad):
        with pytest.raises(PreconditionError):
            PParam(bad)


class TestImplicitValue:
    def test_a_at_zero(self):
        assert implicit_value(A, P2, 0.0) == 1.0

    def test_a_reduces_to_one_minus_s_squared_at_p2(self):
        # with p1 = -1 the expression is (1-s)(1+s) = 1 - s**2
        assert implicit_value(A, P2, 0.707107) == pytest.approx(0.5, abs=1e-5)

    def test_rh_example(self):
        assert implicit_value(RH, P2, 1.0 / 3.0) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-6
        )

    def test_rh_at_zero(self):
        assert implicit_value(RH, P2, 0.0) == 1.0

    def test_domain_violation_names_factor(self):
        with pytest.raises(PreconditionError, match=r"1 - s"):
            implicit_value(A, P2, 1.5)
        with pytest.raises(PreconditionError, match=r"1 - p1\*s"):
            implicit_value(A, P2, -1.5)
        with pytest.raises(PreconditionError, match=r"1 - p\*s"):
            implicit_value(RH, P2, 0.75)

    def test_endpoints_map_to_zero(self):
        assert implicit_value(A, P2, 1.0) == 0.0
        assert implicit_value(A, P2, -1.0) == 0.0  # s = 1/p1
        assert implicit_value(RH, P2, 0.5) == 0.0  # s = 1/p


class TestSolveBranch:
    def test_closed_form_p2_muckenhoupt(self):
        # at p = 2 the equation is 1 - s**2 = t
        assert solve_branch(A, P2, 0.5, Branch.PLUS) == pytest.approx(
            math.sqrt(0.5), abs=1e-7
        )
        assert solve_branch(A, P2, 0.5, Branch.MINUS) == pytest.approx(
            -math.sqrt(0.5), abs=1e-7
        )

    def test_closed_form_p2_reverse_holder(self):
        # at p = 2: plus root s/(1+s), minus root -s/(1-s) with s = sqrt(1-t**2)
        s = math.sqrt(1.0 - 0.25)
        assert solve_branch(RH, P2, 0.5, Branch.PLUS) == pytest.approx(
            s / (1.0 + s), abs=1e-7
        )
        assert solve_branch(RH, P2, 0.5, Branch.MINUS) == pytest.approx(
            -s / (1.0 - s), abs=1e-6
        )

    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    @pytest.mark.parametrize("p", [1.3, 2.0, 4.5])
    def test_t_one_gives_zero_exactly(self, kind, branch, p):
        assert solve_branch(kind, PParam(p), 1.0, branch) == 0.0

    @pytest.mark.parametrize("t", [0.0, -0.25, 1.0000001, 2.0])
    def test_out_of_range_t(self, t):
        with pytest.raises(PreconditionError):
            solve_branch(A, P2, t, Branch.PLUS)

    def test_closed_form_sweep_p2(self):
        # branch solutions at p = 2 against the quadratic closed forms, 1e-10
        for t in np.linspace(0.01, 0.999, 97):
            t = float(t)
            root = math.sqrt(1.0 - t)
            assert abs(solve_branch(A, P2, t, Branch.PLUS) - root) < 1e-10
            assert abs(solve_branch(A, P2, t, Branch.MINUS) + root) < 1e-10
            s = math.sqrt(1.0 - t * t)
            assert abs(solve_branch(RH, P2, t, Branch.PLUS) - s / (1 + s)) < 1e-10
            assert (
                abs(solve_branch(RH, P2, t, Branch.MINUS) + s / (1 - s))
                < 1e-10 * max(1.0, s / (1 - s))
            )

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        Q=st.floats(1.0, 100.0, exclude_min=True),
        kind=st.sampled_from([A, RH]),
        branch=st.sampled_from([Branch.PLUS, Branch.MINUS]),
    )
    def test_round_trip(self, p, Q, kind, branch):
        # Roots pinned exponentially close to a bracket endpoint (Reverse
        # Holder plus branch at large p and Q, Muckenhoupt minus branch at
        # small p and large Q) quantize in double precision: adjacent
        # representable s values straddle the 1e-10 residual band.  The
        # solver must be optimal within the measured value spacing across
        # the neighboring doubles.
        pp = PParam(p)
        t = 1.0 / Q
        s = solve_branch(kind, pp, t, branch)
        resid = abs(implicit_value(kind, pp, s) - t)

        def safe_value(x):
            try:
                return implicit_value(kind, pp, x)
            except Exception:
                return math.nan

        left = safe_value(math.nextafter(s, -math.inf))
        right = safe_value(math.nextafter(s, math.inf))
        gap = abs(right - left) if math.isfinite(right - left) else math.inf
        assert resid <= max(1e-10, 4.0 * gap + 8.0 * math.ulp(t))

    def test_branch_ranges(self):
        for p in (1.2, 2.0, 7.0):
            pp = PParam(p)
            for Q in (1.01, 2.0, 50.0):
                t = 1.0 / Q
                assert 0.0 < solve_branch(A, pp, t, Branch.PLUS) < 1.0
                assert 1.0 / pp.p1 < solve_branch(A, pp, t, Branch.MINUS) < 0.0
                assert 0.0 < solve_branch(RH, pp, t, Branch.PLUS) < 1.0 / p
                assert solve_branch(RH, pp, t, Branch.MINUS) < 0.0


class TestSharpRange:
    def test_muckenhoupt_q_four_thirds(self):
        rng = sharp_range(A, P2, 4.0 / 3.0)
        assert rng.s_minus == pytest.approx(-0.5, abs=1e-9)
        assert rng.s_plus == pytest.approx(0.5, abs=1e-9)
        assert rng.a_lower == pytest.approx(1.5, abs=1e-9)
        assert rng.rh_upper == pytest.approx(2.0, abs=1e-9)

    def test_muckenhoupt_q_two(self):
        rng = sharp_range(A, P2, 2.0)
        assert rng.a_lower == pytest.approx(1.7071068, abs=1e-6)
        assert rng.rh_upper == pytest.approx(1.4142136, abs=1e-6)

    def test_reverse_holder_example(self):
        rng = sharp_range(RH, P2, 2.0 / math.sqrt(3.0))
        assert rng.s_plus == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert rng.s_minus == pytest.approx(-1.0, abs=1e-6)
        assert rng.a_lower == pytest.approx(2.0, abs=1e-6)
        assert rng.rh_upper == pytest.approx(3.0, abs=1e-6)

    def test_q_one_rejected(self):
        with pytest.raises(PreconditionError, match="exceed 1"):
            sharp_range(A, P2, 1.0)

    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize("p", [1.4, 2.0, 5.0])
    def test_monotone_in_Q(self, kind, p):
        Qs = [1.05, 1.3, 2.0, 5.0, 20.0]
        ranges = [sharp_range(kind, PParam(p), Q) for Q in Qs]
        for r1, r2 in zip(ranges, ranges[1:]):
            assert r2.s_plus > r1.s_plus
            assert r2.s_minus < r1.s_minus
            assert r2.a_lower > r1.a_lower
            assert r2.rh_upper < r1.rh_upper

    @pytest.mark.parametrize("kind", [A, RH])
    def test_limit_Q_to_one(self, kind):
        rng = sharp_range(kind, P2, 1.0 + 1e-9)
        assert rng.a_lower == pytest.approx(1.0, abs=1e-4)
        assert rng.rh_upper > 1e3

    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    @pytest.mark.parametrize("Q", [1.2, 3.0, 40.0])
    def test_window_bounds(self, kind, p, Q):
        rng = sharp_range(kind, PParam(p), Q)
        assert rng.a_lower > 1.0
        assert rng.rh_upper > 1.0


class TestExtremalAlpha:
    def test_examples(self):
        assert extremal_alpha(A, P2, 4.0 / 3.0, Branch.MINUS) == pytest.approx(0.5, abs=1e-9)
        assert extremal_alpha(A, P2, 4.0 / 3.0, Branch.PLUS) == pytest.approx(-0.5, abs=1e-9)
        Q = 2.0 / math.sqrt(3.0)
        assert extremal_alpha(RH, P2, Q, Branch.PLUS) == pytest.approx(-1.0 / 3.0, abs=1e-6)
        assert extremal_alpha(RH, P2, Q, Branch.MINUS) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "p, Q, alpha",
        [
            (9.898110416583364, 73.87081963586095, -0.10102938418676284),
            (9.611273464354923, 93.38386553791102, -0.10404448522962889),
        ],
    )
    def test_root_on_the_domain_edge_steps_inside(self, p, Q, alpha):
        # the branch root is an ulp further out, where 1 + alpha*p rounds to 0
        # (alpha*p + 1 = -3.2e-17 in exact arithmetic for the first)
        assert 1.0 + math.nextafter(alpha, -1.0) * p == 0.0
        assert extremal_alpha(RH, PParam(p), Q, Branch.PLUS) == alpha
        assert 1.0 + alpha * p > 0.0
        assert analytic_power_characteristic(RH, PParam(p), alpha) > 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        Q=st.floats(1.001, 100.0),
        kind=st.sampled_from([A, RH]),
        side=st.sampled_from([Branch.PLUS, Branch.MINUS]),
    )
    def test_alpha_windows(self, p, Q, kind, side):
        # open interval ends may be attained exactly when the root quantizes
        # onto the domain endpoint (deep large-Q corners), hence <= there
        alpha = extremal_alpha(kind, PParam(p), Q, side)
        if kind is A:
            if side is Branch.MINUS:
                assert 0.0 < alpha <= p - 1.0
            else:
                assert -1.0 < alpha < 0.0
        else:
            if side is Branch.PLUS:
                assert -1.0 / p <= alpha < 0.0
            else:
                assert alpha > 0.0


class TestAnalyticPowerCharacteristic:
    def test_examples(self):
        assert analytic_power_characteristic(A, P2, 0.5) == pytest.approx(
            4.0 / 3.0, abs=1e-12
        )
        assert analytic_power_characteristic(RH, P2, 1.0) == pytest.approx(
            2.0 / math.sqrt(3.0), abs=1e-6
        )

    @pytest.mark.parametrize("kind", [A, RH])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
    def test_constant_weight(self, kind, p):
        assert analytic_power_characteristic(kind, PParam(p), 0.0) == 1.0

    def test_validity_window_errors(self):
        with pytest.raises(PreconditionError, match="diverges"):
            analytic_power_characteristic(A, P2, -1.0)
        with pytest.raises(PreconditionError, match="diverges"):
            analytic_power_characteristic(A, P2, 1.0)
        with pytest.raises(PreconditionError, match="diverges"):
            analytic_power_characteristic(RH, P2, -0.5)

    def test_grid_characteristic_converges_from_below(self):
        # independent oracle for the closed form: the discrete box supremum
        # of the generated power weight approaches the analytic value from
        # below as the grid refines
        from boxweights import characteristic, power_weight_grid

        target = analytic_power_characteristic(A, P2, 0.5)
        values = []
        for n in (256, 1024, 4096):
            measure, weight = power_weight_grid(0.5, n)
            values.append(characteristic(measure, weight, A, 2.0).value)
        assert all(v < target for v in values)
        assert values[0] < values[1] < values[2]
        assert values[-1] == pytest.approx(target, rel=5e-3)

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        Q=st.floats(1.001, 100.0),
        kind=st.sampled_from([A, RH]),
        side=st.sampled_from([Branch.PLUS, Branch.MINUS]),
    )
    def test_extremal_consistency(self, p, Q, kind, side):
        # The identity analytic(-s) * implicit(s) == 1 holds pointwise, so
        # the only error source is the quantization of alpha; allow the
        # sensitivity-scaled quantum on top of the 1e-9 target (it matters
        # only when 1 + alpha*c is within a few ulp of zero).
        pp = PParam(p)
        alpha = extremal_alpha(kind, pp, Q, side)
        c2 = pp.p1 if kind is A else p
        denom = 1.0 + alpha * c2
        try:
            value = analytic_power_characteristic(kind, pp, alpha)
        except PreconditionError:
            # alpha quantized exactly onto the integrability endpoint
            assert denom <= 4.0 * math.ulp(1.0)
            return
        quantum = 64.0 * math.ulp(1.0) * (1.0 / (1.0 + alpha) + abs(c2) / max(denom, 1e-300))
        assert value == pytest.approx(Q, rel=max(1e-9, quantum))


class TestAdmissibleRanges:
    def test_muckenhoupt_p2_q2(self):
        (lo1, hi1, _, _), (lo2, hi2, _, _) = admissible_r_ranges(A, P2, 2.0)
        assert lo1 == pytest.approx(-math.sqrt(2.0), abs=1e-9)
        assert hi1 == -1.0
        assert lo2 == 1.0
        assert hi2 == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_membership(self):
        assert r_is_admissible(A, P2, 2.0, 1.0)
        assert r_is_admissible(A, P2, 2.0, 1.3)
        assert not r_is_admissible(A, P2, 2.0, 1.45)
        assert not r_is_admissible(A, P2, 2.0, 0.5)
        assert r_is_admissible(A, P2, 2.0, -1.1)
        assert r_is_admissible(RH, P2, 1.5, 1.0)
        assert r_is_admissible(RH, P2, 1.5, 2.0)
        assert not r_is_admissible(RH, P2, 1.5, 1.9)
