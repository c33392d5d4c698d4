import math

import pytest

from ottolab import cubic, fridge
from ottolab.cycle import Device, Regime, ReducedParams, feasible_interval, high_t_fridge_quantities
from ottolab.errors import DomainError, InfeasibleDeviceError
from ottolab.verification import fridge_reports as oracle_reports
from paper_forms import paper_cubic

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
ADI = Regime.ADIABATIC
SS = Regime.SUDDEN_SWITCH

ZETA_SAMPLE_SC = (0.5, 1.0, 3.0)
ZETA_SAMPLE_SE = (2.0, 3.0, 9.0)


class TestCopHt:
    """The high-temperature COP at a ratio z, as ``point_at`` gives it."""

    def test_vanishes_at_cooling_boundary(self):
        assert fridge.point_at(SC, 0.5, 0.5).zeta == 0.0

    def test_sc_spot_value(self):
        assert fridge.point_at(SC, 0.394931, 0.5).zeta == pytest.approx(
            0.14050447191494322, abs=1e-14
        )

    def test_se_spot_value(self):
        assert fridge.point_at(SE, 0.594513, 0.75).zeta == pytest.approx(
            0.3892345655385391, abs=1e-14
        )

    def test_positive_inside_window(self):
        window = feasible_interval(Device.FRIDGE, SC, 0.5)
        for i in range(1, 10):
            z = window.lo + i * (window.hi - window.lo) / 10.0
            assert fridge.point_at(SC, z, 0.5).zeta > 0.0

    def test_outside_window_names_the_condition(self):
        with pytest.raises(DomainError, match="cooling condition"):
            fridge.point_at(SC, 0.6, 0.5)

    def test_se_below_half_tau_is_infeasible_device(self):
        with pytest.raises(InfeasibleDeviceError):
            fridge.point_at(SE, 0.3, 0.5)


class TestZStarMaxCop:
    def test_sc_spot_value(self):
        assert fridge.z_star_max_cop(SC, 1.0).value == pytest.approx(
            0.39493084363469777, abs=1e-12
        )

    def test_se_spot_value(self):
        assert fridge.z_star_max_cop(SE, 3.0).value == pytest.approx(
            0.5945189396413075, abs=1e-12
        )

    def test_se_at_unit_carnot_cop_is_infeasible(self):
        with pytest.raises(InfeasibleDeviceError):
            fridge.z_star_max_cop(SE, 1.0)

    def test_matches_oracle(self):
        for regime, grid in ((SC, ZETA_SAMPLE_SC), (SE, ZETA_SAMPLE_SE)):
            for zeta_c in grid:
                _, r_cop, _ = oracle_reports(regime, zeta_c)
                assert fridge.z_star_max_cop(regime, zeta_c).value == pytest.approx(
                    r_cop.x_star, abs=1e-6
                )

    def test_sine_term_equals_offset_cosine(self):
        for zeta_c in ZETA_SAMPLE_SC:
            traced = fridge.z_star_max_cop(SC, zeta_c)
            angle = math.acos(traced.trace["arccos_arg"]) / 3.0
            assert -traced.trace["cos_term"] == pytest.approx(
                math.sin(math.pi / 6.0 - angle), abs=1e-15
            )


class TestCopMax:
    def test_spot_values(self):
        assert fridge.cop_max(SC, 1.0).value == pytest.approx(
            0.14050447191508492, abs=1e-12
        )
        assert fridge.cop_max(SC, 3.0).value == pytest.approx(
            0.6169649899031355, abs=1e-12
        )
        assert fridge.cop_max(SE, 3.0).value == pytest.approx(
            0.38923456592905, abs=1e-12
        )

    def test_consistent_with_cop_ht_at_z_star(self):
        for regime, grid in ((SC, ZETA_SAMPLE_SC), (SE, ZETA_SAMPLE_SE)):
            for zeta_c in grid:
                tau = zeta_c / (1.0 + zeta_c)
                z_star = fridge.z_star_max_cop(regime, zeta_c).value
                assert fridge.cop_max(regime, zeta_c).value == pytest.approx(
                    fridge.point_at(regime, z_star, tau).zeta, abs=1e-9
                )

    def test_matches_oracle(self):
        for regime, grid in ((SC, ZETA_SAMPLE_SC), (SE, ZETA_SAMPLE_SE)):
            for zeta_c in grid:
                _, r_cop, _ = oracle_reports(regime, zeta_c)
                assert fridge.cop_max(regime, zeta_c).value == pytest.approx(
                    r_cop.f_star, abs=1e-8
                )


class TestOmegaObjective:
    def test_stationary_at_the_closed_form_optimizer(self):
        h = 1e-6
        for regime, zeta_c in ((SC, 1.0), (SE, 3.0)):
            tau = zeta_c / (1.0 + zeta_c)
            z_opt = fridge.cop_at_max_omega(regime, zeta_c).trace["z_opt"]
            slope = (
                fridge.omega_objective(regime, z_opt + h, tau)
                - fridge.omega_objective(regime, z_opt - h, tau)
            ) / (2.0 * h)
            assert abs(slope) <= 1e-6

    def test_negative_at_zero_cooling(self):
        # at z = tau the load vanishes and Omega = -zeta_max * w_in < 0
        value = fridge.omega_objective(SC, 0.5, 0.5)
        _, w_in = high_t_fridge_quantities(SC, ReducedParams(0.5, 0.5))
        assert value == pytest.approx(-fridge.cop_max(SC, 1.0).value * w_in, abs=1e-15)
        assert value < 0.0


class TestCopAtMaxOmega:
    def test_spot_values(self):
        assert fridge.cop_at_max_omega(SC, 1.0).value == pytest.approx(
            0.11917311363526321, abs=1e-12
        )
        assert fridge.cop_at_max_omega(SE, 3.0).value == pytest.approx(
            0.32995402246679506, abs=1e-12
        )
        assert fridge.cop_at_max_omega(ADI, 1.0).value == pytest.approx(
            1.0 / (math.sqrt(6.0) - 1.0), abs=1e-12
        )
        traced = fridge.cop_at_max_omega(SS, 3.0)
        assert traced.value == pytest.approx(0.17331097769526982, abs=1e-12)
        assert traced.trace["z_opt"] ** 2 == pytest.approx(
            0.2623238116376457, abs=1e-12
        )

    def test_optimizer_trace_values(self):
        assert fridge.cop_at_max_omega(SC, 1.0).trace["z_opt"] == pytest.approx(
            0.3201705169965133, abs=1e-12
        )
        assert fridge.cop_at_max_omega(SE, 3.0).trace["z_opt"] == pytest.approx(
            0.49621660338268747, abs=1e-12
        )

    def test_matches_oracle(self):
        for regime, grid in ((SC, ZETA_SAMPLE_SC), (SE, ZETA_SAMPLE_SE)):
            for zeta_c in grid:
                cop, _, r_omega = oracle_reports(regime, zeta_c)
                traced = fridge.cop_at_max_omega(regime, zeta_c)
                assert traced.value == pytest.approx(cop(r_omega.x_star), abs=1e-6)
                assert traced.trace["z_opt"] == pytest.approx(r_omega.x_star, abs=1e-6)

    @pytest.mark.parametrize("regime", (SE, SS))
    def test_sudden_cooling_needs_zeta_above_one(self, regime):
        with pytest.raises(InfeasibleDeviceError):
            fridge.cop_at_max_omega(regime, 1.0)

    def test_nonpositive_zeta_rejected(self):
        with pytest.raises(DomainError):
            fridge.cop_at_max_omega(SC, 0.0)


class TestZetaGuard:
    @pytest.mark.parametrize("zeta_c", (math.nan, math.inf, 1e16, 1e17, 1e155, 1e300))
    @pytest.mark.parametrize("regime", (SC, SE, ADI, SS), ids=("sc", "se", "adi", "ss"))
    def test_non_finite_or_unit_tau_rejected(self, regime, zeta_c):
        with pytest.raises(DomainError):
            fridge.cop_at_max_omega(regime, zeta_c)
        if regime in (SC, SE):
            with pytest.raises(DomainError):
                fridge.cop_max(regime, zeta_c)
            with pytest.raises(DomainError):
                fridge.z_star_max_cop(regime, zeta_c)

    @pytest.mark.parametrize("regime", (SC, SE, ADI, SS), ids=("sc", "se", "adi", "ss"))
    def test_finite_just_below_the_guard(self, regime):
        # tau = zeta_c/(1 + zeta_c) still rounds below 1 here
        traced = fridge.cop_at_max_omega(regime, 9e15)
        assert math.isfinite(traced.value)
        assert all(math.isfinite(v) for v in traced.trace.values())


class TestOrderings:
    def test_regime_ordering_on_common_grid(self):
        for zeta_c in (2.0, 3.0, 5.0, 9.0):
            adi = fridge.cop_at_max_omega(ADI, zeta_c).value
            sc = fridge.cop_at_max_omega(SC, zeta_c).value
            se = fridge.cop_at_max_omega(SE, zeta_c).value
            ss = fridge.cop_at_max_omega(SS, zeta_c).value
            assert adi > sc > se > ss > 0.0

    def test_bound_chains(self):
        for zeta_c in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0):
            omega_cop = fridge.cop_at_max_omega(SC, zeta_c).value
            peak = fridge.cop_max(SC, zeta_c).value
            assert omega_cop < peak < zeta_c
            if zeta_c > 1.0:
                omega_cop = fridge.cop_at_max_omega(SE, zeta_c).value
                peak = fridge.cop_max(SE, zeta_c).value
                assert omega_cop < peak < zeta_c

    def test_sc_curve_increases_with_carnot_cop(self):
        values = [
            fridge.cop_at_max_omega(SC, z).value
            for z in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def _root(m, branch):
    """The root of one cubic: ``cubic.branch_roots`` on a column of one."""
    return cubic.branch_roots([m.b], [m.c], [m.d], branch)[0][0]


class TestBranchSelection:
    def test_k2_root_is_the_cooling_one(self):
        for zeta_c in (0.5, 1.0, 3.0, 9.0):
            tau = zeta_c / (1.0 + zeta_c)
            window = feasible_interval(Device.FRIDGE, SC, tau)
            m = paper_cubic(SC, tau)
            assert window.contains(_root(m, 2))
            assert not window.contains(_root(m, 0))
            assert _root(m, 2) == pytest.approx(
                fridge.z_star_max_cop(SC, zeta_c).value, abs=1e-10
            )

    def test_se_branch_roles(self):
        for zeta_c in ZETA_SAMPLE_SE:
            tau = zeta_c / (1.0 + zeta_c)
            window = feasible_interval(Device.FRIDGE, SE, tau)
            m = paper_cubic(SE, tau)
            assert window.contains(_root(m, 2))
            assert not window.contains(_root(m, 0))
            assert _root(m, 2) == pytest.approx(
                fridge.z_star_max_cop(SE, zeta_c).value, abs=1e-10
            )


class TestPointAt:
    def test_fields_are_consistent(self):
        point = fridge.point_at(SC, 0.3, 0.5)
        assert point.zeta == pytest.approx(point.q_c / point.w_in, abs=1e-14)
        assert point.omega_value == pytest.approx(
            fridge.omega_objective(SC, 0.3, 0.5), abs=1e-15
        )

    def test_cooling_boundary_included(self):
        point = fridge.point_at(SC, 0.5, 0.5)
        assert point.q_c == 0.0
        assert point.zeta == 0.0


class TestOracleHarness:
    """The oracle harness takes tau through the fridge's own rule, so it
    raises what ``cop_at_max_omega`` raises, with the same message."""

    @pytest.mark.parametrize("regime, zeta_c, error", (
        (SE, 0.5, InfeasibleDeviceError),  # empty cooling window
        (SC, -1.0, DomainError),  # the pole of tau = zeta_c/(1 + zeta_c)
        (SC, 1e-300, DomainError),  # below the floor EDGE
    ))
    def test_rejects_what_cop_at_max_omega_rejects(self, regime, zeta_c, error):
        with pytest.raises(error) as harness:
            oracle_reports(regime, zeta_c)
        with pytest.raises(error) as closed_form:
            fridge.cop_at_max_omega(regime, zeta_c)
        assert type(harness.value) is type(closed_form.value)
        assert str(harness.value) == str(closed_form.value)
