import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottolab import engine, fridge
from ottolab.cycle import SUDDEN_EXPANSION_REGIMES, Regime, stationarity_cubic
from ottolab.errors import DomainError
from ottolab.verification import ETA_GRID, fridge_reports
from ottolab.verification import engine_reports as oracle_reports

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION
ADI = Regime.ADIABATIC
SS = Regime.SUDDEN_SWITCH

ETA_SAMPLE = (0.2, 0.5, 0.8)

#: each device's sc/se z*, peak and Omega optimum at its coordinate (the
#: engine's peak entries at tau = 1 - eta_c), and the peak's trace name
CHAINS = {
    "engine": (
        lambda regime, eta_c: engine.z_star_max_eta(regime, 1.0 - eta_c),
        lambda regime, eta_c: engine.eta_max(regime, 1.0 - eta_c),
        engine.eta_at_max_omega,
        "eta_max",
    ),
    "fridge": (fridge.z_star_max_cop, fridge.cop_max, fridge.cop_at_max_omega, "cop_max"),
}


def coordinates(device, regime):
    """Admitted coordinates of a device's entries: eta_c in
    [EDGE, 1 - EDGE], or zeta_c log-spaced over [EDGE, 8.9e15], shifted up
    by 1 for se and ss, whose cooling window needs zeta_c > 1."""
    if device == "engine":
        edges = (engine.EDGE, 1.0 - engine.EDGE)
        return st.one_of(st.sampled_from((*edges, *ETA_GRID)), st.floats(*edges))
    shift = 1.0 if regime in SUDDEN_EXPANSION_REGIMES else 0.0
    return st.floats(-6.0, 15.95).map(lambda e: shift + 10.0**e)


class TestEtaHt:
    """The high-temperature efficiency at a ratio z, as ``point_at`` gives it."""

    def test_vanishes_at_unit_ratio(self):
        assert engine.point_at(SC, 1.0, 0.5).eta == 0.0

    def test_sc_spot_value(self):
        assert engine.point_at(SC, 0.742227, 0.5).eta == pytest.approx(
            0.1822122687292783, abs=1e-14
        )

    def test_se_spot_value(self):
        assert engine.point_at(SE, 0.75, 0.5).eta == pytest.approx(0.15625, abs=1e-15)

    def test_infeasible_ratio_names_the_condition(self):
        with pytest.raises(DomainError, match="positive work"):
            engine.point_at(SC, 0.5, 0.5)

    def test_symmetric_regimes_rejected(self):
        with pytest.raises(DomainError):
            engine.point_at(ADI, 0.8, 0.5)


class TestZStarMaxEta:
    def test_sc_unit_tau_degenerates_to_one(self):
        # tau = 1 is outside the one engine rule, tau in [EDGE, 1 - EDGE]; the
        # double root z = 1 of the unit cubic is covered in tests/test_cubic.py
        with pytest.raises(DomainError):
            engine.z_star_max_eta(SC, 1.0)

    def test_sc_value_and_trace(self):
        traced = engine.z_star_max_eta(SC, 0.5)
        assert traced.value == pytest.approx(0.7422271989685592, abs=1e-12)
        assert traced.trace["arccos_arg"] == pytest.approx(-math.sqrt(0.75), abs=1e-15)
        assert traced.trace["cos_term"] == pytest.approx(
            math.cos(math.acos(-math.sqrt(0.75)) / 3.0)
        )

    def test_se_closed_form_hits_arccos_of_one(self):
        traced = engine.z_star_max_eta(SE, 0.5)
        assert traced.value == pytest.approx(0.75, abs=1e-12)
        assert traced.trace["arccos_arg"] == pytest.approx(1.0, abs=1e-15)


class TestEtaMax:
    def test_sc_spot_value(self):
        assert engine.eta_max(SC, 0.5).value == pytest.approx(
            0.18221226872954835, abs=1e-12
        )

    def test_se_spot_value(self):
        assert engine.eta_max(SE, 0.5).value == pytest.approx(0.15625, abs=1e-12)

    def test_vanishes_with_the_carnot_gap(self):
        assert 0.0 < engine.eta_max(SC, 1.0 - 1e-6).value < 1e-5

    @pytest.mark.parametrize("regime", (SC, SE))
    def test_consistent_with_eta_ht_at_z_star(self, regime):
        for eta_c in ETA_SAMPLE:
            tau = 1.0 - eta_c
            z_star = engine.z_star_max_eta(regime, tau).value
            assert engine.eta_max(regime, tau).value == pytest.approx(
                engine.point_at(regime, z_star, tau).eta, abs=1e-10
            )


class TestOmegaObjective:
    def test_sc_spot_values_and_shape(self):
        assert engine.omega_objective(SC, 0.769, 0.5) == pytest.approx(
            0.0568644653540836, abs=1e-12
        )
        assert engine.omega_objective(SC, 0.75, 0.5) == pytest.approx(
            0.055435140110415775, abs=1e-12
        )
        assert engine.omega_objective(SC, 0.769, 0.5) > engine.omega_objective(SC, 0.75, 0.5)

    def test_se_spot_value(self):
        assert engine.omega_objective(SE, 0.7725, 0.5) == pytest.approx(
            0.053628054207119726, abs=1e-12
        )

    def test_infeasible_ratio_rejected(self):
        with pytest.raises(DomainError):
            engine.omega_objective(SC, 0.3, 0.5)


class TestEtaAtMaxOmega:
    def test_spot_values(self):
        assert engine.eta_at_max_omega(SC, 0.5).value == pytest.approx(
            0.17804058948110163, abs=1e-12
        )
        assert engine.eta_at_max_omega(SE, 0.5).value == pytest.approx(
            0.15414480057520694, abs=1e-12
        )
        assert engine.eta_at_max_omega(ADI, 0.5).value == pytest.approx(
            1.0 - math.sqrt(0.375), abs=1e-12
        )
        assert engine.eta_at_max_omega(SS, 0.5).value == pytest.approx(
            0.11031798602136554, abs=1e-12
        )

    def test_trace_carries_named_intermediates(self):
        for regime in (SC, SE):
            assert set(engine.eta_at_max_omega(regime, 0.5).trace) == {
                "arccos_arg", "cos_term", "z_at_max", "eta_max", "z_opt",
            }
        for regime in (ADI, SS):
            assert set(engine.eta_at_max_omega(regime, 0.5).trace) == {"z_opt"}

    @pytest.mark.parametrize("regime", (SC, SE))
    @settings(deadline=None)
    @given(device=st.sampled_from(tuple(CHAINS)), data=st.data())
    def test_trace_eta_max_is_the_public_eta_max(self, regime, device, data):
        """The three sc/se traces of either device nest, bit for bit: the
        items of z*'s trace begin the peak's, which begin the Omega
        optimum's; the peak's ``z_at_max`` is z*, and the optimum's
        ``eta_max``/``cop_max`` is the peak."""
        *entries, name = CHAINS[device]
        x = data.draw(coordinates(device, regime), label="coordinate")
        z_star, peak, optimum = (entry(regime, x) for entry in entries)
        root, at_max = list(z_star.trace.items()), list(peak.trace.items())
        assert at_max[:len(root)] == root
        assert list(optimum.trace.items())[:len(at_max)] == at_max
        assert peak.trace["z_at_max"] == z_star.value
        assert optimum.trace[name] == peak.value

    @pytest.mark.parametrize("regime", (SC, SE))
    @settings(deadline=None)
    @given(device=st.sampled_from(tuple(CHAINS)), data=st.data())
    def test_trace_rebuilds_the_root(self, regime, device, data):
        """One trace shape for both devices' sc/se optima: z* is traced by
        the arccos argument and the cosine term of its root, and they
        rebuild z* bit for bit, evaluated as ``cubic.branch_roots`` does.
        The cosine term is cos(acos(arg)/3 + 2 pi k/3) on the device's
        branch k, or cosh(acosh(arg)/3) where arg > 1."""
        z_star_entry, _, omega_entry, name = CHAINS[device]
        x = data.draw(coordinates(device, regime), label="coordinate")
        tau, branch = (1.0 - x, 0) if device == "engine" else (x / (1.0 + x), 2)
        z_star = z_star_entry(regime, x)
        assert list(z_star.trace) == ["arccos_arg", "cos_term"]
        arg, cos_term = z_star.trace.values()
        if arg > 1.0:
            assert cos_term == math.cosh(math.acosh(arg) / 3.0)
        else:
            assert cos_term == math.cos(math.acos(arg) / 3.0 + 2.0 * math.pi * branch / 3.0)
        (b,), (c,), _ = stationarity_cubic(regime, [tau])
        assert -b / 3.0 + (2.0 / 3.0) * math.sqrt(b * b - 3.0 * c) * cos_term == z_star.value
        assert list(omega_entry(regime, x).trace) == [
            "arccos_arg", "cos_term", "z_at_max", name, "z_opt",
        ]

    @pytest.mark.parametrize("regime", (ADI, SS))
    @settings(deadline=None)
    @given(device=st.sampled_from(tuple(CHAINS)), data=st.data())
    def test_symmetric_trace_is_z_opt_alone(self, regime, device, data):
        """Both devices' adi/ss optima are traced by z_opt alone."""
        x = data.draw(coordinates(device, regime), label="coordinate")
        assert list(CHAINS[device][2](regime, x).trace) == ["z_opt"]

    @pytest.mark.parametrize("eta_c", (0.0, 1.0, -0.2, 1.3, 1e-7))
    def test_degenerate_carnot_efficiency_rejected(self, eta_c):
        with pytest.raises(DomainError):
            engine.eta_at_max_omega(SC, eta_c)


class TestEtaMaxWork:
    def test_spot_values(self):
        assert engine.eta_max_work(SC, 0.5) == pytest.approx(
            0.16833995553141792, abs=1e-12
        )
        assert engine.eta_max_work(SE, 0.5) == pytest.approx(
            0.14879280804034192, abs=1e-12
        )

    def test_limits_near_unit_carnot_efficiency(self):
        # compression-side value climbs toward 1, expansion-side saturates at 1/2
        assert engine.eta_max_work(SC, 1.0 - 1e-6) > 0.98
        assert engine.eta_max_work(SE, 1.0 - 1e-6) == pytest.approx(0.5, abs=1e-2)


class TestFractionalLoss:
    def test_reversible_limit(self):
        assert engine.fractional_loss(0.5, 0.5) == 0.0

    def test_half_carnot_doubles(self):
        assert engine.fractional_loss(0.25, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_max_work_closed_forms(self):
        assert engine.fractional_loss_max_work(SC, 0.5) == pytest.approx(
            1.9701801834365036, abs=1e-12
        )
        assert engine.fractional_loss_max_work(SE, 0.5) == pytest.approx(
            2.3603774710968284, abs=1e-12
        )
        for regime in (SC, SE):
            for eta_c in ETA_SAMPLE:
                composed = engine.fractional_loss(
                    engine.eta_max_work(regime, eta_c), eta_c
                )
                assert engine.fractional_loss_max_work(regime, eta_c) == pytest.approx(
                    composed, abs=1e-10
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            engine.fractional_loss(0.0, 0.5)
        with pytest.raises(DomainError):
            engine.fractional_loss(0.6, 0.5)
        # just above the Carnot bound the loss would come out negative
        for eta_c in (engine.EDGE, 0.3, 0.5, 1.0 - engine.EDGE):
            with pytest.raises(DomainError):
                engine.fractional_loss(math.nextafter(eta_c, 1.0), eta_c)
        with pytest.raises(DomainError):
            engine.fractional_loss(0.5 + 1e-12, 0.5)


class TestOrderings:
    def test_regime_and_bound_chains(self):
        grid = [0.05 * i for i in range(1, 20)]
        for eta_c in grid:
            adi = engine.eta_at_max_omega(ADI, eta_c).value
            sc = engine.eta_at_max_omega(SC, eta_c).value
            se = engine.eta_at_max_omega(SE, eta_c).value
            ss = engine.eta_at_max_omega(SS, eta_c).value
            assert adi > sc > se > ss > 0.0
            for regime, omega_eta in ((SC, sc), (SE, se)):
                mw = engine.eta_max_work(regime, eta_c)
                peak = engine.eta_max(regime, 1.0 - eta_c).value
                assert mw < omega_eta < peak < eta_c

    def test_expansion_side_loses_more_work(self):
        for eta_c in (0.1, 0.5, 0.9):
            sc = engine.eta_at_max_omega(SC, eta_c).value
            se = engine.eta_at_max_omega(SE, eta_c).value
            assert engine.fractional_loss(se, eta_c) > engine.fractional_loss(sc, eta_c)
            assert engine.fractional_loss_max_work(SE, eta_c) > engine.fractional_loss_max_work(SC, eta_c)


class TestPointAt:
    def test_unit_ratio_boundary_included(self):
        point = engine.point_at(SC, 1.0, 0.5)
        assert point.eta == 0.0
        assert point.w == 0.0
        assert point.q_h > 0.0

    def test_fields_are_consistent(self):
        point = engine.point_at(SC, 0.769, 0.5)
        assert point.eta == pytest.approx(point.w / point.q_h, abs=1e-15)
        assert point.omega_value == pytest.approx(
            engine.omega_objective(SC, 0.769, 0.5), abs=1e-15
        )


class TestOracleHarness:
    """Each device's oracle harness takes its coordinate through the
    device's own rule, so it raises what the device's Omega optimum
    (``eta_at_max_omega`` or ``cop_at_max_omega``) raises: the same
    ``DomainError`` subclass with the same message."""

    @pytest.mark.parametrize("device, regime, x", (
        pytest.param("engine", ADI, 1e-12, id="adi-1e-12"),  # once a ZeroDivisionError
        pytest.param("engine", SC, 1e-12, id="sc-1e-12"),  # eta_c below EDGE once gave an oracle
        pytest.param("engine", SE, 1.0 - 1e-9, id="se-0.999999999"),  # and so did tau below EDGE
        ("fridge", SC, 1e-7),  # below the floor EDGE
        ("fridge", SE, 1.0),  # an empty cooling window
        ("fridge", SS, 0.5),
        ("fridge", ADI, 1e16),  # tau rounds to 1
        ("fridge", SC, math.nan),
    ))
    def test_rejects_what_eta_at_max_omega_rejects(self, device, regime, x):
        harness, optimum = {
            "engine": (oracle_reports, engine.eta_at_max_omega),
            "fridge": (fridge_reports, fridge.cop_at_max_omega),
        }[device]
        with pytest.raises(DomainError) as from_harness:
            harness(regime, x)
        with pytest.raises(DomainError) as from_optimum:
            optimum(regime, x)
        assert type(from_harness.value) is type(from_optimum.value)
        assert str(from_harness.value) == str(from_optimum.value)
