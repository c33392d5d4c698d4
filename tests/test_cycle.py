import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ottolab import cli, engine, fridge
from ottolab.cycle import (
    CycleConfig,
    Device,
    Regime,
    ReducedParams,
    StrokeProtocol,
    adiabaticity,
    energy_ledger,
    feasible_interval,
    high_t_engine_quantities,
    high_t_fridge_quantities,
    stationarity_cubic,
)
from ottolab.errors import DomainError

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION


class TestAdiabaticity:
    def test_adiabatic_is_unity(self):
        assert adiabaticity(StrokeProtocol.ADIABATIC, 1.0, 2.0) == 1.0

    def test_sudden_equal_frequencies_is_unity(self):
        assert adiabaticity(StrokeProtocol.SUDDEN_SWITCH, 1.0, 1.0) == 1.0

    def test_sudden_hand_value(self):
        # (1 + 4) / (2 * 1 * 2)
        assert adiabaticity(StrokeProtocol.SUDDEN_SWITCH, 1.0, 2.0) == pytest.approx(1.25)

    @pytest.mark.parametrize("omega_c,omega_h", [(0.0, 1.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_frequency_rejected(self, omega_c, omega_h):
        with pytest.raises(DomainError):
            adiabaticity(StrokeProtocol.SUDDEN_SWITCH, omega_c, omega_h)

    def test_inverted_frequencies_rejected(self):
        with pytest.raises(DomainError):
            adiabaticity(StrokeProtocol.ADIABATIC, 2.0, 1.0)

    @pytest.mark.parametrize("protocol", tuple(StrokeProtocol), ids=lambda p: p.value)
    @pytest.mark.parametrize("omega_c,omega_h", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf),
    ])
    def test_non_finite_frequency_rejected(self, protocol, omega_c, omega_h):
        with pytest.raises(DomainError, match="frequencies must be finite"):
            adiabaticity(protocol, omega_c, omega_h)

    def test_quench_factor_at_the_float_extremes(self):
        # the squares and the product underflow to 0/0, lambda itself is 1
        assert adiabaticity(StrokeProtocol.SUDDEN_SWITCH, 1e-162, 1e-162) == 1.0
        with pytest.raises(DomainError, match="quench factor overflows"):
            adiabaticity(StrokeProtocol.SUDDEN_SWITCH, 1e-200, 1e200)

    def test_sudden_lambda_grows_away_from_unity(self):
        ratios = [1.0 - 0.02 * i for i in range(1, 48)]
        lams = [adiabaticity(StrokeProtocol.SUDDEN_SWITCH, z, 1.0) for z in ratios]
        assert all(lam > 1.0 for lam in lams)
        assert all(b > a for a, b in zip(lams, lams[1:]))


class TestEnergyLedger:
    def test_degenerate_cycle_exchanges_no_work(self):
        config = CycleConfig(beta_c=2.0, beta_h=1.0, omega_c=1.0, omega_h=1.0)
        ledger = energy_ledger(config)
        assert ledger.q_h == -ledger.q_c
        assert ledger.w_net == 0.0

    def test_equal_bath_temperatures_rejected(self):
        with pytest.raises(DomainError):
            CycleConfig(beta_c=1.0, beta_h=1.0, omega_c=0.5, omega_h=1.0)

    def test_inverted_frequencies_rejected(self):
        with pytest.raises(DomainError):
            CycleConfig(beta_c=2.0, beta_h=1.0, omega_c=2.0, omega_h=1.0)

    def test_first_law_and_positive_energies(self):
        rng = random.Random(1234)
        protocols = (StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN_SWITCH)
        for _ in range(300):
            beta_h = 10.0 ** rng.uniform(-1.0, 1.0)
            omega_h = 10.0 ** rng.uniform(-2.0, 1.0)
            config = CycleConfig(
                beta_c=beta_h * rng.uniform(1.01, 30.0),
                beta_h=beta_h,
                omega_c=omega_h * rng.uniform(0.02, 1.0),
                omega_h=omega_h,
                protocol_compression=rng.choice(protocols),
                protocol_expansion=rng.choice(protocols),
            )
            ledger = energy_ledger(config)
            assert min(ledger.h_a, ledger.h_b, ledger.h_c, ledger.h_d) > 0.0
            assert ledger.w_net == pytest.approx(ledger.q_h + ledger.q_c, abs=0.0)

    def test_moderate_temperature_ledger_close_to_high_t(self):
        # beta_c * omega_c = 0.5 is already within 1% of the 1/x limit
        config = CycleConfig(
            beta_c=10.0,
            beta_h=1.0,
            omega_c=0.05,
            omega_h=0.1,
            protocol_compression=StrokeProtocol.SUDDEN_SWITCH,
            protocol_expansion=StrokeProtocol.ADIABATIC,
        )
        ledger = energy_ledger(config)
        q_h, w = high_t_engine_quantities(SC, ReducedParams(0.5, 0.1))
        assert ledger.q_h == pytest.approx(q_h, rel=1e-2)
        assert ledger.w_net == pytest.approx(w, rel=1e-2)

    @pytest.mark.parametrize(
        "scale,rel_tol", [(0.01, 1e-2), (0.001, 1e-4)]
    )
    def test_high_t_agreement_tightens(self, scale, rel_tol):
        for regime, z, tau in ((SC, 0.769, 0.5), (SE, 0.75, 0.5), (SC, 0.5, 0.5)):
            if regime is SC:
                comp, expa = StrokeProtocol.SUDDEN_SWITCH, StrokeProtocol.ADIABATIC
            else:
                comp, expa = StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN_SWITCH
            config = CycleConfig(
                beta_c=1.0 / tau,
                beta_h=1.0,
                omega_c=z * scale,
                omega_h=scale,
                protocol_compression=comp,
                protocol_expansion=expa,
            )
            ledger = energy_ledger(config)
            q_h, w = high_t_engine_quantities(regime, ReducedParams(z, tau))
            assert ledger.q_h == pytest.approx(q_h, rel=rel_tol)
            assert ledger.w_net == pytest.approx(w, rel=rel_tol)


class TestHighTQuantities:
    def test_sc_work_vanishes_at_unit_ratio(self):
        _, w = high_t_engine_quantities(SC, ReducedParams(1.0, 0.5))
        assert w == 0.0

    def test_sc_values(self):
        q_h, w = high_t_engine_quantities(SC, ReducedParams(0.769, 0.5))
        assert q_h == pytest.approx(0.32724638587935284, abs=1e-15)
        assert w == pytest.approx(0.05824638587935286, abs=1e-15)

    def test_se_values(self):
        q_h, w = high_t_engine_quantities(SE, ReducedParams(0.75, 0.5))
        assert q_h == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert w == pytest.approx(5.0 / 96.0, abs=1e-15)

    def test_fridge_sc_cooling_boundary(self):
        q_c, _ = high_t_fridge_quantities(SC, ReducedParams(0.5, 0.5))
        assert q_c == 0.0

    def test_fridge_sc_values(self):
        q_c, w_in = high_t_fridge_quantities(SC, ReducedParams(0.3949, 0.5))
        assert q_c == pytest.approx(0.1051, abs=1e-12)
        assert w_in > 0.0

    def test_fridge_se_boundary(self):
        # z^2 = 2 tau - 1 zeroes the cooling load
        q_c, _ = high_t_fridge_quantities(SE, ReducedParams(0.7071, 0.75))
        assert q_c == pytest.approx(0.0, abs=1e-5)

    def test_zero_ratio_is_rejected(self):
        with pytest.raises(DomainError):
            ReducedParams(0.0, 0.5)

    @settings(max_examples=500, deadline=None)
    @given(
        regime=st.sampled_from(Regime),
        z=st.floats(5e-324, 1.0),
        tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    # 1/z^2 divides by zero (sc, ss), overflows (sc), and tau/z overflows (se, adi)
    @example(regime=SC, z=1e-170, tau=0.5)
    @example(regime=Regime.SUDDEN_SWITCH, z=1e-170, tau=0.5)
    @example(regime=SC, z=1e-160, tau=0.5)
    @example(regime=SE, z=5e-324, tau=0.5)
    @example(regime=Regime.ADIABATIC, z=5e-324, tau=0.5)
    def test_pairs_are_finite_or_domain_error(self, regime, z, tau):
        p = ReducedParams(z, tau)
        for quantities in (high_t_engine_quantities, high_t_fridge_quantities):
            try:
                pair = quantities(regime, p)
            except DomainError:
                continue
            assert all(math.isfinite(v) for v in pair), (quantities.__name__, pair)

    @pytest.mark.parametrize("regime", tuple(Regime))
    @given(z=st.floats(1e-6, 1.0), tau=st.floats(1e-6, 1.0 - 1e-6))
    def test_fridge_pair_obeys_the_first_law(self, regime, z, tau):
        """w_in = -(q_h + q_c), with q_h from the engine pair and q_c from
        the fridge pair, up to rounding of terms of order 1 + tau/z^2."""
        p = ReducedParams(z, tau)
        q_h, _ = high_t_engine_quantities(regime, p)
        q_c, w_in = high_t_fridge_quantities(regime, p)
        assert abs(w_in + q_h + q_c) <= 1e-14 * (1.0 + tau / (z * z))


class TestFeasibleInterval:
    def test_engine_sc(self):
        window = feasible_interval(Device.ENGINE, SC, 0.5)
        assert window.lo == pytest.approx(0.6403882032022076, abs=1e-12)
        assert window.hi == 1.0

    def test_engine_se(self):
        window = feasible_interval(Device.ENGINE, SE, 0.5)
        assert window.lo == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_fridge_sc(self):
        window = feasible_interval(Device.FRIDGE, SC, 0.75)
        assert (window.lo, window.hi) == (0.0, 0.75)

    def test_fridge_se_empty_at_half(self):
        assert feasible_interval(Device.FRIDGE, SE, 0.5).empty

    def test_fridge_se_above_half(self):
        window = feasible_interval(Device.FRIDGE, SE, 0.75)
        assert window.hi == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_soundness_of_positivity_conditions(self):
        rng = random.Random(987)
        combos = [
            (Device.ENGINE, SC),
            (Device.ENGINE, SE),
            (Device.FRIDGE, SC),
            (Device.FRIDGE, SE),
        ]
        for _ in range(250):
            device, regime = rng.choice(combos)
            tau = rng.uniform(0.05, 0.95)
            window = feasible_interval(device, regime, tau)
            quantities = (
                high_t_engine_quantities
                if device is Device.ENGINE
                else high_t_fridge_quantities
            )
            if not window.empty:
                width = window.hi - window.lo
                z = rng.uniform(window.lo + 1e-6 * width, window.hi - 1e-6 * width)
                a, b = quantities(regime, ReducedParams(z, tau))
                assert a > 0.0 and b > 0.0
            z = rng.uniform(1e-6, 1.0)
            if not window.contains(z, slack=1e-6):
                a, b = quantities(regime, ReducedParams(z, tau))
                assert a <= 0.0 or b <= 0.0

    def test_symmetric_windows_bound_positive_quantities(self):
        rng = random.Random(654)
        for device in (Device.ENGINE, Device.FRIDGE):
            quantities = (
                high_t_engine_quantities
                if device is Device.ENGINE
                else high_t_fridge_quantities
            )
            for regime in (Regime.ADIABATIC, Regime.SUDDEN_SWITCH):
                for _ in range(100):
                    tau = rng.uniform(0.05, 0.95)
                    window = feasible_interval(device, regime, tau)
                    if not window.empty:
                        width = window.hi - window.lo
                        z = rng.uniform(window.lo + 1e-6 * width, window.hi - 1e-6 * width)
                        a, b = quantities(regime, ReducedParams(z, tau))
                        assert a > 0.0 and b > 0.0
                    z = rng.uniform(1e-6, 1.0)
                    if not window.contains(z, slack=1e-6):
                        a, b = quantities(regime, ReducedParams(z, tau))
                        assert a <= 0.0 or b <= 0.0


class TestStationarityCubic:
    @pytest.mark.parametrize("regime", (Regime.ADIABATIC, Regime.SUDDEN_SWITCH))
    def test_symmetric_regimes_rejected(self, regime):
        with pytest.raises(DomainError):
            stationarity_cubic(regime, [0.5])


class TestRegimeTokens:
    """A token answers as its ``Regime`` or ``Device`` member; any other
    value is a DomainError."""

    def test_engine_quantities(self):
        p = ReducedParams(0.8, 0.5)
        assert high_t_engine_quantities("sc", p) == high_t_engine_quantities(SC, p)
        assert high_t_engine_quantities("sc", p) == pytest.approx((0.359375, 0.059375), abs=1e-15)

    def test_feasible_interval(self):
        assert feasible_interval(Device.ENGINE, "sc", 0.5).lo == pytest.approx(0.640388, abs=1e-6)
        for device in Device:
            for regime in Regime:
                token = feasible_interval(device, regime.value, 0.75)
                assert token == feasible_interval(device, regime, 0.75), (device, regime)

    @pytest.mark.parametrize("token", ("bogus", "SC", "", None, 0))
    def test_unknown_token_in_fridge_quantities(self, token):
        with pytest.raises(DomainError, match="unknown regime"):
            high_t_fridge_quantities(token, ReducedParams(0.3, 0.5))

    def test_engine_device_token_gets_the_engine_window(self):
        window = feasible_interval("engine", SC, 0.5)
        assert window == feasible_interval(Device.ENGINE, SC, 0.5)
        assert window.lo == pytest.approx(0.640388, abs=1e-6) and window.hi == 1.0

    @pytest.mark.parametrize("token", ("bogus", "ENGINE", "", None, 0))
    def test_unknown_device_token(self, token):
        with pytest.raises(DomainError, match="unknown device .*expected engine or fridge"):
            feasible_interval(token, SC, 0.5)

    def test_stationarity_cubic(self):
        assert stationarity_cubic("sc", [0.5]) == stationarity_cubic(SC, [0.5])
        assert stationarity_cubic("se", [0.75]) == stationarity_cubic(SE, [0.75])
        with pytest.raises(DomainError, match="sc/se only, got adi"):
            stationarity_cubic("adi", [0.5])


class TestSharedRoute:
    """The checked sc/se steps call the one route at the tau they checked,
    and the Omega optimum reads its device core at its real coordinate: no
    core call sees a NaN coordinate, so a route that reads eps from the
    coordinate gets a number."""

    COMMANDS = (
        "point engine sc 0.5 --z 0.8",
        "point engine se 0.5 --z 0.8",
        "point fridge sc 3 --z 0.5",
        "point fridge se 3 --z 0.5",
        "sweep --device fridge --start 2 --stop 4 --steps 3",
    )

    def test_no_core_call_sees_a_nan_coordinate(self, monkeypatch, capsys):
        seen = []

        def watched(core):
            def call(regime, taus, coordinates):
                seen.append((core.__module__, regime.value, list(coordinates)))
                return core(regime, taus, coordinates)

            return call

        for module, table in ((engine, engine._ENGINE), (fridge, fridge._FRIDGE)):
            core = watched(module._omega_core)
            monkeypatch.setattr(module, "_omega_core", core)
            monkeypatch.setitem(table, "core", core)
        for regime in (SC, SE):
            engine.z_star_max_eta(regime, 0.5)
            engine.eta_max(regime, 0.5)
            engine.eta_at_max_omega(regime, 0.5)
            engine.omega_objective(regime, 0.8, 0.5)
            engine.point_at(regime, 0.8, 0.5)
            fridge.z_star_max_cop(regime, 3.0)
            fridge.cop_max(regime, 3.0)
            fridge.cop_at_max_omega(regime, 3.0)
            fridge.omega_objective(regime, 0.5, 0.75)
            fridge.point_at(regime, 0.5, 0.75)
        for command in self.COMMANDS:
            assert cli.main(command.split()) == 0
        capsys.readouterr()
        assert seen
        assert [call for call in seen if any(map(math.isnan, call[2]))] == []
