import math
import random

import pytest

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
from ottolab.cubic import MonicCubic
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

    def test_carnot_values_recomputable(self):
        p = ReducedParams(0.5, 0.25)
        assert p.eta_c == 0.75
        assert p.zeta_c == pytest.approx(1.0 / 3.0, abs=0.0)
        assert ReducedParams.from_eta_c(0.5, 0.75) == p
        assert ReducedParams.from_zeta_c(0.5, 1.0 / 3.0).tau == pytest.approx(0.25)


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
    def test_monic_form_of_the_paper_cubics(self):
        for tau in (0.1, 0.5, 0.75, 0.99):
            sc = MonicCubic.from_coefficients(2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau)
            se = MonicCubic.from_coefficients(2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0))
            for regime, m in ((SC, sc), (SE, se)):
                assert stationarity_cubic(regime, tau) == pytest.approx(
                    (m.b, m.c, m.d), abs=1e-15
                )

    @pytest.mark.parametrize("regime", (Regime.ADIABATIC, Regime.SUDDEN_SWITCH))
    def test_symmetric_regimes_rejected(self, regime):
        with pytest.raises(DomainError):
            stationarity_cubic(regime, 0.5)
