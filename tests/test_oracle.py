import math

import pytest

from ottolab import engine, oracle
from ottolab.cycle import Device, Regime, ReducedParams, feasible_interval, high_t_engine_quantities
from ottolab.errors import NoFeasiblePointError
from ottolab.oracle import (
    EDGE_MARGIN,
    GRID_POINTS,
    TOLERANCE,
    ScalarProblem,
    maximize,
)

SC = Regime.SUDDEN_COMPRESSION


def test_quadratic_maximum():
    report = maximize(ScalarProblem(lambda x: -((x - 0.3) ** 2), 0.0, 1.0))
    assert report.x_star == pytest.approx(0.3, abs=1e-9)
    assert report.f_star == pytest.approx(0.0, abs=1e-15)
    assert report.bracket[1] - report.bracket[0] <= TOLERANCE


def test_work_maximum_sits_at_cube_root_of_tau():
    tau = 0.5
    window = feasible_interval(Device.ENGINE, SC, tau)

    def work(z):
        return high_t_engine_quantities(SC, ReducedParams(z, tau))[1]

    report = maximize(ScalarProblem(work, window.lo, window.hi))
    assert report.x_star == pytest.approx(tau ** (1.0 / 3.0), abs=1e-8)


def test_omega_maximum_matches_closed_form_ratio():
    tau = 0.5
    window = feasible_interval(Device.ENGINE, SC, tau)
    eta_peak = engine.eta_max(SC, tau).value

    def omega(z):
        q_h, w = high_t_engine_quantities(SC, ReducedParams(z, tau))
        return 2.0 * w - eta_peak * q_h

    report = maximize(ScalarProblem(omega, window.lo, window.hi))
    assert report.x_star == pytest.approx(0.768825402, abs=1e-6)


def test_reports_are_bit_identical():
    problem = ScalarProblem(lambda x: math.sin(x) * math.exp(-x / 3.0), 0.1, 3.0)
    first = maximize(problem)
    second = maximize(problem)
    assert first == second


@pytest.mark.parametrize(
    "objective",
    (lambda x: math.sin(3.0 * x), lambda x: math.inf if x > 0.5 else x),
    ids=("smooth", "non_finite_part"),
)
def test_evaluations_count_every_objective_call(objective):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return objective(x)

    assert maximize(ScalarProblem(counted, 0.0, 2.0)).evaluations == calls


def test_f_star_dominates_every_grid_point():
    problem = ScalarProblem(lambda x: math.cos(5.0 * x) + 0.3 * x, 0.0, 2.0)
    report = maximize(problem)
    margin = EDGE_MARGIN * 2.0
    lo, hi = margin, 2.0 - margin
    step = (hi - lo) / (GRID_POINTS - 1)
    assert all(report.f_star >= problem.objective(lo + i * step) for i in range(GRID_POINTS))


def test_doubling_the_grid_is_stable(monkeypatch):
    """maximize reads oracle.GRID_POINTS at call time, so a doubled grid can
    still be tried; the refined optimum must not depend on it."""
    problem = ScalarProblem(lambda x: -((x - 0.7071) ** 2) + 0.2 * x, 0.0, 1.0)
    coarse = maximize(problem)
    monkeypatch.setattr(oracle, "GRID_POINTS", 2 * GRID_POINTS)
    fine = maximize(problem)
    assert fine.evaluations > coarse.evaluations
    assert abs(coarse.x_star - fine.x_star) <= TOLERANCE * 10


def test_grid_and_tolerance_are_not_arguments():
    with pytest.raises(TypeError):
        ScalarProblem(abs, 0.0, 1.0, 1e-10)
    with pytest.raises(TypeError):
        maximize(ScalarProblem(abs, 0.0, 1.0), grid_points=512)


def test_all_non_finite_grid_raises():
    with pytest.raises(NoFeasiblePointError):
        maximize(ScalarProblem(lambda x: float("nan"), 0.0, 1.0))

