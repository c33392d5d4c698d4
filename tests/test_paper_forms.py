"""The one optimum route against the paper's expanded expressions.

Each sc/se optimum in ``engine`` and ``fridge`` is a root of the shared
stationarity cubic plus a ratio evaluation; ``paper_forms`` keeps the
hand-expanded trigonometric forms of the same quantities.  Both must agree on
the verification grids.  The last three tests compare a standalone
expanded expression with the route's own intermediate, the pairings the
paper draws between its formulas.
"""

import pytest

import paper_forms
from ottolab import engine, fridge
from ottolab.cycle import Regime
from ottolab.verification import ETA_GRID, ZETA_GRID, ZETA_GRID_SE

SC = Regime.SUDDEN_COMPRESSION
SE = Regime.SUDDEN_EXPANSION

TOL = 1e-10

FRIDGE_GRIDS = ((SC, ZETA_GRID), (SE, ZETA_GRID_SE))


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
@pytest.mark.parametrize("name", ("z_star_max_eta", "eta_max"))
def test_engine_tau_forms(name, regime):
    route, paper = getattr(engine, name), getattr(paper_forms, name)
    worst = max(abs(route(regime, 1.0 - e).value - paper(regime, 1.0 - e)) for e in ETA_GRID)
    assert worst <= TOL


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_eta_at_max_omega(regime):
    worst = max(
        abs(engine.eta_at_max_omega(regime, e).value - paper_forms.eta_at_max_omega(regime, e))
        for e in ETA_GRID
    )
    assert worst <= TOL


@pytest.mark.parametrize("name", ("z_star_max_cop", "cop_max", "cop_at_max_omega"))
def test_fridge_forms(name):
    route, paper = getattr(fridge, name), getattr(paper_forms, name)
    for regime, grid in FRIDGE_GRIDS:
        worst = max(abs(route(regime, zeta).value - paper(regime, zeta)) for zeta in grid)
        assert worst <= TOL, regime


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_z_omega_equivalence(regime):
    # the standalone optimizer expression describes the route's z_Omega
    for eta_c in ETA_GRID:
        z_opt = engine.eta_at_max_omega(regime, eta_c).trace["z_opt"]
        assert abs(paper_forms.z_star_max_omega(regime, 1.0 - eta_c) - z_opt) <= TOL


@pytest.mark.parametrize("regime", (SC, SE), ids=("sc", "se"))
def test_eta_max_consistency(regime):
    # the expanded maximum efficiency is the efficiency at the route's z*
    for eta_c in ETA_GRID:
        tau = 1.0 - eta_c
        z_star = engine.z_star_max_eta(regime, tau).value
        assert abs(paper_forms.eta_max(regime, tau) - engine.point_at(regime, z_star, tau).eta) <= TOL


def test_cop_max_consistency():
    # the expanded maximum COP is the COP at the route's z*
    for regime, grid in FRIDGE_GRIDS:
        for zeta_c in grid:
            tau = zeta_c / (1.0 + zeta_c)
            z_star = fridge.z_star_max_cop(regime, zeta_c).value
            assert abs(
                paper_forms.cop_max(regime, zeta_c) - fridge.point_at(regime, z_star, tau).zeta
            ) <= 1e-9
