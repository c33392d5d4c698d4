import math

import pytest

from ottolab.cubic import branch_roots
from ottolab.errors import DomainError
from ottolab.model import stationarity
from paper_forms import (
    bisect_root,
    discriminant,
    monic,
    paper_cubic,
    paper_discriminant,
    random_trig_cubics,
    root,
    solve,
)


def sorted_roots(cubics):
    """The three branch roots of each cubic, sorted ascending, from three
    column calls."""
    columns = [solve(cubics, k)[0] for k in (0, 1, 2)]
    return [tuple(sorted(roots)) for roots in zip(*columns)]


class TestDiscriminant:
    def test_double_root_cubic_is_zero(self):
        # (y - 1)^2 (y + 2)
        assert discriminant(1.0, 0.0, -3.0, 2.0) == 0.0

    def test_compression_cubic_closed_form(self):
        value = discriminant(*stationarity("sc", 0.5))
        assert value == pytest.approx(paper_discriminant("sc", 0.5))
        assert value == pytest.approx(5.0625)

    def test_expansion_cubic_closed_form(self):
        value = discriminant(*stationarity("se", 0.75))
        assert value == pytest.approx(paper_discriminant("se", 0.75))
        assert value == pytest.approx(1.8984375)

    def test_closed_forms_across_tau_grid(self):
        for i in range(1, 20):
            tau = 0.05 * i
            for regime in ("sc", "se") if tau > 0.5 else ("sc",):
                got = discriminant(*stationarity(regime, tau))
                assert got == pytest.approx(paper_discriminant(regime, tau), rel=1e-9)


class TestBranchRoots:
    def test_double_root_branches(self):
        m = monic(1.0, 0.0, -3.0, 2.0)
        assert root(m, 0) == pytest.approx(1.0, abs=1e-12)
        assert root(m, 1) == pytest.approx(-2.0, abs=1e-12)
        assert sorted_roots([m])[0] == pytest.approx((-2.0, 1.0, 1.0), abs=1e-12)

    def test_compression_cubic_against_bisection(self):
        tau = 0.5
        m = paper_cubic("sc", tau)
        reference = bisect_root(m, 0.5, 1.0)
        got = root(m, 0)
        assert got == pytest.approx(reference, abs=1e-13)
        assert got == pytest.approx(0.7422271989685592, abs=1e-12)
        # the specialized closed form of the same root
        closed = 2.0 * math.sqrt(tau / (2.0 - tau)) * math.cos(
            math.acos(-math.sqrt(tau * (2.0 - tau))) / 3.0
        )
        assert got == pytest.approx(closed, abs=1e-13)

    def test_expansion_cubic_contains_fridge_root(self):
        tau = 0.75
        m = paper_cubic("se", tau)
        roots = sorted_roots([m])[0]
        reference = bisect_root(m, 0.4, 0.7)
        assert min(abs(r - reference) for r in roots) < 1e-13
        assert roots[1] == pytest.approx(0.5945189396413078, abs=1e-12)

    def test_branch_index_validation(self):
        m = monic(1.0, 0.0, -3.0, 2.0)
        with pytest.raises(DomainError):
            root(m, 3)

    def test_outside_trig_regime(self):
        # y^3 + y + 1: b^2 - 3c < 0
        with pytest.raises(DomainError):
            root(monic(1.0, 0.0, 1.0, 1.0), 0)
        # y^3 - 3y + 5: single real root, arccos argument far outside [-1, 1]
        with pytest.raises(DomainError):
            root(monic(1.0, 0.0, -3.0, 5.0), 0)

    def test_single_root_continues_branch_zero(self):
        # y^3 - 3y - 5: one real root, arccos argument 2.5 > 1
        m = monic(1.0, 0.0, -3.0, -5.0)
        (got,), (arg,), (cos_term,) = solve([m], 0)
        assert arg == pytest.approx(2.5, abs=1e-15)
        assert cos_term == pytest.approx(math.cosh(math.acosh(2.5) / 3.0), abs=1e-15)
        assert got == pytest.approx(bisect_root(m, 2.0, 3.0), abs=1e-13)
        for branch in (1, 2):
            with pytest.raises(DomainError):
                root(m, branch)

    def test_arccos_clamp_window(self):
        base = monic(1.0, 0.0, -3.0, 2.0 * (1.0 + 5e-13))
        assert root(base, 0) == pytest.approx(1.0, abs=1e-6)
        beyond = monic(1.0, 0.0, -3.0, 2.0 * (1.0 + 1e-10))
        with pytest.raises(DomainError):
            root(beyond, 0)

    def test_column_rows_equal_single_rows(self):
        # each row of a column is solved alone: a column of one gives its bits
        cubics = random_trig_cubics(200, seed=3)
        for k in (0, 1, 2):
            columns = solve(cubics, k)
            for i, m in enumerate(cubics):
                assert tuple(column[i] for column in columns) == tuple(
                    column[0] for column in solve([m], k)
                )


class TestBranchRootsDomain:
    """Every argument the trig formula does not cover is a DomainError."""

    @pytest.mark.parametrize("index", (0, 1, 2))
    def test_nan_coefficient(self, index):
        coefficients = [[0.0], [-3.0], [-1.0]]
        coefficients[index] = [math.nan]
        with pytest.raises(DomainError):
            branch_roots(*coefficients, 0)

    def test_nan_arccos_argument_is_not_clamped(self):
        # the clamp used to turn a nan argument into +-1 and a finite root
        with pytest.raises(DomainError, match="nan"):
            branch_roots([0.0], [-3.0], [math.nan], 0)

    @pytest.mark.parametrize("branch", (3, -1, 5))
    def test_branch_outside_0_1_2(self, branch):
        with pytest.raises(DomainError, match="branch"):
            branch_roots([0.0], [-3.0], [2.0], branch)

    @pytest.mark.parametrize("b,c", (
        (0.0, 0.0), (3.0, 3.0), (-1.5, 0.75),  # b^2 - 3c = 0
        (0.0, 1.0), (1.0, 1.0), (0.0, 1e-300),  # b^2 - 3c < 0
    ))
    def test_nonpositive_b2_minus_3c(self, b, c):
        with pytest.raises(DomainError, match="not positive"):
            branch_roots([b], [c], [1.0], 0)

    def test_one_bad_row_fails_the_column(self):
        with pytest.raises(DomainError):
            branch_roots([0.0, 0.0], [-3.0, 1.0], [2.0, 1.0], 0)


class TestRootProperties:
    def test_residuals_and_vieta(self):
        cubics = random_trig_cubics(2000, seed=42)
        for m, roots in zip(cubics, sorted_roots(cubics)):
            assert roots[0] < roots[1] < roots[2]
            for y in roots:
                assert abs(m(y)) <= 1e-10 * (1.0 + abs(m.d))
            assert sum(roots) == pytest.approx(-m.b, abs=1e-9)
            product = roots[0] * roots[1] * roots[2]
            assert product == pytest.approx(-m.d, abs=1e-9 * (1.0 + abs(m.d)))

    def test_roots_match_bisection_on_sample(self):
        cubics = random_trig_cubics(25, seed=7)
        for m, roots in zip(cubics, sorted_roots(cubics)):
            lo = roots[0] - 1.0
            for hi in roots:
                reference = bisect_root(m, lo, hi + 1e-7) if m(lo) * m(hi + 1e-7) < 0 else None
                lo = hi + 1e-7
                if reference is not None:
                    assert min(abs(r - reference) for r in roots) < 1e-9


def test_sine_form_equals_cosine_with_offset():
    # the root formulas alternate between sin(pi/6 - t) and -cos(t + 4 pi/3)
    for i in range(1, 64):
        theta = i * (math.pi / 3.0) / 64.0
        assert math.sin(math.pi / 6.0 - theta) == pytest.approx(
            -math.cos(theta + 4.0 * math.pi / 3.0), abs=1e-15
        )
