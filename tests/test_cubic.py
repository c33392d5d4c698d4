import math
import random

import pytest

from ottolab.cubic import MonicCubic, all_roots, branch_root, discriminant, trig_root
from ottolab.errors import DomainError


def bisect_root(f, lo, hi, iterations=200):
    """Sign-change bisection; the independent reference for root values."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDiscriminant:
    def test_double_root_cubic_is_zero(self):
        # (y - 1)^2 (y + 2)
        assert discriminant(1.0, 0.0, -3.0, 2.0) == 0.0

    def test_compression_cubic_closed_form(self):
        tau = 0.5
        value = discriminant(2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau)
        assert value == pytest.approx(108.0 * tau**3 * (2.0 - tau) * (1.0 - tau) ** 2)
        assert value == pytest.approx(5.0625)

    def test_expansion_cubic_closed_form(self):
        tau = 0.75
        value = discriminant(2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0))
        assert value == pytest.approx(108.0 * tau * tau * (2.0 * tau - 1.0) * (1.0 - tau) ** 2)
        assert value == pytest.approx(1.8984375)

    def test_closed_forms_across_tau_grid(self):
        for i in range(1, 20):
            tau = 0.05 * i
            got = discriminant(2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau)
            want = 108.0 * tau**3 * (2.0 - tau) * (1.0 - tau) ** 2
            assert got == pytest.approx(want, rel=1e-9)
            if tau > 0.5:
                got = discriminant(2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0))
                want = 108.0 * tau * tau * (2.0 * tau - 1.0) * (1.0 - tau) ** 2
                assert got == pytest.approx(want, rel=1e-9)

    def test_not_a_cubic(self):
        with pytest.raises(DomainError):
            discriminant(0.0, 1.0, 2.0, 3.0)

    def test_monic_normalization_keeps_premonic_discriminant(self):
        m = MonicCubic.from_coefficients(2.0, -4.0, 2.0, 6.0)
        assert (m.b, m.c, m.d) == (-2.0, 1.0, 3.0)
        assert m.discriminant == discriminant(2.0, -4.0, 2.0, 6.0)


class TestTrigRoot:
    def test_double_root_branches(self):
        m = MonicCubic.from_coefficients(1.0, 0.0, -3.0, 2.0)
        assert trig_root(m, 0) == pytest.approx(1.0, abs=1e-12)
        assert trig_root(m, 1) == pytest.approx(-2.0, abs=1e-12)
        assert all_roots(m) == pytest.approx((-2.0, 1.0, 1.0), abs=1e-12)

    def test_compression_cubic_against_bisection(self):
        tau = 0.5
        m = MonicCubic.from_coefficients(2.0 - tau, 0.0, -3.0 * tau, 2.0 * tau * tau)
        reference = bisect_root(m, 0.5, 1.0)
        root = trig_root(m, 0)
        assert root == pytest.approx(reference, abs=1e-13)
        assert root == pytest.approx(0.7422271989685592, abs=1e-12)
        # the specialized closed form of the same root
        closed = 2.0 * math.sqrt(tau / (2.0 - tau)) * math.cos(
            math.acos(-math.sqrt(tau * (2.0 - tau))) / 3.0
        )
        assert root == pytest.approx(closed, abs=1e-13)

    def test_expansion_cubic_contains_fridge_root(self):
        tau = 0.75
        m = MonicCubic.from_coefficients(2.0, -3.0 * tau, 0.0, tau * (2.0 * tau - 1.0))
        roots = all_roots(m)
        reference = bisect_root(m, 0.4, 0.7)
        assert min(abs(r - reference) for r in roots) < 1e-13
        assert roots[1] == pytest.approx(0.5945189396413078, abs=1e-12)

    def test_branch_index_validation(self):
        m = MonicCubic.from_coefficients(1.0, 0.0, -3.0, 2.0)
        with pytest.raises(DomainError):
            trig_root(m, 3)

    def test_outside_trig_regime(self):
        # y^3 + y + 1: b^2 - 3c < 0
        with pytest.raises(DomainError):
            trig_root(MonicCubic.from_coefficients(1.0, 0.0, 1.0, 1.0), 0)
        # y^3 - 3y + 5: single real root, arccos argument far outside [-1, 1]
        with pytest.raises(DomainError):
            trig_root(MonicCubic.from_coefficients(1.0, 0.0, -3.0, 5.0), 0)

    def test_single_root_continues_branch_zero(self):
        # y^3 - 3y - 5: one real root, arccos argument 2.5 > 1
        m = MonicCubic.from_coefficients(1.0, 0.0, -3.0, -5.0)
        root, arg, cos_term = branch_root(m.b, m.c, m.d, 0)
        assert arg == pytest.approx(2.5, abs=1e-15)
        assert cos_term == pytest.approx(math.cosh(math.acosh(2.5) / 3.0), abs=1e-15)
        assert root == pytest.approx(bisect_root(m, 2.0, 3.0), abs=1e-13)
        assert trig_root(m, 0) == pytest.approx(root, abs=1e-13)
        for branch in (1, 2):
            with pytest.raises(DomainError):
                trig_root(m, branch)

    def test_arccos_clamp_window(self):
        base = MonicCubic.from_coefficients(1.0, 0.0, -3.0, 2.0 * (1.0 + 5e-13))
        assert trig_root(base, 0) == pytest.approx(1.0, abs=1e-6)
        beyond = MonicCubic.from_coefficients(1.0, 0.0, -3.0, 2.0 * (1.0 + 1e-10))
        with pytest.raises(DomainError):
            trig_root(beyond, 0)


class TestRootProperties:
    @staticmethod
    def _random_trig_cubics(count, seed):
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            a = rng.uniform(-5.0, 5.0)
            if abs(a) < 0.5:
                continue
            b, c, d = (rng.uniform(-5.0, 5.0) for _ in range(3))
            if discriminant(a, b, c, d) <= 0.0:
                continue
            produced += 1
            yield MonicCubic.from_coefficients(a, b, c, d)

    def test_residuals_and_vieta(self):
        for m in self._random_trig_cubics(2000, seed=42):
            roots = all_roots(m)
            assert roots[0] < roots[1] < roots[2]
            for y in roots:
                assert abs(m(y)) <= 1e-10 * (1.0 + abs(m.d))
            assert sum(roots) == pytest.approx(-m.b, abs=1e-9)
            product = roots[0] * roots[1] * roots[2]
            assert product == pytest.approx(-m.d, abs=1e-9 * (1.0 + abs(m.d)))

    def test_roots_match_bisection_on_sample(self):
        for m in self._random_trig_cubics(25, seed=7):
            roots = all_roots(m)
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
