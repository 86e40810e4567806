import math

import numpy as np
import pytest

from annulus_nematics.numerics import min_eigenvalue
from annulus_nematics.of_strong import delta_n
from annulus_nematics.of_weak import (
    AnchoringParams,
    DegenerateCoefficient,
    PoleProximity,
    StabilityCurve,
    compat_residual,
    delta_weak,
    stability_region,
    weak_eigenmode,
    weak_pitchfork_coeffs,
)


def robin_min_eig(delta, alpha, b, k, n=401):
    """Independent oracle: smallest eigenvalue of the discretized Robin form.

    Assembles the second-variation quadratic form restricted to azimuthal
    order k in y = log(1/r) with linear elements and lumped mass; the
    critical anisotropy is where this eigenvalue crosses zero.
    """
    length = math.log(1.0 / b)
    y = np.linspace(0.0, length, n)
    h = y[1] - y[0]
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    stiff = np.zeros((n, n))
    idx = np.arange(n - 1)
    stiff[idx, idx] += 1.0 / h
    stiff[idx + 1, idx + 1] += 1.0 / h
    stiff[idx, idx + 1] -= 1.0 / h
    stiff[idx + 1, idx] -= 1.0 / h
    form = (1.0 - delta) * stiff + np.diag((k * k - delta) * w)
    form[0, 0] += alpha - delta
    form[-1, -1] += alpha * b + delta
    mass = w * np.exp(-2.0 * y)
    band = np.array([np.diagonal(form), np.append(np.diagonal(form, -1), 0.0)])
    return min_eigenvalue(band, mass)


def oracle_delta_crit(alpha, b, k, n=401):
    """Smallest delta where the discretized Robin form loses positivity."""
    grid = np.linspace(1e-3, 1.0 - 1e-6, 400)
    prev = None
    for d in grid:
        lam = robin_min_eig(d, alpha, b, k, n=201)
        if prev is not None and lam <= 0.0 < prev[1]:
            lo, hi = prev[0], d
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if robin_min_eig(mid, alpha, b, k, n) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev = (d, lam)
    return None


class TestCompatResidual:
    def test_vanishes_at_k1_closed_form(self):
        for alpha, b in ((0.5, 0.5), (0.25, 0.3), (0.9, 0.7)):
            d = delta_weak(alpha, b, 1)
            assert d is not None
            assert abs(compat_residual(d, alpha, b, 1)) < 1e-9

    def test_vanishes_at_k0_root(self):
        for alpha, b in ((0.5, 0.5), (2.0, 0.3), (10.0, 0.6)):
            d = delta_weak(alpha, b, 0)
            assert abs(compat_residual(d, alpha, b, 0)) < 1e-9

    def test_pole_proximity_raises(self):
        b = 0.5
        length = math.log(1.0 / b)
        x = (0.5 * math.pi / length) ** 2
        d_pole = x / (1.0 + x)
        with pytest.raises(PoleProximity):
            compat_residual(d_pole, 1.0, b, 0)

    def test_many_roots_exist(self):
        # the k = 0 condition has infinitely many zeros: the tangent argument
        # tau sweeps one branch per period, so scan tau cell by cell
        alpha, b = 1.0, 0.5
        length = math.log(1.0 / b)
        found = []
        for m in range(4):
            taus = np.linspace(0.5 * math.pi + m * math.pi + 1e-3,
                               0.5 * math.pi + (m + 1) * math.pi - 1e-3, 3000)
            prev = None
            for tau in taus:
                d = (tau / length) ** 2 / (1.0 + (tau / length) ** 2)
                try:
                    f = compat_residual(float(d), alpha, b, 0)
                except PoleProximity:
                    prev = None
                    continue
                if prev is not None and np.sign(f) != np.sign(prev):
                    found.append(d)
                    break
                prev = f
        assert len(found) >= 3


class TestDeltaWeak:
    def test_k1_closed_form_value(self):
        assert abs(delta_weak(0.5, 0.5, 1) - 19.0 / 24.0) < 1e-12

    def test_k1_absent_above_one(self):
        assert delta_weak(1.5, 0.5, 1) is None
        assert delta_weak(1.0, 0.5, 1) is None

    def test_k0_strong_anchoring_limit(self):
        d = delta_weak(1e6, 0.5, 0)
        assert abs(d - delta_n(0.5, 1)) < 1e-4

    def test_overflowing_alpha_squares_give_strong_limit(self):
        # alpha ** 2 overflows above 1.3e154
        for b in (1e-9, 0.5):
            assert abs(delta_weak(1e300, b, 0) - delta_n(b, 1)) < 1e-12
            for k in (1, 2):
                assert delta_weak(1e300, b, k) is None

    def test_k0_matches_eigenvalue_oracle(self):
        for alpha, b in ((0.5, 0.5), (2.0, 0.4)):
            d = delta_weak(alpha, b, 0)
            d_oracle = oracle_delta_crit(alpha, b, 0)
            assert abs(d - d_oracle) < 5e-5

    def test_k1_matches_eigenvalue_oracle(self):
        d = delta_weak(0.5, 0.5, 1)
        d_oracle = oracle_delta_crit(0.5, 0.5, 1)
        assert abs(d - d_oracle) < 5e-5

    def test_k2_matches_eigenvalue_oracle(self):
        d = delta_weak(0.6, 0.5, 2)
        assert d is not None
        d_oracle = oracle_delta_crit(0.6, 0.5, 2)
        assert abs(d - d_oracle) < 1e-4

    def test_k_geq_1_absent_for_large_alpha(self):
        for b in (0.2, 0.5, 0.8):
            for k in (1, 2, 3):
                for alpha in (1.0, 1.5, 5.0):
                    assert delta_weak(alpha, b, k) is None

    def test_k0_monotone_in_alpha_below_strong(self):
        for b in (0.3, 0.6):
            strong = delta_n(b, 1)
            prev = 0.0
            for alpha in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
                d = delta_weak(alpha, b, 0)
                assert prev < d < strong
                prev = d

    def test_k2_root_bound(self):
        for alpha, b in ((0.3, 0.4), (0.7, 0.6)):
            for k in (2, 3):
                d = delta_weak(alpha, b, k)
                if d is None:
                    continue
                lower = (k * k + alpha ** 2 * b) / (alpha * b - alpha + 1.0 + k * k)
                assert lower < d < 1.0

    def test_k1_above_half(self):
        for b in (0.1, 0.3, 0.5, 0.7, 0.9):
            for alpha in (0.1, 0.5, 0.9):
                d = delta_weak(alpha, b, 1)
                assert d is not None and d > 0.5


class TestWeakEigenmode:
    def test_value_at_outer_radius(self):
        d, alpha, b = 0.6, 2.0, 0.5
        c = math.sqrt(d * (1.0 - d)) / (alpha - d)
        assert abs(weak_eigenmode(1.0, d, alpha, b) - c) < 1e-14

    def test_robin_conditions_at_root(self):
        alpha, b = 0.8, 0.45
        d = delta_weak(alpha, b, 0)
        mu = math.sqrt(d / (1.0 - d))
        c = math.sqrt(d * (1.0 - d)) / (alpha - d)

        def mode_deriv(r):
            x = math.log(1.0 / r)
            return -(mu * math.cos(mu * x) - c * mu * math.sin(mu * x)) / r

        f1 = weak_eigenmode(1.0, d, alpha, b)
        res_outer = mode_deriv(1.0) - (d - alpha) / (1.0 - d) * f1
        fb = weak_eigenmode(b, d, alpha, b)
        res_inner = mode_deriv(b) - (alpha + d / b) / (1.0 - d) * fb
        assert abs(res_outer) < 1e-8
        assert abs(res_inner) < 1e-8

    def test_satisfies_radial_ode(self):
        alpha, b = 0.8, 0.45
        d = delta_weak(alpha, b, 0)
        mu = math.sqrt(d / (1.0 - d))
        c = math.sqrt(d * (1.0 - d)) / (alpha - d)
        r = np.linspace(b, 1.0, 300)
        x = np.log(1.0 / r)
        f = weak_eigenmode(r, d, alpha, b)
        fp = -(mu * np.cos(mu * x) - c * mu * np.sin(mu * x)) / r
        fpp = (-(mu ** 2) * f + (mu * np.cos(mu * x) - c * mu * np.sin(mu * x))) / r ** 2
        res = r * fp + r ** 2 * fpp + d / (1.0 - d) * f
        assert np.max(np.abs(res)) < 1e-8

    def test_degenerate_coefficient(self):
        with pytest.raises(DegenerateCoefficient):
            weak_eigenmode(0.7, 0.6, 0.6, 0.5)


class TestStabilityRegion:
    def test_k0_curve_increases_to_strong_limit(self):
        b = 0.5
        curves = stability_region(b, 0, [0.05, 0.2, 1.0, 5.0, 50.0])
        ds = [p[1] for p in curves[0].points]
        assert ds == sorted(ds)
        assert ds[-1] < delta_n(b, 1)
        assert delta_n(b, 1) - ds[-1] < 0.02

    def test_k_positive_curves_end_at_alpha_one(self):
        curves = stability_region(0.5, 3, [0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
        for curve in curves[1:]:
            assert all(a < 1.0 for a, _ in curve.points)
            assert len(curve.points) > 0

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            StabilityCurve(k=0, b=0.5, points=[(0.5, 0.7), (0.2, 0.6)])


class TestWeakPitchfork:
    def test_coefficients_positive_on_grid(self):
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for b in (0.2, 0.5, 0.8):
                e1, e3 = weak_pitchfork_coeffs(alpha, b)
                assert e1 > 0.0, (alpha, b, e1)
                assert e3 > 0.0, (alpha, b, e3)

    def test_strong_anchoring_ratio(self):
        # amplitude law must approach the Dirichlet pitchfork: E3/E1 -> delta1/2
        b = 0.5
        e1, e3 = weak_pitchfork_coeffs(1e6, b)
        assert abs(e3 / e1 - 0.5 * delta_n(b, 1)) < 0.05 * 0.5 * delta_n(b, 1)


def test_anchoring_params_validation():
    AnchoringParams(0.0)
    with pytest.raises(ValueError):
        AnchoringParams(-1.0)
