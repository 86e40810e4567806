import math
import sys

import numpy as np
import pytest

from annulus_nematics import of_weak
from annulus_nematics.numerics import Bracket, find_root, min_eigenvalue
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


def reference_residual(delta, alpha, b, k):
    """Reference: the compatibility residual term by term, one float at a
    time, with PoleProximity within 1e-9 of a tangent pole (by
    math.remainder) and at a rational-term pole."""
    length = math.log(1.0 / b)
    try:
        alpha_sq = alpha ** 2
    except OverflowError:
        alpha_sq = math.inf
    if k == 0:
        tau = math.sqrt(delta / (1.0 - delta)) * length
        if abs(math.remainder(tau - 0.5 * math.pi, math.pi)) < 1e-9:
            raise PoleProximity("tangent pole")
        den = alpha * delta - alpha * b * delta + alpha_sq * b - delta
        if den == 0.0:
            raise PoleProximity("rational term pole")
        if den == math.inf:
            return math.tan(tau)
        return math.tan(tau) + alpha * (1.0 + b) * math.sqrt(delta * (1.0 - delta)) / den
    nu = math.sqrt((k * k - delta) / (1.0 - delta))
    den = delta * alpha + alpha_sq * b - alpha * b * delta - delta \
        + k * k * (1.0 - delta)
    if den == 0.0:
        raise PoleProximity("rational term pole")
    if den == math.inf:
        return math.tanh(nu * length)
    return math.tanh(nu * length) + (1.0 - delta) * alpha * (1.0 + b) / den * nu


def reference_delta_weak(alpha, b, k):
    """Reference: delta_weak by the scalar walk over every cell, the k = 0
    cells from all tangent poles below 1 - 1e-12 (at most 201) at once."""
    if k == 1:
        return delta_weak(alpha, b, 1)    # closed form, no scan
    if k == 0:
        length = math.log(1.0 / b)
        edges = [0.0, 1.0]
        for m in range(201):
            x = ((0.5 + m) * math.pi / length) ** 2
            if x / (1.0 + x) >= 1.0 - 1e-12:
                break
            edges.append(x / (1.0 + x))
        coef = 1.0 + alpha * b - alpha
        if coef != 0.0:
            try:
                d_rat = alpha ** 2 * b / coef
            except OverflowError:
                d_rat = math.inf
            if 0.0 < d_rat < 1.0:
                edges.append(d_rat)
        edges = sorted(set(edges))
    else:
        coef = alpha - alpha * b - 1.0 - k * k
        try:
            alpha_sq = alpha ** 2
        except OverflowError:
            alpha_sq = math.inf
        d_zero = -(alpha_sq * b + k * k) / coef if coef != 0.0 else math.inf
        if not 0.0 < d_zero < 1.0:
            return None
        edges = [d_zero, 1.0]

    def f(d):
        return reference_residual(d, alpha, b, k)

    for lo, hi in zip(edges[:-1], edges[1:]):
        pad = 1e-10 * max(1.0, hi - lo) + 1e-13
        a, c = lo + pad, hi - pad
        if c <= a:
            continue
        prev_x, prev_f = None, None
        for x in np.linspace(a, c, 160):
            try:
                fx = f(float(x))
            except PoleProximity:
                prev_x, prev_f = None, None
                continue
            if not math.isfinite(fx):
                prev_x, prev_f = None, None
                continue
            if prev_f is not None and fx == 0.0:
                return float(x)
            if prev_f is not None \
                    and math.copysign(1.0, fx) != math.copysign(1.0, prev_f):
                return find_root(f, Bracket(prev_x, x), tol=1e-14)
            prev_x, prev_f = float(x), fx
    return None


def scan_cases():
    """Seeded (alpha, b, k) grid with alpha near 1, huge and tiny, and b
    near 0 and 1."""
    rng = np.random.default_rng(3201)
    alphas = np.concatenate([
        rng.uniform(0.01, 4.0, 24), 10.0 ** rng.uniform(-3.0, 3.0, 12),
        1.0 + rng.normal(0.0, 1e-6, 4),
        [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.999, 1.001, 1e6, 1e154, 2e154,
         1e300, 1e-300]])
    bs = np.concatenate([rng.uniform(0.02, 0.98, 10),
                         [1e-300, 1e-12, 1e-3, 0.999, 1.0 - 1e-9, 1.0 - 1e-15]])
    return [(float(a), float(b), k) for b in bs for a in alphas
            for k in (0, 2, 3)]


class TestScanMatchesReference:
    def test_every_root_and_none(self):
        cases = scan_cases()
        got = [delta_weak(a, b, k) for a, b, k in cases]
        want = [reference_delta_weak(a, b, k) for a, b, k in cases]
        # the grid reaches roots and Nones of every order scanned
        assert {k for (_, _, k), d in zip(cases, want) if d is not None} == {0, 2, 3}
        assert any(d is None for d in want)
        mismatch = [(c, g, w) for c, g, w in zip(cases, got, want) if g != w]
        assert mismatch == []

    def test_public_residual_matches_reference(self):
        rng = np.random.default_rng(3202)
        for a, b, k in scan_cases()[::5]:
            for d in rng.uniform(0.0, 1.0, 8):
                try:
                    want = reference_residual(float(d), a, b, k)
                except PoleProximity:
                    with pytest.raises(PoleProximity):
                        compat_residual(float(d), a, b, k)
                    continue
                got = compat_residual(float(d), a, b, k)
                assert got == want or (math.isnan(got) and math.isnan(want))

    def test_pole_distance_is_exact_remainder(self):
        rng = np.random.default_rng(3203)
        poles = (0.5 + np.arange(400)) * math.pi
        taus = np.concatenate([rng.uniform(0.0, 2000.0, 20000), poles,
                               np.nextafter(poles, 0.0), np.nextafter(poles, 1e9),
                               poles + rng.normal(0.0, 1e-9, 400),
                               np.arange(400) * math.pi])
        want = [abs(math.remainder(t - 0.5 * math.pi, math.pi)) for t in taus]
        assert np.array_equal(of_weak._tan_pole_distance(np, taus), want)
        assert [of_weak._tan_pole_distance(math, t) for t in taus[:2000]] \
            == want[:2000]

    def test_inputs_checked_once(self, monkeypatch):
        counts = {"ratio": 0, "index": 0}
        check_ratio, check_index = of_weak.check_ratio, of_weak.check_index

        def count_ratio(b):
            counts["ratio"] += 1
            return check_ratio(b)

        def count_index(*args):
            counts["index"] += 1
            return check_index(*args)

        def unexpected(*args):
            raise AssertionError("the scan calls the unchecked kernel")

        monkeypatch.setattr(of_weak, "check_ratio", count_ratio)
        monkeypatch.setattr(of_weak, "check_index", count_index)
        monkeypatch.setattr(of_weak, "compat_residual", unexpected)
        for k in (0, 2):
            counts.update(ratio=0, index=0)
            assert delta_weak(0.5, 0.5, k) is not None
            assert counts == {"ratio": 1, "index": 1}


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

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            compat_residual(0.5, 0.5, 0.5, -1)

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            compat_residual(0.5, 0.5, 0.5, 1.5)

    def test_rejects_nan_alpha(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            compat_residual(0.5, math.nan, 0.5, 0)

    def test_rejects_infinite_alpha(self):
        # inf used to return nan
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            compat_residual(0.5, math.inf, 0.5, 0)

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

    @pytest.mark.parametrize("k", [-1, -2])
    def test_rejects_negative_order(self, k):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            delta_weak(0.5, 0.5, k)

    @pytest.mark.parametrize("k", [1.5, 0.5, math.nan])
    def test_rejects_non_integer_order(self, k):
        # k = 1.5 used to return 0.8899 from the k >= 2 branch
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            delta_weak(0.5, 0.5, k)

    def test_rejects_nan_alpha(self):
        # nan used to report "no critical anisotropy" (None)
        with pytest.raises(ValueError, match="alpha must be positive"):
            delta_weak(math.nan, 0.5, 0)

    def test_rejects_infinite_alpha(self):
        # inf used to report "no critical anisotropy" (None)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            delta_weak(math.inf, 0.5, 0)

    def test_rejects_b_whose_reciprocal_overflows(self):
        # log(1/b) is inf below b = 5.6e-309, so the tangent cells vanish
        with pytest.raises(ValueError, match="overflows"):
            delta_weak(1.0, 1e-310, 0)
        with pytest.raises(ValueError):
            compat_residual(0.5, 1.0, 1e-310, 0)

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

    def test_largest_alpha_gives_strong_limit(self):
        # alpha * (1 + b) overflows as well as alpha ** 2
        alpha = sys.float_info.max
        for b in (1e-9, 0.5):
            assert abs(delta_weak(alpha, b, 0) - delta_n(b, 1)) < 1e-12
            assert math.isfinite(compat_residual(0.1, alpha, b, 1))

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

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \(0,1\)"):
            weak_eigenmode(0.7, delta, 2.0, 0.5)

    @pytest.mark.parametrize("alpha, b, match", [
        (-1.0, 0.5, "anchoring strength"),
        (math.nan, 0.5, "anchoring strength"),
        (math.inf, 0.5, "anchoring strength must be nonnegative and finite"),
        (2.0, 7.0, r"b must lie in \(0,1\)"),
        (2.0, 0.0, r"b must lie in \(0,1\)"),
        (2.0, math.nan, r"b must lie in \(0,1\)"),
    ], ids=["negative_alpha", "nan_alpha", "inf_alpha", "b_above_one", "b_zero",
            "nan_b"])
    def test_rejects_parameters_outside_domain(self, alpha, b, match):
        with pytest.raises(ValueError, match=match):
            weak_eigenmode(0.7, 0.5, alpha, b)


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

    @pytest.mark.parametrize("k_max", [1.5, -1, math.nan])
    def test_rejects_non_integer_or_negative_k_max(self, k_max):
        # 1.5 used to reach range() and raise TypeError
        with pytest.raises(ValueError, match="k_max must be a nonnegative integer"):
            stability_region(0.5, k_max, [0.5, 1.0])

    def test_integral_float_k_max_accepted(self):
        curves = stability_region(0.5, 2.0, [0.5, 1.0])
        assert [c.k for c in curves] == [0, 1, 2]


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

    def test_matches_extended_precision_reference(self):
        # (alpha, b) -> (E1, E3) in 40-digit arithmetic, from the double
        # delta_{1,0} that delta_weak returns; (0.05, 0.999) has nearly
        # cancelling boundary terms
        refs = {
            (0.5, 0.5): (38.762695015792902159, 244.84451665659858656),
            (2.0, 0.2): (2.5609513205180017804, 1.3656190084785420377),
            (1e6, 0.5): (7.4659840313003552271, 3.5597066160630952477),
            (0.05, 0.999): (0.10232490240211071413, 0.002016953375521832975),
            (5.0, 1e-6): (6.6101918930751565958, 0.047576592331310847362),
            (50.0, 0.95): (96.17168506134883704, 48.093529700025851412),
        }
        for (alpha, b), ref in refs.items():
            got = weak_pitchfork_coeffs(alpha, b)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-13 * max(1.0, abs(r)), (alpha, b, g, r)


def test_anchoring_params_validation():
    AnchoringParams(0.0)
    with pytest.raises(ValueError):
        AnchoringParams(-1.0)


def test_anchoring_params_reject_nan():
    with pytest.raises(ValueError, match="anchoring strength"):
        AnchoringParams(math.nan)


def test_anchoring_params_reject_inf():
    with pytest.raises(ValueError, match="nonnegative and finite"):
        AnchoringParams(math.inf)
