import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annulus_nematics import of_strong
from annulus_nematics.numerics import Bracket, GridFunction, find_root
from annulus_nematics.of_strong import (
    AnnulusGeometry,
    DomainError,
    ElasticParams,
    NoSpiralBranch,
    SubcriticalInput,
    _tail_integral,
    defect_free_energy,
    delta1_stability_coefficient,
    delta_n,
    eigenmode,
    pitchfork_amplitude,
    second_variation_radial,
    spiral_energy,
    spiral_ode_residual,
    spiral_solve,
)


def radial_eigenprofile(b, n=1, n_nodes=200_001):
    r = np.linspace(b, 1.0, n_nodes)
    return GridFunction(r, eigenmode(b, n, r))


def reference_spiral_half(delta, b, n_profile):
    """u_max and the half-profile on nodes 1..n_profile//2 by whole-vector
    bisection of t(U) = half - tail(U) against the uniform t-grid."""
    period = math.log(1.0 / b)

    def half_integral(u0):
        return float(_tail_integral(np.zeros(1), delta, u0)[0])

    lo, hi = 1e-8, None
    for k in range(1, 44):
        cand = 0.5 * math.pi * (1.0 - 2.0 ** (-k))
        if half_integral(cand) - 0.5 * period > 0.0:
            hi = cand
            break
        lo = cand
    u_max = find_root(lambda u0: half_integral(u0) - 0.5 * period,
                      Bracket(lo, hi), tol=1e-12)
    half = half_integral(u_max)
    t_half = np.linspace(0.0, period, n_profile)[1:n_profile // 2 + 1]
    u_lo = np.zeros_like(t_half)
    u_hi = np.full_like(t_half, u_max * (1.0 - 1e-15))
    for _ in range(80):
        u_mid = 0.5 * (u_lo + u_hi)
        above = half - _tail_integral(u_mid, delta, u_max) > t_half
        if np.array_equal(u_mid, np.where(above, u_hi, u_lo)):
            break
        u_hi = np.where(above, u_mid, u_hi)
        u_lo = np.where(above, u_lo, u_mid)
    return u_max, 0.5 * (u_lo + u_hi)


def count_tail_rows(monkeypatch):
    """Record the row count of every _tail_integral call from of_strong."""
    rows = []

    def spy(u_lo, *args):
        rows.append(u_lo.size)
        return _tail_integral(u_lo, *args)

    monkeypatch.setattr(of_strong, "_tail_integral", spy)
    return rows


@st.composite
def spiral_inputs(draw):
    b = draw(st.floats(1e-6, 0.999))
    delta = draw(st.floats(delta_n(b, 1), 1.0, exclude_min=True))
    return delta, b, 2 * draw(st.integers(1, 64)) + 1


class TestClosedForms:
    def test_defect_free_energy(self):
        g = AnnulusGeometry(1.0 / math.e)
        assert abs(defect_free_energy(g, ElasticParams(0.0, 1.0)) - math.pi) < 1e-14
        assert abs(defect_free_energy(AnnulusGeometry(0.2), ElasticParams(0.3, 2.0))
                   - 2.0 * math.pi * math.log(5.0)) < 1e-12
        assert defect_free_energy(AnnulusGeometry(1.0 - 1e-9), ElasticParams(0.0)) \
            == pytest.approx(0.0, abs=1e-8)

    def test_delta_n_values(self):
        assert abs(delta_n(math.exp(-math.pi), 1) - 0.5) < 1e-14
        assert delta_n(0.2, 1) == pytest.approx(
            math.pi ** 2 / (math.pi ** 2 + math.log(0.2) ** 2), abs=1e-15)
        assert abs(delta_n(0.2, 1) - 0.79211) < 5e-6
        assert delta_n(0.3, 500) > 1.0 - 1e-4

    @given(b=st.floats(0.02, 0.98), n=st.integers(1, 20))
    @settings(deadline=None, max_examples=80)
    def test_delta_n_range_and_monotone(self, b, n):
        d = delta_n(b, n)
        assert 0.0 < d < 1.0
        assert delta_n(b, n + 1) > d

    @pytest.mark.parametrize("n", [1.5, math.nan])
    def test_delta_n_rejects_non_integer_order(self, n):
        with pytest.raises(ValueError, match="mode index"):
            delta_n(0.5, n)

    def test_delta_n_limits(self):
        assert delta_n(1e-12, 1) < 0.05
        assert delta_n(1.0 - 1e-12, 1) > 0.999999

    def test_eigenmode_boundary_zeros(self):
        for b in (0.2, 0.5, 0.8):
            assert abs(eigenmode(b, 1, b)) < 1e-12
            assert abs(eigenmode(b, 1, 1.0)) < 1e-12
            assert abs(eigenmode(b, 1, math.sqrt(b)) - 1.0) < 1e-12

    @pytest.mark.parametrize("b, n", [(0.5, 0), (0.5, -1), (1.5, 1), (0.0, 1),
                                      (0.5, 1.5)])
    def test_eigenmode_rejects_out_of_domain(self, b, n):
        with pytest.raises(ValueError, match="radius ratio|mode index"):
            eigenmode(b, n, 0.7)

    def test_eigenmode_satisfies_euler_ode(self):
        # r f' + r^2 f'' + delta/(1-delta) f with analytic derivatives
        b, n = 0.35, 2
        d = delta_n(b, n)
        r = np.linspace(b + 0.01, 0.99, 500)
        k = math.pi * n / math.log(b)
        f = np.sin(k * np.log(r))
        fp = k * np.cos(k * np.log(r)) / r
        fpp = (-k * k * np.sin(k * np.log(r)) - k * np.cos(k * np.log(r))) / r ** 2
        res = r * fp + r ** 2 * fpp + d / (1.0 - d) * f
        assert np.max(np.abs(res)) < 1e-10


class TestSecondVariation:
    def test_positive_at_zero_anisotropy(self):
        eta = radial_eigenprofile(0.4, n_nodes=3001)
        assert second_variation_radial(eta, 0.0, 0.4) > 0.0

    def test_full_anisotropy_matches_identity(self):
        # at delta = 1 the form collapses to -2 pi int eta^2 / r dr
        b = 0.3
        eta = radial_eigenprofile(b, n_nodes=100_001)
        got = second_variation_radial(eta, 1.0, b)
        expect = -2.0 * math.pi * np.trapezoid(eta.values ** 2 / eta.nodes, eta.nodes)
        assert got < 0.0
        assert abs(got - expect) < 1e-6

    def test_null_mode_at_criticality(self):
        for b in (0.2, 0.6):
            eta = radial_eigenprofile(b)
            val = second_variation_radial(eta, delta_n(b, 1), b)
            assert abs(val) < 1e-8

    def test_sign_change_at_delta1(self):
        b = 0.45
        eta = radial_eigenprofile(b, n_nodes=20001)
        d1 = delta_n(b, 1)
        assert second_variation_radial(eta, d1 - 1e-3, b) > 0.0
        assert second_variation_radial(eta, d1 + 1e-3, b) < 0.0

    def test_random_profiles_positive_below_critical(self):
        b = 0.5
        d = 0.9 * delta_n(b, 1)
        rng = np.random.default_rng(3)
        r = np.linspace(b, 1.0, 4001)
        s = (r - b) / (1.0 - b)
        for _ in range(12):
            coef = rng.standard_normal(6)
            v = sum(c * np.sin((j + 1) * math.pi * s) for j, c in enumerate(coef))
            assert second_variation_radial(GridFunction(r, v), d, b) > 0.0

    @pytest.mark.parametrize("delta, b, message", [
        (math.nan, 0.4, r"anisotropy must lie in \[0,1\], got nan"),
        (7.0, 0.4, r"anisotropy must lie in \[0,1\], got 7.0"),
        (-0.5, 0.4, r"anisotropy must lie in \[0,1\], got -0.5"),
        (0.5, math.nan, "radius ratio b must lie in"),
        (0.5, 1.0, "radius ratio b must lie in"),
    ], ids=["nan_delta", "delta_seven", "negative_delta", "nan_b", "b_one"])
    def test_out_of_domain_rejected(self, delta, b, message):
        # delta = nan returned nan and delta = 7 returned -293.6
        eta = radial_eigenprofile(0.4)
        with pytest.raises(ValueError, match=message):
            second_variation_radial(eta, delta, b)


class TestPitchfork:
    def test_amplitude_values(self):
        b = 0.2
        d1 = delta_n(b, 1)
        assert abs(pitchfork_amplitude(d1 + 0.01, b)
                   - math.sqrt(0.02 / d1)) < 1e-14
        assert abs(pitchfork_amplitude(d1 + 0.01, b) - 0.15891) < 5e-5
        # amplitude vanishes continuously at the bifurcation point
        assert pitchfork_amplitude(d1 + 1e-12, b) < 2e-6

    def test_subcritical_raises(self):
        b = 0.2
        with pytest.raises(SubcriticalInput):
            pitchfork_amplitude(delta_n(b, 1), b)
        with pytest.raises(SubcriticalInput):
            pitchfork_amplitude(0.1, b)

    @pytest.mark.parametrize("delta", [math.nan, 1.5])
    def test_rejects_anisotropy_outside_domain(self, delta):
        # nan used to return nan
        with pytest.raises(ValueError, match="anisotropy"):
            pitchfork_amplitude(delta, 0.5)


class TestSpiral:
    def test_exact_solution_at_full_anisotropy(self):
        for b in (0.2, 0.5):
            state = spiral_solve(1.0, b, n_profile=1025)
            t = state.profile.nodes
            g = b / (b + 1.0) * np.exp(t) + 1.0 / (b + 1.0) * np.exp(-t)
            exact = np.arccos(np.clip(g, -1.0, 1.0))
            assert np.max(np.abs(state.profile.values - exact)) < 1e-6
            assert abs(math.cos(state.u_max) - 2.0 * math.sqrt(b) / (1.0 + b)) < 1e-9

    def test_profile_symmetry(self):
        state = spiral_solve(0.9, 0.25, n_profile=513)
        v = state.profile.values
        assert np.max(np.abs(v - v[::-1])) < 1e-6
        assert v[0] == 0.0 and v[-1] == 0.0
        assert abs(np.max(v) - state.u_max) < 1e-12

    def test_single_interior_maximum(self):
        state = spiral_solve(0.95, 0.2, n_profile=513)
        dv = np.diff(state.profile.values)
        sign_flips = np.sum(np.diff(np.sign(dv[dv != 0])) != 0)
        assert sign_flips == 1

    def test_near_critical_matches_pitchfork_mode(self):
        b = 0.2
        d = delta_n(b, 1) + 1e-4
        state = spiral_solve(d, b, n_profile=513)
        amp = pitchfork_amplitude(d, b)
        t = state.profile.nodes
        mode = amp * np.sin(math.pi * t / math.log(1.0 / b))
        assert np.max(np.abs(state.profile.values - mode)) < 0.05 * amp

    def test_ode_residual_small(self):
        state = spiral_solve(0.95, 0.2, n_profile=16385)
        assert spiral_ode_residual(state) < 1e-6

    def test_ode_residual_small_at_lower_anisotropy(self):
        # Any offset between the recovered t(U=0) and the pinned endpoint
        # shows at the first interior node, scaled by 1/h^2.
        state = spiral_solve(0.85, 0.2, n_profile=16385)
        assert spiral_ode_residual(state) < 1e-6

    @pytest.mark.parametrize("delta,b", [(0.85, 0.2), (0.99, 0.69)])
    def test_ode_residual_at_rounding_floor(self, delta, b):
        # Noise in U reaches the residual amplified by 1/h^2: stopping each
        # node at |t(U) - t_i| <= 16 eps t(u_max) instead of adjacent doubles
        # lifts it to 2e-7 at delta = 0.85, which the 1e-6 tests let pass.
        state = spiral_solve(delta, b, n_profile=16385)
        assert spiral_ode_residual(state) < 3e-8

    @pytest.mark.parametrize("delta,b,n_profile", [
        (0.95, 0.2, 4097), (0.85, 0.2, 4097), (1.0, 0.5, 4097),
        (delta_n(0.2, 1) + 1e-4, 0.2, 513), (0.99, 0.69, 1025),
        # weak Newton predictions: dt/dw -> 0 at the pinned end, an offset
        # near resolution, and a profile too steep for the 64-row table
        (1.0, 0.2, 4097), (delta_n(0.2, 1) + 1e-8, 0.2, 4097),
        (0.9, 1e-6, 4097)])
    def test_inversion_ends_on_adjacent_double_sign_change(self, delta, b, n_profile):
        state = spiral_solve(delta, b, n_profile=n_profile)
        ref_u_max, ref_half = reference_spiral_half(delta, b, n_profile)
        assert state.u_max == ref_u_max
        n_half = n_profile // 2
        ref = np.concatenate([[0.0], ref_half[:-1], [ref_u_max], ref_half[-2::-1], [0.0]])
        assert np.max(np.abs(state.profile.values - ref)) < 1e-13

        half = _tail_integral(np.zeros(1), delta, state.u_max)[0]
        t = state.profile.nodes[1:n_half]
        u = state.profile.values[1:n_half]

        def f(x):
            # in whole blocks of four rows, as the solver evaluates it: BLAS
            # sums the trailing rows of a batch in another order
            x4 = np.concatenate([x, np.zeros(-x.size % 4)])
            return half - _tail_integral(x4, delta, state.u_max)[:x.size] - t

        above = f(u) > 0.0
        other = np.where(above, np.nextafter(u, -np.inf), np.nextafter(u, np.inf))
        f_lo = f(np.where(above, other, u))
        f_hi = f(np.where(above, u, other))
        assert np.all((f_lo <= 0.0) & (f_hi > 0.0))

    @pytest.mark.parametrize("delta,b", [(0.95, 0.2), (0.85, 0.2)])
    def test_inversion_cost_per_node(self, monkeypatch, delta, b):
        # quadrature rows per half-profile node, padding and the u_max root
        # find included: a Newton prediction and a bracket a few ulps wide,
        # where the full bracket [0, u_max] took 14-18
        rows = count_tail_rows(monkeypatch)
        spiral_solve(delta, b, n_profile=16385)
        assert sum(rows) / (16385 // 2 - 1) <= 9.0

    def test_unusable_prediction_takes_full_bracket(self, monkeypatch):
        # a non-finite Newton prediction leaves plain bisection on the full
        # bracket, which ends where the reference bisection does
        delta, b, n_profile = 0.95, 0.2, 1025
        rows = count_tail_rows(monkeypatch)
        monkeypatch.setattr(of_strong.np, "interp",
                            lambda t, *args: np.full_like(t, np.nan))
        state = spiral_solve(delta, b, n_profile=n_profile)
        monkeypatch.undo()
        assert sum(rows) / (n_profile // 2 - 1) > 40.0
        ref_u_max, ref_half = reference_spiral_half(delta, b, n_profile)
        assert state.u_max == ref_u_max
        n_half = n_profile // 2
        assert np.max(np.abs(state.profile.values[1:n_half] - ref_half[:-1])) < 1e-13

    def test_ode_residual_at_delta_one(self):
        state = spiral_solve(1.0, 0.2, n_profile=8193)
        assert spiral_ode_residual(state, interior_margin=0.05) < 1e-6

    def test_no_branch_below_critical(self):
        b = 0.2
        with pytest.raises(NoSpiralBranch):
            spiral_solve(delta_n(b, 1) - 1e-6, b)

    def test_rejects_anisotropy_above_one(self):
        with pytest.raises(ValueError, match="anisotropy cannot exceed 1"):
            spiral_solve(1.5, 0.5)

    def test_rejects_nan_anisotropy(self):
        # nan used to raise NoSpiralBranch("failed to bracket the maximum
        # offset"), then "anisotropy cannot exceed 1"
        with pytest.raises(ValueError, match="anisotropy must be a number, got nan"):
            spiral_solve(math.nan, 0.5)

    def test_no_branch_within_rounding_of_critical(self):
        # the half-period integral at the lowest bracket end already
        # reaches the target, so no offset is resolvable
        b = 0.40276956216203735
        with pytest.raises(NoSpiralBranch, match="below resolution") as exc:
            spiral_solve(0.9226864850568275, b, n_profile=5)
        assert repr(delta_n(b, 1)) in str(exc.value)

    @given(spiral_inputs())
    @example((0.8218947974549444, 0.23166874668379783, 5))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_profile_shape_or_no_branch(self, args):
        delta, b, n_profile = args
        try:
            state = spiral_solve(delta, b, n_profile=n_profile)
        except NoSpiralBranch:
            return
        v = state.profile.values
        assert np.all(np.isfinite(v))
        assert np.array_equal(v, v[::-1])
        assert v[0] == 0.0 and v[-1] == 0.0
        assert np.all(np.diff(v[:n_profile // 2 + 1]) >= 0.0)
        assert np.max(v) == state.u_max


class TestTurningPointIntegral:
    # (delta, U, t(U)) at u_max = 1.1 in 40-digit arithmetic from the double
    # inputs; U = 1.099999999999 is the double 1.1 - 1e-12
    TAIL = [
        (0.85, 0.0, 1.757291851555400638381636688840130916476),
        (0.85, 1e-06, 1.757291380190324411980899836614847730515),
        (0.85, 0.55, 1.413374634919075783771769035016952220177),
        (0.85, 1.099999999999, 2.191580857546754774454859336852480141433e-6),
        (0.95, 0.0, 1.545685419112303758968988392094902035138),
        (0.95, 1e-06, 1.545685161691029931605496902571173276509),
        (0.95, 0.55, 1.29727655406228671168779832841074193393),
        (0.95, 1.099999999999, 2.047018367318016628289172195910445248082e-6),
        (0.999, 0.0, 1.431140798115797745301854613671328062501),
        (0.999, 1e-06, 1.431140762614969002695751290069162993991),
        (0.999, 0.55, 1.245426502595121326731139307813755333395),
        (0.999, 1.099999999999, 1.983638449732020351692068992778803227694e-6),
        (0.9999, 0.0, 1.428165630936656736214776526726524201588),
        (0.9999, 1e-06, 1.428165619715362453500233647154695132158),
        (0.9999, 0.55, 1.244500681877386915532527745054785377939),
        (0.9999, 1.099999999999, 1.98251443628286442668160995911756332013e-6),
        (1 - 1e-7, 0.0, 1.427764113078679575997217654033892939992),
        (1 - 1e-7, 1e-06, 1.427764112723848228140384088604651897366),
        (1 - 1e-7, 0.55, 1.244397971830273391505750474137615480614),
        (1 - 1e-7, 1.099999999999, 1.98238975628910611692744143353396653737e-6),
        (1.0, 0.0, 1.427763517217753673876348825744084783018),
        (1.0, 1e-06, 1.427763517217192637217085095955477618912),
        (1.0, 0.55, 1.244397869023019192165779272867388119258),
        (1.0, 1.099999999999, 1.982389631492859846973856721737926301356e-6),
    ]
    # delta -> u_max at b = 0.2, the root of t(0) = log(5)/2, same arithmetic
    U_MAX = {
        0.9999: 0.7293708290343708320662894042145561138729,
        0.99999: 0.7296855530697806587667044853722048052116,
        1 - 1e-7: 0.7297271065020449349803128124893488495975,
    }

    @pytest.mark.parametrize("delta", sorted({row[0] for row in TAIL}))
    def test_matches_reference(self, delta):
        rows = [row for row in self.TAIL if row[0] == delta]
        u = np.array([row[1] for row in rows])
        ref = np.array([row[2] for row in rows])
        assert np.max(np.abs(_tail_integral(u, delta, 1.1) / ref - 1.0)) < 4e-15

    @pytest.mark.parametrize("delta", sorted(U_MAX))
    def test_u_max_near_full_anisotropy(self, delta):
        u_max = spiral_solve(delta, 0.2, n_profile=5).u_max
        assert abs(u_max / self.U_MAX[delta] - 1.0) < 1e-12


def zero_offset_state(b, t):
    from annulus_nematics.of_strong import SpiralState
    return SpiralState(AnnulusGeometry(b), 0.9, 0.0,
                       GridFunction(t, np.zeros_like(t)))


class TestSpiralEnergy:
    def test_closed_form_at_delta_one(self):
        for b in (0.2, 0.5):
            state = spiral_solve(1.0, b, n_profile=4097)
            e = spiral_energy(state, ElasticParams(1.0, 1.0))
            exact = 2.0 * math.pi * (1.0 - b) / (1.0 + b)
            assert abs(e - exact) < 0.005 * exact

    def test_zero_offset_reduces_to_defect_free(self):
        b = 0.3
        t = np.linspace(0.0, math.log(1.0 / b), 257)
        state = zero_offset_state(b, t)
        e = spiral_energy(state, ElasticParams(0.5, 1.3))
        assert abs(e - math.pi * 1.3 * math.log(1.0 / b)) < 1e-10

    def test_below_defect_free_above_critical(self):
        b = 0.2
        free = math.pi * math.log(5.0)
        for d in (0.85, 0.95, 1.0):
            state = spiral_solve(d, b, n_profile=2049)
            assert spiral_energy(state, ElasticParams(d, 1.0)) < free


class TestGeometryTypes:
    def test_annulus_geometry_validation(self):
        AnnulusGeometry(0.5)
        with pytest.raises(ValueError):
            AnnulusGeometry(1.2)

    def test_elastic_params_derived_constant(self):
        p = ElasticParams(0.3, 2.0)
        assert abs(p.k1 - 0.7 * 2.0) < 1e-15
        with pytest.raises(ValueError):
            ElasticParams(1.2)
        with pytest.raises(ValueError):
            ElasticParams(0.5, k3=0.0)

    @pytest.mark.parametrize("k3", [math.nan, math.inf])
    def test_elastic_params_reject_non_finite_k3(self, k3):
        with pytest.raises(ValueError, match="bend constant"):
            ElasticParams(0.3, k3)

    def test_radial_profile_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0, 0.5]), np.zeros(2))


class TestStabilityCoefficient:
    def test_midpoint_equals_one(self):
        for b in (0.2, 0.5, 0.8):
            t_mid = 0.5 * math.log(1.0 / b)
            assert abs(delta1_stability_coefficient(b, t_mid) - 1.0) < 1e-12

    def test_interior_point_above_one(self):
        assert delta1_stability_coefficient(0.5, 0.3) > 1.0

    def test_grid_minimum_at_least_one(self):
        for b in (0.2, 0.5, 0.9):
            t = np.linspace(0.0, math.log(1.0 / b), 1002)[1:-1]
            vals = delta1_stability_coefficient(b, t)
            assert np.min(vals) >= 1.0 - 1e-9

    def test_domain_error_at_endpoints(self):
        with pytest.raises(DomainError):
            delta1_stability_coefficient(0.5, 0.0)
        with pytest.raises(DomainError):
            delta1_stability_coefficient(0.5, math.log(2.0))

    @pytest.mark.parametrize("b", [math.nan, 0.0, 1.5])
    def test_ratio_outside_unit_interval_rejected(self, b):
        # b = nan returned nan
        with pytest.raises(ValueError, match="radius ratio b must lie in"):
            delta1_stability_coefficient(b, 0.3)
