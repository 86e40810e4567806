import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import simpson

from annulus_nematics.ldg import (
    GridMismatch,
    LdGParams,
    Ln_value,
    OrderProfile,
    PropositionReport,
    SQRT_HALF,
    check_propositions,
    ldg_energy,
    min_eig_Ln,
    s_profile_zero_t,
    solve_s,
    solve_u,
    stability_threshold,
    u_profile_zero_t,
)
from annulus_nematics.numerics import GridFunction, NewtonDiverged


def dense_min_eig_Ln(n, b, params, n_nodes):
    """Reference: the unreduced 4m x 4m block form with a dense eigensolve."""
    s = solve_s(b, params, n_nodes=n_nodes)
    r = s.profile.nodes
    sv = s.profile.values
    t = params.t
    m = len(r) - 2
    ri = r[1:-1]
    si = sv[1:-1]
    hcell = np.diff(r)
    r_half = 0.5 * (r[:-1] + r[1:])

    stiff = np.zeros((m, m))
    idx = np.arange(m)
    stiff[idx, idx] = r_half[:-1] / hcell[:-1] + r_half[1:] / hcell[1:]
    stiff[idx[:-1], idx[:-1] + 1] = -r_half[1:-1] / hcell[1:-1]
    stiff[idx[:-1] + 1, idx[:-1]] = -r_half[1:-1] / hcell[1:-1]

    w = 0.5 * (hcell[:-1] + hcell[1:]) * ri
    pot_common = ((n * n + 4.0) / ri ** 2 + t * (2.0 * si ** 2 - 1.0)) * w
    pot_ab = pot_common + 4.0 * t * si ** 2 * w
    couple = 4.0 * n / ri ** 2 * w

    form = np.zeros((4 * m, 4 * m))
    for block, pot in ((0, pot_ab), (1, pot_ab), (2, pot_common), (3, pot_common)):
        sl = slice(block * m, (block + 1) * m)
        form[sl, sl] = stiff + np.diag(pot)
    form[0 * m:1 * m, 3 * m:4 * m] = np.diag(couple)
    form[3 * m:4 * m, 0 * m:1 * m] = np.diag(couple)
    form[1 * m:2 * m, 2 * m:3 * m] = np.diag(-couple)
    form[2 * m:3 * m, 1 * m:2 * m] = np.diag(-couple)
    scale = 1.0 / np.sqrt(np.tile(w, 4))
    sym = form * scale[:, None] * scale[None, :]
    return float(scipy.linalg.eigvalsh(sym, subset_by_index=(0, 0))[0])


def analytic_s_state(b, n=20001, t=0.0):
    r = np.linspace(b, 1.0, n)
    return OrderProfile("s_profile", GridFunction(r, s_profile_zero_t(b, r)),
                        LdGParams(t), b)


def sine_profile(r, b, coefs):
    xi = (r - b) / (1.0 - b)
    v = sum(c * np.sin((j + 1) * np.pi * xi) for j, c in enumerate(coefs))
    return GridFunction(r, v)


class TestSolveS:
    def test_zero_t_closed_form(self):
        b = 0.5
        prof = solve_s(b, LdGParams(0.0), n_nodes=1601)
        exact = s_profile_zero_t(b, prof.profile.nodes)
        assert np.max(np.abs(prof.profile.values - exact)) < 1e-8

    def test_zero_t_minimum_location_and_value(self):
        b = 0.5
        prof = solve_s(b, LdGParams(0.0), n_nodes=1601)
        i = int(np.argmin(prof.profile.values))
        assert abs(prof.profile.nodes[i] - math.sqrt(b)) < 1e-12
        assert abs(prof.profile.values[i] - math.sqrt(2.0) * b / (b * b + 1.0)) < 1e-8

    def test_maximum_principle(self):
        for b, t in ((0.3, 10.0), (0.5, 80.0), (0.7, 5.0)):
            prof = solve_s(b, LdGParams(t))
            assert np.max(prof.profile.values) <= SQRT_HALF + 1e-9
            assert np.min(prof.profile.values) > 0.0

    def test_large_t_minimum_bound(self):
        b, t = 0.5, 200.0
        prof = solve_s(b, LdGParams(t))
        smin = float(np.min(prof.profile.values))
        assert math.sqrt(0.5 - 2.0 / (t * b * b)) <= smin <= SQRT_HALF

    def test_geometry_bound_all_t(self):
        for b, t in ((0.3, 0.0), (0.5, 50.0), (0.8, 500.0)):
            prof = solve_s(b, LdGParams(t))
            bound = math.sqrt(2.0) * b / (b * b + 1.0)
            assert np.min(prof.profile.values) >= bound - 1e-7

    def test_solution_outside_bounds_is_solver_failure(self):
        # at t = 1e300 on 50 nodes Newton ends on a profile that leaves
        # (0, 1/sqrt 2]; the same values built by a caller stay a ValueError
        with pytest.raises(NewtonDiverged, match="maximum principle") as info:
            solve_s(1e-9, LdGParams(1e300), n_nodes=50)
        bad = info.value.__cause__
        assert isinstance(bad, ValueError) and "(0, 1/sqrt(2)]" in str(bad)


class TestSolveU:
    def test_zero_t_closed_form(self):
        b = 0.4
        prof = solve_u(b, LdGParams(0.0), n_nodes=1601)
        exact = u_profile_zero_t(b, prof.profile.nodes)
        assert np.max(np.abs(prof.profile.values - exact)) < 1e-8

    def test_below_s_and_monotone(self):
        b, t = 0.5, 50.0
        u = solve_u(b, LdGParams(t))
        s = solve_s(b, LdGParams(t))
        assert np.max(u.profile.values - s.profile.values) <= 1e-10
        assert np.min(np.diff(u.profile.values)) >= -1e-10


class TestEnergy:
    def test_solution_beats_constant_trial(self):
        b, t = 0.5, 20.0
        r = np.linspace(b, 1.0, 2001)
        trial = OrderProfile("s_profile", GridFunction(r, np.full_like(r, SQRT_HALF)),
                             LdGParams(t), b)
        e_trial = ldg_energy(trial)
        # constant order: only the bending term 4 s^2 / r^2 survives
        assert abs(e_trial - 4.0 * math.pi * math.log(1.0 / b)) < 1e-10
        e_solved = ldg_energy(solve_s(b, LdGParams(t)))
        assert e_solved < e_trial

    def test_zero_t_quadrature_oracle(self):
        b = 0.5
        r = np.linspace(b, 1.0, 200001)
        s = s_profile_zero_t(b, r)
        sp = (2.0 * r - 2.0 * b * b / r ** 3) * SQRT_HALF / (1.0 + b * b)
        oracle = 2.0 * math.pi * float(simpson((sp ** 2 + 4.0 * s ** 2 / r ** 2) * r, x=r))
        val = ldg_energy(solve_s(b, LdGParams(0.0), n_nodes=1601))
        assert abs(val - oracle) < 1e-7 * abs(oracle)

    def test_energy_grid_converged(self):
        b, t = 0.4, 30.0
        e1 = ldg_energy(solve_s(b, LdGParams(t), n_nodes=801))
        e2 = ldg_energy(solve_s(b, LdGParams(t), n_nodes=1601))
        assert abs(e2 - e1) < 1e-6 * abs(e2)


class TestLnValue:
    def test_zero_components(self):
        s = analytic_s_state(0.5)
        zero = GridFunction(s.profile.nodes, np.zeros_like(s.profile.nodes))
        assert Ln_value(1, zero, zero, zero, zero, s) == 0.0

    def test_block_monotonicity_on_quadruples(self):
        rng = np.random.default_rng(5)
        s = analytic_s_state(0.5, n=4001)
        r = s.profile.nodes
        for _ in range(10):
            comps = [sine_profile(r, 0.5, rng.standard_normal(5)) for _ in range(4)]
            for n in (1, 2, 3):
                gap = Ln_value(n + 2, *comps, s) - Ln_value(n, *comps, s)
                assert gap >= -1e-10

    def test_hardy_identity(self):
        # with both active components premultiplied by s, the zeroth block
        # telescopes to weighted Dirichlet integrals of the bare factors
        b = 0.5
        s = analytic_s_state(b)
        r = s.profile.nodes
        sv = s.profile.values
        xi = (r - b) / (1.0 - b)
        a_raw = np.sin(np.pi * xi)
        c_raw = np.sin(2.0 * np.pi * xi) + 0.3 * np.sin(np.pi * xi)
        zero = GridFunction(r, np.zeros_like(r))
        a0 = GridFunction(r, sv * a_raw)
        c0 = GridFunction(r, sv * c_raw)
        lhs = Ln_value(0, a0, zero, c0, zero, s)
        ap = np.pi / (1.0 - b) * np.cos(np.pi * xi)
        cp = (2.0 * np.pi * np.cos(2.0 * np.pi * xi)
              + 0.3 * np.pi * np.cos(np.pi * xi)) / (1.0 - b)
        rhs = float(simpson(sv ** 2 * (ap ** 2 + cp ** 2) * r, x=r))
        assert abs(lhs - rhs) < 1e-8

    def test_grid_mismatch(self):
        s = analytic_s_state(0.5, n=101)
        other = np.linspace(0.5, 1.0, 99)
        bad = GridFunction(other, np.zeros_like(other))
        good = GridFunction(s.profile.nodes, np.zeros_like(s.profile.nodes))
        with pytest.raises(GridMismatch):
            Ln_value(0, bad, good, good, good, s)


class TestMinEig:
    def test_zero_block_positive(self):
        for b, t in ((0.4, 5.0), (0.6, 60.0)):
            assert min_eig_Ln(0, b, LdGParams(t)) > 0.0

    def test_first_block_positive_above_threshold(self):
        b = 0.5
        assert min_eig_Ln(1, b, LdGParams(2.0 * stability_threshold(b))) > 0.0

    def test_second_block_positive_at_twice_threshold(self):
        b = 0.5
        assert min_eig_Ln(2, b, LdGParams(2.0 * stability_threshold(b))) > 0.0

    def test_eigen_monotonicity_above_threshold(self):
        b = 0.5
        params = LdGParams(1.05 * stability_threshold(b))
        eigs = [min_eig_Ln(n, b, params) for n in (0, 1, 2, 3)]
        assert eigs[2] >= eigs[0]
        assert eigs[3] >= eigs[1]

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_reduced_band_matches_dense_block(self, b):
        params = LdGParams(1.05 * stability_threshold(b))
        for n in (0, 1, 2, 3):
            lam = min_eig_Ln(n, b, params, n_nodes=201)
            ref = dense_min_eig_Ln(n, b, params, n_nodes=201)
            assert abs(lam - ref) <= 1e-9 * abs(ref), (n, lam, ref)

    def test_rejects_negative_block_index(self):
        with pytest.raises(ValueError):
            min_eig_Ln(-2, 0.5, LdGParams(40.0), n_nodes=201)


class TestThreshold:
    def test_values(self):
        assert abs(stability_threshold(0.5) - 37.5) < 1e-12
        assert abs(stability_threshold(1.0 - 1e-9) - 6.0) < 1e-6
        b = 1e-3
        assert abs(stability_threshold(b) * b ** 4 - 1.5) < 1e-5


class TestPropositions:
    def test_all_flags_hold(self):
        rep = check_propositions(0.5, LdGParams(100.0))
        assert isinstance(rep, PropositionReport)
        assert rep.u_monotone and rep.u_below_s and rep.s_has_interior_min
        assert rep.s_min_bound and rep.golovaty_bound

    def test_minimum_rises_with_t(self):
        mins = [check_propositions(0.5, LdGParams(t), n_nodes=801).s_min
                for t in (10.0, 100.0, 1000.0)]
        assert mins[0] < mins[1] < mins[2] < SQRT_HALF

    def test_zero_t_attains_geometry_bound(self):
        rep = check_propositions(0.5, LdGParams(0.0), n_nodes=801)
        assert rep.golovaty_bound
        assert abs(rep.s_min - math.sqrt(2.0) * 0.5 / 1.25) < 1e-7
        assert abs(rep.r_star - math.sqrt(0.5)) < 1e-3


def test_m_system_satisfied_by_companion_profile():
    # the transverse-block lower bound is weakly minimized by (u', 2u/r)
    t, b = 20.0, 0.5
    u = solve_u(b, LdGParams(t), n_nodes=2001)
    r, uv = u.profile.nodes, u.profile.values
    up = np.gradient(uv, r, edge_order=2)
    big_a, big_d = up, 2.0 * uv / r
    ap = np.gradient(big_a, r, edge_order=2)
    app = np.gradient(ap, r, edge_order=2)
    dp = np.gradient(big_d, r, edge_order=2)
    dpp = np.gradient(dp, r, edge_order=2)
    res_a = app + ap / r - 5.0 * big_a / r ** 2 + 4.0 * big_d / r ** 2 \
        - t * big_a * (6.0 * uv ** 2 - 1.0)
    res_d = dpp + dp / r - 5.0 * big_d / r ** 2 + 4.0 * big_a / r ** 2 \
        - t * big_d * (2.0 * uv ** 2 - 1.0)
    interior = slice(20, -20)
    assert np.max(np.abs(res_a[interior])) < 1e-3
    assert np.max(np.abs(res_d[interior])) < 1e-3
