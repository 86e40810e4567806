import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from annulus_nematics.harmonic import state_coefficients, total_energy
from annulus_nematics.of_strong import delta_n, pitchfork_amplitude
from annulus_nematics.numerics import NewtonDiverged
from annulus_nematics.of_weak import AnchoringParams, delta_weak
from annulus_nematics.pde import (
    _NewtonSystem,
    _derivative_fields,
    _padded,
    _residual,
    BoundaryConditions,
    DirectorField,
    PolarGrid,
    SingularAnisotropy,
    anisotropic_state_energy,
    bifurcation_scan,
    corner_pin_mask,
    defect_free_field,
    of_energy_2d,
    sector_state_field,
    solve_el,
    stability_probe,
)


def corner_distance(grid):
    xx, pp = grid.mesh()
    x_in, x_out = math.log(grid.b), 0.0
    p0, p1 = grid.phi_nodes[0], grid.phi_nodes[-1]
    d2 = np.minimum.reduce([(xx - cx) ** 2 + (pp - cp) ** 2
                            for cx in (x_in, x_out) for cp in (p0, p1)])
    return np.sqrt(d2)


class TestGrids:
    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            PolarGrid.annulus(0.5, 8, 32)

    def test_sector_spacing_uniform(self):
        grid = PolarGrid.sector(0.4, 3, 33, 17)
        x = np.log(grid.r_nodes)
        assert np.allclose(np.diff(x), x[1] - x[0])
        assert abs(grid.phi_nodes[-1] - 2.0 * math.pi / 3) < 1e-14

    @pytest.mark.parametrize("eps_core", [0.0, -0.1])
    def test_pin_radius_must_be_positive(self, eps_core):
        # a negative radius used to pin the cores of its absolute value
        grid = PolarGrid.sector(0.3, 2, 33, 33)
        with pytest.raises(ValueError, match="positive"):
            corner_pin_mask(grid, eps_core)

    def test_overflowing_core_radius_pins_everything(self):
        # the inner disk radius eps / b = 1e300 squares past the float range
        grid = PolarGrid.sector(1e-300, 7, 17, 17)
        assert corner_pin_mask(grid, 1.0).all()


class TestFixedPoint:
    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    def test_dirichlet(self, delta):
        grid = PolarGrid.annulus(0.3, 48, 32)
        fld = defect_free_field(grid)
        out, rep = solve_el(grid, delta, BoundaryConditions(), fld)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(out.theta, fld.theta)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    def test_robin(self, delta):
        grid = PolarGrid.annulus(0.3, 48, 32)
        bc = BoundaryConditions(kind="robin", anchoring=AnchoringParams(0.7))
        fld = defect_free_field(grid, bc)
        out, rep = solve_el(grid, delta, bc, fld)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(out.theta, fld.theta)

    def test_singular_anisotropy_rejected(self):
        grid = PolarGrid.annulus(0.3, 48, 32)
        fld = defect_free_field(grid)
        with pytest.raises(SingularAnisotropy):
            solve_el(grid, 0.995, BoundaryConditions(), fld)

    def test_weak_anchoring_needs_annulus(self):
        grid = PolarGrid.sector(0.3, 2, 33, 33)
        bc = BoundaryConditions(kind="robin", anchoring=AnchoringParams(0.7))
        fld = sector_state_field(grid, state_coefficients("U2", 2), bc)
        with pytest.raises(ValueError):
            solve_el(grid, 0.5, bc, fld)


class TestSectorSolve:
    def test_matches_series_oracle_with_refinement(self):
        b, N = 0.5, 4
        spec = state_coefficients("U2", N)
        errs = []
        for n in (65, 129, 257):
            grid = PolarGrid.sector(b, N, n, n)
            ref = sector_state_field(grid, spec)
            bc = BoundaryConditions(pin_mask=corner_pin_mask(grid, 0.08))
            out, rep = solve_el(grid, 0.0, bc,
                                DirectorField(grid, ref.theta, bc))
            keep = corner_distance(grid) > 0.15
            errs.append(float(np.max(np.abs((out.theta - ref.theta)[keep]))))
        assert errs[0] / errs[1] >= 3.5
        assert math.log2(errs[1] / errs[2]) >= 1.8

    def test_energy_history_monotone_within_allowance(self):
        b, N = 0.5, 4
        grid = PolarGrid.sector(b, N, 65, 65)
        spec = state_coefficients("U2", N)
        ref = sector_state_field(grid, spec)
        bc = BoundaryConditions(pin_mask=corner_pin_mask(grid, 0.08))
        rng = np.random.default_rng(0)
        noisy = ref.theta + 0.05 * np.sin(3 * ref.theta) * rng.random(ref.theta.shape)
        noisy[0, :] = ref.theta[0, :]
        noisy[-1, :] = ref.theta[-1, :]
        noisy[:, 0] = ref.theta[:, 0]
        noisy[:, -1] = ref.theta[:, -1]
        noisy[bc.pin_mask] = ref.theta[bc.pin_mask]
        out, rep = solve_el(grid, 0.3, bc, DirectorField(grid, noisy, bc))
        hist = np.asarray(rep.energy_history)
        slack = 0.1 * (grid.hx ** 2 + grid.hp ** 2) * (1.0 + abs(hist[0]))
        assert np.max(np.diff(hist)) <= slack * 1.0001

    def test_anisotropic_field_close_to_isotropic(self):
        # structure persists under strong anisotropy, deformation bounded
        b, N = 0.25, 2
        grid = PolarGrid.sector(b, N, 65, 65)
        spec = state_coefficients("U2", N)
        ref = sector_state_field(grid, spec)
        bc = BoundaryConditions(pin_mask=corner_pin_mask(grid, 0.1))
        current = DirectorField(grid, ref.theta, bc)
        for d in (0.3, 0.6, 0.9):
            current, rep = solve_el(grid, d, bc, current)
            assert rep.converged
        dev = np.max(np.abs(current.theta - ref.theta))
        assert 1e-4 < dev < 1.0


class TestEnergy2d:
    def test_defect_free_energy_exact(self):
        grid = PolarGrid.annulus(0.3, 48, 32)
        fld = defect_free_field(grid)
        for d in (0.0, 0.5, 0.9):
            e = of_energy_2d(fld, d, k3=1.3)
            assert abs(e - 1.3 * math.pi * math.log(1.0 / 0.3)) < 1e-10

    def test_defect_state_matches_closed_form(self):
        b, N, eps = 0.5, 4, 0.008
        grid = PolarGrid.sector(b, N, 385, 385)
        fld = sector_state_field(grid, state_coefficients("U2", N))
        e = of_energy_2d(fld, 0.0, 1.0, eps=eps)
        closed = total_energy("U2", N, b, eps, K=1.0)
        assert abs(e - closed) < 0.01 * closed

    def test_core_exclusion_needs_sector(self):
        grid = PolarGrid.annulus(0.3, 48, 32)
        fld = defect_free_field(grid)
        with pytest.raises(ValueError):
            of_energy_2d(fld, 0.0, eps=0.01)


class TestBifurcation:
    def test_subcritical_decay(self):
        b = 0.2
        d1 = delta_n(b, 1)
        pts = bifurcation_scan(b, [d1 - 0.02], 0.3)
        assert pts[0][1] < 1e-6

    def test_amplitude_matches_pitchfork(self):
        b = 0.2
        d1 = delta_n(b, 1)
        pts = bifurcation_scan(b, [d1 + 0.01], 0.3)
        expect = pitchfork_amplitude(d1 + 0.01, b)
        assert abs(pts[0][1] - expect) < 0.1 * expect

    def test_square_root_scaling(self):
        b = 0.2
        d1 = delta_n(b, 1)
        offsets = [2e-3, 8e-3, 3e-2]
        pts = bifurcation_scan(b, [d1 + o for o in offsets], 0.4)
        amps = np.array([a for _, a in pts])
        slope = np.polyfit(np.log(offsets), np.log(amps), 1)[0]
        assert abs(slope - 0.5) < 0.05


def dense_stability_probe(delta, b, k, alpha=None, n_nodes=801):
    """Reference: the log-radius probe form as a dense matrix, dense eigensolve.

    ``alpha`` None means Dirichlet rows; otherwise Robin rows with that
    anchoring strength.
    """
    x = np.linspace(-math.log(1.0 / b), 0.0, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    idx = np.arange(n_nodes - 1)
    stiff = np.zeros((n_nodes, n_nodes))
    stiff[idx, idx] += 1.0 / h
    stiff[idx + 1, idx + 1] += 1.0 / h
    stiff[idx, idx + 1] -= 1.0 / h
    stiff[idx + 1, idx] -= 1.0 / h
    form = (1.0 - delta) * stiff + np.diag((k * k - delta) * w)
    sl = slice(1, -1)
    if alpha is not None:
        form[-1, -1] += alpha - delta
        form[0, 0] += alpha * b + delta
        sl = slice(None)
    scale = 1.0 / np.sqrt(w * np.exp(2.0 * x))[sl]
    sym = form[sl, sl] * scale[:, None] * scale[None, :]
    return float(scipy.linalg.eigvalsh(sym, subset_by_index=(0, 0))[0])


class TestStabilityProbe:
    def test_null_mode_at_critical(self):
        for b in (0.2, 0.5):
            grid = PolarGrid.annulus(b, 48, 32)
            base = defect_free_field(grid)
            assert abs(stability_probe(base, delta_n(b, 1), b, 0)) < 1e-4

    def test_positive_at_zero_anisotropy(self):
        b = 0.5
        grid = PolarGrid.annulus(b, 48, 32)
        base = defect_free_field(grid)
        for k in (0, 1, 2):
            assert stability_probe(base, 0.0, b, k) > 0.0

    def test_weak_anchoring_azimuthal_instability(self):
        b, alpha = 0.5, 0.5
        d11 = delta_weak(alpha, b, 1)
        grid = PolarGrid.annulus(b, 48, 32)
        bc = BoundaryConditions(kind="robin", anchoring=AnchoringParams(alpha))
        base = defect_free_field(grid, bc)
        assert stability_probe(base, d11 + 0.01, b, 1) < 0.0
        assert stability_probe(base, d11 - 0.01, b, 1) > 0.0

    def test_sign_agreement_with_critical_curves(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            b = float(rng.uniform(0.15, 0.85))
            k = int(rng.integers(0, 3))
            alpha = float(rng.uniform(0.1, 4.0))
            dcrit = delta_weak(alpha, b, k)
            grid = PolarGrid.annulus(b, 48, 32)
            bc = BoundaryConditions(kind="robin", anchoring=AnchoringParams(alpha))
            base = defect_free_field(grid, bc)
            if dcrit is None:
                assert stability_probe(base, 0.97, b, k) > 0.0
            else:
                assert stability_probe(base, max(dcrit - 0.005, 1e-3), b, k) > 0.0
                assert stability_probe(base, min(dcrit + 0.005, 0.9999), b, k) < 0.0

    def test_band_matches_dense_reference(self):
        # at b=0.5, alpha=0.5 every order k=0..2 has a Robin crossing
        b, alpha = 0.5, 0.5
        grid = PolarGrid.annulus(b, 48, 32)
        robin = BoundaryConditions(kind="robin", anchoring=AnchoringParams(alpha))
        cases = [(defect_free_field(grid), None),
                 (defect_free_field(grid, robin), alpha)]
        for base, a in cases:
            for k in (0, 1, 2):
                if a is None:
                    dcrit = delta_n(b, 1) if k == 0 else None
                else:
                    dcrit = delta_weak(a, b, k)
                for d in (0.0, 0.3, 0.6, 0.9, 0.99):
                    if dcrit is not None and abs(d - dcrit) < 0.05:
                        continue
                    lam = stability_probe(base, d, b, k)
                    ref = dense_stability_probe(d, b, k, a)
                    assert abs(lam - ref) <= 1e-9 * abs(ref), (a, k, d, lam, ref)

    def test_requires_defect_free_base(self):
        grid = PolarGrid.annulus(0.5, 48, 32)
        fld = defect_free_field(grid)
        fld.theta = fld.theta + 0.3 * np.sin(np.log(grid.r_nodes))[:, None]
        with pytest.raises(ValueError):
            stability_probe(fld, 0.5, 0.5, 0)


class TestAnisotropicEnergy:
    def test_consistent_with_closed_form_at_zero(self):
        est = anisotropic_state_energy(0.25, 2, "U2", 0.0, eps=0.002)
        closed = total_energy("U2", 2, 0.25, 0.002, K=1.0)
        assert abs(est - closed) < 0.01 * closed

    def test_u2_remains_minimal_under_anisotropy(self):
        # strong-anisotropy analogue of the two-sector energy table
        b, N, eps = 0.3, 2, 0.002
        energies = {kind: anisotropic_state_energy(b, N, kind, 0.9, eps, nr=97)
                    for kind in ("U1", "U2", "U3", "D")}
        assert energies["U2"] == min(energies.values())


TWO_PI = 2.0 * math.pi


def reference_roll_phi(arr, shift):
    """Reference: azimuthal neighbour by np.roll, 2*pi added across the seam."""
    out = np.roll(arr, shift, axis=1)
    if shift == -1:
        out[:, -1] += TWO_PI
    else:
        out[:, 0] -= TWO_PI
    return out


def reference_derivative_fields(grid, theta):
    """Reference: central differences from eight hand-shifted copies."""
    hx, hp = grid.hx, grid.hp
    if grid.periodic:
        tn = reference_roll_phi(theta, -1)
        ts = reference_roll_phi(theta, 1)
    else:
        tn = np.empty_like(theta)
        ts = np.empty_like(theta)
        tn[:, :-1] = theta[:, 1:]
        tn[:, -1] = theta[:, -1]
        ts[:, 1:] = theta[:, :-1]
        ts[:, 0] = theta[:, 0]
    te = np.empty_like(theta)
    tw = np.empty_like(theta)
    te[:-1, :] = theta[1:, :]
    te[-1, :] = theta[-1, :]
    tw[1:, :] = theta[:-1, :]
    tw[0, :] = theta[0, :]
    t_x = (te - tw) / (2.0 * hx)
    t_p = (tn - ts) / (2.0 * hp)
    t_xx = (te - 2.0 * theta + tw) / hx ** 2
    t_pp = (tn - 2.0 * theta + ts) / hp ** 2
    if grid.periodic:
        tne = reference_roll_phi(te, -1)
        tse = reference_roll_phi(te, 1)
        tnw = reference_roll_phi(tw, -1)
        tsw = reference_roll_phi(tw, 1)
    else:
        tne = np.empty_like(theta)
        tse = np.empty_like(theta)
        tnw = np.empty_like(theta)
        tsw = np.empty_like(theta)
        tne[:, :-1] = te[:, 1:]
        tne[:, -1] = te[:, -1]
        tse[:, 1:] = te[:, :-1]
        tse[:, 0] = te[:, 0]
        tnw[:, :-1] = tw[:, 1:]
        tnw[:, -1] = tw[:, -1]
        tsw[:, 1:] = tw[:, :-1]
        tsw[:, 0] = tw[:, 0]
    t_xp = (tne - tse - tnw + tsw) / (4.0 * hx * hp)
    return t_x, t_p, t_xx, t_pp, t_xp


def reference_interior_residual(grid, theta, delta):
    """Reference: pointwise residual from the hand-shifted derivative fields."""
    _, pp = grid.mesh()
    t_x, t_p, t_xx, t_pp, t_xp = reference_derivative_fields(grid, theta)
    big = 2.0 * theta - 2.0 * pp
    s, c = np.sin(big), np.cos(big)
    beta = 2.0 * t_xp + t_p ** 2 - t_x ** 2 - 2.0 * t_p
    gamma = t_xx - 2.0 * t_x - t_pp + 2.0 * t_x * t_p
    res = (1.0 - 0.5 * delta) * (t_xx + t_pp) + 0.5 * delta * (s * beta + c * gamma)
    return res, (t_x, t_p, s, c, beta, gamma)


def reference_robin_residual(grid, theta, delta, alpha, side):
    """Reference: weak-anchoring row with the azimuthal difference by np.roll."""
    hx = grid.hx
    if side == "outer":
        t_x = (3.0 * theta[-1] - 4.0 * theta[-2] + theta[-3]) / (2.0 * hx)
        row = theta[-1]
        surf = -0.5 * alpha
    else:
        t_x = (-3.0 * theta[0] + 4.0 * theta[1] - theta[2]) / (2.0 * hx)
        row = theta[0]
        surf = 0.5 * alpha * grid.b
    row2 = row[None, :]
    t_p = (reference_roll_phi(row2, -1) - reference_roll_phi(row2, 1))[0] \
        / (2.0 * grid.hp)
    big = 2.0 * row - 2.0 * grid.phi_nodes
    s, c = np.sin(big), np.cos(big)
    res = 0.5 * (2.0 - delta) * t_x + 0.5 * delta * (t_p * s + t_x * c) + surf * s
    return res, (t_x, t_p, s, c)


def reference_energy(grid, theta, delta, k3):
    """Reference: cell-midpoint energy with the seam closed by concatenation."""
    xx, pp = grid.mesh()
    if grid.periodic:
        th = np.concatenate([theta, theta[:, :1] + TWO_PI], axis=1)
        ph = np.concatenate([pp, pp[:, :1] + TWO_PI], axis=1)
    else:
        th, ph = theta, pp
    hx, hp = grid.hx, grid.hp
    t_x = (th[1:, 1:] + th[1:, :-1] - th[:-1, 1:] - th[:-1, :-1]) / (2.0 * hx)
    t_p = (th[1:, 1:] - th[1:, :-1] + th[:-1, 1:] - th[:-1, :-1]) / (2.0 * hp)
    t_c = 0.25 * (th[1:, 1:] + th[1:, :-1] + th[:-1, 1:] + th[:-1, :-1])
    p_c = 0.25 * (ph[1:, 1:] + ph[1:, :-1] + ph[:-1, 1:] + ph[:-1, :-1])
    diff = t_c - p_c
    splay = np.cos(diff) * t_p - np.sin(diff) * t_x
    bend = np.sin(diff) * t_p + np.cos(diff) * t_x
    k1 = (1.0 - delta) * k3
    dens = 0.5 * k1 * splay ** 2 + 0.5 * k3 * bend ** 2
    return float(np.sum(dens)) * hx * hp


def reference_assembly(grid, theta, delta, bc, active):
    """Reference: COO assembly of the Newton system in row-major numbering.

    Builds every stencil and Robin entry from 8-neighbour index tables and
    lets scipy sum and sort them into CSR.  The residual fields come from
    the reference hand-shifted stencil, not from the code under test.
    """
    nr, nphi = grid.nr, grid.nphi
    hx, hp = grid.hx, grid.hp
    unknown_of = np.full((nr, nphi), -1)
    unknown_of[active] = np.arange(int(active.sum()))
    ii, jj = np.meshgrid(np.arange(nr), np.arange(nphi), indexing="ij")
    if grid.periodic:
        jp, jm = (jj + 1) % nphi, (jj - 1) % nphi
    else:
        jp, jm = np.clip(jj + 1, 0, nphi - 1), np.clip(jj - 1, 0, nphi - 1)
    ipl, imn = np.clip(ii + 1, 0, nr - 1), np.clip(ii - 1, 0, nr - 1)
    tables = {"c": (ii, jj), "e": (ipl, jj), "w": (imn, jj), "n": (ii, jp),
              "s": (ii, jm), "ne": (ipl, jp), "nw": (imn, jp),
              "se": (ipl, jm), "sw": (imn, jm)}

    res_grid, (t_x, t_p, s, c, beta, gamma) = reference_interior_residual(grid, theta,
                                                                         delta)
    a_coef = 1.0 - 0.5 * delta
    d_xx = a_coef + 0.5 * delta * c
    d_pp = a_coef - 0.5 * delta * c
    d_xp = delta * s
    d_p1 = delta * (-s * t_x + c * (t_p - 1.0))
    d_q1 = delta * (s * (t_p - 1.0) + c * t_x)
    d_cc = delta * (c * beta - s * gamma)
    stencil = {
        "c": (-2.0 * d_xx / hx ** 2 - 2.0 * d_pp / hp ** 2 + d_cc),
        "e": (d_xx / hx ** 2 + d_p1 / (2.0 * hx)),
        "w": (d_xx / hx ** 2 - d_p1 / (2.0 * hx)),
        "n": (d_pp / hp ** 2 + d_q1 / (2.0 * hp)),
        "s": (d_pp / hp ** 2 - d_q1 / (2.0 * hp)),
        "ne": (d_xp / (4.0 * hx * hp)),
        "sw": (d_xp / (4.0 * hx * hp)),
        "nw": (-d_xp / (4.0 * hx * hp)),
        "se": (-d_xp / (4.0 * hx * hp)),
    }
    n = int(active.sum())
    rhs = np.zeros(n)
    interior = active.copy()
    interior[0, :] = False
    interior[-1, :] = False
    rows, cols, vals = [], [], []
    urow = unknown_of[interior]
    rhs[urow] = res_grid[interior]
    for key, coef in stencil.items():
        ti, tj = tables[key]
        uu = unknown_of[ti[interior], tj[interior]]
        keep = uu >= 0
        rows.append(urow[keep])
        cols.append(uu[keep])
        vals.append(coef[interior][keep])
    if bc.kind == "robin":
        alpha = bc.anchoring.alpha
        for side, irows in (("inner", (0, 1, 2)), ("outer", (nr - 1, nr - 2, nr - 3))):
            res_b, (bt_x, bt_p, bs, bc_) = reference_robin_residual(grid, theta, delta,
                                                                    alpha, side)
            surf = -0.5 * alpha if side == "outer" else 0.5 * alpha * grid.b
            xw = (3.0, -4.0, 1.0) if side == "outer" else (-3.0, 4.0, -1.0)
            dg_dx = 0.5 * (2.0 - delta) + 0.5 * delta * bc_
            dg_dp = 0.5 * delta * bs
            dg_dc = delta * (bt_p * bc_ - bt_x * bs) + 2.0 * surf * bc_
            j_idx = np.arange(nphi)
            urow_b = unknown_of[irows[0], :]
            rhs[urow_b] = res_b
            entries = [
                (irows[0], j_idx, dg_dx * xw[0] / (2.0 * hx) + dg_dc),
                (irows[1], j_idx, dg_dx * xw[1] / (2.0 * hx)),
                (irows[2], j_idx, dg_dx * xw[2] / (2.0 * hx)),
                (irows[0], (j_idx + 1) % nphi, dg_dp / (2.0 * hp)),
                (irows[0], (j_idx - 1) % nphi, -dg_dp / (2.0 * hp)),
            ]
            for ti, tj, vv in entries:
                uu = unknown_of[ti, tj]
                keep = uu >= 0
                rows.append(urow_b[keep])
                cols.append(uu[keep])
                vals.append(np.asarray(vv)[keep])
    jac = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return rhs, jac


def active_nodes(grid, bc):
    active = np.ones((grid.nr, grid.nphi), dtype=bool)
    if bc.kind == "dirichlet":
        active[0, :] = active[-1, :] = False
    if not grid.periodic:
        active[:, 0] = active[:, -1] = False
    if bc.pin_mask is not None:
        active &= ~bc.pin_mask
    return active


def newton_cases():
    """(name, grid, bc, two off-equilibrium states, delta) per case."""
    sector = PolarGrid.sector(0.3, 2, 33, 47)
    ref = sector_state_field(sector, state_coefficients("U2", 2, full_annulus=False))
    pinned = BoundaryConditions(pin_mask=corner_pin_mask(sector, 0.15))
    annulus = PolarGrid.annulus(0.3, 24, 20)
    xx, pp = annulus.mesh()
    free = pp + 0.5 * math.pi
    robin = BoundaryConditions(kind="robin", anchoring=AnchoringParams(0.7))
    bump_s = np.sin(math.pi * (np.log(sector.r_nodes) / math.log(0.3)))[:, None] \
        * np.sin(2.0 * sector.phi_nodes)[None, :]
    bump_a = np.sin(math.pi * xx / math.log(0.3)) * np.cos(pp)
    return [
        ("pinned_sector", sector, pinned,
         (ref.theta + 0.05 * bump_s, ref.theta - 0.1 * bump_s ** 2), 0.6),
        ("dirichlet_annulus", annulus, BoundaryConditions(),
         (free + 0.2 * bump_a, free + 0.1 * bump_a ** 3), 0.7),
        ("robin_annulus", annulus, robin,
         (free + 0.2 * np.cos(pp) + 0.1 * xx, free - 0.3 * np.sin(2 * pp)), 0.5),
    ]


def assemble(system, theta, delta):
    """Newton system at theta, from one residual evaluation."""
    bc = system.bc
    alpha = bc.anchoring.alpha if bc.kind == "robin" else None
    return system.assemble(_residual(system.grid, theta, delta, alpha), delta)


@pytest.mark.parametrize("name, grid, bc, states, delta", newton_cases(),
                         ids=[c[0] for c in newton_cases()])
class TestPaddedStencil:
    """The one ghost-padded stencil against the hand-shifted references."""

    def test_derivative_fields_match_reference(self, name, grid, bc, states,
                                               delta):
        for theta in states:
            fields = _derivative_fields(grid, _padded(grid, theta))
            ref = reference_derivative_fields(grid, theta)
            for got, want in zip(fields, ref):
                assert np.array_equal(got, want)

    def test_interior_residual_matches_reference(self, name, grid, bc, states,
                                                 delta):
        for theta in states:
            res, terms, robin = _residual(grid, theta, delta)
            ref, ref_terms = reference_interior_residual(grid, theta, delta)
            assert np.array_equal(res, ref)
            for got, want in zip(terms, ref_terms):
                assert np.array_equal(got, want)
            assert robin == []

    def test_energy_matches_reference(self, name, grid, bc, states, delta):
        for theta in states:
            fld = DirectorField(grid, theta, bc)
            assert of_energy_2d(fld, delta, k3=1.3) \
                == reference_energy(grid, theta, delta, 1.3)


@pytest.mark.parametrize("name, grid, bc, states, delta",
                         [c for c in newton_cases() if c[1].periodic],
                         ids=[c[0] for c in newton_cases() if c[1].periodic])
def test_robin_rows_match_reference(name, grid, bc, states, delta):
    # weak anchoring is only offered on the full annulus
    for theta in states:
        _, _, robin = _residual(grid, theta, delta, 0.7)
        for side, (res_b, bt_x, _) in zip(("inner", "outer"), robin):
            ref, (ref_x, _, _, _) = reference_robin_residual(grid, theta, delta,
                                                             0.7, side)
            assert np.array_equal(res_b, ref)
            assert np.array_equal(bt_x, ref_x)


def test_relaxation_fallback_matches_reference():
    # from this rough start the first Newton step is rejected at every
    # damping, so the iteration falls back to relaxation sweeps
    grid = PolarGrid.sector(0.5, 4, 65, 65)
    bc = BoundaryConditions(pin_mask=corner_pin_mask(grid, 0.08))
    active = active_nodes(grid, bc)
    theta = sector_state_field(grid, state_coefficients("U2", 4)).theta
    theta[active] += 0.8 * np.random.default_rng(0).standard_normal(int(active.sum()))
    delta = 0.9
    with pytest.raises(NewtonDiverged) as info:
        solve_el(grid, delta, bc, DirectorField(grid, theta, bc), max_iter=1)
    rep = info.value.history[0]
    # reference sweeps, each along the residual of the current iterate
    energy = reference_energy(grid, theta, delta, 1.0)
    history = [energy]
    tau = 0.2 * min(grid.hx, grid.hp) ** 2 / (1.0 + delta)
    for _ in range(60):
        res, _ = reference_interior_residual(grid, theta, delta)
        trial = theta.copy()
        trial[active] += tau * res[active]
        e_try = reference_energy(grid, trial, delta, 1.0)
        if e_try <= energy + 1e-14:
            theta, energy = trial, e_try
            history.append(energy)
        else:
            tau *= 0.5
    assert len(history) > 2
    assert rep.energy_history == history
    res, _ = reference_interior_residual(grid, theta, delta)
    assert rep.final_residual == float(np.max(np.abs(res[active])))


@pytest.mark.parametrize("name, grid, bc, states, delta", newton_cases(),
                         ids=[c[0] for c in newton_cases()])
class TestNewtonSystem:
    def test_numbering_is_permutation_of_active_nodes(self, name, grid, bc,
                                                      states, delta):
        active = active_nodes(grid, bc)
        system = _NewtonSystem(grid, bc, active)
        assert system.n == int(active.sum())
        assert np.array_equal(np.sort(system.order), np.flatnonzero(active))

    def test_top_level_halves_decoupled(self, name, grid, bc, states, delta):
        active = active_nodes(grid, bc)
        system = _NewtonSystem(grid, bc, active)
        if grid.periodic:
            # the thin periodic strip keeps row-major numbering
            assert np.array_equal(system.order, np.flatnonzero(active))
            return
        # the first bisection cuts the longer side of the index box at
        # its middle line; both halves come before that separator
        ii, jj = np.divmod(system.order, grid.nphi)
        coord, size = (ii, grid.nr) if grid.nr >= grid.nphi else (jj, grid.nphi)
        mid = size // 2
        n_lo, n_hi = int(np.sum(coord < mid)), int(np.sum(coord > mid))
        assert np.all(coord[:n_lo] < mid)
        assert np.all(coord[n_lo:n_lo + n_hi] > mid)
        assert np.all(coord[n_lo + n_hi:] == mid)
        _, jac = assemble(system, states[0], delta)
        assert jac[:n_lo, n_lo:n_lo + n_hi].nnz == 0
        assert jac[n_lo:n_lo + n_hi, :n_lo].nnz == 0

    def test_refilled_jacobian_matches_reference(self, name, grid, bc, states,
                                                 delta):
        active = active_nodes(grid, bc)
        system = _NewtonSystem(grid, bc, active)
        rank = np.full(grid.nr * grid.nphi, -1)
        rank[np.flatnonzero(active)] = np.arange(system.n)
        row_major = rank[system.order]
        for theta in states:
            rhs, jac = assemble(system, theta, delta)
            ref_rhs, ref_jac = reference_assembly(grid, theta, delta, bc, active)
            ref = ref_jac[row_major][:, row_major]
            ref.sort_indices()
            assert np.array_equal(rhs, ref_rhs[row_major])
            assert np.array_equal(jac.indptr, ref.indptr)
            assert np.array_equal(jac.indices, ref.indices)
            assert np.array_equal(jac.data, ref.data)

    def test_ordered_step_matches_plain_solve(self, name, grid, bc, states, delta):
        active = active_nodes(grid, bc)
        system = _NewtonSystem(grid, bc, active)
        rhs, jac = assemble(system, states[0], delta)
        step = scipy.sparse.linalg.spsolve(jac, -rhs, permc_spec=system.permc_spec)
        ref_rhs, ref_jac = reference_assembly(grid, states[0], delta, bc, active)
        ref_step = np.zeros(grid.nr * grid.nphi)
        ref_step[active.ravel()] = scipy.sparse.linalg.spsolve(ref_jac, -ref_rhs)
        assert np.max(np.abs(step - ref_step[system.order])) \
            <= 1e-12 * np.max(np.abs(ref_step))


class TestSolveReport:
    def setup_method(self):
        grid = PolarGrid.sector(0.4, 4, 33, 33)
        self.grid = grid
        self.bc = BoundaryConditions(pin_mask=corner_pin_mask(grid, 0.1))
        spec = state_coefficients("U2", 4)
        self.init = DirectorField(grid, sector_state_field(grid, spec).theta,
                                  self.bc)

    def test_phase_timings_summed(self):
        start = time.perf_counter()
        _, rep = solve_el(self.grid, 0.6, self.bc, self.init)
        elapsed = time.perf_counter() - start
        assert rep.iterations > 0
        assert rep.assemble_s > 0 and rep.linear_solve_s > 0
        assert rep.line_search_s > 0
        assert rep.assemble_s + rep.linear_solve_s + rep.line_search_s < elapsed

    def test_diverged_report_carries_timings(self):
        with pytest.raises(NewtonDiverged) as info:
            solve_el(self.grid, 0.6, self.bc, self.init, max_iter=1)
        rep = info.value.history[0]
        assert rep.iterations == 1 and not rep.converged
        assert rep.assemble_s > 0 and rep.linear_solve_s > 0
        assert rep.line_search_s > 0
