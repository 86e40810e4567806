import math

import numpy as np
import pytest
import scipy.linalg

from annulus_nematics.harmonic import state_coefficients, total_energy
from annulus_nematics.of_strong import delta_n, pitchfork_amplitude
from annulus_nematics.of_weak import AnchoringParams, delta_weak
from annulus_nematics.pde import (
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
