"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from annulus_nematics import harmonic, ldg, pde
from annulus_nematics.of_strong import (
    delta1_stability_coefficient,
    delta_n,
    pitchfork_amplitude,
    spiral_energy,
    spiral_solve,
    ElasticParams,
)
from annulus_nematics.of_weak import AnchoringParams, delta_weak, weak_pitchfork_coeffs
from annulus_nematics.numerics import GridFunction


def report(num, title, started):
    print(f"\nACCEPTANCE {num} ({title}): PASS  [{time.time() - started:.1f}s]")


def test_criterion_1_strong_criticality():
    started = time.time()
    for b in np.linspace(0.05, 0.95, 19):
        exact = math.pi ** 2 / (math.pi ** 2 + math.log(b) ** 2)
        assert abs(delta_n(float(b), 1) - exact) <= 1e-12
    for b in (0.2, 0.5):
        d1 = delta_n(b, 1)
        pts = pde.bifurcation_scan(b, [d1 - 0.005, d1 + 0.005], 0.3)
        assert pts[0][1] < 1e-6, "onset must lie above delta1 - 0.005"
        assert pts[1][1] > 1e-3, "onset must lie below delta1 + 0.005"
    assert time.time() - started < 120.0
    report(1, "strong-anchoring criticality", started)


def test_criterion_2_pitchfork_law():
    started = time.time()
    b = 0.2
    d1 = delta_n(b, 1)
    offsets = np.geomspace(1e-3, 3e-2, 8)
    pts = pde.bifurcation_scan(b, [d1 + o for o in offsets], 0.4)
    amps = np.array([a for _, a in pts])
    slope, intercept = np.polyfit(np.log(offsets), np.log(amps), 1)
    assert abs(slope - 0.5) <= 0.05
    prefactor = math.exp(intercept)
    expected = math.sqrt(2.0 / d1)
    assert abs(prefactor - expected) <= 0.1 * expected
    assert time.time() - started < 300.0
    report(2, "pitchfork amplitude law", started)


def test_criterion_3_spiral_exactness():
    started = time.time()
    for b in (0.2, 0.5):
        state = spiral_solve(1.0, b, n_profile=1025)
        t = state.profile.nodes
        g = b / (b + 1.0) * np.exp(t) + np.exp(-t) / (b + 1.0)
        exact = np.arccos(np.clip(g, -1.0, 1.0))
        assert np.max(np.abs(state.profile.values - exact)) <= 1e-6
        e = spiral_energy(state, ElasticParams(1.0, 1.0))
        ref = 2.0 * math.pi * (1.0 - b) / (1.0 + b)
        assert abs(e - ref) <= 0.005 * ref
        grid = np.linspace(0.0, math.log(1.0 / b), 1002)[1:-1]
        coeff = delta1_stability_coefficient(b, grid)
        assert np.min(coeff) >= 1.0 - 1e-9
    report(3, "spiral exactness at delta=1", started)


def test_criterion_4_weak_anchoring():
    started = time.time()
    assert abs(delta_weak(0.5, 0.5, 1) - 19.0 / 24.0) <= 1e-9
    strong = math.pi ** 2 / (math.pi ** 2 + math.log(0.5) ** 2)
    assert abs(delta_weak(1e6, 0.5, 0) - strong) <= 1e-4
    for b in (0.2, 0.5, 0.8):
        for k in (1, 2, 3):
            for alpha in (1.0, 2.0, 10.0):
                assert delta_weak(alpha, b, k) is None
    for alpha in (0.5, 1.0, 2.0, 5.0):
        for b in (0.2, 0.5, 0.8):
            e1, e3 = weak_pitchfork_coeffs(alpha, b)
            assert e1 > 0.0 and e3 > 0.0
    report(4, "weak anchoring", started)


def test_criterion_5_defect_state_energies():
    started = time.time()
    N, b, eps = 4, 0.5, 1e-3
    for kind in ("U1", "U2", "U3", "D"):
        spec = harmonic.state_coefficients(kind, N)
        tilde = harmonic.energy_quadrature_oracle(spec, b, eps) / math.pi \
            - math.log(1.0 / eps)
        closed = harmonic.normalized_energy(kind, N, b)
        assert abs(tilde - closed) <= 0.01 * abs(closed), kind
    for n in (1, 2, 4, 7):
        for bb in (0.2, 0.5, 0.8):
            gap = harmonic.normalized_energy("U1", n, bb) \
                - harmonic.normalized_energy("U2", n, bb)
            assert abs(gap - 2.0 * math.log(1.0 / bb)) <= 1e-12
            if n % 2 == 0:
                gap2 = harmonic.normalized_energy("U3", n, bb) \
                    - harmonic.normalized_energy("D", n, bb)
                assert abs(gap2 + harmonic.series_s(2, n, bb) / 2.0) <= 1e-12
    assert time.time() - started < 600.0
    report(5, "defect-state energies vs oracle", started)


def test_criterion_6_energy_orderings():
    started = time.time()
    # rotated state U2 minimal at small sector counts
    for b in (0.3, 0.5, 0.7):
        for n in (2, 4):
            e = {k: harmonic.normalized_energy(k, n, b)
                 for k in ("U1", "U2", "U3", "D")}
            assert e["U2"] == min(e.values())
    # diagonal state minimal at large sector counts
    for b in (0.3, 0.5):
        e = {k: harmonic.normalized_energy(k, 40, b)
             for k in ("U1", "U2", "U3", "D")}
        assert e["D"] == min(e.values())
    values = [harmonic.crossover_N(b, 200) for b in (0.3, 0.5, 0.7)]
    assert all(v is not None for v in values)
    assert values[0] <= values[1] <= values[2]
    # isotropic case: the defect-free state undercuts every defect state
    b, eps = 0.3, 0.002
    free = math.pi * math.log(1.0 / b)
    for kind in ("U1", "U2", "U3", "D"):
        for n in range(1, 9):
            if kind in ("U3", "D") and n % 2 == 1:
                continue
            assert free < harmonic.total_energy(kind, n, b, eps, K=1.0)
    # strong anisotropy: a defect state undercuts the defect-free state
    # at small b and loses again at larger b
    delta = 0.9
    e_small = pde.anisotropic_state_energy(0.2, 2, "U2", delta, eps, nr=193)
    assert e_small < math.pi * math.log(1.0 / 0.2)
    e_large = pde.anisotropic_state_energy(0.45, 2, "U2", delta, eps)
    assert e_large > math.pi * math.log(1.0 / 0.45)
    report(6, "energy orderings and crossovers", started)


def test_criterion_7_ldg():
    started = time.time()
    b = 0.5
    prof = ldg.solve_s(b, ldg.LdGParams(0.0), n_nodes=1601)
    exact = ldg.s_profile_zero_t(b, prof.profile.nodes)
    assert np.max(np.abs(prof.profile.values - exact)) <= 1e-8
    i_min = int(np.argmin(prof.profile.values))
    assert abs(prof.profile.nodes[i_min] - math.sqrt(b)) <= 1e-9
    assert abs(prof.profile.values[i_min]
               - math.sqrt(2.0) * b / (b * b + 1.0)) <= 1e-8

    params = ldg.LdGParams(50.0)
    u = ldg.solve_u(b, params)
    s = ldg.solve_s(b, params)
    assert np.max(u.profile.values - s.profile.values) <= 1e-10
    assert np.min(np.diff(u.profile.values)) >= -1e-10

    for bb in (0.3, 0.5, 0.7, 0.9):
        t_val = 1.05 * ldg.stability_threshold(bb)
        for n in (0, 1, 2):
            assert ldg.min_eig_Ln(n, bb, ldg.LdGParams(t_val)) > 0.0, (bb, n)

    # pointwise block monotonicity on random admissible quadruples
    rng = np.random.default_rng(2024)
    s_state = ldg.solve_s(0.5, ldg.LdGParams(30.0), n_nodes=801)
    r = s_state.profile.nodes
    xi = (r - r[0]) / (r[-1] - r[0])
    checked = 0
    for _ in range(50):
        comps = []
        for _ in range(4):
            coef = rng.standard_normal(6)
            v = sum(c * np.sin((j + 1) * np.pi * xi)
                    for j, c in enumerate(coef))
            comps.append(GridFunction(r, v))
        for n in (1, 2):
            gap = ldg.Ln_value(n + 2, *comps, s_state) \
                - ldg.Ln_value(n, *comps, s_state)
            assert gap >= -1e-9
            checked += 1
    assert checked == 100
    assert time.time() - started < 300.0
    report(7, "tensor-theory stability", started)


def test_criterion_8_solver_quality():
    started = time.time()
    b, n_sect = 0.5, 4
    spec = harmonic.state_coefficients("U2", n_sect)
    errs = []
    for n in (65, 129, 257):
        grid = pde.PolarGrid.sector(b, n_sect, n, n)
        ref = pde.sector_state_field(grid, spec)
        bc = pde.BoundaryConditions(pin_mask=pde.corner_pin_mask(grid, 0.08))
        out, _ = pde.solve_el(grid, 0.0, bc,
                              pde.DirectorField(grid, ref.theta, bc))
        xx, pp = grid.mesh()
        d2 = np.minimum.reduce(
            [(xx - cx) ** 2 + (pp - cp) ** 2
             for cx in (math.log(b), 0.0)
             for cp in (grid.phi_nodes[0], grid.phi_nodes[-1])])
        keep = d2 > 0.15 ** 2
        errs.append(float(np.max(np.abs((out.theta - ref.theta)[keep]))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.8

    for delta in (0.0, 0.5, 0.9):
        grid = pde.PolarGrid.annulus(0.3, 48, 32)
        fld = pde.defect_free_field(grid)
        out, rep = pde.solve_el(grid, delta, pde.BoundaryConditions(), fld)
        assert rep.converged and np.array_equal(out.theta, fld.theta)
        bc = pde.BoundaryConditions(kind="robin",
                                    anchoring=AnchoringParams(0.7))
        fldr = pde.defect_free_field(grid, bc)
        out, rep = pde.solve_el(grid, delta, bc, fldr)
        assert rep.converged and np.array_equal(out.theta, fldr.theta)
    report(8, "solver quality", started)
