import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_nematics.harmonic import (
    KINDS,
    DefectStateSpec,
    InvalidTiling,
    canonical_f_exact,
    crossover_N,
    _gauss_panel,
    _images,
    _kernel_gradients,
    _kernel_linear,
    _kernel_odd,
    _lambert_coefficients,
    _lambert_sums,
    _log_eta,
    _oracle_level,
    director,
    director_gradient,
    energy_quadrature_oracle,
    normalized_energy,
    series_s,
    state_coefficients,
    total_energy,
)
from annulus_nematics.of_strong import defect_free_energy, AnnulusGeometry, ElasticParams


def stencil_laplacian(fn, u0, p0, h=5e-4):
    c = fn(math.exp(u0), p0)
    return (fn(math.exp(u0 + h), p0) + fn(math.exp(u0 - h), p0)
            + fn(math.exp(u0), p0 + h) + fn(math.exp(u0), p0 - h) - 4.0 * c) / h ** 2


def reference_canonical_f(i, N, b, r, phi, n_terms):
    """First n_terms terms of the separated-variable series of the i-th
    canonical harmonic function.

    i = 1: data 1 on the outer circle; i = 2: data phi on the outer circle;
    i = 3: data 1 on the inner circle; i = 4: data phi on the inner circle;
    all vanish on the other three edges.
    """
    r, phi = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(phi, dtype=float))
    u = np.log(r)
    x = math.log(b)
    n = np.arange(1, n_terms + 1)
    if i in (1, 3):
        q = 0.5 * (2 * n - 1) * N
        coef = 4.0 / ((2 * n - 1) * math.pi)
    else:
        q = 0.5 * n * N
        coef = 4.0 * (-1.0) ** (n + 1) / (N * n)
    qu = np.multiply.outer(u, q)
    if i in (1, 2):
        radial = (np.exp(np.multiply.outer(2.0 * x - u, q)) - np.exp(qu)) \
            / np.expm1(2.0 * x * q)
    else:
        radial = (np.exp(np.multiply.outer(x - u, q))
                  - np.exp(np.multiply.outer(x + u, q))) / (-np.expm1(2.0 * x * q))
    out = (coef * np.sin(np.multiply.outer(phi, q)) * radial).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def reference_series_s(i, N, b, n_terms):
    """First n_terms terms of the coth/csch sums over the harmonics k
    (odd k only for i = 1, 2)."""
    n = np.arange(1, n_terms + 1)
    k = (2 * n - 1) if i in (1, 2) else n
    x = 0.5 * N * k * math.log(b)
    if i in (1, 3):
        terms = 8.0 * (np.exp(x) / np.sinh(x)) / k
    else:
        terms = 8.0 / np.sinh(x) / k
    return float(np.sum(terms[::-1]))


def reference_images(N, b, u, phi, grad):
    """Image sum evaluating every image on the cancellation-safe kernels."""
    m = 0.5 * N
    x = math.log(b)
    u, phi = np.broadcast_arrays(np.asarray(u, dtype=float),
                                 np.asarray(phi, dtype=float))
    shape = u.shape
    if grad:
        acc_u = [np.zeros(shape) for _ in range(4)]
        acc_p = [np.zeros(shape) for _ in range(4)]
    else:
        acc = [np.zeros(shape) for _ in range(4)]
    j_cap = max(16, int(80.0 / max(N * abs(x), 1e-3)) + 4)
    for j in range(j_cap):
        args = (u + 2.0 * j * x,            # direct, type 1/2
                2.0 * (j + 1) * x - u,      # reflected, type 1/2
                (2.0 * j + 1) * x - u,      # direct, type 3/4
                u + (2.0 * j + 1) * x)      # reflected, type 3/4
        if not grad:
            k1 = [_kernel_odd(m, a, phi) for a in args]
            k2 = [_kernel_linear(m, a, phi) for a in args]
            inc = 0.0
            for out, pos, neg in ((acc[0], k1[0], k1[1]), (acc[1], k2[0], k2[1]),
                                  (acc[2], k1[2], k1[3]), (acc[3], k2[2], k2[3])):
                term = pos - neg
                out += term
                inc = max(inc, float(np.max(np.abs(term))))
        else:
            grads = [_kernel_gradients(m, a, phi) for a in args]
            k1 = [(g.imag, g.real) for g, _ in grads]
            k2 = [(g.imag, g.real) for _, g in grads]
            inc = 0.0
            # d/du of a reflected argument carries a sign flip
            for idx, (pos, neg) in enumerate(((k1[0], k1[1]), (k2[0], k2[1]),
                                              (k1[2], k1[3]), (k2[2], k2[3]))):
                du = pos[0] + neg[0] if idx < 2 else -(pos[0] + neg[0])
                dp = pos[1] - neg[1]
                acc_u[idx] += du
                acc_p[idx] += dp
                inc = max(inc, float(np.max(np.abs(du))),
                          float(np.max(np.abs(dp))))
        if j >= 1 and inc < 1e-15:
            break
    if grad:
        return acc_u, acc_p
    return acc


def extended_image_sums(w, log_q):
    """sum_{j>=1} of w_j/(1 - w_j**2), w_j/(1 + w_j), artanh(w_j) and
    log(1 + w_j), w_j = w*q**j, image by image in long double until an image
    adds less than its epsilon."""
    ld = np.longdouble
    w, q = w.astype(np.clongdouble), np.exp(ld(log_q))
    sums = [0, 0, 0, 0]
    while True:
        w = w * q
        terms = w / (1 - w * w), w / (1 + w), np.arctanh(w), np.log1p(w)
        sums = [s + t for s, t in zip(sums, terms)]
        if max(np.max(np.abs(t)) for t in terms) < np.finfo(ld).eps:
            return sums


def reference_oracle_level(spec, b, eps, n_psi, n_s, order, panel_div):
    """Oracle level integrating each corner octant and Gauss panel with its
    own director_gradient call."""
    big_t = -math.log(b)
    big_phi = 2.0 * math.pi / spec.N
    size = min(big_t, big_phi) / 3.0

    def energy(u, phi):
        gu, gp = director_gradient(spec, b, np.exp(u), phi)
        return 0.5 * (gu ** 2 + gp ** 2)

    def corner_patch(corner, e1, e2, rho_min):
        total = 0.0
        for psi_lo, psi_hi in ((0.0, 0.25 * math.pi),
                               (0.25 * math.pi, 0.5 * math.pi)):
            psi, wpsi = _gauss_panel(psi_lo, psi_hi, n_psi)
            r_outer = size / np.maximum(np.cos(psi), np.sin(psi))
            smax = np.log(r_outer / rho_min)
            s_ref, ws_ref = np.polynomial.legendre.leggauss(n_s)
            s = 0.5 * (s_ref[None, :] + 1.0) * smax[:, None]
            ws = 0.5 * ws_ref[None, :] * smax[:, None]
            rho = rho_min * np.exp(s)
            u_pts = corner[0] + rho * (np.cos(psi)[:, None] * e1[0]
                                       + np.sin(psi)[:, None] * e2[0])
            p_pts = corner[1] + rho * (np.cos(psi)[:, None] * e1[1]
                                       + np.sin(psi)[:, None] * e2[1])
            dens = energy(u_pts.ravel(), p_pts.ravel()).reshape(rho.shape)
            inner = np.sum(dens * rho * rho * ws, axis=1)
            total += float(np.sum(inner * wpsi))
        return total

    def rect_integral(u_lo, u_hi, p_lo, p_hi, panel):
        nu = max(1, int(math.ceil((u_hi - u_lo) / panel)))
        np_ = max(1, int(math.ceil((p_hi - p_lo) / panel)))
        total = 0.0
        for iu in range(nu):
            xu, wu = _gauss_panel(u_lo + (u_hi - u_lo) * iu / nu,
                                  u_lo + (u_hi - u_lo) * (iu + 1) / nu, order)
            for ip in range(np_):
                xp, wp = _gauss_panel(p_lo + (p_hi - p_lo) * ip / np_,
                                      p_lo + (p_hi - p_lo) * (ip + 1) / np_, order)
                uu, pp = np.meshgrid(xu, xp, indexing="ij")
                dens = energy(uu.ravel(), pp.ravel()).reshape(uu.shape)
                total += float(np.einsum("i,j,ij->", wu, wp, dens))
        return total

    rho_out, rho_in = eps, eps / b
    total = (corner_patch((-big_t, 0.0), (1.0, 0.0), (0.0, 1.0), rho_in)
             + corner_patch((0.0, 0.0), (-1.0, 0.0), (0.0, 1.0), rho_out)
             + corner_patch((0.0, big_phi), (-1.0, 0.0), (0.0, -1.0), rho_out)
             + corner_patch((-big_t, big_phi), (1.0, 0.0), (0.0, -1.0), rho_in))
    panel = size / panel_div
    total += rect_integral(-big_t + size, -size, 0.0, big_phi, panel)
    total += rect_integral(-size, 0.0, size, big_phi - size, panel)
    total += rect_integral(-big_t, -big_t + size, size, big_phi - size, panel)
    return total


def sector_probe_points(N, b, rng, d=1e-6):
    """Random interior points plus points within d of every edge and corner,
    as (log r, phi)."""
    big_t, big_phi = -math.log(b), 2.0 * math.pi / N
    ru, rp = -big_t * rng.random(40), big_phi * rng.random(40)
    side = np.full(10, d)
    u = np.concatenate([ru, -side, -big_t + side, -big_t * rng.random(20),
                        [-d, -d, -big_t + d, -big_t + d]])
    p = np.concatenate([rp, big_phi * rng.random(20), side, big_phi - side,
                        [d, big_phi - d, d, big_phi - d]])
    return u, p


class TestCanonicalFunctions:
    def test_vanishes_on_first_edge(self):
        # every series term carries sin(q*0) = 0
        assert reference_canonical_f(1, 4, 0.5, 0.7, 0.0, 40) == 0.0
        assert reference_canonical_f(3, 3, 0.3, 0.6, 0.0, 40) == 0.0

    def test_harmonic_by_stencil(self):
        N, b = 4, 0.5
        for i in (1, 2, 3, 4):
            lap = stencil_laplacian(
                lambda r, p: canonical_f_exact(i, N, b, r, p),
                0.5 * math.log(b), math.pi / N)
            assert abs(lap) < 1e-6

    def test_stencil_residual_second_order(self):
        # residual of the harmonicity stencil shrinks like h^2
        N, b = 4, 0.5
        laps = [abs(stencil_laplacian(
            lambda r, p: canonical_f_exact(2, N, b, r, p),
            0.5 * math.log(b), 0.9, h=h)) for h in (2e-3, 1e-3)]
        assert laps[0] / laps[1] > 3.0

    def test_harmonic_by_stencil_series_route(self):
        N, b = 4, 0.5
        lap = stencil_laplacian(
            lambda r, p: reference_canonical_f(1, N, b, r, p, 400),
            0.5 * math.log(b), math.pi / N)
        assert abs(lap) < 1e-6

    def test_series_matches_exact_at_midline(self):
        N, b = 4, 0.5
        r = np.array([0.65, 0.707, 0.75])
        phi = np.array([0.4, 0.9, 1.3])
        for i in (1, 2, 3, 4):
            s = reference_canonical_f(i, N, b, r, phi, 600)
            e = canonical_f_exact(i, N, b, r, phi)
            assert np.max(np.abs(s - e)) < 1e-11

    def test_superposed_circle_data(self):
        # f1 + f3 carries unit data on both circles; compare the dense
        # partial sums of the two separately computed series
        N, b = 2, 0.4
        r, phi = math.sqrt(b), math.pi / N
        combo = (reference_canonical_f(1, N, b, r, phi, 600)
                 + reference_canonical_f(3, N, b, r, phi, 600))
        exact = canonical_f_exact(1, N, b, r, phi) + canonical_f_exact(3, N, b, r, phi)
        assert abs(combo - exact) < 1e-10

    def test_boundary_data_recovered_near_edges(self):
        N, b = 4, 0.5
        phi = 0.8
        assert abs(canonical_f_exact(1, N, b, 1.0 - 1e-8, phi) - 1.0) < 1e-5
        assert abs(canonical_f_exact(2, N, b, 1.0 - 1e-8, phi) - phi) < 1e-5
        assert abs(canonical_f_exact(3, N, b, b * (1 + 1e-8), phi) - 1.0) < 1e-5
        assert abs(canonical_f_exact(4, N, b, b * (1 + 1e-8), phi) - phi) < 1e-5
        assert abs(canonical_f_exact(1, N, b, b * (1 + 1e-8), phi)) < 1e-5


class TestImageSums:
    @pytest.mark.parametrize("N", [1, 2, 4, 6])
    @pytest.mark.parametrize("b", [0.2, 0.4, 0.6])
    def test_recurrence_matches_reference_loop(self, N, b):
        # the j >= 1 images change their arithmetic order: agreement to a
        # few ulps of max(1, |ref|), interior and within 1e-6 of the edges
        u, p = sector_probe_points(N, b, np.random.default_rng(N + int(10 * b)))
        ref = reference_images(N, b, u, p, grad=False)
        ref_u, ref_p = reference_images(N, b, u, p, grad=True)
        vals = _images(N, b, u, p, grad=False)
        fu, fp = _images(N, b, u, p, grad=True)
        for got, want in zip(vals + fu + fp, ref + ref_u + ref_p):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
class TestGradientSeriesNearUnitRatio:
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("b", [0.9, 0.97, 0.99])
    def test_matches_extended_precision_loop(self, N, b):
        # the j >= 1 images as b -> 1, where thousands of them add up, for
        # the j = 0 arguments of points in and at the edge of the sector;
        # the cap is one the 2**-60 stop reaches first.  The value sums are
        # held to a few ulps: a double image-by-image loop errs by up to
        # 1.2e-14 there
        u, p = sector_probe_points(N, b, np.random.default_rng(N + int(100 * b)))
        m, x = 0.5 * N, math.log(b)
        w = np.exp(m * np.array([[u, 2 * x - u], [x - u, u + x]])) * np.exp(1j * m * p)
        k, d = _lambert_coefficients(N, b, w, 100_000)
        got = _lambert_sums(w, d) + _lambert_sums(w, d / k)
        for g, want, tol in zip(got, extended_image_sums(w, N * x),
                                (1e-13, 1e-13, 4e-15, 4e-15)):
            want = want.astype(complex)
            assert np.all(np.abs(g - want) <= tol * np.maximum(1.0, np.abs(want)))


class TestStateCoefficients:
    def test_u1_at_two_sectors(self):
        spec = state_coefficients("U1", 2)
        a0, a1, a2, a3, a4 = spec.coefficients
        assert a0 == 2.0 and a2 == -1.0 and a4 == -1.0
        assert abs(a1) == abs(a3) == 0.5 * math.pi

    def test_u2_rotation_coefficient(self):
        # the rotation term must reproduce the (N-2)^2/(4N) energy weight;
        # the edge offset fixes its sign to (2-N)/2
        for N in (1, 2, 4, 6):
            spec = state_coefficients("U2", N)
            a0 = spec.coefficients[0]
            assert a0 == 0.5 * (2 - N)
            assert a0 ** 2 / N == pytest.approx((N - 2) ** 2 / (4.0 * N))
            assert spec.coefficients[2] == spec.coefficients[4] == 1.0 - a0

    def test_u3_and_diagonal_sign_pattern(self):
        u3 = state_coefficients("U3", 4)
        d = state_coefficients("D", 4)
        assert u3.coefficients[0] == d.coefficients[0] == 1.0
        # opposite tangent offsets for U3 (defects on one straight edge),
        # equal ones for the diagonal state: pinned by the energy oracle
        assert u3.coefficients[1] == -u3.coefficients[3]
        assert d.coefficients[1] == d.coefficients[3]

    def test_corner_strengths_sum_to_zero(self):
        for kind in ("U1", "U2", "U3", "D"):
            spec = state_coefficients(kind, 4)
            assert sum(spec.corner_strengths) == 0
            assert all(m in (-1, 1) for m in spec.corner_strengths)

    def test_invalid_tiling_odd_sectors(self):
        with pytest.raises(InvalidTiling):
            state_coefficients("U3", 3)
        with pytest.raises(InvalidTiling):
            state_coefficients("D", 5)
        state_coefficients("D", 3, full_annulus=False)


class TestDirector:
    def test_zero_on_first_edge(self):
        spec = state_coefficients("U2", 4)
        assert abs(director(spec, 0.5, 0.7, 1e-9)) < 1e-5

    def test_tangent_data_on_circles(self):
        b = 0.5
        for kind in ("U1", "U2", "U3", "D"):
            spec = state_coefficients(kind, 4)
            a1, a3 = spec.coefficients[1], spec.coefficients[3]
            phi = 0.7
            outer = director(spec, b, 1.0 - 1e-9, phi)
            inner = director(spec, b, b * (1 + 1e-9), phi)
            assert abs(outer - (phi + a1)) < 1e-5
            assert abs(inner - (phi + a3)) < 1e-5

    def test_end_edge_offset(self):
        b, N = 0.5, 4
        phi_end = 2.0 * math.pi / N
        for kind, offset in (("U1", math.pi), ("U2", -math.pi), ("D", 0.0)):
            spec = state_coefficients(kind, N)
            val = director(spec, b, 0.7, phi_end - 1e-9)
            assert abs(val - (phi_end + offset)) < 1e-5

    def test_harmonic_interior(self):
        spec = state_coefficients("U2", 4)
        lap = stencil_laplacian(lambda r, p: director(spec, 0.5, r, p),
                                0.5 * math.log(0.5), 0.6, h=2e-4)
        assert abs(lap) < 1e-6

    def test_corner_windings_match_strengths(self):
        # the angle swept along a small quarter-arc around each corner is
        # the defect strength times the pi/2 interior angle
        b, N = 0.5, 4
        rho = 1e-3
        phi_end = 2.0 * math.pi / N
        arcs = {  # corner -> (center_x, center_p, psi of the two edge rays)
            0: (math.log(b), 0.0, (0.0, 0.5 * math.pi)),
            1: (0.0, 0.0, (math.pi, 0.5 * math.pi)),
            2: (0.0, phi_end, (math.pi, 1.5 * math.pi)),
            3: (math.log(b), phi_end, (0.0, -0.5 * math.pi)),
        }
        for kind in ("U1", "U2", "U3", "D"):
            spec = state_coefficients(kind, N)
            for idx, (cx, cp, (psi0, psi1)) in arcs.items():
                psi = np.linspace(psi0, psi1, 40)[1:-1]
                x = cx + rho * np.cos(psi)
                p = cp + rho * np.sin(psi)
                theta = director(spec, b, np.exp(x), p)
                swept = theta[-1] - theta[0]
                m = spec.corner_strengths[idx]
                expect = m * (psi1 - psi0) * (37.0 / 39.0)
                assert abs(swept - expect) < 0.05, (kind, idx)

    def test_gradient_consistency(self):
        spec = state_coefficients("D", 4)
        b, r0, p0 = 0.5, 0.72, 0.9
        h = 1e-6
        du_fd = (director(spec, b, r0 * math.exp(h), p0)
                 - director(spec, b, r0 * math.exp(-h), p0)) / (2 * h)
        dp_fd = (director(spec, b, r0, p0 + h)
                 - director(spec, b, r0, p0 - h)) / (2 * h)
        du, dp = director_gradient(spec, b, r0, p0)
        assert abs(du - du_fd) < 1e-8
        assert abs(dp - dp_fd) < 1e-8


class TestSeriesS:
    def test_all_negative(self):
        for N in (1, 2, 4, 8):
            for b in (0.1, 0.5, 0.9):
                for i in (1, 2, 3, 4):
                    assert series_s(i, N, b) < 0.0

    def test_even_index_below_odd_subset(self):
        # s4 sums every harmonic, s2 only the odd ones, all terms negative
        for N, b in ((2, 0.5), (4, 0.3)):
            assert series_s(4, N, b) <= series_s(2, N, b)

    def test_vanish_at_small_b(self):
        # leading csch term scales like b**(N/2), coth like b**N
        for i in (1, 2, 3, 4):
            assert abs(series_s(i, 2, 1e-8)) < 1e-6
            assert abs(series_s(i, 2, 1e-8)) < abs(series_s(i, 2, 1e-3))


    @pytest.mark.parametrize("b", [0.05, 0.3, 0.5, 0.9, 0.99])
    def test_closed_form_matches_direct_sums(self, b):
        for N in (1, 2, 4, 10):
            # the last terms are below exp(-50) of the first
            n_terms = int(100.0 / (N * abs(math.log(b)))) + 1
            for i in (1, 2, 3, 4):
                ref = reference_series_s(i, N, b, n_terms)
                assert abs(series_s(i, N, b) - ref) <= 1e-13 * max(1.0, abs(ref))


def F_derivative(t, n_terms=40):
    """dF/dt of F(t) = sum log(1 - e^{-2 pi m t}), summed directly."""
    m = np.arange(1, n_terms + 1)
    p = np.exp(-2.0 * math.pi * m * t)
    return float(np.sum(2.0 * math.pi * m * p / (1.0 - p)))


class TestEtaClosedForm:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(b=st.one_of(st.floats(min_value=1e-300, max_value=1.0 - 2.0 ** -40),
                       st.floats(min_value=2.0 ** -40, max_value=0.5).map(
                           lambda e: 1.0 - e)),
           N=st.integers(min_value=1, max_value=200))
    def test_identities_hold_for_every_b(self, b, N):
        e = {kind: normalized_energy(kind, N, b) for kind in KINDS}
        assert all(math.isfinite(v) for v in e.values())
        ref = 2.0 * math.log(1.0 / b)
        assert abs(e["U1"] - e["U2"] - ref) <= 1e-12 * max(1.0, ref)
        gap = e["U3"] - e["D"] + series_s(2, N, b) / 2.0
        assert abs(gap) <= 1e-12 * max(1.0, abs(e["U3"]))

    def test_continuous_across_transformation_switch(self):
        # F is summed directly at t >= 1 and through the eta transformation
        # below; the step over the switch is F' times its width
        h = 1e-9
        lo = _log_eta(((1.0, 1.0),), 1.0 - h)
        hi = _log_eta(((1.0, 1.0),), 1.0 + h)
        assert abs(hi - lo - 2.0 * h * F_derivative(1.0)) < 1e-14

    def test_diagonal_state_averages_rotated_pair_as_b_to_one(self):
        # as t -> 0 the 1/t and log t parts of D - (U1 + U2)/2 cancel in
        # closed form and the pi*t/2 part cancels the rotation terms, so the
        # difference vanishes to all orders
        b = 1.0 - 2.0 ** -40
        for N in (1, 2, 10):
            gap = normalized_energy("D", N, b) - 0.5 * (
                normalized_energy("U1", N, b) + normalized_energy("U2", N, b))
            assert abs(gap) < 1e-12


class TestNormalizedEnergy:
    def test_rotated_pair_identity(self):
        for N in (1, 2, 4, 7):
            for b in (0.2, 0.5, 0.8):
                gap = normalized_energy("U1", N, b) - normalized_energy("U2", N, b)
                assert abs(gap - 2.0 * math.log(1.0 / b)) < 1e-12

    def test_diagonal_pair_identity(self):
        for N in (2, 4, 6):
            for b in (0.2, 0.5, 0.8):
                gap = normalized_energy("U3", N, b) - normalized_energy("D", N, b)
                assert abs(gap + series_s(2, N, b) / 2.0) < 1e-12

    def test_u2_minimal_small_n(self):
        for b in (0.3, 0.5, 0.7):
            for N in (2, 4):
                e = {k: normalized_energy(k, N, b) for k in ("U1", "U2", "U3", "D")}
                assert e["U2"] == min(e.values())

    def test_diagonal_minimal_large_n(self):
        for b in (0.3, 0.5):
            e = {k: normalized_energy(k, 40, b) for k in ("U1", "U2", "U3", "D")}
            assert e["D"] == min(e.values())


class TestTotalEnergy:
    def test_core_shrink_adds_log_two(self):
        e1 = total_energy("U2", 2, 0.5, 0.01, K=1.0)
        e2 = total_energy("U2", 2, 0.5, 0.005, K=1.0)
        assert abs((e2 - e1) - math.pi * math.log(2.0)) < 1e-12

    def test_defect_free_wins_small_core(self):
        b, eps = 0.3, 0.002
        free = defect_free_energy(AnnulusGeometry(b), ElasticParams(0.0, 1.0))
        assert free < total_energy("U2", 1, b, eps, K=1.0)
        for kind in ("U1", "U2", "U3", "D"):
            for N in (2, 4, 6):
                assert free < total_energy(kind, N, b, eps, K=1.0)

    def test_matches_quadrature_oracle(self):
        b, eps, N = 0.5, 1e-3, 4
        spec = state_coefficients("U2", N)
        oracle = energy_quadrature_oracle(spec, b, eps)
        closed = total_energy("U2", N, b, eps, K=2.0)
        assert abs(closed - 2.0 * oracle) < 0.01 * abs(closed)

    @pytest.mark.parametrize("K", [0.0, -1.0])
    def test_rejects_nonpositive_elastic_constant(self, K):
        with pytest.raises(ValueError, match="K must be positive"):
            total_energy("U2", 2, 0.5, 0.01, K=K)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_rejects_non_finite_elastic_constant(self, K):
        # inf used to return inf
        with pytest.raises(ValueError, match="K must be positive and finite"):
            total_energy("U2", 2, 0.5, 0.002, K=K)


class TestEnergyOracle:
    def test_all_kinds_within_one_percent(self):
        N, b, eps = 4, 0.5, 1e-3
        for kind in ("U1", "U2", "U3", "D"):
            spec = state_coefficients(kind, N)
            tilde = energy_quadrature_oracle(spec, b, eps) / math.pi \
                - math.log(1.0 / eps)
            closed = normalized_energy(kind, N, b)
            assert abs(tilde - closed) < 0.01 * abs(closed), kind

    def test_pure_rotation_reduces_to_defect_free(self):
        spec = DefectStateSpec(kind="D", N=1, coefficients=(1.0, 0.0, 0.0, 0.0, 0.0),
                               corner_strengths=(1, -1, 1, -1))
        b = 0.4
        for eps in (1e-3, 2e-3):
            val = energy_quadrature_oracle(spec, b, eps)
            assert abs(val - math.pi * math.log(1.0 / b)) < 1e-3

    def test_rotated_pair_gap(self):
        N, b, eps = 4, 0.5, 1e-3
        e1 = energy_quadrature_oracle(state_coefficients("U1", N), b, eps)
        e2 = energy_quadrature_oracle(state_coefficients("U2", N), b, eps)
        gap = (e1 - e2) / math.pi
        assert abs(gap - 2.0 * math.log(2.0)) < 0.01 * 2.0 * math.log(2.0)

    def test_blocked_level_matches_per_panel_reference(self):
        # same nodes and weights, summed in another order
        spec, b, eps = state_coefficients("U2", 4), 0.4, 1e-3
        for level in ((20, 36, 10, 2), (30, 54, 14, 3)):
            want = reference_oracle_level(spec, b, eps, *level)
            got = _oracle_level(spec, b, eps, *level)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_rotation_part_decouples(self):
        # Dirichlet energy = rotation part + canonical part: the canonical
        # functions vanish on the straight edges where the rotation flux
        # lives, and the rotation has no radial flux on the circles
        N, b, eps = 2, 0.4, 1e-3
        full = state_coefficients("U2", N)
        a0 = full.coefficients[0]
        f_only = DefectStateSpec(kind="U2", N=N,
                                 coefficients=(0.0,) + full.coefficients[1:],
                                 corner_strengths=full.corner_strengths)
        e_full = energy_quadrature_oracle(full, b, eps)
        e_f = energy_quadrature_oracle(f_only, b, eps)
        rotation = 0.5 * a0 ** 2 * (2.0 * math.pi / N) * math.log(1.0 / b)
        assert abs(e_full - rotation - e_f) < 0.005 * abs(e_full)


class TestDomain:
    @pytest.mark.parametrize("call", [
        lambda: director(state_coefficients("U2", 4), 1.5, 0.7, 0.5),
        lambda: director_gradient(state_coefficients("U2", 4), 1.0, 0.7, 0.5),
        lambda: series_s(1, 4, 1.5),
        lambda: normalized_energy("D", 4, 1.0),
        lambda: total_energy("U2", 4, 1.5, 0.01),
        lambda: crossover_N(1.5, 10),
        lambda: canonical_f_exact(0, 4, 0.5, 0.7, 0.5),
        lambda: canonical_f_exact(5, 4, 0.5, 0.7, 0.5),
        # the gradient series cannot reach round-off within its term cap
        lambda: director_gradient(state_coefficients("U2", 4), 0.5, 10.0, 0.3),
        lambda: director_gradient(state_coefficients("U2", 1, False), 0.9999, 0.99995, 0.5),
    ], ids=["director", "director_gradient", "series_s", "normalized_energy",
            "total_energy", "crossover_N", "canonical_index_0",
            "canonical_index_5", "director_gradient_off_annulus",
            "director_gradient_b_near_one"])
    def test_rejects_out_of_domain(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("fn", [director, director_gradient])
    def test_unconverged_series_names_b_and_N(self, fn):
        # no term count within the cap reaches round-off at b = 0.9999
        with pytest.raises(ValueError, match=r"b=0\.9999, N=1 "):
            fn(state_coefficients("U2", 1, False), 0.9999, 0.99995, 0.5)

    @pytest.mark.parametrize("call", [
        lambda: canonical_f_exact(1, -2, 0.5, 0.7, 0.5),
        lambda: canonical_f_exact(1, 0, 0.5, 0.7, 0.5),
        lambda: series_s(1, -2, 0.5),
        lambda: normalized_energy("U2", 0, 0.5),
    ], ids=["canonical_f_exact_N_negative", "canonical_f_exact_N_zero",
            "series_s", "normalized_energy"])
    def test_rejects_sector_count_below_one(self, call):
        with pytest.raises(ValueError, match="sector count"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: normalized_energy("U2", 2.5, 0.5),
        lambda: state_coefficients("U2", 2.5),
        lambda: series_s(1, math.nan, 0.5),
        # 1.5 used to be accepted
        lambda: DefectStateSpec("U2", 1.5, (0.25, -0.5 * math.pi, 0.75,
                                            -0.5 * math.pi, 0.75), (-1, 1, 1, -1)),
    ], ids=["normalized_energy", "state_coefficients", "series_s_nan",
            "defect_state_spec"])
    def test_rejects_non_integer_sector_count(self, call):
        with pytest.raises(ValueError, match="sector count"):
            call()


class TestCrossover:
    def test_exists_and_positive(self):
        nc = crossover_N(0.5, 60)
        assert nc is not None and nc % 2 == 0 and nc > 2

    def test_nondecreasing_in_b(self):
        values = [crossover_N(b, 200) for b in (0.3, 0.5, 0.7)]
        assert all(v is not None for v in values)
        assert values[0] <= values[1] <= values[2]

    def test_absent_when_capped(self):
        nc = crossover_N(0.5, 60)
        assert crossover_N(0.5, nc - 2) is None
