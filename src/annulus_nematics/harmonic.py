"""One-constant director states with boundary defects on annular sectors.

On the sector 0 <= phi <= 2*pi/N the director angle of an equilibrium with
corner defects is harmonic, and splits into a rotation term a0*phi plus
combinations of four canonical harmonic functions carrying unit or linear
data on one circle and zero on the other three edges.  This module builds
those states, sums the canonical functions as reflection images, and
evaluates the normalized energies in closed form.  Their four
edge-interaction sums reduce to F(t) = sum_{m>=1} log(1 - e^{-2 pi m t}),
the log of the Dedekind eta product at t = N*log(1/b)/(2*pi), which the
eta transformation eta(-1/tau) = sqrt(-i tau) eta(tau) (T. M. Apostol,
Modular Functions and Dirichlet Series in Number Theory, 2nd ed.,
Thm 3.1) brings to a few terms at every b in (0,1).  A direct
two-dimensional quadrature of the Dirichlet energy over the sector with
the defect cores removed cross-checks the energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (check_core_radius, check_index, check_sector,
                       gauss_legendre)


KINDS = ("U1", "U2", "U3", "D")


class InvalidTiling(ValueError):
    """State kind cannot tile the full annulus at this sector count."""


class QuadratureBudget(RuntimeError):
    """Energy quadrature failed its self-consistency refinement check."""


@dataclass(frozen=True)
class DefectStateSpec:
    """Defect arrangement on a sector: rotation a0 plus canonical weights.

    ``coefficients`` is (a0, a1, a2, a3, a4); ``corner_strengths`` lists the
    defect strengths at the corners in the order (inner phi=0, outer phi=0,
    outer phi=2pi/N, inner phi=2pi/N).
    """

    kind: str
    N: int
    coefficients: tuple
    corner_strengths: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        check_index(self.N, "sector count", 1)
        if len(self.coefficients) != 5 or len(self.corner_strengths) != 4:
            raise ValueError("need 5 coefficients and 4 corner strengths")


def state_coefficients(kind: str, N: int, full_annulus: bool = True) -> DefectStateSpec:
    """Coefficients (a0..a4) and corner strengths for one of the four states.

    Boundary matching fixes a1 and a3 to +-pi/2 (tangent offsets on the two
    circles), a2 = a4 = 1 - a0, and a0 in {(N+2)/2, (2-N)/2, 1} through the
    angle offset at the straight edge.  The per-kind signs place the +1
    defects: on the inner circle (U1), outer circle (U2), the phi = 0 edge
    (U3) or diagonally (D); they are pinned by matching the bulk rotation
    coefficient and the cross-term split of the closed-form energies, with
    the 2-D quadrature as the arbiter.  The canonical-function parts of U1
    and U2 are exact negatives, which is why their normalized energies
    share one series combination and differ only in the rotation term.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
    check_index(N, "sector count", 1)
    if full_annulus and kind in ("U3", "D") and N % 2 == 1:
        raise InvalidTiling(f"{kind} tiles the annulus only for even N "
                            "(odd N would superpose opposite defects)")
    half_pi = 0.5 * math.pi
    if kind == "U1":
        a0 = 0.5 * (N + 2)
        a1, a3 = half_pi, half_pi
        corners = (1, -1, -1, 1)
    elif kind == "U2":
        a0 = 0.5 * (2 - N)
        a1, a3 = -half_pi, -half_pi
        corners = (-1, 1, 1, -1)
    elif kind == "U3":
        a0 = 1.0
        a1, a3 = -half_pi, half_pi
        corners = (1, 1, -1, -1)
    else:  # D
        a0 = 1.0
        a1, a3 = half_pi, half_pi
        corners = (1, -1, 1, -1)
    a2 = a4 = 1.0 - a0
    return DefectStateSpec(kind=kind, N=N,
                           coefficients=(a0, a1, a2, a3, a4),
                           corner_strengths=corners)


# ---------------------------------------------------------------------------
# canonical harmonic functions by reflections: the angular parts of their
# separated-variable series have closed forms, and expanding the radial
# denominators geometrically turns each function into a fast image sum
# over reflected log-radii


def _cexpm1(a, c):
    """exp(a + i c) - 1 without cancellation for small arguments."""
    return (np.expm1(a) * np.cos(c) - 2.0 * np.sin(0.5 * c) ** 2) \
        + 1j * (np.exp(a) * np.sin(c))


def _kernel_odd(m: float, v, phi):
    """Sum over odd harmonics: (4/pi) Im artanh(e^{m(v+i phi)})."""
    ev = np.exp(m * v)
    return (2.0 / math.pi) * np.arctan2(2.0 * ev * np.sin(m * phi),
                                        -np.expm1(2.0 * m * v))


def _kernel_linear(m: float, v, phi):
    """Sum over all harmonics with 1/n weights: (2/m) Im log(1 + w)."""
    wp1 = -_cexpm1(m * v, m * phi - math.pi)
    return (2.0 / m) * np.arctan2(wp1.imag, wp1.real)


def _kernel_gradients(m: float, v, phi):
    """h' of the odd and linear kernels Im h(v + i phi), whose (d/dv, d/dphi)
    are the (imag, real) parts of h'.  w - 1 and w + 1 come without
    cancellation, so h' = (4m/pi) w/(1 - w^2) and 2w/(1 + w) hold near w = 1."""
    wm1 = _cexpm1(m * v, m * phi)
    wp1 = -_cexpm1(m * v, m * phi - math.pi)
    g = (wm1 + 1.0) / (-wm1 * wp1)
    return (4.0 * m / math.pi) * g, 2.0 * ((wp1 - 1.0) / wp1)


def canonical_f_exact(i: int, N: int, b: float, r, phi):
    """Canonical harmonic function through the reflection representation.

    i = 1: data 1 on the outer circle; i = 2: data phi on the outer circle;
    i = 3: data 1 on the inner circle; i = 4: data phi on the inner circle;
    all vanish on the other three edges.  Mathematically identical to the
    converged separated-variable series but accurate at any interior
    point, arbitrarily close to the boundary.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("canonical index must be 1..4")
    vals = _images(N, b, np.log(np.asarray(r, dtype=float)),
                   np.asarray(phi, dtype=float), grad=False)
    out = vals[i - 1]
    return float(out) if np.ndim(out) == 0 else out


def _lambert_coefficients(N: int, b: float, w, j_cap: int):
    """k = 1..K and d_k = q^k/(1 - q^k), q = b**N: the Lambert coefficients
    of the j >= 1 images of w.  K is even and passes the first k <= j_cap
    with d_k max|w|^k < 2^-60; ValueError if there is none, as off the
    annulus (convergence needs |w| < 1/q) or for b too close to 1."""
    log_q = N * math.log(b)
    k = np.arange(1, j_cap + 2)
    d = np.exp(k * log_q) / -np.expm1(k * log_q)
    small = np.flatnonzero(d[:j_cap] * np.max(np.abs(w)) ** k[:j_cap] < 2.0 ** -60)
    if not small.size:
        raise ValueError(f"image series at b={b!r}, N={N} not converged "
                         f"in {j_cap} terms")
    n = small[0] // 2 * 2 + 2
    return k[:n], d[:n]


def _lambert_sums(w, c):
    """Odd part O and O - E of sum_k c_k w^k (E the even part) as Horner sums
    in w^2 over an even number of coefficients.  With w_j = w*q^j, c_k = d_k
    gives sum_{j>=1} w_j/(1 - w_j^2) and w_j/(1 + w_j), c_k = d_k/k gives
    sum_{j>=1} artanh(w_j) and log(1 + w_j)."""
    z = w * w
    s_odd, s_even = np.zeros_like(z), np.zeros_like(z)
    for c_odd, c_even in c.reshape(-1, 2)[::-1]:
        s_odd *= z
        s_odd += c_odd
        s_even *= z
        s_even += c_even
    np.multiply(w, s_odd, out=s_odd)
    np.multiply(z, s_even, out=s_even)
    np.subtract(s_odd, s_even, out=s_even)
    return s_odd, s_even


def _images(N: int, b: float, u, phi, grad: bool):
    """All four canonical functions (and gradients) by image summation.

    Returns [f1, f2, f3, f4] or, with ``grad``, ([f*_u], [f*_phi]).  The
    four image families are affine in j with slope 2*log(b).  Only the
    j = 0 images reach w ~ 1, near the corners, and they go through the
    cancellation-safe kernels.  For j >= 1, |w_j| <= q = b**N < 1 on the
    sector keeps 1 - w**2 and 1 + w away from zero, and
    :func:`_lambert_sums` adds all of them at once: the kernels
    (4/pi) Im artanh(w) and (2/m) Im log(1 + w) for the values, their
    derivatives for the gradients.
    """
    check_sector(N, b)
    m = 0.5 * N
    x = math.log(b)
    u, phi = np.broadcast_arrays(np.asarray(u, dtype=float),
                                 np.asarray(phi, dtype=float))
    # j = 0 arguments as [pair][direct, reflected]: pair 0 carries the
    # outer-circle data (f1, f2), pair 1 the inner-circle data (f3, f4)
    a0 = np.array([[u, 2.0 * x - u], [x - u, u + x]])
    j_cap = max(16, int(80.0 / max(N * abs(x), 1e-3)) + 4)
    order = ((0, 0), (1, 0), (0, 1), (1, 1))   # [kernel, pair] of f1..f4
    w = np.exp(m * a0) * np.exp(1j * m * phi)
    powers, d = _lambert_coefficients(N, b, w, j_cap)
    s_odd, s_lin = _lambert_sums(w, d if grad else d / powers)
    del w   # not needed past the sums, so the kernels' temporaries reuse it
    if grad:
        g_odd, g_lin = _kernel_gradients(m, a0, phi)
        # g[pair, direct/reflected]; d/du of a reflected argument flips sign
        sign_u = np.array([1.0, -1.0]).reshape((2,) + (1,) * u.ndim)
        g_u, g_phi = [], []
        for g in (g_odd + (4.0 * m / math.pi) * s_odd, g_lin + 2.0 * s_lin):
            g_u.append(sign_u * (g.imag[:, 0] + g.imag[:, 1]))
            g_phi.append(g.real[:, 0] - g.real[:, 1])
        return [g_u[k][p] for k, p in order], [g_phi[k][p] for k, p in order]
    # the values need only Im of the sums; copies free the complex arrays
    s_odd, s_lin = s_odd.imag.copy(), s_lin.imag.copy()
    vals = [v[:, 0] - v[:, 1]
            for v in (_kernel_odd(m, a0, phi) + (4.0 / math.pi) * s_odd,
                      _kernel_linear(m, a0, phi) + (2.0 / m) * s_lin)]
    return [vals[k][p] for k, p in order]


def director(spec: DefectStateSpec, b: float, r, phi):
    """Director angle a0*phi + sum a_i f_i at the given polar points."""
    a0, a1, a2, a3, a4 = spec.coefficients
    u = np.log(np.asarray(r, dtype=float))
    phi_arr = np.asarray(phi, dtype=float)
    f = _images(spec.N, b, u, phi_arr, grad=False)
    out = a0 * phi_arr + a1 * f[0] + a2 * f[1] + a3 * f[2] + a4 * f[3]
    return float(out) if np.ndim(out) == 0 else out


def director_gradient(spec: DefectStateSpec, b: float, r, phi):
    """(d theta/d log r, d theta/d phi) of the state at polar points."""
    a0, a1, a2, a3, a4 = spec.coefficients
    u = np.log(np.asarray(r, dtype=float))
    phi_arr = np.asarray(phi, dtype=float)
    fu, fp = _images(spec.N, b, u, phi_arr, grad=True)
    theta_u = a1 * fu[0] + a2 * fu[1] + a3 * fu[2] + a4 * fu[3]
    theta_p = a0 + a1 * fp[0] + a2 * fp[1] + a3 * fp[2] + a4 * fp[3]
    return theta_u, theta_p


# ---------------------------------------------------------------------------
# closed-form energies


# Each edge sum is a combination of F(x) = sum_{m>=1} log(1 - e^{-2 pi m x})
# at x = s*t, t = N*log(1/b)/(2*pi): pairs (c, s) of sum c*F(s*t)
_EDGE_SUMS = {1: ((16.0, 1.0), (-8.0, 2.0)),
              2: ((-24.0, 1.0), (16.0, 0.5), (8.0, 2.0)),
              3: ((16.0, 1.0),),
              4: ((16.0, 0.5), (-16.0, 1.0))}


def _log_eta(terms, t: float) -> float:
    """Sum of c*F(s*t) over the pairs (c, s) in ``terms``.

    Below x = 1 the eta transformation eta(-1/tau) = sqrt(-i tau) eta(tau)
    gives F(x) = pi*x/12 - pi/(12*x) - log(x)/2 + F(1/x), so every F is
    summed at an argument >= 1, where 8 terms reach round-off.  The
    -pi/(12*x) parts grow like 1/t as b -> 1; their coefficients are added
    exactly before one multiplication, so no two of them are subtracted.
    """
    pole = 0.0
    total = 0.0
    for c, s in terms:
        x = s * t
        if x < 1.0:
            pole += c / s
            total += c * (math.pi * x / 12.0 - 0.5 * math.log(x))
            x = 1.0 / x
        total += c * sum(math.log1p(-math.exp(-2.0 * math.pi * m * x))
                         for m in range(1, 9))
    return total - pole * math.pi / (12.0 * t)


def series_s(i: int, N: int, b: float) -> float:
    """Edge-interaction sums entering the normalized energies.

    The sums of coth/csch terms over the harmonics k are Lambert series in
    p = b**N = e^{-2 pi t}.  Summing the inner geometric series leaves
    F(t) = log (p; p)_inf, the log of the Dedekind eta product:
    S1 = 16F(t) - 8F(2t), S2 = -8[3F(t) - 2F(t/2) - F(2t)], S3 = 16F(t),
    S4 = 16[F(t/2) - F(t)].  F is evaluated through the eta transformation
    (T. M. Apostol, Modular Functions and Dirichlet Series in Number
    Theory, 2nd ed., Thm 3.1).  All are negative for 0 < b < 1 and vanish
    as b -> 0.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("series index must be 1..4")
    check_sector(N, b)
    return _log_eta(_EDGE_SUMS[i], -N * math.log(b) / (2.0 * math.pi))


# (S1 + S4 - S2 - S3)/4 for U1 and U2, -(S1 + S2)/4 for U3, (S2 - S1)/4 for D
_ENERGY_SUMS = {"U1": ((2.0, 1.0), (-4.0, 2.0)),
                "U2": ((2.0, 1.0), (-4.0, 2.0)),
                "U3": ((2.0, 1.0), (-4.0, 0.5)),
                "D": ((-10.0, 1.0), (4.0, 0.5), (4.0, 2.0))}


def normalized_energy(kind: str, N: int, b: float) -> float:
    """Finite part of the one-constant energy after removing the core logs.

    The edge sums enter as 2F(t) - 4F(2t) for U1 and U2, 2F(t) - 4F(t/2)
    for U3 and -10F(t) + 4F(t/2) + 4F(2t) for D.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
    check_sector(N, b)
    log_inv_b = -math.log(b)
    edge = _log_eta(_ENERGY_SUMS[kind], N * log_inv_b / (2.0 * math.pi))
    if kind in ("U1", "U2"):
        sign = 1.0 if kind == "U1" else -1.0
        rot = (N + sign * 2) ** 2 / (4.0 * N)
        return edge + rot * log_inv_b + 0.5 * math.log(b / N ** 2)
    return edge + log_inv_b / N + 0.5 * math.log(16.0 * b / N ** 2)


def total_energy(kind: str, N: int, b: float, eps: float, K: float = 1.0) -> float:
    """Regularized sector energy K*pi*(log(1/eps) + normalized energy).

    The contributions of the removed core arcs are of order eps and are
    dropped, matching the closed-form normalization.
    """
    check_core_radius(eps, b)
    if not 0.0 < K < math.inf:
        raise ValueError("elastic constant K must be positive and finite")
    return K * math.pi * (math.log(1.0 / eps) + normalized_energy(kind, N, b))


def crossover_N(b: float, N_max: int) -> Optional[int]:
    """Smallest even sector count where the diagonal state undercuts U2."""
    N_max = check_index(N_max, "N_max", 2)
    for N in range(2, N_max + 1, 2):
        if normalized_energy("D", N, b) < normalized_energy("U2", N, b):
            return N
    return None


# ---------------------------------------------------------------------------
# independent 2-D quadrature of the Dirichlet energy


def _gauss_panel(lo, hi, order):
    x, w = gauss_legendre(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _corner_patch(corner, e1, e2, rho_min, size, n_psi, n_s):
    """Nodes (u, phi, weight) over the quarter square at a corner minus the
    core disk.

    Polar coordinates about the corner with a logarithmic radial variable;
    the two octants are separate Gauss panels in the angle because the
    square's outer boundary has a slope break on the diagonal.
    """
    psi, wpsi = _gauss_panel(np.array([[0.0], [0.25 * math.pi]]),
                             np.array([[0.25 * math.pi], [0.5 * math.pi]]), n_psi)
    psi, wpsi = psi.ravel(), wpsi.ravel()
    r_outer = size / np.maximum(np.cos(psi), np.sin(psi))
    smax = np.log(r_outer / rho_min)
    s_ref, ws_ref = gauss_legendre(n_s)
    s = 0.5 * (s_ref[None, :] + 1.0) * smax[:, None]
    ws = 0.5 * ws_ref[None, :] * smax[:, None]
    rho = rho_min * np.exp(s)
    u_pts = corner[0] + rho * (np.cos(psi)[:, None] * e1[0]
                               + np.sin(psi)[:, None] * e2[0])
    p_pts = corner[1] + rho * (np.cos(psi)[:, None] * e1[1]
                               + np.sin(psi)[:, None] * e2[1])
    return u_pts.ravel(), p_pts.ravel(), (rho * rho * ws * wpsi[:, None]).ravel()


def _rect_nodes(u_lo, u_hi, p_lo, p_hi, panel, order):
    """Nodes (u, phi, weight) of tensor Gauss panels over a rectangle."""
    nu = max(1, int(math.ceil((u_hi - u_lo) / panel)))
    np_ = max(1, int(math.ceil((p_hi - p_lo) / panel)))
    iu = np.arange(nu)[:, None]
    ip = np.arange(np_)[:, None]
    xu, wu = _gauss_panel(u_lo + (u_hi - u_lo) * iu / nu,
                          u_lo + (u_hi - u_lo) * (iu + 1) / nu, order)
    xp, wp = _gauss_panel(p_lo + (p_hi - p_lo) * ip / np_,
                          p_lo + (p_hi - p_lo) * (ip + 1) / np_, order)
    uu, pp = np.meshgrid(xu.ravel(), xp.ravel(), indexing="ij")
    return uu.ravel(), pp.ravel(), np.outer(wu, wp).ravel()


# points per director_gradient call: one call per level would hold every
# image array of ~10^5 points at once, fixed blocks keep the memory flat
_ORACLE_BLOCK = 4096


def _oracle_level(spec, b, eps, n_psi, n_s, order, panel_div):
    big_t = -math.log(b)
    big_phi = 2.0 * math.pi / spec.N
    size = min(big_t, big_phi) / 3.0
    rho_out = eps
    rho_in = eps / b
    if max(rho_out, rho_in) >= 0.5 * size:
        raise ValueError("core radius too large for the sector geometry")
    corners = (
        ((-big_t, 0.0), (1.0, 0.0), (0.0, 1.0), rho_in),
        ((0.0, 0.0), (-1.0, 0.0), (0.0, 1.0), rho_out),
        ((0.0, big_phi), (-1.0, 0.0), (0.0, -1.0), rho_out),
        ((-big_t, big_phi), (1.0, 0.0), (0.0, -1.0), rho_in),
    )
    panel = size / panel_div
    nodes = [_corner_patch(corner, e1, e2, rho, size, n_psi, n_s)
             for corner, e1, e2, rho in corners]
    nodes += [_rect_nodes(-big_t + size, -size, 0.0, big_phi, panel, order),
              _rect_nodes(-size, 0.0, size, big_phi - size, panel, order),
              _rect_nodes(-big_t, -big_t + size, size, big_phi - size,
                          panel, order)]
    u, phi, weight = (np.concatenate(c) for c in zip(*nodes))
    total = 0.0
    for lo in range(0, u.size, _ORACLE_BLOCK):
        blk = slice(lo, lo + _ORACLE_BLOCK)
        gu, gp = director_gradient(spec, b, np.exp(u[blk]), phi[blk])
        total += 0.5 * float(np.dot(gu * gu + gp * gp, weight[blk]))
    return total


def energy_quadrature_oracle(spec: DefectStateSpec, b: float, eps: float) -> float:
    """Dirichlet energy (1/2)|grad theta|^2 over the sector minus core disks.

    Conformal log-radius coordinates flatten the sector to a rectangle and
    leave the Dirichlet density invariant; the removed quarter-disks of
    physical radius ``eps`` become quarter-disks of radius eps (outer) and
    eps/b (inner) up to relative O(eps), consistent with dropping the arc
    terms.  Two refinement levels must agree, otherwise
    :class:`QuadratureBudget` is raised.  Independent of the closed-form
    energy expressions.
    """
    check_core_radius(eps, b)
    coarse = _oracle_level(spec, b, eps, n_psi=20, n_s=36, order=10, panel_div=2)
    fine = _oracle_level(spec, b, eps, n_psi=30, n_s=54, order=14, panel_div=3)
    if abs(fine - coarse) > max(1e-5 * abs(fine), 1e-7):
        raise QuadratureBudget(f"levels disagree: {coarse!r} vs {fine!r}")
    return fine
