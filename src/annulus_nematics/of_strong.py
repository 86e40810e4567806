"""Defect-free director state on the annulus with tangent Dirichlet anchoring.

Closed-form energy and stability eigenvalues of the azimuthal state
theta = phi + pi/2, the supercritical pitchfork amplitude law at the
critical anisotropy, and the spiral deformation family obtained by
inverting the turning-point integral of the radial reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import Bracket, GridFunction, find_root

_GL64 = np.polynomial.legendre.leggauss(64)


class SubcriticalInput(ValueError):
    """Anisotropy below the bifurcation point: amplitude undefined."""


class NoSpiralBranch(ValueError):
    """No spiral solution with positive offset exists at this anisotropy."""


class DomainError(ValueError):
    """Evaluation point outside the open interval where the formula holds."""


@dataclass(frozen=True)
class AnnulusGeometry:
    """Annulus with outer radius rescaled to 1.

    ``b`` is the inner-to-outer radius ratio, ``n_sectors`` an optional
    sector count for tiled configurations, ``eps`` an optional defect-core
    radius used when regularizing corner defects.
    """

    b: float
    n_sectors: Optional[int] = None
    eps: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"radius ratio must lie in (0,1), got {self.b}")
        if self.n_sectors is not None and self.n_sectors < 1:
            raise ValueError("sector count must be a positive integer")
        if self.eps is not None and not 0.0 < self.eps < self.b / 4.0:
            raise ValueError("core radius must lie in (0, b/4)")


@dataclass(frozen=True)
class ElasticParams:
    """Elastic constants through the anisotropy delta = 1 - K1/K3."""

    delta: float
    k3: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"anisotropy must lie in [0,1], got {self.delta}")
        if self.k3 <= 0.0:
            raise ValueError("bend constant must be positive")

    @property
    def k1(self) -> float:
        return (1.0 - self.delta) * self.k3


@dataclass
class SpiralState:
    """Spiral deformation theta = phi + pi/2 + U with maximum offset u_max.

    Only the U >= 0 branch is stored.
    """

    geometry: AnnulusGeometry
    delta: float
    u_max: float
    profile: GridFunction


def defect_free_energy(geometry: AnnulusGeometry, elastic: ElasticParams) -> float:
    """Elastic energy of theta = phi + pi/2: pi * K3 * log(1/b)."""
    return math.pi * elastic.k3 * math.log(1.0 / geometry.b)


def delta_n(b: float, n: int) -> float:
    """n-th critical anisotropy of the radial stability problem.

    pi^2 n^2 / (pi^2 n^2 + log^2 b); strictly increasing in n, in (0,1).
    """
    if not 0.0 < b < 1.0:
        raise ValueError("radius ratio must lie in (0,1)")
    if n < 1:
        raise ValueError("mode index must be a positive integer")
    p = (math.pi * n) ** 2
    return p / (p + math.log(b) ** 2)


def eigenmode(b: float, n: int, r):
    """Neutral radial mode sin(pi n log r / log b), unit amplitude."""
    r = np.asarray(r, dtype=float)
    out = np.sin(math.pi * n * np.log(r) / math.log(b))
    return float(out) if out.ndim == 0 else out


def second_variation_radial(eta: GridFunction, delta: float, b: float) -> float:
    """Second variation 2*pi*int_b^1 [eta'^2 - delta*(eta/r + eta')^2] r dr.

    Phi-independent perturbations, K3 factored out.  ``eta`` must vanish at
    both endpoints and be sampled in r on [b, 1]; the derivative is taken
    by second-order differences on the given nodes.
    """
    r, v = eta.nodes, eta.values
    if abs(r[0] - b) > 1e-12 or abs(r[-1] - 1.0) > 1e-12:
        raise ValueError("profile nodes must span [b, 1]")
    dv = np.gradient(v, r, edge_order=2)
    integrand = (dv ** 2 - delta * (v / r + dv) ** 2) * r
    return 2.0 * math.pi * float(np.trapezoid(integrand, r))


def pitchfork_amplitude(delta: float, b: float) -> float:
    """Leading-order offset amplitude sqrt(2*(delta - delta_1)/delta_1).

    Amplitude of the sin(pi log r / log b) mode just above the critical
    anisotropy; the bifurcation is supercritical, so the branch only exists
    for delta > delta_1.
    """
    d1 = delta_n(b, 1)
    if delta <= d1:
        raise SubcriticalInput(f"delta={delta} is at or below delta_1={d1}")
    return math.sqrt(2.0 * (delta - d1) / d1)


def _tail_integral(u_lo: np.ndarray, delta: float, u_max: float) -> np.ndarray:
    """Vectorized integral from u_lo to u_max after the w^2 substitution."""
    w_max = np.sqrt(np.maximum(u_max - u_lo, 0.0))
    xn = 0.5 * (_GL64[0] + 1.0)
    wt = 0.5 * _GL64[1]
    w = w_max[:, None] * xn[None, :]
    ww = w * w
    u = u_max - ww
    num = 1.0 - delta * np.cos(u) ** 2
    den = delta * np.sin(2.0 * u_max - ww) * np.sin(ww)
    g = 2.0 * w * np.sqrt(num / np.maximum(den, 1e-300))
    return w_max * (g @ wt)


def spiral_solve(delta: float, b: float, n_profile: int = 1025) -> SpiralState:
    """Solve for the one-maximum spiral offset profile U(t), t = -log r.

    The maximum offset u_max is pinned by requiring the turning-point
    integral to equal half of log(1/b); the root meets that only to its
    tolerance.  The profile is then recovered on a uniform t-grid by
    bisecting the monotone half-branch against the integral u_max actually
    attains, so U = 0 falls exactly on the pinned endpoint t = 0, and
    mirrored about the midpoint.  Only the single-extremum branch is
    computed; multi-extremum solutions exist but carry more energy.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("radius ratio must lie in (0,1)")
    if delta > 1.0:
        raise ValueError("anisotropy cannot exceed 1")
    d1 = delta_n(b, 1)
    if delta <= d1:
        raise NoSpiralBranch(f"delta={delta} is at or below delta_1={d1:.6f}; "
                             "the offset equation has no positive solution")
    if n_profile < 3 or n_profile % 2 == 0:
        raise ValueError("n_profile must be odd and at least 3")
    period = math.log(1.0 / b)
    target = 0.5 * period

    # The half-period integral grows from (pi/2)*sqrt((1-delta)/delta) at
    # u0 -> 0 and diverges as u0 -> pi/2; expand toward pi/2 until it
    # exceeds the target, then bracket.  The root meets the target only to
    # its tolerance, and the central second difference at the first
    # interior node scales any offset between t(U=0) and the pinned t=0 by
    # 1/h^2.  The inversion below therefore measures t from the integral
    # u_max attains (same fixed-node quadrature), not from the target.
    def half_integral(u0):
        return float(_tail_integral(np.zeros(1), delta, u0)[0])

    def residual(u0):
        return half_integral(u0) - target

    lo = 1e-8
    hi = None
    for k in range(1, 44):
        cand = 0.5 * math.pi * (1.0 - 2.0 ** (-k))
        if residual(cand) > 0.0:
            hi = cand
            break
        lo = cand
    if hi is None:
        raise NoSpiralBranch("failed to bracket the maximum offset")
    u_max = find_root(residual, Bracket(lo, hi), tol=1e-12)
    half = half_integral(u_max)

    t_nodes = np.linspace(0.0, period, n_profile)
    n_half = n_profile // 2
    t_half = t_nodes[1:n_half + 1]
    u_lo = np.zeros_like(t_half)
    u_hi = np.full_like(t_half, u_max * (1.0 - 1e-15))
    for _ in range(80):
        u_mid = 0.5 * (u_lo + u_hi)
        t_mid = half - _tail_integral(u_mid, delta, u_max)
        above = t_mid > t_half
        # once no bracket moves, every later round repeats these midpoints
        if np.array_equal(u_mid, np.where(above, u_hi, u_lo)):
            break
        u_hi = np.where(above, u_mid, u_hi)
        u_lo = np.where(above, u_lo, u_mid)
    u_half = 0.5 * (u_lo + u_hi)

    values = np.zeros(n_profile)
    values[1:n_half + 1] = u_half
    values[n_half] = u_max
    values[n_half + 1:-1] = u_half[:-1][::-1]
    profile = GridFunction(t_nodes, values)
    return SpiralState(AnnulusGeometry(b), delta, u_max, profile)


def spiral_ode_residual(state: SpiralState, interior_margin: float = 0.0) -> float:
    """Max residual of the offset equation on interior profile nodes.

    (delta*cos^2 U - 1) U'' - (delta/2) sin(2U) (U'^2 + 1), derivatives by
    central differences.  ``interior_margin`` trims a fraction of the
    period at each end (useful at delta = 1 where U has sqrt behaviour at
    the boundaries and finite differences lose accuracy).
    """
    t, u = state.profile.nodes, state.profile.values
    h = t[1] - t[0]
    d1 = (u[2:] - u[:-2]) / (2.0 * h)
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    ui = u[1:-1]
    res = (state.delta * np.cos(ui) ** 2 - 1.0) * d2 \
        - 0.5 * state.delta * np.sin(2.0 * ui) * (d1 ** 2 + 1.0)
    ti = t[1:-1]
    period = t[-1]
    keep = (ti >= interior_margin * period) & (ti <= (1.0 - interior_margin) * period)
    return float(np.max(np.abs(res[keep])))


def spiral_energy(state: SpiralState, elastic: ElasticParams) -> float:
    """Elastic energy of the spiral state by quadrature over the profile.

    In t = -log r the density reduces to K1/2 (p - p')^2 + K3/2 (g - g')^2
    with p = sin U, g = cos U, so the defect-free value pi*K3*log(1/b) is
    recovered at U = 0 and 2*pi*K3*(1-b)/(1+b) at delta = 1.
    """
    from scipy.integrate import simpson
    t, u = state.profile.nodes, state.profile.values
    p = np.sin(u)
    g = np.cos(u)
    dp = np.gradient(p, t, edge_order=2)
    dg = np.gradient(g, t, edge_order=2)
    k1 = elastic.k1
    k3 = elastic.k3
    density = 0.5 * k1 * (p - dp) ** 2 + 0.5 * k3 * (g - dg) ** 2
    return 2.0 * math.pi * float(simpson(density, x=t))


def delta1_stability_coefficient(b: float, t):
    """Zeroth-order coefficient of the second variation about the delta=1 spiral.

    (2b - b^2 - 1) / (b^2 e^{2t} + e^{-2t} - b^2 - 1); at least 1 on the
    open interval 0 < t < log(1/b), with equality at the midpoint.
    """
    t_arr = np.asarray(t, dtype=float)
    period = math.log(1.0 / b)
    if np.any(t_arr <= 0.0) or np.any(t_arr >= period):
        raise DomainError("t must lie strictly between 0 and log(1/b)")
    num = 2.0 * b - b * b - 1.0
    den = b * b * np.exp(2.0 * t_arr) + np.exp(-2.0 * t_arr) - b * b - 1.0
    out = num / den
    return float(out) if out.ndim == 0 else out
