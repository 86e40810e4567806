"""Defect-free director state on the annulus with tangent Dirichlet anchoring.

Closed-form energy and stability eigenvalues of the azimuthal state
theta = phi + pi/2, the supercritical pitchfork amplitude law at the
critical anisotropy, and the spiral deformation family obtained by
inverting the turning-point integral of the radial reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (Bracket, GridFunction, carlson_rf_rj, check_index,
                       check_ratio, find_root)


class SubcriticalInput(ValueError):
    """Anisotropy below the bifurcation point: amplitude undefined."""


class NoSpiralBranch(ValueError):
    """No spiral solution with positive offset exists at this anisotropy."""


class DomainError(ValueError):
    """Evaluation point outside the open interval where the formula holds."""


@dataclass(frozen=True)
class AnnulusGeometry:
    """Annulus with outer radius rescaled to 1; ``b`` is the inner-to-outer
    radius ratio."""

    b: float

    def __post_init__(self):
        check_ratio(self.b)


@dataclass(frozen=True)
class ElasticParams:
    """Elastic constants through the anisotropy delta = 1 - K1/K3."""

    delta: float
    k3: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"anisotropy must lie in [0,1], got {self.delta}")
        # written so that nan fails it too
        if not 0.0 < self.k3 < math.inf:
            raise ValueError("bend constant must be positive and finite")

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
    check_ratio(b)
    check_index(n, "mode index", 1)
    p = (math.pi * n) ** 2
    return p / (p + math.log(b) ** 2)


def eigenmode(b: float, n: int, r):
    """Neutral radial mode sin(pi n log r / log b), unit amplitude."""
    check_ratio(b)
    check_index(n, "mode index", 1)
    r = np.asarray(r, dtype=float)
    out = np.sin(math.pi * n * np.log(r) / math.log(b))
    return float(out) if out.ndim == 0 else out


def second_variation_radial(eta: GridFunction, delta: float, b: float) -> float:
    """Second variation 2*pi*int_b^1 [eta'^2 - delta*(eta/r + eta')^2] r dr.

    Phi-independent perturbations, K3 factored out.  ``eta`` must vanish at
    both endpoints and be sampled in r on [b, 1]; the derivative is taken
    by second-order differences on the given nodes.
    """
    check_ratio(b)
    ElasticParams(delta)    # the one check of delta
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
    if not delta <= 1.0:
        raise ValueError(f"anisotropy must lie in [0,1], got {delta}")
    d1 = delta_n(b, 1)
    if delta <= d1:
        raise SubcriticalInput(f"delta={delta} is at or below delta_1={d1}")
    return math.sqrt(2.0 * (delta - d1) / d1)


def _integrand(w, delta: float, u_max: float):
    """Turning-point integrand in w = sqrt(u_max - U); along the profile
    dt/dw = -_integrand."""
    ww = w * w
    num = 1.0 - delta * np.cos(u_max - ww) ** 2
    den = delta * np.sin(2.0 * u_max - ww) * np.sin(ww)
    return 2.0 * w * np.sqrt(num / np.maximum(den, 1e-300))


def _tail_integral(u_lo, delta: float, u_max: float):
    """Turning-point integral t(U) from U = u_lo to u_max, elementwise.

    With m = sin^2 u_max, q = 1 - delta + delta m, n' = delta m / q,
    m' = -m / cos^2 u_max and y^2 = sin(u_max + U) sin(u_max - U) / m, it is
    sqrt(q / (delta cos^2 u_max)) [y R_F(X) - (n'/3) y^3 R_J(X, 1)] with
    X = (1 - y^2, 1 - m' y^2, 1 - n' y^2), each written without
    cancellation.  At delta = 1 it is acosh(cos U / cos u_max).
    """
    c = math.cos(u_max)
    if delta == 1.0:
        z = 2.0 * np.sin(0.5 * (u_max + u_lo)) * np.sin(0.5 * (u_max - u_lo)) / c
        return np.log1p(z + np.sqrt(z * (z + 2.0)))
    m = math.sin(u_max) ** 2
    q = 1.0 - delta + delta * m
    n = delta * m / q
    # squares as products: numpy squares arrays exactly but raises scalars
    # through pow, and the root find's scalar calls must match array rows
    s, k = np.sin(u_lo), np.cos(u_lo) / c
    s2 = s * s / m
    y2 = np.sin(u_max + u_lo) * np.sin(u_max - u_lo) / m
    rf, rj = carlson_rf_rj(s2, k * k, (1.0 - delta) / q + n * s2)
    return math.sqrt(q / delta) / c * np.sqrt(y2) * (rf - n / 3.0 * y2 * rj)


def spiral_solve(delta: float, b: float, n_profile: int = 1025) -> SpiralState:
    """Solve for the one-maximum spiral offset profile U(t), t = -log r.

    The maximum offset u_max is pinned by requiring the turning-point
    integral to equal half of log(1/b); the root meets that only to its
    tolerance.  The profile is then recovered on a uniform t-grid by
    inverting the monotone half-branch against the integral u_max actually
    attains, so U = 0 falls exactly on the pinned endpoint t = 0, and
    mirrored about the midpoint.  Each node is predicted by Newton in
    w = sqrt(u_max - U), where t(w) is smooth and monotone, bracketed a few
    ulps around the prediction and bisected down to a sign change between
    adjacent doubles.  Only the single-extremum branch is computed;
    multi-extremum solutions exist but carry more energy.
    """
    check_ratio(b)
    if math.isnan(delta):
        raise ValueError("anisotropy must be a number, got nan")
    if delta > 1.0:
        raise ValueError("anisotropy cannot exceed 1")
    d1 = delta_n(b, 1)
    if delta <= d1:
        raise NoSpiralBranch(f"delta={delta} is at or below delta_1={d1:.6f}; "
                             "the offset equation has no positive solution")
    n_profile = check_index(n_profile, "n_profile", 3)
    if n_profile % 2 == 0:
        raise ValueError("n_profile must be odd and at least 3")
    period = math.log(1.0 / b)
    target = 0.5 * period

    # The half-period integral grows from (pi/2)*sqrt((1-delta)/delta) at
    # u0 -> 0 and diverges as u0 -> pi/2; expand toward pi/2 until it
    # exceeds the target, then bracket.  The root meets the target only to
    # its tolerance, and the central second difference at the first
    # interior node scales any offset between t(U=0) and the pinned t=0 by
    # 1/h^2.  The inversion below therefore measures t from the integral
    # u_max attains, not from the target.
    def half_integral(u0):
        # a numpy scalar, not a 1-row array: the same bits, and a seventh
        # of the numpy dispatch cost
        return float(_tail_integral(np.float64(0.0), delta, u0))

    def residual(u0):
        return half_integral(u0) - target

    lo = 1e-8
    if residual(lo) > 0.0:
        raise NoSpiralBranch(f"delta={delta} is within rounding of delta_1={d1!r}; "
                             "the offset is below resolution")
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
    t_half = t_nodes[1:n_half]

    def t_of(u):
        return half - _tail_integral(u, delta, u_max)

    # Predict each node in w = sqrt(u_max - u), where t(w) is smooth: linear
    # interpolation in a 64-row table, then two Newton steps on
    # dt/dw = -_integrand at the node itself.
    w_tab = np.linspace(math.sqrt(u_max), 0.0, 64)
    w = np.interp(t_half, t_of(u_max - w_tab ** 2), w_tab)
    for _ in range(2):
        g = _integrand(w, delta, u_max)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.clip(w + (t_of(u_max - w * w) - t_half) / g, 0.0, w_tab[0])
    # Bracket f = t(u) - t_i by stepping outward from the prediction x by
    # 1.6e-15*x*4^k until f changes sign.  A node whose prediction is not
    # finite, or whose search leaves (0, c_max), takes the full bracket.
    c_max = u_max * (1.0 - 1e-15)
    x = u_max - w * w
    act = np.flatnonzero((x > 0.0) & (x < c_max))
    a, c = np.zeros_like(t_half), np.full_like(t_half, c_max)
    a[act] = c[act] = x[act]
    up = t_of(x[act]) > t_half[act]
    step = 1.6e-15 * x[act]
    while act.size:
        y = x[act] + np.where(up, -step, step)
        y_up = t_of(y) > t_half[act]
        out = (y <= 0.0) | (y >= c_max)
        a[act] = np.where(out, 0.0, np.where(y_up, a[act], y))
        c[act] = np.where(out, c_max, np.where(y_up, y, c[act]))
        go = ~out & (y_up == up)
        act, up, step = act[go], up[go], 4.0 * step[go]
    # then bisection, f(a) <= 0 < f(c), down to adjacent doubles
    mid = 0.5 * (a + c)
    act = np.flatnonzero((mid != a) & (mid != c))
    while act.size:
        mid = 0.5 * (a[act] + c[act])
        up = t_of(mid) > t_half[act]
        a[act], c[act] = np.where(up, a[act], mid), np.where(up, mid, c[act])
        mid = 0.5 * (a[act] + c[act])
        act = act[(mid != a[act]) & (mid != c[act])]
    u_half = 0.5 * (a + c)

    values = np.concatenate([[0.0], u_half, [u_max], u_half[::-1], [0.0]])
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
    check_ratio(b)
    t_arr = np.asarray(t, dtype=float)
    period = math.log(1.0 / b)
    if np.any(t_arr <= 0.0) or np.any(t_arr >= period):
        raise DomainError("t must lie strictly between 0 and log(1/b)")
    num = 2.0 * b - b * b - 1.0
    den = b * b * np.exp(2.0 * t_arr) + np.exp(-2.0 * t_arr) - b * b - 1.0
    out = num / den
    return float(out) if out.ndim == 0 else out
