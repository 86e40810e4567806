"""Tensor order-parameter description of the defect-free state.

At low temperature the rescaled free energy is of Ginzburg-Landau type
with a single dimensionless parameter t = |A|/L (outer radius scaled to
one).  The defect-free state carries a radial scalar order parameter
s(r) pinned to 1/sqrt(2) on both circles; the companion profile u(r)
with u(b) = 0 enters the stability argument for the first azimuthal
block.  Local stability reduces to positivity of a family of radial
quadratic forms indexed by the Fourier order n, and an explicit
threshold in t guarantees positivity of the n = 2 block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import GridFunction, NewtonDiverged, min_eigenvalue, solve_bvp


def _spline_derivative(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fourth-order derivative of sampled values (not-a-knot cubic spline)."""
    from scipy.interpolate import CubicSpline
    return CubicSpline(r, v).derivative()(r)

SQRT_HALF = 1.0 / math.sqrt(2.0)


class GridMismatch(ValueError):
    """Component profiles must share the order-parameter grid."""


@dataclass(frozen=True)
class LdGParams:
    """Reduced temperature-elasticity ratio t = |A|/L (dimensionless)."""

    t: float

    def __post_init__(self):
        if self.t < 0.0:
            raise ValueError("t must be nonnegative")


@dataclass
class OrderProfile:
    """Radial order parameter: either the s-profile or the u-profile."""

    kind: str
    profile: GridFunction
    params: LdGParams
    b: float

    def __post_init__(self):
        if self.kind not in ("s_profile", "u_profile"):
            raise ValueError("kind must be 's_profile' or 'u_profile'")
        v = self.profile.values
        if self.kind == "s_profile":
            if abs(v[0] - SQRT_HALF) > 1e-9 or abs(v[-1] - SQRT_HALF) > 1e-9:
                raise ValueError("s-profile endpoints must equal 1/sqrt(2)")
            if np.any(v <= 0.0) or np.any(v > SQRT_HALF + 1e-9):
                raise ValueError("s-profile must lie in (0, 1/sqrt(2)]")
        else:
            if abs(v[0]) > 1e-9 or abs(v[-1] - SQRT_HALF) > 1e-9:
                raise ValueError("u-profile endpoints must be 0 and 1/sqrt(2)")
            if np.min(np.diff(v)) < -1e-8:
                raise ValueError("u-profile must be nondecreasing")


def s_profile_zero_t(b: float, r):
    """Closed-form order parameter at t = 0: (r^2 + b^2/r^2)/(sqrt2 (1+b^2))."""
    r = np.asarray(r, dtype=float)
    return SQRT_HALF * (r ** 2 + b ** 2 / r ** 2) / (1.0 + b ** 2)


def u_profile_zero_t(b: float, r):
    """Closed-form companion profile at t = 0 through (b, 0) and (1, 1/sqrt2)."""
    r = np.asarray(r, dtype=float)
    return SQRT_HALF * (r ** 2 - b ** 4 / r ** 2) / (1.0 - b ** 4)


def _solve_profile(b: float, t: float, n_nodes: int, left: float, right: float,
                   init_values) -> GridFunction:
    """Solve the radial equation in log-radius and map back to r-nodes.

    In x = log r the equation reads y'' = 4y + t e^{2x} y (2y^2 - 1); the
    transformed solution has mild, even curvature, which keeps the
    second-order residual well above the rounding floor of the divided
    differences.
    """
    def make_rhs(tk):
        def rhs(x, y, yp):
            return 4.0 * y + tk * np.exp(2.0 * x) * y * (2.0 * y * y - 1.0)
        return rhs

    x = np.linspace(math.log(b), 0.0, n_nodes)
    init = GridFunction(x, init_values(b, np.exp(x)))
    try:
        sol = solve_bvp(make_rhs(t), left, right, (math.log(b), 0.0),
                        n_nodes, init=init)
        return GridFunction(np.exp(sol.nodes), sol.values)
    except NewtonDiverged:
        pass
    # continuation: boundary layers at large t shrink the Newton basin,
    # so climb from the analytic t = 0 profile doubling t each step
    sol = init
    steps = [t]
    while steps[0] > 4.0:
        steps.insert(0, steps[0] / 2.0)
    for tk in steps:
        sol = solve_bvp(make_rhs(tk), left, right, (math.log(b), 0.0),
                        n_nodes, init=sol)
    return GridFunction(np.exp(sol.nodes), sol.values)


def _solved_profile(kind: str, sol: GridFunction, params: LdGParams,
                    b: float) -> OrderProfile:
    """A BVP solution outside the bounds the maximum principle guarantees
    is a solver failure, not a caller error."""
    try:
        return OrderProfile(kind, sol, params, b)
    except ValueError as exc:
        raise NewtonDiverged("BVP solution breaks the maximum principle: "
                             f"{exc}") from exc


def solve_s(b: float, params: LdGParams, n_nodes: int = 801) -> OrderProfile:
    """Order parameter with both circles pinned at 1/sqrt(2).

    The maximum principle keeps 2 s^2 <= 1, so the profile dips to an
    interior minimum; at t = 0 the equation is linear with the closed-form
    solution used as the Newton seed (and as the continuation start).
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0,1)")
    sol = _solve_profile(b, params.t, n_nodes, SQRT_HALF, SQRT_HALF,
                         s_profile_zero_t)
    return _solved_profile("s_profile", sol, params, b)


def solve_u(b: float, params: LdGParams, n_nodes: int = 801) -> OrderProfile:
    """Companion profile vanishing on the inner circle; unique and monotone."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0,1)")
    sol = _solve_profile(b, params.t, n_nodes, 0.0, SQRT_HALF,
                         u_profile_zero_t)
    return _solved_profile("u_profile", sol, params, b)


def ldg_energy(profile: OrderProfile) -> float:
    """Free energy 2 pi int (s'^2 + 4 s^2/r^2 + (t/4)(2s^2-1)^2) r dr."""
    from scipy.integrate import simpson
    r = profile.profile.nodes
    s = profile.profile.values
    sp = _spline_derivative(r, s)
    t = profile.params.t
    dens = (sp ** 2 + 4.0 * s ** 2 / r ** 2
            + 0.25 * t * (2.0 * s ** 2 - 1.0) ** 2) * r
    return 2.0 * math.pi * float(simpson(dens, x=r))


def _check_component(p: GridFunction, r: np.ndarray):
    if p.nodes.shape != r.shape or not np.allclose(p.nodes, r):
        raise GridMismatch("component profile grid differs from the s-grid")
    if abs(p.values[0]) > 1e-9 or abs(p.values[-1]) > 1e-9:
        raise ValueError("perturbation components must vanish at the endpoints")


def Ln_value(n: int, a: GridFunction, b_fn: GridFunction, c: GridFunction,
             d: GridFunction, s: OrderProfile) -> float:
    """Quadratic form of the n-th azimuthal block at a given perturbation.

    Integrates gradient, centrifugal, cross-coupling 8n(ad - bc)/r^2 and
    potential terms (with the extra 4 t s^2 weight on the first two
    components) against the order profile s, by Simpson quadrature on the
    shared grid.
    """
    if n < 0:
        raise ValueError("block index must be nonnegative")
    from scipy.integrate import simpson
    r = s.profile.nodes
    for p in (a, b_fn, c, d):
        _check_component(p, r)
    t = s.params.t
    sv = s.profile.values
    av, bv, cv, dv = a.values, b_fn.values, c.values, d.values
    grads = [_spline_derivative(r, v) for v in (av, bv, cv, dv)]
    sumsq = av ** 2 + bv ** 2 + cv ** 2 + dv ** 2
    dens = sum(g ** 2 for g in grads) * r \
        + (n * n + 4.0) / r * sumsq \
        + 8.0 * n / r * (av * dv - bv * cv) \
        + t * (2.0 * sv ** 2 - 1.0) * sumsq * r \
        + 4.0 * t * sv ** 2 * (av ** 2 + bv ** 2) * r
    return float(simpson(dens, x=r))


def min_eig_Ln(n: int, b: float, params: LdGParams, n_nodes: int = 401) -> float:
    """Smallest eigenvalue of the n-th stability block, r-weighted L2 mass.

    The four components (a, b, c, d) share one radial grid of linear
    elements.  The 8n/r^2 term couples only (a, d), with +couple, and
    (b, c), with -couple; a and b carry the extra 4 t s^2 potential.
    Flipping the sign of c makes the two pairs identical, so the 4m
    spectrum is the 2m spectrum of the (a, d) pair doubled.  That pair is
    assembled interleaved as (a_0, d_0, a_1, d_1, ...), a pentadiagonal
    form whose lower band storage has three rows: the diagonal, the a_i-d_i
    coupling on even columns, and the stiffness off-diagonal repeated for
    both components.  Only the sign is contractual: positive means no
    admissible perturbation of this order lowers the energy.
    """
    if n < 0:
        raise ValueError("block index must be nonnegative")
    s = solve_s(b, params, n_nodes=n_nodes)
    r = s.profile.nodes
    sv = s.profile.values
    t = params.t
    ri = r[1:-1]
    si = sv[1:-1]
    # piecewise-linear elements on the (generally non-uniform) r-grid
    hcell = np.diff(r)
    r_half = 0.5 * (r[:-1] + r[1:])
    kd = r_half[:-1] / hcell[:-1] + r_half[1:] / hcell[1:]
    ko = -r_half[1:-1] / hcell[1:-1]

    w = 0.5 * (hcell[:-1] + hcell[1:]) * ri
    pot_common = ((n * n + 4.0) / ri ** 2 + t * (2.0 * si ** 2 - 1.0)) * w
    pot_ab = pot_common + 4.0 * t * si ** 2 * w
    couple = 4.0 * n / ri ** 2 * w

    band = np.zeros((3, 2 * len(ri)))
    band[0, 0::2] = kd + pot_ab
    band[0, 1::2] = kd + pot_common
    band[1, 0::2] = couple
    band[2, :-2] = np.repeat(ko, 2)
    return min_eigenvalue(band, np.repeat(w, 2))


def stability_threshold(b: float) -> float:
    """Sufficient t = |A|/L for stability of the n = 2 block: 3(b^2+1)^2/(2b^4)."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0,1)")
    return 3.0 * (b * b + 1.0) ** 2 / (2.0 * b ** 4)


@dataclass(frozen=True)
class PropositionReport:
    """Diagnostic flags for the analytic properties of the order profiles."""

    u_monotone: bool
    u_below_s: bool
    s_has_interior_min: bool
    s_min_bound: bool
    golovaty_bound: bool
    s_min: float
    r_star: float


def check_propositions(b: float, params: LdGParams,
                       n_nodes: int = 1601) -> PropositionReport:
    """Verify the qualitative profile properties at one parameter point.

    u nondecreasing and below s; s dips to an interior minimum bounded
    below both by sqrt(1/2 - 2/(t r*^2)) at the located minimizer r* and
    by the geometry-only bound sqrt(2) b/(b^2+1), attained exactly at
    t = 0.
    """
    s = solve_s(b, params, n_nodes=n_nodes)
    u = solve_u(b, params, n_nodes=n_nodes)
    sv, uv = s.profile.values, u.profile.values
    r = s.profile.nodes
    i_min = int(np.argmin(sv))
    s_min = float(sv[i_min])
    r_star = float(r[i_min])
    u_monotone = bool(np.min(np.diff(uv)) >= -1e-10)
    u_below_s = bool(np.max(uv - sv) <= 1e-8)
    interior = bool(0 < i_min < len(r) - 1 and s_min < SQRT_HALF - 1e-12)
    t = params.t
    bound_sq = 0.5 - 2.0 / (t * r_star ** 2) if t > 0.0 else -math.inf
    s_min_bound = bool(bound_sq <= 0.0 or s_min >= math.sqrt(bound_sq) - 1e-10)
    golovaty = bool(s_min >= math.sqrt(2.0) * b / (b * b + 1.0) - 1e-6)
    return PropositionReport(u_monotone=u_monotone, u_below_s=u_below_s,
                             s_has_interior_min=interior,
                             s_min_bound=s_min_bound, golovaty_bound=golovaty,
                             s_min=s_min, r_star=r_star)
