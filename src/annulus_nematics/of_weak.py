"""Weak (Rapini-Papoular) tangent anchoring: stability of the defect-free state.

The surface energy penalizes deviation of the director from the local
tangent with dimensionless strength alpha = W * R_outer / K3.  Robin
boundary conditions replace the Dirichlet pinning, and the critical
anisotropy for each azimuthal perturbation order k is the smallest root
of a transcendental compatibility condition in delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import Bracket, find_root, integrate_singular


class PoleProximity(ArithmeticError):
    """Residual requested within 1e-9 of a tangent (or rational) pole."""


class DegenerateCoefficient(ZeroDivisionError):
    """Eigenmode coefficient blows up because alpha - delta is nearly zero."""


@dataclass(frozen=True)
class AnchoringParams:
    """Dimensionless anchoring strength and preferred boundary offset."""

    alpha: float
    preferred_offset: float = math.pi / 2

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("anchoring strength must be nonnegative")


@dataclass
class StabilityCurve:
    """Critical anisotropy against anchoring strength at azimuthal order k."""

    k: int
    b: float
    points: list  # (alpha, delta_crit) sorted by alpha

    def __post_init__(self):
        alphas = [p[0] for p in self.points]
        if alphas != sorted(alphas):
            raise ValueError("curve points must be sorted by alpha")
        if any(not 0.0 < p[1] < 1.0 for p in self.points):
            raise ValueError("critical anisotropies must lie in (0,1)")


def _square(alpha: float) -> float:
    """alpha ** 2, or inf above 1.3e154 where it overflows; the formulas
    below then take their strong-anchoring limits."""
    try:
        return alpha ** 2
    except OverflowError:
        return math.inf


def compat_residual(delta: float, alpha: float, b: float, k: int) -> float:
    """Residual of the Robin compatibility condition at order k.

    k = 0 couples a tangent of sqrt(delta/(1-delta))*log(1/b) with a
    rational term in (alpha, delta, b); k >= 1 replaces the tangent by a
    hyperbolic tangent.  Zeros in delta locate the critical anisotropies.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if alpha <= 0.0 or not 0.0 < b < 1.0:
        raise ValueError("alpha must be positive and b in (0,1)")
    length = math.log(1.0 / b)
    alpha_sq = _square(alpha)
    if k == 0:
        tau = math.sqrt(delta / (1.0 - delta)) * length
        if abs(math.remainder(tau - 0.5 * math.pi, math.pi)) < 1e-9:
            raise PoleProximity(f"tangent argument {tau} within 1e-9 of a pole")
        den = alpha * delta - alpha * b * delta + alpha_sq * b - delta
        if den == 0.0:
            raise PoleProximity("rational term pole")
        return math.tan(tau) + alpha * (1.0 + b) * math.sqrt(delta * (1.0 - delta)) / den
    nu = math.sqrt((k * k - delta) / (1.0 - delta))
    den = delta * alpha + alpha_sq * b - alpha * b * delta - delta \
        + k * k * (1.0 - delta)
    if den == 0.0:
        raise PoleProximity("rational term pole")
    return math.tanh(nu * length) + (1.0 - delta) * alpha * (1.0 + b) / den * nu


def _k0_pole_partition(alpha: float, b: float):
    """Cell edges in delta: tangent poles plus the rational-term pole."""
    length = math.log(1.0 / b)
    edges = [0.0, 1.0]
    m = 0
    while True:
        x = ((0.5 + m) * math.pi / length) ** 2
        d = x / (1.0 + x)
        if d >= 1.0 - 1e-12:
            break
        edges.append(d)
        m += 1
        if m > 200:
            break
    coef = 1.0 + alpha * b - alpha
    if coef != 0.0:
        d_rat = _square(alpha) * b / coef
        if 0.0 < d_rat < 1.0:
            edges.append(d_rat)
    return sorted(set(edges))


def _smallest_root_in_cells(f, edges, samples: int = 160) -> Optional[float]:
    """Scan each cell left to right and root-solve the first sign change."""
    for lo, hi in zip(edges[:-1], edges[1:]):
        pad = 1e-10 * max(1.0, hi - lo) + 1e-13
        a, c = lo + pad, hi - pad
        if c <= a:
            continue
        xs = np.linspace(a, c, samples)
        prev_x, prev_f = None, None
        for x in xs:
            try:
                fx = f(float(x))
            except PoleProximity:
                prev_x, prev_f = None, None
                continue
            if not math.isfinite(fx):
                prev_x, prev_f = None, None
                continue
            if prev_f is not None and fx == 0.0:
                return float(x)
            if prev_f is not None and math.copysign(1.0, fx) != math.copysign(1.0, prev_f):
                return find_root(f, Bracket(prev_x, x), tol=1e-14)
            prev_x, prev_f = float(x), fx
    return None


def delta_weak(alpha: float, b: float, k: int) -> Optional[float]:
    """Smallest critical anisotropy delta_{1,k}, or None when absent.

    k = 0: pole-aware scan between consecutive tangent poles (the generic
    scan would jump poles and report spurious roots).  k = 1: closed form,
    inside (0,1) exactly when 0 < alpha < 1.  k >= 2: root of the
    hyperbolic condition, which exists only below the rational-term pole
    constraint, again requiring alpha < 1.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0,1)")
    if k == 0:
        edges = _k0_pole_partition(alpha, b)
        return _smallest_root_in_cells(
            lambda d: compat_residual(d, alpha, b, 0), edges)
    if k == 1:
        alpha_sq = _square(alpha)
        num = alpha * b ** 2 + alpha_sq * b + alpha + 1.0 - b ** 2 * alpha_sq - b
        den = alpha * b - b + 1.0
        d11 = 0.5 * num / den
        return d11 if 0.0 < d11 < 1.0 else None
    # k >= 2: the rational denominator is linear in delta, positive at 0;
    # a root needs it negative, which pins the root above its zero
    coef = alpha - alpha * b - 1.0 - k * k
    d_zero = -(_square(alpha) * b + k * k) / coef if coef != 0.0 else math.inf
    if not 0.0 < d_zero < 1.0:
        return None
    edges = [d_zero, 1.0]
    return _smallest_root_in_cells(
        lambda d: compat_residual(d, alpha, b, k), edges)


def weak_eigenmode(r, delta: float, alpha: float, b: float):
    """Neutral radial mode of the Robin problem, unit sine amplitude.

    sin(mu*log(1/r)) + sqrt(delta(1-delta))/(alpha-delta) * cos(mu*log(1/r))
    with mu = sqrt(delta/(1-delta)); satisfies both Robin conditions when
    delta is a root of the k=0 compatibility condition.
    """
    if abs(alpha - delta) < 1e-12:
        raise DegenerateCoefficient("alpha - delta smaller than 1e-12")
    r = np.asarray(r, dtype=float)
    x = np.log(1.0 / r)
    mu = math.sqrt(delta / (1.0 - delta))
    c = math.sqrt(delta * (1.0 - delta)) / (alpha - delta)
    out = np.sin(mu * x) + c * np.cos(mu * x)
    return float(out) if out.ndim == 0 else out


def stability_region(b: float, k_max: int, alpha_grid) -> list[StabilityCurve]:
    """One critical curve per azimuthal order k in {0..k_max}.

    Gaps are left where no critical anisotropy exists; every k >= 1 curve
    therefore ends at alpha = 1.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    alphas = [float(a) for a in alpha_grid]
    if alphas != sorted(alphas) or any(a <= 0 for a in alphas):
        raise ValueError("alpha grid must be positive and increasing")
    curves = []
    for k in range(k_max + 1):
        pts = []
        for a in alphas:
            d = delta_weak(a, b, k)
            if d is not None:
                pts.append((a, d))
        curves.append(StabilityCurve(k=k, b=b, points=pts))
    return curves


def weak_pitchfork_coeffs(alpha: float, b: float) -> tuple[float, float]:
    """Cubic-order bifurcation coefficients (E1, E3) at delta_{1,0}(alpha, b).

    The third-order solvability condition for perturbations about the
    defect-free state reads A^3 E3 - delta_2 A E1 = 0, with E1 from the
    linear-in-delta_2 bulk and boundary quadratures and E3 from the cubic
    ones, both assembled with the unit-amplitude neutral mode.  Only the
    signs and the ratio are meaningful; the overall scale follows the
    mode normalization.  Both are positive, so the bifurcation stays
    supercritical under weak anchoring.
    """
    d1 = delta_weak(alpha, b, 0)
    if d1 is None:
        raise ValueError("no critical anisotropy at this anchoring strength")
    length = math.log(1.0 / b)
    mu = math.sqrt(d1 / (1.0 - d1))
    c = math.sqrt(d1 * (1.0 - d1)) / (alpha - d1)

    def eta(x):
        return np.sin(mu * x) + c * np.cos(mu * x)

    def eta_x(x):
        return mu * np.cos(mu * x) - c * mu * np.sin(mu * x)

    # bulk quadratures in x = log(1/r); measure r dr collapses to dx
    i_a = integrate_singular(
        lambda x: eta(x) * (-(1.0 + mu * mu) * eta(x)), 0.0, length, tol=1e-12)
    i_b = integrate_singular(
        lambda x: eta(x) ** 2 * eta_x(x) ** 2
        - mu * mu * eta(x) ** 4 - (2.0 / 3.0) * eta(x) ** 4,
        0.0, length, tol=1e-12)

    # boundary contributions; r*deta/dr = -deta/dx
    s1, t1 = c, -mu
    sb = float(eta(length))
    tb = float(-eta_x(length))
    b_a = s1 * (s1 + t1) - sb * (sb + tb)
    b_b = (2.0 / 3.0) * s1 ** 4 * (alpha - d1) - d1 * s1 ** 3 * t1 \
        + (2.0 / 3.0) * sb ** 4 * (alpha * b + d1) + d1 * sb ** 3 * tb

    e1 = b_a - i_a
    e3 = -(d1 * i_b + b_b)
    return e1, e3
