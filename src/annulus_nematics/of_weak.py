"""Weak (Rapini-Papoular) tangent anchoring: stability of the defect-free state.

The surface energy penalizes deviation of the director from the local
tangent with dimensionless strength alpha = W * R_outer / K3.  Robin
boundary conditions replace the Dirichlet pinning, and the critical
anisotropy for each azimuthal perturbation order k is the smallest root
of a transcendental compatibility condition in delta.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (Bracket, check_index, check_ratio, find_root,
                       gauss_legendre)


class PoleProximity(ArithmeticError):
    """Residual requested within 1e-9 of a tangent (or rational) pole."""


class DegenerateCoefficient(ZeroDivisionError):
    """Eigenmode coefficient blows up because alpha - delta is nearly zero."""


@dataclass(frozen=True)
class AnchoringParams:
    """Dimensionless strength of the tangent anchoring."""

    alpha: float

    def __post_init__(self):
        # written so that nan fails it too
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("anchoring strength must be nonnegative and finite")


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


def _tan_argument(m, delta, length):
    """sqrt(delta/(1-delta)) * log(1/b), the k = 0 tangent's argument."""
    return m.sqrt(delta / (1.0 - delta)) * length


def _tan_pole_distance(m, tau):
    """|remainder(tau - pi/2, pi)|, exactly and elementwise: fmod is exact,
    and so is pi - r for r >= pi/2 (Sterbenz's lemma)."""
    r = abs(m.fmod(tau - 0.5 * math.pi, math.pi))
    return np.minimum(r, math.pi - r)


def _residual(m, alpha: float, b: float, k: int):
    """The compatibility residual as an unchecked function of delta, through
    ``m`` = math on floats or numpy on arrays: one formula, whose
    arithmetic and square roots round alike in both.  At a rational-term
    pole floats raise ZeroDivisionError and arrays give inf or nan.  Where
    alpha ** 2 overflows the rational term, of order 1/alpha, is dropped,
    since alpha * (1 + b) may overflow too."""
    length, alpha_sq = math.log(1.0 / b), _square(alpha)

    def residual(delta):
        if k == 0:
            head = m.tan(_tan_argument(m, delta, length))
            if alpha_sq == math.inf:
                return head
            return head + alpha * (1.0 + b) * m.sqrt(delta * (1.0 - delta)) \
                / (alpha * delta - alpha * b * delta + alpha_sq * b - delta)
        nu = m.sqrt((k * k - delta) / (1.0 - delta))
        head = m.tanh(nu * length)
        if alpha_sq == math.inf:
            return head
        den = delta * alpha + alpha_sq * b - alpha * b * delta - delta \
            + k * k * (1.0 - delta)
        return head + (1.0 - delta) * alpha * (1.0 + b) / den * nu
    return residual


def compat_residual(delta: float, alpha: float, b: float, k: int) -> float:
    """Residual of the Robin compatibility condition at order k.

    k = 0 couples a tangent of sqrt(delta/(1-delta))*log(1/b) with a
    rational term in (alpha, delta, b); k >= 1 replaces the tangent by a
    hyperbolic tangent.  Zeros in delta locate the critical anisotropies.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    check_ratio(b)
    k = check_index(k, "k", 0)
    delta, alpha, b = float(delta), float(alpha), float(b)
    if k == 0:
        tau = _tan_argument(math, delta, math.log(1.0 / b))
        if _tan_pole_distance(math, tau) < 1e-9:
            raise PoleProximity(f"tangent argument {tau} within 1e-9 of a pole")
    try:
        return _residual(math, alpha, b, k)(delta)
    except ZeroDivisionError:
        raise PoleProximity("rational term pole") from None


def _k0_pole_partition(alpha: float, b: float):
    """Cell edges in delta, increasing and generated on demand: 0, the
    tangent poles below 1 - 1e-12 (at most 201) merged with the
    rational-term pole, and 1."""
    length = math.log(1.0 / b)

    def tangent_poles():
        for m in range(201):
            x = ((0.5 + m) * math.pi / length) ** 2
            d = x / (1.0 + x)
            if d >= 1.0 - 1e-12:
                return
            yield d

    coef = 1.0 + alpha * b - alpha
    d_rat = _square(alpha) * b / coef if coef != 0.0 else math.nan
    rational = [d_rat] if 0.0 < d_rat < 1.0 else []
    merged = heapq.merge([0.0], tangent_poles(), rational, [1.0])
    return (d for d, _ in itertools.groupby(merged))


def _smallest_root_in_cells(alpha: float, b: float, k: int,
                            edges) -> Optional[float]:
    """Sample each cell, left to right, and root-solve the first sign change.

    160 samples per cell are evaluated at once.  A sample within 1e-9 of a
    tangent pole, or with a residual that is not finite, breaks the chain
    of samples; within a chain the first zero is returned, and the first
    pair whose signs differ (0.0 counts as positive) is refined by the
    scalar kernel.
    """
    f, f_array = _residual(math, alpha, b, k), _residual(np, alpha, b, k)
    length = math.log(1.0 / b)
    for lo, hi in itertools.pairwise(edges):
        pad = 1e-10 * max(1.0, hi - lo) + 1e-13
        a, c = lo + pad, hi - pad
        if c <= a:
            continue
        xs = np.linspace(a, c, 160)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fx = f_array(xs)
        valid = np.isfinite(fx)
        if k == 0:
            valid &= _tan_pole_distance(np, _tan_argument(np, xs, length)) >= 1e-9
        sign = np.signbit(fx)
        hits = np.flatnonzero(valid[:-1] & valid[1:]
                              & ((fx[1:] == 0.0) | (sign[1:] != sign[:-1])))
        if hits.size:
            i = hits[0] + 1
            if fx[i] == 0.0:
                return float(xs[i])
            return find_root(f, Bracket(float(xs[i - 1]), float(xs[i])),
                             tol=1e-14)
    return None


def delta_weak(alpha: float, b: float, k: int) -> Optional[float]:
    """Smallest critical anisotropy delta_{1,k}, or None when absent.

    k = 0: pole-aware scan between consecutive tangent poles (the generic
    scan would jump poles and report spurious roots).  k = 1: closed form,
    inside (0,1) exactly when 0 < alpha < 1.  k >= 2: root of the
    hyperbolic condition, which exists only below the rational-term pole
    constraint, again requiring alpha < 1.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    check_ratio(b)
    k = check_index(k, "k", 0)
    if k == 0:
        if math.log(1.0 / b) == math.inf:
            raise ValueError(f"log(1/b) overflows at b = {b}")
        return _smallest_root_in_cells(alpha, b, 0, _k0_pole_partition(alpha, b))
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
    return _smallest_root_in_cells(alpha, b, k, [d_zero, 1.0])


def weak_eigenmode(r, delta: float, alpha: float, b: float):
    """Neutral radial mode of the Robin problem, unit sine amplitude.

    sin(mu*log(1/r)) + sqrt(delta(1-delta))/(alpha-delta) * cos(mu*log(1/r))
    with mu = sqrt(delta/(1-delta)); satisfies both Robin conditions when
    delta is a root of the k=0 compatibility condition.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("anchoring strength must be nonnegative and finite")
    check_ratio(b)
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
    check_index(k_max, "k_max", 0)
    alphas = [float(a) for a in alpha_grid]
    if alphas != sorted(alphas) or any(a <= 0 for a in alphas):
        raise ValueError("alpha grid must be positive and increasing")
    curves = []
    for k in range(int(k_max) + 1):
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

    # bulk quadratures in x = log(1/r); measure r dr collapses to dx.  The
    # integrands are trigonometric polynomials of frequency at most 4 mu, and
    # mu log(1/b) stays below its strong-anchoring value pi, so the 64-point
    # rule integrates them to round-off
    xg, wg = gauss_legendre(64)
    x = 0.5 * length * (xg + 1.0)
    wt = 0.5 * length * wg
    eta = np.sin(mu * x) + c * np.cos(mu * x)
    eta_x = mu * np.cos(mu * x) - c * mu * np.sin(mu * x)
    i_a = float((eta * (-(1.0 + mu * mu) * eta)) @ wt)
    i_b = float((eta ** 2 * eta_x ** 2 - mu * mu * eta ** 4
                 - (2.0 / 3.0) * eta ** 4) @ wt)

    # boundary contributions; r*deta/dr = -deta/dx
    s1, t1 = c, -mu
    sb = math.sin(mu * length) + c * math.cos(mu * length)
    tb = -(mu * math.cos(mu * length) - c * mu * math.sin(mu * length))
    b_a = s1 * (s1 + t1) - sb * (sb + tb)
    b_b = (2.0 / 3.0) * s1 ** 4 * (alpha - d1) - d1 * s1 ** 3 * t1 \
        + (2.0 / 3.0) * sb ** 4 * (alpha * b + d1) + d1 * sb ** 3 * tb

    e1 = b_a - i_a
    e3 = -(d1 * i_b + b_b)
    return e1, e3
