"""Shared numerical kernels for the annulus equilibrium computations.

Bracketed root finding, adaptive quadrature with inverse-square-root
endpoint handling, a damped-Newton solver for scalar two-point boundary
value problems, and the smallest generalized eigenvalue of a discretized
symmetric banded quadratic form.  Everything here is pure: no global state,
safe to call concurrently on independent inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class NoSignChange(ValueError):
    """The root bracket does not straddle a sign change."""


class NonConvergence(RuntimeError):
    """Adaptive refinement exhausted its budget before reaching tolerance."""


class NewtonDiverged(RuntimeError):
    """Damped Newton stalled.  ``history`` records the step dampings used."""

    def __init__(self, message: str, history: Optional[Sequence[float]] = None):
        super().__init__(message)
        self.history = list(history or [])


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] on which a residual changes sign."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass
class GridFunction:
    """Sampled scalar function on a strictly increasing node set."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be 1-D arrays of equal length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")


def find_root(residual: Callable[[float], float],
              bracket: Bracket | tuple[float, float],
              tol: float = 1e-12,
              max_iter: int = 300) -> float:
    """Hybrid bisection/secant root of ``residual`` inside ``bracket``.

    The bracket is maintained throughout, so the returned point always lies
    inside the initial interval; secant steps are only taken when they fall
    strictly inside the current bracket, otherwise the step bisects.
    Terminates once the bracket width is at most ``tol``.
    """
    if isinstance(bracket, tuple):
        bracket = Bracket(*bracket)
    lo, hi = float(bracket.lo), float(bracket.hi)
    flo, fhi = residual(lo), residual(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoSignChange(f"residual({lo})={flo:g} and residual({hi})={fhi:g} "
                           "have the same sign")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        width = hi - lo
        # secant proposal from the bracket endpoints
        x = lo - flo * (hi - lo) / (fhi - flo)
        margin = 0.05 * width
        if not (lo + margin < x < hi - margin):
            x = 0.5 * (lo + hi)
        fx = residual(x)
        if fx == 0.0:
            return x
        if np.sign(fx) == np.sign(flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        # force a bisection if the secant side stagnates
        if hi - lo > 0.5 * width:
            m = 0.5 * (lo + hi)
            fm = residual(m)
            if fm == 0.0:
                return m
            if np.sign(fm) == np.sign(flo):
                lo, flo = m, fm
            else:
                hi, fhi = m, fm
    return 0.5 * (lo + hi)


# Gauss-Legendre node/weight pairs for the embedded 7/15 error estimate.
_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


def _vector_eval(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array, falling back to a scalar loop."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(xi)) for xi in x])


def _adaptive_gauss(f: Callable, a: float, b: float, tol: float,
                    max_panels: int = 8192, max_rounds: int = 60) -> float:
    """Globally adaptive Gauss quadrature with interior nodes only."""
    panels = [(a, b)]
    total = 0.0
    length = b - a
    for _ in range(max_rounds):
        if not panels:
            return total
        lo = np.array([p[0] for p in panels])
        hi = np.array([p[1] for p in panels])
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x7 = mid[:, None] + half[:, None] * _GL7[0][None, :]
        x15 = mid[:, None] + half[:, None] * _GL15[0][None, :]
        xs = np.concatenate([x7.ravel(), x15.ravel()])
        ys = _vector_eval(f, xs)
        n = len(panels)
        y7 = ys[:7 * n].reshape(n, 7)
        y15 = ys[7 * n:].reshape(n, 15)
        i7 = half * (y7 @ _GL7[1])
        i15 = half * (y15 @ _GL15[1])
        err = np.abs(i15 - i7)
        # length-proportional budget with a roundoff floor so panels whose
        # error estimate has saturated at machine precision still terminate
        budget = 0.5 * tol * (hi - lo) / length + 1e-14 * np.abs(i15) + 1e-300
        done = (err <= budget) & np.isfinite(i15)
        total += float(np.sum(i15[done]))
        nxt = []
        for k in np.nonzero(~done)[0]:
            m = mid[k]
            nxt.append((lo[k], m))
            nxt.append((m, hi[k]))
        if len(nxt) > max_panels:
            raise NonConvergence(f"quadrature budget exhausted: {len(nxt)} panels, "
                                 f"pending error {float(np.sum(err[~done])):.3e}")
        panels = nxt
    if panels:
        raise NonConvergence("quadrature did not converge within the round limit")
    return total


def integrate_singular(f: Callable[[float], float], a: float, b: float,
                       singularity: Optional[str] = None,
                       tol: float = 1e-10) -> float:
    """Integrate ``f`` on [a, b], handling a 1/sqrt endpoint singularity.

    ``singularity`` is None, "lower" or "upper".  A flagged endpoint is
    removed by the substitution distance = w**2, which turns an integrand
    behaving like C/sqrt(distance) into a smooth one; plain adaptive
    quadrature is then applied.  The quadrature nodes are interior, so the
    (removable) 0*inf limit at the flagged endpoint is never evaluated.
    """
    if b <= a:
        raise ValueError("integration interval must satisfy a < b")
    if singularity is None:
        return _adaptive_gauss(f, a, b, tol)
    # below w_floor the distance w^2 from the endpoint would round away in
    # the subtraction; clamping keeps f's argument strictly off the endpoint
    # at a cost of O(machine eps) in the integral
    w_floor = 2.0 * math.sqrt(np.finfo(float).eps * max(1.0, abs(a), abs(b)))
    if singularity == "upper":
        def g(w):
            w = np.asarray(w, dtype=float)
            ws = np.maximum(w, w_floor)
            return 2.0 * w * _vector_eval(f, b - ws * ws)

        return _adaptive_gauss(g, 0.0, np.sqrt(b - a), tol)
    if singularity == "lower":
        def g(w):
            w = np.asarray(w, dtype=float)
            ws = np.maximum(w, w_floor)
            return 2.0 * w * _vector_eval(f, a + ws * ws)

        return _adaptive_gauss(g, 0.0, np.sqrt(b - a), tol)
    raise ValueError(f"unknown singularity flag: {singularity!r}")


def solve_bvp(ode_rhs: Callable,
              boundary_left: float, boundary_right: float,
              interval: tuple[float, float], n_nodes: int,
              init: Optional[GridFunction] = None,
              tol: float = 1e-8, max_iter: int = 60) -> GridFunction:
    """Solve y'' = ode_rhs(x, y, y') with Dirichlet values at both ends.

    Second-order central finite differences on a uniform grid, damped
    Newton iteration (step halving until the residual decreases).  The
    right-hand side must act elementwise on arrays.  Returns the solution
    as a :class:`GridFunction`; the finite-difference residual at interior
    nodes is below ``tol`` in max norm, or below its rounding floor
    4 eps max|y| / h^2 where that is larger, and the boundary values are
    exact.

    Raises
    ------
    NewtonDiverged
        If the residual stalls or is not finite; the exception carries the
        damping history.
    """
    if n_nodes < 16:
        raise ValueError("n_nodes must be at least 16")
    import scipy.linalg
    a, b = interval
    x = np.linspace(a, b, n_nodes)
    h = x[1] - x[0]
    if init is None:
        y = np.linspace(boundary_left, boundary_right, n_nodes)
    else:
        if len(init.values) != n_nodes:
            y = np.interp(x, init.nodes, init.values)
        else:
            y = init.values.copy()
    y[0], y[-1] = boundary_left, boundary_right
    xi = x[1:-1]

    def residual(yv):
        d2 = (yv[2:] - 2.0 * yv[1:-1] + yv[:-2]) / h ** 2
        d1 = (yv[2:] - yv[:-2]) / (2.0 * h)
        return d2 - ode_rhs(xi, yv[1:-1], d1)

    def stop(yv):
        # the second difference cannot resolve residuals below its
        # rounding floor, a few ulps of y over h^2
        floor = 4.0 * np.finfo(float).eps * float(np.max(np.abs(yv))) / h ** 2
        return max(tol, floor)

    history = []
    res = residual(y)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm <= stop(y):
            return GridFunction(x, y)
        yi = y[1:-1]
        d1 = (y[2:] - y[:-2]) / (2.0 * h)
        ey = 1e-7 * (1.0 + np.abs(yi))
        ep = 1e-7 * (1.0 + np.abs(d1))
        # an overflowing quotient is caught by the non-finite guard below
        with np.errstate(over="ignore", invalid="ignore"):
            f_y = (ode_rhs(xi, yi + ey, d1) - ode_rhs(xi, yi - ey, d1)) / (2.0 * ey)
            f_p = (ode_rhs(xi, yi, d1 + ep) - ode_rhs(xi, yi, d1 - ep)) / (2.0 * ep)
        # tridiagonal Jacobian of the interior residual
        diag = -2.0 / h ** 2 - f_y
        upper = 1.0 / h ** 2 - f_p / (2.0 * h)
        lower = 1.0 / h ** 2 + f_p / (2.0 * h)
        ab = np.zeros((3, n_nodes - 2))
        ab[0, 1:] = upper[:-1]
        ab[1, :] = diag
        ab[2, :-1] = lower[1:]
        if not (math.isfinite(rnorm) and np.isfinite(ab).all()):
            raise NewtonDiverged("non-finite residual or Jacobian", history)
        step = scipy.linalg.solve_banded((1, 1), ab, -res)
        lam = 1.0
        while lam >= 1e-12:
            y_try = y.copy()
            y_try[1:-1] = y[1:-1] + lam * step
            res_try = residual(y_try)
            rnorm_try = float(np.max(np.abs(res_try)))
            if rnorm_try < rnorm:
                break
            lam *= 0.5
        else:
            raise NewtonDiverged("residual stalled under damping", history)
        history.append(lam)
        y, res, rnorm = y_try, res_try, rnorm_try
    if rnorm <= stop(y):
        return GridFunction(x, y)
    raise NewtonDiverged(f"no convergence after {max_iter} iterations "
                         f"(residual {rnorm:.3e})", history)


def min_eigenvalue(band: np.ndarray, mass: np.ndarray) -> float:
    """Smallest eigenvalue of A v = lambda * M v for a banded symmetric A.

    ``band`` holds A in LAPACK lower band storage, ``band[k, j] =
    A[j + k, j]``: row 0 is the diagonal, row k the k-th subdiagonal, and
    the last k entries of row k are ignored.  ``mass`` is the strictly
    positive diagonal of M.  The pencil is symmetrized with M^(-1/2) in
    band storage and only the lowest eigenvalue is computed.
    """
    band = np.array(band, dtype=float)
    mass = np.asarray(mass, dtype=float)
    n = mass.size
    if mass.ndim != 1 or band.ndim != 2 or band.shape[1] != n or band.shape[0] > n:
        raise ValueError("band and mass dimensions disagree")
    if np.any(mass <= 0):
        raise ValueError("mass must be strictly positive")
    import scipy.linalg
    scale = 1.0 / np.sqrt(mass)
    for k in range(band.shape[0]):
        band[k, :n - k] *= scale[k:] * scale[:n - k]
    vals = scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,
                                   select="i", select_range=(0, 0))
    return float(vals[0])
