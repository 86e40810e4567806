"""Shared numerical kernels for the annulus equilibrium computations.

The domain checks of the radius ratio, integer indices, the sector count
and the core radius, bracketed root finding, Carlson's symmetric elliptic
integrals R_F and R_J, one memoized Gauss-Legendre rule, the one
tridiagonal solve, a damped-Newton solver for scalar two-point boundary
value problems, and the smallest generalized eigenvalue of a discretized
symmetric banded quadratic form.
Everything here is pure apart from the memo of read-only quadrature rules,
so it is safe to call concurrently on independent inputs.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


def check_ratio(b: float) -> None:
    """Reject a radius ratio outside (0, 1), nan included."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"radius ratio b must lie in (0,1), got {b}")


def check_index(n, name: str, least: int) -> int:
    """Reject an index or node count that is not an integer of at least
    ``least``, nan included; return it as an int."""
    if not (n >= least and float(n).is_integer()):
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {kind}")
    return int(n)


def check_sector(N: int, b: float) -> None:
    """Reject a sector count that is not a positive integer, then a radius
    ratio outside (0, 1)."""
    check_index(N, "sector count", 1)
    check_ratio(b)


def check_core_radius(eps: float, b: float) -> None:
    """Reject a core radius outside (0, b/4), nan included."""
    if not 0.0 < eps < b / 4.0:
        raise ValueError("core radius must lie in (0, b/4)")


class NoSignChange(ValueError):
    """The root bracket does not straddle a sign change."""


# max-norm residual at which the damped Newton solvers stop
NEWTON_TOL = 1e-8


@dataclass
class SolveReport:
    """What one damped Newton solve did; only the PDE solver records
    energies."""

    iterations: int
    final_residual: float
    damping_events: int
    converged: bool
    energy_history: list = field(default_factory=list)
    # seconds summed over the solve
    assemble_s: float = 0.0
    linear_solve_s: float = 0.0
    line_search_s: float = 0.0
    # LU factors built; fewer than iterations when chord steps reuse one
    factorizations: int = 0


class NewtonDiverged(RuntimeError):
    """Damped Newton stalled.  ``history`` holds the ``SolveReport`` of each
    failed solve, the first one first."""

    def __init__(self, message: str,
                 history: Optional[Sequence[SolveReport]] = None):
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
              bracket: Bracket, tol: float = 1e-12) -> float:
    """Hybrid bisection/secant root of ``residual`` inside ``bracket``.

    The bracket is maintained throughout, so the returned point always lies
    inside the initial interval; secant steps are only taken when they fall
    strictly inside the current bracket, otherwise the step bisects.
    Terminates once the bracket width is at most ``tol``.
    """
    lo, hi = float(bracket.lo), float(bracket.hi)
    flo, fhi = residual(lo), residual(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise NoSignChange(f"residual({lo})={flo:g} and residual({hi})={fhi:g} "
                           "have the same sign")
    for _ in range(300):     # each pass at least halves the bracket
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


def carlson_rf_rj(x, y, z):
    """Carlson's symmetric integrals R_F(x, y, z) and R_J(x, y, z, 1),
    elementwise over broadcast arrays or numpy scalars.

    One shared duplication loop of 7 steps, then the fifth-order series of
    each (B. C. Carlson, Numer. Algorithms 10 (1995) 13-26; DLMF 19.36(i)).
    Meant for x, y, z >= 0, at most one of them zero, with
    (1 - x)(1 - y)(1 - z) <= 0: then every R_C(1, 1 + e) of the R_J sum is
    atanh(r)/r with r = sqrt(-e) in [0, 1).  Where that product is
    positive, R_J comes back nan.
    """
    a_f, a_j = (x + y + z) / 3.0, (x + y + z + 2.0) / 5.0
    fx, fy = a_f - x, a_f - y
    jx, jy, jz = a_j - x, a_j - y, a_j - z
    gap = a_j - a_f     # A_j - A_f shrinks by 4 a step; A_j is not iterated
    # sqrt(-(1 - x)(1 - y)(1 - z)), floored so that where it is 0 every
    # atanh(r) below is r, exactly
    c = np.maximum(np.sqrt((x - 1.0) * (1.0 - y) * (1.0 - z)), 1e-150)
    p, scale, acc = 1.0, 1.0, 0.0     # scale = 4^-m
    for m in range(7):
        sx, sy, sz, sp = np.sqrt(x), np.sqrt(y), np.sqrt(z), np.sqrt(p)
        lam = sx * (sy + sz) + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        # 4^-m R_C(1, 1 + e_m) / d_m = 2^m atanh(r) / c, r = 8^-m c / d_m
        acc = acc + np.arctanh(c * scale ** 1.5 / d) * 2.0 ** m
        x, y, z, p = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, (p + lam) / 4.0
        a_f = (a_f + lam) / 4.0
        scale /= 4.0
    a_j = a_f + scale * gap
    X, Y = scale * fx / a_f, scale * fy / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a_f)
    X, Y, Z = scale * jx / a_j, scale * jy / a_j, scale * jz / a_j
    P = -0.5 * (X + Y + Z)
    # cubed by products: array ** is many times slower for a negative base,
    # and differs from scalar ** in the last bit in some lanes
    xyz, p3 = X * Y * Z, P * P * P
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = xyz + 2.0 * e2 * P + 4.0 * p3
    e4 = (2.0 * xyz + e2 * P + 3.0 * p3) * P
    e5 = xyz * P * P
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rj = scale * series / (a_j * np.sqrt(a_j)) + 6.0 * acc / c
    return rf, rj


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], computed once per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def solve_tridiagonal(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs for a tridiagonal A in LAPACK band storage:
    ``ab[0, 1:]`` the superdiagonal, ``ab[1]`` the diagonal and
    ``ab[2, :-1]`` the subdiagonal (LAPACK ``gtsv``, partial pivoting).

    Raises ``ValueError`` (``LinAlgError``) where A is singular or an
    entry is not finite.
    """
    import scipy.linalg
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def solve_bvp(ode_rhs: Callable,
              boundary_left: float, boundary_right: float,
              interval: tuple[float, float], n_nodes: int,
              init: Optional[np.ndarray] = None,
              max_iter: int = 60) -> GridFunction:
    """Solve y'' = ode_rhs(x, y) with Dirichlet values at both ends.

    Second-order central finite differences on a uniform grid, damped
    Newton iteration (step halving until the residual decreases).  The
    right-hand side must act elementwise on arrays; ``init`` holds the
    start values at the solver's own ``n_nodes`` nodes.  Returns the
    solution as a :class:`GridFunction`; the finite-difference residual at
    interior nodes is below ``NEWTON_TOL`` in max norm, or below its
    rounding floor 4 eps max|y| / h^2 where that is larger, and the
    boundary values are exact.

    Raises
    ------
    NewtonDiverged
        If the residual stalls or is not finite; the exception carries the
        ``SolveReport``.
    """
    n_nodes = check_index(n_nodes, "n_nodes", 16)
    x = np.linspace(*interval, n_nodes)
    h = x[1] - x[0]
    if init is None:
        y = np.linspace(boundary_left, boundary_right, n_nodes)
    elif len(init) == n_nodes:
        y = np.array(init, dtype=float)
    else:
        raise ValueError("init must have n_nodes values")
    y[0], y[-1] = boundary_left, boundary_right
    xi = x[1:-1]

    def residual(yv):
        return (yv[2:] - 2.0 * yv[1:-1] + yv[:-2]) / h ** 2 - ode_rhs(xi, yv[1:-1])

    def stop(yv):
        # the second difference cannot resolve residuals below its
        # rounding floor, a few ulps of y over h^2
        floor = 4.0 * np.finfo(float).eps * float(np.max(np.abs(yv))) / h ** 2
        return max(NEWTON_TOL, floor)

    def diverged(message):
        report = SolveReport(iterations, rnorm, damping_events, False, [],
                             *times, factorizations)
        return NewtonDiverged(message, [report])

    iterations = damping_events = factorizations = 0
    times = [0.0, 0.0, 0.0]     # Jacobian, banded solve, damping loop
    res = residual(y)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm <= stop(y):
            return GridFunction(x, y)
        t0 = time.perf_counter()
        yi = y[1:-1]
        ey = 1e-7 * (1.0 + np.abs(yi))
        # an overflowing quotient is caught by the non-finite guard below
        with np.errstate(over="ignore", invalid="ignore"):
            f_y = (ode_rhs(xi, yi + ey) - ode_rhs(xi, yi - ey)) / (2.0 * ey)
        # tridiagonal Jacobian of the interior residual, in band storage
        ab = np.empty((3, n_nodes - 2))
        ab[0] = ab[2] = 1.0 / h ** 2
        ab[1] = -2.0 / h ** 2 - f_y
        t1 = time.perf_counter()
        times[0] += t1 - t0
        if not (math.isfinite(rnorm) and np.isfinite(ab).all()):
            raise diverged("non-finite residual or Jacobian")
        step = solve_tridiagonal(ab, -res)
        factorizations += 1
        t2 = time.perf_counter()
        times[1] += t2 - t1
        lam = 1.0
        while lam >= 1e-12:
            y_try = y.copy()
            y_try[1:-1] = y[1:-1] + lam * step
            res_try = residual(y_try)
            rnorm_try = float(np.max(np.abs(res_try)))
            if rnorm_try < rnorm:
                break
            lam *= 0.5
            damping_events += 1
        times[2] += time.perf_counter() - t2
        if lam < 1e-12:
            raise diverged("residual stalled under damping")
        iterations += 1
        y, res, rnorm = y_try, res_try, rnorm_try
    if rnorm <= stop(y):
        return GridFunction(x, y)
    raise diverged(f"no convergence after {max_iter} iterations "
                   f"(residual {rnorm:.3e})")


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
