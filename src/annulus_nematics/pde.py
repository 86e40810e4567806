"""Finite-difference solver for the anisotropic director equation.

The director angle on the annulus (or an annular sector) satisfies a
quasilinear elliptic equation; in log-radius x = log r it reads

    (1 - d/2)(T_xx + T_pp)
      + (d/2) [ sin(2T-2p) (2 T_xp + T_p^2 - T_x^2 - 2 T_p)
              + cos(2T-2p) (T_xx - 2 T_x - T_pp + 2 T_x T_p) ] = 0

with T the angle and p the azimuth.  Second-order central differences on
a uniform (x, phi) grid, all slices of one ghost-padded field (edge copies,
or the 2*pi seam offset on the annulus); damped Newton with an
energy-decrease line search, one residual evaluation per iterate, and a
relaxation fallback near singular Jacobians.  Weak anchoring enters
through nonlinear Robin rows on the two circles (full annulus only);
sector edges are always Dirichlet.  Corner defect cores may be pinned to
reference data and excluded from energy quadrature.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import NewtonDiverged, min_eigenvalue
from .of_weak import AnchoringParams


class SingularAnisotropy(ValueError):
    """Solver not validated beyond delta = 0.99."""


MAX_ANISOTROPY = 0.99


@dataclass(frozen=True)
class PolarGrid:
    """Tensor grid uniform in log-radius and azimuth."""

    nr: int
    nphi: int
    r_nodes: np.ndarray
    phi_nodes: np.ndarray
    periodic: bool

    def __post_init__(self):
        if self.nr < 16 or self.nphi < 16:
            raise ValueError("grid needs at least 16 nodes per direction")

    @classmethod
    def annulus(cls, b: float, nr: int, nphi: int) -> "PolarGrid":
        x = np.linspace(math.log(b), 0.0, nr)
        phi = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
        return cls(nr, nphi, np.exp(x), phi, periodic=True)

    @classmethod
    def sector(cls, b: float, N: int, nr: int, nphi: int) -> "PolarGrid":
        x = np.linspace(math.log(b), 0.0, nr)
        phi = np.linspace(0.0, 2.0 * math.pi / N, nphi)
        return cls(nr, nphi, np.exp(x), phi, periodic=False)

    @property
    def b(self) -> float:
        return float(self.r_nodes[0])

    @property
    def hx(self) -> float:
        return float(np.log(self.r_nodes[1]) - np.log(self.r_nodes[0]))

    @property
    def hp(self) -> float:
        return float(self.phi_nodes[1] - self.phi_nodes[0])

    def mesh(self):
        """x and phi matrices of shape (nr, nphi)."""
        x = np.log(self.r_nodes)
        return np.meshgrid(x, self.phi_nodes, indexing="ij")


@dataclass
class BoundaryConditions:
    """Edge treatment: Dirichlet circles or Robin weak anchoring.

    Dirichlet values are taken from the initial field.  ``pin_mask`` marks
    extra nodes held at their initial values (defect cores on sectors).
    """

    kind: str = "dirichlet"
    anchoring: Optional[AnchoringParams] = None
    pin_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError("kind must be 'dirichlet' or 'robin'")
        if self.kind == "robin" and self.anchoring is None:
            raise ValueError("robin conditions need anchoring parameters")


@dataclass
class DirectorField:
    """Director angle sampled on a polar grid."""

    grid: PolarGrid
    theta: np.ndarray
    bc: BoundaryConditions

    def __post_init__(self):
        if self.theta.shape != (self.grid.nr, self.grid.nphi):
            raise ValueError("theta shape does not match the grid")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    damping_events: int
    converged: bool
    energy_history: list = field(default_factory=list)
    # seconds summed over the solve
    assemble_s: float = 0.0
    linear_solve_s: float = 0.0
    line_search_s: float = 0.0


def defect_free_field(grid: PolarGrid,
                      bc: Optional[BoundaryConditions] = None) -> DirectorField:
    """The azimuthal state theta = phi + pi/2 on the given grid."""
    _, pp = grid.mesh()
    theta = pp + 0.5 * math.pi
    return DirectorField(grid, theta, bc or BoundaryConditions())


def sector_state_field(grid: PolarGrid, spec, bc: Optional[BoundaryConditions] = None
                       ) -> DirectorField:
    """Sample a harmonic defect state on a sector grid."""
    from .harmonic import director
    if grid.periodic:
        raise ValueError("defect states live on sector grids")
    xx, pp = grid.mesh()
    theta = director(spec, grid.b, np.exp(xx), pp)
    return DirectorField(grid, theta, bc or BoundaryConditions())


def _corner_disks(grid: PolarGrid, eps: float):
    """(x, phi, radius) in log-radius of the four corner disks of radius eps."""
    return [(cx, float(cp), rho)
            for cx, rho in ((math.log(grid.b), eps / grid.b), (0.0, eps))
            for cp in (grid.phi_nodes[0], grid.phi_nodes[-1])]


def corner_pin_mask(grid: PolarGrid, eps_core: float) -> np.ndarray:
    """Nodes inside the four corner core disks (log-radius metric)."""
    if grid.periodic:
        raise ValueError("corner cores only exist on sector grids")
    if not eps_core > 0.0:
        raise ValueError("core radius must be positive")
    xx, pp = grid.mesh()
    mask = np.zeros(xx.shape, dtype=bool)
    for (cx, cp, rho) in _corner_disks(grid, eps_core):
        # rho * rho saturates to inf where rho ** 2 would raise
        mask |= (xx - cx) ** 2 + (pp - cp) ** 2 < rho * rho
    return mask


TWO_PI = 2.0 * math.pi


def _padded(grid: PolarGrid, arr: np.ndarray) -> np.ndarray:
    """The field with one ghost layer: the neighbours of every stencil.

    Ghosts copy their edge neighbour, except across the seam of the
    periodic annulus, where the angle (director or azimuth, both winding
    once per revolution) is offset by 2*pi.
    """
    p = np.empty((arr.shape[0] + 2, arr.shape[1] + 2))
    p[1:-1, 1:-1] = arr
    p[[0, -1], 1:-1] = arr[[0, -1]]
    if grid.periodic:
        p[:, 0], p[:, -1] = p[:, -2] - TWO_PI, p[:, 1] + TWO_PI
    else:
        p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    return p


def _derivative_fields(grid: PolarGrid, p: np.ndarray):
    """Central difference fields from the padded angle ``p``."""
    hx, hp = grid.hx, grid.hp
    tc = p[1:-1, 1:-1]
    te, tw, tn, ts = p[2:, 1:-1], p[:-2, 1:-1], p[1:-1, 2:], p[1:-1, :-2]
    t_x = (te - tw) / (2.0 * hx)
    t_p = (tn - ts) / (2.0 * hp)
    t_xx = (te - 2.0 * tc + tw) / hx ** 2
    t_pp = (tn - 2.0 * tc + ts) / hp ** 2
    t_xp = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * hx * hp)
    return t_x, t_p, t_xx, t_pp, t_xp


# Robin circles (inner, outer): grid rows outward in, and the weights of
# the one-sided second-order x derivative on them, in units of 1/(2 hx)
_CIRCLES = (((0, 1, 2), (-3.0, 4.0, -1.0)), ((-1, -2, -3), (3.0, -4.0, 1.0)))


def _residual(grid: PolarGrid, theta: np.ndarray, delta: float,
              alpha: Optional[float] = None):
    """Residual of one iterate and the terms its Jacobian reuses.

    Returns the pointwise residual of the transformed equation (valid at
    interior nodes), the fields (t_x, t_p, s, c, beta, gamma), and given
    ``alpha`` the Robin rows: per entry of ``_CIRCLES`` the residual, its
    one-sided t_x and the surface factor.  The Robin azimuthal difference
    and trigonometric factors are the interior ones on the circle rows.
    """
    _, pp = grid.mesh()
    t_x, t_p, t_xx, t_pp, t_xp = _derivative_fields(grid, _padded(grid, theta))
    big = 2.0 * theta - 2.0 * pp
    s, c = np.sin(big), np.cos(big)
    beta = 2.0 * t_xp + t_p ** 2 - t_x ** 2 - 2.0 * t_p
    gamma = t_xx - 2.0 * t_x - t_pp + 2.0 * t_x * t_p
    res = (1.0 - 0.5 * delta) * (t_xx + t_pp) + 0.5 * delta * (s * beta + c * gamma)
    robin = []
    if alpha is not None:
        surfs = (0.5 * alpha * grid.b, -0.5 * alpha)
        for ((i, j, k), xw), surf in zip(_CIRCLES, surfs):
            bt_x = (xw[0] * theta[i] + xw[1] * theta[j] + xw[2] * theta[k]) \
                / (2.0 * grid.hx)
            res_b = 0.5 * (2.0 - delta) * bt_x \
                + 0.5 * delta * (t_p[i] * s[i] + bt_x * c[i]) + surf * s[i]
            robin.append((res_b, bt_x, surf))
    return res, (t_x, t_p, s, c, beta, gamma), robin


def _energy_arrays(grid: PolarGrid, theta: np.ndarray, delta: float, k3: float,
                   eps: Optional[float] = None) -> float:
    """Cell-midpoint quadrature of the elastic density in (x, phi).

    The conformal coordinates absorb the area weight, so splay and bend
    combine the plain x/phi derivatives.  With ``eps`` the four sector
    corner disks are excluded, fractional cells by 4x4 supersampling.
    """
    if eps is not None and grid.periodic:
        raise ValueError("core exclusion requires a sector grid")
    xx, pp = grid.mesh()
    # cell corners; on the annulus the ghost column closes the seam
    last = None if grid.periodic else -1
    th = _padded(grid, theta)[1:-1, 1:last]
    ph = _padded(grid, pp)[1:-1, 1:last]
    hx, hp = grid.hx, grid.hp
    t_x = (th[1:, 1:] + th[1:, :-1] - th[:-1, 1:] - th[:-1, :-1]) / (2.0 * hx)
    t_p = (th[1:, 1:] - th[1:, :-1] + th[:-1, 1:] - th[:-1, :-1]) / (2.0 * hp)
    t_c = 0.25 * (th[1:, 1:] + th[1:, :-1] + th[:-1, 1:] + th[:-1, :-1])
    p_c = 0.25 * (ph[1:, 1:] + ph[1:, :-1] + ph[:-1, 1:] + ph[:-1, :-1])
    diff = t_c - p_c
    splay = np.cos(diff) * t_p - np.sin(diff) * t_x
    bend = np.sin(diff) * t_p + np.cos(diff) * t_x
    k1 = (1.0 - delta) * k3
    dens = 0.5 * k1 * splay ** 2 + 0.5 * k3 * bend ** 2
    weight = np.ones_like(dens)
    if eps is not None:
        x_c = 0.25 * (xx[1:, 1:] + xx[1:, :-1] + xx[:-1, 1:] + xx[:-1, :-1])
        # supersample cells near the disk rims for fractional weights
        sub = (np.arange(4) - 1.5) / 4.0
        sx = sub[:, None] * hx
        sp = sub[None, :] * hp
        for (cx, cp, rho) in _corner_disks(grid, eps):
            d2 = (x_c - cx) ** 2 + (p_c - cp) ** 2
            inside = d2 < (rho - 1.5 * max(hx, hp)) ** 2
            rim = (~inside) & (d2 < (rho + 1.5 * max(hx, hp)) ** 2)
            weight[inside] = 0.0
            ks = np.nonzero(rim)
            for a, bb in zip(*ks):
                xs = x_c[a, bb] + sx
                ps = p_c[a, bb] + sp
                frac = np.mean((xs - cx) ** 2 + (ps - cp) ** 2 >= rho ** 2)
                weight[a, bb] = min(weight[a, bb], frac)
    return float(np.sum(dens * weight)) * hx * hp


def of_energy_2d(fld: DirectorField, delta: float, k3: float = 1.0,
                 eps: Optional[float] = None) -> float:
    """Elastic energy of the sampled director by midpoint-cell quadrature.

    Second-order accurate for smooth fields; with ``eps`` present the
    corner core disks (physical radius eps) are excluded from the sum.
    """
    return _energy_arrays(fld.grid, fld.theta, delta, k3, eps)


# 9-point stencil offsets (di, dj), in the order of the Jacobian
# coefficients: centre, e, w, n, s, ne, sw, nw, se
_STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (-1, -1), (-1, 1), (1, -1))

# largest box side that nested dissection numbers row by row
DISSECTION_LEAF = 4


def _dissection_order(nr: int, nphi: int) -> np.ndarray:
    """Flat indices of an nr x nphi grid in geometric nested-dissection order.

    The index box is bisected along its longer side; both halves are
    numbered recursively, then the separator line.  A 9-point stencil
    never couples nodes across a grid line, so the halves factor
    independently and fill stays within them (George, SIAM J. Numer.
    Anal. 10 (1973) 345).
    """
    parts = []

    def visit(box):
        n0, n1 = box.shape
        if n0 <= DISSECTION_LEAF and n1 <= DISSECTION_LEAF:
            parts.append(box.ravel())
        elif n0 >= n1:
            m = n0 // 2
            visit(box[:m])
            visit(box[m + 1:])
            parts.append(box[m])
        else:
            m = n1 // 2
            visit(box[:, :m])
            visit(box[:, m + 1:])
            parts.append(box[:, m])

    visit(np.arange(nr * nphi).reshape(nr, nphi))
    return np.concatenate(parts)


class _NewtonSystem:
    """Numbering and sparsity pattern of the Newton system of one solve.

    Both depend only on the grid and the active mask, so they are built
    once.  Sector unknowns are numbered in nested-dissection order and
    factored without column permutation; the periodic annulus, a thin
    strip, keeps row-major numbering under minimum degree on A^T + A.
    ``src`` maps the flat coefficient vector (9 stencil planes, then 5
    Robin planes per circle) onto the CSR data, so a Newton step only
    gathers values.
    """

    def __init__(self, grid: PolarGrid, bc: BoundaryConditions,
                 active: np.ndarray):
        self.grid, self.bc = grid, bc
        nr, nphi = grid.nr, grid.nphi
        ncell = nr * nphi
        if grid.periodic:
            order = np.flatnonzero(active)
            self.permc_spec = "MMD_AT_PLUS_A"
        else:
            nd = _dissection_order(nr, nphi)
            order = nd[active.ravel()[nd]]
            self.permc_spec = "NATURAL"
        n = order.size
        # unknown number of each node; n marks a fixed node, and the
        # extra last entry makes the node index -1 a fixed node too
        unknown_of = np.full(ncell + 1, n)
        unknown_of[order] = np.arange(n)
        ii, jj = np.divmod(order, nphi)
        di, dj = np.array(_STENCIL).T
        nbr = (ii[:, None] + di) * nphi + (jj[:, None] + dj) % nphi
        src = np.arange(9) * ncell + order[:, None]
        # unknowns on a circle (Robin only) carry one-sided x differences
        # plus the azimuthal neighbours, 5 entries each
        self.edge = np.flatnonzero((ii == 0) | (ii == nr - 1))
        outer = ii[self.edge, None] > 0
        self.edge_src = outer[:, 0] * nphi + jj[self.edge]
        x_step = np.where(outer, -1, 1) * np.array([0, 1, 2, 0, 0])
        nbr[self.edge, :5] = ((ii[self.edge, None] + x_step) * nphi
                              + (jj[self.edge, None] + [0, 0, 0, 1, -1]) % nphi)
        nbr[self.edge, 5:] = -1
        src[self.edge, :5] = (9 * ncell + (5 * outer + np.arange(5)) * nphi
                              + jj[self.edge, None])
        cols = unknown_of[nbr]
        by_col = np.argsort(cols, axis=1)
        cols = np.take_along_axis(cols, by_col, axis=1)
        keep = cols < n
        self.order = order
        self.n = n
        self.indices = cols[keep].astype(np.int32)
        self.src = np.take_along_axis(src, by_col, axis=1)[keep]
        self.indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1)))
                                     ).astype(np.int32)

    def assemble(self, r, delta: float):
        """Residual vector and Jacobian in solve order from ``_residual`` r."""
        grid = self.grid
        hx, hp = grid.hx, grid.hp
        res_grid, (t_x, t_p, s, c, beta, gamma), robin = r
        a_coef = 1.0 - 0.5 * delta
        d_xx = a_coef + 0.5 * delta * c
        d_pp = a_coef - 0.5 * delta * c
        d_xp = delta * s / (4.0 * hx * hp)
        d_p1 = delta * (-s * t_x + c * (t_p - 1.0)) / (2.0 * hx)
        d_q1 = delta * (s * (t_p - 1.0) + c * t_x) / (2.0 * hp)
        d_cc = delta * (c * beta - s * gamma)
        planes = [-2.0 * d_xx / hx ** 2 - 2.0 * d_pp / hp ** 2 + d_cc,
                  d_xx / hx ** 2 + d_p1, d_xx / hx ** 2 - d_p1,
                  d_pp / hp ** 2 + d_q1, d_pp / hp ** 2 - d_q1,
                  d_xp, d_xp, -d_xp, -d_xp]
        rhs = res_grid.ravel()[self.order]
        if self.edge.size:
            for (rows, xw), (res_b, bt_x, surf) in zip(_CIRCLES, robin):
                bs, bc_ = s[rows[0]], c[rows[0]]
                dg_dx = 0.5 * (2.0 - delta) + 0.5 * delta * bc_
                dg_dp = 0.5 * delta * bs / (2.0 * hp)
                dg_dc = delta * (t_p[rows[0]] * bc_ - bt_x * bs) + 2.0 * surf * bc_
                planes += [dg_dx * xw[0] / (2.0 * hx) + dg_dc,
                           dg_dx * xw[1] / (2.0 * hx), dg_dx * xw[2] / (2.0 * hx),
                           dg_dp, -dg_dp]
            res_edge = np.concatenate([res_b for res_b, _, _ in robin])
            rhs[self.edge] = res_edge[self.edge_src]
        import scipy.sparse
        data = np.concatenate([p.ravel() for p in planes])[self.src]
        jac = scipy.sparse.csr_matrix((data, self.indices, self.indptr),
                                      shape=(self.n, self.n))
        return rhs, jac


def solve_el(grid: PolarGrid, delta: float, bc: BoundaryConditions,
             init: DirectorField, tol: float = 1e-8,
             max_iter: int = 40) -> tuple[DirectorField, SolveReport]:
    """Solve the director equation by damped Newton with energy line search.

    Dirichlet edges (always the straight sector edges, plus the circles
    unless Robin anchoring is requested) and pinned core nodes keep their
    initial values.  Accepted steps never increase the elastic energy;
    when Newton cannot produce an acceptable step the solver falls back to
    damped relaxation sweeps before giving up.
    """
    if delta > MAX_ANISOTROPY:
        raise SingularAnisotropy(f"anisotropy above {MAX_ANISOTROPY} is out of "
                                 "validated range")
    if bc.kind == "robin" and not grid.periodic:
        raise ValueError("weak anchoring is only offered on the full annulus")
    import scipy.sparse.linalg   # before the phase timers start
    theta = init.theta.copy()
    nr, nphi = grid.nr, grid.nphi

    active = np.ones((nr, nphi), dtype=bool)
    if bc.kind == "dirichlet":
        active[0, :] = False
        active[-1, :] = False
    if not grid.periodic:
        active[:, 0] = False
        active[:, -1] = False
    if bc.pin_mask is not None:
        active &= ~bc.pin_mask
    t0 = time.perf_counter()
    system = _NewtonSystem(grid, bc, active)
    # assemble, linear solve, line search; the pattern counts as assembly
    times = [time.perf_counter() - t0, 0.0, 0.0]

    alpha = bc.anchoring.alpha if bc.kind == "robin" else None

    def evaluate(th):
        """Residual of an iterate, and its max norm over the unknowns."""
        r = _residual(grid, th, delta, alpha)
        res, _, robin = r
        pieces = [np.abs(res[1:-1, :][active[1:-1, :]])]
        for (rows, _), (res_b, _, _) in zip(_CIRCLES, robin):
            pieces.append(np.abs(res_b[active[rows[0], :]]))
        vals = np.concatenate([p.ravel() for p in pieces])
        return r, (float(vals.max()) if vals.size else 0.0)

    energy = _energy_arrays(grid, theta, delta, 1.0)
    history = [energy]
    # the quadrature energy and the collocation residual are consistent
    # only to second order, so the monotonicity guard carries an
    # h^2-proportional allowance; large climbs (toward an energy saddle)
    # are still rejected
    slack = 0.1 * (grid.hx ** 2 + grid.hp ** 2) * (1.0 + abs(energy))
    damping_events = 0
    n_iter = 0
    r, rnorm = evaluate(theta)
    while rnorm > tol and n_iter < max_iter:
        t0 = time.perf_counter()
        rhs, jac = system.assemble(r, delta)
        t1 = time.perf_counter()
        try:
            step = scipy.sparse.linalg.spsolve(jac, -rhs,
                                               permc_spec=system.permc_spec)
        except RuntimeError:
            step = None
        t2 = time.perf_counter()
        times[0] += t1 - t0
        times[1] += t2 - t1
        accepted = False
        if step is not None and np.all(np.isfinite(step)):
            lam = 1.0
            while lam >= 1e-4:
                trial = theta.copy()
                trial.ravel()[system.order] += lam * step
                e_try = _energy_arrays(grid, trial, delta, 1.0)
                r_try, rnorm_try = evaluate(trial)
                if e_try <= energy + slack \
                        and (rnorm_try < rnorm or e_try < energy - 1e-14):
                    theta, energy, r, rnorm = trial, e_try, r_try, rnorm_try
                    history.append(energy)
                    accepted = True
                    break
                lam *= 0.5
                damping_events += 1
            times[2] += time.perf_counter() - t2
        if not accepted:
            # relaxation fallback: damped explicit sweeps along the
            # steepest residual direction, still energy-monotone
            tau = 0.2 * min(grid.hx, grid.hp) ** 2 / (1.0 + delta)
            improved = False
            for _ in range(60):
                trial = theta.copy()
                trial[active] += tau * r[0][active]     # interior residual
                e_try = _energy_arrays(grid, trial, delta, 1.0)
                if e_try <= energy + 1e-14:
                    theta, energy = trial, e_try
                    r, rnorm = evaluate(theta)
                    history.append(energy)
                    improved = True
                else:
                    tau *= 0.5
                    damping_events += 1
                    if tau < 1e-12:
                        break
            if not improved:
                report = SolveReport(n_iter, rnorm, damping_events, False,
                                     history, *times)
                raise NewtonDiverged(f"stalled at residual {rnorm:.3e}",
                                     [report])
        n_iter += 1
    converged = rnorm <= tol
    report = SolveReport(n_iter, rnorm, damping_events, converged, history,
                         *times)
    if not converged:
        raise NewtonDiverged(f"no convergence after {max_iter} iterations "
                             f"(residual {rnorm:.3e})", [report])
    return DirectorField(grid, theta, bc), report


def bifurcation_scan(b: float, delta_values, seed_amplitude: float,
                     nr: int = 257, nphi: int = 32):
    """Amplitude of the converged state seeded off the defect-free branch.

    For each anisotropy the solver starts from theta* plus the seeded
    radial mode; below the critical anisotropy the perturbation decays
    back (amplitude ~ 0), above it the branch settles on the spiral state
    whose amplitude grows like sqrt(delta - delta_1).  A seed inside the
    unstable well would steer Newton toward the defect-free saddle, which
    the energy guard rejects; the scan then retries with the deviation
    amplified until the solve lands on the stable branch.
    """
    if any(d > MAX_ANISOTROPY for d in delta_values):
        raise SingularAnisotropy(f"anisotropy above {MAX_ANISOTROPY} is out of "
                                 "validated range")
    grid = PolarGrid.annulus(b, nr, nphi)
    xx, pp = grid.mesh()
    mode = np.sin(math.pi * xx / math.log(b))
    out = []
    for d in delta_values:
        amp = None
        err = None
        for boost in (1.0, 2.0, 4.0, 8.0, 16.0):
            theta0 = pp + 0.5 * math.pi + boost * seed_amplitude * mode
            init = DirectorField(grid, theta0, BoundaryConditions())
            try:
                fld, _ = solve_el(grid, float(d), BoundaryConditions(), init)
            except NewtonDiverged as exc:
                err = exc
                continue
            amp = float(np.max(np.abs(fld.theta - (pp + 0.5 * math.pi))))
            break
        if amp is None:
            raise err
        out.append((float(d), amp))
    return out


def stability_probe(base: DirectorField, delta: float, b: float, k: int,
                    n_nodes: int = 801) -> float:
    """Smallest second-variation eigenvalue at azimuthal order k.

    Valid for the defect-free base state, where perturbations separate
    into radial profiles per order k; the quadratic form is assembled in
    log-radius with the anchoring surface terms when the base carries
    Robin conditions.  A negative value signals instability.
    """
    _, pp = base.grid.mesh()
    if float(np.max(np.abs(base.theta - (pp + 0.5 * math.pi)))) > 1e-6:
        raise ValueError("stability probe requires the defect-free base state")
    length = math.log(1.0 / b)
    x = np.linspace(-length, 0.0, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    stiff = np.full(n_nodes, 2.0 / h)
    stiff[0] = stiff[-1] = 1.0 / h
    band = np.zeros((2, n_nodes))
    band[0] = (1.0 - delta) * stiff + (k * k - delta) * w
    band[1, :-1] = -(1.0 - delta) / h
    mass = w * np.exp(2.0 * x)
    if base.bc.kind != "robin":
        return min_eigenvalue(band[:, 1:-1], mass[1:-1])
    alpha = base.bc.anchoring.alpha
    band[0, -1] += alpha - delta        # r = 1
    band[0, 0] += alpha * b + delta     # r = b
    return min_eigenvalue(band, mass)


def anisotropic_state_energy(b: float, N: int, kind: str, delta: float,
                             eps: float, nr: int = 129,
                             nphi: Optional[int] = None,
                             k3: float = 1.0, delta_steps=None) -> float:
    """Total regularized energy of a sector defect state at anisotropy delta.

    Solves on a grid whose corner cores are pinned at a grid-resolvable
    radius, extracts the finite part using the anisotropic core
    coefficient (1 - 3*delta/4) evaluated at two core radii (which cancels
    the order-eps arc contribution), and transfers the logarithmic core
    term to the requested, typically much smaller, radius eps.
    """
    from .harmonic import state_coefficients
    spec = state_coefficients(kind, N, full_annulus=False)
    span = 2.0 * math.pi / N
    hx = math.log(1.0 / b) / (nr - 1)
    if nphi is None:
        nphi = int(np.clip(round(span / hx) + 1, 65, 769))
    grid = PolarGrid.sector(b, N, nr, nphi)
    eps1 = 5.0 * max(grid.hx, grid.hp)
    eps2 = 2.0 * eps1
    if eps2 / b >= min(math.log(1.0 / b), span) / 2.5:
        raise ValueError("grid too coarse to host the core exclusion disks")
    # pin only the inner half of the measurement disk: the ring in between
    # lets the solution relax away from the reference core data
    fld = sector_state_field(grid, spec)
    pin = corner_pin_mask(grid, 0.5 * eps1)
    bc = BoundaryConditions(pin_mask=pin)
    init = DirectorField(grid, fld.theta, bc)
    if delta_steps is None:
        delta_steps = [d for d in (0.3, 0.6, 0.8) if d < delta] + [delta]
    current = init
    for d in delta_steps:
        current, _ = solve_el(grid, d, bc, current)
    core_coef = 1.0 - 0.75 * delta
    t1 = of_energy_2d(current, delta, k3, eps=eps1) / (k3 * math.pi) \
        - core_coef * math.log(1.0 / eps1)
    t2 = of_energy_2d(current, delta, k3, eps=eps2) / (k3 * math.pi) \
        - core_coef * math.log(1.0 / eps2)
    tilde = 2.0 * t1 - t2
    return k3 * math.pi * (core_coef * math.log(1.0 / eps) + tilde)
