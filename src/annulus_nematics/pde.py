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
reference data and excluded from energy quadrature.  The bifurcation scan
runs the same Newton loop on the rotation-invariant radial subspace.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (NEWTON_TOL, NewtonDiverged, SolveReport,
                       check_core_radius, check_index, check_ratio,
                       check_sector, min_eigenvalue, solve_tridiagonal)
from .of_weak import AnchoringParams


class SingularAnisotropy(ValueError):
    """Solver not validated beyond delta = 0.99."""


MAX_ANISOTROPY = 0.99
# Newton budget of one continuation step in anisotropic_state_energy, and
# the smallest step it tries, as a fraction of the target anisotropy
CONTINUATION_ITER = 20
CONTINUATION_MIN_STEP = 1.0 / 64.0


def _check_anisotropy(delta: float) -> None:
    # written so that nan fails it too
    if not -math.inf < delta <= MAX_ANISOTROPY:
        raise SingularAnisotropy(f"anisotropy {delta} is outside the validated "
                                 f"range (finite, at most {MAX_ANISOTROPY})")


def _check_grid_size(nr: int, nphi: int) -> tuple[int, int]:
    return check_index(nr, "nr", 16), check_index(nphi, "nphi", 16)


@dataclass(frozen=True)
class PolarGrid:
    """Tensor grid uniform in log-radius and azimuth."""

    nr: int
    nphi: int
    r_nodes: np.ndarray
    phi_nodes: np.ndarray
    periodic: bool

    def __post_init__(self):
        _check_grid_size(self.nr, self.nphi)

    @classmethod
    def annulus(cls, b: float, nr: int, nphi: int) -> "PolarGrid":
        check_ratio(b)
        nr, nphi = _check_grid_size(nr, nphi)
        x = np.linspace(math.log(b), 0.0, nr)
        phi = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
        return cls(nr, nphi, np.exp(x), phi, periodic=True)

    @classmethod
    def sector(cls, b: float, N: int, nr: int, nphi: int) -> "PolarGrid":
        check_sector(N, b)
        nr, nphi = _check_grid_size(nr, nphi)
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


def _core_weights(grid: PolarGrid, eps: float) -> np.ndarray:
    """Cell weights that cut out the four corner disks of radius eps: a cell
    within 1.5 grid steps of a disk rim weighs the share of its 4x4
    supersample points outside the disk, every other cell 1."""
    if grid.periodic:
        raise ValueError("core exclusion requires a sector grid")
    xx, pp = grid.mesh()
    x_c = 0.25 * (xx[1:, 1:] + xx[1:, :-1] + xx[:-1, 1:] + xx[:-1, :-1])
    p_c = 0.25 * (pp[1:, 1:] + pp[1:, :-1] + pp[:-1, 1:] + pp[:-1, :-1])
    sub = (np.arange(4) - 1.5) / 4.0
    sx, sp = sub[:, None] * grid.hx, sub[None, :] * grid.hp
    reach = 1.5 * max(grid.hx, grid.hp)
    weight = np.ones_like(x_c)
    for (cx, cp, rho) in _corner_disks(grid, eps):
        near = np.nonzero((x_c - cx) ** 2 + (p_c - cp) ** 2 < (rho + reach) ** 2)
        xs = x_c[near][:, None, None] + sx
        ps = p_c[near][:, None, None] + sp
        frac = np.mean((xs - cx) ** 2 + (ps - cp) ** 2 >= rho ** 2, axis=(1, 2))
        weight[near] = np.minimum(weight[near], frac)
    return weight


def _energy_arrays(grid: PolarGrid, theta: np.ndarray, delta: float,
                   eps: Optional[float] = None) -> float:
    """Cell-midpoint quadrature of the elastic density in (x, phi),
    in units of K3.

    The conformal coordinates absorb the area weight, so splay and bend
    combine the plain x/phi derivatives.  With ``eps`` the four sector
    corner disks are excluded by ``_core_weights``.
    """
    _, pp = grid.mesh()
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
    dens = 0.5 * (1.0 - delta) * splay ** 2 + 0.5 * bend ** 2
    if eps is not None:
        dens *= _core_weights(grid, eps)
    return float(np.sum(dens)) * hx * hp


def of_energy_2d(fld: DirectorField, delta: float,
                 eps: Optional[float] = None) -> float:
    """Elastic energy of the sampled director by midpoint-cell quadrature.

    In units of K3.  Second-order accurate for smooth fields; with ``eps``
    present the corner core disks (physical radius eps) are excluded from
    the sum.
    """
    return _energy_arrays(fld.grid, fld.theta, delta, eps)


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
    """One grid with its edge conditions as a Newton system: the residual,
    the guard energy and its descent direction, the numbering, sparsity
    pattern and linear solver.

    The edge conditions fix the active nodes, so all of it is set up once;
    the numbering and pattern on the first assembly, so that a solve whose
    start already solves builds neither.  Sector unknowns are numbered in
    nested-dissection order and factored by SuperLU without column
    permutation; annulus unknowns keep row-major numbering under SuperLU
    with minimum degree on A^T + A.  ``src`` maps the flat
    coefficient vector (9 stencil planes, then 5 Robin planes per circle)
    onto the CSR data, so a Newton step only gathers values.
    """

    def __init__(self, grid: PolarGrid, bc: BoundaryConditions):
        # Dirichlet edges (sector edges always) and pinned cores are fixed
        active = np.ones((grid.nr, grid.nphi), dtype=bool)
        if bc.kind == "dirichlet":
            active[[0, -1], :] = False
        if not grid.periodic:
            active[:, [0, -1]] = False
        if bc.pin_mask is not None:
            active &= ~bc.pin_mask
        self.grid, self.bc, self.active = grid, bc, active
        self.hx, self.hp = grid.hx, grid.hp
        self.alpha = bc.anchoring.alpha if bc.kind == "robin" else None
        self.permc_spec = "MMD_AT_PLUS_A" if grid.periodic else "NATURAL"

    def evaluate(self, th, delta: float):
        """``_residual`` of an iterate, and its max norm over the unknowns."""
        r = _residual(self.grid, th, delta, self.alpha)
        res, _, robin = r
        pieces = [np.abs(res[1:-1, :][self.active[1:-1, :]])]
        for (rows, _), (res_b, _, _) in zip(_CIRCLES, robin):
            pieces.append(np.abs(res_b[self.active[rows[0], :]]))
        vals = np.concatenate([p.ravel() for p in pieces])
        return r, (float(vals.max()) if vals.size else 0.0)

    def energy(self, th, delta: float) -> float:
        """Elastic energy, plus on a Robin annulus the Rapini-Papoular
        energy (alpha/2) r sum cos^2(theta - phi) hp of the circles r = b
        and r = 1: the Robin rows are the gradient of the sum."""
        energy = _energy_arrays(self.grid, th, delta)
        if self.alpha is not None:
            tilt = np.cos(th - self.grid.mesh()[1]) ** 2
            energy += 0.5 * self.alpha * self.hp \
                * (self.grid.b * tilt[0].sum() + tilt[-1].sum())
        return energy

    def descent(self, r):
        """Steepest descent of the guard energy at a residual.  Inside, the
        residual is -dE/dtheta per cell area; the Robin rows are -dE/dtheta
        (r = b) and +dE/dtheta (r = 1) per hp, on nodes of half a cell."""
        out = r[0].copy()
        for (rows, _), (res_b, _, _), sign in zip(_CIRCLES, r[2], (2.0, -2.0)):
            out[rows[0]] = sign / self.hx * res_b
        return out

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Flat grid index of each unknown, in solve order."""
        nr, nphi = self.grid.nr, self.grid.nphi
        active = self.active.ravel()
        if self.grid.periodic:
            return np.flatnonzero(active)
        nd = _dissection_order(nr, nphi)
        return nd[active[nd]]

    @property
    def n(self) -> int:
        return self.order.size

    @functools.cached_property
    def _pattern(self):
        """CSR indices and indptr, the coefficient source of each entry,
        and the unknowns on a circle with their Robin row numbers."""
        nr, nphi = self.grid.nr, self.grid.nphi
        order, n, ncell = self.order, self.n, nr * nphi
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
        edge = np.flatnonzero((ii == 0) | (ii == nr - 1))
        outer = ii[edge, None] > 0
        edge_src = outer[:, 0] * nphi + jj[edge]
        x_step = np.where(outer, -1, 1) * np.array([0, 1, 2, 0, 0])
        nbr[edge, :5] = ((ii[edge, None] + x_step) * nphi
                         + (jj[edge, None] + [0, 0, 0, 1, -1]) % nphi)
        nbr[edge, 5:] = -1
        src[edge, :5] = (9 * ncell + (5 * outer + np.arange(5)) * nphi
                         + jj[edge, None])
        cols = unknown_of[nbr]
        by_col = np.argsort(cols, axis=1)
        cols = np.take_along_axis(cols, by_col, axis=1)
        keep = cols < n
        indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1)))).astype(np.int32)
        return (cols[keep].astype(np.int32), indptr,
                np.take_along_axis(src, by_col, axis=1)[keep], edge, edge_src)

    def assemble(self, r, delta: float):
        """Residual vector and Jacobian in solve order from ``_residual`` r."""
        hx, hp = self.hx, self.hp
        _, (t_x, t_p, s, c, beta, gamma), robin = r
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
        indices, indptr, src, edge, _ = self._pattern
        if edge.size:
            for (rows, xw), (res_b, bt_x, surf) in zip(_CIRCLES, robin):
                bs, bc_ = s[rows[0]], c[rows[0]]
                dg_dx = 0.5 * (2.0 - delta) + 0.5 * delta * bc_
                dg_dp = 0.5 * delta * bs / (2.0 * hp)
                dg_dc = delta * (t_p[rows[0]] * bc_ - bt_x * bs) + 2.0 * surf * bc_
                planes += [dg_dx * xw[0] / (2.0 * hx) + dg_dc,
                           dg_dx * xw[1] / (2.0 * hx), dg_dx * xw[2] / (2.0 * hx),
                           dg_dp, -dg_dp]
        import scipy.sparse
        data = np.concatenate([p.ravel() for p in planes])[src]
        jac = scipy.sparse.csr_matrix((data, indices, indptr),
                                      shape=(self.n, self.n))
        return self.rhs(r), jac

    def rhs(self, r):
        """Residual vector in solve order from ``_residual`` r."""
        res_grid, _, robin = r
        rhs = res_grid.ravel()[self.order]
        *_, edge, edge_src = self._pattern
        if edge.size:
            res_edge = np.concatenate([res_b for res_b, _, _ in robin])
            rhs[edge] = res_edge[edge_src]
        return rhs

    def factor(self, jac):
        """LU factor of jac, or None if jac is singular.

        Returns a function giving jac^-1 x in solve order, or None where
        that is not finite.
        """
        import scipy.sparse.linalg
        # jac.T is the CSC matrix on jac's arrays: SuperLU factors it and
        # solves the transposed system, as spsolve does for CSR
        try:
            lu = scipy.sparse.linalg.splu(jac.T, permc_spec=self.permc_spec)
        except RuntimeError:
            return None

        def solve(x):
            y = lu.solve(x, trans="T")
            return y if np.all(np.isfinite(y)) else None
        return solve


class _RadialSystem:
    """The Dirichlet annulus on its rotation-invariant fields, as a Newton
    system on their radial profile u.

    A field theta = phi + pi/2 + u(x) is one profile on the nr nodes,
    copied into every column.  On it the 9-point residual reduces to the
    3-point (1 - d/2 - (d/2) cos 2u) u_xx + (d/2) sin 2u (1 + u_x^2), whose
    Jacobian is the tridiagonal k = 0 Fourier block of the 2-D one, and the
    guard energy to 2 pi hx times a sum over the nr - 1 radial cells.  hx
    and hp are the annulus grid's, so the guard allowance and the
    relaxation step are those of the 2-D solve.
    """

    alpha = None

    def __init__(self, grid: PolarGrid):
        self.hx, self.hp = grid.hx, grid.hp
        self.active = np.ones(grid.nr, dtype=bool)
        self.active[[0, -1]] = False
        self.order = np.arange(1, grid.nr - 1)

    def evaluate(self, u, delta: float):
        """Residual of a profile with the terms its Jacobian reuses, and
        its max norm."""
        u_x = (u[2:] - u[:-2]) / (2.0 * self.hx)
        u_xx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / self.hx ** 2
        s, c = np.sin(2.0 * u[1:-1]), np.cos(2.0 * u[1:-1])
        d_xx = 1.0 - 0.5 * delta - 0.5 * delta * c
        res = d_xx * u_xx + 0.5 * delta * s * (1.0 + u_x ** 2)
        return (res, u_x, u_xx, s, c, d_xx), float(np.max(np.abs(res)))

    def energy(self, u, delta: float) -> float:
        u_x = np.diff(u) / self.hx
        mid = 0.5 * (u[1:] + u[:-1])
        splay = -np.sin(mid) - np.cos(mid) * u_x
        bend = np.cos(mid) - np.sin(mid) * u_x
        dens = 0.5 * (1.0 - delta) * splay ** 2 + 0.5 * bend ** 2
        return TWO_PI * self.hx * float(np.sum(dens))

    def descent(self, r):
        return np.concatenate(([0.0], r[0], [0.0]))

    def assemble(self, r, delta: float):
        """Residual and the tridiagonal Jacobian in band storage."""
        res, u_x, u_xx, s, c, d_xx = r
        cross = delta * s * u_x / (2.0 * self.hx)
        ab = np.zeros((3, res.size))
        ab[0, 1:] = (d_xx / self.hx ** 2 + cross)[:-1]
        ab[1] = -2.0 * d_xx / self.hx ** 2 + delta * (c * (1.0 + u_x ** 2) + s * u_xx)
        ab[2, :-1] = (d_xx / self.hx ** 2 - cross)[1:]
        return res, ab

    def factor(self, ab):
        """The solve with ab, which gives None where ab is singular or the
        solution is not finite."""
        def solve(x):
            try:
                y = solve_tridiagonal(ab, x)
            except ValueError:
                return None
            return y if np.all(np.isfinite(y)) else None
        return solve


def solve_el(grid: PolarGrid, delta: float, bc: BoundaryConditions,
             init: DirectorField,
             max_iter: int = 40) -> tuple[DirectorField, SolveReport]:
    """Solve the director equation by damped Newton with energy line search.

    Dirichlet edges (always the straight sector edges, plus the circles
    unless Robin anchoring is requested) and pinned core nodes keep their
    initial values.  Accepted steps never increase the elastic energy;
    when Newton cannot produce an acceptable step the solver falls back to
    damped relaxation sweeps before giving up.
    """
    _check_anisotropy(delta)
    if bc.kind == "robin" and not grid.periodic:
        raise ValueError("weak anchoring is only offered on the full annulus")
    theta, report = _newton(_NewtonSystem(grid, bc), delta, init.theta,
                            max_iter=max_iter)
    return DirectorField(grid, theta, bc), report


def _newton(system, delta: float, start: np.ndarray, max_iter: int = 40,
            chord: bool = False) -> tuple[np.ndarray, SolveReport]:
    """``solve_el`` on a system: a ``_NewtonSystem`` and a field theta, or
    a ``_RadialSystem`` and a profile u, from the values ``start``.

    The system evaluates the residual and its max norm over the unknowns, the
    guard energy and its descent direction, the Jacobian and its factor;
    this loop owns the line search, its allowance, the chord steps, the
    relaxation fallback and the ``SolveReport``.  With ``chord`` (on a
    ``_NewtonSystem``, whose ``rhs`` a kept factor solves), a full
    Newton step that cut the residual at least 10x keeps its factor, and
    the next iteration first tries one undamped step on it (a chord step;
    Kelley, *Iterative Methods for Linear and Nonlinear Equations*, 1995,
    5.4).  The chord step is taken if it passes the energy guard and cuts
    the residual 10x too, and then keeps the factor for the next;
    otherwise the factor is dropped and the iteration factors afresh.
    """
    theta = np.array(start, dtype=float)
    active = system.active
    # assemble, linear solve, line search
    times = [0.0, 0.0, 0.0]
    # at delta = 0 with Dirichlet edges the equation is the 5-point
    # Laplacian: the full step lands on its one solution, which the
    # quadrature energy of the guard may rank above the start
    linear = delta == 0.0 and system.alpha is None

    def try_step(th, step, lam):
        """The iterate th + lam * step, its energy, residual and norm."""
        trial = th.copy()
        trial.ravel()[system.order] += lam * step
        return (trial, system.energy(trial, delta), *system.evaluate(trial, delta))

    energy = system.energy(theta, delta)
    history = [energy]
    # the quadrature energy and the collocation residual are consistent
    # only to second order, so the monotonicity guard carries an
    # h^2-proportional allowance; large climbs (toward an energy saddle)
    # are still rejected
    slack = 0.1 * (system.hx ** 2 + system.hp ** 2) * (1.0 + abs(energy))
    damping_events = 0
    factorizations = 0
    n_iter = 0
    kept = None     # the factor a chord step may reuse
    r, rnorm = system.evaluate(theta, delta)
    while rnorm > NEWTON_TOL and n_iter < max_iter:
        ceiling = energy + slack
        accepted = False
        if kept is not None:
            t0 = time.perf_counter()
            step = kept(-system.rhs(r))
            t1 = time.perf_counter()
            if step is not None:
                trial, e_try, r_try, rnorm_try = try_step(theta, step, 1.0)
                if e_try <= ceiling and rnorm_try <= 0.1 * rnorm:
                    theta, energy, r, rnorm = trial, e_try, r_try, rnorm_try
                    history.append(energy)
                    accepted = True
            times[1] += t1 - t0
            times[2] += time.perf_counter() - t1
            if not accepted:
                # released before the next factor is built
                kept = None
        if not accepted:
            t0 = time.perf_counter()
            rhs, jac = system.assemble(r, delta)
            t1 = time.perf_counter()
            solve = system.factor(jac)
            factorizations += 1
            step = None if solve is None else solve(-rhs)
            t2 = time.perf_counter()
            times[0] += t1 - t0
            times[1] += t2 - t1
            if step is not None:
                lam = 1.0
                while lam >= 1e-4:
                    trial, e_try, r_try, rnorm_try = try_step(theta, step, lam)
                    if linear or e_try <= ceiling \
                            and (rnorm_try < rnorm or e_try < energy - 1e-14):
                        if chord and lam == 1.0 and rnorm_try <= 0.1 * rnorm:
                            kept = solve
                        theta, energy, r, rnorm = trial, e_try, r_try, rnorm_try
                        history.append(energy)
                        accepted = True
                        break
                    lam *= 0.5
                    damping_events += 1
                times[2] += time.perf_counter() - t2
            solve = None
        if not accepted:
            # relaxation fallback: damped explicit sweeps along the
            # steepest residual direction, still energy-monotone
            tau = 0.2 * min(system.hx, system.hp) ** 2 / (1.0 + delta)
            improved = False
            for _ in range(60):
                trial = theta.copy()
                trial[active] += tau * system.descent(r)[active]
                e_try = system.energy(trial, delta)
                if e_try <= energy + 1e-14:
                    theta, energy = trial, e_try
                    r, rnorm = system.evaluate(theta, delta)
                    history.append(energy)
                    improved = True
                else:
                    tau *= 0.5
                    damping_events += 1
                    if tau < 1e-12:
                        break
            if not improved:
                report = SolveReport(n_iter, rnorm, damping_events, False,
                                     history, *times, factorizations)
                raise NewtonDiverged(f"stalled at residual {rnorm:.3e}",
                                     [report])
        n_iter += 1
    converged = rnorm <= NEWTON_TOL
    report = SolveReport(n_iter, rnorm, damping_events, converged, history,
                         *times, factorizations)
    if not converged:
        raise NewtonDiverged(f"no convergence after {n_iter} iterations "
                             f"(residual {rnorm:.3e})", [report])
    return theta, report


def bifurcation_scan(b: float, delta_values, seed_amplitude: float,
                     nr: int = 257, nphi: int = 32):
    """Amplitude of the converged state seeded off the defect-free branch.

    For each anisotropy the solver starts from theta* plus the seeded
    radial mode; below the critical anisotropy the perturbation decays
    back (amplitude ~ 0), above it the branch settles on the spiral state
    whose amplitude grows like sqrt(delta - delta_1).

    The seed is rotation-invariant and the equation commutes with
    rotations (the equivariant reduction of Golubitsky, Stewart and
    Schaeffer, *Singularities and Groups in Bifurcation Theory* II, 1988),
    so the scan solves on the radial subspace theta = phi + pi/2 + u(x),
    for u on the nr nodes (``_RadialSystem``).  It lifts each solution
    onto the nr x nphi annulus grid and keeps it only if the lifted field
    passes the 2-D residual check at ``NEWTON_TOL``.  So nphi has two
    roles: that check, and hp = 2 pi/nphi in the guard allowance
    0.1 (hx^2 + hp^2)(1 + |E|), in which hp^2 dominates at the default
    257 x 32 (0.039 against hx^2 = 4.0e-5 at b = 0.2).

    A seed inside the unstable well would steer Newton toward the
    defect-free saddle, so a solve that ends above the energy of its
    seeded start is rejected.  After a rejected, failed or unverified
    solve the scan retries with the deviation amplified: x2 up to x16,
    then doubled on while the seeded deviation stays below 1 rad.  A row
    that no rung lands raises the last rung's ``NewtonDiverged``.
    """
    for d in delta_values:
        _check_anisotropy(d)
    grid = PolarGrid.annulus(b, nr, nphi)
    system = _RadialSystem(grid)
    lifted = _NewtonSystem(grid, BoundaryConditions())
    xx, pp = grid.mesh()
    mode = np.sin(math.pi * xx[:, 0] / math.log(b))
    boosts = [1.0, 2.0, 4.0, 8.0, 16.0]
    while 0.0 < abs(2.0 * boosts[-1] * seed_amplitude) < 1.0:
        boosts.append(2.0 * boosts[-1])
    out = []
    for d in delta_values:
        amp = None
        err = None
        for boost in boosts:
            try:
                u, rep = _newton(system, float(d), boost * seed_amplitude * mode)
            except NewtonDiverged as exc:
                err = exc
                continue
            if rep.energy_history[-1] > rep.energy_history[0]:
                # each step may climb by the guard's allowance, and many
                # such steps can reach the saddle (or another critical
                # point) above the seeded state: not the stable branch
                err = NewtonDiverged(f"solve at delta={d:.6g} climbed from "
                                     f"energy {rep.energy_history[0]:.6g} to "
                                     f"{rep.energy_history[-1]:.6g}", [rep])
                continue
            _, check = lifted.evaluate(pp + 0.5 * math.pi + u[:, None], float(d))
            if check > NEWTON_TOL:
                err = NewtonDiverged(f"solve at delta={d:.6g} lifts to a 2-D "
                                     f"residual of {check:.3e}", [rep])
                continue
            amp = float(np.max(np.abs(u)))
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
    check_index(k, "k", 0)
    n_nodes = check_index(n_nodes, "n_nodes", 16)
    if not -math.inf < delta < 1.0:
        raise ValueError("anisotropy must be finite and below 1")
    if not math.isclose(b, base.grid.b, rel_tol=1e-12):
        raise ValueError(f"b={b} differs from the base grid's b={base.grid.b}")
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
                             eps: float, nr: int = 129) -> float:
    """Total regularized energy of a sector defect state at anisotropy delta,
    in units of K3.

    Solves on a grid whose corner cores are pinned at a grid-resolvable
    radius, extracts the finite part using the anisotropic core
    coefficient (1 - 3*delta/4) evaluated at two core radii (which cancels
    the order-eps arc contribution), and transfers the logarithmic core
    term to the requested, typically much smaller, radius eps.

    The solve goes straight to delta from the harmonic state.  A step that
    fails within ``CONTINUATION_ITER`` Newton iterations is halved, and a
    success doubles the next (Allgower and Georg, *Numerical Continuation
    Methods*, 1990, ch. 2); below ``CONTINUATION_MIN_STEP`` it gives up.
    Every step runs on one Newton system and takes chord steps.

    U1 and U2 are mirror-symmetric about phi = pi/N, and Newton from the
    harmonic state keeps that symmetry, the equation being equivariant
    (Golubitsky, Stewart and Schaeffer, *Singularities and Groups in
    Bifurcation Theory* II, 1988).  So they are solved on the half sector
    phi <= pi/N, whose new edge keeps its harmonic values, and mirrored.
    """
    # before hx: nr = 1 would divide by zero
    nr = check_index(nr, "nr", 16)
    check_core_radius(eps, b)
    _check_anisotropy(delta)
    from .harmonic import state_coefficients
    spec = state_coefficients(kind, N, full_annulus=False)
    span = 2.0 * math.pi / N
    hx = math.log(1.0 / b) / (nr - 1)
    # odd, so that the mirror line phi = span/2 is a grid column
    nphi = int(np.clip(2 * round(span / (2.0 * hx)) + 1, 65, 769))
    grid = PolarGrid.sector(b, N, nr, nphi)
    eps1 = 5.0 * max(grid.hx, grid.hp)
    eps2 = 2.0 * eps1
    if eps2 / b >= min(math.log(1.0 / b), span) / 2.5:
        raise ValueError("grid too coarse to host the core exclusion disks")
    harm = sector_state_field(grid, spec).theta
    # the solved columns; the core disks lie within span/10 of their
    # corners, so the half sector holds only the two at phi = 0
    m = (nphi + 1) // 2 if kind in ("U1", "U2") else nphi
    solved = PolarGrid(nr, m, grid.r_nodes, grid.phi_nodes[:m], periodic=False)
    # pin only the inner half of the measurement disk: the ring in between
    # lets the solution relax away from the reference core data
    pin = corner_pin_mask(grid, 0.5 * eps1)
    system = _NewtonSystem(solved, BoundaryConditions(pin_mask=pin[:, :m]))
    theta = harm[:, :m]
    # fractions of delta, reached and next tried: sums of powers of two
    done, step, reports = 0.0, 1.0, []
    while done < 1.0:
        target = done + step
        try:
            theta, rep = _newton(system, target * delta, theta,
                                 max_iter=CONTINUATION_ITER, chord=True)
        except NewtonDiverged as exc:
            reports += exc.history
            step *= 0.5
            if step < CONTINUATION_MIN_STEP:
                raise NewtonDiverged(
                    f"continuation stalled at delta={done * delta:.6g} on the "
                    f"way to {delta:.6g}: {exc}", reports)
            continue
        reports.append(rep)
        done, step = target, min(2.0 * step, 1.0 - target)
    if m < nphi:
        # mirror the correction, which is zero on the edges and the cores
        theta = np.hstack([theta,
                           harm[:, m:] - (theta - harm[:, :m])[:, -2::-1]])
    current = DirectorField(grid, theta, BoundaryConditions(pin_mask=pin))
    core_coef = 1.0 - 0.75 * delta
    t1 = of_energy_2d(current, delta, eps=eps1) / math.pi \
        - core_coef * math.log(1.0 / eps1)
    t2 = of_energy_2d(current, delta, eps=eps2) / math.pi \
        - core_coef * math.log(1.0 / eps2)
    tilde = 2.0 * t1 - t2
    return math.pi * (core_coef * math.log(1.0 / eps) + tilde)
