"""Command-line front end: parameter sweeps, CSV tables and SVG plots.

Every subcommand maps onto one operation family of the library.  Outputs
are deterministic functions of the inputs (fixed iteration orders, no
seeded randomness), numeric text is written with 17 significant digits so
CSV round trips reproduce IEEE doubles bit for bit, and plots contain no
timestamps.  Exit codes: 0 success, 2 configuration error, 3 solver
failure (with the solve report on standard error).
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

import click
import numpy as np

from . import harmonic, ldg, pde, svgplot
from .numerics import NewtonDiverged, check_index
from .of_strong import delta_n, spiral_solve
from .of_weak import AnchoringParams, delta_weak

SCHEMA_VERSION = 1


class ConfigError(click.UsageError):
    """Configuration file or parameter violates the schema."""


def fmt17(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def open_output(path: str):
    """Open an output file for writing; an unwritable path is a
    configuration error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def emit_table(path: str, fmt: str, columns, rows, comment: str) -> None:
    with open_output(path) as fh:
        if fmt == "csv":
            fh.write(f"# {comment}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(fmt17(v) for v in row) + "\n")
            return
        payload = {"schema_version": SCHEMA_VERSION, "comment": comment,
                   "columns": list(columns),
                   "rows": [list(map(float, row)) for row in rows]}
        fh.write(json.dumps(payload, indent=1) + "\n")


def read_table(path: str):
    """Read back an emitted CSV: (comment, columns, float ndarray)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comment = lines[0][2:] if lines and lines[0].startswith("#") else ""
    start = 1 if comment or (lines and lines[0].startswith("#")) else 0
    columns = lines[start].split(",")
    data = np.array([[float(v) for v in ln.split(",")]
                     for ln in lines[start + 1:] if ln])
    return comment, columns, data


def _load_config(ctx: click.Context, param, path: str | None) -> None:
    """Eager ``--config`` callback: the file's entries become the command's
    defaults, so flags override them and click converts and checks them
    exactly like the text of the same flag."""
    if not path:
        return
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError("config must be a JSON object with schema_version "
                          f"{SCHEMA_VERSION}")
    bad = [k for k, v in data.items()
           if isinstance(v, bool) or not isinstance(v, (str, int, float))]
    if bad:
        raise ConfigError(f"config values must be numbers or strings: {bad}")
    ctx.default_map = {k: str(v) for k, v in data.items()}


def _report_dict(report) -> dict:
    return {k: v for k, v in dataclasses.asdict(report).items()
            if not isinstance(v, list)}


class _SolverGroup(click.Group):
    """Command group that maps library errors to exit codes: a rejected
    input (``ValueError``) to 2, a solver failure to 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise ConfigError(str(exc))
        except NewtonDiverged as exc:
            payload = {"error": str(exc)}
            if exc.history:
                payload["report"] = _report_dict(exc.history[0])
            click.echo(json.dumps(payload), err=True)
            sys.exit(3)


class FiniteFloat(click.ParamType):
    """Float flag or config value; nan and infinities are rejected."""

    name = "float"

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return x


FLOAT = FiniteFloat()


@click.group(cls=_SolverGroup)
def main():
    """Nematic equilibria on a two-dimensional annulus."""


_config_opt = click.option("--config", type=click.Path(), callback=_load_config,
                           is_eager=True, expose_value=False,
                           help="JSON config file; flags override.")
_format_opt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True)


@main.command("stability-strong")
@click.option("--b-min", type=FLOAT, default=0.05, show_default=True)
@click.option("--b-max", type=FLOAT, default=0.95, show_default=True)
@click.option("--steps", type=int, default=200, show_default=True)
@click.option("--out", type=click.Path(), default="stability_strong.csv",
              show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_format_opt
@_config_opt
def stability_strong(b_min, b_max, steps, out, svg_path, fmt):
    """Critical anisotropy of the defect-free state against radius ratio."""
    if not 0.0 < b_min < b_max < 1.0 or steps < 2:
        raise ConfigError("need 0 < b-min < b-max < 1 and steps >= 2")
    bs = np.linspace(b_min, b_max, steps)
    rows = [(float(b), delta_n(float(b), 1)) for b in bs]
    emit_table(out, fmt, ["b", "delta1"], rows,
               "critical anisotropy, Dirichlet tangent anchoring")
    if svg_path:
        svg = svgplot.line_plot([(bs, [r[1] for r in rows], "delta1")],
                                title="defect-free stability boundary",
                                xlabel="b", ylabel="delta1")
        with open_output(svg_path) as fh:
            fh.write(svg)
    click.echo(f"wrote {out}")


@main.command("stability-weak")
@click.option("--b", type=FLOAT, required=True)
@click.option("--k", "ks", type=str, default="0,1,2,3", show_default=True)
@click.option("--alpha-min", type=FLOAT, default=0.05, show_default=True)
@click.option("--alpha-max", type=FLOAT, default=3.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--out-prefix", type=str, default="stability_weak",
              show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_format_opt
@_config_opt
def stability_weak(b, ks, alpha_min, alpha_max, steps, out_prefix, svg_path,
                   fmt):
    """Critical anisotropy curves under finite anchoring, one per order k."""
    if alpha_max <= alpha_min or steps < 1:
        raise ConfigError("need alpha-min < alpha-max and steps >= 1")
    try:
        k_list = [int(s) for s in ks.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse order list {ks!r}")
    for k in k_list:
        check_index(k, "k", 0)
    alphas = np.linspace(alpha_min, alpha_max, steps)
    series = []
    for k in k_list:
        rows = []
        for a in alphas:
            d = delta_weak(float(a), b, k)
            if d is not None:
                rows.append((d, float(a), k))
        write_path = f"{out_prefix}_k{k}.csv"
        emit_table(write_path, fmt, ["x", "y", "k"], rows,
                   f"critical anisotropy (x) vs anchoring strength (y), order k={k}, b={fmt17(b)}")
        click.echo(f"wrote {write_path}")
        if rows:
            series.append(([r[0] for r in rows], [r[1] for r in rows], f"k={k}"))
    if svg_path:
        svg = svgplot.line_plot(series, title=f"stability curves, b={b:g}",
                                xlabel="delta", ylabel="alpha")
        with open_output(svg_path) as fh:
            fh.write(svg)
        click.echo(f"wrote {svg_path}")


@main.command("spiral")
@click.option("--b", type=FLOAT, required=True)
@click.option("--delta", type=FLOAT, required=True)
@click.option("--n-profile", type=int, default=513, show_default=True)
@click.option("--out", type=click.Path(), default="spiral_profile.csv",
              show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_format_opt
@_config_opt
def spiral(b, delta, n_profile, out, svg_path, fmt):
    """Spiral offset profile above the critical anisotropy."""
    state = spiral_solve(delta, b, n_profile=n_profile)
    t = state.profile.nodes
    r = np.exp(-t)[::-1]
    u = state.profile.values[::-1]
    rows = list(zip(map(float, r), map(float, u)))
    emit_table(out, fmt, ["r", "value"], rows,
               f"spiral offset profile, b={fmt17(b)} delta={fmt17(delta)} "
               f"u_max={fmt17(state.u_max)}")
    if svg_path:
        rr, pp = np.meshgrid(np.linspace(b, 1.0, 12),
                             np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False))
        uu = np.interp(-np.log(rr.ravel()), t, state.profile.values)
        theta = pp.ravel() + 0.5 * math.pi + uu
        svg = svgplot.director_plot(rr.ravel(), pp.ravel(), theta,
                                    title=f"spiral state, delta={delta:g}")
        with open_output(svg_path) as fh:
            fh.write(svg)
    click.echo(f"wrote {out}")


@main.command("defect-states")
@click.option("--b", type=FLOAT, required=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--eps", type=FLOAT, default=0.002, show_default=True)
@click.option("--k3", type=FLOAT, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default="defect_states.csv",
              show_default=True)
@_format_opt
@_config_opt
def defect_states(b, n_max, eps, k3, out, fmt):
    """Regularized sector energies of the four defect states against N.

    Arc contributions of order eps are dropped; odd sector counts leave
    the diagonal-type states blank (they cannot tile the annulus).
    """
    if n_max < 1:
        raise ConfigError("need n-max >= 1")
    rows = []
    for n in range(1, n_max + 1):
        row = [float(n)]
        for kind in ("U1", "U2", "U3", "D"):
            if kind in ("U3", "D") and n % 2 == 1:
                row.append(float("nan"))
            else:
                row.append(harmonic.total_energy(kind, n, b, eps, K=k3))
        rows.append(tuple(row))
    emit_table(out, fmt, ["N", "E_U1", "E_U2", "E_U3", "E_D"], rows,
               f"defect-state energies, b={fmt17(b)} eps={fmt17(eps)} "
               f"K={fmt17(k3)}; order-eps arc terms dropped")
    click.echo(f"wrote {out}")


@main.command("pde-solve")
@click.option("--b", type=FLOAT, required=True)
@click.option("--delta", type=FLOAT, required=True)
@click.option("--nr", type=int, default=97, show_default=True)
@click.option("--nphi", type=int, default=96, show_default=True)
@click.option("--sector-n", type=int, default=None,
              help="Solve on a sector with this count instead of the annulus.")
@click.option("--state", type=click.Choice(harmonic.KINDS), default="U2",
              show_default=True, help="Defect state for sector solves.")
@click.option("--pin-eps", type=FLOAT, default=None,
              help="Core radius pinned to the reference state (sector only).")
@click.option("--alpha", type=FLOAT, default=None,
              help="Weak-anchoring strength; omit for Dirichlet pinning.")
@click.option("--out", type=click.Path(), default="field.csv", show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_config_opt
def pde_solve(b, delta, nr, nphi, sector_n, state, pin_eps, alpha, out,
              svg_path):
    """Solve the director equation and emit the field as r,phi,theta."""
    if sector_n is not None and alpha is not None:
        raise ConfigError("weak anchoring (--alpha) needs the full annulus")
    if sector_n is None and pin_eps is not None:
        raise ConfigError("core pinning (--pin-eps) needs a sector (--sector-n)")
    if sector_n is not None:
        grid = pde.PolarGrid.sector(b, sector_n, nr, nphi)
        spec = harmonic.state_coefficients(state, sector_n, full_annulus=False)
        corner = None
        if pin_eps is not None:
            corner = pde.corner_pin_mask(grid, pin_eps)
        bc = pde.BoundaryConditions(pin_mask=corner)
        init = pde.sector_state_field(grid, spec, bc)
    else:
        grid = pde.PolarGrid.annulus(b, nr, nphi)
        if alpha is not None:
            bc = pde.BoundaryConditions(kind="robin",
                                        anchoring=AnchoringParams(alpha))
        else:
            bc = pde.BoundaryConditions()
        init = pde.defect_free_field(grid, bc)
    fld, report = pde.solve_el(grid, delta, bc, init)
    rows = []
    for i, r in enumerate(grid.r_nodes):
        for j, ph in enumerate(grid.phi_nodes):
            rows.append((float(r), float(ph), float(fld.theta[i, j])))
    emit_table(out, "csv", ["r", "phi", "theta"], rows,
               f"director field periodic={int(grid.periodic)} "
               f"b={fmt17(b)} delta={fmt17(delta)}")
    click.echo(json.dumps(_report_dict(report)), err=True)
    if svg_path:
        xx, pp_arr = grid.mesh()
        stride = max(1, grid.nr // 16)
        sl = (slice(None, None, stride), slice(None, None, stride))
        svg = svgplot.director_plot(np.exp(xx[sl]).ravel(), pp_arr[sl].ravel(),
                                    fld.theta[sl].ravel(),
                                    title=f"director, delta={delta:g}")
        with open_output(svg_path) as fh:
            fh.write(svg)
    click.echo(f"wrote {out}")


@main.command("bifurcation")
@click.option("--b", type=FLOAT, required=True)
@click.option("--delta-min", type=FLOAT, required=True)
@click.option("--delta-max", type=FLOAT, required=True)
@click.option("--steps", type=int, default=12, show_default=True)
@click.option("--seed-amplitude", type=FLOAT, default=0.3, show_default=True)
@click.option("--nr", type=int, default=257, show_default=True,
              help="Radial nodes of the radial-subspace solve.")
@click.option("--nphi", type=int, default=32, show_default=True,
              help="Ring nodes of the annulus grid that checks each radial "
                   "solution's 2-D residual; hp = 2 pi/nphi also sets the "
                   "guard allowance 0.1 (hx^2 + hp^2)(1 + |E|).")
@click.option("--out", type=click.Path(), default="bifurcation.csv",
              show_default=True)
@_format_opt
@_config_opt
def bifurcation(b, delta_min, delta_max, steps, seed_amplitude, nr, nphi, out,
                fmt):
    """Deformation amplitude of the seeded branch across the bifurcation.

    Each row is solved on the rotation-invariant radial subspace and
    checked on the nr x nphi annulus grid.
    """
    if delta_max <= delta_min:
        raise ConfigError("need delta-min < delta-max")
    if steps < 1:
        raise ConfigError("need steps >= 1")
    deltas = np.linspace(delta_min, delta_max, steps)
    pts = pde.bifurcation_scan(b, deltas, seed_amplitude, nr=nr, nphi=nphi)
    rows = [(d, a, 0) for d, a in pts]
    emit_table(out, fmt, ["x", "y", "k"], rows,
               f"deformation amplitude (y) vs anisotropy (x), b={fmt17(b)}, "
               f"critical value {fmt17(delta_n(b, 1))}")
    click.echo(f"wrote {out}")


@main.command("ldg-profile")
@click.option("--b", type=FLOAT, required=True)
@click.option("--t", type=FLOAT, required=True,
              help="Reduced temperature-elasticity ratio |A|/L.")
@click.option("--kind", type=click.Choice(["s", "u"]), default="s",
              show_default=True)
@click.option("--n-nodes", type=int, default=801, show_default=True)
@click.option("--out", type=click.Path(), default="ldg_profile.csv",
              show_default=True)
@_format_opt
@_config_opt
def ldg_profile(b, t, kind, n_nodes, out, fmt):
    """Radial order-parameter profile of the tensor defect-free state."""
    solver = ldg.solve_s if kind == "s" else ldg.solve_u
    prof = solver(b, ldg.LdGParams(t), n_nodes=n_nodes)
    rows = list(zip(map(float, prof.profile.nodes),
                    map(float, prof.profile.values)))
    energy = ldg.ldg_energy(prof)
    emit_table(out, fmt, ["r", "value"], rows,
               f"order profile kind={kind} b={fmt17(b)} "
               f"t={fmt17(t)} energy={fmt17(energy)}")
    click.echo(f"wrote {out}")


@main.command("ldg-stability")
@click.option("--b", type=FLOAT, required=True)
@click.option("--t", type=FLOAT, required=True)
@click.option("--n", "ns", type=str, default="0,1,2", show_default=True)
@click.option("--n-nodes", type=int, default=401, show_default=True)
@click.option("--out", type=click.Path(), default="ldg_stability.csv",
              show_default=True)
@_format_opt
@_config_opt
def ldg_stability(b, t, ns, n_nodes, out, fmt):
    """Smallest stability-block eigenvalues of the tensor defect-free state."""
    try:
        n_list = [int(s) for s in ns.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse block list {ns!r}")
    params = ldg.LdGParams(t)
    for n in n_list:
        check_index(n, "block index", 0)
    rows = [(float(n), ldg.min_eig_Ln(n, b, params, n_nodes=n_nodes))
            for n in n_list]
    thr = ldg.stability_threshold(b)
    emit_table(out, fmt, ["n", "min_eig"], rows,
               f"stability blocks, b={fmt17(b)} t={fmt17(t)} "
               f"sufficient threshold t>{fmt17(thr)}")
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
