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
from typing import Optional

import click
import numpy as np

from . import harmonic, ldg, pde, svgplot
from .numerics import NewtonDiverged, NonConvergence
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


def write_table(path: str, columns, rows, comment: str) -> None:
    with open_output(path) as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


def write_json_table(path: str, columns, rows, comment: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "comment": comment,
               "columns": list(columns),
               "rows": [list(map(float, row)) for row in rows]}
    with open_output(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def emit_table(path: str, fmt: str, columns, rows, comment: str) -> None:
    if fmt == "json":
        write_json_table(path, columns, rows, comment)
    else:
        write_table(path, columns, rows, comment)


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


def load_field_csv(path: str) -> pde.DirectorField:
    """Rebuild a director field from the r,phi,theta table."""
    comment, columns, data = read_table(path)
    if columns != ["r", "phi", "theta"]:
        raise ConfigError(f"not a director-field table: {columns}")
    meta = dict(item.split("=") for item in comment.split() if "=" in item)
    periodic = meta.get("periodic") == "1"
    r = np.unique(data[:, 0])
    phi = np.unique(data[:, 1])
    theta = np.full((len(r), len(phi)), np.nan)
    ri = np.searchsorted(r, data[:, 0])
    pi = np.searchsorted(phi, data[:, 1])
    theta[ri, pi] = data[:, 2]
    grid = pde.PolarGrid(len(r), len(phi), r, phi, periodic)
    return pde.DirectorField(grid, theta, pde.BoundaryConditions())


def _load_config(config_path: Optional[str]) -> dict:
    if not config_path:
        return {}
    try:
        with open(config_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError("config must be a JSON object with schema_version "
                          f"{SCHEMA_VERSION}")
    return data


def _resolve(ctx: click.Context, config: dict, **values) -> dict:
    """Flag values override config entries, which override defaults."""
    out = {}
    for name, val in values.items():
        src = ctx.get_parameter_source(name)
        if src is not None and src.name == "COMMANDLINE":
            out[name] = val
        elif name in config:
            out[name] = config[name]
        else:
            out[name] = val
    return out


def _solver_guard(fn):
    try:
        return fn()
    except (NewtonDiverged, NonConvergence) as exc:
        report = exc.history[0] if getattr(exc, "history", None) else None
        payload = {"error": str(exc)}
        if dataclasses.is_dataclass(report):
            payload["report"] = {
                k: v for k, v in dataclasses.asdict(report).items()
                if not isinstance(v, list)}
        click.echo(json.dumps(payload), err=True)
        sys.exit(3)


@click.group()
def main():
    """Nematic equilibria on a two-dimensional annulus."""


_config_opt = click.option("--config", "config_path", type=click.Path(),
                           default=None, help="JSON config file; flags override.")
_format_opt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True)


@main.command("stability-strong")
@click.option("--b-min", type=float, default=0.05, show_default=True)
@click.option("--b-max", type=float, default=0.95, show_default=True)
@click.option("--steps", type=int, default=200, show_default=True)
@click.option("--out", type=click.Path(), default="stability_strong.csv",
              show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_format_opt
@_config_opt
@click.pass_context
def stability_strong(ctx, b_min, b_max, steps, out, svg_path, fmt, config_path):
    """Critical anisotropy of the defect-free state against radius ratio."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b_min=b_min, b_max=b_max, steps=steps, out=out,
                 svg_path=svg_path, fmt=fmt)
    if not 0.0 < p["b_min"] < p["b_max"] < 1.0 or p["steps"] < 2:
        raise ConfigError("need 0 < b-min < b-max < 1 and steps >= 2")
    bs = np.linspace(p["b_min"], p["b_max"], p["steps"])
    rows = [(float(b), delta_n(float(b), 1)) for b in bs]
    emit_table(p["out"], p["fmt"], ["b", "delta1"], rows,
               "critical anisotropy, Dirichlet tangent anchoring")
    if p["svg_path"]:
        svg = svgplot.line_plot([(bs, [r[1] for r in rows], "delta1")],
                                title="defect-free stability boundary",
                                xlabel="b", ylabel="delta1")
        with open_output(p["svg_path"]) as fh:
            fh.write(svg)
    click.echo(f"wrote {p['out']}")


@main.command("stability-weak")
@click.option("--b", type=float, required=True)
@click.option("--k", "ks", type=str, default="0,1,2,3", show_default=True)
@click.option("--alpha-min", type=float, default=0.05, show_default=True)
@click.option("--alpha-max", type=float, default=3.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--out-prefix", type=str, default="stability_weak",
              show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_format_opt
@_config_opt
@click.pass_context
def stability_weak(ctx, b, ks, alpha_min, alpha_max, steps, out_prefix,
                   svg_path, fmt, config_path):
    """Critical anisotropy curves under finite anchoring, one per order k."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, ks=ks, alpha_min=alpha_min,
                 alpha_max=alpha_max, steps=steps, out_prefix=out_prefix,
                 svg_path=svg_path, fmt=fmt)
    if not 0.0 < p["b"] < 1.0 or p["alpha_min"] <= 0 \
            or p["alpha_max"] <= p["alpha_min"]:
        raise ConfigError("invalid geometry or anchoring range")
    try:
        k_list = [int(s) for s in str(p["ks"]).split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse order list {p['ks']!r}")
    if min(k_list) < 0:
        raise ConfigError("need orders k >= 0")
    alphas = np.linspace(p["alpha_min"], p["alpha_max"], p["steps"])
    series = []
    for k in k_list:
        rows = []
        for a in alphas:
            d = delta_weak(float(a), p["b"], k)
            if d is not None:
                rows.append((d, float(a), k))
        write_path = f"{p['out_prefix']}_k{k}.csv"
        emit_table(write_path, p["fmt"], ["x", "y", "k"], rows,
                   f"critical anisotropy (x) vs anchoring strength (y), order k={k}, b={fmt17(p['b'])}")
        click.echo(f"wrote {write_path}")
        if rows:
            series.append(([r[0] for r in rows], [r[1] for r in rows], f"k={k}"))
    if p["svg_path"]:
        svg = svgplot.line_plot(series, title=f"stability curves, b={p['b']:g}",
                                xlabel="delta", ylabel="alpha")
        with open_output(p["svg_path"]) as fh:
            fh.write(svg)
        click.echo(f"wrote {p['svg_path']}")


@main.command("spiral")
@click.option("--b", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--n-profile", type=int, default=513, show_default=True)
@click.option("--out", type=click.Path(), default="spiral_profile.csv",
              show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_format_opt
@_config_opt
@click.pass_context
def spiral(ctx, b, delta, n_profile, out, svg_path, fmt, config_path):
    """Spiral offset profile above the critical anisotropy."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, delta=delta, n_profile=n_profile, out=out,
                 svg_path=svg_path, fmt=fmt)
    if not 0.0 < p["b"] < 1.0:
        raise ConfigError("b must lie in (0,1)")
    try:
        state = _solver_guard(lambda: spiral_solve(p["delta"], p["b"],
                                                   n_profile=p["n_profile"]))
    except ValueError as exc:
        # out-of-range inputs, NoSpiralBranch included
        raise ConfigError(str(exc))
    t = state.profile.nodes
    r = np.exp(-t)[::-1]
    u = state.profile.values[::-1]
    rows = list(zip(map(float, r), map(float, u)))
    emit_table(p["out"], p["fmt"], ["r", "value"], rows,
               f"spiral offset profile, b={fmt17(p['b'])} delta={fmt17(p['delta'])} "
               f"u_max={fmt17(state.u_max)}")
    if p["svg_path"]:
        rr, pp = np.meshgrid(np.linspace(p["b"], 1.0, 12),
                             np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False))
        uu = np.interp(-np.log(rr.ravel()), t, state.profile.values)
        theta = pp.ravel() + 0.5 * math.pi + uu
        svg = svgplot.director_plot(rr.ravel(), pp.ravel(), theta,
                                    title=f"spiral state, delta={p['delta']:g}")
        with open_output(p["svg_path"]) as fh:
            fh.write(svg)
    click.echo(f"wrote {p['out']}")


@main.command("defect-states")
@click.option("--b", type=float, required=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--eps", type=float, default=0.002, show_default=True)
@click.option("--k3", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default="defect_states.csv",
              show_default=True)
@_format_opt
@_config_opt
@click.pass_context
def defect_states(ctx, b, n_max, eps, k3, out, fmt, config_path):
    """Regularized sector energies of the four defect states against N.

    Arc contributions of order eps are dropped; odd sector counts leave
    the diagonal-type states blank (they cannot tile the annulus).
    """
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, n_max=n_max, eps=eps, k3=k3, out=out, fmt=fmt)
    if not 0.0 < p["b"] < 1.0 or p["n_max"] < 1:
        raise ConfigError("need b in (0,1) and n-max >= 1")
    if not 0.0 < p["eps"] < p["b"] / 4.0:
        raise ConfigError("need 0 < eps < b/4")
    rows = []
    for n in range(1, p["n_max"] + 1):
        row = [float(n)]
        for kind in ("U1", "U2", "U3", "D"):
            if kind in ("U3", "D") and n % 2 == 1:
                row.append(float("nan"))
            else:
                row.append(harmonic.total_energy(kind, n, p["b"], p["eps"],
                                                 K=p["k3"]))
        rows.append(tuple(row))
    emit_table(p["out"], p["fmt"], ["N", "E_U1", "E_U2", "E_U3", "E_D"], rows,
               f"defect-state energies, b={fmt17(p['b'])} eps={fmt17(p['eps'])} "
               f"K={fmt17(p['k3'])}; order-eps arc terms dropped")
    click.echo(f"wrote {p['out']}")


@main.command("pde-solve")
@click.option("--b", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--nr", type=int, default=97, show_default=True)
@click.option("--nphi", type=int, default=96, show_default=True)
@click.option("--sector-n", type=int, default=None,
              help="Solve on a sector with this count instead of the annulus.")
@click.option("--state", type=click.Choice(harmonic.KINDS), default="U2",
              show_default=True, help="Defect state for sector solves.")
@click.option("--pin-eps", type=float, default=None,
              help="Core radius pinned to the reference state (sector only).")
@click.option("--alpha", type=float, default=None,
              help="Weak-anchoring strength; omit for Dirichlet pinning.")
@click.option("--out", type=click.Path(), default="field.csv", show_default=True)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@_config_opt
@click.pass_context
def pde_solve(ctx, b, delta, nr, nphi, sector_n, state, pin_eps, alpha, out,
              svg_path, config_path):
    """Solve the director equation and emit the field as r,phi,theta."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, delta=delta, nr=nr, nphi=nphi,
                 sector_n=sector_n, state=state, pin_eps=pin_eps, alpha=alpha,
                 out=out, svg_path=svg_path)
    if not 0.0 < p["b"] < 1.0:
        raise ConfigError("b must lie in (0,1)")
    if p["sector_n"] is not None and p["sector_n"] < 1:
        raise ConfigError("need sector-n >= 1")
    if p["sector_n"] is not None and p["alpha"] is not None:
        raise ConfigError("weak anchoring (--alpha) needs the full annulus")
    if p["sector_n"] is None and p["pin_eps"] is not None:
        raise ConfigError("core pinning (--pin-eps) needs a sector (--sector-n)")
    try:
        if p["sector_n"] is not None:
            grid = pde.PolarGrid.sector(p["b"], p["sector_n"], p["nr"], p["nphi"])
            spec = harmonic.state_coefficients(p["state"], p["sector_n"],
                                               full_annulus=False)
            corner = None
            if p["pin_eps"] is not None:
                corner = pde.corner_pin_mask(grid, p["pin_eps"])
            bc = pde.BoundaryConditions(pin_mask=corner)
            init = pde.sector_state_field(grid, spec, bc)
        else:
            grid = pde.PolarGrid.annulus(p["b"], p["nr"], p["nphi"])
            if p["alpha"] is not None:
                bc = pde.BoundaryConditions(kind="robin",
                                            anchoring=AnchoringParams(p["alpha"]))
            else:
                bc = pde.BoundaryConditions()
            init = pde.defect_free_field(grid, bc)
    except ValueError as exc:
        # grid size, anchoring strength or state rejected by the library
        raise ConfigError(str(exc))

    def run_solve():
        return pde.solve_el(grid, p["delta"], bc, init)

    try:
        fld, report = _solver_guard(run_solve)
    except pde.SingularAnisotropy as exc:
        raise ConfigError(str(exc))
    rows = []
    for i, r in enumerate(grid.r_nodes):
        for j, ph in enumerate(grid.phi_nodes):
            rows.append((float(r), float(ph), float(fld.theta[i, j])))
    write_table(p["out"], ["r", "phi", "theta"], rows,
                f"director field periodic={int(grid.periodic)} "
                f"b={fmt17(p['b'])} delta={fmt17(p['delta'])}")
    click.echo(json.dumps({"iterations": report.iterations,
                           "final_residual": report.final_residual,
                           "converged": report.converged,
                           "assemble_s": report.assemble_s,
                           "linear_solve_s": report.linear_solve_s,
                           "line_search_s": report.line_search_s}), err=True)
    if p["svg_path"]:
        xx, pp_arr = grid.mesh()
        stride = max(1, grid.nr // 16)
        sl = (slice(None, None, stride), slice(None, None, stride))
        svg = svgplot.director_plot(np.exp(xx[sl]).ravel(), pp_arr[sl].ravel(),
                                    fld.theta[sl].ravel(),
                                    title=f"director, delta={p['delta']:g}")
        with open_output(p["svg_path"]) as fh:
            fh.write(svg)
    click.echo(f"wrote {p['out']}")


@main.command("bifurcation")
@click.option("--b", type=float, required=True)
@click.option("--delta-min", type=float, required=True)
@click.option("--delta-max", type=float, required=True)
@click.option("--steps", type=int, default=12, show_default=True)
@click.option("--seed-amplitude", type=float, default=0.3, show_default=True)
@click.option("--nr", type=int, default=257, show_default=True)
@click.option("--nphi", type=int, default=32, show_default=True)
@click.option("--out", type=click.Path(), default="bifurcation.csv",
              show_default=True)
@_format_opt
@_config_opt
@click.pass_context
def bifurcation(ctx, b, delta_min, delta_max, steps, seed_amplitude, nr, nphi,
                out, fmt, config_path):
    """Deformation amplitude of the seeded branch across the bifurcation."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, delta_min=delta_min, delta_max=delta_max,
                 steps=steps, seed_amplitude=seed_amplitude, nr=nr, nphi=nphi,
                 out=out, fmt=fmt)
    if not 0.0 < p["b"] < 1.0 or p["delta_max"] <= p["delta_min"]:
        raise ConfigError("invalid geometry or anisotropy range")
    if p["steps"] < 1:
        raise ConfigError("need steps >= 1")
    deltas = np.linspace(p["delta_min"], p["delta_max"], p["steps"])
    try:
        pts = _solver_guard(lambda: pde.bifurcation_scan(
            p["b"], deltas, p["seed_amplitude"], nr=p["nr"], nphi=p["nphi"]))
    except ValueError as exc:
        # the scan checks its grid and anisotropy range before solving
        raise ConfigError(str(exc))
    rows = [(d, a, 0) for d, a in pts]
    emit_table(p["out"], p["fmt"], ["x", "y", "k"], rows,
               f"deformation amplitude (y) vs anisotropy (x), b={fmt17(p['b'])}, "
               f"critical value {fmt17(delta_n(p['b'], 1))}")
    click.echo(f"wrote {p['out']}")


@main.command("ldg-profile")
@click.option("--b", type=float, required=True)
@click.option("--t", type=float, required=True,
              help="Reduced temperature-elasticity ratio |A|/L.")
@click.option("--kind", type=click.Choice(["s", "u"]), default="s",
              show_default=True)
@click.option("--n-nodes", type=int, default=801, show_default=True)
@click.option("--out", type=click.Path(), default="ldg_profile.csv",
              show_default=True)
@_format_opt
@_config_opt
@click.pass_context
def ldg_profile(ctx, b, t, kind, n_nodes, out, fmt, config_path):
    """Radial order-parameter profile of the tensor defect-free state."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, t=t, kind=kind, n_nodes=n_nodes, out=out,
                 fmt=fmt)
    if not 0.0 < p["b"] < 1.0 or p["t"] < 0:
        raise ConfigError("need b in (0,1) and t >= 0")
    if p["n_nodes"] < 16:
        raise ConfigError("need n-nodes >= 16")
    solver = ldg.solve_s if p["kind"] == "s" else ldg.solve_u
    prof = _solver_guard(lambda: solver(p["b"], ldg.LdGParams(p["t"]),
                                        n_nodes=p["n_nodes"]))
    rows = list(zip(map(float, prof.profile.nodes),
                    map(float, prof.profile.values)))
    energy = ldg.ldg_energy(prof)
    emit_table(p["out"], p["fmt"], ["r", "value"], rows,
               f"order profile kind={p['kind']} b={fmt17(p['b'])} "
               f"t={fmt17(p['t'])} energy={fmt17(energy)}")
    click.echo(f"wrote {p['out']}")


@main.command("ldg-stability")
@click.option("--b", type=float, required=True)
@click.option("--t", type=float, required=True)
@click.option("--n", "ns", type=str, default="0,1,2", show_default=True)
@click.option("--n-nodes", type=int, default=401, show_default=True)
@click.option("--out", type=click.Path(), default="ldg_stability.csv",
              show_default=True)
@_format_opt
@_config_opt
@click.pass_context
def ldg_stability(ctx, b, t, ns, n_nodes, out, fmt, config_path):
    """Smallest stability-block eigenvalues of the tensor defect-free state."""
    cfg = _load_config(config_path)
    p = _resolve(ctx, cfg, b=b, t=t, ns=ns, n_nodes=n_nodes, out=out, fmt=fmt)
    try:
        n_list = [int(s) for s in str(p["ns"]).split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse block list {p['ns']!r}")
    if not 0.0 < p["b"] < 1.0 or p["t"] < 0:
        raise ConfigError("need b in (0,1) and t >= 0")
    if min(n_list) < 0 or p["n_nodes"] < 16:
        raise ConfigError("need block indices n >= 0 and n-nodes >= 16")
    params = ldg.LdGParams(p["t"])
    rows = [(float(n), _solver_guard(
        lambda n=n: ldg.min_eig_Ln(n, p["b"], params, n_nodes=p["n_nodes"])))
        for n in n_list]
    thr = ldg.stability_threshold(p["b"])
    emit_table(p["out"], p["fmt"], ["n", "min_eig"], rows,
               f"stability blocks, b={fmt17(p['b'])} t={fmt17(p['t'])} "
               f"sufficient threshold t>{fmt17(thr)}")
    click.echo(f"wrote {p['out']}")


if __name__ == "__main__":
    main()
