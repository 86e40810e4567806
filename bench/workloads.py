"""Seeded task tables for the benchmark workloads.

A workload turns a seed into a *table*: the list of tasks a scientist runs
to produce one table or diagram, each task followed by checks of its output
against a reference (closed form, oracle or spiral profile).  The package
only ever sees the drawn inputs.

Parameters that set a task's cost are drawn stratified: the tasks of one
table split the range into equal strata, and each takes the point at a
seeded offset in its own stratum, so that across seeds every draw covers
its whole stratum.  Where the costs of a table's tasks move with the
offset, some tasks take the mirrored offset, so that every table asks for
about the same amount of work and the run-to-run spread measures the
program rather than the draw.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from annulus_nematics import cli, harmonic, ldg, of_strong, of_weak, pde
from annulus_nematics.of_weak import AnchoringParams


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    rel_err: Optional[float] = None     # deviation from a reference value


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


# Checks that fail on the unmodified program and are tracked in ROADMAP
# "Known defects".  They still run and count as failed; they only keep
# ``correct`` true so that the failure is not mistaken for a regression.
SPIRAL_RESIDUAL = "spiral ODE residual <= 1e-6 at n_profile=16385, delta=0.95, b=0.2"
KNOWN_DEFECTS = frozenset({SPIRAL_RESIDUAL})


class Context:
    """Where CLI tasks write, and how they invoke the CLI in-process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.bytes_written = 0
        self.invoke = self.invoke_cli

    @staticmethod
    def invoke_cli(argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=argv, prog_name="annulus-nematics",
                          standalone_mode=False)

    def path(self, name: str) -> str:
        return str(self.out_dir / name)

    def cli(self, argv: list[str], outputs: list[str]) -> None:
        self.invoke(argv)
        self.bytes_written += sum(Path(p).stat().st_size for p in outputs)


def within(name: str, value: float, ref: float, rtol: float) -> Check:
    err = abs(value - ref) / abs(ref)
    return Check(name, bool(err <= rtol), float(err))


def delta1(b: float) -> float:
    """First critical anisotropy, pi^2 / (pi^2 + log^2 b)."""
    return math.pi ** 2 / (math.pi ** 2 + math.log(b) ** 2)


def strata(u: float, lo: float, hi: float, k: int) -> list[float]:
    """The point at offset u in [0, 1] of each of k equal strata of [lo, hi],
    ascending.  With u uniform, each point is uniform over its stratum."""
    width = (hi - lo) / k
    return [lo + width * (i + u) for i in range(k)]


def fl(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# sector-energy: a few large sector solves (SuperLU-bound)

SECTOR_EPS = 0.002


def _sector_energy_task(b: float, delta: float, nr: int):
    energy = pde.anisotropic_state_energy(b, 2, "U2", delta, SECTOR_EPS, nr=nr)
    return energy, harmonic.total_energy("U2", 2, b, SECTOR_EPS)


def sector_energy(rng: random.Random, ctx: Context) -> list[Task]:
    u, v = rng.random(), rng.random()
    (b0,) = strata(u, 0.27, 0.45, 1)
    tasks = [Task(
        f"U2 N=2 nr=97 b={b0:.4f} delta=0 control",
        partial(_sector_energy_task, b0, 0.0, 97),
        lambda r: [within("delta=0 energy within 1% of harmonic.total_energy",
                          r[0], r[1], 0.01)])]
    # nr=97 cannot host the core disks below b = 0.2604, so nr=129 takes
    # the lower half of the b range and nr=97 the upper half; the larger
    # grid takes the smaller anisotropy (fewer continuation steps), which
    # keeps the two solves about equally costly.  Every cost rises with b
    # and delta, so the nr=129 solve takes the mirrored offsets 1-u, 1-v:
    # the table's cost then varies by about 3% across seeds, not 10%
    _, b_hi = strata(u, 0.2, 0.45, 2)
    b_lo, _ = strata(1.0 - u, 0.2, 0.45, 2)
    _, delta_hi = strata(v, 0.6, 0.9, 2)
    delta_lo, _ = strata(1.0 - v, 0.6, 0.9, 2)
    for nr, b, delta in ((97, b_hi, delta_hi), (129, b_lo, delta_lo)):
        tasks.append(Task(
            f"U2 N=2 nr={nr} b={b:.4f} delta={delta:.4f}",
            partial(_sector_energy_task, b, delta, nr),
            lambda r: [Check("energy below the delta=0 closed form",
                             bool(r[0] < r[1]))]))
    return tasks


# ---------------------------------------------------------------------------
# annulus-onset: many small periodic solves across the first bifurcation

def _scan(ctx: Context, b: float, lo: float, hi: float, shared: dict, key):
    shared.pop(key, None)
    out = ctx.path(f"bifurcation_{key}.csv")
    ctx.cli(["bifurcation", "--b", fl(b), "--delta-min", fl(lo),
             "--delta-max", fl(hi), "--steps", "12", "--out", out], [out])
    _, _, data = cli.read_table(out)
    shared[key] = data
    return data


def _check_subcritical(d1: float, data) -> list:
    sub = data[data[:, 0] < d1, 1]
    return [Check("subcritical amplitudes below 1e-6",
                  bool(sub.size > 0 and np.all(sub < 1e-6)))]


def _spiral_amplitudes(b: float, deltas):
    return [of_strong.spiral_solve(float(d), b).u_max for d in deltas]


def _check_supercritical(shared: dict, key, deltas, u_max) -> list:
    data = shared.get(key)
    if data is None:
        return [Check("supercritical amplitudes vs spiral u_max: scan missing",
                      False)]
    amps = dict(zip(data[:, 0], data[:, 1]))
    checks = []
    for d, u in zip(deltas, u_max):
        checks.append(within("supercritical amplitude within 1e-3 of spiral u_max",
                             amps.get(float(d), math.nan), u, 1e-3))
    return checks


def _probe(b: float, d1: float):
    base = pde.defect_free_field(pde.PolarGrid.annulus(b, 48, 32))
    return (pde.stability_probe(base, d1 - 0.005, b, 0),
            pde.stability_probe(base, d1 + 0.005, b, 0))


def _robin_solve(b: float, alpha: float, delta: float, amplitude: float):
    grid = pde.PolarGrid.annulus(b, 257, 32)
    bc = pde.BoundaryConditions(kind="robin", anchoring=AnchoringParams(alpha))
    xx, _ = grid.mesh()
    theta = pde.defect_free_field(grid, bc).theta \
        + amplitude * np.cos(math.pi * (xx - math.log(b)) / math.log(1.0 / b))
    _, report = pde.solve_el(grid, delta, bc, pde.DirectorField(grid, theta, bc))
    return report


def annulus_onset(rng: random.Random, ctx: Context) -> list[Task]:
    shared: dict = {}
    tasks = []
    for key, b in enumerate(strata(rng.random(), 0.2, 0.5, 2)):
        d1 = delta1(b)
        lo, hi = d1 - 0.03, d1 + 0.03
        # the CLI samples the same points, so they key the read-back table
        deltas = [float(d) for d in np.linspace(lo, hi, 12) if d > d1]
        tasks.append(Task(f"bifurcation b={b:.4f}",
                          partial(_scan, ctx, b, lo, hi, shared, key),
                          partial(_check_subcritical, d1)))
        tasks.append(Task(f"spiral u_max b={b:.4f}",
                          partial(_spiral_amplitudes, b, deltas),
                          partial(_check_supercritical, shared, key, deltas)))
        tasks.append(Task(
            f"stability probe b={b:.4f}", partial(_probe, b, d1),
            lambda r: [Check("probe sign flips across delta1 +- 0.005",
                             bool(r[0] > 0.0 > r[1]))]))
    b, alpha = rng.uniform(0.2, 0.5), rng.uniform(0.5, 2.0)
    delta = rng.uniform(0.3, 0.6)
    tasks.append(Task(
        f"robin solve b={b:.4f} alpha={alpha:.4f} delta={delta:.4f}",
        partial(_robin_solve, b, alpha, delta, 0.1),
        lambda rep: [Check("seeded Robin solve converges", bool(rep.converged))]))
    return tasks


# ---------------------------------------------------------------------------
# stability-curves: the closed-form, ODE and tensor-theory CLI commands

def _strong(ctx: Context, b_min: float, b_max: float):
    out, svg = ctx.path("strong.csv"), ctx.path("strong.svg")
    ctx.cli(["stability-strong", "--b-min", fl(b_min), "--b-max", fl(b_max),
             "--steps", "200", "--out", out, "--svg", svg], [out, svg])
    return cli.read_table(out)[2]


def _check_strong(data) -> list:
    exact = np.array([delta1(float(x)) for x in data[:, 0]])
    err = float(np.max(np.abs(data[:, 1] - exact)))
    return [Check("delta1 table within 1e-12 of the closed form",
                  err <= 1e-12, float(np.max(np.abs(data[:, 1] - exact) / exact)))]


def _weak(ctx: Context, b: float):
    prefix, svg = ctx.path("weak"), ctx.path("weak.svg")
    outs = [f"{prefix}_k{k}.csv" for k in range(4)]
    ctx.cli(["stability-weak", "--b", fl(b), "--k", "0,1,2,3",
             "--alpha-min", "0.05", "--alpha-max", "3", "--steps", "100",
             "--out-prefix", prefix, "--svg", svg], outs + [svg])
    return [cli.read_table(p)[2] for p in outs]


def _check_weak(tables) -> list:
    checks = [Check("k=0 curve present", bool(tables[0].size > 0))]
    for k in (1, 2, 3):
        alphas = tables[k][:, 1] if tables[k].size else np.zeros(0)
        checks.append(Check(f"no k={k} critical anisotropy at alpha >= 1",
                            bool(np.all(alphas < 1.0))))
    return checks


def _weak_limits(b: float, alpha: float):
    return of_weak.delta_weak(1e6, b, 0), of_weak.weak_pitchfork_coeffs(alpha, b)


def _check_weak_limits(b: float, r) -> list:
    strong, (e1, e3) = r
    ref = delta1(b)
    err = abs(strong - ref) if strong is not None else math.inf
    return [Check("alpha=1e6 recovers delta1 within 1e-4", err <= 1e-4, err / ref),
            Check("weak pitchfork coefficients E1, E3 positive",
                  bool(e1 > 0.0 and e3 > 0.0))]


def _spiral_cli(ctx: Context, b: float, delta: float):
    out, svg = ctx.path("spiral.csv"), ctx.path("spiral.svg")
    ctx.cli(["spiral", "--b", fl(b), "--delta", fl(delta), "--out", out,
             "--svg", svg], [out, svg])
    comment, _, data = cli.read_table(out)
    u_max = float(comment.rsplit("u_max=", 1)[1])
    return data, u_max


def _check_spiral(r) -> list:
    data, u_max = r
    v = data[:, 1]
    return [Check("spiral profile pinned at both radii, peak equals u_max",
                  bool(v[0] == 0.0 and v[-1] == 0.0 and np.max(v) == u_max
                       and u_max > 0.0))]


def _exact_spiral(ctx: Context, b: float):
    out = ctx.path("spiral1.csv")
    ctx.cli(["spiral", "--b", fl(b), "--delta", "1.0", "--n-profile", "1025",
             "--out", out], [out])
    data = cli.read_table(out)[2]
    state = of_strong.spiral_solve(1.0, b, n_profile=1025)
    energy = of_strong.spiral_energy(state, of_strong.ElasticParams(1.0, 1.0))
    t = np.linspace(0.0, math.log(1.0 / b), 1002)[1:-1]
    coeff = of_strong.delta1_stability_coefficient(b, t)
    return data, energy, float(np.min(coeff))


def _check_exact_spiral(b: float, r) -> list:
    data, energy, coeff_min = r
    t = -np.log(data[:, 0])
    g = b / (b + 1.0) * np.exp(t) + np.exp(-t) / (b + 1.0)
    exact = np.arccos(np.clip(g, -1.0, 1.0))
    err = float(np.max(np.abs(data[:, 1] - exact)))
    return [Check("delta=1 spiral within 1e-6 of the exact profile", err <= 1e-6,
                  err / float(np.max(exact))),
            within("delta=1 spiral energy within 0.5% of 2 pi (1-b)/(1+b)",
                   energy, 2.0 * math.pi * (1.0 - b) / (1.0 + b), 0.005),
            Check("delta=1 stability coefficient >= 1", coeff_min >= 1.0 - 1e-9)]


def _spiral_residual():
    state = of_strong.spiral_solve(0.95, 0.2, n_profile=16385)
    return of_strong.spiral_ode_residual(state)


def _defect_states(ctx: Context, b: float):
    out = ctx.path("states.csv")
    ctx.cli(["defect-states", "--b", fl(b), "--n-max", "10", "--eps", "0.002",
             "--out", out], [out])
    return cli.read_table(out)[2]


def _check_defect_states(b: float, data) -> list:
    gap = (data[:, 1] - data[:, 2]) / math.pi
    ref = 2.0 * math.log(1.0 / b)
    err = float(np.max(np.abs(gap - ref)))
    return [Check("U1 - U2 gap equals 2 pi log(1/b)", err <= 1e-12, err / ref)]


def _profiles(ctx: Context, b: float, t: float):
    out = {}
    for kind in ("s", "u"):
        path = ctx.path(f"profile_{kind}.csv")
        ctx.cli(["ldg-profile", "--b", fl(b), "--t", fl(t), "--kind", kind,
                 "--out", path], [path])
        out[kind] = cli.read_table(path)[2][:, 1]
    return out


def _check_profiles(r) -> list:
    s, u = r["s"], r["u"]
    return [Check("u below s", bool(np.max(u - s) <= 1e-10)),
            Check("u nondecreasing", bool(np.min(np.diff(u)) >= -1e-10))]


# Criterion 7 states its 1e-8 bound on the t=0 profile at b=0.5.  The
# 1601-node error is second order in the grid step and smooth in b
# (7.4e-9 at b=0.5, 1.8e-8 at 0.4, 3.7e-8 at 0.3), so the bound is checked
# at that point rather than at the drawn b.
T0_PROFILE_B = 0.5


def _profile_t0(ctx: Context, b: float):
    path = ctx.path("profile_t0.csv")
    ctx.cli(["ldg-profile", "--b", fl(b), "--t", "0", "--kind", "s",
             "--n-nodes", "1601", "--out", path], [path])
    data = cli.read_table(path)[2]
    return data, ldg.s_profile_zero_t(b, data[:, 0])


def _check_profile_t0(b: float, r) -> list:
    data, exact = r
    err = float(np.max(np.abs(data[:, 1] - exact)))
    i_min = int(np.argmin(data[:, 1]))
    s_min_ref = math.sqrt(2.0) * b / (b * b + 1.0)
    return [Check("t=0 profile within 1e-8 of the closed form", err <= 1e-8,
                  err / float(np.max(np.abs(exact)))),
            Check("t=0 minimum at sqrt(b)",
                  abs(data[i_min, 0] - math.sqrt(b)) <= 1e-9),
            within("t=0 minimum value sqrt(2) b/(b^2+1)", data[i_min, 1],
                   s_min_ref, 1e-8 / s_min_ref)]


def _blocks(ctx: Context, b: float, t: float, ns: str, n_nodes: int, name: str):
    path = ctx.path(name)
    ctx.cli(["ldg-stability", "--b", fl(b), "--t", fl(t), "--n", ns,
             "--n-nodes", str(n_nodes), "--out", path], [path])
    return cli.read_table(path)[2]


def _check_blocks(data) -> list:
    return [Check(f"block n={int(n)} positive above 1.05x the threshold",
                  bool(v > 0.0)) for n, v in data]


def _propositions(b: float, t: float):
    return ldg.check_propositions(b, ldg.LdGParams(t))


def _check_propositions(rep) -> list:
    return [Check(f"proposition {name}", bool(getattr(rep, name)))
            for name in ("u_monotone", "u_below_s", "s_has_interior_min",
                         "s_min_bound", "golovaty_bound")]


def stability_curves(rng: random.Random, ctx: Context) -> list[Task]:
    b = rng.uniform(0.3, 0.7)
    b_min, b_max = rng.uniform(0.05, 0.1), rng.uniform(0.9, 0.95)
    alpha = rng.uniform(0.5, 5.0)
    delta = rng.uniform(delta1(b) + 0.02, 0.99)
    t_profile = rng.uniform(10.0, 100.0)
    t_blocks = 1.05 * 3.0 * (b * b + 1.0) ** 2 / (2.0 * b ** 4)
    n_big = rng.randrange(4)
    return [
        Task("stability-strong", partial(_strong, ctx, b_min, b_max), _check_strong),
        Task("stability-weak", partial(_weak, ctx, b), _check_weak),
        Task("weak limits", partial(_weak_limits, b, alpha),
             partial(_check_weak_limits, b)),
        Task("spiral", partial(_spiral_cli, ctx, b, delta), _check_spiral),
        Task("spiral delta=1", partial(_exact_spiral, ctx, b),
             partial(_check_exact_spiral, b)),
        Task("spiral residual", _spiral_residual,
             lambda res: [Check(SPIRAL_RESIDUAL, res <= 1e-6)]),
        Task("defect-states", partial(_defect_states, ctx, b),
             partial(_check_defect_states, b)),
        Task("ldg-profile s,u", partial(_profiles, ctx, b, t_profile),
             _check_profiles),
        Task("ldg-profile t=0", partial(_profile_t0, ctx, T0_PROFILE_B),
             partial(_check_profile_t0, T0_PROFILE_B)),
        Task("ldg-stability n=0..3", partial(_blocks, ctx, b, t_blocks,
                                              "0,1,2,3", 401, "blocks.csv"),
             _check_blocks),
        Task(f"ldg-stability n={n_big} at 801 nodes",
             partial(_blocks, ctx, b, t_blocks, str(n_big), 801, "block801.csv"),
             _check_blocks),
        Task("check_propositions", partial(_propositions, b, t_profile),
             _check_propositions),
    ]


# ---------------------------------------------------------------------------
# defect-oracle: the independent 2-D quadrature of the harmonic states

ORACLE_EPS = 1e-3


# The oracle's finite part, energy / pi - log(1/eps), is checked to 1% of
# the closed form's.  That of U1 at N=4 crosses zero near b=0.44, so the
# tolerance never drops below ORACLE_ABS_TOL = 1% of 0.5.  The oracle's
# O(eps) error in the finite part is 2.2e-3 for U1 and U2 and 2e-6 for U3
# and D over the drawn ranges.
ORACLE_ABS_TOL = 5e-3


def _oracle(kind: str, N: int, b: float):
    spec = harmonic.state_coefficients(kind, N)
    energy = harmonic.energy_quadrature_oracle(spec, b, ORACLE_EPS)
    return (energy / math.pi - math.log(1.0 / ORACLE_EPS),
            harmonic.normalized_energy(kind, N, b))


def _check_oracle(r) -> list:
    finite, ref = r
    scale = max(abs(ref), ORACLE_ABS_TOL / 0.01)
    err = abs(finite - ref) / scale
    return [Check("oracle finite part within 1% of the closed form, "
                  f"at least {ORACLE_ABS_TOL}", bool(err <= 0.01), err)]


def _closed_forms(b: float):
    table = {}
    for n in range(1, 11):
        for kind in harmonic.KINDS:
            if kind in ("U3", "D") and n % 2:
                continue
            table[kind, n] = harmonic.normalized_energy(kind, n, b)
    series = {n: harmonic.series_s(2, n, b) for n in range(2, 11, 2)}
    return table, series, harmonic.crossover_N(b, 200)


def _check_closed_forms(b: float, r) -> list:
    table, series, crossover = r
    ref = 2.0 * math.log(1.0 / b)
    gap = max(abs(table["U1", n] - table["U2", n] - ref) for n in range(1, 11))
    gap2 = max(abs(table["U3", n] - table["D", n] + series[n] / 2.0)
               for n in series)
    return [Check("U1 - U2 gap equals 2 log(1/b)", gap <= 1e-12, gap / ref),
            Check("U3 - D gap equals -S2/2", gap2 <= 1e-12),
            Check("diagonal state undercuts U2 below N=200",
                  crossover is not None)]


def defect_oracle(rng: random.Random, ctx: Context) -> list[Task]:
    # the oracle's cost doubles for every +0.1 in b at N=2 and exceeds 13 s
    # at N=1, b >= 0.35; N=2 keeps to b <= 0.45 and N=1 is left out so that
    # a table takes no more than about 20 s.  The N=4 costs grow with the
    # offset u as much as the N=2 cost does, so the N=2 oracle takes the
    # mirrored offset and every table costs about the same
    u = rng.random()
    kinds = list(harmonic.KINDS)
    rng.shuffle(kinds)
    draws = list(zip(kinds, [4] * 4, strata(u, 0.4, 0.6, 4)))
    draws.append((rng.choice(harmonic.KINDS), 2, *strata(1.0 - u, 0.4, 0.45, 1)))
    tasks = [Task(f"oracle {kind} N={N} b={b:.4f}", partial(_oracle, kind, N, b),
                  _check_oracle) for kind, N, b in draws]
    b_table = rng.uniform(0.4, 0.6)
    tasks.append(Task(f"closed forms b={b_table:.4f}",
                      partial(_closed_forms, b_table),
                      partial(_check_closed_forms, b_table)))
    return tasks


WORKLOADS = {
    "sector-energy": sector_energy,
    "annulus-onset": annulus_onset,
    "stability-curves": stability_curves,
    "defect-oracle": defect_oracle,
}


def build(name: str, seed: int, ctx: Context) -> list[Task]:
    """The task table of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), ctx)
