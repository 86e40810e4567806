"""Span tracer that wraps the package's public functions from outside.

Nothing in ``src/`` is edited: :class:`Tracer` replaces module attributes
with timing wrappers while it is installed and puts the originals back when
it is removed.  A function is wrapped at every package module that binds
it (``ldg.min_eigenvalue`` is the same object as
``numerics.min_eigenvalue`` and records under the defining module's name),
and the scipy kernels the package calls are wrapped through their module
attributes, so a later ``from scipy... import`` inside the package is
caught as well.

Each wrapped call records one span: name, start, end, parent span and the
id of the benchmark task that was running.  Spans stay in memory until the
run ends.  Self time is a span's duration minus the time covered by its
direct children (calls are single-threaded, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

PACKAGE = "annulus_nematics"
MODULES = ("numerics", "of_strong", "of_weak", "harmonic", "pde", "ldg",
           "cli", "svgplot")

# scipy entry points grouped into one span name each
LINEAR_SOLVES = ("spsolve", "splu", "spilu", "gmres", "lgmres", "bicgstab",
                 "cg", "minres")
EIGEN_SOLVES = ("eigvalsh", "eigh", "eig_banded", "eigvals_banded",
                "eigh_tridiagonal", "eigvalsh_tridiagonal")
DENSE_EIGEN = ("eigvalsh", "eigh")

# called so often that a span per call would dominate the trace; counted only
COUNT_ONLY = {"of_weak.compat_residual"}

# spans reported with .calls/.s/.self_s, grouped by layer
TIMED = (
    "pde.linear_solve", "pde.solve_el", "pde.of_energy_2d",
    "pde.stability_probe", "pde.bifurcation_scan",
    "pde.anisotropic_state_energy",
    "harmonic.director_gradient", "harmonic.energy_quadrature_oracle",
    "harmonic.normalized_energy", "harmonic.director",
    "numerics.eig", "numerics.min_eigenvalue", "numerics.solve_bvp",
    "numerics.find_root", "numerics.integrate_singular",
    "ldg.min_eig_Ln", "ldg.solve_s", "ldg.solve_u", "ldg.check_propositions",
    "of_strong.spiral_solve", "of_strong.spiral_energy",
    "of_weak.delta_weak", "of_weak.weak_pitchfork_coeffs",
    "svgplot.line_plot", "svgplot.director_plot",
)
CLI_COMMANDS = ("stability-strong", "stability-weak", "spiral",
                "defect-states", "bifurcation", "ldg-profile",
                "ldg-stability")
# counters reported beside the timed spans; "computed" ones are derived
# from argument sizes, not measured
COUNTERS = (
    "pde.solve_el.newton_iters", "pde.solve_el.damping_events",
    "pde.solve_el.failed", "pde.solve_el.unknowns_max",
    "pde.jacobian_nnz_computed",
    "harmonic.director_gradient.points", "harmonic.director.points",
    "numerics.eig.dim_max", "numerics.eig.flops_computed",
    "numerics.bvp_newton_iters", "of_weak.compat_residual.calls",
    "cli.bytes_written",
)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for span in TIMED:
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    for cmd in CLI_COMMANDS:
        span = f"cli.{cmd}"
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    names += list(COUNTERS)
    names += ["pde.solve_el.accept_ratio", "of_weak.root_yield", "cli.self_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "1"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def active_mask(grid, bc) -> np.ndarray:
    """Unknown nodes of ``pde.solve_el``, rebuilt from its documented rules."""
    active = np.ones((grid.nr, grid.nphi), dtype=bool)
    if bc.kind == "dirichlet":
        active[0, :] = False
        active[-1, :] = False
    if not grid.periodic:
        active[:, 0] = False
        active[:, -1] = False
    if bc.pin_mask is not None:
        active &= ~bc.pin_mask
    return active


def stencil_nnz(active: np.ndarray, periodic: bool) -> int:
    """Jacobian nonzeros of a 9-point stencil restricted to the unknowns."""
    a = active.astype(np.int64)
    padded = np.pad(a, ((1, 1), (0, 0)))
    if periodic:
        padded = np.concatenate([padded[:, -1:], padded, padded[:, :1]], axis=1)
    else:
        padded = np.pad(padded, ((0, 0), (1, 1)))
    nr, nphi = a.shape
    neighbours = sum(padded[1 + di:1 + di + nr, 1 + dj:1 + dj + nphi]
                     for di in (-1, 0, 1) for dj in (-1, 0, 1))
    return int(np.sum(neighbours[active]))


class Tracer:
    """Installs timing wrappers and accumulates spans and counters."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, task]
        self._stack: list[int] = []
        self.task_id = None
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``observe(args, kwargs, result, exc)`` runs after the call to update
        counters; it sees the exception when the call raised.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.task_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            span[2] = time.perf_counter()
            tracer._stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters taken at the wrapped boundaries --------------------------

    def _observe_solve_el(self, args, kwargs, result, exc):
        c = self.counters
        grid = args[0] if args else kwargs["grid"]
        bc = args[2] if len(args) > 2 else kwargs["bc"]
        active = active_mask(grid, bc)
        c["pde.solve_el.unknowns_max"] = max(c["pde.solve_el.unknowns_max"],
                                             int(active.sum()))
        if exc is None:
            report = result[1]
        else:
            c["pde.solve_el.failed"] += 1
            history = getattr(exc, "history", None) or [None]
            report = history[0]
        iters = getattr(report, "iterations", 0)
        c["pde.solve_el.newton_iters"] += iters
        c["pde.solve_el.damping_events"] += getattr(report, "damping_events", 0)
        c["pde.jacobian_nnz_computed"] += iters * stencil_nnz(active, grid.periodic)

    def _observe_points(self, counter):
        def observe(args, kwargs, result, exc):
            r = args[2] if len(args) > 2 else kwargs["r"]
            phi = args[3] if len(args) > 3 else kwargs["phi"]
            self.counters[counter] += np.broadcast(np.asarray(r),
                                                   np.asarray(phi)).size
        return observe

    def _observe_eig(self, dense: bool):
        def observe(args, kwargs, result, exc):
            a = np.asarray(args[0] if args else next(iter(kwargs.values())))
            n = a.shape[-1]     # dense, band storage and diagonal alike
            c = self.counters
            c["numerics.eig.dim_max"] = max(c["numerics.eig.dim_max"], n)
            if dense:
                c["numerics.eig.flops_computed"] += 4.0 / 3.0 * n ** 3
        return observe

    def _observe_delta_weak(self, args, kwargs, result, exc):
        if exc is None and result is not None:
            self.counters["_roots_returned"] += 1

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, invoke_cli=None):
        """Wrap the package and its scipy kernels; returns the wrapped CLI
        invoker when one is given (its span is the ``cli`` self time of
        parsing and dispatch)."""
        import scipy.linalg
        import scipy.sparse.linalg

        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        replacement = {}   # id(original) -> wrapper

        def add(original, wrapper):
            replacement[id(original)] = (original, wrapper)

        for attr in LINEAR_SOLVES:
            fn = getattr(scipy.sparse.linalg, attr, None)
            if fn is not None:
                add(fn, self.wrap("pde.linear_solve", fn))
        for attr in EIGEN_SOLVES:
            fn = getattr(scipy.linalg, attr, None)
            if fn is not None:
                add(fn, self.wrap("numerics.eig", fn,
                                  self._observe_eig(attr in DENSE_EIGEN)))
        add(scipy.linalg.solve_banded,
            self.count("numerics.bvp_newton_iters", scipy.linalg.solve_banded))

        observers = {
            "pde.solve_el": self._observe_solve_el,
            "harmonic.director_gradient":
                self._observe_points("harmonic.director_gradient.points"),
            "harmonic.director": self._observe_points("harmonic.director.points"),
            "of_weak.delta_weak": self._observe_delta_weak,
        }
        for mod in mods.values():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith(PACKAGE + ".")
                        or id(fn) in replacement):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if name in COUNT_ONLY:
                    add(fn, self.count(f"{name}.calls", fn))
                else:
                    add(fn, self.wrap(name, fn, observers.get(name)))

        for owner in (scipy.sparse.linalg, scipy.linalg, *mods.values()):
            for attr, value in list(vars(owner).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(owner, attr, hit[1])

        for cmd_name, cmd in mods["cli"].main.commands.items():
            self._set(cmd, "callback", self.wrap(f"cli.{cmd_name}", cmd.callback))
        if invoke_cli is not None:
            return self.wrap("cli.main", invoke_cli)
        return None

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def totals(self):
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, self_s in zip(self.spans, self.self_times()):
            agg = out[span[0]]
            agg[0] += 1
            agg[1] += span[2] - span[1]
            agg[2] += self_s
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics averaged over ``passes`` repetitions of a table.

        Maxima (``*_max``) are not divided.
        """
        totals = self.totals()
        values: dict[str, float] = {}
        for span in TIMED + tuple(f"cli.{c}" for c in CLI_COMMANDS):
            calls, total, self_s = totals.get(span, (0, 0.0, 0.0))
            values[f"{span}.calls"] = calls / passes
            values[f"{span}.s"] = total / passes
            values[f"{span}.self_s"] = self_s / passes
        for name in COUNTERS:
            v = self.counters.get(name, 0.0)
            values[name] = v if name.endswith("_max") else v / passes
        solves = totals.get("pde.solve_el", (0, 0.0, 0.0))[0]
        failed = self.counters.get("pde.solve_el.failed", 0.0)
        values["pde.solve_el.accept_ratio"] = \
            (solves - failed) / solves if solves else 0.0
        residuals = self.counters.get("of_weak.compat_residual.calls", 0.0)
        values["of_weak.root_yield"] = \
            self.counters.get("_roots_returned", 0.0) / residuals \
            if residuals else 0.0
        values["cli.self_s"] = sum(agg[2] for name, agg in totals.items()
                                   if name.startswith("cli.")) / passes
        return {name: values[name] for name in metric_names()}

    def layer_shares(self) -> dict[str, float]:
        """Share of all traced self time per span name, largest first."""
        totals = self.totals()
        whole = sum(agg[2] for agg in totals.values()) or math.inf
        shares = {name: agg[2] / whole for name, agg in totals.items()}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "task": t}
                for n, s, e, p, t in self.spans]
