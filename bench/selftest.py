"""Self-test of the trace wiring.

    python3 bench/selftest.py

Runs every workload once through ``run.py --trace 1`` (seed 1, one pass each,
about a minute in all) and asserts two things: each per-layer metric
records at least one call on every workload meant to exercise it, and the
layers predicted absent (``pde.*`` on stability-curves and defect-oracle)
record none.  Exits 1 and names each unmet expectation.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SECTOR, ONSET = "sector-energy", "annulus-onset"
CURVES, ORACLE = "stability-curves", "defect-oracle"

# metric (a span's ".calls" or a counter) -> workloads meant to exercise it
EXERCISED = {
    "pde.linear_solve": (SECTOR, ONSET),
    "pde.solve_el": (SECTOR, ONSET),
    "pde.of_energy_2d": (SECTOR,),
    "pde.stability_probe": (ONSET,),
    "pde.bifurcation_scan": (ONSET,),
    "pde.anisotropic_state_energy": (SECTOR,),
    "harmonic.director_gradient": (ORACLE,),
    "harmonic.energy_quadrature_oracle": (ORACLE,),
    "harmonic.normalized_energy": (ORACLE,),
    "harmonic.director": (SECTOR,),
    "numerics.eig": (CURVES, ONSET),
    "numerics.min_eigenvalue": (CURVES, ONSET),
    "numerics.solve_bvp": (CURVES,),
    "numerics.find_root": (CURVES, ONSET),
    "numerics.integrate_singular": (CURVES,),
    "ldg.min_eig_Ln": (CURVES,),
    "ldg.solve_s": (CURVES,),
    "ldg.solve_u": (CURVES,),
    "ldg.check_propositions": (CURVES,),
    "of_strong.spiral_solve": (CURVES, ONSET),
    "of_strong.spiral_energy": (CURVES,),
    "of_weak.delta_weak": (CURVES,),
    "of_weak.weak_pitchfork_coeffs": (CURVES,),
    "svgplot.line_plot": (CURVES,),
    "svgplot.director_plot": (CURVES,),
    "cli.stability-strong": (CURVES,),
    "cli.stability-weak": (CURVES,),
    "cli.spiral": (CURVES,),
    "cli.defect-states": (CURVES,),
    "cli.ldg-profile": (CURVES,),
    "cli.ldg-stability": (CURVES,),
    "cli.bifurcation": (ONSET,),
    "pde.solve_el.newton_iters": (SECTOR, ONSET),
    "pde.solve_el.unknowns_max": (SECTOR, ONSET),
    "pde.jacobian_nnz_computed": (SECTOR, ONSET),
    "harmonic.director_gradient.points": (ORACLE,),
    "harmonic.director.points": (SECTOR,),
    "numerics.eig.dim_max": (CURVES, ONSET),
    "numerics.eig.flops_computed": (CURVES, ONSET),
    "numerics.bvp_newton_iters": (CURVES,),
    "of_weak.compat_residual.calls": (CURVES,),
    "cli.bytes_written": (CURVES, ONSET),
}
# workload -> metric prefix that must record nothing there
BYPASSED = {CURVES: "pde.", ORACLE: "pde."}


def traced_metrics(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    problems = []
    for workload in (SECTOR, ONSET, CURVES, ORACLE):
        values = traced_metrics(workload, 1)
        for name, exercised_by in EXERCISED.items():
            key = name if name in values else f"{name}.calls"
            if key not in values:
                problems.append(f"{name}: not reported")
            elif workload in exercised_by and not values[key] > 0:
                problems.append(f"{key}: no calls on {workload}")
        prefix = BYPASSED.get(workload)
        for name, value in values.items():
            if prefix and name.startswith(prefix) and value != 0:
                problems.append(f"{name} = {value} on {workload}, "
                                f"predicted to bypass {prefix}*")
        print(f"{workload}: checked {len(values)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
