"""Set-up work of one CLI invocation, timed from outside by ``run.py``.

    python3 bench/setup_probe.py <workload> <seed>

Imports the package and its CLI into a fresh interpreter and draws the
workload's task table, then exits.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import annulus_nematics.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), workloads.Context(HERE))
