"""Set-up probe: a fresh process that imports fracctrl and makes one small
warm-up call of each entry point a workload uses.

    python3 perfbench/probe.py <workload>

Prints one JSON line ``{"import_s": ...}``.  The harness times the whole
process from spawn to exit as the workload's set-up time; the harness process
itself calls ``warm_up`` before it starts timing operations.  This module
imports nothing heavier than fracctrl and numpy, so the probe measures the
package and not the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (alpha, beta) keys whose reciprocal-gamma tables ``warm_up`` builds
WARMUP_KEYS = ((0.5, 1.0), (1.0, 1.0), (1.0, 0.5))


def import_fracctrl():
    """Import fracctrl from the checkout's ``src`` (never from elsewhere)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fracctrl

    if not os.path.abspath(fracctrl.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fracctrl imported from {fracctrl.__file__}, not {SRC}")
    return fracctrl


def warm_up(workload: str) -> None:
    """One small call of each entry point the workload uses."""
    import numpy as np

    fc = import_fracctrl()
    if workload == "cli-cold":
        import fracctrl.cli  # noqa: F401  (the CLI pays only its import)
        return
    chain = fc.FracSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), alpha=0.5)
    grid = fc.TimeGrid(0.0, 1.0, 64)
    prob = fc.SteeringProblem(chain, np.array([1.0, 0.0]), np.zeros(2), 1.0, grid)
    if workload == "steer-closedform":
        for synth in (fc.synthesize_min_energy, fc.synthesize_pinv):
            fc.verify_steering(prob, synth(prob))
    elif workload == "kernel-eval":
        fc.ml_scalar(fc.MLParams(0.5, 1.0), -1.0)
        fc.frac_sin(0.5, 1.0)
        fc.frac_cos(0.5, 1.0)
        fc.ml_matrix_batch(np.eye(2), 0.5, 0.5, np.linspace(0.0, 1.0, 9))
        u = fc.GridFunction(fc.TimeGrid(0.0, 1.0, 16), np.ones(17))
        fc.singular_convolution(lambda s: fc.ml_matrix_batch(
            np.array([[-1.0]]), 0.5, 0.5, np.asarray([s]))[0], 0.5, u, 1.0)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv) -> int:
    t0 = time.perf_counter()
    import_fracctrl()
    if argv[0] == "cli-cold":
        import fracctrl.cli  # noqa: F401
    t_import = time.perf_counter() - t0
    warm_up(argv[0])
    print(json.dumps({"import_s": t_import}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
