"""Linear regression by gradient descent on PIM matrices.

Uses the MatPIM-style :class:`repro.pim.linalg.Matrix` layer: the design
matrix lives column-major in the memory, and every gradient step is
matrix-vector products plus vectored float arithmetic executed in-memory.
The two model weights are host scalars — the hybrid CPU-PIM split of
Section V-A.

Run with::

    python examples/linear_regression.py

See the README quickstart (``README.md``) for the tensor-API basics;
every gradient step re-issues the same macro-instructions, so all but
the first iteration replay compiled programs (``docs/architecture.md``).
The naive form of this math (recomputing the residual expression per
gradient term) is the workload ``tests/paper/test_graph_opt.py`` uses to
demonstrate the graph optimizer: ``pim.compile(opt_level=2)`` removes
the recomputation while staying bit-identical to eager execution.
"""

import os

import numpy as np

import repro.pim as pim
from repro.pim.linalg import Matrix, dot

#: CI knob: shrink the workload so every example finishes fast.
FAST = os.environ.get("REPRO_EXAMPLES_FAST", "") not in ("", "0")

STEPS = 40 if FAST else 60
LEARNING_RATE = 0.3 if FAST else 0.15


def main() -> None:
    pim.init(crossbars=4 if FAST else 16, rows=64 if FAST else 256)
    rng = np.random.default_rng(3)
    n = 128 if FAST else 512

    # y = 1.7 x + 0.6 + noise; design matrix columns [x, 1].
    x_h = rng.uniform(-1, 1, n).astype(np.float32)
    y_h = (1.7 * x_h + 0.6 + rng.normal(scale=0.05, size=n)).astype(np.float32)

    design = Matrix.from_numpy(np.stack([x_h, np.ones(n, np.float32)], axis=1))
    x_col = design.column(0)
    y = pim.from_numpy(y_h)

    slope, intercept = 0.0, 0.0
    with pim.Profiler() as prof:
        for _ in range(STEPS):
            predictions = design.matvec([slope, intercept])
            residual = predictions - y
            grad_slope = 2.0 * dot(residual, x_col) / n
            grad_intercept = 2.0 * residual.sum() / n
            slope -= LEARNING_RATE * grad_slope
            intercept -= LEARNING_RATE * grad_intercept

    # Reference: closed-form least squares on the host.
    a = np.stack([x_h, np.ones(n, np.float32)], axis=1).astype(np.float64)
    ref_slope, ref_intercept = np.linalg.lstsq(a, y_h.astype(np.float64),
                                               rcond=None)[0]

    print(f"samples: {n}, gradient steps: {STEPS}")
    print(f"PIM fit:        slope={slope:+.4f}  intercept={intercept:+.4f}")
    print(f"least squares:  slope={ref_slope:+.4f}  intercept={ref_intercept:+.4f}")
    print(f"PIM cycles: {prof.cycles}")
    assert abs(slope - ref_slope) < 0.02
    assert abs(intercept - ref_intercept) < 0.02
    print("OK — gradient descent on PIM converged to the least-squares fit.")


if __name__ == "__main__":
    main()
