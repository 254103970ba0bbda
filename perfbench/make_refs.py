"""Generate the benchmark's HIRES reference solution with scipy's Radau.

Run from the repository root:

    python3 perfbench/make_refs.py

The problem is written out here from the literature (Hairer & Wanner,
*Solving Ordinary Differential Equations II*; Mazzia & Magherini, *Test Set
for IVP Solvers*), not imported from ``rpnn_ode``, so the reference does not
depend on the program it checks.  It is integrated once with Radau IIA at
rtol = atol = 1e-12, and once more at 1e-13 to estimate the reference's own
error.  Values are stored on the check grid: a fixed subset of the
equidistant metric grid the benchmark evaluates on.  The end state is
cross-checked against the published test-set values.

scipy is needed only here.  The benchmark itself loads the ``.npz`` file this
writes and never imports scipy.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import scipy
from scipy.integrate import solve_ivp

REF_DIR = pathlib.Path(__file__).resolve().parent / "refs"
RTOL = 1e-12
CHECK_POINTS = 2001

# HIRES at x = 321.8122, Mazzia & Magherini, Test Set for IVP Solvers (release 2.4).
HIRES_END_PUBLISHED = np.array([
    0.7371312573325668e-3,
    0.1442485726316185e-3,
    0.5888729740967575e-4,
    0.1175651343283149e-2,
    0.2386356198831331e-2,
    0.6238968252742796e-2,
    0.2849998395185769e-2,
    0.2850001604814231e-2,
])


def hires_rhs(x, y):
    y1, y2, y3, y4, y5, y6, y7, y8 = y
    r = 280.0 * y6 * y8
    return np.array([
        -1.71 * y1 + 0.43 * y2 + 8.32 * y3 + 0.0007,
        1.71 * y1 - 8.75 * y2,
        -10.03 * y3 + 0.43 * y4 + 0.035 * y5,
        8.32 * y2 + 1.71 * y3 - 1.12 * y4,
        -1.745 * y5 + 0.43 * y6 + 0.43 * y7,
        -r + 0.69 * y4 + 1.71 * y5 - 0.43 * y6 + 0.69 * y7,
        r - 1.81 * y7,
        -r + 1.81 * y7,
    ])


def hires_jac(x, y):
    y6, y8 = y[5], y[7]
    return np.array([
        [-1.71, 0.43, 8.32, 0, 0, 0, 0, 0],
        [1.71, -8.75, 0, 0, 0, 0, 0, 0],
        [0, 0, -10.03, 0.43, 0.035, 0, 0, 0],
        [0, 8.32, 1.71, -1.12, 0, 0, 0, 0],
        [0, 0, 0, 0, -1.745, 0.43, 0.43, 0],
        [0, 0, 0, 0.69, 1.71, -280.0 * y8 - 0.43, 0.69, -280.0 * y6],
        [0, 0, 0, 0, 0, 280.0 * y8, -1.81, 280.0 * y6],
        [0, 0, 0, 0, 0, -280.0 * y8, 1.81, -280.0 * y6],
    ], dtype=float)


X0, X_END = 0.0, 321.8122
ALPHA = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0057]
GRID_SIZE = 150_000  # the metric grid the benchmark evaluates on


def radau(xs, tol):
    out = solve_ivp(hires_rhs, (X0, X_END), ALPHA, method="Radau", t_eval=xs,
                    rtol=tol, atol=tol, jac=hires_jac)
    if not out.success:
        raise RuntimeError(f"Radau failed: {out.message}")
    return out.y.T


def main() -> int:
    # CHECK_POINTS indices spread evenly over the metric grid, both ends included
    idx = np.unique(np.linspace(0, GRID_SIZE - 1, CHECK_POINTS).round().astype(np.int64))
    xs = np.linspace(X0, X_END, GRID_SIZE)[idx]
    values = radau(xs, RTOL)
    est_error = float(np.abs(values - radau(xs, RTOL / 10)).max())
    rel = np.abs(values[-1] - HIRES_END_PUBLISHED) / np.abs(HIRES_END_PUBLISHED)
    print(f"hires: {len(xs)} check points, Radau {RTOL:g} vs {RTOL / 10:g} max difference "
          f"{est_error:.2e}; end state vs published values, max relative difference "
          f"{rel.max():.2e}")
    if rel.max() > 1e-8:
        print("HIRES end state disagrees with the published values", file=sys.stderr)
        return 1
    REF_DIR.mkdir(exist_ok=True)
    np.savez(
        REF_DIR / "hires.npz",
        x0=X0, x_end=X_END, alpha=np.array(ALPHA), grid_size=GRID_SIZE,
        check_index=idx, check_x=xs, values=values, rtol=RTOL, est_error=est_error,
    )
    print(f"scipy {scipy.__version__}, numpy {np.__version__}; wrote {REF_DIR / 'hires.npz'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
