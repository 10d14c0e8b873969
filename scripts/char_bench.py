#!/usr/bin/env python3
"""Kernel timing of ``eig``'s grid scan: microseconds per characteristic
value ``det(T_n - x I)``, two ways, against the section size n.

The sections are banded, with bandwidths (0, 0), (1, 1) and (2, 2): the
diagonal ``1/i`` of ``specs/harmonic_diag.json`` plus seeded off-diagonal
entries.  The grid is ``GRID`` points over ``INTERVAL``, where no
diagonal admits the log series, so every value is an elimination.  Each
grid is evaluated two ways:

* scalar loop: ``spectral.char_value(t, x, policy)`` at one grid point
  after another, which is what each bisection step calls;
* batched grid: ``spectral._grid_values``, one elimination whose lanes
  are the grid points, as ``find_eigenvalues`` scans its grid.

Each line gives the fastest of ``REPEAT`` runs and the microseconds per
value.  Both ways must give the same values bit for bit; the script
exits with status 1 if they do not.

    python scripts/char_bench.py
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from infmat.series import ConvergencePolicy  # noqa: E402  (from src/, put on the path above)
from infmat.spectral import _grid_values, char_value  # noqa: E402

SIZES = (128, 512, 1024)
BANDS = (0, 1, 2)          # bl = bu
GRID = 64                  # eig's grid in the banded-spectral workload
INTERVAL = (0.4, 0.6)
POLICY = ConvergencePolicy()
REPEAT = 3


def section(n: int, band: int) -> np.ndarray:
    """The n-by-n section: diagonal 1/i, seeded entries on the other
    diagonals of the band."""
    rng = np.random.default_rng([n, band])
    i, j = np.indices((n, n))
    t = np.where(np.abs(i - j) <= band, rng.uniform(-0.5, 0.5, (n, n)), 0.0)
    t[np.diag_indices(n)] = 1.0 / np.arange(1, n + 1)
    return t


def scalar_loop(t, xs, policy):
    return [char_value(t, x, policy) for x in xs]


def batched_grid(t, xs, policy):
    return _grid_values(t, xs, policy)


WAYS = (("scalar loop", scalar_loop), ("batched grid", batched_grid))


def measure(sizes=SIZES, bands=BANDS, grid=GRID, repeat=REPEAT):
    """``(n, band, way, seconds, values)`` per size, band and way: the
    fastest of ``repeat`` runs."""
    xs = np.linspace(*INTERVAL, grid)
    out = []
    for n in sizes:
        for band in bands:
            t = section(n, band)
            for name, way in WAYS:
                best = None
                for _ in range(repeat):
                    start = time.perf_counter()
                    values = way(t, xs, POLICY)
                    elapsed = time.perf_counter() - start
                    best = elapsed if best is None else min(best, elapsed)
                out.append((n, band, name, best, np.array(values, dtype=float)))
    return out


def main():
    rows = measure()
    print(f"{'n':>5} {'band':>6} {'way':<13} {'values':>6} {'seconds':>9} {'us/value':>9}  bits")
    differ = 0
    want = None
    for n, band, name, seconds, values in rows:
        if name == WAYS[0][0]:
            want = values.view(np.int64)
        same = np.array_equal(values.view(np.int64), want)
        differ += not same
        print(f"{n:>5} {f'({band},{band})':>6} {name:<13} {values.size:>6} {seconds:>9.4f} "
              f"{1e6 * seconds / values.size:>9.1f}  {'identical' if same else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
