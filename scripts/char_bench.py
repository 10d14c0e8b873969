#!/usr/bin/env python3
"""Kernel timing on banded sections against the section size n: the
characteristic values of ``eig``'s grid scan, and the echelon form that
``rank`` and ``eig``'s eigenvectors take.

The sections are banded, with bandwidths (0, 0), (1, 1) and (2, 2): the
diagonal ``1/i`` of ``specs/harmonic_diag.json`` plus seeded off-diagonal
entries.

Characteristic values ``det(T_n - x I)``: the grid is ``GRID`` points over
``INTERVAL``, and each grid is evaluated two ways:

* scalar loop: ``spectral.char_value(t, x, policy, band)`` at one grid
  point after another, which is what each bisection step calls;
* batched grid: ``spectral._grid_values``, one elimination whose lanes
  are the grid points, as ``find_eigenvalues`` scans its grid.

Both are passed the section's band, as a banded spec's sections are.

Echelon form, with ``rank``'s pivot tolerance (``1e-10`` times the
section's norm), two ways:

* numpy sweep: ``_dense._sweep``, the windowed sweep in numpy, which
  wide bands take;
* band sweep: ``_dense.echelon`` with the section's band passed, as a
  banded spec's sections reach it: the Python-float sweep.

Each line gives the fastest of ``REPEAT`` runs, and for characteristic
values the microseconds per value.  Both ways of each table must give the
same values (the reduced array and its pivot columns, for echelon) bit for
bit; the script exits with status 1 if they do not.

    python scripts/char_bench.py
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# from src/, put on the path above
from infmat._dense import _sweep, echelon, norm_inf  # noqa: E402
from infmat.inverse_solve import RANK_PIVOT_SCALE  # noqa: E402
from infmat.series import ConvergencePolicy  # noqa: E402
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


def scalar_loop(t, xs, policy, band):
    return [char_value(t, x, policy, band) for x in xs]


def batched_grid(t, xs, policy, band):
    return _grid_values(t, xs, policy, band)


WAYS = (("scalar loop", scalar_loop), ("batched grid", batched_grid))


def numpy_sweep(t, band, tol):
    return _sweep(t, tol)[:2]


def band_sweep(t, band, tol):
    return echelon(t, tol, (band, band))


ECHELON_WAYS = (("numpy sweep", numpy_sweep), ("band sweep", band_sweep))


def _fastest(run, repeat):
    """The fastest of ``repeat`` runs of ``run()``, and its last result."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def measure(sizes=SIZES, bands=BANDS, grid=GRID, repeat=REPEAT):
    """``(n, band, way, seconds, values)`` per size, band and way: the
    fastest of ``repeat`` runs."""
    xs = np.linspace(*INTERVAL, grid)
    out = []
    for n in sizes:
        for band in bands:
            t = section(n, band)
            for name, way in WAYS:
                best, values = _fastest(lambda: way(t, xs, POLICY, (band, band)), repeat)
                out.append((n, band, name, best, np.array(values, dtype=float)))
    return out


def measure_echelon(sizes=SIZES, bands=BANDS, repeat=REPEAT):
    """``(n, band, way, seconds, (u, pivots))`` per size, band and way: the
    fastest of ``repeat`` runs."""
    out = []
    for n in sizes:
        for band in bands:
            t = section(n, band)
            tol = RANK_PIVOT_SCALE * norm_inf(t)
            for name, way in ECHELON_WAYS:
                best, result = _fastest(lambda: way(t, band, tol), repeat)
                out.append((n, band, name, best, result))
    return out


def _same(a, b) -> bool:
    """Bit for bit: values, or an echelon form's array and pivots."""
    if isinstance(a, tuple):
        return a[1] == b[1] and _same(a[0], b[0])
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def main():
    differ = 0
    print(f"{'n':>5} {'band':>6} {'way':<13} {'values':>6} {'seconds':>9} {'us/value':>9}  bits")
    for n, band, name, seconds, values in measure():
        if name == WAYS[0][0]:
            want = values
        same = _same(values, want)
        differ += not same
        print(f"{n:>5} {f'({band},{band})':>6} {name:<13} {values.size:>6} {seconds:>9.4f} "
              f"{1e6 * seconds / values.size:>9.1f}  {'identical' if same else 'DIFFER'}")
    print(f"{'n':>5} {'band':>6} {'echelon':<13} {'rank':>6} {'seconds':>9} {'':>9}  bits")
    for n, band, name, seconds, result in measure_echelon():
        if name == ECHELON_WAYS[0][0]:
            want = result
        same = _same(result, want)
        differ += not same
        print(f"{n:>5} {f'({band},{band})':>6} {name:<13} {len(result[1]):>6} {seconds:>9.4f} "
              f"{'':>9}  {'identical' if same else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
