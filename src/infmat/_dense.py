"""Dense numpy kernels: elimination, determinants, solves, products.

Elimination is hand-rolled (vectorized row updates) rather than deferred
to LAPACK so pivot thresholds stay explicit and sign tracking across row
swaps is visible to tests.

One sweep, :func:`_sweep`, eliminates for ``echelon``, ``null_vector``,
``gauss_solve`` (on ``[a | b]``) and ``lu_det``.  It confines each step
to the window that can still be nonzero.  The window comes from the
array: its band ``(bl, bu)`` is measured once from the nonzero pattern,
and partial pivoting keeps the pivot column nonzero only in the ``bl``
rows below the pivot and the pivot row only up to ``bl + bu`` columns
right of the pivot column (Golub & Van Loan, *Matrix Computations*, sec.
4.3).  Every update left out is ``x - f*0`` or ``x - 0*y``, so pivots,
signs and returned values are bit-identical to the full dense sweep; for
dense input the window is the whole matrix.  An update of that kind can
only turn a ``-0.0`` into ``+0.0``, so the sweep runs densely when its
input holds a negative zero.  ``lu_det`` runs the same arithmetic on
Python floats when the window is small (``_lu_det_narrow``).

``lu_det_shifts`` runs that arithmetic once for a whole grid of diagonal
shifts, with the shifts as the lanes of numpy arrays, as ``eig`` scans
its grid.  Each of its steps costs numpy's per-call overhead whatever the
number of lanes, so one value at a time (a bisection step, a ``det``
schedule) stays on ``_lu_det_narrow``.
"""

import math

import numpy as np

from .errors import SingularSystemError

# lu_det runs on Python floats when a step's update window, ``bl`` rows
# by ``bl + bu`` columns, has at most this many cells: below it numpy's
# per-call overhead costs more than the arithmetic
NARROW_WINDOW = 64


def norm_inf(a: np.ndarray) -> float:
    """Induced max-absolute-row-sum norm; 0 for an empty array."""
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.max(np.abs(a)))
    return float(np.max(np.sum(np.abs(a), axis=1)))


def _band(a: np.ndarray) -> tuple[int, int]:
    """Lower and upper bandwidth of the nonzero pattern of ``a``."""
    i, j = np.nonzero(a)
    if i.size == 0:
        return 0, 0
    offsets = j - i
    return max(0, -int(offsets.min())), max(0, int(offsets.max()))


def lu_det(a: np.ndarray) -> float:
    """Determinant via partially pivoted elimination, sign tracked on swaps."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    bl, bu = _band(a)
    if bl * (bl + bu) <= NARROW_WINDOW:
        return _lu_det_narrow(a, bl, bu)
    u, pivots, sign = _sweep(a, 0.0)
    # the pivots' product in column order; 0 when a column has none
    return sign * math.prod(np.diag(u)) if len(pivots) == n else 0.0


def _lu_det_narrow(a: np.ndarray, bl: int, bu: int) -> float:
    """:func:`lu_det` on Python floats, for bands whose window is small.

    Physical row ``i`` is a list covering columns ``start[i]`` to at least
    ``i + bl + bu``; a row pushed down by a swap is padded with the zeros
    it holds there.  The arithmetic is the windowed sweep's, entry by
    entry, without numpy's per-call overhead.
    """
    n = a.shape[0]
    cols = np.arange(n)[:, None] + np.arange(-bl, bl + bu + 1)
    inside = (cols >= 0) & (cols < n)
    rows = np.where(inside, a[np.arange(n)[:, None], cols.clip(0, n - 1)], 0.0).tolist()
    start = list(range(-bl, n - bl))
    sign = 1.0
    # a numpy scalar, as the numpy path returns: dividing by a determinant
    # that underflowed to 0 gives inf there, not ZeroDivisionError
    det = np.float64(1.0)
    for k in range(n):
        below = min(n, k + bl + 1)
        p, best = k, -1.0
        for i in range(k, below):
            v = abs(rows[i][k - start[i]])
            if v > best:
                p, best = i, v
        if best == 0.0:
            return 0.0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            start[k], start[p] = start[p], start[k]
            rows[p].extend([0.0] * (p - k))
            sign = -sign
        top, s0 = rows[k], start[k]
        pivot = top[k - s0]
        det *= pivot
        right = min(n, k + bl + bu + 1)
        for i in range(k + 1, below):
            row, si = rows[i], start[i]
            x = row[k - si]
            if x == 0.0:
                continue
            f = x / pivot
            for j in range(k + 1, right):
                row[j - si] -= f * top[j - s0]
    return sign * det


def lu_det_shifts(t: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``lu_det(t - x*I)`` for each shift ``x``, bit for bit.

    The diagonal is ``t_ii + -x``, as a shifted copy holds it.  A shift
    leaves the band of ``t`` as it is, since the band counts the diagonal
    anyway, so it is measured once.  For a narrow band, one elimination
    runs :func:`_lu_det_narrow`'s arithmetic with the shifts as lanes: a
    lane holds a sliding window of the ``bl + 1`` rows and ``bl + bu + 1``
    columns that step k can touch, takes the first row with the strictly
    largest ``|x|`` as pivot (never a NaN, unless all are), skips rows
    whose ``x`` is 0, and is 0.0 from a step whose best pivot is 0.  The
    cost per step is numpy's call overhead whatever the lane count, so
    this pays off for a grid of shifts, not for one value.  A wide band
    takes :func:`lu_det` once per shift.
    """
    t = np.asarray(t, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    n = t.shape[0]
    with np.errstate(all="ignore"):
        diag = np.diagonal(t) + -shifts[:, None]
    bl, bu = _band(t)
    if bl * (bl + bu) > NARROW_WINDOW:
        out = []
        for d in diag:
            a = np.array(t)
            a[np.diag_indices(n)] = d
            out.append(lu_det(a))
        return np.array(out, dtype=float)
    lanes, width = np.arange(shifts.size), bl + bu + 1
    # row i's entries in columns i - bl .. i + bu, the diagonal at bl
    cols = np.arange(n)[:, None] + np.arange(-bl, bu + 1)
    band = np.where((cols >= 0) & (cols < n), t[np.arange(n)[:, None], cols.clip(0, n - 1)], 0.0)

    # window[:, r, c] holds the entry (k + r, k + c) at step k
    window = np.zeros((shifts.size, bl + 1, width))

    def enter(r, i):
        """Row i into window row r, at step i - r <= 0 (the first rows)
        or i - bl (a row entering from below)."""
        window[:, r, :bu + r + 1] = band[i, bl - r:]
        window[:, r, r] = diag[:, i]

    for r in range(min(n, bl + 1)):
        enter(r, r)
    sign = np.ones(shifts.size)
    det = np.ones(shifts.size)
    dead = np.zeros(shifts.size, dtype=bool)
    with np.errstate(all="ignore"):  # lanes go on past a zero pivot, unread
        for k in range(n):
            m, right = min(bl + 1, n - k), min(width, n - k)
            if m > 1:
                mag = np.abs(window[:, :m, 0])
                mag[np.isnan(mag)] = -1.0
                p = np.argmax(mag, axis=1)
                dead |= mag[lanes, p] == 0.0
                top = window[lanes, p]
                window[lanes, p] = window[:, 0]
                window[:, 0] = top
                sign[p != 0] *= -1.0
            else:
                dead |= window[:, 0, 0] == 0.0
            pivot = window[:, 0, 0]
            det *= pivot
            if m > 1:
                x = window[:, 1:m, :1]
                rest = window[:, 1:m, 1:right]
                rest[...] = np.where(x == 0.0, rest, rest - x / pivot[:, None, None]
                                     * window[:, :1, 1:right])
            window[:, :-1, :-1] = window[:, 1:, 1:]
            window[:, :-1, -1] = 0.0
            if k + bl + 1 < n:
                enter(bl, k + bl + 1)
            else:
                window[:, -1] = 0.0
    return np.where(dead, 0.0, sign * det)


def _sweep(a: np.ndarray, pivot_tol: float) -> tuple[np.ndarray, list[int], float]:
    """Row echelon form of a copy of ``a`` by the windowed sweep.

    Returns the reduced array, the pivot column indices (0-based) and the
    sign of the row permutation.  Columns whose best remaining pivot is
    <= ``pivot_tol`` in magnitude are skipped.
    """
    u = np.array(a, dtype=float)
    rows, cols = u.shape
    if np.signbit(u[u == 0.0]).any():
        bl, bu = rows - 1, cols - 1
    else:
        bl, bu = _band(u)
    # rows below the current one are zero in every earlier pivot column, so
    # left of ``c`` the pivot row can be nonzero only from the first
    # skipped column on
    left = cols
    pivots = []
    sign = 1.0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = min(rows, c + bl + 1)
        p = r + int(np.argmax(np.abs(u[r:below, c])))
        if abs(u[p, c]) <= pivot_tol:
            left = min(left, c)
            continue
        if p != r:
            u[[r, p]] = u[[p, r]]
            sign = -sign
        if r + 1 < below:
            lo, hi = min(left, c), min(cols, c + bl + bu + 1)
            f = u[r + 1:below, c] / u[r, c]
            u[r + 1:below, lo:hi] -= np.outer(f, u[r, lo:hi])
            u[r + 1:below, c] = 0.0
        pivots.append(c)
        r += 1
    return u, pivots, sign


def echelon(a: np.ndarray, pivot_tol: float) -> tuple[np.ndarray, list[int]]:
    """Row echelon form with partial pivoting: the reduced array and the
    pivot column indices of :func:`_sweep`."""
    return _sweep(a, pivot_tol)[:2]


def rank_of_array(a: np.ndarray, pivot_tol: float) -> int:
    return len(echelon(a, pivot_tol)[1])


def null_vector(a: np.ndarray, pivot_tol: float) -> np.ndarray | None:
    """One null-space vector, or None if the array is full column rank.

    Convention: the first pivot-free column gets value 1, all later free
    columns 0; pivot variables come from back-substitution.
    """
    u, pivots = echelon(a, pivot_tol)
    cols = u.shape[1]
    pivot_set = set(pivots)
    free = next((c for c in range(cols) if c not in pivot_set), None)
    if free is None:
        return None
    v = np.zeros(cols)
    v[free] = 1.0
    for row in range(len(pivots) - 1, -1, -1):
        pc = pivots[row]
        s = float(u[row, pc + 1:] @ v[pc + 1:])
        v[pc] = -s / u[row, pc]
    return v


def gauss_solve(a: np.ndarray, b: np.ndarray, pivot_tol: float = 0.0) -> np.ndarray:
    """Solve a square system by elimination with partial pivoting.

    ``b`` holds one right-hand side, or several as the columns of a 2-d
    array; the solution has the shape of ``b``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("square system required")
    u, pivots, _ = _sweep(np.column_stack((a, b)), pivot_tol)
    missing = set(range(n)).difference(pivots)
    if missing:
        raise SingularSystemError(f"no pivot above {pivot_tol} at column {min(missing) + 1}")
    x = np.zeros((u.shape[1] - n, n))  # one contiguous row per right-hand side
    for c, row in enumerate(x):
        for k in range(n - 1, -1, -1):
            row[k] = (u[k, n + c] - float(u[k, k + 1:n] @ row[k + 1:])) / u[k, k]
    return x.T.reshape(b.shape)


def product_ascending(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product accumulated strictly in ascending inner index order.

    Matches a naive triple loop bit for bit, which keeps lazy-entry and
    dense code paths byte-deterministic with each other.
    """
    m, inner = a.shape
    inner2, n = b.shape
    if inner != inner2:
        raise ValueError("inner dimensions differ")
    out = np.zeros((m, n))
    for l in range(inner):
        out += np.outer(a[:, l], b[l, :])
    return out
