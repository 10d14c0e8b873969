"""Dense numpy kernels: elimination, determinants, solves, products.

Elimination is hand-rolled rather than deferred to LAPACK so pivot
thresholds stay explicit and sign tracking across row swaps is visible
to tests.

A matrix reaches the elimination kernels as an array, or as band rows
(:class:`Band`): row i of an ``n x (bl + bu + 1)`` array holds its
columns ``i - bl`` to ``i + bu``, in the layout of LAPACK's ``dgbtrf`` by
rows (Golub & Van Loan, *Matrix Computations*, sec. 4.3).  The sections
of a spec that declares a bandwidth come as band rows; an array's band
is measured once from its nonzero pattern.

A matrix is eliminated once, by :func:`factor`, a sweep by partial
pivoting, and the kernels read the :class:`Factor` it returns: its pivot
count is the rank, ``lu_det`` the product of its pivots, ``echelon`` its
reduced rows, and ``null_vector`` and ``gauss_solve`` (on ``[a | b]``)
one back-substitution against its rows.  Each step updates the rows
below the pivot from the pivot column rightwards, as LAPACK's ``dgetf2``
does: no reader looks left of it, so a column without a pivot keeps the
values it held when it was skipped.  The sweep confines each step to the
window that can still be nonzero, which comes from the band ``(bl,
bu)``.  Partial pivoting keeps the pivot column nonzero only in the
``bl`` rows below the pivot and the pivot row only up to ``bl + bu``
columns right of the pivot column.  Every update left out is ``x - f*0``
or ``x - 0*y``, so the pivots, signs and returned values of a sweep that
updates column by column are bit-identical to the full dense sweep, for
any band at least as wide as the true one, while no multiplier or update
overflows: ``x - inf*0`` is NaN, so past an overflow the window can give
±inf where the full sweep gives NaN.  A sweep that also updated the
columns left of the pivot would give the same pivots, signs,
determinants, null vectors and solutions, and the same reduced rows
except in the columns without a pivot.  For dense input the window is
the whole matrix.  A finite update can only turn a ``-0.0`` into
``+0.0``, so a sweep that returns its reduced array runs densely when a
cell of the band (every cell, for a measured band) holds a negative
zero; a determinant does not depend on the signs of zeros, so ``lu_det``
skips that check.

A narrow window, at most :data:`NARROW_WINDOW` cells per step, is swept
on Python floats, one list per row, filled from the band cells
(:func:`_sweep_rows`), and a wider one in numpy on the array
(:func:`_sweep`).  Both do the same arithmetic entry by entry.  So there
is one narrow path, whether the matrix came as an array or as band rows,
and only a wide band is ever made an array.

A band that reaches :data:`PANEL` rows below the diagonal is swept in
panels of ``PANEL`` columns (Golub & Van Loan, sec. 3.2.11; LAPACK's
``dgetrf``).  The columns of a panel are swept as above, one pivot at a
time under the same threshold.  The columns right of it then take the
panel's eliminations at once: a forward substitution of the pivot rows
against the panel's multipliers, and one matrix product for the rows
below.  A product sums in another order than the column-by-column
updates, so a panelled sweep's values differ from the dense sweep's in
the last bits, and a pivot can differ where two candidates or a
candidate and the threshold are that close.  On a dense 1024² section it
is several times faster, and its determinant is closer to the exact
one, as an entry takes about ``n / PANEL`` roundings rather than ``n``.
The bits of the dense sweep are kept where the sweep has one panel: an
array at most ``PANEL`` columns wide, a measured band narrower than a
panel (the Python-float sweep and the windowed numpy one), and a window
widened to the whole array only because a cell holds -0.0.

``lu_det_shifts`` runs that arithmetic once for a whole grid of diagonal
shifts of a narrow band, with the shifts as the last axis of numpy
arrays, as ``eig`` scans its grid.  Each step costs numpy's per-call
overhead whatever the number of lanes, so one value at a time (a step of
``eig``'s root refinement, a ``det`` schedule) stays on the Python-float
sweep.  The refinement (ITP, ``spectral._refine``) makes few of them: it
interpolates between the values at its bracket's ends until the bracket
is at most 1e-10 wide, holds no float between its ends or meets an
exact 0, in at most one value more than bisection would take.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import OracleValueError, SingularSystemError

# a sweep runs on Python floats when a step's update window, ``bl`` rows
# by ``bl + bu`` columns, has at most this many cells: below it numpy's
# per-call overhead costs more than the arithmetic
NARROW_WINDOW = 64
# a wide sweep eliminates in panels of this many columns: the columns of a
# panel pivot by pivot, then one matrix product for the columns right of it
PANEL = 64


@dataclass(frozen=True)
class Band:
    """The matrix of ``shape`` held as band rows: ``cells[i, c]`` is its
    entry ``(i, i - lower + c)``, 0-based, and 0.0 where that column lies
    outside the matrix.  Every entry outside the band is 0."""

    cells: np.ndarray
    lower: int
    upper: int
    shape: tuple[int, int]

    def array(self) -> np.ndarray:
        """The matrix as an array, the cells' bits in their places."""
        rows, cols = self.shape
        i = np.arange(rows)[:, None]
        j = i + np.arange(-self.lower, self.upper + 1)
        inside = (j >= 0) & (j < cols)
        out = np.zeros(self.shape)
        out[np.broadcast_to(i, j.shape)[inside], j[inside]] = self.cells[inside]
        return out


def as_array(a: np.ndarray | Band) -> np.ndarray:
    """``a`` as an array: a :class:`Band`'s :meth:`Band.array`, else ``a``."""
    return a.array() if isinstance(a, Band) else np.asarray(a, dtype=float)


def _operand(a: np.ndarray | Band) -> np.ndarray | Band:
    """A kernel's matrix argument: a :class:`Band` as it is, else a float array."""
    return a if isinstance(a, Band) else np.asarray(a, dtype=float)


def diagonal(a: np.ndarray | Band) -> np.ndarray:
    """The main diagonal of the square matrix ``a``, a view."""
    return a.cells[:, a.lower] if isinstance(a, Band) else np.diagonal(a)


def norm_inf(a: np.ndarray | Band) -> float:
    """Induced max-absolute-row-sum norm; 0 for an empty array, inf when a
    row sum overflows.  A :class:`Band`'s rows are summed over its cells,
    which can differ in the last bit from a sum over the whole row."""
    if isinstance(a, Band):
        a = a.cells
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.max(np.abs(a)))
    with np.errstate(over="ignore"):
        return float(np.max(np.sum(np.abs(a), axis=1)))


def pivot_norm(a: np.ndarray | Band) -> float:
    """:func:`norm_inf` of ``a`` for a pivot threshold, which must not be
    inf: an overflowed norm raises :class:`OracleValueError`."""
    norm = norm_inf(a)
    if norm == math.inf:
        raise OracleValueError(f"a row sum of the {a.shape[0]}x{a.shape[1]} array overflows, "
                               "so its pivot threshold is not finite", value=norm)
    return norm


def _band(a: np.ndarray) -> tuple[int, int]:
    """Lower and upper bandwidth of the nonzero pattern of ``a`` (NaN is
    nonzero, -0.0 is not): the largest ``i - j`` and ``j - i`` over its
    nonzeros, at least 0.  Blocks of rows, about 64 KB of flags each, are
    scanned for each row's first and last nonzero."""
    rows, cols = a.shape
    lower = upper = 0
    step = max(1, 2 ** 16 // max(cols, 1))
    for start in range(0, rows, step):
        flags = a[start:start + step] != 0
        held = flags.any(axis=1)
        if held.any():
            i = np.arange(start, start + len(flags))[held]
            first = flags.argmax(axis=1)[held]
            last = cols - 1 - flags[:, ::-1].argmax(axis=1)[held]
            lower = max(lower, int(np.max(i - first)))
            upper = max(upper, int(np.max(last - i)))
    return lower, upper


def _clip(band: tuple[int, int], shape: tuple[int, int]) -> tuple[int, int]:
    """``band`` clipped to the diagonals of an array of ``shape``."""
    rows, cols = shape
    return min(band[0], max(rows - 1, 0)), min(band[1], max(cols - 1, 0))


def band_of(a: np.ndarray | Band) -> tuple[int, int]:
    """The band ``(bl, bu)`` of ``a``: a :class:`Band`'s own, clipped to its
    shape, or an array's, measured from its nonzero pattern."""
    return _clip((a.lower, a.upper), a.shape) if isinstance(a, Band) else _band(a)


def band_rows(a: np.ndarray, band: tuple[int, int] | None = None) -> Band:
    """The array ``a`` as band rows within ``band``, clipped to the array,
    which must hold every nonzero of ``a``; within its measured band when
    ``band`` is not given."""
    a = np.asarray(a, dtype=float)
    lower, upper = _band(a) if band is None else _clip(band, a.shape)
    return Band(_band_cells(a, lower, upper), lower, upper, a.shape)


def is_narrow(band: tuple[int, int]) -> bool:
    """Whether a sweep within ``band`` runs on Python floats."""
    bl, bu = band
    return bl * (bl + bu) <= NARROW_WINDOW


def _band_cells(a: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Row i's entries in columns ``i - lower`` to ``i + upper``, 0.0 for
    the columns outside the array."""
    rows, cols = a.shape
    idx = np.arange(rows)[:, None] + np.arange(-lower, upper + 1)
    if cols == 0:
        return np.zeros(idx.shape)
    inside = (idx >= 0) & (idx < cols)
    return np.where(inside, a[np.arange(rows)[:, None], idx.clip(0, cols - 1)], 0.0)


def _cells(a: np.ndarray | Band, lower: int, upper: int) -> np.ndarray:
    """:func:`_band_cells` of ``a``, an array or band rows whose band lies
    within ``(lower, upper)`` on the diagonals of the matrix."""
    if not isinstance(a, Band):
        return _band_cells(a, lower, upper)
    out = np.zeros((a.shape[0], lower + upper + 1))
    first, last = -min(lower, a.lower), min(upper, a.upper)  # the offsets both hold
    out[:, first + lower:last + lower + 1] = a.cells[:, first + a.lower:last + a.lower + 1]
    return out


def _sweep_window(a: np.ndarray | Band, band: tuple[int, int] | None = None) -> tuple[int, int]:
    """``band``, :func:`band_of` when not given, for a sweep that returns
    its reduced array: the whole array when a cell that the band leaves to
    the sweep holds -0.0 (a band cell of band rows, any cell of an array)."""
    window = band_of(a) if band is None else band
    cells = a.cells if isinstance(a, Band) else a
    if np.signbit(cells[cells == 0.0]).any():
        return max(a.shape[0] - 1, 0), max(a.shape[1] - 1, 0)
    return window


def lu_det(a: np.ndarray | Band) -> float:
    """Determinant via partially pivoted elimination, sign tracked on swaps,
    of an array or band rows."""
    a = _operand(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    return factor(a, 0.0).det()


def lu_det_shifts(t: np.ndarray | Band, shifts: np.ndarray) -> np.ndarray:
    """``lu_det(t - x*I)`` for each shift ``x``, bit for bit, of an array or
    band rows ``t``.

    The diagonal is ``t_ii + -x``, as a shifted copy holds it.  A shift
    leaves the band of ``t`` as it is, since the band counts the diagonal
    anyway, so it is taken once.  For a narrow band, one elimination runs
    the sweep's arithmetic with the shifts as lanes, the last axis of its
    arrays (:func:`_eliminate_lanes`), and records each step's pivot and
    whether it swapped rows.  The sign, the lanes with a zero pivot (whose
    value is 0.0) and the product of the pivots, multiplied in step order
    as the sweep multiplies them, are folded once at the end.  With no
    band below the diagonal the matrix is triangular and its pivots are
    its shifted diagonal, so there is no elimination.  The cost per step
    is numpy's call overhead whatever the lane count, so this pays off for
    a grid of shifts, not for one value.  A wide band raises
    :class:`ValueError`.
    """
    t = _operand(t)
    shifts = np.asarray(shifts, dtype=float)
    n = t.shape[0]
    band = band_of(t)
    if not is_narrow(band):
        raise ValueError(f"band {band} is too wide for lanes of shifts")
    bl, bu = band
    with np.errstate(all="ignore"):
        # the shifted diagonal, row i overwritten by step i's pivot once row
        # i has entered the window
        pivots = diagonal(t)[:, None] + -shifts
    swaps = np.zeros(pivots.shape, dtype=bool)
    if bl:  # else the matrix is triangular and its pivots are its diagonal
        _eliminate_lanes(_cells(t, bl, bu), bl, pivots, swaps)
    with np.errstate(all="ignore"):
        # in step order, from 1.0, as the sweep's det multiplies them
        det = np.multiply.reduce(pivots, axis=0, initial=1.0)
    sign = np.where(np.logical_xor.reduce(swaps, axis=0), -1.0, 1.0)
    return np.where((pivots == 0.0).any(axis=0), 0.0, sign * det)


def _eliminate_lanes(cells: np.ndarray, bl: int, pivots: np.ndarray, swaps: np.ndarray) -> None:
    """The sweep of :func:`lu_det_shifts` with the lanes as the last axis:
    row k of ``pivots`` (the shifted diagonal on entry) and ``swaps`` get
    step k's pivot and whether it swapped rows, in each lane.

    At step k a window of ``bl + 1`` rows by the ``width`` columns of the
    band holds the entries ``(k + r, k + c)``.  The step takes the first
    row with the largest ``|x|`` (a NaN before any number) as pivot and
    writes the eliminated rows below it straight into the other window,
    shifted one row up and one column left, where the row that enters
    from below is then filled in.  A lane whose pivot is 0 goes on with
    infinities and NaNs, unread.
    """
    n, width = cells.shape
    lanes = pivots.shape[1]
    window, after = np.zeros((bl + 1, width, lanes)), np.zeros((bl + 1, width, lanes))
    for r in range(min(n, bl + 1)):
        window[r, :width - bl + r] = cells[r, bl - r:, None]
        window[r, r] = pivots[r]
    below = np.arange(1, bl + 1)[:, None]
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            m, right = min(bl + 1, n - k), min(width, n - k)
            p = np.abs(window[:m, 0]).argmax(axis=0)
            if m == 2:  # p is 0 or 1; where is faster than choose on two rows
                top = np.where(p, window[1, :right], window[0, :right])
                rows = np.where(p, window[0, :right], window[1:2, :right])
            else:
                top = p.choose(window[:m, :right])
                rows = np.where((p == below[:m - 1])[:, None], window[0, :right],
                                window[1:m, :right])
            pivots[k] = top[0]
            swaps[k] = p
            np.subtract(rows[:, 1:], rows[:, :1] / top[0] * top[1:],
                        out=after[:m - 1, :right - 1])
            after[:bl, -1] = 0.0
            if k + bl + 1 < n:
                after[bl] = cells[k + bl + 1, :, None]
                after[bl, bl] = pivots[k + bl + 1]
            window, after = after, window
        pivots[n - 1] = window[0, 0]


def _sweep(a: np.ndarray, pivot_tol: float, window: tuple[int, int] | None = None,
           band: tuple[int, int] | None = None) -> tuple[np.ndarray, list[int], float]:
    """Row echelon form of a copy of ``a`` by the windowed sweep, in numpy.

    Returns the reduced array, the pivot column indices (0-based) and the
    sign of the row permutation.  Columns whose best remaining pivot is
    <= ``pivot_tol`` in magnitude are skipped, and keep the values they
    hold then: each step updates from its pivot column rightwards.
    ``window`` is the band to sweep within and ``band`` the measured band,
    ``window`` when not given; when neither is given both are measured,
    the window with negative zeros (:func:`_sweep_window`).

    A band that reaches :data:`PANEL` rows below the diagonal is swept in
    panels of ``PANEL`` columns, any other in one panel.  Each panel's
    columns are swept one pivot at a time, every row swap on the whole
    row.  The columns right of the panel that its pivots reach then take
    the panel's eliminations at once: a forward substitution of the pivot
    rows (:func:`_forward`) and one product for the rows below.
    """
    # an ndarray subclass stays one, in the multipliers too, so that a test
    # can count the products
    u = np.array(a, dtype=float, subok=True)
    rows, cols = u.shape
    if window is None:
        band = band_of(u)
        window = _sweep_window(u, band)
    bl, bu = window
    width = PANEL if (band or window)[0] >= PANEL else max(cols, 1)
    pivots = []
    sign = 1.0
    for k0 in range(0, cols, width):
        k1, r0 = min(cols, k0 + width), len(pivots)
        if r0 == rows:
            break
        # the rows and columns that the panel's pivots reach
        last, reach = min(rows, k1 + bl), min(cols, k1 + bl + bu)
        # lower[i, t]: row r0 + i's multiplier of the panel's pivot t, kept
        # for the columns right of the panel
        lower = np.zeros_like(u, shape=(last - r0, k1 - k0)) if reach > k1 else None
        for c in range(k0, k1):
            r = len(pivots)
            if r == rows:
                break
            below = min(rows, c + bl + 1)
            p = r + int(np.abs(u[r:below, c]).argmax())
            if abs(u[p, c]) <= pivot_tol:
                continue
            if p != r:
                _swap(u, r, p)
                if lower is not None:
                    _swap(lower, r - r0, p - r0)
                sign = -sign
            if r + 1 < below:
                hi = min(k1, c + bl + bu + 1)
                f = u[r + 1:below, c] / u[r, c]
                u[r + 1:below, c:hi] -= f[:, None] * u[r, c:hi]
                u[r + 1:below, c] = 0.0
                if lower is not None:
                    lower[r + 1 - r0:below - r0, r - r0] = f
            pivots.append(c)
        r1 = len(pivots)
        if lower is not None and r1 > r0:
            top = u[r0:r1, k1:reach]
            _forward(lower[:r1 - r0], top)
            u[r1:last, k1:reach] -= lower[r1 - r0:, :r1 - r0] @ top
    return u, pivots, sign


def _swap(x: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j of ``x`` in place."""
    row = x[i].copy()
    x[i] = x[j]
    x[j] = row


def _forward(lower: np.ndarray, top: np.ndarray) -> None:
    """Overwrite ``top`` with ``L^-1 top``, for ``L`` unit lower triangular
    with ``lower[i, t]``, ``t < i``, below its diagonal: row i takes away
    the rows above it, each times its multiplier, in one dot product."""
    for i in range(1, len(top)):
        top[i] -= lower[i, :i] @ top[:i]


def _sweep_rows(a: np.ndarray | Band, pivot_tol: float, window: tuple[int, int]):
    """:func:`_sweep` of ``a``, an array or band rows, within the band
    ``window`` on Python floats, for a narrow window: the rows, their start
    columns, the pivot columns and the sign.

    Physical row i is the list ``rows[i]`` of its entries in columns
    ``start[i]`` onwards.  It holds every column in which it can be
    nonzero, and is padded with zeros when an update reaches past its
    end.  Each step updates the cells :func:`_sweep` updates: every row
    below the pivot starts at or left of the pivot column.
    """
    rows_n, cols = a.shape
    bl, bu = window
    reach = bl + bu + 1
    # room for the fill of a pivot row, up to bl + bu columns right of it
    rows = _cells(a, bl, bl + bu).tolist()
    start = list(range(-bl, rows_n - bl))
    pivots = []
    sign = 1.0
    r = 0
    for c in range(cols):
        if r == rows_n:
            break
        # comparisons, not min() and max(): this loop runs once per column
        below = c + bl + 1
        if below > rows_n:
            below = rows_n
        # np.argmax of |x|: the first largest, or the first NaN
        p, best = r, -1.0
        for i in range(r, below):
            row, k = rows[i], c - start[i]
            v = abs(row[k]) if k < len(row) else 0.0
            if v > best:
                p, best = i, v
            elif v != v:
                p, best = i, v
                break
        if best <= pivot_tol:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            start[r], start[p] = start[p], start[r]
            sign = -sign
        top, s0 = rows[r], start[r]
        pivot = top[c - s0]
        hi = c + reach
        if hi > cols:
            hi = cols
        if hi - s0 > len(top):
            top.extend([0.0] * (hi - s0 - len(top)))
        for i in range(r + 1, below):
            row, si = rows[i], start[i]
            if hi - si > len(row):
                row.extend([0.0] * (hi - si - len(row)))
            f = row[c - si] / pivot
            d = si - s0
            for j in range(c - si, hi - si):
                row[j] -= f * top[j + d]
            row[c - si] = 0.0
        pivots.append(c)
        r += 1
    return rows, start, pivots, sign


def _reduced(rows: list, start: list, shape: tuple[int, int]) -> np.ndarray:
    """The array that the lists of :func:`_sweep_rows` hold, 0.0 elsewhere."""
    lengths = np.array([len(row) for row in rows], dtype=int)
    values = np.fromiter(chain.from_iterable(rows), float, lengths.sum())
    at = np.repeat(np.arange(shape[0]), lengths)
    # column of each value: its row's start plus its place in the row
    first = np.cumsum(lengths) - lengths
    col = np.arange(values.size) + np.repeat(np.asarray(start, dtype=int) - first, lengths)
    keep = (col >= 0) & (col < shape[1])
    u = np.zeros(shape)
    u[at[keep], col[keep]] = values[keep]
    return u


@dataclass(frozen=True, eq=False)
class Factor:
    """One sweep of a matrix by :func:`factor`: its pivot columns and values
    in row order, the sign of its row permutation, its pivot threshold, its
    shape, and its reduced rows, the array of :func:`_sweep` or the lists
    and start columns of :func:`_sweep_rows`."""

    pivots: list[int]
    values: list[float] | np.ndarray
    sign: float
    tol: float
    shape: tuple[int, int]
    rows: np.ndarray | tuple[list, list]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def det(self) -> float:
        """The pivots' product in column order times the sign, a numpy
        scalar: dividing by a determinant that underflowed to 0 gives inf,
        not ZeroDivisionError.  0 when a column has no pivot."""
        if self.rank < self.shape[0]:
            return 0.0
        return self.sign * np.float64(math.prod(self.values))

    @cached_property
    def reduced(self) -> np.ndarray:
        """The reduced array, built from the lists on first use."""
        return self.rows if isinstance(self.rows, np.ndarray) else _reduced(*self.rows, self.shape)

    def back_substitute(self, x: np.ndarray, rhs) -> np.ndarray:
        """``x`` with its pivot entries set from the last pivot row up: row r,
        pivot column p, sets ``x[p] = (rhs[r] - u[r, p+1:len(x)] @ x[p+1:])
        / u[r, p]`` for the reduced array u.  Reduced rows held as lists are
        read one at a time into a row of zeros, so no array of the matrix's
        size is built, and each dot product has the reduced array's
        operands."""
        # an unknown that overflows is inf, which the stopping rule reports
        # as diverged, with no warning
        with np.errstate(all="ignore"):
            if isinstance(self.rows, np.ndarray):
                u = self.rows
                for r in range(self.rank - 1, -1, -1):
                    p = self.pivots[r]
                    x[p] = (rhs[r] - float(u[r, p + 1:len(x)] @ x[p + 1:])) / u[r, p]
                return x
            rows, start = self.rows
            line = np.zeros(len(x))
            for r in range(self.rank - 1, -1, -1):
                p, row, s = self.pivots[r], rows[r], start[r]
                end = min(len(x), s + len(row))
                line[p + 1:end] = row[p + 1 - s:end - s]
                x[p] = (rhs[r] - float(line[p + 1:] @ x[p + 1:])) / row[p - s]
                line[p + 1:end] = 0.0
            return x

    def solve(self, n: int) -> np.ndarray:
        """x with ``a[:, :n] x = a[:, n:]`` for the swept square system
        ``a``, one column per right-hand side; :class:`SingularSystemError`
        when one of the first n columns has no pivot."""
        missing = set(range(n)).difference(self.pivots)
        if missing:
            raise SingularSystemError(f"no pivot above {self.tol} at column {min(missing) + 1}")
        x = np.zeros((self.shape[1] - n, n))  # one contiguous row per right-hand side
        for c, row in enumerate(x):
            self.back_substitute(row, self.reduced[:, n + c])
        return x.T


def factor(a: np.ndarray | Band, pivot_tol: float, zero_signs: bool = False) -> Factor:
    """The sweep of ``a``, an array or band rows, within its band, or within
    :func:`_sweep_window` when the signs of zeros in the reduced rows matter
    (``zero_signs``), on Python floats when that window is narrow, else in
    numpy on ``a`` as an array.  Columns whose best remaining pivot is <=
    ``pivot_tol`` in magnitude are skipped."""
    a = _operand(a)
    band = band_of(a)
    window = _sweep_window(a, band) if zero_signs else band
    if is_narrow(window):
        rows, start, pivots, sign = _sweep_rows(a, pivot_tol, window)
        values = [rows[r][c - start[r]] for r, c in enumerate(pivots)]
        return Factor(pivots, values, sign, pivot_tol, a.shape, (rows, start))
    u, pivots, sign = _sweep(as_array(a), pivot_tol, window, band)
    return Factor(pivots, u[np.arange(len(pivots)), pivots], sign, pivot_tol, a.shape, u)


def echelon(a: np.ndarray | Band, pivot_tol: float) -> tuple[np.ndarray, list[int]]:
    """Row echelon form with partial pivoting of an array or band rows: the
    reduced array and the pivot column indices of the sweep."""
    f = factor(a, pivot_tol, zero_signs=True)
    return f.reduced, f.pivots


def null_vector(a: np.ndarray | Band, pivot_tol: float) -> np.ndarray | None:
    """One null-space vector of an array or band rows, or None if it is
    full column rank.

    Convention: the first pivot-free column gets value 1, all later free
    columns 0; pivot variables come from back-substitution against a
    right-hand side of -0.0, which gives ``-s / pivot`` for the sum ``s``.
    """
    f = factor(a, pivot_tol, zero_signs=True)
    cols = f.shape[1]
    free = min(set(range(cols)).difference(f.pivots), default=None)
    if free is None:
        return None
    v = np.zeros(cols)
    v[free] = 1.0
    return f.back_substitute(v, [-0.0] * f.rank)


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
    return factor(np.column_stack((a, b)), pivot_tol, zero_signs=True).solve(n).reshape(b.shape)


def product_ascending(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product accumulated strictly in ascending inner index order.

    Matches a naive triple loop bit for bit, which keeps lazy-entry and
    dense code paths byte-deterministic with each other; non-finite
    values come out as that loop gives them, with no warning.
    """
    m, inner = a.shape
    inner2, n = b.shape
    if inner != inner2:
        raise ValueError("inner dimensions differ")
    out = np.zeros((m, n))
    with np.errstate(all="ignore"):
        for l in range(inner):
            out += np.outer(a[:, l], b[l, :])
    return out
