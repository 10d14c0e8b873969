"""Eigenvalue search on truncations via the characteristic determinant.

The characteristic value det(A - lambda*I) is only ever evaluated on
finite sections.  Roots are found in one pass of a grid at the largest
scheduled size, each sign change refined by the ITP method (``_refine``)
to a bracket at most 1e-10 wide, in at most one value more than
bisection takes; a root is stable when the previous size's
characteristic value is 0 at it, or is 0 at or changes sign between the
points 1e-6 either side of it.  Roots of truncations
approximate spectrum points of the infinite matrix but no claim beyond
stabilization is made.  Double roots produce no sign change and are
missed by design.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._dense import (Band, band_of, diagonal, is_narrow, lu_det_shifts, null_vector,
                     pivot_norm)
from .determinant import det_truncation
from .errors import ExtentMismatchError, OracleValueError, SingularSystemError
from .matrix_core import (DenseMatrix, MatrixSpec, Sections, TruncationSchedule,
                          is_finite_extent)
from .series import ConvergencePolicy, limit_sizes

BISECT_WIDTH = 1e-10
ROOT_STABILITY_TOL = 1e-6
NULL_PIVOT_SCALE = 1e-8


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue estimate with its extracted eigenvector section.

    The vector, a one-column :class:`DenseMatrix`, is normalized so its
    largest-magnitude entry equals 1.
    ``stable`` records whether the root persisted across the last two
    truncation sizes.
    """

    lam: float
    vector: DenseMatrix
    char_residual: float
    vec_residual: float
    stable: bool = True


def _shifted(t: np.ndarray | Band, lam: float) -> np.ndarray | Band:
    """``t - lam*I`` for a square section ``t``, in its form: a new array,
    or new band rows whose diagonal column is shifted.

    The diagonal gets ``+= -lam``, the same IEEE sum that
    :func:`~infmat.algebra.shift_diagonal`'s oracle forms entry by entry.
    """
    band = isinstance(t, Band)
    cells = np.array(t.cells if band else t, order="C")
    # a view of the diagonal: a column of band rows, every (n+1)th cell of an array
    diag = cells[:, t.lower] if band else cells.reshape(-1)[::cells.shape[0] + 1]
    with np.errstate(over="ignore"):  # an overflowed sum raises below
        diag += -lam
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        i = int(bad[0]) + 1
        raise OracleValueError(f"diagonal entry ({i}, {i}) overflowed when shifted by "
                               f"lambda = {float(lam)!r}",
                               index=(i, i), value=float(diag[i - 1]))
    return dataclasses.replace(t, cells=cells) if band else cells


def _apply(a: np.ndarray | Band, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for an array; for band rows, the sum over the band's
    offsets in order of each cell times its entry of ``v``, with no array
    built."""
    if not isinstance(a, Band):
        return a @ v
    n, width = a.cells.shape
    # v with room for the columns left and right of the matrix
    padded = np.concatenate((np.zeros(a.lower), v, np.zeros(a.upper)))
    out = a.cells[:, 0] * padded[:n]
    for c in range(1, width):
        out += a.cells[:, c] * padded[c:c + n]
    return out


def char_value(t: np.ndarray | Band, lam: float,
               policy: ConvergencePolicy | None = None) -> float:
    """``det(t - lam*I)`` of the square section ``t``, an array or band
    rows, by :func:`~infmat.determinant.det_truncation`."""
    return det_truncation(_shifted(t, lam), policy)


def eigenvector_for(t: np.ndarray | Band, lam: float) -> DenseMatrix:
    """Nonzero null vector of ``t - lam*I`` for the square section ``t``,
    an array or band rows, one column, scaled so its largest-magnitude
    entry is 1.

    Elimination pivots below ``1e-8 * (1 + norm)`` mark a free column;
    the first free column is set to 1 and later free columns to 0.
    Raises :class:`SingularSystemError` when the section is numerically
    full rank, i.e. ``lam`` is not an eigenvalue at this size.
    """
    shifted = _shifted(t, lam)
    v = null_vector(shifted, NULL_PIVOT_SCALE * (1.0 + pivot_norm(shifted)))
    if v is None:
        raise SingularSystemError(f"no null direction at size {t.shape[0]}: "
                                  f"{lam} may not be an eigenvalue here")
    top = int(np.argmax(np.abs(v)))
    return DenseMatrix((v / v[top])[:, None])


def _grid_values(t: np.ndarray | Band, xs: np.ndarray, policy: ConvergencePolicy) -> list:
    """``char_value(t, x, policy)`` for each grid point x.

    For a narrow band, where ``char_value`` eliminates, every x whose
    shifted diagonal is finite is one lane of
    :func:`~infmat._dense.lu_det_shifts`.  The others, and every x of a
    wide band, are evaluated one at a time in grid order, so an error is
    raised at the grid point, and with the type and message, of the
    one-at-a-time scan.
    """
    with np.errstate(over="ignore"):  # an overflowed lane is left to _shifted
        diag = diagonal(t) + -xs[:, None]
    lanes = np.all(np.isfinite(diag), axis=1) & is_narrow(band_of(t))
    values = np.zeros(xs.size)
    if lanes.any():
        values[lanes] = lu_det_shifts(t, xs[lanes])
    out = values.tolist()
    for i in np.flatnonzero(~lanes):
        out[i] = char_value(t, xs[i], policy)
    return out


def _refine(f, lo, hi, flo, fhi):
    """A root of ``f`` in the sign change ``[lo, hi]``, whose end values
    ``flo`` and ``fhi`` are nonzero and of opposite signs, by the ITP method
    (Oliveira & Takahashi 2020, *ACM TOMS* 47(1):5).

    The bracket shrinks until it is at most :data:`BISECT_WIDTH` wide, or
    no float lies between its ends (past about 1e6 in magnitude the
    spacing of floats is wider than the width); a point where ``f`` is
    exactly 0 is returned at once.  The first point is the midpoint, as
    bisection's.  Each later one is the regula falsi point of the
    bracket's end values, moved ``0.2 w² / w₀`` towards the midpoint (for
    width w, first width w₀), then drawn towards the midpoint as far as it
    takes for the bracket to stay within the width bisection had one step
    before, ``w₀ / 2^(j-1)`` after j values (ITP's ``n₀ = 1``).  So ``f``
    is called at most once more than bisection would call it, and on a
    smooth ``f`` about a third as often.  The result is the regula falsi
    point of the final bracket, which lies in it.
    """
    flo, fhi = float(flo), float(fhi)
    first = bound = hi - lo
    mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow
    x = mid
    while hi - lo > BISECT_WIDTH and lo < mid < hi:
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (flo < 0) != (fx < 0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        bound *= 0.5  # halved exactly
        mid = 0.5 * lo + 0.5 * hi
        x = _itp_point(lo, hi, flo, fhi, mid, first, bound)
    falsi = _falsi(lo, hi, flo, fhi)
    return falsi if lo <= falsi <= hi else mid


def _falsi(lo, hi, flo, fhi):
    """Where the line through ``(lo, flo)`` and ``(hi, fhi)`` crosses 0;
    NaN when both values are infinite."""
    # fhi / flo is negative, so the denominator does not cancel
    return lo + (hi - lo) / (1.0 - fhi / flo)


def _itp_point(lo, hi, flo, fhi, mid, first, bound):
    """The next ITP point of ``[lo, hi]``: the regula falsi point moved
    towards ``mid``, then to within ``bound - w/2`` of it, so that either
    part of the bracket is at most ``bound`` wide; ``mid`` when that point
    is not a float strictly inside."""
    w, falsi = hi - lo, _falsi(lo, hi, flo, fhi)
    if not lo < falsi < hi:
        return mid
    toward = 1.0 if mid > falsi else -1.0
    shift = 0.2 * w * (w / first)
    point = falsi + toward * shift if shift <= abs(mid - falsi) else mid
    reach = max(bound - 0.5 * w, 0.0)
    if abs(point - mid) > reach:
        point = mid - toward * reach
    return point if lo < point < hi else mid


def find_eigenvalues(A: MatrixSpec, interval: tuple[float, float],
                     schedule: TruncationSchedule | None = None,
                     policy: ConvergencePolicy | None = None,
                     max_roots: int = 32,
                     grid_points: int = 256) -> list[EigenPair]:
    """Roots of the characteristic value, in one pass over a grid.

    Scans ``grid_points`` evenly spaced arguments at the largest
    scheduled truncation size.  A grid point whose value is exactly 0 is
    a root; a sign change between two nonzero neighbours is refined by
    the ITP method from both neighbours' values until its bracket is at
    most 1e-10 wide (or holds no float between its ends, or a value is
    exactly 0), in at most one value more than bisection takes, and the
    root is the regula falsi point of the final bracket (``_refine``).
    Roots come out in grid order, at most ``max_roots`` of
    them.  A root is stable when the previous size's characteristic value
    is 0 at it, or is 0 at or changes sign between the two points 1e-6
    either side of it (clipped to the interval), so that the previous
    section has a root within 1e-6.  A finite spec's schedule is its one
    full size, so its roots are exact and stable; an infinite spec whose
    schedule has one size gives no evidence across sizes, so its roots
    are unstable.  An interval with no sign change yields an empty list,
    not an error; a non-finite or empty interval, one whose width
    overflows, or ``grid_points`` or ``max_roots`` below 1, raises
    :class:`ValueError`.

    One :class:`Sections` of the spec is grown to the largest size and
    read once at it and once at the previous size (its corner), so the
    oracle cost does not grow with ``grid_points`` or the number of
    refinement steps.  The grid's values are the lanes of one elimination
    (``_grid_values``), which copies no section.  Each refinement step,
    stability value and residual is one :func:`char_value`, and each
    eigenvector one :func:`eigenvector_for`, on a copy of a section with
    its diagonal shifted (band rows for a spec that declares a
    bandwidth).  The vector's residual ``(T - lambda*I) v`` is summed over
    the band's offsets of band rows (``_apply``), so a banded section is
    never made an array.  A root's stability is read before its
    eigenvector, and its pair is built before the next bracket is refined.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"interval [{lo}, {hi}] is wider than the largest float")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    if max_roots < 1:
        raise ValueError(f"max_roots must be >= 1, got {max_roots}")
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if not A.is_square:
        raise ExtentMismatchError(f"square matrix required, got {A.rows}x{A.cols}")

    sizes = limit_sizes(A.rows, schedule)
    sections = Sections(A)
    top = sections(sizes[-1])
    prev = sections(sizes[-2]) if len(sizes) > 1 else None

    def f(x):
        return char_value(top, x, policy)

    def persists(root):
        """Whether the previous size has a root within the stability
        tolerance of ``root``: its values either side, then at ``root``."""
        if prev is None:  # a finite spec's one full size is exact
            return is_finite_extent(A.rows)
        left = char_value(prev, max(lo, root - ROOT_STABILITY_TOL), policy)
        right = char_value(prev, min(hi, root + ROOT_STABILITY_TOL), policy)
        return bool(left == 0.0 or right == 0.0 or (left < 0) != (right < 0)
                    or char_value(prev, root, policy) == 0.0)

    xs = np.linspace(lo, hi, grid_points)
    fx = _grid_values(top, xs, policy)
    pairs: list[EigenPair] = []
    for t, x in enumerate(xs.tolist()):
        if len(pairs) >= max_roots:
            break
        if fx[t] == 0.0:
            root = x
        elif t + 1 < len(xs) and fx[t + 1] != 0.0 and (fx[t] < 0) != (fx[t + 1] < 0):
            root = _refine(f, x, float(xs[t + 1]), fx[t], fx[t + 1])
        else:
            continue
        stable = persists(root)
        vec = eigenvector_for(top, root)
        vec_res = float(np.max(np.abs(_apply(_shifted(top, root), vec.data[:, 0]))))
        pairs.append(EigenPair(root, vec, abs(f(root)), vec_res, stable))
    return pairs
