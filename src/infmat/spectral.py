"""Eigenvalue search on truncations via the characteristic determinant.

The characteristic value det(A - lambda*I) is only ever evaluated on
finite sections; a root found by grid scan plus bisection at the largest
scheduled size is accepted when it reappears (within 1e-6) at the
previous size.  Roots of truncations approximate spectrum points of the
infinite matrix but no claim beyond stabilization is made.  Double roots
produce no sign change and are missed by design.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._dense import (Band, as_array, band_of, diagonal, is_narrow, lu_det_shifts, null_vector,
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


def _root_in(f, a, b, fa, fb):
    """The root of ``f`` bracketed by ``[a, b]``: ``a`` when ``f(a)`` is 0,
    bisected on a sign change, else None.  A bracket with ``f(b)`` 0 is
    left to the next one, or to the trailing endpoint, which report b."""
    if fa == 0.0:
        return a
    if fb != 0.0 and (fa < 0) != (fb < 0):
        return _bisect(f, a, b, fa)
    return None


def _bisect(f, lo, hi, flo):
    """Bisect ``[lo, hi]`` to width :data:`BISECT_WIDTH`, or until no float
    lies between its ends (past about 1e6 in magnitude the spacing of
    floats is wider than the width)."""
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow
        if not lo < mid < hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * lo + 0.5 * hi


def find_eigenvalues(A: MatrixSpec, interval: tuple[float, float],
                     schedule: TruncationSchedule | None = None,
                     policy: ConvergencePolicy | None = None,
                     max_roots: int = 32,
                     grid_points: int = 256) -> list[EigenPair]:
    """Bracket and bisect sign changes of the characteristic value.

    Scans ``grid_points`` evenly spaced arguments at the largest
    scheduled truncation size, bisects each bracket to width 1e-10, and
    re-checks each root at the previous size over its bracket; roots
    moving more than 1e-6 between the two sizes are flagged unstable.  A
    grid point whose value is exactly 0 is itself a root, reported once;
    the trailing endpoint is checked over the last bracket.  A finite
    spec's schedule is its one full size, so its roots are exact and
    stable; an infinite spec whose schedule has one size gives no
    evidence across sizes, so its roots are unstable.  An
    interval with no sign change yields an empty list, not an error; a
    non-finite or empty interval, one whose width overflows, or
    ``grid_points`` or ``max_roots`` below 1, raises :class:`ValueError`.

    One :class:`Sections` of the spec is grown to the largest size; the
    previous size is read from its corner, so the oracle cost does not
    grow with ``grid_points`` or the number of bisection steps.  The
    grid's values come from one elimination whose lanes are the grid
    points (``_grid_values``), which copies no section.  Each bisection
    step is one :func:`char_value`, and each root's eigenvector one
    :func:`eigenvector_for`; these work on a copy of one of the two
    sections with the diagonal shifted, band rows for a spec that
    declares a bandwidth, so no kernel measures its band and no
    bisection step copies an n-by-n array.  A root's eigenvector is read
    off the reduced array of one elimination, and its residual is one
    product with the shifted section as an array.
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
    n_final = sizes[-1]

    sections = Sections(A)
    top = sections(n_final)

    def f_at(size):
        return lambda x: char_value(sections(size), x, policy)

    def persists(root, a, b):
        """Whether the previous size has a root within the stability
        tolerance of ``root`` in the bracket ``[a, b]``; its value at ``b``
        counts only for the trailing endpoint ``root == b``."""
        if is_finite_extent(A.rows):
            return True  # the one full size is exact
        if len(sizes) < 2:
            return False  # one size, nothing to compare with
        g = f_at(sizes[-2])
        ga, gb = g(a), g(b)
        prev_root = b if root == b and gb == 0.0 else _root_in(g, a, b, ga, gb)
        return prev_root is not None and abs(prev_root - root) <= ROOT_STABILITY_TOL

    def eigenpair(root, stable, char_at=None):
        vec = eigenvector_for(top, root)
        vec_res = float(np.max(np.abs(as_array(_shifted(top, root)) @ vec.data[:, 0])))
        char_residual = 0.0 if char_at is None else abs(char_at(root))
        return EigenPair(root, vec, char_residual, vec_res, stable)

    f = f_at(n_final)
    xs = np.linspace(lo, hi, grid_points)
    fx = _grid_values(top, xs, policy)

    pairs: list[EigenPair] = []
    for t in range(len(xs) - 1):
        if len(pairs) >= max_roots:
            break
        a, b = float(xs[t]), float(xs[t + 1])
        root = _root_in(f, a, b, fx[t], fx[t + 1])
        if root is not None:
            pairs.append(eigenpair(root, persists(root, a, b), f))
    # trailing endpoint that is itself a root, checked over the last bracket
    if len(pairs) < max_roots and fx[-1] == 0.0:
        b = float(xs[-1])
        a = float(xs[-2]) if len(xs) > 1 else b
        pairs.append(eigenpair(b, persists(b, a, b)))
    pairs.sort(key=lambda p: p.lam)
    return pairs
