"""Eigenvalue search on truncations via the characteristic determinant.

The characteristic value det(A - lambda*I) is only ever evaluated on
finite sections; a root found by grid scan plus bisection at the largest
scheduled size is accepted when it reappears (within 1e-6) at the
previous size.  Roots of truncations approximate spectrum points of the
infinite matrix but no claim beyond stabilization is made.  Double roots
produce no sign change and are missed by design.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._dense import lu_det_shifts, norm_inf, null_vector
from .determinant import det_section, log_series_may_apply
from .errors import ExtentMismatchError, OracleValueError, SingularSystemError
from .matrix_core import (DenseMatrix, MatrixSpec, Sections, TruncationSchedule,
                          clip_extent, truncate)
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


def _shifted(t: np.ndarray, lam: float) -> np.ndarray:
    """``t - lam*I``, a new array, for a section array ``t``.

    The diagonal gets ``+= -lam``, the same IEEE sum that
    :func:`~infmat.algebra.shift_diagonal`'s oracle forms entry by entry.
    """
    out = np.array(t)
    diag = np.arange(out.shape[0])
    with np.errstate(over="ignore"):  # an overflowed sum raises below
        out[diag, diag] += -lam
    bad = np.flatnonzero(~np.isfinite(out[diag, diag]))
    if bad.size:
        i = int(bad[0]) + 1
        raise OracleValueError(f"diagonal entry ({i}, {i}) overflowed when shifted by "
                               f"lambda = {float(lam)!r}",
                               index=(i, i), value=float(out[i - 1, i - 1]))
    return out


def _square_spec(A: MatrixSpec) -> MatrixSpec:
    if not A.is_square:
        raise ExtentMismatchError(f"square matrix required, got {A.rows}x{A.cols}")
    return A


def char_value(A: MatrixSpec, lam: float, n: int,
               route: str = "auto",
               policy: ConvergencePolicy | None = None) -> float:
    """det of the n-by-n truncation of A - lam*I by the chosen route."""
    policy = policy or ConvergencePolicy()
    t = truncate(_square_spec(A), n, n).data
    return det_section(_shifted(t, lam), policy, route)


def _null_direction(shifted: np.ndarray, lam: float) -> DenseMatrix:
    n = shifted.shape[0]
    v = null_vector(shifted, NULL_PIVOT_SCALE * (1.0 + norm_inf(shifted)))
    if v is None:
        raise SingularSystemError(
            f"no null direction at size {n}: {lam} may not be an eigenvalue here")
    top = int(np.argmax(np.abs(v)))
    return DenseMatrix((v / v[top])[:, None])


def eigenvector_for(A: MatrixSpec, lam: float, n: int) -> DenseMatrix:
    """Nonzero null vector of the n-truncation of A - lam*I, one column.

    Elimination pivots below ``1e-8 * (1 + norm)`` mark a free column;
    the first free column is set to 1 and later free columns to 0.
    Raises :class:`SingularSystemError` when the truncation is
    numerically full rank, i.e. ``lam`` is not an eigenvalue at this size.
    """
    n = clip_extent(A.rows, n)
    return _null_direction(_shifted(truncate(A, n, n).data, lam), lam)


def _grid_values(t: np.ndarray, xs: np.ndarray, policy: ConvergencePolicy) -> list:
    """``det_section(_shifted(t, x), policy)`` for each grid point x.

    Every x whose shifted diagonal is finite and rules out the log series
    is one lane of :func:`~infmat._dense.lu_det_shifts`.  The others are
    evaluated one at a time in grid order, so an error is raised at the
    grid point, and with the type and message, of the one-at-a-time scan.
    """
    with np.errstate(over="ignore"):  # an overflowed lane is left to _shifted
        diag = np.diagonal(t) + -xs[:, None]
    lanes = np.all(np.isfinite(diag), axis=1) & ~log_series_may_apply(diag)
    values = np.zeros(xs.size)
    if lanes.any():
        values[lanes] = lu_det_shifts(t, xs[lanes])
    out = values.tolist()
    for i in np.flatnonzero(~lanes):
        out[i] = det_section(_shifted(t, xs[i]), policy)
    return out


def _root_in(f, a, b, fa, fb):
    """The root of ``f`` bracketed by ``[a, b]``: ``a`` when ``f(a)`` is 0,
    bisected on a sign change, else None.  A bracket with ``f(b)`` 0 is
    left to the next one, or to the trailing endpoint, which report b."""
    if fa == 0.0:
        return a
    if fb != 0.0 and (fa < 0) != (fb < 0):
        return _bisect(f, a, b, fa, fb)
    return None


def _bisect(f, lo, hi, flo, fhi):
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_eigenvalues(A: MatrixSpec, interval: tuple[float, float],
                     schedule: TruncationSchedule | None = None,
                     policy: ConvergencePolicy | None = None,
                     max_roots: int = 32,
                     grid_points: int = 256) -> list[EigenPair]:
    """Bracket and bisect sign changes of the characteristic value.

    Scans ``grid_points`` evenly spaced arguments at the largest
    scheduled truncation size, bisects each bracket to width 1e-10, and
    re-checks each root at the previous size; roots moving more than
    1e-6 between the two sizes are flagged unstable.  A grid point whose
    value is exactly 0 is itself a root, reported once.  A finite spec's
    schedule is its one full size, so its roots are exact and stable.  An
    interval with no sign change yields an empty list, not an error; a
    non-finite or empty interval, or ``grid_points`` or ``max_roots``
    below 1, raises :class:`ValueError`.

    One :class:`Sections` of the spec is grown to the largest size; the
    previous size is a view of its corner, so the oracle cost does not grow
    with ``grid_points`` or the number of bisection steps.  The grid's
    values come from one elimination whose lanes are the grid points
    (``_grid_values``), which copies no section.  Each bisection step,
    eigenvector and residual works on a copy of one of the two sections
    with the diagonal shifted.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    if max_roots < 1:
        raise ValueError(f"max_roots must be >= 1, got {max_roots}")
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    spec = _square_spec(A)

    sizes = limit_sizes(spec.rows, schedule)
    n_final = sizes[-1]
    n_prev = sizes[-2] if len(sizes) >= 2 else n_final

    sections = Sections(spec)
    top = sections(n_final)

    def f_at(size):
        return lambda x: det_section(_shifted(sections(size), x), policy)

    def eigenpair(root, stable, char_at=None):
        shifted = _shifted(top, root)
        vec = _null_direction(shifted, root)
        vec_res = float(np.max(np.abs(shifted @ vec.data[:, 0])))
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
        if root is None:
            continue
        stable = True
        if n_prev != n_final:
            g = f_at(n_prev)
            prev_root = _root_in(g, a, b, g(a), g(b))
            stable = prev_root is not None and abs(prev_root - root) <= ROOT_STABILITY_TOL
        pairs.append(eigenpair(root, stable, f))
    # trailing endpoint that is itself a root
    if len(pairs) < max_roots and fx[-1] == 0.0:
        pairs.append(eigenpair(float(xs[-1]), True))
    pairs.sort(key=lambda p: p.lam)
    return pairs
