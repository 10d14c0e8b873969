"""Determinants: an elimination oracle, the traced-logarithm series route,
truncation-limit determinants of infinite matrices, and the minor-sum
expansion of det(AB) over increasing column selections.

The series route writes ``det M = exp(tr(log M))`` with ``log`` expanded
about the identity: ``log M = sum_k (-1)^(k+1) (M - I)^k / k``, valid for
``max-row-sum norm of (M - I) < 1``.  The trace of the k-th power is read
from two powers of half its degree, ``tr(B^k) = tr(B^⌊k/2⌋ B^⌈k/2⌉)``, an
O(n²) sum of entry products, so K terms form only ⌊(K−1)/2⌋ matrix
products where one power per term would form K.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._dense import Band, as_array, band_of, diagonal, is_narrow, lu_det, norm_inf
from .algebra import matmul
from .errors import ConvergenceFailureError, ExtentMismatchError, PreconditionError
from .matrix_core import (DenseMatrix, MatrixSpec, Sections, TruncationSchedule,
                          is_finite_extent, truncate)
from .series import (ConvergencePolicy, ConvergenceReport, section_limit,
                     sum_series)

ROUTE_LOG_SERIES = "log-series"
ROUTE_LIMIT = "truncation-limit"


@dataclass(frozen=True)
class DetReport:
    value: float
    route: str
    log_terms_used: int | None = None
    report: ConvergenceReport | None = None


def det_oracle(M: DenseMatrix) -> float:
    """Exact-as-floating-point determinant by pivoted elimination."""
    if not M.is_square:
        raise ExtentMismatchError(f"determinant of non-square {M.rows}x{M.cols}")
    return lu_det(M.data)


def det_log_series(M: DenseMatrix, policy: ConvergencePolicy | None = None) -> DetReport:
    """Determinant via ``exp`` of the traced logarithm series.

    Requires ``norm_inf(M - I) < 1`` (the measured norm is attached to
    the error when violated).  The power series of the trace is truncated
    by the standard window rule.
    """
    if not M.is_square:
        raise ExtentMismatchError(f"determinant of non-square {M.rows}x{M.cols}")
    return _log_series(M.data, policy or ConvergencePolicy())


def _log_series(t: np.ndarray, policy: ConvergencePolicy) -> DetReport:
    """:func:`det_log_series` of the square array ``t``.

    Term k, ``(-1)^(k+1) tr(B^k) / k`` with ``B = t - I``, reads the trace
    as ``tr(B^⌊k/2⌋ B^⌈k/2⌉)``, the sum of ``(B^⌊k/2⌋)_ij (B^⌈k/2⌉)_ji``
    over i and j, which forms no n×n array.  Only an odd k > 1 forms a
    power, ``B^⌈k/2⌉ = B^⌊k/2⌋ B``; an even k reuses ``B^(k/2)``.  So K
    terms cost ⌊(K−1)/2⌋ products of n×n arrays, and two powers are held
    however long the series runs.
    """
    base = t - np.eye(t.shape[0])
    norm = norm_inf(base)
    if norm >= 1.0:
        raise PreconditionError(
            f"max-row-sum norm of the series base is {norm:.6g} >= 1",
            measured=norm)

    # term k > 1 steps low and high on from term k - 1's to B^⌊k/2⌋ and
    # B^⌈k/2⌉, which holds because sum_series asks for the terms 1, 2,
    # 3, ... in order, one at a time (series._partials)
    low = high = base

    def term(k):
        nonlocal low, high
        if k == 1:
            return float(np.trace(base))
        if k % 2 == 0:
            low = high
        else:
            high = high @ base
        sign = 1.0 if k % 2 == 1 else -1.0
        return sign * float(np.einsum("ij,ji->", low, high)) / k

    rep = sum_series(term, policy)
    if not rep.converged:
        raise ConvergenceFailureError(
            f"trace series {rep.status} after {rep.terms_used} terms")
    return DetReport(float(np.exp(rep.estimate)), ROUTE_LOG_SERIES,
                     log_terms_used=rep.terms_used, report=rep)


def log_series_may_apply(diag: np.ndarray) -> np.ndarray:
    """False where one diagonal entry already fails the log series' norm
    test: ``|t_ii - 1| >= 1`` for some i of the last axis of ``diag``.

    ``norm_inf(t - I)`` is a floating-point sum of non-negative terms,
    which is at least each of its terms, so there it is >= 1 for certain.
    A NaN on the diagonal leaves the test to the series, as its norm does.
    """
    return ~(np.max(np.abs(diag - 1.0), axis=-1, initial=0.0) >= 1.0)


def det_truncation(t: np.ndarray | Band, policy: ConvergencePolicy | None = None) -> float:
    """Determinant of the square section ``t``, an array (whose band is
    measured) or band rows (a section of a spec that declares a bandwidth).

    A narrow band (:func:`~infmat._dense.is_narrow`) is eliminated: there
    elimination costs less than one dense power of the log series.  A wide
    one takes the log series, on ``t`` as an array, whenever the norm
    precondition it measures, ``norm_inf(t - I) < 1``, holds, and
    elimination otherwise; no series that :func:`log_series_may_apply`
    rules out is attempted.
    """
    if not is_narrow(band_of(t)) and log_series_may_apply(diagonal(t)):
        try:
            return _log_series(as_array(t), policy or ConvergencePolicy()).value
        except PreconditionError:
            pass
    return lu_det(t)


def det_infinite(M: MatrixSpec, schedule: TruncationSchedule | None = None,
                 policy: ConvergencePolicy | None = None) -> DetReport:
    """Stabilized determinant of square truncations along a schedule.

    Non-stabilization is reported, not raised: the returned report has
    status ``undetermined`` and the value is the last estimate.  A finite
    matrix is its own one-size schedule, eliminated exactly.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if not M.is_square:
        raise ExtentMismatchError(f"determinant of non-square {M.rows}x{M.cols}")
    # a finite matrix is its own one section: eliminated, as det_oracle does
    finite = is_finite_extent(M.rows)
    sections = Sections(M)
    rep = section_limit(lambda n: lu_det(sections(n)) if finite
                        else det_truncation(sections(n), policy),
                        M.rows, schedule, policy)
    return DetReport(rep.estimate, ROUTE_LIMIT, report=rep)


def cauchy_binet(A: DenseMatrix, B: DenseMatrix) -> float:
    """det(AB) as the sum over all increasing m-column selections of
    products of maximal minors of A and B.

    ``A`` is m-by-n, ``B`` is n-by-m with m <= n; for m > n the value is
    0 by rank deficiency (a warning is emitted).
    """
    m, n = A.rows, A.cols
    if B.rows != n or B.cols != m:
        raise ExtentMismatchError(
            f"need shapes m x n and n x m, got {m}x{n} and {B.rows}x{B.cols}")
    if m > n:
        warnings.warn("more rows than columns: det(AB) = 0 by rank deficiency",
                      stacklevel=2)
        return 0.0
    return _minor_sum(A.data, B.data, combinations(range(n), m))


def _minor_sum(a: np.ndarray, b: np.ndarray, selections) -> float:
    """Sum from 0.0, in order, of det a[:, sel] * det b[sel, :] over ``selections``."""
    total = 0.0
    for sel in selections:
        cols = list(sel)
        total += lu_det(a[:, cols]) * lu_det(b[cols, :])
    return total


@dataclass(frozen=True)
class CauchyBinetReport:
    """Selection-sum estimate next to the product-determinant value."""

    series: ConvergenceReport
    product_det: float
    gap: float

    @property
    def estimate(self) -> float:
        return self.series.estimate

    @property
    def status(self) -> str:
        return self.series.status


def cauchy_binet_infinite(A: MatrixSpec, B: MatrixSpec,
                          policy: ConvergencePolicy | None = None,
                          cap: int = 64) -> CauchyBinetReport:
    """Minor-sum expansion for an m-by-infinite ``A`` and infinite-by-m ``B``.

    Selections are enumerated in order of increasing maximal column
    index (every selection inside ``{1..t}`` precedes any using ``t+1``),
    which makes the partial sums a well-defined sequence; ``cap`` bounds
    the largest index explored.  The report also carries the determinant
    of the convergence-checked product ``A B`` and the gap between the
    two values.
    """
    policy = policy or ConvergencePolicy()
    if not is_finite_extent(A.rows):
        raise ExtentMismatchError("row count of the left factor must be finite")
    m = int(A.rows)
    if is_finite_extent(A.cols) or is_finite_extent(B.rows):
        raise ExtentMismatchError("inner extents must be infinite here; use cauchy_binet")
    if not (is_finite_extent(B.cols) and int(B.cols) == m):
        raise ExtentMismatchError(f"right factor must have {m} columns")
    if cap < m:
        raise ValueError(f"cap {cap} smaller than selection size {m}")

    # the m-by-t and t-by-m sections hold every column of A and row of B
    # that a selection inside {1..t} reads
    a_sections, b_sections = Sections(A), Sections(B)

    def term(q):
        t = m + q - 1  # largest column index of all selections in this term
        a, b = a_sections.array(t), b_sections.array(t)
        if m == 1:
            return float(a[0, t - 1] * b[t - 1, 0])
        return _minor_sum(a, b, (head + (t - 1,) for head in combinations(range(t - 1), m - 1)))

    capped = ConvergencePolicy(tol=policy.tol, window=policy.window,
                               max_terms=min(policy.max_terms, cap - m + 1))
    rep = sum_series(term, capped)

    product = matmul(A, B, policy)
    pd = det_oracle(truncate(product.matrix, m, m))
    return CauchyBinetReport(rep, pd, abs(rep.estimate - pd))
