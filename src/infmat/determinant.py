"""Determinants: an elimination oracle, the traced-logarithm series route,
truncation-limit determinants of infinite matrices, and the minor-sum
expansion of det(AB) over increasing column selections.

The series route writes ``det M = exp(tr(log M))`` with ``log`` expanded
about the identity: ``log M = sum_k (-1)^(k+1) (M - I)^k / k``, valid for
``max-row-sum norm of (M - I) < 1``.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._dense import lu_det, norm_inf
from .algebra import matmul
from .errors import ConvergenceFailureError, ExtentMismatchError, PreconditionError
from .matrix_core import (DenseMatrix, MatrixSpec, Sections, TruncationSchedule,
                          is_finite_extent, truncate)
from .series import (ConvergencePolicy, ConvergenceReport, section_limit,
                     sum_series)

ROUTE_LU = "lu-oracle"
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
    """:func:`det_log_series` of the square array ``t``."""
    base = t - np.eye(t.shape[0])
    norm = norm_inf(base)
    if norm >= 1.0:
        raise PreconditionError(
            f"max-row-sum norm of the series base is {norm:.6g} >= 1",
            measured=norm)

    # sum_series asks for the terms in ascending order, one power each
    power = np.eye(t.shape[0])

    def term(k):
        nonlocal power
        power = power @ base
        sign = 1.0 if k % 2 == 1 else -1.0
        return sign * float(np.trace(power)) / k

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


def det_section(t: np.ndarray, policy: ConvergencePolicy, route: str = "auto") -> float:
    """Determinant of a square section array by the selected route.

    ``auto`` takes the log-series whenever the norm precondition it
    measures, ``norm_inf(t - I) < 1``, holds, and elimination otherwise;
    it attempts no series that :func:`log_series_may_apply` rules out.
    """
    if route == ROUTE_LOG_SERIES:
        return _log_series(t, policy).value
    if route == "auto":
        if log_series_may_apply(np.diagonal(t)):
            try:
                return _log_series(t, policy).value
            except PreconditionError:
                pass
    elif route != ROUTE_LU:
        raise ValueError(f"unknown route {route!r}")
    return lu_det(t)


def det_truncation(M: MatrixSpec, n: int, policy: ConvergencePolicy | None = None,
                   route: str = "auto") -> float:
    """Determinant of the n-by-n truncation by the selected route."""
    return det_section(truncate(M, n, n).data, policy or ConvergencePolicy(), route)


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
    route = ROUTE_LU if is_finite_extent(M.rows) else "auto"
    sections = Sections(M)
    rep = section_limit(lambda n: det_section(sections(n), policy, route),
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
    a, b = A.data, B.data
    total = 0.0
    for sel in combinations(range(n), m):
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
        a, b = a_sections(t), b_sections(t)
        if m == 1:
            return float(a[0, t - 1] * b[t - 1, 0])
        total = 0.0
        for head in combinations(range(t - 1), m - 1):
            sel = list(head) + [t - 1]
            total += lu_det(a[:, sel]) * lu_det(b[sel, :])
        return total

    capped = ConvergencePolicy(tol=policy.tol, window=policy.window,
                               max_terms=min(policy.max_terms, cap - m + 1))
    rep = sum_series(term, capped)

    product = matmul(A, B, policy)
    pd = det_oracle(truncate(product.matrix, m, m))
    return CauchyBinetReport(rep, pd, abs(rep.estimate - pd))
