"""Inversion by geometric operator series, determinant-ratio solving,
numerical rank, and rank-comparison compatibility verdicts.

Infinite systems are never solved "at infinity": every quantity is the
stabilized limit of finite truncations under a schedule, and each
reported number carries its convergence report.
"""

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from ._dense import norm_inf, rank_of_array
from .algebra import Vector
from .determinant import det_oracle, det_section
from .errors import (ConvergenceFailureError, ExtentMismatchError,
                     PreconditionError, SingularSystemError)
from .matrix_core import (DenseMatrix, MatrixSpec, Sections, TruncationSchedule,
                          _checked, extents_equal, is_finite_extent, truncate)
from .series import (DIVERGED, ConvergencePolicy, ConvergenceReport,
                     exact_report, limit_of_sequence, stabilize_vector)

RANK_PIVOT_SCALE = 1e-10

ROUTE_CRAMER = "cramer"
ROUTE_INVERSE = "inverse-multiply"


@dataclass(frozen=True)
class InverseReport:
    """Outcome of a series inversion.

    ``matrix`` is dense for finite input and a lazy spec (entries
    stabilized blockwise over the schedule) for infinite input.
    ``residual`` is the max-row-sum norm of ``A A^-1 - I`` on the block
    that was actually evaluated.
    """

    matrix: DenseMatrix | MatrixSpec
    norm_check: float
    series_terms: int
    residual: float
    _block: Callable[[int, int], tuple[DenseMatrix, ConvergenceReport]] | None = field(
        default=None, repr=False, compare=False)

    def block_report(self, m: int, n: int) -> tuple[DenseMatrix, ConvergenceReport]:
        """Top-left section of the inverse with its stabilization report."""
        if self._block is None:
            dm = self.matrix if isinstance(self.matrix, DenseMatrix) else None
            return truncate(dm, m, n), exact_report(0.0, 1)
        return self._block(m, n)


@dataclass(frozen=True)
class SolveReport:
    """Stabilized answers for a linear system.

    Which fields are populated depends on the question asked:
    compatibility checks fill the rank reports, solution routes fill
    ``unknowns`` (requested index -> report) and, when the full final
    truncation was solved, ``residual``.
    """

    compatible: bool | None
    rank_A: ConvergenceReport | None
    rank_Ab: ConvergenceReport | None
    unknowns: dict[int, ConvergenceReport]
    route: str | None
    residual: float | None = None
    trace_reports: dict | None = None

    @property
    def verdict(self) -> str:
        if self.rank_A is None or self.rank_Ab is None:
            return "compatible" if self.compatible else "incompatible"
        if not (self.rank_A.converged and self.rank_Ab.converged):
            return "undetermined"
        return "compatible" if self.compatible else "incompatible"


def _power_sum(first: np.ndarray, step: Callable[[np.ndarray], np.ndarray],
               policy: ConvergencePolicy) -> tuple[np.ndarray, int]:
    """``first + step(first) + step(step(first)) + ...`` and its term count.

    Stops once ``window`` successive terms have ``norm_inf <= tol``, or at
    the first exactly zero term.
    """
    total = np.array(first, dtype=float)
    term = first
    quiet = 0
    for k in range(1, policy.max_terms + 1):
        term = step(term)
        total += term
        tn = norm_inf(term)
        if tn == 0.0:
            return total, k
        if tn <= policy.tol:
            quiet += 1
            if quiet >= policy.window:
                return total, k
        else:
            quiet = 0
    raise ConvergenceFailureError(
        f"power series still moving after {policy.max_terms} terms")


def _neumann_sum(a: np.ndarray, policy: ConvergencePolicy) -> tuple[np.ndarray, int]:
    """Sum of powers of (I - a) until the power norm stays under tol."""
    eye = np.eye(a.shape[0])
    x = eye - a
    return _power_sum(eye, lambda p: p @ x, policy)


def _norm_check_infinite(t: np.ndarray, perturbation: MatrixSpec | None) -> float:
    """Measured norm of I - A on the section ``t``, plus certificate tail."""
    size = t.shape[0]
    x = np.eye(size) - t
    row_sums = np.sum(np.abs(x), axis=1)
    if perturbation is not None and perturbation.decay is not None:
        C, r = perturbation.decay.C, perturbation.decay.r
        tails = C * r ** np.arange(1, size + 1) * r ** (size + 1) / (1 - r)
        row_sums = row_sums + tails
        unseen = C * r ** (size + 1) * r / (1 - r)
        return float(max(np.max(row_sums), unseen))
    return float(np.max(row_sums))


def neumann_inverse(A: MatrixSpec | DenseMatrix,
                    policy: ConvergencePolicy | None = None,
                    schedule: TruncationSchedule | None = None,
                    perturbation: MatrixSpec | None = None) -> InverseReport:
    """Invert ``A`` by summing powers of ``I - A``.

    Requires ``norm_inf(I - A) < 1``; for infinite specs the norm is
    measured on the largest scheduled truncation, tightened by an
    analytic tail when ``A = I + P`` and the perturbation ``P`` (passed
    explicitly) carries a decay certificate.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()

    if isinstance(A, DenseMatrix) or is_finite_extent(A.rows):
        dm = A if isinstance(A, DenseMatrix) else truncate(A, A.rows, A.cols)
        if dm.m != dm.n:
            raise ExtentMismatchError(f"inverse of non-square {dm.m}x{dm.n}")
        norm = norm_inf(np.eye(dm.m) - dm.data)
        if norm >= 1.0:
            raise PreconditionError(
                f"norm of I - A is {norm:.6g} >= 1", measured=norm)
        total, terms = _neumann_sum(dm.data, policy)
        residual = norm_inf(dm.data @ total - np.eye(dm.m))
        return InverseReport(DenseMatrix(total), norm, terms, residual)

    if not A.is_square:
        raise ExtentMismatchError(f"inverse of non-square {A.rows}x{A.cols}")
    largest = schedule.sizes()[-1]
    sections = Sections(A)
    norm = _norm_check_infinite(sections(largest).data, perturbation)
    if norm >= 1.0:
        raise PreconditionError(
            f"norm of I - A is {norm:.6g} >= 1 on the {largest}-truncation",
            measured=norm)

    sums: dict[int, tuple[np.ndarray, int]] = {}

    def section(n):
        hit = sums.get(n)
        if hit is None:
            hit = _neumann_sum(sections(n).data, policy)
            sums[n] = hit
        return hit

    @cache
    def block(m, n):
        sizes = [s for s in schedule.sizes() if s >= max(m, n)]
        if not sizes:
            raise ExtentMismatchError(
                f"block {m}x{n} exceeds the schedule cap {largest}")
        flat, rep = stabilize_vector(
            lambda s: section(s)[0][:m, :n].ravel(), sizes, policy)
        return DenseMatrix(flat.reshape(m, n)), rep

    def entry(i, j):
        sizes = [s for s in schedule.sizes() if s >= max(i, j)]
        if not sizes:
            raise ExtentMismatchError(
                f"entry ({i}, {j}) exceeds the schedule cap {largest}")
        rep = limit_of_sequence(lambda s: float(section(s)[0][i - 1, j - 1]),
                                sizes, policy)
        return rep.estimate

    lazy = MatrixSpec(A.rows, A.cols, entry)

    # probe the leading block once so terms and residual reflect real work
    probe = min(schedule.start, largest)
    _, probe_rep = block(probe, probe)
    probed = max((n for n in sums), default=largest)
    smat, terms = section(probed)
    residual = norm_inf(sections(probed).data @ smat - np.eye(probed))
    return InverseReport(lazy, norm, terms, residual, _block=block)


def _dense_rank(arr: np.ndarray) -> float:
    """Rank with pivots compared against ``1e-10`` times the array norm."""
    return float(rank_of_array(arr, RANK_PIVOT_SCALE * norm_inf(arr)))


def _rank_limit(value_at: Callable[[int], float], M: MatrixSpec,
                schedule: TruncationSchedule, policy: ConvergencePolicy):
    """``value_at`` exactly at a finite spec's full size, else its schedule limit."""
    if is_finite_extent(M.rows) and is_finite_extent(M.cols):
        return exact_report(value_at(max(M.rows, M.cols)), 1)
    return limit_of_sequence(value_at, schedule, policy)


def rank_of(M: MatrixSpec | DenseMatrix,
            schedule: TruncationSchedule | None = None,
            policy: ConvergencePolicy | None = None) -> ConvergenceReport:
    """Numerical rank; for infinite specs, the stabilized truncation rank.

    Pivots are compared against ``1e-10`` times the truncation norm.  A
    rank that keeps growing to the schedule cap stays ``undetermined``.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()

    M = M.as_spec() if isinstance(M, DenseMatrix) else M
    sections = Sections(M)
    return _rank_limit(lambda n: _dense_rank(sections(n).data), M, schedule, policy)


def check_compatibility(A: MatrixSpec, b: Vector,
                        schedule: TruncationSchedule | None = None,
                        policy: ConvergencePolicy | None = None) -> SolveReport:
    """Compare the stabilized ranks of ``A`` and of ``A`` augmented by ``b``.

    The system is compatible exactly when both ranks stabilized and are
    equal; an unstabilized rank propagates as an ``undetermined`` verdict.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if not extents_equal(A.rows, b.extent):
        raise ExtentMismatchError(f"rows {A.rows} vs right-hand side {b.extent}")

    sections = Sections(A)

    def augmented(n):
        a = sections(n).data
        return np.column_stack([a, [b.entry(i) for i in range(1, a.shape[0] + 1)]])

    ra = _rank_limit(lambda n: _dense_rank(sections(n).data), A, schedule, policy)
    rab = _rank_limit(lambda n: _dense_rank(augmented(n)), A, schedule, policy)
    ok = ra.converged and rab.converged and ra.estimate == rab.estimate
    return SolveReport(compatible=ok, rank_A=ra, rank_Ab=rab, unknowns={},
                       route=None)


def _replace_column(A: MatrixSpec, b: Vector, col: int) -> MatrixSpec:
    ea, eb = A.entry, b.entry

    def entry(i, j, _ea=ea, _eb=eb, _col=col):
        return _eb(i) if j == _col else _ea(i, j)

    return MatrixSpec(A.rows, A.cols, entry)


def cramer_solve(A: MatrixSpec, b: Vector, wanted: list[int] | None = None,
                 schedule: TruncationSchedule | None = None,
                 policy: ConvergencePolicy | None = None) -> SolveReport:
    """Solve a square system through determinant ratios.

    Each requested unknown is the stabilized ratio of two truncation
    determinants (the ratio is stabilized as one quantity, since common
    drift cancels).  A system determinant that diverges or settles within
    ``tol`` of 0 raises :class:`SingularSystemError`; one that is only
    undetermined (a schedule too short to settle) leaves the verdict to
    each unknown's ratio limit.  The classical side condition --
    convergence of the diagonal series of the matrix and of each
    column-replaced matrix -- is recorded in ``trace_reports`` but not
    enforced.
    """
    from .algebra import trace_partial

    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if not A.is_square:
        raise ExtentMismatchError(f"square system required, got {A.rows}x{A.cols}")
    if not extents_equal(A.rows, b.extent):
        raise ExtentMismatchError(f"rows {A.rows} vs right-hand side {b.extent}")

    if is_finite_extent(A.rows):
        n = int(A.rows)
        base = truncate(A, n, n)
        det_a = det_oracle(base)
        if abs(det_a) <= policy.tol:
            raise SingularSystemError(f"determinant {det_a:.6g} within tolerance of zero")
        idx = list(wanted) if wanted is not None else list(range(1, n + 1))
        bvals = np.array([b.entry(i) for i in range(1, n + 1)])
        unknowns = {}
        xs = {}
        for i in idx:
            replaced = np.array(base.data)
            replaced[:, i - 1] = bvals
            x = det_oracle(DenseMatrix(replaced)) / det_a
            xs[i] = x
            unknowns[i] = exact_report(x, 1)
        residual = None
        if set(idx) >= set(range(1, n + 1)):
            xv = np.array([xs[i] for i in range(1, n + 1)])
            residual = norm_inf(np.atleast_1d(base.data @ xv - bvals))
        return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                           unknowns=unknowns, route=ROUTE_CRAMER,
                           residual=residual)

    # the sections of A grow along the schedule; each serves det A and,
    # in a copy with column i overwritten by b, the numerator of unknown i
    sections = Sections(A)

    @cache
    def det_a_at(n):
        return det_section(sections(n), policy)

    def det_replaced_at(n, col):
        if col > n:
            return det_a_at(n)
        column = [_checked(b.entry(i), i, col) for i in range(1, n + 1)]
        t = np.array(sections(n).data)
        t[:, col - 1] = column
        return det_section(DenseMatrix(t), policy)

    overall = limit_of_sequence(det_a_at, schedule, policy)
    if overall.status == DIVERGED:
        raise SingularSystemError(
            f"system determinant did not stabilize ({overall.status})")
    if abs(overall.estimate) <= policy.tol:
        raise SingularSystemError(f"system determinant {overall.estimate:.6g} ~ 0")

    idx = list(wanted) if wanted is not None else list(range(1, schedule.start + 1))
    unknowns = {}
    xs = {}
    # the diagonal-series side condition is recorded, not enforced, so its
    # probe gets a reduced term budget
    trace_policy = ConvergencePolicy(tol=policy.tol, window=policy.window,
                                     max_terms=min(policy.max_terms, 4096))
    traces = {"A": trace_partial(A, trace_policy)}
    for i in idx:
        rep = limit_of_sequence(
            lambda n, _i=i: det_replaced_at(n, _i) / det_a_at(n), schedule, policy)
        unknowns[i] = rep
        xs[i] = rep.estimate
        traces[i] = trace_partial(_replace_column(A, b, i), trace_policy)

    residual = None
    final = schedule.sizes()[-1]
    if set(idx) >= set(range(1, final + 1)):
        xv = np.array([xs[i] for i in range(1, final + 1)])
        an = sections(final).data
        bn = np.array([b.entry(i) for i in range(1, final + 1)])
        residual = norm_inf(np.atleast_1d(an @ xv - bn))
    return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                       unknowns=unknowns, route=ROUTE_CRAMER,
                       residual=residual, trace_reports=traces)


def _apply_series(a: np.ndarray, bv: np.ndarray, policy: ConvergencePolicy) -> np.ndarray:
    """x = sum_k (I - a)^k b without materializing the inverse."""
    eye_minus = np.eye(a.shape[0]) - a
    return _power_sum(np.asarray(bv, dtype=float), lambda w: eye_minus @ w, policy)[0]


def solve_via_inverse(A: MatrixSpec | DenseMatrix, b: Vector,
                      policy: ConvergencePolicy | None = None,
                      schedule: TruncationSchedule | None = None,
                      wanted: list[int] | None = None) -> SolveReport:
    """Solve by applying the inverse series directly to the right-hand side.

    Shares the norm precondition with :func:`neumann_inverse`.  For
    infinite systems the requested unknowns are stabilized across
    truncations; the residual is evaluated on the final truncation.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()

    if isinstance(A, DenseMatrix) or is_finite_extent(A.rows):
        dm = A if isinstance(A, DenseMatrix) else truncate(A, A.rows, A.cols)
        if dm.m != dm.n:
            raise ExtentMismatchError(f"square system required, got {dm.m}x{dm.n}")
        norm = norm_inf(np.eye(dm.m) - dm.data)
        if norm >= 1.0:
            raise PreconditionError(f"norm of I - A is {norm:.6g} >= 1",
                                    measured=norm)
        bv = np.array([b.entry(i) for i in range(1, dm.m + 1)])
        x = _apply_series(dm.data, bv, policy)
        residual = float(np.max(np.abs(dm.data @ x - bv)))
        unknowns = {i: exact_report(float(x[i - 1]), 1) for i in range(1, dm.m + 1)}
        return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                           unknowns=unknowns, route=ROUTE_INVERSE,
                           residual=residual)

    if not A.is_square:
        raise ExtentMismatchError(f"square system required, got {A.rows}x{A.cols}")
    largest = schedule.sizes()[-1]
    sections = Sections(A)
    norm = _norm_check_infinite(sections(largest).data, None)
    if norm >= 1.0:
        raise PreconditionError(
            f"norm of I - A is {norm:.6g} >= 1 on the {largest}-truncation",
            measured=norm)

    solutions: dict[int, np.ndarray] = {}

    def solution_at(n):
        x = solutions.get(n)
        if x is None:
            an = sections(n).data
            bn = np.array([b.entry(i) for i in range(1, n + 1)])
            x = _apply_series(an, bn, policy)
            solutions[n] = x
        return x

    idx = list(wanted) if wanted is not None else list(range(1, schedule.start + 1))
    top = max(idx)
    sizes = [s for s in schedule.sizes() if s >= top]
    if not sizes:
        raise ExtentMismatchError(f"requested index {top} exceeds schedule cap")
    unknowns = {}
    for i in idx:
        rep = limit_of_sequence(lambda n, _i=i: float(solution_at(n)[_i - 1]),
                                sizes, policy)
        unknowns[i] = rep
    final = max(solutions)
    an = sections(final).data
    bn = np.array([b.entry(i) for i in range(1, final + 1)])
    residual = float(np.max(np.abs(an @ solution_at(final) - bn)))
    return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                       unknowns=unknowns, route=ROUTE_INVERSE, residual=residual)
