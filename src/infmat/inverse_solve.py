"""Inversion by geometric operator series, determinant-ratio solving,
numerical rank, and rank-comparison compatibility verdicts.

Infinite systems are never solved "at infinity": every quantity is the
stabilized limit of finite truncations under a schedule, and each
reported number carries its convergence report.
"""

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from ._dense import norm_inf, rank_of_array
from .determinant import ROUTE_LU, DetReport, det_section
from .errors import (ConvergenceFailureError, ExtentMismatchError,
                     OracleValueError, PreconditionError, SingularSystemError)
from .matrix_core import (INFINITE, DenseMatrix, MatrixSpec, Sections,
                          TruncationSchedule, _checked, extents_equal,
                          is_finite_extent)
from .series import (DIVERGED, ConvergencePolicy, ConvergenceReport,
                     limit_sizes, section_limit, section_limit_vector)

RANK_PIVOT_SCALE = 1e-10

ROUTE_CRAMER = "cramer"
ROUTE_INVERSE = "inverse-multiply"


@dataclass(frozen=True)
class InverseReport:
    """Outcome of a series inversion.

    ``matrix`` is a lazy spec whose entries are limits over the sections
    of ``A``; ``block_report`` gives a top-left block with its report.
    For a finite ``A`` both are exact, read off the inverse of the whole
    matrix.  ``residual`` is the max-row-sum norm of ``A A^-1 - I`` on the
    section that was actually evaluated.
    """

    matrix: MatrixSpec
    norm_check: float
    series_terms: int
    residual: float
    _block: Callable[[int, int], tuple[DenseMatrix, ConvergenceReport]] = field(
        repr=False, compare=False)

    def block_report(self, m: int, n: int) -> tuple[DenseMatrix, ConvergenceReport]:
        """Top-left section of the inverse with its stabilization report."""
        if m < 1 or n < 1:
            raise ValueError(f"section sizes must be >= 1, got {m}x{n}")
        return self._block(m, n)


@dataclass(frozen=True)
class SolveReport:
    """Stabilized answers for a linear system.

    Which fields are populated depends on the question asked:
    compatibility checks fill the rank reports, solution routes fill
    ``unknowns`` (requested index -> report) and, when the full final
    truncation was solved, ``residual``; the Cramer route also fills
    ``condition``, von Koch's normal-determinant condition on ``A``.
    """

    compatible: bool | None
    rank_A: ConvergenceReport | None
    rank_Ab: ConvergenceReport | None
    unknowns: dict[int, ConvergenceReport]
    route: str | None
    residual: float | None = None
    condition: ConvergenceReport | None = None
    _compat: Callable[[], "SolveReport"] | None = field(
        default=None, repr=False, compare=False)

    def compatibility(self) -> "SolveReport":
        """:func:`check_compatibility` of the solved system, read from the
        sections of ``A`` and prefix of ``b`` the solve holds; a report of
        :func:`check_compatibility` returns itself."""
        return self if self._compat is None else self._compat()

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


def _norm_check(t: np.ndarray, perturbation: MatrixSpec | None) -> float:
    """Measured norm of I - A on the section ``t``, plus certificate tail;
    raises :class:`PreconditionError` unless it is below 1."""
    size = t.shape[0]
    x = np.eye(size) - t
    row_sums = np.sum(np.abs(x), axis=1)
    if perturbation is not None and perturbation.decay is not None:
        C, r = perturbation.decay.C, perturbation.decay.r
        tails = C * r ** np.arange(1, size + 1) * r ** (size + 1) / (1 - r)
        row_sums = row_sums + tails
        unseen = C * r ** (size + 1) * r / (1 - r)
        norm = float(max(np.max(row_sums), unseen))
    else:
        norm = float(np.max(row_sums))
    if norm >= 1.0:
        raise PreconditionError(
            f"norm of I - A is {norm:.6g} >= 1 on the {size}-truncation",
            measured=norm)
    return norm


def neumann_inverse(A: MatrixSpec,
                    policy: ConvergencePolicy | None = None,
                    schedule: TruncationSchedule | None = None,
                    perturbation: MatrixSpec | None = None) -> InverseReport:
    """Invert ``A`` by summing powers of ``I - A``.

    Requires ``norm_inf(I - A) < 1``, measured on the largest section the
    limit visits (all of a finite ``A``); for infinite specs it is
    tightened by an analytic tail when ``A = I + P`` and the perturbation
    ``P`` (passed explicitly) carries a decay certificate.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if not A.is_square:
        raise ExtentMismatchError(f"inverse of non-square {A.rows}x{A.cols}")
    sizes = limit_sizes(A.rows, schedule)
    sections = Sections(A)
    # a finite A is seen whole, so it has no unseen tail
    tail = None if is_finite_extent(A.rows) else perturbation
    norm = _norm_check(sections(sizes[-1]), tail)

    sums: dict[int, tuple[np.ndarray, int]] = {}

    def section(n):
        hit = sums.get(n)
        if hit is None:
            hit = _neumann_sum(sections(n), policy)
            sums[n] = hit
        return hit

    @cache
    def block(m, n):
        flat, rep = section_limit_vector(
            lambda s: section(s)[0][:m, :n].ravel(), A.rows, schedule, policy,
            least=max(m, n))
        return DenseMatrix(flat.reshape(m, n)), rep

    def entry(i, j):
        return section_limit(lambda s: float(section(s)[0][i - 1, j - 1]),
                             A.rows, schedule, policy, least=max(i, j)).estimate

    lazy = MatrixSpec(A.rows, A.cols, entry)

    # probe the leading block once so terms and residual reflect real work
    block(sizes[0], sizes[0])
    probed = max(sums)
    smat, terms = section(probed)
    residual = norm_inf(sections(probed) @ smat - np.eye(probed))
    return InverseReport(lazy, norm, terms, residual, _block=block)


def _dense_rank(arr: np.ndarray) -> float:
    """Rank with pivots compared against ``1e-10`` times the array norm."""
    return float(rank_of_array(arr, RANK_PIVOT_SCALE * norm_inf(arr)))


def _section_extent(M: MatrixSpec):
    """Size at which a finite spec's sections stop growing: max(rows, cols)."""
    if is_finite_extent(M.rows) and is_finite_extent(M.cols):
        return max(M.rows, M.cols)
    return INFINITE


def _rhs_prefix(b: MatrixSpec) -> Callable[..., np.ndarray]:
    """``prefix(n, col=None)``: entries 1..n of the vector ``b``, a spec with
    one column, as an array, grown on demand so each entry is evaluated
    once.

    A non-finite entry raises :class:`OracleValueError` at ``(i, col)``,
    the cell it fills when ``b`` replaces column ``col`` of ``A``, or at
    row ``i`` when no column is given.
    """
    known: list[float] = []

    def prefix(n, col=None):
        for i in range(len(known) + 1, n + 1):
            v = float(b.entry(i, 1))
            if col is None and not math.isfinite(v):
                raise OracleValueError(
                    f"right-hand side returned non-finite value at row {i}",
                    index=(i,), value=v)
            known.append(_checked(v, i, col))
        return np.array(known[:n])

    return prefix


def rank_of(M: MatrixSpec,
            schedule: TruncationSchedule | None = None,
            policy: ConvergencePolicy | None = None) -> ConvergenceReport:
    """Numerical rank; for infinite specs, the stabilized truncation rank.

    Pivots are compared against ``1e-10`` times the truncation norm.  A
    rank that keeps growing to the schedule cap stays ``undetermined``.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    sections = Sections(M)
    return section_limit(lambda n: _dense_rank(sections(n)),
                         _section_extent(M), schedule, policy)


def check_compatibility(A: MatrixSpec, b: MatrixSpec,
                        schedule: TruncationSchedule | None = None,
                        policy: ConvergencePolicy | None = None) -> SolveReport:
    """Compare the stabilized ranks of ``A`` and of ``A`` augmented by ``b``.

    The system is compatible exactly when both ranks stabilized and are
    equal; an unstabilized rank propagates as an ``undetermined`` verdict.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if not extents_equal(A.rows, b.rows):
        raise ExtentMismatchError(f"rows {A.rows} vs right-hand side {b.rows}")
    return _compare_ranks(A, Sections(A), _rhs_prefix(b), schedule, policy)


def _compare_ranks(A, sections, rhs, schedule, policy) -> SolveReport:
    """:func:`check_compatibility` over a section store and prefix of ``b``."""
    def augmented(n):
        a = sections(n)
        return np.column_stack([a, rhs(a.shape[0])])

    extent = _section_extent(A)
    ra = section_limit(lambda n: _dense_rank(sections(n)), extent, schedule, policy)
    rab = section_limit(lambda n: _dense_rank(augmented(n)), extent, schedule, policy)
    ok = ra.converged and rab.converged and ra.estimate == rab.estimate
    return SolveReport(compatible=ok, rank_A=ra, rank_Ab=rab, unknowns={},
                       route=None)


def _square_system(A: MatrixSpec, b: MatrixSpec, wanted, schedule):
    """Checks a square system; returns its section sizes, the requested
    unknowns, and a section store of ``A`` and prefix of ``b``."""
    if not A.is_square:
        raise ExtentMismatchError(f"square system required, got {A.rows}x{A.cols}")
    if not extents_equal(A.rows, b.rows):
        raise ExtentMismatchError(f"rows {A.rows} vs right-hand side {b.rows}")
    sizes = limit_sizes(A.rows, schedule)
    idx = list(wanted) if wanted is not None else list(range(1, sizes[0] + 1))
    if not idx:
        raise ValueError("wanted must name at least one unknown")
    return sizes, idx, Sections(A), _rhs_prefix(b)


def cramer_solve(A: MatrixSpec, b: MatrixSpec,
                 wanted: list[int] | None = None,
                 schedule: TruncationSchedule | None = None,
                 policy: ConvergencePolicy | None = None) -> SolveReport:
    """Solve a square system through determinant ratios.

    Each requested unknown (by default the indices of the first section)
    is the ratio of two section determinants, the numerator eliminated
    wherever the system determinant was, stabilized as one quantity
    (common drift cancels) over the sections that hold the largest
    requested index; a finite system's ratios are exact, by elimination.
    A system determinant that diverges or settles within ``tol`` of 0
    raises :class:`SingularSystemError`; one that is only undetermined (a
    schedule too short to settle) leaves the verdict to each unknown's
    ratio limit.

    Von Koch's condition for the rule, a normal determinant (``sum
    |a_ij - delta_ij| < inf``; with a bounded ``b`` the ratios are then
    the bounded solution), is recorded in ``condition``, not enforced: the
    limit of ``sum |T_n - I|`` over the sections the determinant and ratio
    limits grew.  It is never certified: a decay certificate bounds ``A``,
    not ``A - I``.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    sizes, idx, sections, rhs = _square_system(A, b, wanted, schedule)
    # the sections of A grow along the schedule; each serves det A and,
    # in a copy with column i overwritten by b, the numerator of unknown i
    route = ROUTE_LU if is_finite_extent(A.rows) else "auto"
    dets: dict[int, DetReport] = {}

    def det_a_at(n):
        if n not in dets:
            dets[n] = det_section(sections(n), policy, route)
        return dets[n]

    def det_replaced_at(n, col):
        t = np.array(sections(n))
        t[:, col - 1] = rhs(n, col)
        # the route det A took at n; after a series det A, auto, since a
        # replaced section may fail the series' norm rule
        same = ROUTE_LU if det_a_at(n).route == ROUTE_LU else route
        return det_section(t, policy, same).value

    overall = section_limit(lambda n: det_a_at(n).value, A.rows, schedule, policy)
    if overall.status == DIVERGED:
        raise SingularSystemError(
            f"system determinant did not stabilize ({overall.status})")
    if abs(overall.estimate) <= policy.tol:
        raise SingularSystemError(f"system determinant {overall.estimate:.6g} ~ 0")

    top = max(idx)
    unknowns = {}
    for i in idx:
        unknowns[i] = section_limit(lambda n, _i=i: det_replaced_at(n, _i) / det_a_at(n).value,
                                    A.rows, schedule, policy, least=top)
    grown = [n for n in sizes if n <= max(dets)]
    condition = section_limit(lambda n: float(np.abs(sections(n) - np.eye(n)).sum()),
                              A.rows, grown, policy)

    residual = None
    final = sizes[-1]
    if set(idx) >= set(range(1, final + 1)):
        xv = np.array([unknowns[i].estimate for i in range(1, final + 1)])
        residual = norm_inf(np.atleast_1d(sections(final) @ xv - rhs(final)))
    return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                       unknowns=unknowns, route=ROUTE_CRAMER, residual=residual,
                       condition=condition,
                       _compat=lambda: _compare_ranks(A, sections, rhs, schedule, policy))


def _apply_series(a: np.ndarray, bv: np.ndarray, policy: ConvergencePolicy) -> np.ndarray:
    """x = sum_k (I - a)^k b without materializing the inverse."""
    eye_minus = np.eye(a.shape[0]) - a
    return _power_sum(np.asarray(bv, dtype=float), lambda w: eye_minus @ w, policy)[0]


def solve_via_inverse(A: MatrixSpec, b: MatrixSpec,
                      policy: ConvergencePolicy | None = None,
                      schedule: TruncationSchedule | None = None,
                      wanted: list[int] | None = None) -> SolveReport:
    """Solve by applying the inverse series directly to the right-hand side.

    Shares the norm precondition with :func:`neumann_inverse`.  The
    requested unknowns (by default the indices of the first section) are
    stabilized over the sections that hold the largest of them; the
    residual is evaluated on the last section solved.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    sizes, idx, sections, rhs = _square_system(A, b, wanted, schedule)
    _norm_check(sections(sizes[-1]), None)
    solutions: dict[int, np.ndarray] = {}

    def solution_at(n):
        if n not in solutions:
            solutions[n] = _apply_series(sections(n), rhs(n), policy)
        return solutions[n]

    top = max(idx)
    unknowns = {}
    for i in idx:
        unknowns[i] = section_limit(lambda n, _i=i: float(solution_at(n)[_i - 1]),
                                    A.rows, schedule, policy, least=top)
    final = max(solutions)
    residual = float(np.max(np.abs(sections(final) @ solution_at(final)
                                   - rhs(final))))
    return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                       unknowns=unknowns, route=ROUTE_INVERSE, residual=residual,
                       _compat=lambda: _compare_ranks(A, sections, rhs, schedule, policy))
