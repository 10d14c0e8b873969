"""Inversion by geometric operator series, finite-section solving (Cramer's
rule by elimination, or the inverse series applied to the right-hand
side), numerical rank, and rank-comparison compatibility verdicts.

Each section is eliminated once, under one pivot threshold, ``1e-10``
times ``norm_inf(A_n)``: the rank of ``A_n`` is the pivot count of its
sweep, and one sweep of ``[A_n | b_n]`` gives rank ``A_n`` (its pivots
left of b's column), rank ``[A_n | b_n]`` and Cramer's solution
``x_n``.  A solve keeps only the ranks and solution of each section,
and its compatibility check reads them.

Infinite systems are never solved "at infinity": every quantity is the
stabilized limit of finite truncations under a schedule, and each
reported number carries its convergence report.
"""

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from ._dense import Band, Factor, as_array, factor, norm_inf, pivot_norm
from .errors import (ConvergenceFailureError, ExtentMismatchError,
                     OracleValueError, PreconditionError)
from .matrix_core import (INFINITE, DenseMatrix, MatrixSpec, Sections,
                          TruncationSchedule, extents_equal, is_finite_extent)
from .series import (ConvergencePolicy, ConvergenceReport,
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
    ``unknowns`` (requested index -> report) and ``residual``, the
    max-abs residual on the last section solved; the Cramer route also
    fills ``condition``, von Koch's normal-determinant condition on ``A``.
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
        sections of ``A`` and prefix of ``b`` the solve holds and from the
        ranks of the sections Cramer's route swept; a report of
        :func:`check_compatibility` returns itself."""
        return self if self._compat is None else self._compat()

    @property
    def verdict(self) -> str:
        if self.rank_A is None or self.rank_Ab is None:
            return "compatible" if self.compatible else "incompatible"
        if not (self.rank_A.converged and self.rank_Ab.converged):
            return "undetermined"
        return "compatible" if self.compatible else "incompatible"


def _power_sum(first: np.ndarray, term: np.ndarray, step: Callable[[np.ndarray], np.ndarray],
               policy: ConvergencePolicy) -> tuple[np.ndarray, int]:
    """``first + term + step(term) + step(step(term)) + ...`` and the number
    of terms summed after ``first``.

    Stops once ``window`` successive terms have ``norm_inf <= tol``, or at
    the first exactly zero term.
    """
    total = np.array(first, dtype=float)
    quiet = 0
    for k in range(1, policy.max_terms + 1):
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
        term = step(term)
    raise ConvergenceFailureError(
        f"power series still moving after {policy.max_terms} terms")


def _neumann_sum(a: np.ndarray, policy: ConvergencePolicy) -> tuple[np.ndarray, int]:
    """Sum of powers of x = I - a until the power norm stays under tol.

    The powers start at x itself, not at ``I @ x``: for a finite x the
    two differ at most in the signs of zeros, and the sum, which starts
    from I's +0.0 and 1.0, holds no -0.0, so its bits and term count are
    those of the sum from I.  The first product formed is x @ x.
    """
    x = np.eye(a.shape[0]) - a
    return _power_sum(np.eye(a.shape[0]), x, lambda p: p @ x, policy)


def _norm_check(t: np.ndarray, perturbation: MatrixSpec | None) -> float:
    """Measured norm of I - A on the section ``t``, plus certificate tail;
    raises :class:`PreconditionError` unless it is below 1."""
    size = t.shape[0]
    x = np.eye(size) - t
    with np.errstate(over="ignore"):  # an overflowed sum is a norm >= 1, raised below
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
    norm = _norm_check(sections.array(sizes[-1]), tail)

    sums: dict[int, tuple[np.ndarray, int]] = {}

    def section(n):
        hit = sums.get(n)
        if hit is None:
            hit = _neumann_sum(sections.array(n), policy)
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
    residual = norm_inf(sections.array(probed) @ smat - np.eye(probed))
    return InverseReport(lazy, norm, terms, residual, _block=block)


def _factor(a: np.ndarray | Band, rhs: np.ndarray | None = None) -> Factor:
    """The sweep of the section ``a``, or of ``[a | rhs]`` with the signs of
    zeros that Cramer's solution reads, with pivots compared against
    ``1e-10`` times ``norm_inf(a)``: the one threshold of rank,
    compatibility and Cramer's solve."""
    tol = RANK_PIVOT_SCALE * pivot_norm(a)
    if rhs is None:
        return factor(a, tol)
    return factor(np.column_stack((as_array(a), rhs)), tol, zero_signs=True)


def _section_extent(M: MatrixSpec):
    """Size at which a finite spec's sections stop growing: max(rows, cols)."""
    if is_finite_extent(M.rows) and is_finite_extent(M.cols):
        return max(M.rows, M.cols)
    return INFINITE


def _rhs_prefix(b: MatrixSpec) -> Callable[[int], np.ndarray]:
    """``prefix(n)``: entries 1..n of the vector ``b``, a spec with one
    column, as an array, grown on demand so each entry is evaluated once.

    A non-finite entry raises :class:`OracleValueError` naming its row.
    """
    known: list[float] = []

    def prefix(n):
        for i in range(len(known) + 1, n + 1):
            v = float(b.entry(i, 1))
            if not math.isfinite(v):
                raise OracleValueError(
                    f"right-hand side returned non-finite value at row {i}",
                    index=(i,), value=v)
            known.append(v)
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
    return section_limit(lambda n: float(_factor(sections(n)).rank), _section_extent(M),
                         schedule, policy)


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
    return _compare_ranks(A, Sections(A), _rhs_prefix(b), schedule, policy, {})


def _sweep_system(sections: Sections, rhs, ranks: dict, n: int) -> Factor:
    """The one sweep of ``[A_n | b_n]``; records ``ranks[n]``, the ranks of
    ``A_n`` (the pivots left of b's column) and of ``[A_n | b_n]``."""
    a = sections(n)
    f = _factor(a, rhs(a.shape[0]))
    ranks[n] = (sum(p < a.shape[1] for p in f.pivots), f.rank)
    return f


def _compare_ranks(A, sections, rhs, schedule, policy, ranks) -> SolveReport:
    """:func:`check_compatibility` over a section store and prefix of ``b``,
    reading the ranks of each size from ``ranks`` and sweeping the sizes
    it does not hold."""
    def rank(n, k):
        if n not in ranks:
            _sweep_system(sections, rhs, ranks, n)
        return float(ranks[n][k])

    extent = _section_extent(A)
    ra = section_limit(lambda n: rank(n, 0), extent, schedule, policy)
    rab = section_limit(lambda n: rank(n, 1), extent, schedule, policy)
    ok = ra.converged and rab.converged and ra.estimate == rab.estimate
    return SolveReport(compatible=ok, rank_A=ra, rank_Ab=rab, unknowns={},
                       route=None)


def _section_solve(A: MatrixSpec, b: MatrixSpec, wanted, schedule, policy,
                   route: str) -> SolveReport:
    """Solve a square system section by section and take the limits.

    Each section the limits visit is solved whole, ``A_n x_n = b_n``: on
    the Cramer route by one elimination of ``[A_n | b_n]``, which raises
    :class:`SingularSystemError` on a section with no pivot above ``1e-10``
    times ``norm_inf(A_n)``, and whose ranks the compatibility check reads;
    on the inverse route by the inverse series applied to ``b_n``, after
    its norm precondition is checked on the largest section.  The
    requested unknowns (by default the indices of the first section) are
    stabilized over the sections that hold the largest of them; the
    residual is ``norm_inf(A_n x_n - b_n)`` on the last section solved.
    """
    if not A.is_square:
        raise ExtentMismatchError(f"square system required, got {A.rows}x{A.cols}")
    if not extents_equal(A.rows, b.rows):
        raise ExtentMismatchError(f"rows {A.rows} vs right-hand side {b.rows}")
    sizes = limit_sizes(A.rows, schedule)
    idx = list(wanted) if wanted is not None else list(range(1, sizes[0] + 1))
    if not idx:
        raise ValueError("wanted must name at least one unknown")
    sections, rhs = Sections(A), _rhs_prefix(b)
    if route == ROUTE_INVERSE:
        _norm_check(sections.array(sizes[-1]), None)
    solutions: dict[int, np.ndarray] = {}
    ranks: dict[int, tuple[int, int]] = {}

    def solution_at(n):
        if n not in solutions:
            solutions[n] = (_apply_series(sections.array(n), rhs(n), policy)
                            if route == ROUTE_INVERSE else
                            _sweep_system(sections, rhs, ranks, n).solve(n)[:, 0])
        return solutions[n]

    top = max(idx)
    unknowns = {}
    for i in idx:
        unknowns[i] = section_limit(lambda n, _i=i: float(solution_at(n)[_i - 1]),
                                    A.rows, schedule, policy, least=top)
    final = max(solutions)
    residual = float(np.max(np.abs(sections.array(final) @ solution_at(final)
                                   - rhs(final))))
    condition = None
    if route == ROUTE_CRAMER:
        grown = [n for n in sizes if n <= final]
        condition = section_limit(lambda n: float(np.abs(sections.array(n) - np.eye(n)).sum()),
                                  A.rows, grown, policy)
    return SolveReport(compatible=True, rank_A=None, rank_Ab=None,
                       unknowns=unknowns, route=route, residual=residual,
                       condition=condition,
                       _compat=lambda: _compare_ranks(A, sections, rhs, schedule, policy, ranks))


def cramer_solve(A: MatrixSpec, b: MatrixSpec,
                 wanted: list[int] | None = None,
                 schedule: TruncationSchedule | None = None,
                 policy: ConvergencePolicy | None = None) -> SolveReport:
    """Solve a square system by Cramer's rule over its finite sections.

    On a section the ratio ``det(A_n with column i replaced by b_n) /
    det(A_n)`` is ``(A_n^-1 b_n)_i``, so each section is solved by one
    elimination of ``[A_n | b_n]``, which gives every requested unknown at
    once; each unknown is the limit of its section values (see
    :func:`_section_solve`).  A finite system is one exact section.

    Von Koch's condition for the rule, a normal determinant (``sum
    |a_ij - delta_ij| < inf``; with a bounded ``b`` the ratios are then
    the bounded solution), is recorded in ``condition``, not enforced: the
    limit of ``sum |T_n - I|`` over the sections the solve grew.  It is
    never certified: a decay certificate bounds ``A``, not ``A - I``.
    """
    return _section_solve(A, b, wanted, schedule or TruncationSchedule(),
                          policy or ConvergencePolicy(), ROUTE_CRAMER)


def _apply_series(a: np.ndarray, bv: np.ndarray, policy: ConvergencePolicy) -> np.ndarray:
    """x = sum_k (I - a)^k b without materializing the inverse."""
    eye_minus = np.eye(a.shape[0]) - a
    bv = np.asarray(bv, dtype=float)
    return _power_sum(bv, eye_minus @ bv, lambda w: eye_minus @ w, policy)[0]


def solve_via_inverse(A: MatrixSpec, b: MatrixSpec,
                      policy: ConvergencePolicy | None = None,
                      schedule: TruncationSchedule | None = None,
                      wanted: list[int] | None = None) -> SolveReport:
    """Solve by applying the inverse series directly to the right-hand side.

    Shares the norm precondition with :func:`neumann_inverse`; the
    sections are solved and their limits taken as in :func:`_section_solve`.
    """
    return _section_solve(A, b, wanted, schedule or TruncationSchedule(),
                          policy or ConvergencePolicy(), ROUTE_INVERSE)
