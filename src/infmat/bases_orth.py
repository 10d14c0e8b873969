"""Transition matrices between bases, transformation matrices of linear
maps, and row orthogonalization through the Gram block.

Orthogonalization forms the block [G0 | A] with G0 the Gram matrix of
pairwise row inner products, then eliminates using only "add a multiple
of an earlier row to a later row".  Swaps or scalings would break the
orthogonality of the transformed right block, so they are deliberately
unavailable; a zero pivot therefore means dependent rows.  A Gram entry
is an entry of the product A Aᵀ, summed by :mod:`infmat.algebra`'s one
product-entry path: exact for finitely many columns, else a convergence-
checked series; the transformed rows A′ then stay a lazy spec, and the
orthogonality check sums entries of A′A′ᵀ through the same path.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._dense import gauss_solve, norm_inf
from .algebra import _product_entries, _product_tail
from .errors import (DependentRowsError, ExtentMismatchError,
                     GramConvergenceError)
from .matrix_core import (DenseMatrix, Lines, MatrixSpec, Sections,
                          TruncationSchedule, extents_equal, is_finite_extent,
                          transpose, truncate)
from .series import (ConvergencePolicy, ConvergenceReport, GeometricTail,
                     section_limit_vector)

PIVOT_SCALE = 1e-10


@dataclass(frozen=True, init=False, repr=False)
class OrthogonalRows(MatrixSpec):
    """Lazy transformed rows, explicit combinations of the source rows: the
    ``expr`` spec whose column j is the product ``coefficients @ column_j``,
    its block read through ``_lines``, a :class:`Lines` of all source rows."""

    def __init__(self, coefficients: np.ndarray, source: MatrixSpec, _lines: Lines | None = None):
        coeff = np.array(coefficients, dtype=float)
        m = coeff.shape[0]
        lines = _lines or Lines(source, range(1, m + 1))

        def entry(p, j):
            source.check_index(p, j)
            return float((coeff @ np.array([source.entry(t, j) for t in range(1, m + 1)]))[p - 1])

        def block(rows, cols):
            values = lines(int(cols.max()))
            if values is None:
                return None
            out = np.empty((m, cols.size))
            with np.errstate(all="ignore"):  # non-finite values, as entry gives them
                for c, j in enumerate(cols.tolist()):
                    out[:, c] = coeff @ np.array(values[:, j - 1])
            return out if np.array_equal(rows, np.arange(1, m + 1)) else out[rows - 1]

        super().__init__(m, source.cols, entry, block=block)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "source", source)

    def section(self, cols: int) -> DenseMatrix:
        base = truncate(self.source, self.rows, cols).data
        return DenseMatrix(self.coefficients @ base)


@dataclass(frozen=True)
class OrthReport:
    """Outcome of the Gram-block orthogonalization.

    ``G`` is the transformed Gram block (upper triangular with positive
    diagonal on success), ``gram`` the untransformed inner products, and
    ``A_prime`` the transformed rows (dense when columns are finite).
    """

    G: DenseMatrix
    A_prime: DenseMatrix | OrthogonalRows
    max_offdiag_dot: float
    gram: DenseMatrix


@dataclass(frozen=True)
class TransitionResult:
    """A coordinate matrix plus per-column stabilization statuses."""

    matrix: DenseMatrix
    column_status: dict[int, str]
    column_reports: dict[int, ConvergenceReport]


def orthogonalize(A: MatrixSpec,
                  policy: ConvergencePolicy | None = None) -> OrthReport:
    """Bring [Gram | A] to [G | A'] by lower eliminations only.

    Requires finitely many rows, declared linearly independent.  The
    returned rows are orthogonal but not normalized.  The largest
    pairwise inner product among transformed rows is re-measured
    independently (exact dots for finite columns, checked series
    otherwise) and reported as ``max_offdiag_dot``.
    """
    policy = policy or ConvergencePolicy()
    if not is_finite_extent(A.rows):
        raise ExtentMismatchError("row count must be finite")
    m = int(A.rows)
    # the leading entries of all m rows, read by block for the Gram series
    # and the orthogonality check alike
    lines = Lines(A, range(1, m + 1))

    # Gram entry (p, q) is entry (p, q) of the product A Aᵀ, its rows and
    # columns read through ``lines``; entries p <= q, in order
    pairs = [(p, q) for p in range(1, m + 1) for q in range(p, m + 1)]
    gram = np.empty((m, m))
    for (p, q), rep in zip(pairs, _product_entries(
            A, transpose(A), [(p, q, p - 1, q - 1) for p, q in pairs], lines, lines, policy,
            _product_tail(A, transpose(A)))):
        if not rep.converged:
            raise GramConvergenceError(
                f"inner product of rows {p} and {q} {rep.status} "
                f"after {rep.terms_used} terms", pair=(p, q), status=rep.status)
        gram[p - 1, q - 1] = gram[q - 1, p - 1] = rep.estimate
    gram_dm = DenseMatrix(gram)

    g = np.array(gram)
    coeff = np.eye(m)
    pivot_floor = PIVOT_SCALE * max(1.0, norm_inf(gram))
    for k in range(m):
        if abs(g[k, k]) <= pivot_floor:
            raise DependentRowsError(
                f"zero pivot at row {k + 1}: rows are not independent", row=k + 1)
        for l in range(k + 1, m):
            factor = g[l, k] / g[k, k]
            if factor != 0.0:
                g[l, :] -= factor * g[k, :]
                coeff[l, :] -= factor * coeff[k, :]
            g[l, k] = 0.0

    finite_cols = is_finite_extent(A.cols)
    if finite_cols:
        rows = coeff @ truncate(A, m, int(A.cols)).data
        a_prime: DenseMatrix | OrthogonalRows = DenseMatrix(rows)
        prods = rows @ rows.T
        off = prods - np.diag(np.diag(prods))
        max_off = float(np.max(np.abs(off))) if m > 1 else 0.0
    else:
        a_prime = OrthogonalRows(coeff, A, lines)
        amp = None
        if A.decay is not None:
            C, r = A.decay.C, A.decay.r
            amp = np.array([C * sum(abs(coeff[p, q]) * r ** (q + 1)
                                    for q in range(m)) for p in range(m)])

        def tail(p, q):
            # |A'_p(j)| <= amp_p * r^j, so the term is <= amp_p amp_q (r^2)^j
            return None if amp is None else GeometricTail(float(amp[p - 1] * amp[q - 1]), r * r)

        # the check sums the entries p < q of A'A'ᵀ, the rows of A' read by block
        pairs = [(p, q) for p in range(1, m + 1) for q in range(p + 1, m + 1)]
        prime_lines = Lines(a_prime, range(1, m + 1))
        max_off = 0.0
        for (p, q), rep in zip(pairs, _product_entries(
                a_prime, transpose(a_prime), [(p, q, p - 1, q - 1) for p, q in pairs],
                prime_lines, prime_lines, policy, tail)):
            if not rep.converged:
                raise GramConvergenceError(f"orthogonality check for rows {p}, {q} {rep.status}",
                                           pair=(p, q), status=rep.status)
            max_off = max(max_off, abs(rep.estimate))
    return OrthReport(DenseMatrix(g), a_prime, max_off, gram_dm)


def transition_matrix(B: MatrixSpec, B_prime: MatrixSpec, count: int,
                      schedule: TruncationSchedule | None = None,
                      policy: ConvergencePolicy | None = None) -> TransitionResult:
    """Coordinates of each new-basis vector in the old basis.

    A basis is the matrix whose column c holds the coordinates of vector
    c.  Column i of the result holds the coordinates of vector i of
    ``B_prime`` with respect to ``B`` (entry (j, i) is the j-th
    coordinate), obtained by solving the column system on truncations;
    for infinite ambient coordinates each column is stabilized over the
    schedule sizes of at least ``count`` and flagged if it fails to
    settle, and finite ones are solved once, exactly, at the full
    dimension.  ``B`` needs one vector per coordinate and ``B_prime`` at
    least ``count`` vectors of the same coordinates, else
    :class:`ExtentMismatchError` is raised.
    """
    policy = policy or ConvergencePolicy()
    schedule = schedule or TruncationSchedule()
    if count < 1:
        raise ValueError("count must be >= 1")

    extent = B.rows
    if not extents_equal(B.cols, extent):
        raise ExtentMismatchError(f"the old basis has {B.cols} vectors of {extent} "
                                  "coordinates; it needs one vector per coordinate")
    if is_finite_extent(B_prime.cols) and B_prime.cols < count:
        raise ExtentMismatchError(f"the new basis has {B_prime.cols} vectors, "
                                  f"fewer than the {count} asked for")
    if not extents_equal(B_prime.rows, extent):
        raise ExtentMismatchError(f"the new basis has vectors of {B_prime.rows} "
                                  f"coordinates, the old basis {extent}")
    # each coordinate read once; of B', the first ``count`` vectors only
    old = Sections(B)
    new = Sections(MatrixSpec(extent, count, B_prime.entry, decay=B_prime.decay,
                              bandwidth=B_prime.bandwidth, support=B_prime.support,
                              block=B_prime.block))

    @cache
    def solve_at(n):
        # the coordinates of all ``count`` vectors from one elimination
        v_mat = old(n)
        return gauss_solve(v_mat, new(n), PIVOT_SCALE * max(1.0, norm_inf(v_mat)))

    def column(i):
        return section_limit_vector(lambda n: solve_at(n)[:count, i - 1], extent,
                                    schedule, policy, least=count)

    out = np.zeros((count, count))
    reports: dict[int, ConvergenceReport] = {}
    for i in range(1, count + 1):
        out[:, i - 1], reports[i] = column(i)
    statuses = {i: rep.status for i, rep in reports.items()}
    return TransitionResult(DenseMatrix(out), statuses, reports)


def transformation_matrix(L: MatrixSpec, m: int, n: int,
                          target_basis: MatrixSpec | None = None,
                          schedule: TruncationSchedule | None = None,
                          policy: ConvergencePolicy | None = None) -> DenseMatrix:
    """Matrix of a linear map: column i holds the coordinates of the image
    of the i-th domain basis vector, rows indexed by the target basis.

    Column i of ``L`` must supply those coordinates directly; when
    ``target_basis`` (a basis as in :func:`transition_matrix`) is given,
    it is instead the ambient image vector whose coordinates are solved
    for with the transition machinery.
    """
    if not isinstance(m, (int, np.integer)):
        raise ExtentMismatchError("a finite column count is required to assemble "
                                  "the matrix; request a finite section")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if target_basis is None:
        return truncate(L, n, m)

    def padded(i, c):
        # the transition solves max(m, n) columns and the first m are kept;
        # past the domain it is fed zero images, so L is read in columns 1..m
        return L.entry(i, c) if c <= m else 0.0

    result = transition_matrix(target_basis, MatrixSpec(L.rows, max(m, n), padded),
                               max(m, n), schedule, policy)
    return DenseMatrix(result.matrix.data[:n, :m])
