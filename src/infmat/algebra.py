"""Sums, scalar multiples, products and traces of oracle-backed matrices.

Products with an infinite inner dimension are the delicate part: each
requested entry is the sum of a series, evaluated in ascending index
order and convergence-checked.  When both operands declare bounded
structure (bands, finite support, a diagonal) the inner index set is
finite and entries are computed exactly instead.  A product over an
infinite inner dimension is returned lazily with a sampled certification
pass over a fixed index probe; whatever the probe finds, entries keep
their individual reports available on demand.  The probe is summed as
one batch of series (:class:`~infmat.series.SeriesBatch`); the terms of
every series entry come from the leading entries of its row of the left
factor and its column of the right one, each read once by block for the
whole product.  One function, :func:`_product_entries`, gives the
probe, every later entry, and the entries of ``A Aᵀ`` and ``A′A′ᵀ`` that
:func:`~infmat.bases_orth.orthogonalize` reads (Gram block, check): an
inner product of rows is a product entry.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import count
from typing import Callable

import numpy as np

from ._dense import product_ascending
from .errors import ExtentMismatchError
from .matrix_core import (DenseMatrix, DecayCertificate, Lines, MatrixSpec, clip_extent,
                          extents_equal, is_finite_extent, truncate)
from .series import (CONVERGED, DIVERGED, ConvergencePolicy, ConvergenceReport,
                     GeometricTail, SeriesBatch, exact_report, sum_series)

PROBE_SIDE = 8

STATUS_CONVERGED = "converged"
STATUS_PARTIAL = "partial"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class ProductResult:
    """A product plus the evidence that its entries exist.

    ``per_entry_reports`` holds the probe sample for infinite inner
    dimensions; ``entry_report`` gives the report for any index of the
    matrix, and raises :class:`IndexError` outside it, as ``at`` does.
    """

    matrix: MatrixSpec
    per_entry_reports: dict[tuple[int, int], ConvergenceReport]
    overall_status: str
    _reporter: Callable[[int, int], ConvergenceReport] | None = field(
        default=None, repr=False, compare=False)

    def entry_report(self, i: int, j: int) -> ConvergenceReport:
        self.matrix.check_index(i, j)
        if self._reporter is None:
            return exact_report(self.matrix.entry(i, j), 1)
        return self._reporter(i, j)


def add(A: MatrixSpec, B: MatrixSpec) -> MatrixSpec:
    """Entrywise sum; patterns join, certificates combine when possible."""
    if not (extents_equal(A.rows, B.rows) and extents_equal(A.cols, B.cols)):
        raise ExtentMismatchError(
            f"cannot add {A.rows}x{A.cols} and {B.rows}x{B.cols}")
    ea, eb = A.entry, B.entry

    def entry(i, j, _ea=ea, _eb=eb):
        return _ea(i, j) + _eb(i, j)

    # the wider of two bands, the box spanning two boxes, else no pattern
    bandwidth = support = None
    if A.bandwidth is not None and B.bandwidth is not None:
        bandwidth = max(A.bandwidth, B.bandwidth)
    elif A.support is not None and B.support is not None:
        support = (max(A.support[0], B.support[0]), max(A.support[1], B.support[1]))
    decay = None
    if A.decay is not None and B.decay is not None:
        decay = DecayCertificate(A.decay.C + B.decay.C, max(A.decay.r, B.decay.r))
    return MatrixSpec(A.rows, A.cols, entry, decay=decay, bandwidth=bandwidth,
                      support=support)


def scale(c: float, A: MatrixSpec) -> MatrixSpec:
    """Scalar multiple; the decay certificate rescales with ``|c|``."""
    c = float(c)
    ea = A.entry

    def entry(i, j, _ea=ea, _c=c):
        return _c * _ea(i, j)

    decay = None
    if A.decay is not None and c != 0.0:
        decay = DecayCertificate(abs(c) * A.decay.C, A.decay.r)
    return MatrixSpec(A.rows, A.cols, entry, decay=decay, bandwidth=A.bandwidth,
                      support=A.support)


def shift_diagonal(A: MatrixSpec, c: float) -> MatrixSpec:
    """``A + c * identity``; used for characteristic-value shifts."""
    ea = A.entry

    def entry(i, j, _ea=ea, _c=float(c)):
        v = _ea(i, j)
        return v + _c if i == j else v

    # a box of r rows and c columns lies within the band max(r, c) - 1
    bandwidth = A.bandwidth if A.support is None else max(A.support) - 1
    return MatrixSpec(A.rows, A.cols, entry, bandwidth=bandwidth)


def _intersect_supports(sa, sb) -> tuple[int, int] | None:
    """The inner index range of a row support ``sa`` and a column support
    ``sb``, or None if both are unbounded (a finite inner extent bounds
    both)."""
    spans = [s for s in (sa, sb) if s is not None]
    if not spans:
        return None
    return max(s[0] for s in spans), min(s[1] for s in spans)


def _product_tail(A: MatrixSpec, B: MatrixSpec) -> Callable[[int, int], GeometricTail | None]:
    """``tail(i, j)``, the bound that the decay certificates give on the
    terms of entry (i, j) of A B, or None without both."""
    da, db = A.decay, B.decay
    if da is None or db is None:
        return lambda i, j: None
    # |A(i,l) B(l,j)| <= Ca Cb ra^i rb^j (ra rb)^l
    return lambda i, j: GeometricTail(da.C * db.C * da.r ** i * db.r ** j, da.r * db.r)


def _series_entry(A, B, i, j, policy, tail, batch):
    """The report of product entry (i, j), a series with the tail bound
    ``tail``: series ``k`` of the batch ``batch = (group, k)``."""
    ea, eb = A.entry, B.entry

    def term(l, _ea=ea, _eb=eb, _i=i, _j=j):
        return _ea(_i, l) * _eb(l, _j)

    return sum_series(term, policy, tail, batch)


def _line_product(left, right, pairs):
    """Term runs of ``left[p][l] * right[q][l]`` for a
    :class:`~infmat.series.SeriesBatch`, one series per ``(p, q)`` in
    ``pairs``.

    ``left`` and ``right`` map n to the first n entries of some lines, as
    :class:`Lines` does, or to ``None``; ``p`` and ``q`` pick one line of
    each (0-based).  A run is ``None`` where either side is.
    """
    p, q = np.array(pairs, dtype=int).reshape(-1, 2).T

    def runs(k0, k1, rows):
        a = left(k1 - 1)
        b = None if a is None else right(k1 - 1)
        if b is None:
            return None
        with np.errstate(all="ignore"):  # a non-finite run goes back to term
            return a[p[rows], k0 - 1:] * b[q[rows], k0 - 1:]

    return runs


def _exact_sum(term: Callable[[int], float],
               span: tuple[int, int]) -> ConvergenceReport:
    """Exact report of ``term(lo) + ... + term(hi)``, summed in ascending
    order; an empty span (``lo > hi``) sums to 0 with no terms."""
    lo, hi = span
    s = 0.0
    for l in range(lo, hi + 1):
        s += term(l)
    return exact_report(s, max(0, hi - lo + 1))


def _product_entries(A, B, wanted, left, right, policy, tail):
    """The reports of the entries (i, j) of A B, one per ``(i, j, p, q)`` of
    ``wanted``, in order; row i of A is line p of ``left``, column j of B
    line q of ``right`` (readers as :func:`_line_product` takes them).  An
    entry with a finite inner span is its exact ascending sum, the others
    series summed as one :class:`SeriesBatch`, the terms of entry (i, j)
    bounded by ``tail(i, j)`` (see :func:`_product_tail`)."""
    spans = [_intersect_supports(A.row_support(i), B.col_support(j)) for i, j, _, _ in wanted]
    series = [w for w, span in zip(wanted, spans) if span is None]
    group = SeriesBatch([tail(i, j) for i, j, _, _ in series],
                        policy, _line_product(left, right, [(p, q) for _, _, p, q in series]))
    k = count()
    for (i, j, _, _), span in zip(wanted, spans):
        if span is not None:
            yield _exact_sum(lambda l: A.entry(i, l) * B.entry(l, j), span)
        else:
            yield _series_entry(A, B, i, j, policy, tail(i, j), (group, next(k)))


def matmul(A: MatrixSpec, B: MatrixSpec,
           policy: ConvergencePolicy | None = None) -> ProductResult:
    """Product of two oracle matrices.

    Finite inner dimensions give exact ascending-order sums.  Infinite
    inner dimensions give a lazy result whose entries are series sums; a
    fixed probe over the leading indices certifies a sample of entries at
    construction, and any diverging probe entry marks the whole product
    ``failed`` (data remains available for inspection).
    """
    policy = policy or ConvergencePolicy()
    if not extents_equal(A.cols, B.rows):
        raise ExtentMismatchError(f"inner extents differ: {A.cols} vs {B.rows}")
    inner = A.cols

    if (is_finite_extent(inner) and is_finite_extent(A.rows)
            and is_finite_extent(B.cols)):
        da = truncate(A, A.rows, inner).data
        db = truncate(B, B.rows, B.cols).data
        return ProductResult(DenseMatrix(product_ascending(da, db)), {},
                             STATUS_CONVERGED)

    # one reader per row of A and per column of B for the whole product,
    # each grown once for all the entries that share it: the probe's rows
    # and columns read as one block each, the others one line at a time
    pr, pc = clip_extent(A.rows, PROBE_SIDE), clip_extent(B.cols, PROBE_SIDE)
    probe_rows, probe_cols = Lines(A, range(1, pr + 1), 0), Lines(B, range(1, pc + 1), 1)
    a_row = cache(lambda i: (probe_rows, i - 1) if i <= pr else (Lines(A, [i], 0), 0))
    b_col = cache(lambda j: (probe_cols, j - 1) if j <= pc else (Lines(B, [j], 1), 0))

    tail = _product_tail(A, B)
    probe = [(i, j) for i in range(1, pr + 1) for j in range(1, pc + 1)]
    reports = dict(zip(probe, _product_entries(
        A, B, [(i, j, i - 1, j - 1) for i, j in probe], probe_rows, probe_cols, policy, tail)))

    def reporter(i, j):
        if (i, j) not in reports:
            (left, p), (right, q) = a_row(i), b_col(j)
            reports[(i, j)], = _product_entries(A, B, [(i, j, p, q)], left, right, policy, tail)
        return reports[(i, j)]

    def entry(i, j):
        return reporter(i, j).estimate

    bands = (A.bandwidth, B.bandwidth)
    bandwidth = None if None in bands else sum(bands)
    decay = None
    if A.decay is not None and B.decay is not None and not is_finite_extent(inner):
        ra, rb = A.decay.r, B.decay.r
        decay = DecayCertificate(A.decay.C * B.decay.C * ra * rb / (1 - ra * rb),
                                 max(ra, rb))
    out = MatrixSpec(A.rows, B.cols, entry, decay=decay, bandwidth=bandwidth)

    probed = dict(reports)
    statuses = {rep.status for rep in probed.values()}
    if statuses <= {CONVERGED}:
        overall = STATUS_CONVERGED
    elif DIVERGED in statuses:
        overall = STATUS_FAILED
    else:
        overall = STATUS_PARTIAL
    return ProductResult(out, probed, overall, _reporter=reporter)


def matvec(A: MatrixSpec, x: MatrixSpec,
           policy: ConvergencePolicy | None = None
           ) -> tuple[MatrixSpec, dict[int, ConvergenceReport]]:
    """``A x`` for a vector ``x``, a spec with one column: the one-column
    :func:`matmul`, with the reports of its first ``PROBE_SIDE`` entries
    by row index."""
    product = matmul(A, x, policy)
    reports = {i: product.entry_report(i, 1)
               for i in range(1, clip_extent(A.rows, PROBE_SIDE) + 1)}
    return product.matrix, reports


def trace_partial(A: MatrixSpec,
                  policy: ConvergencePolicy | None = None) -> ConvergenceReport:
    """Diagonal sum: exact for finite matrices, a checked series otherwise."""
    policy = policy or ConvergencePolicy()
    if not A.is_square:
        raise ExtentMismatchError(f"trace requires a square matrix, got {A.rows}x{A.cols}")

    def term(k):
        return A.entry(k, k)

    if is_finite_extent(A.rows):
        return _exact_sum(term, (1, A.rows))

    tail = None
    if A.decay is not None:
        # |A(k,k)| <= C r^(2k) = C (r^2)^k
        tail = GeometricTail(A.decay.C, A.decay.r ** 2)
    return sum_series(term, policy, tail=tail)
