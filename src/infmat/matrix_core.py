"""Matrices of finite or infinite extent as element oracles.

A matrix is a :class:`MatrixSpec`: a pure function ``entry(i, j)`` on
1-based indices together with structural metadata (a band, a finite
support box) and an optional geometric decay certificate.  Finite
arrays are no separate kind: :class:`DenseMatrix` is the spec whose
oracle reads a frozen array.  Every infinite computation in the package
factors through :func:`truncate`, which materializes a top-left section
as a :class:`DenseMatrix`, or :class:`Sections`, which grows one section
along a limit's schedule and hands out read-only arrays, the one store
of sections for every truncation limit; :class:`Lines` grows the leading
entries of single rows or columns for series along an infinite index.

Extents are either a positive ``int`` or the distinguished token
:data:`INFINITE`; operations must branch explicitly on finiteness, no
sentinel numbers are used.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateError, ExtentMismatchError, OracleValueError

# structure labels, read off a spec's pattern
EXPR = "expr"
BANDED = "banded"
FINITE_SUPPORT = "finite-support"

DECAY_SLACK = 1e-15
DECAY_MAX_INDEX = 50


class _Infinite:
    """Singleton token for a countably infinite extent."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

Extent = int | _Infinite


def is_finite_extent(extent: Extent) -> bool:
    return not isinstance(extent, _Infinite)


def check_extent(extent: Extent, name: str = "extent") -> Extent:
    if isinstance(extent, _Infinite):
        return extent
    if isinstance(extent, (int, np.integer)) and extent >= 1:
        return int(extent)
    raise ValueError(f"{name} must be a positive integer or INFINITE, got {extent!r}")


def extents_equal(a: Extent, b: Extent) -> bool:
    if isinstance(a, _Infinite) or isinstance(b, _Infinite):
        return isinstance(a, _Infinite) and isinstance(b, _Infinite)
    return a == b


def clip_extent(extent: Extent, n: int) -> int:
    """Largest usable size not exceeding ``n`` for this extent."""
    return n if isinstance(extent, _Infinite) else min(int(extent), n)


@dataclass(frozen=True)
class DecayCertificate:
    """Declared geometric bound ``|entry(i, j)| <= C * r**(i + j)``."""

    C: float
    r: float

    def __post_init__(self):
        if not (self.C > 0):
            raise CertificateError("C must be positive")
        if not (0 < self.r < 1):
            raise CertificateError("r must lie in (0, 1)")

    def bound(self, i: int, j: int) -> float:
        return self.C * self.r ** (i + j)


@dataclass(frozen=True)
class MatrixSpec:
    """A matrix of finite or infinite extent defined by an element oracle.

    ``entry`` must be pure and total on the declared index range (1-based).
    The nonzero pattern is stated once, as a ``bandwidth`` (entries with
    ``|i - j| > bandwidth`` vanish; a diagonal is bandwidth 0) or a
    ``(rows, cols)`` ``support`` box (entries outside it vanish), or
    neither.  Patterns are promises: entries outside them must be exactly
    zero.  ``structure`` is read off the pattern: ``BANDED`` with a
    bandwidth, ``FINITE_SUPPORT`` with a box, else ``EXPR``.  A negative
    bandwidth, a bandwidth with a box, or a ``structure`` passed in that
    is not this label (as ``dataclasses.replace`` passes the old label
    with a new pattern) raises :class:`ValueError`.

    ``block``, optional and used by ``EXPR`` and ``FINITE_SUPPORT``
    sections and by ``EXPR`` :class:`Lines`, maps 1-based index arrays
    ``rows`` and ``cols`` to the values of ``entry`` on ``rows x cols``
    (any array that broadcasts to that shape), bit for bit, or to
    ``None`` when those cells must be evaluated one by one through
    ``entry``.  It is only asked for cells inside the declared pattern.
    """

    rows: Extent
    cols: Extent
    entry: Callable[[int, int], float]
    structure: str | None = None
    decay: DecayCertificate | None = None
    bandwidth: int | None = None
    support: tuple[int, int] | None = None
    block: Callable[[np.ndarray, np.ndarray], np.ndarray | None] | None = None

    def __post_init__(self):
        check_extent(self.rows, "rows")
        check_extent(self.cols, "cols")
        if self.bandwidth is not None and self.support is not None:
            raise ValueError("a spec declares a bandwidth or a support box, not both")
        if self.bandwidth is not None and self.bandwidth < 0:
            raise ValueError(f"bandwidth must be non-negative, got {self.bandwidth}")
        label = (BANDED if self.bandwidth is not None
                 else FINITE_SUPPORT if self.support is not None else EXPR)
        if self.structure not in (None, label):
            raise ValueError(f"structure {self.structure!r} contradicts the declared "
                             f"pattern, which is {label!r}")
        object.__setattr__(self, "structure", label)

    @property
    def is_square(self) -> bool:
        return extents_equal(self.rows, self.cols)

    def at(self, i: int, j: int) -> float:
        self.check_index(i, j)
        return self.entry(i, j)

    def check_index(self, i: int, j: int) -> None:
        """Raise :class:`IndexError` unless (i, j) lies in the matrix."""
        if i < 1 or j < 1:
            raise IndexError("indices are 1-based")
        if is_finite_extent(self.rows) and i > self.rows:
            raise IndexError(f"row {i} beyond extent {self.rows}")
        if is_finite_extent(self.cols) and j > self.cols:
            raise IndexError(f"col {j} beyond extent {self.cols}")

    def row_support(self, i: int) -> tuple[int, int] | None:
        """Inclusive column range outside which row ``i`` is zero.

        ``None`` means unbounded; an empty range is returned as (1, 0).
        """
        return self._line_support(i, 0)

    def col_support(self, j: int) -> tuple[int, int] | None:
        """Inclusive row range outside which column ``j`` is zero."""
        return self._line_support(j, 1)

    def _line_support(self, k: int, axis: int) -> tuple[int, int] | None:
        """Support of row (``axis`` 0) or column (``axis`` 1) ``k``."""
        extent = self.cols if axis == 0 else self.rows
        if self.bandwidth is not None:
            return (max(1, k - self.bandwidth), clip_extent(extent, k + self.bandwidth))
        if self.support is not None:
            if k > self.support[axis]:
                return (1, 0)
            return (1, clip_extent(extent, self.support[1 - axis]))
        return (1, extent) if is_finite_extent(extent) else None


@dataclass(frozen=True, init=False, repr=False)
class DenseMatrix(MatrixSpec):
    """Finite array of scalars, 1-based in all interfaces: the spec of
    ``rows`` by ``cols`` with no pattern (``EXPR``) whose ``entry`` and
    ``block`` read the array.

    All entries must be finite; the backing array ``data`` is frozen.
    """

    def __init__(self, data):
        arr = np.array(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("DenseMatrix requires a non-empty 2-d array")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise OracleValueError(
                f"non-finite entry at ({bad[0] + 1}, {bad[1] + 1})",
                index=(int(bad[0]) + 1, int(bad[1]) + 1))
        arr.setflags(write=False)

        def entry(i, j, _data=arr):
            return float(_data[i - 1, j - 1])

        def block(rows, cols, _data=arr):
            return _data[np.ix_(rows - 1, cols - 1)]

        super().__init__(arr.shape[0], arr.shape[1], entry, block=block)
        object.__setattr__(self, "data", arr)

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.data.T)

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class TruncationSchedule:
    """Geometric sequence of section sizes: start, start*growth, ... capped."""

    start: int = 8
    growth: int = 2
    max_size: int = 1024

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("start must be >= 1")
        if self.growth < 2:
            raise ValueError("growth must be >= 2")
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")

    def sizes(self) -> list[int]:
        out = []
        n = self.start
        while True:
            out.append(min(n, self.max_size))
            if n >= self.max_size:
                return out
            n *= self.growth


def _checked(value, i, j) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise OracleValueError(f"oracle returned non-finite value at ({i}, {j})",
                               index=(i, j), value=value)
    return v


def _fill_blocks(M: MatrixSpec, out: np.ndarray, km: int, kn: int) -> bool:
    """Fill the cells of ``out`` outside its known km-by-kn corner and
    inside the declared pattern through ``M.block``: the strip right of
    the corner, then the rows below it.  False when the block declines a
    rectangle or gives a non-finite value, so that the caller redoes the
    fill cell by cell and raises what the scalar path raises."""
    m, n = out.shape
    if M.bandwidth is not None:
        return False
    if M.support is not None:
        m, n = min(m, M.support[0]), min(n, M.support[1])
    for r0, r1, c0 in ((0, min(km, m), kn), (km, m, 0)):
        if r1 <= r0 or n <= c0:
            continue
        values = M.block(np.arange(r0 + 1, r1 + 1), np.arange(c0 + 1, n + 1))
        if values is None:
            return False
        values = np.broadcast_to(values, (r1 - r0, n - c0))
        if not np.all(np.isfinite(values)):
            return False
        out[r0:r1, c0:n] = values
    return True


def _grow(M: MatrixSpec, known: np.ndarray, m: int, n: int) -> np.ndarray:
    """``M``'s top-left m-by-n section; evaluates only the cells outside the
    ``known`` corner, inside the declared nonzero pattern: as blocks when
    ``M`` has a block oracle that accepts them, else row by row."""
    out = np.zeros((m, n))
    km, kn = known.shape
    out[:km, :kn] = known
    if M.block is not None and _fill_blocks(M, out, km, kn):
        return out
    for i in range(1, m + 1):
        lo, hi = M.row_support(i) or (1, n)
        if i <= km:
            lo = max(lo, kn + 1)
        for j in range(lo, min(hi, n) + 1):
            out[i - 1, j - 1] = _checked(M.entry(i, j), i, j)
    return out


def truncate(M: MatrixSpec, m: int, n: int) -> DenseMatrix:
    """Materialize the top-left m-by-n section of ``M``.

    For structured specs only the declared nonzero pattern is evaluated.
    Raises :class:`OracleValueError`, naming the index, if the oracle
    produces a non-finite value.
    """
    if m < 1 or n < 1:
        raise ValueError("section sizes must be >= 1")
    if is_finite_extent(M.rows) and m > M.rows:
        raise ExtentMismatchError(f"requested {m} rows from extent {M.rows}")
    if is_finite_extent(M.cols) and n > M.cols:
        raise ExtentMismatchError(f"requested {n} cols from extent {M.cols}")
    return DenseMatrix(_grow(M, np.zeros((0, 0)), m, n))


class Sections:
    """The nested top-left sections of one spec, for one limit computation.

    ``sections(n)`` returns (or raises) bit for bit the values of
    :func:`truncate` at the n-by-n shape clipped to the spec's extents, as
    a plain array.  The largest section so far is kept, grown on demand,
    and every section is a read-only view of it, so no cell is evaluated
    or checked twice and no smaller section is copied.
    """

    def __init__(self, M: MatrixSpec):
        self._M = M
        self._known = np.zeros((0, 0))

    def __call__(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("section sizes must be >= 1")
        m, k = clip_extent(self._M.rows, n), clip_extent(self._M.cols, n)
        if m > self._known.shape[0] or k > self._known.shape[1]:  # both rise with n
            self._known = _grow(self._M, self._known, m, k)
            self._known.setflags(write=False)
        return self._known[:m, :k]


class Lines:
    """Leading entries of some rows (``axis`` 0) or columns (``axis`` 1) of
    one spec, read through its block oracle: the 1-d counterpart of
    :class:`Sections`, for series along an infinite index.

    ``lines(n)``, for n within the spec's extent along the lines, returns
    the first n entries of each line as a ``len(indices)``-by-n array, bit
    for bit what ``M.entry`` gives, non-finite values included.  The
    prefix is grown on demand, as one block per request, so each cell is
    read once; the array is handed out uncopied.  ``None`` is returned
    when ``M`` has no block oracle for its structure, and from the first
    request the block declines on.
    """

    def __init__(self, M: MatrixSpec, indices, axis: int = 0):
        self._M = M
        self._indices = np.asarray(indices, dtype=int)
        self._axis = axis
        self._known = np.zeros((len(self._indices), 0))
        self._declined = M.block is None or M.structure != EXPR

    def __call__(self, n: int) -> np.ndarray | None:
        if self._declined:
            return None
        k = self._known.shape[1]
        if n > k:
            new = np.arange(k + 1, n + 1)
            rows, cols = (self._indices, new) if self._axis == 0 else (new, self._indices)
            values = self._M.block(rows, cols)
            if values is None:
                self._declined = True
                return None
            values = np.broadcast_to(values, (rows.size, cols.size))
            self._known = np.concatenate((self._known, values.T if self._axis else values),
                                         axis=1)
        return self._known[:, :n]


def transpose(M: MatrixSpec) -> MatrixSpec:
    """Swap row/column roles; structure metadata and the block oracle
    transpose with it."""
    if isinstance(M, DenseMatrix):
        return M.transpose()
    entry = M.entry

    def flipped(i, j, _entry=entry):
        return _entry(j, i)

    block = None
    if M.block is not None:
        def block(rows, cols, _block=M.block):
            values = _block(cols, rows)
            if values is None:
                return None
            return np.broadcast_to(values, (len(cols), len(rows))).T

    support = None if M.support is None else M.support[::-1]
    return MatrixSpec(M.cols, M.rows, flipped, decay=M.decay, bandwidth=M.bandwidth,
                      support=support, block=block)


# ---------------------------------------------------------------------------
# constructors

def identity_spec(extent: Extent = INFINITE) -> MatrixSpec:
    return banded_spec({0: lambda i, j: 1.0}, extent, extent)


def zero_spec(rows: Extent = INFINITE, cols: Extent = INFINITE) -> MatrixSpec:
    return banded_spec({}, rows, cols)


def diagonal_spec(diag: Callable[[int], float], extent: Extent = INFINITE) -> MatrixSpec:
    """The square matrix with ``diag(i)`` at (i, i): one band at offset 0."""
    return banded_spec({0: lambda i, j, _diag=diag: _diag(i)}, extent, extent)


def banded_spec(bands: dict[int, Callable[[int, int], float]],
                rows: Extent = INFINITE, cols: Extent = INFINITE) -> MatrixSpec:
    """Matrix whose entry at offset ``j - i`` comes from ``bands[offset]``,
    and is 0 off the given bands; no bands is the zero matrix."""
    bands = dict(bands)
    bandwidth = max((abs(off) for off in bands), default=0)

    def entry(i, j, _bands=bands):
        fn = _bands.get(j - i)
        return float(fn(i, j)) if fn is not None else 0.0

    return MatrixSpec(rows, cols, entry, bandwidth=bandwidth)


def finite_support_spec(fn: Callable[[int, int], float], box_rows: int, box_cols: int,
                        rows: Extent = INFINITE, cols: Extent = INFINITE) -> MatrixSpec:
    def entry(i, j, _fn=fn, _r=box_rows, _c=box_cols):
        return float(_fn(i, j)) if (i <= _r and j <= _c) else 0.0

    return MatrixSpec(rows, cols, entry, support=(box_rows, box_cols))


def entrywise_spec(fn: Callable[[int, int], float],
                   rows: Extent = INFINITE, cols: Extent = INFINITE,
                   decay: DecayCertificate | None = None) -> MatrixSpec:
    def entry(i, j, _fn=fn):
        return float(_fn(i, j))

    return MatrixSpec(rows, cols, entry, decay=decay)


def spot_check_decay(M: MatrixSpec, samples: int = 200, rng=None) -> None:
    """Sample entries of rows and columns 1..``DECAY_MAX_INDEX`` and verify
    the declared decay bound, up to ``DECAY_SLACK``.

    Raises :class:`CertificateError` on the first violated sample.
    """
    if M.decay is None:
        raise CertificateError("spec carries no decay certificate")
    rng = rng if rng is not None else np.random.default_rng(0)
    hi_r = clip_extent(M.rows, DECAY_MAX_INDEX)
    hi_c = clip_extent(M.cols, DECAY_MAX_INDEX)
    for _ in range(samples):
        i = int(rng.integers(1, hi_r + 1))
        j = int(rng.integers(1, hi_c + 1))
        v = M.entry(i, j)
        if abs(v) > M.decay.bound(i, j) + DECAY_SLACK:
            raise CertificateError(
                f"entry ({i}, {j}) = {v} violates bound {M.decay.bound(i, j)}")
