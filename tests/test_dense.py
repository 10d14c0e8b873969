"""The windowed elimination kernels against a full dense sweep, the
Python-float sweep of narrow windows against the numpy one, and each
kernel fed band rows against the same kernel fed the array, bit for bit."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import sweep_echelon, sweep_gauss_solve, sweep_lu_det, sweep_null_vector

from infmat import _dense
from infmat._dense import (NARROW_WINDOW, Band, band_rows, echelon, factor, gauss_solve, lu_det,
                           lu_det_shifts, null_vector, pivot_norm)
from infmat.errors import InfmatError, SingularSystemError
from infmat.series import ConvergencePolicy
from infmat.spectral import char_value

# exact zeros of both signs, ties and cancellations, tiny pivots
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-12]),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
PIVOT_TOLS = st.sampled_from([0.0, 1e-10, 1e-3])


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 9))
    cols = rows if square else draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["banded", "dense", "diagonal"]))
    bl, bu = {"banded": (draw(st.integers(0, 3)), draw(st.integers(0, 3))),
              "dense": (rows, cols), "diagonal": (0, 0)}[kind]
    a = np.array(draw(st.lists(VALUES, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    i, j = np.indices((rows, cols))
    a = np.where((j - i <= bu) & (i - j <= bl), a, 0.0)
    if draw(st.booleans()):
        # large entries below the diagonal: pivoting swaps rows and fills
        # up to bl + bu columns right of the diagonal
        a = np.where(i > j, 16.0 * a, a)
    if draw(st.booleans()):
        a = a[draw(st.permutations(range(rows)))]
    column = draw(st.none() | st.integers(0, cols - 1))
    if column is not None:
        a[:, column] *= draw(st.sampled_from([0.0, 1e-13]))
    return a


@st.composite
def wide_matrices(draw):
    """Square banded arrays whose elimination window, ``bl`` rows by ``bl +
    bu`` columns, exceeds ``NARROW_WINDOW``, so ``lu_det`` sweeps them in
    numpy; the band stays narrower than the array."""
    n = draw(st.integers(10, 16))
    bl, bu = draw(st.integers(6, n - 2)), draw(st.integers(5, n - 2))
    a = np.array(draw(st.lists(VALUES, min_size=n * n, max_size=n * n)),
                 dtype=float).reshape(n, n)
    i, j = np.indices((n, n))
    a = np.where((j - i <= bu) & (i - j <= bl), a, 0.0)
    a[bl, 0], a[0, bu] = 1.0, -1.0  # the band's outermost diagonals
    if draw(st.booleans()):
        a = np.where(i > j, 16.0 * a, a)
    column = draw(st.none() | st.integers(0, n - 1))
    if column is not None:
        a[:, column] *= draw(st.sampled_from([0.0, 1e-13]))
    lower, upper = _dense._band(a)
    assume(lower * (lower + upper) > NARROW_WINDOW)
    return a


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=150)
@given(matrices(square=True), wide_matrices())
def test_lu_det_bit_identical_to_dense_sweep(a, wide):
    expected = sweep_lu_det(a)
    assert same_bits(lu_det(a), expected)
    # band rows wider than the true band
    assert same_bits(lu_det(band_rows(a, tuple(w + 1 for w in _dense._band(a)))), expected)
    # the numpy path, through lu_det on a window too wide for the narrow one
    assert same_bits(lu_det(wide), sweep_lu_det(wide))


@settings(max_examples=150)
@given(matrices(), PIVOT_TOLS)
def test_echelon_bit_identical_to_dense_sweep(a, tol):
    u, pivots = echelon(a, tol)
    ref_u, ref_pivots = sweep_echelon(a, tol)
    assert pivots == ref_pivots
    assert factor(a, tol).rank == len(ref_pivots)
    assert same_bits(u, ref_u)


@settings(max_examples=150)
@given(matrices(), PIVOT_TOLS)
def test_null_vector_bit_identical_to_dense_sweep(a, tol):
    v, ref = null_vector(a, tol), sweep_null_vector(a, tol)
    assert (v is None) == (ref is None)
    if v is not None:
        assert same_bits(v, ref)


# special values: exact zeros of both signs, entries under the pivot
# tolerances, ties
NARROW_SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-12])


@st.composite
def narrow_cases(draw):
    """A banded array of up to 40 rows and columns, with bl and bu at most 3,
    and the band of its band rows: None (the array itself, its band
    measured), the true one, or wider."""
    rows = draw(st.integers(1, 40))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 40))
    bl, bu = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    special = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    a = np.where(special, rng.choice(NARROW_SPECIAL, (rows, cols)),
                 rng.uniform(-4.0, 4.0, (rows, cols)))
    i, j = np.indices((rows, cols))
    a = np.where((j - i <= bu) & (i - j <= bl), a, 0.0)
    if draw(st.booleans()):
        a = np.where(i > j, 16.0 * a, a)  # pivoting swaps rows
    for column in draw(st.lists(st.integers(0, cols - 1), max_size=3)):
        a[:, column] *= draw(st.sampled_from([0.0, 1e-13]))  # skipped columns
    band = draw(st.sampled_from([None, (bl, bu), (bl + 1, bu), (bl, bu + 2), (bl + 2, bu + 1)]))
    return a, band


def given_band(a, band):
    """``a`` as the kernels are fed it: the array for None, else band rows."""
    return a if band is None else band_rows(a, band)


@settings(max_examples=300)
@given(narrow_cases(), PIVOT_TOLS)
def test_python_float_sweep_bit_identical_to_numpy_sweep(case, tol):
    a, band = case
    fed = given_band(a, band)
    ref_u, ref_pivots, ref_sign = _dense._sweep(a, tol)
    # the Python-float sweep on the window echelon chooses, narrow or not
    window = _dense._sweep_window(fed)
    rows, start, pivots, sign = _dense._sweep_rows(fed, tol, window)
    assert (pivots, sign) == (ref_pivots, ref_sign)
    assert np.array_equal(_dense._reduced(rows, start, a.shape).view(np.int64),
                          ref_u.view(np.int64))
    u, pivots = echelon(fed, tol)
    assert pivots == ref_pivots
    assert np.array_equal(u.view(np.int64), ref_u.view(np.int64))
    assert factor(fed, tol).rank == len(ref_pivots)
    v = null_vector(fed, tol)
    with mock.patch.object(_dense, "is_narrow", lambda band: False):  # the numpy sweep
        ref = null_vector(a, tol)
    assert (v is None) == (ref is None)
    if v is not None:
        assert np.array_equal(v.view(np.int64), ref.view(np.int64))
    if a.shape[0] == a.shape[1]:
        det_u, det_pivots, det_sign = _dense._sweep(a, 0.0)
        want = (det_sign * np.float64(math.prod(np.diag(det_u)))
                if len(det_pivots) == a.shape[0] else 0.0)
        assert np.float64(lu_det(fed)).view(np.int64) == np.float64(want).view(np.int64)


def test_tridiagonal_fill_stays_in_window():
    # every step swaps, so the pivot rows reach two columns right of the
    # diagonal, one beyond the upper band
    n = 40
    a = np.diag(np.full(n - 1, 3.0), -1) + np.diag(np.full(n, 0.5)) + np.diag(np.ones(n - 1), 1)
    assert same_bits(lu_det(a), sweep_lu_det(a))
    u, pivots = echelon(a, 0.0)
    ref_u, ref_pivots = sweep_echelon(a, 0.0)
    assert pivots == ref_pivots and same_bits(u, ref_u)
    assert np.count_nonzero(np.triu(u, 3)) == 0 and np.count_nonzero(np.triu(u, 2)) > 0


def test_negative_zero_changes_like_the_dense_sweep():
    # the multiplier 0/-2 is -0.0, and -0.0 - (-0.0 * 1.0) is +0.0
    a = np.array([[-2.0, 1.0], [0.0, -0.0]])
    u, pivots = echelon(a, 0.0)
    ref_u, ref_pivots = sweep_echelon(a, 0.0)
    assert not np.signbit(ref_u[1, 1])
    assert pivots == ref_pivots and same_bits(u, ref_u)


@settings(max_examples=150)
@given(matrices(square=True), st.integers(0, 3), st.data(), PIVOT_TOLS)
def test_gauss_solve_bit_identical_to_dense_sweep(a, columns, data, tol):
    # no columns: one right-hand side as a 1-d array
    n = a.shape[0]
    size = n * max(columns, 1)
    b = np.array(data.draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=float)
    b = b.reshape(n, columns) if columns else b
    ref = sweep_gauss_solve(a, b, tol)
    if ref is None:
        with pytest.raises(SingularSystemError):
            gauss_solve(a, b, tol)
    else:
        assert same_bits(gauss_solve(a, b, tol), ref)


# every band whose elimination window fits NARROW_WINDOW, the diagonal
# (0, 0) included, with bu at most 63 when bl is 0
NARROW_BANDS = [(bl, bu) for bl in range(9) for bu in range(64)
                if bl * (bl + bu) <= NARROW_WINDOW]


# exact zeros of both signs, tiny pivots, and entries near the largest
# float, whose elimination overflows to inf and then to NaN
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-12, 1e300, 1.5e308, -1.5e308])


# shifts that overflow a diagonal cell of +-1.5e308 to +-inf, and shifts
# that make every diagonal cell +-inf or NaN
OVERFLOWING = [1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


@st.composite
def shifted_sections(draw, bands=NARROW_BANDS):
    """A section of special and random entries with one of ``bands``, and
    shifts among which some equal a diagonal entry, so that a lane's pivot
    is 0, and some overflow a diagonal cell."""
    n = draw(st.integers(1, 150))
    bl, bu = draw(st.sampled_from(bands))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, j = np.indices((n, n))
    special = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    t = np.where(special, rng.choice(SPECIAL, (n, n)), rng.standard_normal((n, n)))
    t = np.where((j - i <= bu) & (i - j <= bl), t, 0.0)
    shifts = [0.0, -0.0, *np.diagonal(t)[rng.integers(0, n, 3)],
              *(rng.standard_normal(3) * draw(st.sampled_from([1.0, 1e-3, 1e300]))),
              *draw(st.lists(st.sampled_from(OVERFLOWING), max_size=3))]
    return t, np.array(shifts)


def lu_dets_of_copies(t, shifts):
    """``lu_det`` of a copy of ``t`` with ``-x`` added to the diagonal, per shift."""
    want = []
    with np.errstate(all="ignore"):
        for x in shifts:
            a = np.array(t)
            a[np.diag_indices(t.shape[0])] += -x
            want.append(lu_det(a))
    return np.array(want, dtype=float)


def value_or_error(run):
    """The bits of ``run()``, or the class and message of the library error
    it raised (a shift whose diagonal overflows)."""
    try:
        return int(np.float64(run()).view(np.int64))
    except InfmatError as exc:
        return type(exc), str(exc)


@settings(max_examples=120)
@given(shifted_sections())
def test_lu_det_shifts_bit_identical_to_lu_det(case):
    t, shifts = case
    got = lu_det_shifts(t, shifts)
    assert np.array_equal(got.view(np.int64), lu_dets_of_copies(t, shifts).view(np.int64))


@settings(max_examples=40)
@given(shifted_sections(bands=[(0, 0)]))
def test_lu_det_shifts_of_a_diagonal_bit_identical_to_lu_det(case):
    # no elimination: the product of the shifted diagonal
    t, shifts = case
    got = lu_det_shifts(t, shifts)
    assert np.array_equal(got.view(np.int64), lu_dets_of_copies(t, shifts).view(np.int64))


def test_lu_det_shifts_of_a_wide_band_raises():
    t = np.random.default_rng(3).standard_normal((14, 14))
    with pytest.raises(ValueError, match="too wide"):
        lu_det_shifts(t, np.array([0.0, t[2, 2], -1.5]))


def test_lu_det_shifts_builds_no_array_of_a_window_per_row_and_lane():
    # a (4, 4) band at n = 1024 and 256 lanes: an array holding each row's
    # band cells in each lane would take 8 * 1024 * 9 * 256 bytes, 18.9 MB
    n, lanes = 1024, 256
    rng = np.random.default_rng(7)
    i, j = np.indices((n, n))
    t = np.where(np.abs(i - j) <= 4, rng.uniform(-0.5, 0.5, (n, n)), 0.0)
    rows = band_rows(t, (4, 4))
    shifts = np.linspace(-1.0, 1.0, lanes)
    tracemalloc.start()
    try:
        got = lu_det_shifts(rows, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 9 * lanes / 4
    picked = [0, 77, lanes - 1]
    assert same_bits(got[picked], lu_dets_of_copies(t, shifts[picked]))


def test_rank_of_a_tridiagonal_section_builds_no_reduced_array():
    n = 1024
    a = (np.diag(1.0 / np.arange(1, n + 1)) + np.diag(np.full(n - 1, 0.5), 1)
         + np.diag(np.full(n - 1, -0.25), -1))
    a[n // 2] = 0.0
    tracemalloc.start()
    try:
        rank = factor(a, 1e-10).rank
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the reduced array alone takes 8 MB
    assert rank == len(echelon(a, 1e-10)[1]) == n - 1


@st.composite
def patterns(draw):
    """Arrays of zeros of one sign with a few entries placed: small ones of
    any shape, empty ones, and ones of several 64 KB blocks of flags."""
    rows, cols = draw(st.tuples(st.integers(0, 12), st.integers(0, 12))
                      | st.tuples(st.integers(0, 700), st.integers(0, 700))
                      | st.sampled_from([(3, 70000), (70000, 2), (0, 9), (9, 0)]))
    a = np.full((rows, cols), draw(st.sampled_from([0.0, -0.0])))
    if a.size:
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            a[i, j] = draw(st.sampled_from([math.nan, math.inf, -2.5, 1.0, 5e-324, -0.0]))
    return a


@settings(max_examples=150)
@given(patterns())
def test_band_is_the_extreme_offsets_of_the_nonzeros(a):
    i, j = np.nonzero(a)
    want = (0, 0) if i.size == 0 else (max(0, int(np.max(i - j))), max(0, int(np.max(j - i))))
    assert _dense._band(a) == want


@settings(max_examples=150)
@given(narrow_cases(), PIVOT_TOLS)
def test_band_rows_give_the_array_s_values(case, tol):
    a, band = case
    band = band or _dense._band(a)
    rows = band_rows(a, band)
    assert isinstance(rows, Band) and rows.shape == a.shape
    # a -0.0 outside the band is a zero that band rows do not hold
    i, j = np.indices(a.shape)
    held = np.where((j - i <= band[1]) & (i - j <= band[0]), a, 0.0)
    assert same_bits(rows.array(), held)
    if a.shape[0] == a.shape[1]:
        assert same_bits(lu_det(rows), lu_det(a))
    assert factor(rows, tol).rank == factor(a, tol).rank
    v, want = null_vector(rows, tol), null_vector(a, tol)
    assert (v is None) == (want is None)
    if v is not None:
        assert same_bits(v, want)
    # a window wider or narrower than the rows' own band, down to the true one
    wider = _dense._cells(rows, band[0] + 2, band[1] + 1)
    assert same_bits(wider, _dense._band_cells(held, band[0] + 2, band[1] + 1))
    true = _dense._band(a)
    assert same_bits(_dense._cells(rows, *true), _dense._band_cells(held, *true))


@settings(max_examples=80, deadline=None)
@given(shifted_sections())
def test_shifts_of_band_rows_give_the_array_s_values(case):
    # within the measured band: a wider one may turn an overflowed x - inf*0
    # into NaN where the array's sweep leaves x
    t, shifts = case
    rows = band_rows(t)
    assert same_bits(lu_det_shifts(rows, shifts), lu_det_shifts(t, shifts))
    policy = ConvergencePolicy()
    for x in shifts:
        assert (value_or_error(lambda: char_value(rows, x, policy))
                == value_or_error(lambda: char_value(t, x, policy)))


def test_pivot_norm_of_band_rows_sums_the_band():
    # a sum of three terms in another order than numpy's pairwise sum over
    # the whole row: the two differ by at most two rounding errors
    rng = np.random.default_rng(5)
    n = 300
    a = (np.diag(rng.uniform(-1, 1, n)) + np.diag(rng.uniform(-1, 1, n - 1), 1)
         + np.diag(rng.uniform(-1, 1, n - 2), -2))
    got, want = pivot_norm(band_rows(a, (2, 1))), pivot_norm(a)
    assert got == pytest.approx(want, rel=2 * np.finfo(float).eps, abs=0.0)
