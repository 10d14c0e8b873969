"""The windowed elimination kernels against a full dense sweep, bit for bit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import sweep_echelon, sweep_gauss_solve, sweep_lu_det, sweep_null_vector

from infmat import _dense
from infmat._dense import NARROW_WINDOW, echelon, gauss_solve, lu_det, null_vector
from infmat.errors import SingularSystemError

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
    # the narrow path, whichever one the band selects
    assert same_bits(_dense._lu_det_narrow(a, *_dense._band(a)), expected)
    # the numpy path, through lu_det on a window too wide for the narrow one
    assert same_bits(lu_det(wide), sweep_lu_det(wide))


@settings(max_examples=150)
@given(matrices(), PIVOT_TOLS)
def test_echelon_bit_identical_to_dense_sweep(a, tol):
    u, pivots = echelon(a, tol)
    ref_u, ref_pivots = sweep_echelon(a, tol)
    assert pivots == ref_pivots
    assert same_bits(u, ref_u)


@settings(max_examples=150)
@given(matrices(), PIVOT_TOLS)
def test_null_vector_bit_identical_to_dense_sweep(a, tol):
    v, ref = null_vector(a, tol), sweep_null_vector(a, tol)
    assert (v is None) == (ref is None)
    if v is not None:
        assert same_bits(v, ref)


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
