"""The panelled sweep of wide sections: determinants against the
eigenvalue product, pivots and signs against the full dense sweep, solve
residuals, the dense sweep's bits at one panel and in narrower bands, and
one trailing product per panel after the first."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sweep_echelon, sweep_echelon_signed, sweep_gauss_solve, sweep_lu_det

from infmat import _dense
from infmat._dense import (PANEL, band_of, band_rows, echelon, factor, gauss_solve, lu_det,
                           norm_inf)

EPS = np.finfo(float).eps


def near_identity(n, seed, decay):
    """I + K, K symmetric with seeded normal entries times (1 + i + j)^-decay,
    scaled to a Frobenius norm of at most 1/2: every eigenvalue lies in
    [1/2, 3/2]."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    k = rng.standard_normal((n, n)) / (1.0 + i + j) ** decay
    k = k + k.T
    return np.eye(n) + 0.5 * k / max(np.linalg.norm(k), 1.0)


def eigen_gap(a):
    """The relative gap of ``lu_det(a)`` to the product of the eigenvalues."""
    want = np.prod(np.linalg.eigvalsh(a))
    return abs(lu_det(a) - want) / abs(want)


@settings(max_examples=30)
@given(st.integers(1, 4 * PANEL), st.integers(0, 2 ** 32 - 1), st.floats(1.0, 3.0))
def test_lu_det_of_near_identity_sections_is_the_eigenvalue_product(n, seed, decay):
    assert eigen_gap(near_identity(n, seed, decay)) <= 1e-12


def test_lu_det_of_a_1024_section_is_the_eigenvalue_product():
    assert eigen_gap(near_identity(1024, 1024, 2.0)) <= 1e-12


def seeded(shape, seed, skipped=()):
    """Seeded normal entries, with each column of ``skipped`` made zero
    (an even one) or the sum of the two columns before it (an odd one):
    columns with no pivot above a relative threshold of 1e-10."""
    a = np.random.default_rng(seed).standard_normal(shape)
    for c in skipped:
        a[:, c] = 0.0 if c % 2 == 0 else a[:, c - 1] + a[:, c - 2]
    return a


@pytest.mark.parametrize("shape, skipped", [
    ((2 * PANEL, 2 * PANEL), ()),
    ((3 * PANEL - 5, 3 * PANEL - 5), ()),
    # skipped columns in the first panel and inside later ones
    ((2 * PANEL + 9, 2 * PANEL + 9), (10, PANEL + 7, 2 * PANEL + 1)),
    ((PANEL + 20, 3 * PANEL), (3, PANEL + 1)),
    ((3 * PANEL, 2 * PANEL + 3), (2 * PANEL - 1,)),
], ids=["2 panels", "3 panels", "skips", "wide", "tall"])
def test_panelled_pivots_and_sign_are_the_dense_sweep_s(shape, skipped):
    a = seeded(shape, sum(shape), skipped)
    tol = 1e-10 * norm_inf(a)
    assert band_of(a)[0] >= PANEL
    ref_u, ref_pivots, ref_sign = sweep_echelon_signed(a, tol)
    u, pivots, sign = _dense._sweep(a, tol)
    assert (pivots, sign) == (ref_pivots, ref_sign)
    assert len(pivots) == min(shape[0], shape[1] - len(skipped))
    assert echelon(a, tol)[1] == ref_pivots and factor(a, tol).rank == len(ref_pivots)
    assert np.allclose(u, ref_u, rtol=0.0, atol=1e-12 * np.max(np.abs(ref_u)))


@pytest.mark.parametrize("n", [2 * PANEL, 3 * PANEL - 1])
def test_panelled_gauss_solve_has_a_small_residual(n):
    # a normwise backward error |b - Ax| / (|A| |x| + |b|) below n eps
    a, b = seeded((n, n), n), seeded((n, 3), n + 1)
    x = gauss_solve(a, b)
    residual = np.max(np.abs(b - a @ x))
    assert residual <= n * EPS * (norm_inf(a) * np.max(np.abs(x)) + np.max(np.abs(b)))


def with_swaps(shape, seed):
    """Seeded normal entries, 16 times larger below the diagonal, so that
    pivoting swaps rows."""
    a = seeded(shape, seed)
    i, j = np.indices(shape)
    return np.where(i > j, 16.0 * a, a)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("shape", [(PANEL, PANEL), (PANEL + 1, PANEL)])
def test_one_panel_keeps_the_dense_sweep_bits(shape):
    # the measured band of the taller array reaches a panel below the
    # diagonal, but one panel holds all of its columns
    a = with_swaps(shape, 3)
    tol = 1e-10 * norm_inf(a)
    u, pivots = echelon(a, tol)
    ref_u, ref_pivots = sweep_echelon(a, tol)
    assert pivots == ref_pivots and same_bits(u, ref_u)
    if shape[0] == shape[1]:
        assert same_bits(lu_det(a), sweep_lu_det(a))
        b = seeded((shape[0], 2), 4)
        assert same_bits(gauss_solve(a, b), sweep_gauss_solve(a, b, 0.0))


def test_narrow_bands_and_negative_zeros_keep_the_dense_sweep_bits():
    # a band narrower than a panel; echelon sweeps the whole array, as a
    # cell holds -0.0, and lu_det the band, both one column at a time
    n, width = 2 * PANEL + 7, 10
    i, j = np.indices((n, n))
    a = np.where(np.abs(i - j) <= width, with_swaps((n, n), 5), 0.0)
    a[20, 25] = -0.0
    assert band_of(a) == (width, width) and _dense._sweep_window(a) == (n - 1, n - 1)
    u, pivots = echelon(a, 0.0)
    ref_u, ref_pivots = sweep_echelon(a, 0.0)
    assert pivots == ref_pivots and same_bits(u, ref_u)
    assert same_bits(lu_det(a), sweep_lu_det(a))


class Products(np.ndarray):
    """An array that counts the products of two matrices it takes on the
    left; the forward substitution's vector-by-matrix ones are not counted."""

    count = 0

    def __matmul__(self, other):
        if self.ndim == 2 and np.ndim(other) == 2:
            Products.count += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("n", [PANEL, PANEL + 1, 2 * PANEL, 3 * PANEL + 5])
def test_one_trailing_product_per_panel_after_the_first(n):
    a = with_swaps((n, n), n)
    Products.count = 0
    u, pivots, sign = _dense._sweep(a.view(Products), 0.0)
    assert Products.count == -(-n // PANEL) - 1
    want_u, want_pivots, want_sign = _dense._sweep(a, 0.0)
    assert (pivots, sign) == (want_pivots, want_sign) and same_bits(u, want_u)


@st.composite
def sections_with_rhs(draw):
    """A square section on the narrow, windowed or panelled path, as an
    array or as band rows, with skipped columns, and a right-hand side."""
    path = draw(st.sampled_from(["narrow", "windowed", "panelled"]))
    n = draw(st.integers(PANEL + 1, 3 * PANEL))
    bl, bu = {"narrow": (draw(st.integers(0, 3)), draw(st.integers(0, 3))),
              "windowed": (draw(st.integers(9, PANEL - 1)), draw(st.integers(0, 20))),
              "panelled": (n, n)}[path]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    i, j = np.indices((n, n))
    a = np.where((i - j <= bl) & (j - i <= bu), with_swaps((n, n), seed), 0.0)
    for c in draw(st.lists(st.integers(2, n - 1), max_size=4)):
        # a zero column, or one that is the sum of the two before it
        a[:, c] = 0.0 if draw(st.booleans()) else a[:, c - 1] + a[:, c - 2]
    b = seeded((n,), seed + 1)
    fed = band_rows(a) if draw(st.booleans()) else a
    return fed, a, b, draw(st.sampled_from([0.0, 1e-10 * norm_inf(a)]))


@settings(max_examples=60, deadline=None)
@given(sections_with_rhs())
def test_b_s_column_changes_no_pivot_of_a(case):
    # rank A_n is read from the sweep of [A_n | b_n]: b's column rides in
    # each panel's product, and the pivots left of it are A_n's own
    fed, a, b, tol = case
    pivots = factor(np.column_stack((a, b)), tol, zero_signs=True).pivots
    assert [p for p in pivots if p < a.shape[1]] == echelon(fed, tol)[1]
