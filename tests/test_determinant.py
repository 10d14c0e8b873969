import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import cofactor_det, counting, log_series_det, section_cells

from infmat import determinant
from infmat._dense import band_rows, lu_det
from infmat.determinant import (cauchy_binet, cauchy_binet_infinite, det_infinite,
                                det_log_series, det_oracle, det_truncation,
                                log_series_may_apply)
from infmat.errors import OracleValueError, PreconditionError
from infmat.matrix_core import (DecayCertificate, DenseMatrix, INFINITE,
                                MatrixSpec, TruncationSchedule, diagonal_spec,
                                entrywise_spec, identity_spec, transpose,
                                truncate)
from infmat.series import ConvergencePolicy


def random_contraction(rng, n, radius=0.8):
    x = rng.uniform(-1, 1, (n, n))
    x *= radius * rng.uniform(0.1, 1.0) / max(np.max(np.sum(np.abs(x), axis=1)), 1e-9)
    return DenseMatrix(np.eye(n) + x)


# --- elimination oracle ------------------------------------------------------

def test_det_oracle_identity():
    assert det_oracle(DenseMatrix(np.eye(4))) == 1.0


def test_det_oracle_two_by_two():
    assert det_oracle(DenseMatrix([[2, 1], [1, 3]])) == pytest.approx(5.0)


def test_det_oracle_singular():
    assert det_oracle(DenseMatrix([[1, 2], [2, 4]])) == 0.0


def test_det_oracle_matches_cofactor_expansion():
    rng = np.random.default_rng(0)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        a = rng.integers(-5, 6, (n, n)).astype(float)
        assert det_oracle(DenseMatrix(a)) == pytest.approx(cofactor_det(a), abs=1e-12 * max(1, abs(cofactor_det(a))))


def test_det_oracle_transpose_invariant():
    rng = np.random.default_rng(1)
    for _ in range(60):
        a = rng.uniform(-1, 1, (5, 5))
        assert det_oracle(DenseMatrix(a)) == pytest.approx(
            det_oracle(DenseMatrix(a.T)), abs=1e-12)


# --- log-series route --------------------------------------------------------

def test_log_series_diagonal_example():
    rep = det_log_series(DenseMatrix([[1.1, 0.0], [0.0, 0.9]]))
    assert rep.value == pytest.approx(0.99, abs=1e-10)
    assert rep.route == "log-series"


def test_log_series_identity_short_circuit():
    rep = det_log_series(DenseMatrix(np.eye(3)))
    assert rep.value == 1.0
    assert rep.log_terms_used <= ConvergencePolicy().window + 1


def test_log_series_norm_precondition():
    with pytest.raises(PreconditionError) as err:
        det_log_series(DenseMatrix([[0.5, 0.8], [0.0, 0.5]]))
    assert err.value.measured == pytest.approx(1.3)


def test_log_series_agrees_with_oracle_bulk():
    rng = np.random.default_rng(2)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        m = random_contraction(rng, n)
        want = det_oracle(m)
        got = det_log_series(m).value
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def near_identity(seed, n, norm, positive):
    """``I + B`` with ``norm_inf(B) = norm``; a positive B has spectral
    radius ``norm`` too, so its series runs long as the norm nears 1."""
    x = np.random.default_rng(seed).uniform(0.0 if positive else -1.0, 1.0, (n, n))
    return np.eye(n) + x * (norm / max(np.max(np.sum(np.abs(x), axis=1)), 1e-300))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.floats(0.01, 0.99) | st.sampled_from([0.95, 0.99]), st.booleans())
def test_log_series_gives_the_one_power_per_term_series(seed, n, norm, positive):
    t = near_identity(seed, n, norm, positive)
    policy = ConvergencePolicy()
    want, terms, status = log_series_det(t, policy.tol, policy.window, policy.max_terms)
    rep = determinant._log_series(t, policy)
    assert status == rep.report.status == "converged"
    assert rep.log_terms_used == rep.report.terms_used == terms
    eps = np.finfo(float).eps
    assert abs(rep.report.estimate - want) <= 4 * eps * max(1.0, abs(want))


class Counted(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        Counted.products += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        Counted.products += 1
        return super().__rmatmul__(other)


def test_log_series_forms_one_product_per_two_terms():
    terms = set()
    for norm in (0.0, 1e-6, 0.02, 0.1, 0.3, 0.6, 0.9):
        for n in (1, 5, 12):
            t = near_identity(n, n, norm, True).view(Counted)
            Counted.products = 0
            rep = determinant._log_series(t, ConvergencePolicy())
            # term 1 reads tr(B), term 2 tr(B B), and each odd term after
            # them forms the next power
            assert Counted.products == (rep.log_terms_used - 1) // 2
            terms.add(rep.log_terms_used)
    assert {k % 2 for k in terms} == {0, 1} and max(terms) > 100


def test_a_long_512_series_holds_three_n_by_n_arrays():
    # the base B and the powers B^m and B^(m+1); the one-power-per-term
    # loop held B, B^k and the B^(k+1) it formed
    t = near_identity(0, 512, 0.9, True)
    tracemalloc.start()
    try:
        rep = determinant._log_series(t, ConvergencePolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.log_terms_used > 100
    assert peak < 3 * t.nbytes + 2 ** 16


# --- infinite determinants ---------------------------------------------------

def test_det_infinite_rank_one_perturbation():
    def entry(i, j):
        base = 1.0 if i == j else 0.0
        return base + (0.5 if i == j == 1 else 0.0)

    spec = MatrixSpec(INFINITE, INFINITE, entry, structure="banded", bandwidth=0)
    rep = det_infinite(spec, TruncationSchedule(8, 2, 64))
    assert rep.report.converged
    assert rep.value == pytest.approx(1.5, abs=1e-9)
    assert rep.route == "truncation-limit"


@pytest.mark.parametrize("fn,bandwidth", [
    (lambda i, j: float(i == j) + 2.0 ** -(i + j), None),
    (lambda i, j: (1.5 if i == 1 else 1.0) if i == j else 0.5 ** (i + j), 1)],
    ids=["dense", "banded"])
def test_det_infinite_evaluates_each_cell_of_the_last_section_once(fn, bandwidth):
    entry, counts = counting(fn)
    structure = "expr" if bandwidth is None else "banded"
    spec = MatrixSpec(INFINITE, INFINITE, entry, structure=structure, bandwidth=bandwidth)
    schedule = TruncationSchedule(4, 2, 256)
    rep = det_infinite(spec, schedule)
    assert rep.report.converged
    reached = schedule.sizes()[rep.report.terms_used - 1]
    assert reached < schedule.max_size
    assert set(counts) == section_cells(reached, bandwidth)
    assert max(counts.values()) == 1


def test_det_infinite_identity():
    rep = det_infinite(identity_spec(), TruncationSchedule(8, 2, 64))
    assert rep.report.converged
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_det_infinite_decaying_diagonal_matches_partial_product():
    spec = diagonal_spec(lambda i: 1.0 + 2.0 ** -i)
    rep = det_infinite(spec, TruncationSchedule(8, 2, 512),
                       ConvergencePolicy(tol=1e-8))
    oracle = 1.0
    for i in range(1, 61):
        oracle *= 1.0 + 2.0 ** -i
    assert rep.report.converged
    assert rep.value == pytest.approx(oracle, rel=1e-7)


def test_det_infinite_oscillating_diagonal_undetermined():
    # the sign of det(-I_n) flips with n, visible on consecutive sizes
    spec = diagonal_spec(lambda i: -1.0)
    rep = det_infinite(spec, [3, 4, 5, 6, 7, 8])
    assert rep.report.status == "undetermined"


def test_det_truncation_route_fallback():
    # diagonal 3 breaks the norm precondition, elimination takes over
    section = truncate(diagonal_spec(lambda i: 3.0), 3, 3)
    assert det_truncation(section.data) == pytest.approx(27.0)
    with pytest.raises(PreconditionError):
        det_log_series(section)
    assert det_oracle(section) == pytest.approx(27.0)


def _wide_near_identity(n=8):
    """An n-by-n dense array within 0.2 of I in norm_inf: its band, (n - 1,
    n - 1), is wide for n >= 7, so the auto route may take the log series."""
    i, j = np.indices((n, n))
    return np.eye(n) + 0.02 / (i + j + 1.0)


def test_auto_route_attempts_no_series_a_diagonal_entry_rules_out(monkeypatch):
    # |t_ii - 1| >= 1 on one diagonal entry puts norm_inf(t - I) at >= 1,
    # so the auto route goes straight to elimination
    attempts = []
    series = determinant._log_series
    monkeypatch.setattr(determinant, "_log_series",
                        lambda t, policy: attempts.append(t) or series(t, policy))
    policy = ConvergencePolicy()
    t = _wide_near_identity()
    det_truncation(t, policy)
    assert len(attempts) == 1
    for entry in (2.0, 0.0, -0.5):
        t[3, 3] = entry
        assert det_truncation(t, policy) == lu_det(t)
    assert len(attempts) == 1
    # a NaN diagonal entry leaves the test to the series, as its norm does
    assert log_series_may_apply(np.array([np.nan, 5.0]))
    assert list(log_series_may_apply(np.array([[0.5, 1.9], [0.5, 2.0], [0.0, 1.0]]))) == [
        True, False, False]


def test_narrow_section_is_eliminated_with_no_series(monkeypatch):
    # within 0.2 of I, where a wide section takes the series; a tridiagonal
    # band, given or measured, and a 6-by-6 dense one are eliminated
    attempts = []
    monkeypatch.setattr(determinant, "_log_series",
                        lambda t, policy: attempts.append(t))
    t = _wide_near_identity(6)
    assert det_truncation(t) == lu_det(t)
    tri = np.triu(np.tril(_wide_near_identity(), 1), -1)
    assert det_truncation(tri) == lu_det(tri)
    for band in ((1, 1), (2, 3)):
        assert det_truncation(band_rows(tri, band)) == lu_det(tri)
    assert attempts == []


def test_det_truncation_of_a_diagonal_section_is_the_product_of_its_diagonal():
    # harmonic_diag's 8-section: elimination multiplies the pivots in order,
    # where the log series is 5e-9 relative off 1/8!
    diag = [1.0 / i for i in range(1, 9)]
    t = truncate(diagonal_spec(lambda i: 1.0 / i), 8, 8).data
    assert det_truncation(t) == math.prod(diag)
    assert det_truncation(band_rows(t, (0, 0))) == math.prod(diag)


# --- minor expansion ----------------------------------------------------------

def test_cauchy_binet_worked_case():
    a = DenseMatrix([[1, 1, 0], [0, 1, 1]])
    b = a.transpose()
    assert cauchy_binet(a, b) == pytest.approx(3.0, abs=1e-12)
    assert det_oracle(DenseMatrix([[2, 1], [1, 2]])) == pytest.approx(3.0)


def test_cauchy_binet_square_reduces_to_product():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (4, 4))
    b = rng.uniform(-1, 1, (4, 4))
    got = cauchy_binet(DenseMatrix(a), DenseMatrix(b))
    assert got == pytest.approx(det_oracle(DenseMatrix(a)) * det_oracle(DenseMatrix(b)),
                                abs=1e-12)


def test_cauchy_binet_wide_matches_product_det():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        a = rng.uniform(-1, 1, (m, n))
        b = rng.uniform(-1, 1, (n, m))
        want = det_oracle(DenseMatrix(a @ b))
        assert cauchy_binet(DenseMatrix(a), DenseMatrix(b)) == pytest.approx(
            want, abs=1e-9 * max(1, abs(want)))


def test_cauchy_binet_tall_warns_and_returns_zero():
    a = DenseMatrix([[1.0], [2.0]])
    b = DenseMatrix([[3.0, 4.0]])
    with pytest.warns(UserWarning):
        assert cauchy_binet(a, b) == 0.0


def test_multiplicativity_of_determinants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        lhs = det_oracle(DenseMatrix(a @ b))
        rhs = det_oracle(DenseMatrix(a)) * det_oracle(DenseMatrix(b))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# --- infinite minor expansion --------------------------------------------------

def _bits(rep):
    """Status and the bits of the estimate and the product determinant."""
    return rep.status, np.array([rep.estimate, rep.product_det]).view(np.int64).tolist()


def test_cauchy_binet_infinite_row_times_column():
    a = entrywise_spec(lambda i, j: 2.0 ** -j, rows=1,
                       decay=DecayCertificate(1.0, 0.5))
    b = entrywise_spec(lambda i, j: 2.0 ** -i, cols=1,
                       decay=DecayCertificate(1.0, 0.5))
    rep = cauchy_binet_infinite(a, b)
    assert rep.status == "converged"
    assert rep.estimate == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.gap <= 1e-8
    assert _bits(rep) == ("converged", [4599676419421044736, 4599676419415474176])


def test_cauchy_binet_infinite_embedded_identity():
    a = entrywise_spec(lambda i, j: 1.0 if i == j else 0.0, rows=2)
    b = entrywise_spec(lambda i, j: 1.0 if i == j else 0.0, cols=2)
    rep = cauchy_binet_infinite(a, b, cap=24)
    assert rep.status == "converged"
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert _bits(rep) == ("converged", [4607182418800017408, 4607182418800017408])


def test_cauchy_binet_infinite_rank_one_outer_product():
    a = entrywise_spec(lambda i, j: 2.0 ** -(i + j), rows=2,
                       decay=DecayCertificate(1.0, 0.5))
    b = entrywise_spec(lambda i, j: 2.0 ** -(i + j), cols=2,
                       decay=DecayCertificate(1.0, 0.5))
    rep = cauchy_binet_infinite(a, b, cap=32)
    assert rep.status == "converged"
    assert rep.estimate == pytest.approx(0.0, abs=1e-12)
    # product entries are series estimates, so their 2x2 det only
    # vanishes to within the entry tolerance
    assert abs(rep.product_det) <= 1e-10
    assert _bits(rep) == ("converged", [0, -4785825204024639488])


@pytest.mark.parametrize("left", [False, True])
def test_cauchy_binet_infinite_non_finite_factor_names_its_cell(left):
    good = entrywise_spec(lambda i, j: 2.0 ** -(i + j), rows=2)
    bad = entrywise_spec(lambda i, j: math.nan if (i, j) == (1, 3) else 1.0, rows=2)
    a = bad if left else good
    b = transpose(good) if left else transpose(bad)
    with pytest.raises(OracleValueError) as err:
        cauchy_binet_infinite(a, b, cap=16)
    assert err.value.index == ((1, 3) if left else (3, 1))
