from collections import Counter

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import bisection_steps, charpoly_roots

from infmat import spectral
from infmat._dense import band_rows
from infmat.determinant import det_log_series, det_oracle
from infmat.errors import (ConvergenceFailureError, InfmatError, OracleValueError,
                           PreconditionError, SingularSystemError)
from infmat.matrix_core import (BANDED, INFINITE, DenseMatrix, MatrixSpec,
                                TruncationSchedule, diagonal_spec, identity_spec,
                                truncate)
from infmat.series import ConvergencePolicy
from infmat.spectral import char_value, eigenvector_for, find_eigenvalues

SCHED = TruncationSchedule(8, 2, 64)


def section(A, n):
    """The n-by-n section array of A."""
    return truncate(A, n, n).data


def test_char_value_diagonal_hits_zero():
    spec = diagonal_spec(lambda i: 1.0 / i)
    assert char_value(section(spec, 4), 0.5) == 0.0


def test_char_value_identity():
    assert char_value(section(identity_spec(), 5), 0.0) == pytest.approx(1.0)
    assert char_value(section(identity_spec(), 9), 0.0) == pytest.approx(1.0)


def test_char_value_symmetric_eigenvalue():
    a = DenseMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert char_value(a.data, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_char_value_routes_agree_when_log_series_applies():
    # a dense 8-by-8 section has a wide band, so the log series is tried
    i, j = np.indices((8, 8))
    a = DenseMatrix(np.diag(np.linspace(1.2, 0.9, 8)) + 0.01 / (i + j + 1.0))
    lam = 0.2
    shifted = DenseMatrix(spectral._shifted(a.data, lam))
    lu = det_oracle(shifted)
    log = det_log_series(shifted).value
    assert log == pytest.approx(lu, abs=1e-8)
    assert char_value(a.data, lam) == log


def test_char_value_forced_log_series_precondition():
    with pytest.raises(PreconditionError):
        det_log_series(DenseMatrix(spectral._shifted(section(identity_spec(), 4), 5.0)))


def test_find_eigenvalues_two_by_two():
    pairs = find_eigenvalues(DenseMatrix([[2.0, 1.0], [1.0, 2.0]]), (0.0, 4.0))
    assert len(pairs) == 2
    assert pairs[0].lam == pytest.approx(1.0, abs=1e-8)
    assert pairs[1].lam == pytest.approx(3.0, abs=1e-8)
    v = pairs[1].vector.data[:, 0]
    assert v.tolist() == pytest.approx([1.0, 1.0], abs=1e-8)


def test_find_eigenvalues_empty_interval_result():
    pairs = find_eigenvalues(identity_spec(4), (2.0, 3.0))
    assert pairs == []


def test_find_eigenvalues_reciprocal_diagonal():
    spec = diagonal_spec(lambda i: 1.0 / i)
    pairs = find_eigenvalues(spec, (0.4, 0.6), SCHED)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.lam == pytest.approx(0.5, abs=1e-9)
    assert pair.stable
    vec = pair.vector.data[:, 0]
    assert abs(vec[1] - 1.0) <= 1e-9
    assert max(abs(v) for k, v in enumerate(vec) if k != 1) <= 1e-9
    assert pair.vec_residual <= 1e-8


def test_find_eigenvalues_matches_charpoly_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        raw = rng.integers(-3, 4, (n, n))
        a = (raw + raw.T).astype(float)
        roots = charpoly_roots(a.astype(int).tolist())
        gaps = np.diff(roots)
        if len(gaps) and np.min(np.abs(gaps)) < 1e-3:
            continue  # only simple, separated roots are in scope
        lo, hi = roots[0] - 1.0, roots[-1] + 1.0
        grid = max(256, int((hi - lo) / max(np.min(np.abs(gaps)) if len(gaps) else 1.0, 1e-3) * 4))
        pairs = find_eigenvalues(DenseMatrix(a), (lo, hi), grid_points=grid)
        got = [p.lam for p in pairs]
        assert len(got) == len(roots)
        for want, have in zip(roots, got):
            assert have == pytest.approx(want, abs=1e-8)


def test_eigenvalue_scaling_invariance():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (4, 4))
    a = (a + a.T) / 2
    base = find_eigenvalues(DenseMatrix(a), (-4.0, 4.0), grid_points=1024)
    doubled = find_eigenvalues(DenseMatrix(2.0 * a), (-8.0, 8.0), grid_points=1024)
    assert len(base) == len(doubled)
    for p, q in zip(base, doubled):
        assert q.lam == pytest.approx(2.0 * p.lam, abs=1e-8)


def test_eigenvector_for_shared_eigenvalue():
    a = DenseMatrix([[2.0, 1.0], [1.0, 2.0]])
    v = eigenvector_for(a.data, 3.0).data[:, 0]
    assert v.tolist() == pytest.approx([1.0, 1.0], abs=1e-10)
    w = eigenvector_for(a.data, 1.0).data[:, 0]
    assert abs(w[0] + w[1]) <= 1e-10


def test_eigenvector_diagonal_basis_vector():
    spec = diagonal_spec(lambda i: 1.0 / i)
    v = eigenvector_for(section(spec, 6), 1.0 / 3.0).data[:, 0]
    want = np.zeros(6)
    want[2] = 1.0
    assert np.max(np.abs(v - want)) <= 1e-12


def test_eigenvector_identity_first_free_convention():
    v = eigenvector_for(section(identity_spec(), 4), 1.0).data[:, 0]
    assert v.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_eigenvector_rejects_non_eigenvalue():
    with pytest.raises(SingularSystemError):
        eigenvector_for(np.array([[2.0, 0.0], [0.0, 3.0]]), 1.0)


def test_eigenpair_residual_invariant():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.uniform(-1, 1, (5, 5))
        a = (a + a.T) / 2
        pairs = find_eigenvalues(DenseMatrix(a), (-4.0, 4.0), grid_points=1024)
        for p in pairs:
            assert p.vec_residual <= 1e-6 * (1.0 + abs(p.lam))
            assert np.max(np.abs(p.vector.data[:, 0])) == pytest.approx(1.0)


def test_find_eigenvalues_evaluates_each_band_cell_once():
    # the oracle cost of a scan is one section, whatever the grid
    calls = Counter()

    def entry(i, j):
        calls[(i, j)] += 1
        return {-1: 0.25, 0: 1.0 / i, 1: 0.25}.get(j - i, 0.0)

    spec = MatrixSpec(INFINITE, INFINITE, entry, structure=BANDED, bandwidth=1)
    n = 32
    band = {(i, j) for i in range(1, n + 1) for j in range(i - 1, i + 2) if 1 <= j <= n}
    for grid in (16, 64):
        calls.clear()
        pairs = find_eigenvalues(spec, (0.3, 0.45), TruncationSchedule(8, 2, n),
                                 grid_points=grid)
        assert len(pairs) == 4
        assert set(calls) == band
        assert max(calls.values()) == 1


def test_find_eigenvalues_finite_spec_roots_are_exact_and_stable():
    # a finite spec is its own one-size schedule: its roots are not
    # compared with those of a smaller section
    def entry(i, j):
        return {-1: 0.25, 0: 1.0 / i, 1: 0.25}.get(j - i, 0.0)

    spec = MatrixSpec(20, 20, entry, structure=BANDED, bandwidth=1)
    pairs = find_eigenvalues(spec, (0.3, 0.65), grid_points=64)
    dense = np.array([[entry(i, j) for j in range(1, 21)] for i in range(1, 21)])
    want = [x for x in np.linalg.eigvalsh(dense) if 0.3 <= x <= 0.65]
    assert len(want) == 6
    assert [p.lam for p in pairs] == pytest.approx(want, abs=1e-9)
    assert all(p.stable for p in pairs)


@pytest.mark.parametrize("hi, grid", [(1.0 / 3.0, 2), (1.0 / 3.0 + 1.0 / 30.0, 3)])
def test_root_on_a_grid_point_is_reported_once(hi, grid):
    # the grid point 1/3 is a root; the bracket ending there has a negative
    # left value, and is left to the next bracket or the trailing endpoint
    spec = diagonal_spec(lambda i: 1.0 / i)
    assert 1.0 / 3.0 in np.linspace(0.3, hi, grid).tolist()
    pairs = find_eigenvalues(spec, (0.3, hi), SCHED, grid_points=grid)
    assert [p.lam for p in pairs] == [1.0 / 3.0]


def _first_scalar_error(t, xs, policy):
    """The grid point and error at which the one-at-a-time scan stops."""
    for x in xs:
        try:
            char_value(t, x, policy)
        except InfmatError as exc:
            return x, exc
    raise AssertionError("the scan raises nothing")


@pytest.mark.parametrize("data, interval, policy, error", [
    # the shifted diagonal overflows at entry (2, 2) part way along the grid
    ([[-1e308, 1.0, 0.0], [1.0, -1.5e308, 1.0], [0.0, 1.0, 2.0]], (0.0, 1e308),
     ConvergencePolicy(), OracleValueError),
    # the first grid points take the log series (norm 0.987) and hit its cap;
    # the section is dense, so its band is wide and the series is tried
    (np.full((8, 8), 0.001) + np.diag(np.full(8, 0.019)), (0.0, 0.5),
     ConvergencePolicy(max_terms=20), ConvergenceFailureError),
], ids=["non-finite-shift", "series-cap"])
def test_grid_scan_raises_where_the_scalar_scan_raises(monkeypatch, data, interval, policy,
                                                       error):
    xs = np.linspace(*interval, 16)
    x_err, err = _first_scalar_error(DenseMatrix(data).data, xs, policy)
    assert type(err) is error and x_err != xs[-1]
    seen = []
    shifted = spectral._shifted
    monkeypatch.setattr(spectral, "_shifted", lambda t, x: shifted(t, seen.append(x) or x))
    with pytest.raises(error) as info:
        find_eigenvalues(DenseMatrix(data), interval, policy=policy, grid_points=16)
    assert str(info.value) == str(err)
    assert seen[-1] == x_err


@st.composite
def grid_scans(draw):
    """A section near the identity, narrow or wide, its band or None, and
    a grid; near the identity a wide band's log series applies, and with
    a low term cap it can fail."""
    wide = draw(st.booleans())
    n = draw(st.integers(7, 24) if wide else st.integers(1, 24))
    bl, bu = (n, n) if wide else draw(st.sampled_from([(0, 0), (1, 1), (2, 1), (1, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, j = np.indices((n, n))
    scale = draw(st.sampled_from([0.01, 0.1, 1.0]))
    t = np.eye(n) + np.where((j - i <= bu) & (i - j <= bl),
                             rng.uniform(-scale, scale, (n, n)), 0.0)
    xs = np.linspace(*sorted(rng.uniform(-1.0, 1.0, 2)), draw(st.integers(1, 12)))
    return t, xs, draw(st.sampled_from([None, (bl, bu)]))


def _values_or_error(run):
    try:
        return np.array(run(), dtype=float).view(np.int64).tolist()
    except InfmatError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(grid_scans())
def test_grid_values_are_the_scalar_scan_bit_for_bit(case):
    t, xs, band = case
    policy = ConvergencePolicy(max_terms=200)
    t = t if band is None else band_rows(t, band)
    want = _values_or_error(lambda: [char_value(t, x, policy) for x in xs])
    assert _values_or_error(lambda: spectral._grid_values(t, xs, policy)) == want


def test_trailing_endpoint_root_is_checked_at_the_previous_size():
    # -1/64 is a root of the 64-section of diag(-1/i) but not of the 32-section;
    # 1/3 is a root of both sections of diag(1/i)
    pairs = find_eigenvalues(diagonal_spec(lambda i: -1.0 / i), (-0.02, -0.015625), SCHED,
                             grid_points=2)
    assert [(p.lam, p.stable) for p in pairs] == [(-0.02, False), (-0.015625, False)]
    pairs = find_eigenvalues(diagonal_spec(lambda i: 1.0 / i), (0.3, 1.0 / 3.0), SCHED,
                             grid_points=2)
    assert [(p.lam, p.stable) for p in pairs] == [(1.0 / 3.0, True)]


def test_a_root_of_the_previous_section_away_from_the_bracket_ends_is_stable():
    # the 16-section's bracket [0, 0.5] is bisected to its root 0.45; the
    # 8-section has 0.45 too, but bisecting the same bracket at that size
    # lands on its root 0.05
    values = [0.35, 0.6, 0.75, 0.9, 0.45, 0.05, 0.7, 0.55,
              0.85, 0.45, 0.35, 0.1, 0.45, 0.65, 0.75, 0.85]
    pairs = find_eigenvalues(diagonal_spec(lambda i: values[i - 1]), (0.0, 1.0),
                             TruncationSchedule(8, 2, 16), grid_points=3)
    assert [p.lam for p in pairs] == pytest.approx([0.45, 0.75], abs=1e-9)
    assert [p.stable for p in pairs] == [True, True]


def test_find_eigenvalues_reads_each_section_once(monkeypatch):
    # one section per size read, the largest and the previous, and at most
    # three characteristic values of the previous one per root
    reads, values = Counter(), Counter()
    call = spectral.Sections.__call__
    monkeypatch.setattr(spectral.Sections, "__call__",
                        lambda self, n: reads.update([n]) or call(self, n))
    monkeypatch.setattr(spectral, "char_value",
                        lambda t, x, policy=None: values.update([t.shape[0]]) or char_value(
                            t, x, policy))
    pairs = find_eigenvalues(diagonal_spec(lambda i: 1.0 / i), (0.02, 0.6), SCHED,
                             grid_points=64)
    # 1/2 .. 1/11 and 1/21 are roots of the 32-section too, 1/50 is not
    assert [(round(1.0 / p.lam), p.stable) for p in pairs] == [(50, False), (21, True)] + [
        (i, True) for i in range(11, 1, -1)]
    assert reads == {64: 1, 32: 1}
    assert 0 < values[32] <= 3 * len(pairs)


@st.composite
def repeated_diagonals(draw):
    """16 diagonal values, repeats likely, a few of them 4e-7 or 3e-6 from
    another: inside and outside the stability tolerance, clear of it."""
    pool = [k / 20 + off for k in range(1, 20) for off in (0.0, 4e-7, 3e-6)]
    return draw(st.lists(st.sampled_from(pool), min_size=16, max_size=16))


@settings(max_examples=80, deadline=None)
@given(repeated_diagonals(), st.integers(2, 24))
def test_a_stable_root_has_a_root_of_the_previous_section_within_the_tolerance(values, grid):
    pairs = find_eigenvalues(diagonal_spec(lambda i: values[i - 1]), (0.0, 1.0),
                             TruncationSchedule(8, 2, 16), grid_points=grid)
    for p in pairs:
        assert min(abs(v - p.lam) for v in values) <= 1e-9
        if p.stable:
            assert min(abs(v - p.lam) for v in values[:8]) <= spectral.ROOT_STABILITY_TOL


def test_roots_of_an_infinite_spec_on_a_one_size_schedule_are_unstable():
    # the free Laplacian's 8-section has a root near 1.879; the 16-section's
    # roots lie elsewhere, so one size is no evidence of a limit
    def entry(i, j):
        return 1.0 if abs(i - j) == 1 else 0.0

    spec = MatrixSpec(INFINITE, INFINITE, entry, bandwidth=1)
    pairs = find_eigenvalues(spec, (1.8, 3.0), TruncationSchedule(8, 2, 8), grid_points=64)
    assert [p.lam for p in pairs] == pytest.approx([2 * np.cos(np.pi / 9)])
    assert not any(p.stable for p in pairs)
    # a finite spec's one size is exact
    pairs = find_eigenvalues(MatrixSpec(8, 8, entry, bandwidth=1), (1.8, 3.0), grid_points=64)
    assert len(pairs) == 1 and pairs[0].stable


def test_bisection_ends_where_floats_are_wider_than_its_width():
    # near 1e6 neighbouring floats are 1.2e-10 apart, wider than BISECT_WIDTH
    pairs = find_eigenvalues(DenseMatrix([[1e6, 1.0], [1.0, 1e6 + 1.0]]), (999998.0, 1000003.0),
                             grid_points=7)
    want = 1e6 + 0.5 + np.array([-1.0, 1.0]) * np.sqrt(1.25)
    assert [p.lam for p in pairs] == pytest.approx(want, abs=1e-9)


def refined_in_a_final_bracket(f, lo, hi):
    """Refine the sign change ``[lo, hi]`` of ``f``, and check the result:
    ``f`` is exactly 0 there, or it lies in the bracket of the values read
    nearest it on either side, whose signs are those of ``f(lo)`` and
    ``f(hi)`` and which is at most ``BISECT_WIDTH`` wide, or holds no float
    between its ends; and at most bisection's count plus one values are
    read.  Returns the result."""
    flo, fhi = f(lo), f(hi)
    read = []

    def counted(x):
        read.append((x, f(x)))
        return read[-1][1]

    root = spectral._refine(counted, lo, hi, flo, fhi)
    assert len(read) <= bisection_steps(lo, hi, spectral.BISECT_WIDTH) + 1
    if (root, 0.0) in read:
        return root
    assert all(v != 0.0 for _, v in read)
    points = [(lo, flo), (hi, fhi), *read]
    left = max(x for x, v in points if x <= root and (v < 0) == (flo < 0))
    right = min(x for x, v in points if x >= root and (v < 0) == (fhi < 0))
    assert left <= root <= right
    assert not any(left < x < right for x, _ in points)
    assert right - left <= spectral.BISECT_WIDTH or np.nextafter(left, math.inf) == right
    return root


@st.composite
def polynomial_brackets(draw):
    """A polynomial with simple roots, as a product of ``x - r`` so that
    its sign is exact, and a bracket around one root that holds no other."""
    roots = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6, unique=True)))
    assume(np.all(np.diff(roots) > 1e-3))
    scale = draw(st.sampled_from([1.0, -1.0, 1e-200, -3e150]))
    k = draw(st.integers(0, len(roots) - 1))
    below = roots[k - 1] if k else roots[k] - 5.0
    above = roots[k + 1] if k + 1 < len(roots) else roots[k] + 5.0
    lo = roots[k] - draw(st.floats(0.0, 0.999, exclude_min=True)) * (roots[k] - below)
    hi = roots[k] + draw(st.floats(0.0, 0.999, exclude_min=True)) * (above - roots[k])
    assume(lo < hi)
    return roots, scale, lo, hi


@settings(max_examples=150, deadline=None)
@given(polynomial_brackets())
def test_refinement_of_a_polynomial_root(case):
    roots, scale, lo, hi = case

    def f(x):
        return scale * math.prod(x - r for r in roots)

    assume(f(lo) != 0.0 and f(hi) != 0.0)
    root = refined_in_a_final_bracket(f, lo, hi)
    assert min(abs(root - r) for r in roots) <= spectral.BISECT_WIDTH


@st.composite
def symmetric_sections(draw):
    """A random symmetric tri- or pentadiagonal section, and a grid size."""
    n, band = draw(st.integers(2, 12)), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-1.0, 1.0, (n, n))
    i, j = np.indices((n, n))
    a = np.where(np.abs(i - j) <= band, a + a.T, 0.0)
    return a, draw(st.integers(4, 40))


@settings(max_examples=60, deadline=None)
@given(symmetric_sections())
def test_refinement_of_characteristic_values(case):
    # every sign change of a grid over the spectrum, which may hold
    # several roots
    a, grid = case
    rows, eigs = band_rows(a), np.linalg.eigvalsh(a)
    xs = np.linspace(eigs[0] - 0.5, eigs[-1] + 0.5, grid).tolist()

    def f(x):
        return char_value(rows, x)

    values = [f(x) for x in xs]
    for lo, hi, flo, fhi in zip(xs, xs[1:], values, values[1:]):
        if flo != 0.0 and fhi != 0.0 and (flo < 0) != (fhi < 0):
            root = refined_in_a_final_bracket(f, lo, hi)
            assert min(abs(root - eigs)) <= 1e-8


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_residual_of_band_rows_is_the_array_product(n, bl, bu, seed):
    # summed over the band's offsets rather than along each row: within
    # the rounding of a sum of bl + bu + 1 products
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    a = np.where((j - i <= bu) & (i - j <= bl), rng.uniform(-2.0, 2.0, (n, n)), 0.0)
    v = rng.uniform(-1.0, 1.0, n)
    got, want = spectral._apply(band_rows(a, (bl, bu)), v), a @ v
    slack = (bl + bu + 1) * np.finfo(float).eps * (np.abs(a) @ np.abs(v))
    assert np.all(np.abs(got - want) <= slack)
