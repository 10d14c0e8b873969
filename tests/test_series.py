import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infmat.errors import ExtentMismatchError
from infmat.series import (CONVERGED, DIVERGED, UNDETERMINED, ConvergencePolicy,
                           GeometricTail, exact_report, limit_of_sequence,
                           limit_sizes, section_limit, section_limit_vector,
                           stabilize_vector, sum_series)
from infmat.matrix_core import INFINITE, TruncationSchedule

DEFAULT = ConvergencePolicy()


def test_policy_invariants():
    with pytest.raises(ValueError):
        ConvergencePolicy(tol=0.0)
    with pytest.raises(ValueError):
        ConvergencePolicy(window=0)
    with pytest.raises(ValueError):
        ConvergencePolicy(window=5, max_terms=5)


def test_geometric_quarter_ratio():
    # sum over k >= 1 of 4^-k is 1/3
    rep = sum_series(lambda k: 4.0 ** -k)
    assert rep.status == CONVERGED
    assert rep.estimate == pytest.approx(1.0 / 3.0, abs=1e-10)


@given(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 5e-324, 1e300, 1.7e308, math.inf])),
       st.floats(1e-9, 1.0, exclude_max=True), st.integers(1, 20_000), st.integers(0, 200))
def test_chunk_bounds_are_the_remainders_bit_for_bit(C, r, k0, width):
    # a chunk's certificate bounds in one pass against one remainder call a
    # term, into underflow, overflow and C = inf (nan where the power is 0)
    tail = GeometricTail(C, r)
    got = tail.remainders(k0, k0 + width)
    want = np.array([tail.remainder(k) for k in range(k0, k0 + width)])
    assert got.shape == (width,) and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_zero_series_converges_in_window_plus_one():
    rep = sum_series(lambda k: 0.0)
    assert rep.status == CONVERGED
    assert rep.estimate == 0.0
    assert rep.terms_used == DEFAULT.window + 1


def test_harmonic_never_converges():
    rep = sum_series(lambda k: 1.0 / k, ConvergencePolicy(max_terms=20000))
    assert rep.status in (UNDETERMINED, DIVERGED)


def test_constant_positive_terms_diverge_past_blowup():
    rep = sum_series(lambda k: 1.0, ConvergencePolicy(tol=1e-3))
    assert rep.status == DIVERGED
    assert rep.terms_used == 1000 + DEFAULT.window


def test_non_finite_term_reports_offending_index():
    def term(k):
        return math.inf if k == 7 else 0.5 ** k

    rep = sum_series(term)
    assert rep.status == DIVERGED
    assert rep.terms_used == 7
    assert rep.last_delta == math.inf


def test_certified_tail_bound():
    tail = GeometricTail(C=1.0, r=0.25)
    rep = sum_series(lambda k: 4.0 ** -k, tail=tail)
    assert rep.status == CONVERGED
    assert rep.certified
    assert abs(rep.estimate - 1.0 / 3.0) <= tail.remainder(rep.terms_used)
    # report invariant holds on the certified path too
    assert rep.last_delta <= DEFAULT.tol * max(1.0, abs(rep.estimate))


def test_certified_alternating_within_bound():
    tail = GeometricTail(C=2.0, r=0.5)
    rep = sum_series(lambda k: 2.0 * (-0.5) ** k, tail=tail)
    true = 2.0 * (-0.5) / 1.5
    assert rep.certified
    assert abs(rep.estimate - true) <= tail.remainder(rep.terms_used)


def test_refinement_stability_for_certified_geometric():
    first = sum_series(lambda k: 3.0 * 0.7 ** k, tail=GeometricTail(3.0, 0.7))
    tighter = ConvergencePolicy(tol=1e-12, max_terms=1_000_000)
    second = sum_series(lambda k: 3.0 * 0.7 ** k, tighter,
                        tail=GeometricTail(3.0, 0.7))
    assert first.status == second.status == CONVERGED
    assert abs(first.estimate - second.estimate) <= \
        10 * DEFAULT.tol * max(1.0, abs(first.estimate))


@given(st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.1, max_value=100.0))
def test_geometric_certificate_error_bound(r, c):
    tail = GeometricTail(C=c, r=r)
    rep = sum_series(lambda k: c * r ** k, tail=tail)
    true = c * r / (1.0 - r)
    assert rep.status == CONVERGED and rep.certified
    # the bound is exactly tight for a pure geometric series, so allow
    # accumulated float rounding on top of it
    assert abs(rep.estimate - true) <= \
        tail.remainder(rep.terms_used) + 1e-12 * max(1.0, abs(true))


@given(st.integers(min_value=1, max_value=6))
def test_stopping_rule_deterministic(window):
    policy = ConvergencePolicy(tol=1e-8, window=window, max_terms=5000)
    a = sum_series(lambda k: (-0.8) ** k, policy)
    b = sum_series(lambda k: (-0.8) ** k, policy)
    assert a == b


def test_limit_of_reciprocal_drift():
    # 1 + 1/n settles once the step 1/(2n) drops under the tolerance
    policy = ConvergencePolicy(tol=1e-4)
    schedule = TruncationSchedule(start=8, growth=2, max_size=65536)
    rep = limit_of_sequence(lambda n: 1.0 + 1.0 / n, schedule, policy)
    assert rep.status == CONVERGED
    assert rep.estimate == pytest.approx(1.0, abs=1e-3)


def test_limit_of_oscillation_undetermined():
    # geometric schedules only sample even sizes, where (-1)^n is constant;
    # an explicit run of consecutive sizes shows the oscillation
    rep = limit_of_sequence(lambda n: (-1.0) ** n, list(range(1, 13)))
    assert rep.status == UNDETERMINED


def test_limit_of_constant_converges_at_window_plus_one():
    rep = limit_of_sequence(lambda n: math.log(0.99), TruncationSchedule())
    assert rep.status == CONVERGED
    assert rep.terms_used == DEFAULT.window + 1
    assert rep.estimate == math.log(0.99)


def test_limit_accepts_plain_size_iterables():
    rep = limit_of_sequence(lambda n: 2.0, [4, 8, 16, 32, 64])
    assert rep.status == CONVERGED


def test_converged_delta_invariant():
    for rep in (sum_series(lambda k: 4.0 ** -k),
                limit_of_sequence(lambda n: 5.0, TruncationSchedule()),
                sum_series(lambda k: 100.0 * 0.5 ** k)):
        if rep.status == CONVERGED:
            assert rep.last_delta <= DEFAULT.tol * max(1.0, abs(rep.estimate))


def test_stabilize_vector():
    def value_at(n):
        return np.array([1.0 + 2.0 ** -n, 3.0])

    vec, rep = stabilize_vector(value_at, [8, 16, 32, 64, 128, 256],
                                ConvergencePolicy(tol=1e-6))
    assert rep.status == CONVERGED
    assert vec[0] == pytest.approx(1.0, abs=1e-4)


def test_exact_report_shape():
    rep = exact_report(2.5, 7)
    assert rep.converged and rep.terms_used == 7 and rep.last_delta == 0.0


def test_vector_blowup_diverges_like_scalar():
    sizes = list(range(1, 80))
    vec, rep = stabilize_vector(lambda n: np.array([2.0 ** n, 1.0]), sizes)
    scalar = limit_of_sequence(lambda n: 2.0 ** n, sizes)
    assert rep.status == scalar.status == DIVERGED
    assert rep.terms_used == scalar.terms_used
    assert rep.estimate == scalar.estimate == vec[0]


def test_vector_non_finite_step_keeps_last_finite_estimate():
    steps = {1: [1.0, -3.0], 2: [1.0, -2.0], 3: [math.inf, 0.0]}
    vec, rep = stabilize_vector(lambda n: np.array(steps[n]), [1, 2, 3])
    assert rep.status == DIVERGED
    assert rep.terms_used == 3 and rep.last_delta == math.inf
    assert rep.estimate == 2.0
    # the vector returned is the last one computed
    assert vec[0] == math.inf


_count = st.integers(min_value=2, max_value=40)
_settling = st.builds(lambda a, c, r, n: [a + c * r ** k for k in range(n)],
                      st.floats(-1e3, 1e3), st.floats(-10.0, 10.0),
                      st.floats(0.0, 0.5), _count)
_oscillating = st.builds(lambda a, c, n: [a + c * (-1.0) ** k for k in range(n)],
                         st.floats(-1e3, 1e3), st.floats(1e-12, 1.0), _count)
_growing = st.builds(lambda c, g, n: [c * g ** k for k in range(n)],
                     st.floats(1e2, 1e12) | st.floats(-1e12, -1e2),
                     st.floats(1.0, 4.0), _count)
_shapes = _settling | _oscillating | _growing | st.lists(st.floats(), max_size=30)
_with_non_finite = st.builds(lambda xs, pos, bad: xs[:pos] + [bad] + xs[pos:],
                             _shapes, st.integers(0, 40),
                             st.sampled_from([math.inf, -math.inf, math.nan]))


@given(_shapes | _with_non_finite, st.sampled_from([1e-10, 1e-6, 1e-3]),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=50))
def test_scalar_and_vector_limits_agree(values, tol, window, extra_terms):
    # a length-1 vector sequence is the scalar sequence under the max-abs
    # norm, so both must stop at the same step with the same verdict
    policy = ConvergencePolicy(tol=tol, window=window, max_terms=window + 1 + extra_terms)
    sizes = list(range(1, len(values) + 1))
    scalar = limit_of_sequence(lambda n: values[n - 1], sizes, policy)
    _, vector = stabilize_vector(lambda n: np.array([values[n - 1]]), sizes, policy)
    assert vector.status == scalar.status
    assert vector.terms_used == scalar.terms_used
    assert vector.last_delta == scalar.last_delta
    if math.isnan(scalar.estimate):
        assert math.isnan(vector.estimate)
    else:
        assert vector.estimate == abs(scalar.estimate)


def test_section_limit_finite_extent_is_one_exact_size():
    seen = []

    def value_at(n):
        seen.append(n)
        return 1.0 / n

    sched = TruncationSchedule(4, 2, 64)
    assert section_limit(value_at, 12, sched) == exact_report(1.0 / 12, 1)
    vec, rep = section_limit_vector(lambda n: [-2.0 * n, 1.0], 12, sched)
    assert vec.tolist() == [-24.0, 1.0] and rep == exact_report(24.0, 1)
    assert seen == [12]
    # a non-finite value is diverged at the one size, as at an infinite
    # extent's first size
    for bad in (math.inf, -math.inf, math.nan):
        for extent in (12, INFINITE):
            for rep in (section_limit(lambda n: bad, extent, sched),
                        section_limit_vector(lambda n: [1.0, bad], extent, sched)[1]):
                assert rep.status == DIVERGED and rep.terms_used == 1
                assert rep.last_delta == math.inf and math.isnan(rep.estimate)


def test_section_limit_infinite_extent_visits_sizes_holding_the_index():
    sched = TruncationSchedule(4, 2, 64)
    assert limit_sizes(INFINITE, sched) == [4, 8, 16, 32, 64]
    assert limit_sizes(INFINITE, sched, least=9) == [16, 32, 64]
    seen = []
    rep = section_limit(lambda n: seen.append(n) or 0.5, INFINITE, sched, least=9)
    assert seen == [16, 32, 64] and rep.status == UNDETERMINED


def test_limit_sizes_rejects_an_index_past_the_extent_or_the_cap():
    with pytest.raises(ExtentMismatchError, match="index 13 beyond extent 12"):
        limit_sizes(12, TruncationSchedule(4, 2, 64), least=13)
    with pytest.raises(ExtentMismatchError, match="index 65 exceeds the schedule cap 64"):
        limit_sizes(INFINITE, TruncationSchedule(4, 2, 64), least=65)
