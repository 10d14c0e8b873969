"""Term runs: series summed as a batch fed chunks of terms, against the
scalar sum.

``sum_series(term, policy, tail, (group, k))``, the series k of the
:class:`SeriesBatch` ``group``, must give the report of
``sum_series(term, policy, tail)`` bit for bit, or raise what it raises:
the stopping rule sees the same partial sums, and a series whose chunk the
runs decline, or whose chunk holds a non-finite term, is given back and
summed again from index 1 through ``term``.  ``matmul`` and
``orthogonalize`` feed runs from the leading entries of rows and columns
read through the block oracle (``matrix_core.Lines``); with the block
removed every term is scalar.
"""

import contextlib
import dataclasses
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import counting, stopping_rule
from test_block_oracle import expr_spec, scalar
from test_expr_dsl import _asts
from test_golden_cli import GEO_ROWS3, POLY_A, POLY_B, POLY_ROWS4

from infmat import algebra, specio
from infmat.algebra import _line_product, matmul
from infmat.bases_orth import orthogonalize
from infmat.cli import main
from infmat.expr_dsl import EvalError, pretty
from infmat.matrix_core import Lines, truncate
from infmat.series import (BATCH_CELLS, FIRST_TERMS, ConvergencePolicy, ConvergenceReport,
                           GeometricTail, SeriesBatch, _Rule, sum_series)
from infmat.specio import matrix_from_obj


def bits(report):
    """The report with its floats as their bit patterns."""
    return (np.float64(report.estimate).view(np.int64),
            np.float64(report.last_delta).view(np.int64),
            report.status, report.terms_used, report.certified)


def outcome(run):
    """``bits`` of what ``run()`` returns, or the error it raised."""
    try:
        result = run()
    except Exception as exc:  # compared, class and all, with the other path
        return ("raised", type(exc), str(exc))
    return ("ok", bits(result))


def product_outcome(A, B, policy):
    def run():
        product = matmul(A, B, policy)
        return {key: bits(rep) for key, rep in product.per_entry_reports.items()}

    try:
        return ("ok", run())
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def orth_outcome(spec, policy):
    try:
        rep = orthogonalize(spec, policy)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", rep.G.data.view(np.int64).tolist(), rep.gram.data.view(np.int64).tolist(),
            np.float64(rep.max_offdiag_dot).view(np.int64),
            rep.A_prime.coefficients.view(np.int64).tolist())


def summed(term, policy, tail, run):
    """``term``'s sum as a batch of one, with the 1-d runs ``run(k0, k1)``."""
    def runs(k0, k1, rows):
        chunk = run(k0, k1)
        return None if chunk is None else chunk[None, :]

    return sum_series(term, policy, tail, (SeriesBatch([tail], policy, runs), 0))


policies = st.builds(lambda tol, window, max_terms: ConvergencePolicy(
    tol, window, max(max_terms, window + 1)),
    st.sampled_from([1e-10, 1e-6, 1e-3]), st.integers(1, 5), st.integers(4, 3000))
tails = st.one_of(st.none(), st.builds(GeometricTail, st.floats(0.0, 10.0),
                                       st.floats(0.05, 0.95)))


# --- the rule on its own --------------------------------------------------

@given(_asts, _asts, st.integers(1, 4), st.integers(1, 4), policies, tails)
def test_row_times_column_runs_match_the_scalar_sum(row, col, i, j, policy, tail):
    # rows x columns of random formulas: unbound variables, zero divisors
    # and domain errors make the block decline, overflow gives inf and nan
    A, B = expr_spec(pretty(row)), expr_spec(pretty(col))

    def term(l):
        return A.entry(i, l) * B.entry(l, j)

    runs = _line_product(Lines(A, [i], 0), Lines(B, [j], 1), [(0, 0)])
    batch = SeriesBatch([tail], policy, runs), 0
    assert (outcome(lambda: sum_series(term, policy, tail, batch))
            == outcome(lambda: sum_series(term, policy, tail)))


class _Bad(Exception):
    pass


@st.composite
def term_tables(draw):
    """Terms 1..n as a list (floats, inf, nan, or an error marker) and the
    set of chunks, by start index, the run declines; a chunk holding an
    error is always declined, as a block oracle declines it."""
    values = draw(st.lists(st.one_of(
        st.floats(-1e3, 1e3),
        st.floats(-1e-9, 1e-9),
        st.sampled_from([math.inf, -math.inf, math.nan, 1e308, "error"])),
        min_size=1, max_size=80))
    declined = draw(st.sets(st.integers(1, 81)))
    return values, declined


@given(term_tables(), st.integers(1, 5), st.integers(4, 120), tails)
def test_declined_and_non_finite_chunks_match_the_scalar_sum(table, window, max_terms, tail):
    values, declined = table
    max_terms = max(max_terms, window + 1)
    policy = ConvergencePolicy(tol=1e-6, window=window, max_terms=max_terms)
    evaluated = []

    def value(k):
        return values[(k - 1) % len(values)]

    def term(k):
        evaluated.append(k)
        if value(k) == "error":
            raise _Bad(f"term {k}")
        return value(k)

    def run(k0, k1):
        chunk = [value(k) for k in range(k0, k1)]
        if k0 in declined or "error" in chunk:
            return None
        return np.array(chunk, dtype=float)

    want = outcome(lambda: sum_series(term, policy, tail))
    evaluated.clear()
    got = outcome(lambda: summed(term, policy, tail, run))
    assert got == want
    # term is asked only up to the stop (or the index that raised)
    stop = want[1][3] if want[0] == "ok" else int(want[2].split()[1])
    assert all(k <= stop for k in evaluated)


@given(st.lists(st.floats(1.0, 1e3), min_size=7, max_size=80), st.integers(1, 5),
       st.integers(0, 80), st.sampled_from(["declined", "inf"]))
def test_a_series_given_back_is_summed_again_from_index_1(table, window, at, how):
    # the chunk holding index ``at`` starts past index 1; every term before
    # ``at`` is at least 1, so no series stops before that chunk, and zeros
    # follow the table, so it stops soon after
    policy = ConvergencePolicy(tol=1e-10, window=window, max_terms=200)
    at = window + 2 + at % (len(table) - window - 1)
    asked = []

    def value(k):
        if how == "inf" and k == at:
            return math.inf
        return table[k - 1] if k <= len(table) else 0.0

    def term(k):
        asked.append(k)
        return value(k)

    def runs(k0, k1, rows):
        if how == "declined" and k0 <= at < k1:
            return None
        return np.array([[value(k) for k in range(k0, k1)]])

    want = sum_series(term, policy)
    stop = want.terms_used
    asked.clear()
    group = SeriesBatch([None], policy, runs)
    got = sum_series(term, policy, None, (group, 0))
    assert bits(got) == bits(want)
    assert asked == list(range(1, stop + 1))
    assert group.outcome(0) is None


_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e-9, 1e-9),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, 3e10, "error"]))
_growing = st.builds(lambda c, g, n: [c * g ** k for k in range(n)],
                     st.floats(1e2, 1e8) | st.floats(-1e8, -1e2), st.floats(1.5, 4.0),
                     st.integers(1, 40))
_tables = st.lists(_entries, min_size=1, max_size=60) | _growing | st.builds(
    lambda xs, at, bad: xs[:at] + [bad] + xs[at:], _growing, st.integers(0, 40),
    st.sampled_from([math.nan, math.inf, "error"]))


@given(st.lists(st.tuples(_tables, tails), min_size=1, max_size=6),
       st.sets(st.integers(1, 200)), st.sampled_from([1e-10, 1e-6, 1e-3]),
       st.integers(1, 4), st.integers(2, 90))
def test_batch_reports_match_one_at_a_time_sums(drawn, declined, tol, window, max_terms):
    # each series of a batch, whatever the others do, must end as it ends
    # summed alone: same report bits, or the same error
    policy = ConvergencePolicy(tol, window, max(max_terms, window + 1))
    asked = [[] for _ in drawn]

    def value(s, k):
        table = drawn[s][0]
        return table[(k - 1) % len(table)]

    def term_of(s):
        def term(k):
            asked[s].append(k)
            if value(s, k) == "error":
                raise _Bad(f"series {s} term {k}")
            return value(s, k)

        return term

    def runs(k0, k1, rows):
        if k0 in declined:
            return None
        # a chunk holding an error is nan: its series leaves the batch
        return np.array([[math.nan if value(s, k) == "error" else value(s, k)
                          for k in range(k0, k1)] for s in rows.tolist()])

    series = [(term_of(s), tail) for s, (_, tail) in enumerate(drawn)]
    alone = [outcome(lambda term=term, tail=tail: sum_series(term, policy, tail))
             for term, tail in series]
    for lines in asked:
        lines.clear()
    group = SeriesBatch([tail for _, tail in series], policy, runs)
    got = [outcome(lambda s=s, term=term, tail=tail: sum_series(term, policy, tail, (group, s)))
           for s, (term, tail) in enumerate(series)]
    assert got == alone
    # no term is asked past the stop of its series, or the term that raised
    for s, want in enumerate(alone):
        stop = want[1][3] if want[0] == "ok" else int(want[2].split()[-1])
        assert all(k <= stop for k in asked[s])


@given(st.lists(_entries.filter(lambda v: v != "error"), min_size=1, max_size=60),
       st.sampled_from([1e-10, 1e-6, 1e-3]), st.integers(1, 4), st.integers(2, 90), tails)
def test_sum_matches_the_rule_stepped_one_term_at_a_time(table, tol, window, max_terms, tail):
    # the array rule against the plain loop of tests/oracles.py, over the
    # same partial sums
    policy = ConvergencePolicy(tol, window, max(max_terms, window + 1))

    def term(k):
        return table[(k - 1) % len(table)]

    def partials():
        s, k = 0.0, 1
        while True:
            t = term(k)
            s = s + t if math.isfinite(t) else math.nan
            yield s
            k += 1

    rep = sum_series(term, policy, tail)
    want = stopping_rule(partials(), policy.tol, policy.window, policy.max_terms,
                         tail.remainder if tail is not None else None)
    assert bits(rep) == bits(ConvergenceReport(*want))


def calm_edge_table(rng, count, width, tol, window, ends):
    """``count`` series of ``width`` terms at :meth:`_Rule.coast`'s edges.

    Each starts at a level (1/2, 1, 37, or near ``1/tol``, either side)
    and then alternates in sign, so its sums stay within one term of the
    level, with terms a few ulps either side of the calm threshold
    2·tol·X or of the quiet threshold tol·X, X = max(1, largest sum).  Now
    and then a series takes a quiet stretch of tiny terms, ends its first
    chunk (``ends`` holds the last term of each chunk) on a quiet streak
    too short to stop it, ends each chunk on a term three times as large
    that brings its sum down, grows past the blowup threshold, or holds a
    non-finite term (it is given back)."""
    level = rng.choice([0.5, 1.0, 37.0, (1 - 1e-12) / tol, 1 / tol, (1 + 1e-12) / tol], count)
    edge = rng.choice([2.0, 1.0], count) * tol
    base = edge * np.maximum(1.0, level) / np.where(level > 1.0, 1.0 - edge, 1.0)
    ulps = rng.integers(-4, 5, (count, 1)) + rng.integers(0, 3, (count, width))
    signs = np.where(np.arange(width) % 2 == 0, 1.0, -1.0) * rng.choice([1.0, -1.0], (count, 1))
    table = (base[:, None] * (1.0 + ulps * 2.0 ** -52)) * signs
    table[:, 0] = level
    for s in range(count):
        at = int(rng.integers(1, width))
        kind = rng.integers(8)
        if kind == 0:  # a quiet stretch: the series stops there
            table[s, at:at + window + 1] = rng.choice([0.0, 1e-3 * base[s]])
        elif kind == 1:  # growing past the blowup threshold
            table[s, at:] = np.abs(table[s, at:]) + 1.0 / tol
        elif kind == 2:  # given back
            table[s, at] = rng.choice([math.inf, math.nan])
        elif kind == 3 and window > 1:  # a quiet streak carried into the next chunk
            table[s, ends[0] - int(rng.integers(1, window)):ends[0]] = 0.0
        elif kind == 4:  # a large last term, so that only the smallest one shows the edge
            for end in ends:
                if table[s, end - 2] > 0:
                    table[s, end - 1] = -3 * table[s, end - 2]
    return table


def _chunk_ends(count, policy, chunks):
    """The last term of the ``chunks``-th chunk of a batch of ``count``."""
    group, k0, size = SeriesBatch([None] * count, policy, None), 1, FIRST_TERMS
    for _ in range(chunks):
        k0, size = group._end(k0, size, count), 2 * size
    return k0 - 1


@given(st.integers(1, 70), st.floats(1e-15, 1e-3), st.integers(1, 5), st.integers(1, 3),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_calm_chunks_leave_every_bit_of_the_full_path(count, tol, window, chunks, on_cap, seed):
    # a batch with calm chunks, and the same batch with every series fed
    # through _Rule.feed: the same reports, the same series given back and
    # the same rule state at the end of every chunk, bit for bit
    rng = np.random.default_rng(seed)
    policy = ConvergencePolicy(tol, window, 10 ** 6)
    cap = _chunk_ends(count, policy, chunks)
    policy = ConvergencePolicy(tol, window, max(window + 1, cap if on_cap else cap + 37))
    table = calm_edge_table(rng, count, policy.max_terms, tol, window,
                            [_chunk_ends(count, policy, c) for c in range(1, chunks + 1)])
    tails = [GeometricTail(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 0.95)))
             if rng.random() < 0.2 else None for _ in range(count)]

    def run(full):
        # the rule's state as each chunk starts and whenever series leave
        states, take, coast = [], _Rule.take, _Rule.coast

        def record(rule):
            states.append([(getattr(rule, name).dtype.str, getattr(rule, name).tobytes())
                           for name in _Rule._STATE])

        def recorded_take(rule, rows):
            record(rule)
            return take(rule, rows)

        def recorded_coast(rule, terms, partial):
            record(rule)
            return np.arange(rule.steps.size) if full else coast(rule, terms, partial)

        with mock.patch.object(_Rule, "take", recorded_take), \
                mock.patch.object(_Rule, "coast", recorded_coast):
            group = SeriesBatch(tails, policy, lambda k0, k1, rows: table[rows, k0 - 1:k1 - 1])
            reports = [group.outcome(s) for s in range(count)]
        return [None if rep is None else bits(rep) for rep in reports], states

    assert run(full=False) == run(full=True)


def test_runs_replace_every_term_call():
    calls = []

    def term(k):
        calls.append(k)
        return 1.0 / k ** 2

    def run(k0, k1):
        return 1.0 / np.arange(k0, k1, dtype=float) ** 2

    policy = ConvergencePolicy(max_terms=5000)
    assert outcome(lambda: summed(term, policy, None, run)) == \
        outcome(lambda: sum_series(term, policy))
    calls.clear()
    summed(term, policy, None, run)
    assert calls == []


def test_chunks_double_from_window_plus_one():
    asked = []

    def run(k0, k1):
        asked.append((k0, k1))
        return np.ones(k1 - k0)

    summed(lambda k: 1.0, ConvergencePolicy(window=2, max_terms=40), None, run)
    # the first chunk holds FIRST_TERMS = 64 terms, clipped at the cap
    assert asked == [(1, 41)]


def test_chunks_hold_first_terms_then_double_up_to_the_cell_cap():
    asked = []

    def runs(k0, k1, rows):
        asked.append((k0, k1, rows.size))
        return np.ones((rows.size, k1 - k0))

    # series of ones never stop before the cap; 100 series fit 163 terms
    # in BATCH_CELLS cells
    group = SeriesBatch([None] * 100, ConvergencePolicy(window=2, max_terms=500), runs)
    assert group.outcome(0).terms_used == 500
    assert (FIRST_TERMS, BATCH_CELLS // 100) == (64, 163)
    assert asked == [(1, 65, 100), (65, 193, 100), (193, 356, 100), (356, 501, 100)]


def stops_early():
    """The window, and tables of 200 terms with their tails: series that
    stop at step 1 (a certificate), at ``window + 1`` (a quiet streak from
    step 2) and one step later, inside the first chunk of FIRST_TERMS
    terms, and one that stops in the second chunk."""
    window = 3
    heads = [([0.5, 0.25], GeometricTail(1e-20, 0.5)), ([1.0], None), ([1.0, 2.0], None),
             ([1.0] * 70, None)]
    return window, [(head + [0.0] * (200 - len(head)), tail) for head, tail in heads]


@pytest.mark.parametrize("alone", [True, False], ids=["batch of one", "batch"])
def test_stops_inside_the_first_chunk_are_the_scalar_reports(alone):
    window, drawn = stops_early()
    policy = ConvergencePolicy(tol=1e-10, window=window, max_terms=1000)
    tables = np.array([table for table, _ in drawn])

    def runs_of(offset):
        return lambda k0, k1, rows: tables[rows + offset, k0 - 1:k1 - 1]

    want = [sum_series(lambda k, t=table: t[k - 1], policy, tail) for table, tail in drawn]
    assert [rep.terms_used for rep in want] == [1, window + 1, window + 2, 70 + window]
    assert [rep.certified for rep in want] == [True, False, False, False]
    if alone:
        groups = [(SeriesBatch([tail], policy, runs_of(s)), 0) for s, (_, tail) in enumerate(drawn)]
    else:
        group = SeriesBatch([tail for _, tail in drawn], policy, runs_of(0))
        groups = [(group, s) for s in range(len(drawn))]
    for (group, s), rep in zip(groups, want):
        got = group.outcome(s)
        assert got is not None and bits(got) == bits(rep)


@pytest.mark.parametrize("how", ["declined", "non-finite"])
def test_a_chunk_failing_past_the_stop_gives_the_series_back(how):
    # a series stops at step 5, in the first chunk; the chunk declines, or
    # holds a nan at index 40, past the stop
    policy = ConvergencePolicy(tol=1e-10, window=3, max_terms=1000)
    table = [1.0, 2.0] + [0.0] * 200
    asked, chunks = [], []

    def term(k):
        asked.append(k)
        return table[k - 1]

    def runs(k0, k1, rows):
        chunks.append((k0, k1))
        if how == "declined":
            return None
        run = np.array([table[k0 - 1:k1 - 1]] * rows.size)
        run[:, 40 - k0] = math.nan
        return run

    want = sum_series(term, policy)
    assert want.terms_used == 5 and want.converged
    asked.clear()
    # a second, equal series makes the batch run the rule over arrays
    group = SeriesBatch([None, None], policy, runs)
    got = sum_series(term, policy, None, (group, 0))
    assert group.outcome(0) is None and group.outcome(1) is None
    assert chunks == [(1, 1 + FIRST_TERMS)]
    # summed again from index 1, to its stop
    assert asked == [1, 2, 3, 4, 5]
    assert bits(got) == bits(want)
    # a batch of one is a batch: given back too, and summed again the same
    alone = SeriesBatch([None], policy, runs)
    assert alone.outcome(0) is None
    assert bits(sum_series(term, policy, None, (alone, 0))) == bits(want)


def test_probe_product_runs_in_few_chunks_and_little_memory():
    # the 64 probe series of 1/(i+j+0.5)^1.6 squared stop after 1328-1335
    # terms: the doubling chunks from window + 1 of 128 terms at most took
    # 15 runs calls
    A = expr_spec("1/(i+j+0.5)^1.6")
    policy = ConvergencePolicy(max_terms=20000)
    calls = []

    def counted_product(left, right, pairs):
        runs = _line_product(left, right, pairs)

        def counted(k0, k1, rows):
            calls.append((k0, k1, rows.size))
            return runs(k0, k1, rows)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_line_product", counted_product)
        tracemalloc.start()
        try:
            product = matmul(A, A, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    used = [rep.terms_used for rep in product.per_entry_reports.values()]
    assert len(used) == 64 and 1300 < min(used) and max(used) < 1400
    assert len(calls) <= 8
    assert calls[0] == (1, 1 + FIRST_TERMS, 64)
    # the batch's arrays, of BATCH_CELLS cells at most, and the readers
    assert peak < 2 * 2**20


@pytest.mark.parametrize("axis", [0, 1])
def test_lines_grown_by_any_requests_read_each_cell_once(axis):
    # rising, repeated and smaller requests, then one whose block declines
    # (0/(j-30) on rows, 0/(i-30) on columns), and every one after it
    where = "j" if axis == 0 else "i"
    spec, entries, cells = counted(expr_spec(f"1/(i+j)^1.5 + 0/({where}-30)"))
    lines = Lines(spec, [2, 5, 3], axis)
    for n in [1, 4, 4, 9, 2, 9, 17, 16, 29]:
        got = lines(n)
        want = np.array([[spec.entry(*((p, l) if axis == 0 else (l, p)))
                          for l in range(1, n + 1)] for p in (2, 5, 3)])
        assert got.shape == (3, n) and got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # each cell of the 29 read by block once
    assert set(cells.values()) == {1} and len(cells) == 3 * 29
    read = dict(cells)
    for n in [31, 5, 29, 40]:
        assert lines(n) is None
    # the declined block was asked once, for columns 30 and 31, no more
    assert {cell for cell in cells if cell not in read} == {
        ((p, l) if axis == 0 else (l, p)) for p in (2, 5, 3) for l in (30, 31)}
    assert set(cells.values()) == {1}


# --- errors keep their order ----------------------------------------------

LOOSE = ConvergencePolicy(tol=1e-6)   # product entries stop after 95-102 terms
GRAM = ConvergencePolicy(tol=1e-7)    # 2-row Gram and check series stop by 58


def recorded(spec):
    """``spec`` whose scalar oracle records the last index it was asked."""
    last = []
    entry = spec.entry

    def traced(i, j):
        last[:] = [(i, j)]
        return entry(i, j)

    return dataclasses.replace(spec, entry=traced), last


@pytest.mark.parametrize("divisor", [110, 5000])
def test_product_error_past_the_stop_is_not_raised(divisor):
    # 110 lies in the chunk [61, 124] that every probe entry stops in, so
    # the block declines that chunk and the terms up to the stop are scalar
    A, B = expr_spec(f"1/(i+j)^3 + 0/(j-{divisor})"), expr_spec("1")
    got = product_outcome(A, B, LOOSE)
    assert got[0] == "ok"
    assert got == product_outcome(scalar(A), B, LOOSE)


def test_product_error_before_the_stop_is_the_scalar_error():
    A, B = expr_spec("1/(i+j)^3 + 0/(j-80)"), expr_spec("1")
    traced, last = recorded(A)
    got = product_outcome(traced, B, LOOSE)
    at = list(last)
    want = product_outcome(scalar(traced), B, LOOSE)
    assert got == want == ("raised", EvalError, "division by zero")
    assert at == last == [(1, 80)]


def test_gram_error_past_the_stop_is_not_raised():
    spec = expr_spec("1/(i+j)^2 + 0/(j-59)", rows=2)
    got = orth_outcome(spec, GRAM)
    assert got[0] == "ok"
    assert got == orth_outcome(scalar(spec), GRAM)


def test_gram_error_before_the_stop_is_the_scalar_error():
    traced, last = recorded(expr_spec("1/(i+j)^2 + 0/(j-40)", rows=2))
    got = orth_outcome(traced, GRAM)
    at = list(last)
    want = orth_outcome(scalar(traced), GRAM)
    assert got == want == ("raised", EvalError, "division by zero")
    assert at == last == [(1, 40)]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--quiet"])
    return out.getvalue(), code


@pytest.mark.parametrize("command", ["mul", "orth"])
def test_cli_errors_keep_their_document(command, tmp_path, monkeypatch):
    # ln(0) at column 30 of every row, inside the first chunks of the sums
    row = {"rows": 3, "cols": "inf", "kind": "expr", "expr": "ln(abs(j-30))/(i+j)^3"}
    (tmp_path / "row.json").write_text(json.dumps(row))
    (tmp_path / "col.json").write_text(json.dumps(
        {"rows": "inf", "cols": 2, "kind": "expr", "expr": "1/(i+j)"}))
    argv = ([command, str(tmp_path / "row.json")]
            + ([str(tmp_path / "col.json")] if command == "mul" else []))
    with_blocks = run_cli(argv)
    oracles = specio._formula_oracles
    monkeypatch.setattr(specio, "_formula_oracles",
                        lambda text: (oracles(text)[0], lambda rows, cols: None))
    assert with_blocks == run_cli(argv)
    assert with_blocks[1] == 1 and '"code": "eval-error"' in with_blocks[0]


# --- each cell once, no scalar reads --------------------------------------

def counted(spec):
    """``spec`` with its scalar oracle and its block counted per cell."""
    entry, entry_counts = counting(spec.entry)
    block_counts = {}
    block = spec.block

    def counted_block(rows, cols):
        for i, j in np.broadcast(rows, cols):
            block_counts[(int(i), int(j))] = block_counts.get((int(i), int(j)), 0) + 1
        return block(rows, cols)

    return (dataclasses.replace(spec, entry=entry, block=counted_block),
            entry_counts, block_counts)


@pytest.mark.parametrize("pair", [(POLY_A, POLY_B), (GEO_ROWS3, GEO_ROWS3)])
def test_product_probe_reads_each_line_cell_once_by_block(pair):
    left, right = (matrix_from_obj(dict(obj, rows="inf")) for obj in pair)
    A, a_entries, a_cells = counted(left)
    B, b_entries, b_cells = counted(right)
    product = matmul(A, B, ConvergencePolicy(max_terms=20000))
    assert len(product.per_entry_reports) == 64
    assert a_entries == {} and b_entries == {}
    assert set(a_cells.values()) == {1} and set(b_cells.values()) == {1}
    # eight rows of A and eight columns of B, as far as their longest entry
    assert {i for i, _ in a_cells} == set(range(1, 9))
    assert {j for _, j in b_cells} == set(range(1, 9))


def counted_product():
    """The product of the golden algebraic pair, its factors' block reads
    counted per cell, and its factors' scalar reads."""
    left, right = (matrix_from_obj(obj) for obj in (POLY_A, POLY_B))
    A, a_entries, a_cells = counted(left)
    B, b_entries, b_cells = counted(right)
    product = matmul(A, B, ConvergencePolicy(max_terms=20000))
    return product, (a_entries, b_entries), (a_cells, b_cells)


def test_product_entries_past_the_probe_read_each_cell_once():
    # an entry past the probe reads its row through the probe's reader when
    # the row is a probe row, and through a reader of its own otherwise,
    # kept for the entries after it
    product, entries, cells = counted_product()
    grown = [dict(counts) for counts in cells]
    for i, j in [(3, 11), (3, 12), (11, 3), (12, 12), (11, 12)]:
        first = product.matrix.entry(i, j)
        assert product.entry_report(i, j).estimate == first
    assert entries == ({}, {})
    for counts, before in zip(cells, grown):
        assert set(counts.values()) == {1}
        assert set(before) <= set(counts)
    a_cells, b_cells = cells
    assert {i for i, _ in a_cells} == set(range(1, 9)) | {11, 12}
    assert {j for _, j in b_cells} == set(range(1, 9)) | {11, 12}


def test_product_section_past_the_probe_reads_each_cell_once():
    # the 16 x 16 section ``mul --n 16`` exports
    product, entries, cells = counted_product()
    truncate(product.matrix, 16, 16)
    assert entries == ({}, {})
    a_cells, b_cells = cells
    assert set(a_cells.values()) == {1} and set(b_cells.values()) == {1}
    assert {i for i, _ in a_cells} == set(range(1, 17))
    assert {j for _, j in b_cells} == set(range(1, 17))


@pytest.mark.parametrize("obj", [POLY_ROWS4, GEO_ROWS3])
def test_orthogonalize_reads_each_row_cell_once_by_block(obj):
    spec, entries, cells = counted(matrix_from_obj(obj))
    orthogonalize(spec, ConvergencePolicy(max_terms=20000))
    assert entries == {}
    assert set(cells.values()) == {1}
    longest = max(j for _, j in cells)
    m = spec.rows
    assert set(cells) == {(i, j) for i in range(1, m + 1) for j in range(1, longest + 1)}


@pytest.mark.parametrize("obj", [
    POLY_ROWS4, GEO_ROWS3,
    {"rows": 5, "cols": "inf", "kind": "expr", "expr": "(0-1)^(i*j)*0.7/(i+2*j+0.3)^1.2"},
    {"rows": 3, "cols": "inf", "kind": "expr", "expr": "exp(-0.3*i*j) + 1/(j+i)^2"},
])
def test_orthogonalize_matches_the_scalar_path_bit_for_bit(obj):
    spec = matrix_from_obj(obj)
    policy = ConvergencePolicy(max_terms=20000)
    assert orth_outcome(spec, policy) == orth_outcome(scalar(spec), policy)


@pytest.mark.parametrize("obj", [dict(POLY_A, rows=2), POLY_B])
def test_product_matches_the_scalar_path_bit_for_bit(obj):
    A = matrix_from_obj(obj)
    B = matrix_from_obj(dict(POLY_B, cols=3))
    policy = ConvergencePolicy(max_terms=20000)
    assert product_outcome(A, B, policy) == product_outcome(scalar(A), scalar(B), policy)
