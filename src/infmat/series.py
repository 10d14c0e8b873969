"""Convergence detection for scalar series and truncation sequences.

Every limit process in the package (entry series of infinite products,
determinants over growing truncations, stabilizing solution vectors)
funnels through this module, so all verdicts share one stopping rule:

* converged  -- successive estimates changed by at most ``tol`` (relative
  to ``max(1, |estimate|)``) for ``window`` consecutive steps, or an
  analytic geometric tail bound dropped below that threshold;
* diverged   -- estimates grew monotonically past ``1/tol``, or an oracle
  produced a non-finite value;
* undetermined -- neither rule fired before the term cap / schedule end.

Scalar and vector estimates go through the same rule; a vector is
measured by its largest absolute entry.  The operator power series of
:mod:`infmat.inverse_solve` are the one exception: they stop when the
norm of each term stays under ``tol`` for ``window`` terms, or at the
first exactly zero term.  That absolute term rule fixes the term count,
and so the bits, of every inverse and series solution, and it stops a
nilpotent ``I - A`` at its last nonzero power, where the quiet window of
the rule above would ask for ``window`` more terms.

Verdicts are heuristic unless a :class:`GeometricTail` certificate is
supplied, in which case ``certified`` is set and the error of the reported
estimate is bounded by the certificate.

The rule runs over arrays: a chunk of steps of many sequences at once,
shaped (sequences, steps).  The quiet and growing streaks are run
lengths carried from chunk to chunk, the non-finite stop, the
certificate bound and the ``max_terms`` cap are masks, and each sequence
stops at its own first firing step, with no loop over steps.  Series
summed together (a :class:`SeriesBatch`, as ``matmul`` sums its probe,
and the Gram entries ``orthogonalize`` reads as entries of the product A
Aᵀ) come with term runs read from the block oracle and advance through
shared chunks of terms: :data:`FIRST_TERMS` per series at first, twice as
many each time after, up to :data:`BATCH_CELLS` cells a chunk.  A chunk
costs about what its terms cost: from its smallest |term| and largest
|partial sum| the rule proves, with a margin for rounding, which series
no step of the chunk can stop (:meth:`_Rule.coast`), and those take the
chunk's steps at once, as steps that start no streak and fire no stop;
only the others go through the rule's passes over every step.  It is
the one rule either way: the passes would stop a calm series at no step
of the chunk and would leave it in the same state.  A series whose chunk
of runs is declined or holds a non-finite term is given back
by the batch and summed again from index 1, one term at a time.  A value
drawn one at a time (a series with no runs or given back, and every
section limit) takes the same rule as a chunk of one step of one
sequence, on plain floats, so no term or value past the stop is ever
asked for and a step costs well under a microsecond.  The partial sums
are the same bits either way, so every report, and any error raised
before the stop, are those of the scalar sum.

A limit over the sections of a matrix decides here, and only here, how
it visits them (:func:`section_limit`, :func:`section_limit_vector`): a
finite extent N is the one-size schedule ``[N]``, whose finite value is
exact (``converged``, one term, ``last_delta`` 0) and whose non-finite
value is ``diverged``, as at the first size of any schedule; an infinite
extent runs the stopping rule over the schedule sizes at least as large
as the largest index the caller reads.  Scalar and vector limits, over a
finite or an infinite extent, run one body.
"""

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from ._dense import norm_inf
from .errors import ExtentMismatchError
from .matrix_core import Extent, is_finite_extent

CONVERGED = "converged"
DIVERGED = "diverged"
UNDETERMINED = "undetermined"

logger = logging.getLogger("infmat")


@dataclass(frozen=True)
class ConvergencePolicy:
    """Tuning knobs for the stopping rule.

    tol: relative tolerance on step-to-step change.
    window: number of consecutive quiet steps required.
    max_terms: hard cap on evaluated terms / sizes.
    """

    tol: float = 1e-10
    window: int = 3
    max_terms: int = 100_000

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_terms < self.window + 1:
            raise ValueError("max_terms must be at least window + 1")


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a limit process.

    ``estimate`` is the last value computed (partial sum or sequence
    value), whatever the verdict.  ``last_delta`` is the last observed
    step change; on a certified stop it is the analytic tail bound, so
    the invariant ``converged => last_delta <= tol * max(1, |estimate|)``
    holds on both paths.
    """

    estimate: float
    status: str
    terms_used: int
    last_delta: float
    certified: bool = False

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass(frozen=True)
class GeometricTail:
    """Analytic bound ``|t_k| <= C * r**k`` on the terms of a series."""

    C: float
    r: float

    def __post_init__(self):
        if not (self.C >= 0):
            raise ValueError("C must be non-negative")
        if not (0 < self.r < 1):
            raise ValueError("r must lie in (0, 1)")

    def remainder(self, terms: int) -> float:
        """Bound on the absolute tail after ``terms`` terms were summed."""
        return self.C * self.r ** (terms + 1) / (1.0 - self.r)

    def remainders(self, k0: int, k1: int) -> np.ndarray:
        """``remainder(k)`` for ``k0 <= k < k1``, as an array, bit for bit:
        a float to an int power is libm's ``pow``, as ``math.pow`` is."""
        powers = np.fromiter(map(math.pow, itertools.repeat(self.r), range(k0 + 1, k1 + 1)),
                             float, k1 - k0)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python's float * and /
            return self.C * powers / (1.0 - self.r)


def exact_report(value: float, terms: int) -> ConvergenceReport:
    """Report for a finitely computed (exact) quantity."""
    return ConvergenceReport(value, CONVERGED, terms, 0.0, False)


# why the rule stopped a sequence, or that it did not (_GOING)
_GOING, _NON_FINITE, _CERTIFIED, _BLOWUP, _QUIET, _CAP = range(6)

# A batch's chunks of terms: FIRST_TERMS per series in the first, twice as
# many in each one after, and never more than BATCH_CELLS cells, so that
# its arrays stay small.  A chunk pays a fixed cost of numpy calls: the
# 64-series probe of a product starts at 4,096 cells a chunk and holds
# 16,384 from the third on.
FIRST_TERMS = 64
BATCH_CELLS = 16_384


def _report(why, terms, value, before, delta, bound) -> ConvergenceReport:
    """The report of a sequence the rule stopped at ``value``, its
    ``terms``-th, for the reason ``why``; ``before`` is the value before it
    (nan at the first), ``delta`` and ``bound`` those of its step."""
    terms = int(terms)
    if why == _NON_FINITE:
        return ConvergenceReport(before, DIVERGED, terms, math.inf, False)
    if why == _CERTIFIED:
        return ConvergenceReport(value, CONVERGED, terms, float(bound), True)
    status = {_BLOWUP: DIVERGED, _QUIET: CONVERGED}.get(why, UNDETERMINED)
    return ConvergenceReport(value, status, terms, float(delta), False)


def _draw(values: Iterator, policy: ConvergencePolicy,
          remainder: Callable[[int], float] | None = None,
          norm: Callable = abs) -> ConvergenceReport:
    """The stopping rule over estimates drawn one at a time from ``values``.

    This is :meth:`_Rule.feed` for one sequence and a chunk of one step,
    on plain floats: a chunk of one through numpy costs about 18 µs, the
    step below well under one.  ``remainder(count)`` is the sequence's
    certificate bound, and ``norm`` measures an estimate and a step
    between two (``abs`` for scalars, the max-abs entry for vectors).  The
    first value never counts toward a streak (there is no previous value
    to compare to).  No value is drawn past the stop, and an error raised
    while drawing one propagates.
    """
    tol, window, cap = policy.tol, policy.window, policy.max_terms
    blowup = 1.0 / tol
    steps, before, mag, kind, run = 0, None, math.nan, 0, 0
    estimate = math.nan
    delta = bound = math.inf
    for value in values:
        steps += 1
        size = norm(value)
        if not math.isfinite(size):
            return _report(_NON_FINITE, steps, value, estimate, delta, bound)
        if remainder is not None:
            bound = remainder(steps)
            if bound <= tol * max(1.0, size):
                return _report(_CERTIFIED, steps, value, estimate, delta, bound)
        if before is not None:
            delta = norm(value - before)
        # the divergence heuristic outranks the quiet rule: past the blowup
        # threshold a still-growing sequence is never accepted as converged
        if size > blowup and size > mag:
            now = 1
        elif remainder is None and delta <= tol * max(1.0, mag):
            now = 2
        else:
            now = 0
        if now == kind:
            run += 1
        else:
            kind, run = now, 1
        if kind and run >= window:
            return _report(kind + 2, steps, value, estimate, delta, bound)
        if steps >= cap:
            return _report(_CAP, steps, value, estimate, delta, bound)
        before = estimate = value
        mag = size
    return ConvergenceReport(estimate, UNDETERMINED, steps, delta, False)


class _Rule:
    """The stopping rule, for a batch of sequences fed chunks of steps.

    Per sequence it keeps, as a column, the steps taken, the magnitude of
    the last value, and the kind (0 neither, 1 growing, 2 quiet) and
    length of the streak of steps that ends there.  :meth:`feed` takes a
    chunk of steps as arrays and finds where each sequence stops, with no
    loop over steps; :meth:`coast` first advances, whole, the sequences
    that no step of a chunk of partial sums can stop; :func:`_draw` is the
    same rule on one value of one sequence.
    """

    _STATE = ("quiet_counts", "steps", "mag", "kind", "run")

    def __init__(self, policy: ConvergencePolicy, certified):
        self.policy = policy
        # with a certificate the quiet rule is off: the certificate decides
        self.quiet_counts = ~np.asarray(certified, dtype=bool).reshape(-1, 1)
        column = (self.quiet_counts.size, 1)
        self.steps = np.zeros(column, dtype=np.int64)
        self.mag = np.full(column, np.nan)
        self.kind = np.zeros(column, dtype=np.uint8)
        self.run = np.zeros(column, dtype=np.int64)

    def take(self, rows) -> "_Rule":
        """The state of the sequences at ``rows``, an index array or mask."""
        other = object.__new__(_Rule)
        other.policy = self.policy
        for name in _Rule._STATE:
            setattr(other, name, getattr(self, name)[rows])
        return other

    def coast(self, terms, partial):
        """Advance the sequences that no step of a chunk can stop, and
        return the positions of the others, an index array.

        ``terms`` is the chunk, (sequences, n), and ``partial`` its partial
        sums, (sequences, n + 1), the sum carried into it first.  A sequence
        is calm when it has no certificate, the chunk stays short of
        ``max_terms``, its largest |sum| is at most ``1/tol`` (so every sum
        is finite and none passes the blowup threshold) and its smallest
        |term| exceeds 2·tol·X, X = max(1, largest |sum|).  Then no step is
        quiet.  With u = 2⁻⁵³, a sum S_k = fl(S_{k-1} + t_k) is off by at
        most u|S_k|, so its step fl(S_k - S_{k-1}) is at least
        (1 - u)(|t_k| - uX), while the quiet test's fl(tol·max(1, |S_{k-1}|))
        is at most (1 + u)·tol·X; and |t_k| > fl(2·tol·X) >= 2(1 - u)·tol·X
        makes the step the larger whenever tol >= 4u.  A smaller ``tol``
        leaves every sequence to :meth:`feed`.  The last term and sum are
        tested first, as a chunk in which a series converges fails there.
        A calm sequence takes n steps of kind 0: its streak grows by n, or
        is n after a quiet or growing one, and its magnitude is its last
        |sum|; the state is what :meth:`feed` leaves.  The caller ignores
        overflow, as 2·tol·X may overflow to inf.
        """
        p = self.policy
        n = terms.shape[1]
        if p.tol < 2 * np.finfo(float).eps or self.steps.max() + n >= p.max_terms:
            return np.arange(len(terms))
        last = np.abs(partial[:, -1])
        calm = (np.abs(terms[:, -1]) > 2 * p.tol * np.maximum(1.0, last)) & self.quiet_counts[:, 0]
        if calm.any():
            largest = np.abs(partial).max(axis=1)
            calm &= (np.abs(terms).min(axis=1) > 2 * p.tol * np.maximum(1.0, largest)) & (
                largest <= 1.0 / p.tol)
            c = calm[:, None]
            self.steps = np.where(c, self.steps + n, self.steps)
            self.mag = np.where(c, last[:, None], self.mag)
            self.run = np.where(c, np.where(self.kind, 0, self.run) + n, self.run)
            self.kind = np.where(c, np.uint8(0), self.kind)
        return np.nonzero(~calm)[0]

    def feed(self, rows, mag, delta, bound):
        """Advance the sequences at ``rows``, an index array, through one
        chunk of n steps.

        ``mag``, ``delta`` and ``bound`` are (len(rows), n) arrays: the
        magnitude of each value, its step from the value before (``inf``
        at a sequence's first value) and the certificate's bound on the
        remainder (``inf`` without one; ``bound`` is ``None`` when no
        sequence has one).  Returns ``(at, why, used)`` per sequence: the
        position in the chunk of the step it stopped at, why (``_GOING``,
        at the last position, where it did not stop), and the steps it had
        taken by then.  A test that no step of the chunk can pass (a value
        past the blowup threshold, a certificate, the term cap) is skipped.
        """
        p = self.policy
        n = mag.shape[1]
        pos = np.arange(n)
        steps, last, kind0, run0 = (self.steps[rows], self.mag[rows], self.kind[rows],
                                    self.run[rows])
        before = np.concatenate((last, mag[:, :-1]), axis=1)
        quiet = (delta <= p.tol * np.maximum(1.0, before)) & self.quiet_counts[rows]
        kind = quiet.view(np.uint8) << 1
        big = mag > 1.0 / p.tol
        if big.any():
            # the divergence heuristic outranks the quiet rule: past the blowup
            # threshold a still-growing sequence is never accepted as converged
            grow = big & (mag > before)
            kind = np.where(grow, np.uint8(1), kind)
        if kind.any():
            fresh = kind != np.concatenate((kind0, kind[:, :-1]), axis=1)
            # a streak starts where the kind changes; the carried one at -run
            run = pos + 1 - np.maximum.accumulate(np.where(fresh, pos, -run0), axis=1)
            streak, run = (run >= p.window) & (kind > 0), run[:, -1:]
        else:  # no step is quiet or growing: the streak of kind 0 runs on
            streak, run = np.broadcast_to(False, kind.shape), np.where(kind0, 0, run0) + n
        bad = ~np.isfinite(mag)
        stop = streak | bad
        certified = None
        if bound is not None:
            certified = bound <= p.tol * np.maximum(1.0, mag)
            stop |= certified
        if steps.max() + n >= p.max_terms:
            stop |= steps + pos >= p.max_terms - 1
        hit = stop.any(axis=1)
        at = np.where(hit, np.argmax(stop, axis=1), n - 1)
        why = np.full(at.size, _GOING)
        if hit.any():
            # the reasons, each outranking the one before; a streak's kind +
            # 2 is _BLOWUP or _QUIET
            r = np.flatnonzero(hit)
            cell = (r, at[r])
            why[r] = np.where(streak[cell], kind[cell].astype(np.int64) + 2, _CAP)
            if certified is not None:
                why[r] = np.where(certified[cell], _CERTIFIED, why[r])
            why[r] = np.where(bad[cell], _NON_FINITE, why[r])
        used = steps[:, 0] + at + 1
        self.steps[rows] = steps + n
        self.mag[rows], self.kind[rows], self.run[rows] = mag[:, -1:], kind[:, -1:], run
        return at, why, used


def _partials(term: Callable[[int], float]) -> Iterator[float]:
    """The partial sums of ``term``, one at a time; nan from the first
    non-finite term on."""
    s, k = 0.0, 1
    while True:
        t = term(k)
        s = s + t if math.isfinite(t) else math.nan
        yield s
        k += 1


class SeriesBatch:
    """Series summed together, through shared chunks of term runs.

    ``tails`` holds each series' :class:`GeometricTail`, or ``None``, and
    ``runs(k0, k1, rows)`` returns the terms ``k0`` ... ``k1 - 1`` of the
    series at positions ``rows`` (an index array) as a
    ``len(rows)``-by-``(k1 - k0)`` float64 array, bit for bit what their
    terms give, or ``None``.  The batch asks for chunks of
    :data:`FIRST_TERMS` terms, then twice as many each time, clipped at
    ``max_terms`` and at :data:`BATCH_CELLS` cells: a chunk's partial sums
    are ``np.add.accumulate`` seeded with the running sums, the same bits
    as adding term by term; :meth:`_Rule.coast` advances the series no
    step of the chunk can stop, and one pass of :meth:`_Rule.feed` stops
    each of the others at its own first firing step.  A series whose chunk is
    declined, or holds a non-finite term, is given back: the batch drops
    it and has no report for it.  Runs may reach up to ``FIRST_TERMS``
    terms, or about twice as far as a stop.  The chunk boundaries change
    no report.

    The batch never calls a term.  It is summed the first time
    :func:`sum_series` asks for the report of one of its series, and
    ``sum_series`` sums a series given back again from index 1, through
    its ``term``.
    """

    def __init__(self, tails, policy: ConvergencePolicy,
                 runs: Callable[[int, int, np.ndarray], "np.ndarray | None"]):
        self.tails = list(tails)
        self.policy = policy
        self._runs = runs
        self._outcome = None

    def outcome(self, k: int) -> "ConvergenceReport | None":
        """The report of series ``k``, or ``None`` if it was given back."""
        if self._outcome is None:
            self._outcome = self._sum()
        return self._outcome[k]

    def _end(self, k0: int, size: int, series: int) -> int:
        """Where the chunk from ``k0`` ends: ``size`` terms a series, clipped
        at :data:`BATCH_CELLS` cells for ``series`` series and at
        ``max_terms``."""
        return min(k0 + min(size, max(1, BATCH_CELLS // series)), self.policy.max_terms + 1)

    def _sum(self) -> list:
        policy, runs = self.policy, self._runs
        outcome: list = [None] * len(self.tails)
        rule = _Rule(policy, [tail is not None for tail in self.tails])
        rows = np.arange(len(self.tails))  # the series still in the batch
        sums = np.zeros(rows.size)          # and their running sums
        k0, size = 1, FIRST_TERMS
        while rows.size:
            k1 = self._end(k0, size, rows.size)
            run = runs(k0, k1, rows)
            if run is None:
                break
            with np.errstate(over="ignore", invalid="ignore"):  # inf, as a float sum overflows
                partial = np.add.accumulate(np.concatenate((sums[:, None], run), axis=1), axis=1)
                # a declined chunk, or a row of it with a non-finite term, is
                # given back; a finite last sum shows that a row has none
                stay = np.isfinite(partial[:, -1])
                if not stay.all():
                    stay[~stay] = np.all(np.isfinite(run[~stay]), axis=1)
                    if not stay.any():
                        break
                    rule, rows = rule.take(stay), rows[stay]
                    run, partial = run[stay], partial[stay]
                # the series no step of this chunk can stop take its n steps
                # at once; the others (busy) go through the rule step by step
                busy = rule.coast(run, partial)
                part = partial[busy] if busy.size < rows.size else partial
                delta = np.abs(np.diff(part, axis=1))
            going = np.ones(rows.size, dtype=bool)
            if busy.size:
                if k0 == 1:
                    delta[:, 0] = math.inf
                mag, bound = np.abs(part[:, 1:]), None
                certified = np.flatnonzero(~rule.quiet_counts[busy, 0])
                if certified.size:
                    bound = np.full(mag.shape, math.inf)
                    for r in certified.tolist():
                        bound[r] = self.tails[rows[busy[r]]].remainders(k0, k1)
                at, why, used = rule.feed(busy, mag, delta, bound)
                for r in np.flatnonzero(why != _GOING).tolist():
                    a = at[r]
                    before = float(part[r, a]) if k0 + a > 1 else math.nan
                    outcome[rows[busy[r]]] = _report(
                        why[r], used[r], float(part[r, a + 1]), before, delta[r, a],
                        math.inf if bound is None else bound[r, a])
                going[busy] = why == _GOING
            if not going.all():
                rule, rows = rule.take(going), rows[going]
            sums = partial[going, -1]
            k0, size = k1, 2 * size
        return outcome


def sum_series(term: Callable[[int], float],
               policy: ConvergencePolicy | None = None,
               tail: GeometricTail | None = None,
               batch: tuple[SeriesBatch, int] | None = None) -> ConvergenceReport:
    """Sum ``term(1) + term(2) + ...`` until the stopping rule fires.

    ``term`` must be a pure function on indices 1, 2, 3, ...  A non-finite
    term value yields a diverged verdict whose ``terms_used`` names the
    offending index.  Partial sums are accumulated in ascending index
    order, so results are deterministic.

    ``batch``, optional, is ``(group, k)``: this series, with this
    ``tail`` and ``policy``, is series ``k`` of the :class:`SeriesBatch`
    ``group``, which sums it through term runs.  Its report is the
    group's, or, if the group gave it back, the series is summed again
    from index 1 through ``term``, one index at a time.  Either way the
    report, and any error ``term`` raises before the stop, are those of
    the sum without the batch, and ``term`` is never asked past the stop.
    """
    policy = policy or ConvergencePolicy()
    if batch is not None:
        group, k = batch
        report = group.outcome(k)
        if report is not None:
            return report
    return _draw(_partials(term), policy, tail.remainder if tail is not None else None)


def _sizes_of(schedule) -> list[int]:
    """``schedule.sizes()``, or the sizes of an iterable schedule."""
    sizes = getattr(schedule, "sizes", None)
    return list(sizes()) if callable(sizes) else [int(n) for n in schedule]


def _limit(value_at: Callable, sizes: list[int], policy: ConvergencePolicy | None,
           vector: bool, exact: bool = False):
    """The stopping rule over ``value_at(n)`` for ``n`` in ``sizes``: the one
    body of every limit over sections.

    A scalar is measured by ``abs``; a vector is a float array measured by
    its max-abs entry, and its report's ``estimate`` is the max-abs entry
    of the last finite vector.  ``exact`` marks the one size of a finite
    extent, which logs no step and is never too short: its finite value is
    exact, and a non-finite one stops the rule as at any first size.
    Returns the report, or for a vector the last vector computed and the
    report.
    """
    policy = policy or ConvergencePolicy()
    if not exact and len(sizes) < policy.window + 1:
        logger.warning("schedule has %d sizes but the stopping rule needs "
                       "window + 1 = %d; the result cannot converge",
                       len(sizes), policy.window + 1)
    step = f"schedule step: size=%d {'block-max' if vector else 'value'}=%.12g"
    last = None

    def values():
        nonlocal last
        for n in sizes:
            last = np.asarray(value_at(n), dtype=float) if vector else value_at(n)
            if not exact:
                logger.info(step, n, norm_inf(last) if vector else last)
            yield last

    rep = _draw(values(), policy, norm=norm_inf if vector else abs)
    # a vector's estimate is the last finite vector, or nan when none came
    if vector and isinstance(rep.estimate, np.ndarray):
        rep = replace(rep, estimate=norm_inf(rep.estimate))
    if exact and rep.status == UNDETERMINED:
        rep = exact_report(rep.estimate, 1)
    return (last, rep) if vector else rep


def limit_of_sequence(value_at: Callable[[int], float], schedule,
                      policy: ConvergencePolicy | None = None) -> ConvergenceReport:
    """Detect the limit of ``value_at(n)`` along a truncation schedule.

    ``schedule`` is anything with a ``sizes()`` method or an iterable of
    sizes.  Stopping semantics are those of :func:`sum_series` applied to
    the sequence of values.
    """
    return _limit(value_at, _sizes_of(schedule), policy, vector=False)


def stabilize_vector(value_at: Callable[[int], "np.ndarray"], schedule,
                     policy: ConvergencePolicy | None = None
                     ) -> tuple["np.ndarray", ConvergenceReport]:
    """Stabilize a vector-valued quantity along a schedule.

    ``value_at(n)`` must return a 1-d array of fixed length.  The rule is
    that of :func:`limit_of_sequence` with the max-abs entry in place of
    ``abs``.  Returns the last vector computed together with a report
    whose ``estimate`` is the max-abs entry of the last finite vector.
    """
    return _limit(value_at, _sizes_of(schedule), policy, vector=True)


def limit_sizes(extent: Extent, schedule, least: int = 1) -> list[int]:
    """The section sizes a limit over a matrix of this extent visits.

    A finite extent N is the one-size schedule ``[N]``; an infinite one
    keeps the schedule sizes ``>= least``, the largest index the caller
    reads.  Raises :class:`ExtentMismatchError` when ``least`` lies beyond
    the extent or the schedule cap.
    """
    if is_finite_extent(extent):
        if least > extent:
            raise ExtentMismatchError(f"index {least} beyond extent {extent}")
        return [int(extent)]
    sizes = _sizes_of(schedule)
    reach = [n for n in sizes if n >= least]
    if not reach:
        raise ExtentMismatchError(
            f"index {least} exceeds the schedule cap {sizes[-1]}")
    return reach


def section_limit(value_at: Callable[[int], float], extent: Extent, schedule,
                  policy: ConvergencePolicy | None = None,
                  least: int = 1) -> ConvergenceReport:
    """Limit of ``value_at(n)`` over the sections :func:`limit_sizes` gives,
    by the rule of :func:`limit_of_sequence`.

    At a finite extent the one value is exact if it is finite.
    """
    return _limit(value_at, limit_sizes(extent, schedule, least), policy, vector=False,
                  exact=is_finite_extent(extent))


def section_limit_vector(value_at: Callable[[int], "np.ndarray"], extent: Extent,
                         schedule, policy: ConvergencePolicy | None = None,
                         least: int = 1) -> tuple["np.ndarray", ConvergenceReport]:
    """The vector form of :func:`section_limit`, by :func:`stabilize_vector`.

    An exact vector's report carries its max-abs entry as ``estimate``.
    """
    return _limit(value_at, limit_sizes(extent, schedule, least), policy, vector=True,
                  exact=is_finite_extent(extent))
