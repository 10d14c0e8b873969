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

A series may come with term runs (:func:`sum_series`'s ``terms``): whole
chunks of terms at once, read by ``matmul`` and ``orthogonalize`` from
the block oracle.  They change how the terms are computed, not the rule:
the partial sums are the same bits, each goes through the same stopping
rule one at a time, and a chunk that is declined or holds a non-finite
term is evaluated term by term, so the report and any error raised before
the stop are those of the scalar sum.

A limit over the sections of a matrix decides here, and only here, how
it visits them (:func:`section_limit`, :func:`section_limit_vector`): a
finite extent N is the one-size schedule ``[N]``, whose value is exact
(``converged``, one term, ``last_delta`` 0); an infinite extent runs the
stopping rule over the schedule sizes at least as large as the largest
index the caller reads.
"""

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


def exact_report(value: float, terms: int) -> ConvergenceReport:
    """Report for a finitely computed (exact) quantity."""
    return ConvergenceReport(value, CONVERGED, terms, 0.0, False)


def _stabilize(values: Iterator, policy: ConvergencePolicy,
               remainder: Callable[[int], float] | None = None,
               norm: Callable = abs) -> ConvergenceReport:
    """Run the stopping rule over successive estimates.

    ``values`` yields estimates in order, scalars or arrays; ``norm``
    measures an estimate and a step between two (``abs`` for scalars,
    the max-abs entry for vectors).  The first value never counts toward
    the quiet streak (there is no previous value to compare to).
    """
    blowup = 1.0 / policy.tol
    prev = None
    prev_abs = 0.0
    estimate = math.nan
    last_delta = math.inf
    quiet = 0
    growing = 0
    count = 0
    for value in values:
        count += 1
        mag = norm(value)
        if not math.isfinite(mag):
            return ConvergenceReport(estimate, DIVERGED, count, math.inf, False)
        estimate = value
        if remainder is not None:
            bound = remainder(count)
            if bound <= policy.tol * max(1.0, mag):
                return ConvergenceReport(value, CONVERGED, count, bound, True)
        if prev is not None:
            last_delta = norm(value - prev)
            # the divergence heuristic outranks the quiet rule: past the
            # blowup threshold a still-growing sequence is never accepted
            # as converged
            if mag > blowup and mag > prev_abs:
                growing += 1
                if growing >= policy.window:
                    return ConvergenceReport(value, DIVERGED, count, last_delta, False)
            else:
                growing = 0
            if remainder is None:
                if growing == 0 and last_delta <= policy.tol * max(1.0, prev_abs):
                    quiet += 1
                    if quiet >= policy.window:
                        return ConvergenceReport(value, CONVERGED, count, last_delta, False)
                else:
                    quiet = 0
        prev = value
        prev_abs = mag
        if count >= policy.max_terms:
            break
    return ConvergenceReport(estimate, UNDETERMINED, count, last_delta, False)


def sum_series(term: Callable[[int], float],
               policy: ConvergencePolicy | None = None,
               tail: GeometricTail | None = None,
               terms: Callable[[int, int], "np.ndarray | None"] | None = None
               ) -> ConvergenceReport:
    """Sum ``term(1) + term(2) + ...`` until the stopping rule fires.

    ``term`` must be a pure function on indices 1, 2, 3, ...  A non-finite
    term value yields a diverged verdict whose ``terms_used`` names the
    offending index.  Partial sums are accumulated in ascending index
    order, so results are deterministic.

    ``terms(k0, k1)``, optional, returns the float64 array ``term(k0)``
    ... ``term(k1 - 1)`` bit for bit, or ``None``.  It is asked for chunks
    of ``window + 1`` terms, then twice as many each time, clipped at
    ``max_terms``; a chunk's partial sums come from ``np.add.accumulate``
    seeded with the running sum, the same bits as adding term by term, and
    each goes through the same stopping rule.  A chunk that is declined or
    holds a non-finite value is evaluated through ``term`` one index at a
    time, so the report, and any error ``term`` raises before the stop,
    are those of the scalar sum.  Runs may reach up to about twice as far
    as the stop; ``term`` is never asked past it.
    """
    policy = policy or ConvergencePolicy()

    def partials():
        s = 0.0
        k0, size = 1, policy.window + 1
        while k0 <= policy.max_terms:
            k1 = min(k0 + size, policy.max_terms + 1)
            run = terms(k0, k1) if terms is not None else None
            if run is not None and np.all(np.isfinite(run)):
                with np.errstate(over="ignore"):  # inf, as a float sum overflows
                    sums = np.add.accumulate(np.concatenate(([s], run)))
                yield from sums[1:].tolist()
                s = float(sums[-1])
            else:
                for k in range(k0, k1):
                    t = term(k)
                    s = s + t if math.isfinite(t) else math.nan
                    yield s
            k0, size = k1, 2 * size

    return _stabilize(partials(), policy,
                      remainder=tail.remainder if tail is not None else None)


def _sizes_of(schedule) -> list[int]:
    """``schedule.sizes()``, or the sizes of an iterable schedule."""
    sizes = getattr(schedule, "sizes", None)
    return list(sizes()) if callable(sizes) else [int(n) for n in schedule]


def _schedule_sizes(schedule, policy: ConvergencePolicy) -> list[int]:
    """The sizes of ``schedule``; warns when they are too few to converge."""
    sizes = _sizes_of(schedule)
    if len(sizes) < policy.window + 1:
        logger.warning("schedule has %d sizes but the stopping rule needs "
                       "window + 1 = %d; the result cannot converge",
                       len(sizes), policy.window + 1)
    return sizes


def limit_of_sequence(value_at: Callable[[int], float], schedule,
                      policy: ConvergencePolicy | None = None) -> ConvergenceReport:
    """Detect the limit of ``value_at(n)`` along a truncation schedule.

    ``schedule`` is anything with a ``sizes()`` method or an iterable of
    sizes.  Stopping semantics are those of :func:`sum_series` applied to
    the sequence of values.
    """
    policy = policy or ConvergencePolicy()
    sizes = _schedule_sizes(schedule, policy)

    def values():
        for n in sizes:
            v = value_at(n)
            logger.info("schedule step: size=%d value=%.12g", n, v)
            yield v

    return _stabilize(values(), policy)


def stabilize_vector(value_at: Callable[[int], "np.ndarray"], schedule,
                     policy: ConvergencePolicy | None = None
                     ) -> tuple["np.ndarray", ConvergenceReport]:
    """Stabilize a vector-valued quantity along a schedule.

    ``value_at(n)`` must return a 1-d array of fixed length.  The rule is
    that of :func:`limit_of_sequence` with the max-abs entry in place of
    ``abs``.  Returns the last vector computed together with a report
    whose ``estimate`` is the max-abs entry of the last finite vector.
    """
    policy = policy or ConvergencePolicy()
    sizes = _schedule_sizes(schedule, policy)
    last = None

    def values():
        nonlocal last
        for n in sizes:
            last = np.asarray(value_at(n), dtype=float)
            logger.info("schedule step: size=%d block-max=%.12g", n, norm_inf(last))
            yield last

    rep = _stabilize(values(), policy, norm=norm_inf)
    # the rule's estimate is the last finite vector, or nan when none came
    if isinstance(rep.estimate, np.ndarray):
        rep = replace(rep, estimate=norm_inf(rep.estimate))
    return last, rep


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
    """Limit of ``value_at(n)`` over the sections :func:`limit_sizes` gives.

    At a finite extent the one value is exact; otherwise the stopping rule
    of :func:`limit_of_sequence` decides.
    """
    sizes = limit_sizes(extent, schedule, least)
    if is_finite_extent(extent):
        return exact_report(value_at(sizes[0]), 1)
    return limit_of_sequence(value_at, sizes, policy)


def section_limit_vector(value_at: Callable[[int], "np.ndarray"], extent: Extent,
                         schedule, policy: ConvergencePolicy | None = None,
                         least: int = 1) -> tuple["np.ndarray", ConvergenceReport]:
    """The vector form of :func:`section_limit`, by :func:`stabilize_vector`.

    An exact vector's report carries its max-abs entry as ``estimate``.
    """
    sizes = limit_sizes(extent, schedule, least)
    if is_finite_extent(extent):
        value = np.asarray(value_at(sizes[0]), dtype=float)
        return value, exact_report(norm_inf(value), 1)
    return stabilize_vector(value_at, sizes, policy)
