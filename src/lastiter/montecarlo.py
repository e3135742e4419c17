"""Monte Carlo gap estimation, cell checks against the bounds, and sweeps.

The estimator runs seeds base_seed .. base_seed + n_seeds - 1 through the
SGD engine in blocks of seeds advanced in lockstep, collects the final gaps
in seed order, and reduces them once, in the driver.  With worker processes,
one pool takes a whole job up front: the seed blocks of every cell of a
sweep (or of the one cell of a run), longest horizon first, with no barrier
between cells.  The driver joins each cell's gaps in seed order, and a row
of a block does not depend on the block's other rows, so the gap sequence is
bitwise the same for every worker count and block size; the reduction takes
exactly rounded sums over that sequence, so the estimate is too.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import reporting
from .bounds import BoundReport, HypothesisError, build_bound_report, effective_constants
# Unused here, but the benchmark tracer (perfbench/child.py) wraps these names on this module.
from .bounds import (  # noqa: F401
    last_iterate_bound,
    polynomial_step_bound,
    sqrt_step_bound,
    sqrt_step_bound_c2,
)
from .problems import FiniteSumProblem, SolutionCertificate, UnsupportedSamplingError
from .reporting import doc_hash
from .rng import check_seed
from .sgd import DivergenceError, RunConfig, ScheduleError, _block_rows, run, schedule_to_doc

__all__ = [
    "CellCheck",
    "MonteCarloEstimate",
    "SWEEP_COLUMNS",
    "SweepRow",
    "check_cell",
    "estimate_gap",
    "reduce_moments",
    "run_fingerprint",
    "sweep",
]


def reduce_moments(values) -> tuple[float, float]:
    """(mean, standard error of the mean) of a nonempty value sequence.

    Both come from exactly rounded sums (``math.fsum``), the mean's over the
    deviations from the first value and the spread's over the deviations
    from the mean, so they depend on the sequence alone, not on how it was
    computed or split, and a constant sequence gives its own value and a
    standard error of exactly 0.0.  The deviations are scaled by the power
    of two that brings the largest below 1 before they are squared, so huge
    and tiny gaps alike keep their standard error.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("reduce_moments needs at least one value")
    first = float(values[0])
    mean = first + math.fsum((values - first).tolist()) / n
    if n == 1:
        return mean, 0.0
    deviations = values - mean
    scale = math.frexp(float(np.abs(deviations).max()))[1]
    m2 = math.fsum((np.ldexp(deviations, -scale) ** 2).tolist())
    return mean, math.ldexp(math.sqrt(m2 / (n - 1)) / math.sqrt(n), scale)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample statistics of the final gap over seeded runs, and the gaps in seed order.

    Estimates compare equal by their statistics and fingerprint.
    """

    n_seeds: int
    mean_gap: float
    std_error: float
    ci95_upper: float
    fingerprint: str
    per_seed_gaps: np.ndarray = field(compare=False)


def _final_gaps(problem, cert, template, lo: int, hi: int) -> np.ndarray:
    """Final gaps of seeds lo .. hi - 1, simulated a block of seeds at a time."""
    rows = _block_rows(problem, template.batch_size, template.T)
    gaps = []
    for start in range(lo, hi, rows):
        _, X = run(problem, template, range(start, min(start + rows, hi)))
        gaps.append(problem.value(X) - cert.inf_f)
    return np.concatenate(gaps)


def _worker_gaps(entry, template, lo, hi):
    problem, cert = reporting._shared[entry]
    return _final_gaps(problem, cert, template, lo, hi)


def _split(lo: int, hi: int, unit: int, pieces: int) -> list:
    """Cut lo .. hi - 1 into at most ``pieces`` nonempty ranges of whole ``unit``s."""
    units = -(-(hi - lo) // unit)
    pieces = min(pieces, units)
    cuts = [min(lo + units * g // pieces * unit, hi) for g in range(pieces + 1)] if pieces else []
    return list(zip(cuts, cuts[1:]))


@contextlib.contextmanager
def _pool_job(entries, cells, workers: int):
    """Submit every cell's seed ranges to one pool; yield one gaps function per cell.

    ``cells`` holds one (entry, template, lo, hi) per cell, where ``entry``
    indexes the (problem, cert) pairs of ``entries`` and lo .. hi - 1 are the
    seeds to run.  A task is a run of whole seed blocks (``_block_rows``)
    of one cell, and a cell's blocks go to at most ``workers`` tasks: a
    block costs about as much per step at a few rows as at many, and each
    task costs a round trip to a worker.  A job with fewer blocks than
    workers instead splits each cell's seeds into ``workers`` ranges.  Tasks
    are submitted longest horizon first, since a cell's cost grows with T,
    and the pool has no more processes than tasks.  A cell's function takes
    no argument and joins its parts in seed order: the first part that
    failed raises its error, whichever block finished first.  Leaving the
    job waits for every submitted task, also when a join raised (see
    ``reporting._forked``).  For one worker or fewer than 2 * workers runs
    in all, no pool opens: each function is the cell's ``_final_gaps``,
    cached, so a cell that a sweep repeats is simulated once here too (every
    call returns the same array; ``estimate_gap`` copies it).
    """
    if workers < 2 or sum(hi - lo for _, _, lo, hi in cells) < 2 * workers:
        yield [functools.cache(functools.partial(_final_gaps, *entries[entry], template, lo, hi))
               for entry, template, lo, hi in cells]
        return
    units = [_block_rows(entries[entry][0], template.batch_size, template.T)
             for entry, template, _, _ in cells]
    if sum(-(-(hi - lo) // rows) for rows, (_, _, lo, hi) in zip(units, cells)) < workers:
        units = [1] * len(cells)
    ranges = [_split(lo, hi, unit, workers) for unit, (_, _, lo, hi) in zip(units, cells)]
    tasks = [(c, k) for c, spans in enumerate(ranges) for k in range(len(spans))]
    tasks.sort(key=lambda task: -cells[task[0]][1].T)
    parts = [[None] * len(spans) for spans in ranges]
    with reporting._forked(min(workers, len(tasks)), entries) as pool:
        for c, k in tasks:
            entry, template, _, _ = cells[c]
            parts[c][k] = pool.apply_async(_worker_gaps, (entry, template, *ranges[c][k]))
        yield [lambda pending=pending: np.concatenate([part.get() for part in pending])
               for pending in parts]


def _cell(entry: int, problem, template: RunConfig, n_seeds: int, base_seed: int) -> tuple:
    """A cell's (entry, template, lo, hi); a full-batch run (b = n) draws no randomness, so runs one seed."""
    runs = 1 if template.batch_size == problem.n else n_seeds
    return entry, template, base_seed, base_seed + runs


# The gaps functions of a sweep's cells, by _cell_key: estimate_gap calls a
# cell's function from here instead of starting a job of its own.
_submitted: dict = {}


def _cell_key(problem, cert, template: RunConfig, n_seeds: int, base_seed: int) -> tuple:
    return (id(problem), id(cert), template.T, template.batch_size, template.schedule,
            template.x0.tobytes(), n_seeds, base_seed)


def run_fingerprint(problem: FiniteSumProblem, template: RunConfig) -> str:
    """Hash of the problem's digest and the run configuration minus its seed."""
    doc = {
        "problem": problem.digest(),
        "run": {
            "T": template.T,
            "batch_size": template.batch_size,
            "schedule": schedule_to_doc(template.schedule),
            "x0": template.x0.tolist(),
        },
    }
    return doc_hash(doc)


def estimate_gap(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    template: RunConfig,
    n_seeds: int,
    base_seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Estimate E[f(x_T) - inf f] over seeds base_seed .. base_seed + n_seeds - 1.

    The template's own seed is ignored.  A diverging run aborts the whole
    estimate with the lowest diverging seed in the error.

    The gaps come from one call of the cell's gaps function: inside a
    ``sweep``, the one the sweep registered for the cell, else that of a
    one-cell ``_pool_job`` on ``workers`` worker processes (fewer than
    2 * workers trajectories run in this process).  Either way they come in
    seed order.  A pooled estimate that diverges lets its submitted blocks
    finish, then raises the lowest diverging seed's error; Ctrl-C stops the
    workers at once.  A full-batch run's one trajectory stands for every
    seed (see ``_cell``).  Results are bitwise independent of ``workers``.
    """
    n_seeds = int(n_seeds)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    base_seed = check_seed(base_seed)
    check_seed(base_seed + n_seeds - 1)
    submitted = _submitted.get(_cell_key(problem, cert, template, n_seeds, base_seed))
    job = (contextlib.nullcontext([submitted]) if submitted is not None else
           _pool_job([(problem, cert)], [_cell(0, problem, template, n_seeds, base_seed)], int(workers)))
    with job as (gaps,):
        values = np.resize(gaps(), n_seeds)  # repeats a full-batch cell's one gap
    mean, std_error = reduce_moments(values)
    return MonteCarloEstimate(
        n_seeds=n_seeds,
        mean_gap=mean,
        std_error=std_error,
        ci95_upper=mean + 1.96 * std_error,
        fingerprint=run_fingerprint(problem, template),
        per_seed_gaps=values,
    )


@dataclass(frozen=True)
class CellCheck:
    """One cell's estimate checked against the tightest bound that applies to it."""

    estimate: MonteCarloEstimate
    bounds: BoundReport
    bound_value: float
    slack_ratio: float | None
    satisfied: bool


def _bound_half(problem, cert, x0, T: int, schedule, b: int) -> tuple[BoundReport, float, RunConfig]:
    """A cell's bound report (constants at b, D^2), tightest bound and run template, or its typed error."""
    x0 = problem.check_point(x0)
    effective = effective_constants(problem, b, cert)
    d_sq = float(np.sum((x0 - cert.x_star) ** 2))
    bounds = build_bound_report(schedule, effective.L_b, d_sq, effective.sigma_b_sq, T)
    return bounds, float(bounds.tightest()), RunConfig(T=T, seed=0, schedule=schedule, x0=x0, batch_size=b)


def check_cell(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    x0,
    T: int,
    schedule,
    b: int,
    n_seeds: int,
    base_seed: int,
    workers: int = 1,
) -> CellCheck:
    """Estimate the gap of one (problem, x0, T, schedule, b) cell and check it.

    The bounds take the constants for batch size b (``effective_constants``)
    and D^2 = ||x0 - x*||^2 (see ``_bound_half``); the cell is satisfied when
    ci95_upper is at most the tightest applicable bound.  slack_ratio is
    bound / ci95_upper, or None when that is not a finite positive number
    (ci95_upper <= 0, as rounding noise on a converged run can give).  A
    cell whose bounds fail raises before it is simulated.

    Raises:
        HypothesisError: an applicable bound is not finite.
        ScheduleError, UnsupportedSamplingError, DivergenceError: from the
            bounds or the estimate.
    """
    bounds, bound_value, template = _bound_half(problem, cert, x0, T, schedule, b)
    estimate = estimate_gap(problem, cert, template, n_seeds, base_seed, workers=workers)
    ratio = bound_value / estimate.ci95_upper if estimate.ci95_upper > 0 else math.nan
    return CellCheck(
        estimate=estimate,
        bounds=bounds,
        bound_value=bound_value,
        slack_ratio=ratio if 0 < ratio < math.inf else None,
        satisfied=bool(estimate.ci95_upper <= bound_value),
    )


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One sweep cell; numeric fields are None when the cell errored."""

    problem_id: str | None = None
    T: int | None = None
    b: int | None = None
    C: float | None = None
    beta: float | None = None
    gamma: float | None = None
    n_seeds: int | None = None
    mean_gap: float | None = None
    std_error: float | None = None
    ci95_upper: float | None = None
    theorem1_bound: float | None = None
    corollary_bound: float | None = None
    satisfied: bool | None = None
    error: str | None = None


# sweep.csv columns, in field order.
SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


# A sweep cell that fails with one of these becomes an error row; anything
# else is a bug and propagates.
_CELL_ERRORS = (ScheduleError, UnsupportedSamplingError, DivergenceError, HypothesisError)


def sweep(
    problem_entries: list,
    T_grid,
    schedule_grid,
    b_grid,
    n_seeds: int,
    base_seed: int,
    workers: int = 1,
) -> list[SweepRow]:
    """Estimate gaps and bounds over the (problem, T, schedule, b) grid.

    Args:
        problem_entries: list of (problem_id, problem, cert, x0) tuples.
        T_grid, schedule_grid, b_grid: swept in deterministic nested order
            (problem outermost, then T, schedule, batch size).
        n_seeds, base_seed: every cell uses seeds base_seed .. +n_seeds-1.
        workers: worker processes.  One pool takes every cell's seed blocks
            up front, longest horizon first, and each cell's gaps are
            joined in seed order, so the rows do not depend on ``workers``.

    A pre-pass evaluates every cell's bounds (``_bound_half``) and submits
    each distinct cell whose bounds hold to one ``_pool_job``; no other cell
    is simulated.  Each cell is one ``check_cell``, in grid order, at the
    step size and bound constants for its batch size b; its ``estimate_gap``
    calls the gaps function the sweep registered for it.  A cell that fails
    with a domain error (invalid schedule, undefined sampling, divergence,
    violated hypothesis, non-finite bound) does not abort the sweep; its row
    carries the error message and empty numeric fields.  Any other exception
    propagates.
    """
    workers, n_seeds = max(1, int(workers)), int(n_seeds)
    grid = [(entry, int(T), schedule, int(b)) for entry, T, schedule, b
            in itertools.product(range(len(problem_entries)), T_grid, schedule_grid, b_grid)]
    cells = {}  # by _cell_key, so a repeated cell runs once
    for entry, T, schedule, b in grid:
        _, problem, cert, x0 = problem_entries[entry]
        try:
            template = _bound_half(problem, cert, x0, T, schedule, b)[2]
        except _CELL_ERRORS:
            continue  # the cell's check_cell raises this again and makes it the row
        cells.setdefault(_cell_key(problem, cert, template, n_seeds, base_seed),
                         _cell(entry, problem, template, n_seeds, base_seed))
    entries = [(problem, cert) for _, problem, cert, _ in problem_entries]
    rows = []
    with _pool_job(entries, list(cells.values()), workers) as gaps:
        _submitted.update(zip(cells, gaps))
        try:
            for entry, T, schedule, b in grid:
                problem_id, problem, cert, x0 = problem_entries[entry]
                row = {"problem_id": problem_id, "T": T, "b": b, "C": getattr(schedule, "C", None),
                       "beta": getattr(schedule, "beta", None), "n_seeds": n_seeds}
                try:
                    check = check_cell(problem, cert, x0, T, schedule, b, n_seeds, base_seed,
                                       workers=workers)
                except _CELL_ERRORS as exc:
                    rows.append(SweepRow(**row, error=f"{type(exc).__name__}: {exc}"))
                    continue
                bounds, estimate = check.bounds, check.estimate
                corollaries = (bounds.sqrt_c2, bounds.sqrt_general, bounds.polynomial)  # most specialised first
                rows.append(SweepRow(
                    **row, gamma=bounds.gamma, mean_gap=estimate.mean_gap, std_error=estimate.std_error,
                    ci95_upper=estimate.ci95_upper, theorem1_bound=bounds.generic,
                    corollary_bound=next((c for c in corollaries if c is not None), None),
                    satisfied=check.satisfied,
                ))
        finally:
            _submitted.clear()
    return rows
