"""Monte Carlo gap estimation, cell checks against the bounds, and sweeps.

The estimator runs seeds base_seed .. base_seed + n_seeds - 1 through the
SGD engine in blocks of seeds advanced in lockstep, collects the final gaps
in seed order, and reduces them once, in the driver.  Worker processes each
take one contiguous range of seeds, and the driver joins their gaps in seed
order, so the gap sequence is bitwise the same for every worker count and
block size; the reduction takes exactly rounded sums over that sequence, so
the estimate is too.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import BoundReport, EffectiveConstants, HypothesisError, build_bound_report, effective_constants
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
from .sgd import DivergenceError, RunConfig, ScheduleError, _block_rows, _run, schedule_to_doc

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
    standard error of exactly 0.0.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("reduce_moments needs at least one value")
    first = float(values[0])
    mean = first + math.fsum((values - first).tolist()) / n
    if n == 1:
        return mean, 0.0
    m2 = math.fsum(((values - mean) ** 2).tolist())
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


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
        _, X = _run(problem, template, range(start, min(start + rows, hi)))
        gaps.append(problem.value(X) - cert.inf_f)
    return np.concatenate(gaps)


def _worker_gaps(task):
    # A divergence comes back as a value, so the driver can raise the one
    # of the lowest seed range whatever order the workers finish in.
    try:
        return _final_gaps(*task)
    except DivergenceError as exc:
        return exc


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
    pool=None,
) -> MonteCarloEstimate:
    """Estimate E[f(x_T) - inf f] over seeds base_seed .. base_seed + n_seeds - 1.

    The template's own seed is ignored.  A diverging run aborts the whole
    estimate with the lowest diverging seed in the error.

    ``workers`` splits the seeds into one contiguous range per worker
    process, run on ``pool`` if given, else on a pool opened for this call;
    fewer than 2 * workers trajectories run in this process.  Full-batch
    runs (b = n) consume no randomness, so one trajectory stands for every
    seed.  Results are bitwise independent of ``workers``.
    """
    n_seeds = int(n_seeds)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    base_seed = check_seed(base_seed)
    check_seed(base_seed + n_seeds - 1)
    workers = max(1, int(workers))
    full_batch = template.batch_size == problem.n
    runs = 1 if full_batch else n_seeds
    if workers == 1 or runs < 2 * workers:
        values = _final_gaps(problem, cert, template, base_seed, base_seed + runs)
    else:
        tasks = [(problem, cert, template, base_seed + runs * w // workers,
                  base_seed + runs * (w + 1) // workers) for w in range(workers)]
        if pool is None:
            with multiprocessing.Pool(workers) as own:
                parts = own.map(_worker_gaps, tasks)
        else:
            parts = pool.map(_worker_gaps, tasks)
        for part in parts:
            if isinstance(part, DivergenceError):
                raise part
        values = np.concatenate(parts)
    if full_batch:
        values = np.full(n_seeds, values[0])
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
    effective: EffectiveConstants
    bound_value: float
    slack_ratio: float
    satisfied: bool


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
    pool=None,
) -> CellCheck:
    """Estimate the gap of one (problem, x0, T, schedule, b) cell and check it.

    The bounds take the constants for batch size b (``effective_constants``)
    and D^2 = ||x0 - x*||^2; the cell is satisfied when ci95_upper is at most
    the tightest applicable bound, and slack_ratio is bound / ci95_upper.

    Raises:
        HypothesisError: an applicable bound is not finite.
        ScheduleError, UnsupportedSamplingError, DivergenceError: from the
            bounds or the estimate.
    """
    x0 = problem.check_point(x0)
    effective = effective_constants(problem, b, cert)
    d_sq = float(np.sum((x0 - cert.x_star) ** 2))
    bounds = build_bound_report(schedule, effective.L_b, d_sq, effective.sigma_b_sq, T)
    bound_value = float(bounds.tightest())
    template = RunConfig(T=T, seed=0, schedule=schedule, x0=x0, batch_size=b)
    estimate = estimate_gap(problem, cert, template, n_seeds, base_seed, workers=workers, pool=pool)
    tiny = float(np.finfo(float).tiny)
    return CellCheck(
        estimate=estimate,
        bounds=bounds,
        effective=effective,
        bound_value=bound_value,
        slack_ratio=bound_value / max(estimate.ci95_upper, tiny),
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
        workers: worker processes; one pool serves every cell.

    Each cell is one ``check_cell``, at the step size and bound constants
    for its batch size b.  A cell that fails with a domain error (invalid
    schedule, undefined sampling, divergence, violated hypothesis, non-finite
    bound) does not abort the sweep; its row carries the error message and
    empty numeric fields.  Any other exception propagates.
    """
    workers, n_seeds = max(1, int(workers)), int(n_seeds)
    shared = workers > 1 and n_seeds >= 2 * workers
    rows = []
    with multiprocessing.Pool(workers) if shared else contextlib.nullcontext() as pool:
        grid = itertools.product(problem_entries, T_grid, schedule_grid, b_grid)
        for (problem_id, problem, cert, x0), T, schedule, b in grid:
            T, b = int(T), int(b)
            row = {"problem_id": problem_id, "T": T, "b": b, "C": getattr(schedule, "C", None),
                   "beta": getattr(schedule, "beta", None), "n_seeds": n_seeds}
            try:
                check = check_cell(problem, cert, x0, T, schedule, b, n_seeds, base_seed,
                                   workers=workers, pool=pool)
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
    return rows
