"""Monte Carlo gap estimation, cell checks against the bounds, and sweeps.

The estimator runs seeds base_seed .. base_seed + n_seeds - 1 through the
SGD engine in blocks of seeds advanced in lockstep, collects the final gaps
in seed order, and reduces them to streaming moments (count, mean, M2) over
a fixed binary tree that always splits a block of k values at k // 2.
Worker processes each take one contiguous range of seeds; the reduction
happens in the driver in canonical order, so the estimate is bitwise
identical for every worker count and block size, and the moment state over
2n seeds is exactly the merge of the states over the first and second n.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, EffectiveConstants, HypothesisError, build_bound_report, effective_constants
# Unused here, but the benchmark tracer (perfbench/child.py) wraps these names on this module.
from .bounds import (  # noqa: F401
    last_iterate_bound,
    polynomial_step_bound,
    sqrt_step_bound,
    sqrt_step_bound_c2,
)
from .problems import FiniteSumProblem, SolutionCertificate, UnsupportedSamplingError, problem_to_doc
from .reporting import doc_hash
from .rng import check_seed
from .sgd import DivergenceError, RunConfig, ScheduleError, _block_rows, _run, schedule_to_doc

__all__ = [
    "CellCheck",
    "MomentState",
    "MonteCarloEstimate",
    "SweepRow",
    "check_cell",
    "estimate_gap",
    "merge_moments",
    "reduce_moments",
    "sweep",
]


@dataclass(frozen=True)
class MomentState:
    """Streaming first/second moment state: count, mean, sum of squared deviations."""

    count: int
    mean: float
    m2: float


def merge_moments(left: MomentState, right: MomentState) -> MomentState:
    """Combine two disjoint moment states (pairwise update form)."""
    if left.count == 0:
        return right
    if right.count == 0:
        return left
    count = left.count + right.count
    delta = right.mean - left.mean
    mean = left.mean + delta * (right.count / count)
    m2 = left.m2 + right.m2 + delta * delta * (left.count * right.count / count)
    return MomentState(count=count, mean=mean, m2=m2)


def reduce_moments(values) -> MomentState:
    """Moments of a value sequence over the canonical binary merge tree.

    A block of k values always splits at k // 2, so the state over values
    [0, 2n) is exactly merge(state[0, n), state[n, 2n)) and the result never
    depends on how the values were computed or partitioned.
    """
    values = np.asarray(values, dtype=float)

    def block(lo: int, hi: int) -> MomentState:
        if hi - lo == 1:
            return MomentState(count=1, mean=float(values[lo]), m2=0.0)
        mid = lo + (hi - lo) // 2
        return merge_moments(block(lo, mid), block(mid, hi))

    if values.size == 0:
        return MomentState(count=0, mean=0.0, m2=0.0)
    return block(0, values.size)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample statistics of the final gap over seeded runs."""

    n_seeds: int
    mean_gap: float
    std_error: float
    ci95_upper: float
    T: int
    batch_size: int
    base_seed: int
    fingerprint: str
    per_seed_gaps: np.ndarray | None = None


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
    """Hash of the problem and the run configuration minus its seed."""
    doc = {
        "problem": problem_to_doc(problem),
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
    keep_per_seed: bool = False,
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
    state = reduce_moments(values)
    if state.count > 1:
        std_error = math.sqrt(state.m2 / (state.count - 1)) / math.sqrt(state.count)
    else:
        std_error = 0.0
    return MonteCarloEstimate(
        n_seeds=n_seeds,
        mean_gap=state.mean,
        std_error=std_error,
        ci95_upper=state.mean + 1.96 * std_error,
        T=template.T,
        batch_size=template.batch_size,
        base_seed=base_seed,
        fingerprint=run_fingerprint(problem, template),
        per_seed_gaps=values if keep_per_seed else None,
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
    keep_per_seed: bool = False,
) -> CellCheck:
    """Estimate the gap of one (problem, x0, T, schedule, b) cell and check it.

    The bounds take the constants for batch size b (``effective_constants``)
    and D^2 = ||x0 - x*||^2; the cell is satisfied when ci95_upper is at most
    the tightest applicable bound, and slack_ratio is bound / ci95_upper.

    Raises:
        HypothesisError: the tightest bound is not finite.
        ScheduleError, UnsupportedSamplingError, DivergenceError: from the
            bounds or the estimate.
    """
    x0 = problem.check_point(x0)
    effective = effective_constants(problem, b, cert)
    d_sq = float(np.sum((x0 - cert.x_star) ** 2))
    bounds = build_bound_report(schedule, effective.L_b, d_sq, effective.sigma_b_sq, T)
    bound_value = float(bounds.tightest())
    if not np.isfinite(bound_value):
        raise HypothesisError(f"bound must be finite, got {bound_value!r}")
    template = RunConfig(T=T, seed=0, schedule=schedule, x0=x0, batch_size=b)
    estimate = estimate_gap(problem, cert, template, n_seeds, base_seed, workers=workers,
                            keep_per_seed=keep_per_seed, pool=pool)
    tiny = float(np.finfo(float).tiny)
    return CellCheck(
        estimate=estimate,
        bounds=bounds,
        effective=effective,
        bound_value=bound_value,
        slack_ratio=bound_value / max(estimate.ci95_upper, tiny),
        satisfied=bool(estimate.ci95_upper <= bound_value),
    )


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell; numeric fields are None when the cell errored."""

    problem_id: str
    T: int
    b: int
    C: float | None
    beta: float | None
    gamma: float | None
    n_seeds: int
    mean_gap: float | None
    std_error: float | None
    ci95_upper: float | None
    theorem1_bound: float | None
    corollary_bound: float | None
    satisfied: bool | None
    error: str | None = None


SWEEP_COLUMNS = (
    "problem_id",
    "T",
    "b",
    "C",
    "beta",
    "gamma",
    "n_seeds",
    "mean_gap",
    "std_error",
    "ci95_upper",
    "theorem1_bound",
    "corollary_bound",
    "satisfied",
    "error",
)


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
                rows.append(SweepRow(
                    **row, gamma=None, mean_gap=None, std_error=None, ci95_upper=None,
                    theorem1_bound=None, corollary_bound=None, satisfied=None,
                    error=f"{type(exc).__name__}: {exc}",
                ))
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
