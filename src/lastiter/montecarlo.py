"""Monte Carlo gap estimation, bound comparison, and parameter sweeps.

The estimator runs the SGD engine once per seed (seeds base_seed ..
base_seed + n_seeds - 1), collects the final gaps in seed order, and
reduces them to streaming moments (count, mean, M2) over a fixed binary
tree that always splits a block of k values at k // 2.  Worker processes
only distribute the per-seed runs; the reduction happens in the driver in
canonical order, so the estimate is bitwise identical for every worker
count, and the moment state over 2n seeds is exactly the merge of the
states over the first and second n.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np

from .bounds import HypothesisError, build_bound_report, effective_constants
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
from .sgd import DivergenceError, RunConfig, ScheduleError, _run, schedule_to_doc

__all__ = [
    "BoundVerdict",
    "MomentState",
    "MonteCarloEstimate",
    "SweepRow",
    "compare_to_bound",
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


_WORKER_CTX = None


def _init_worker(problem, cert, template):
    global _WORKER_CTX
    _WORKER_CTX = (problem, cert, template)


def _one_gap(problem, cert, template, seed: int) -> float:
    # _run's seed override skips rebuilding and revalidating the config for
    # every seed, and final_record_only skips the records this estimator
    # never reads; the iterates are identical to replace(template, seed=seed).
    trajectory = _run(problem, cert, template, seed=seed, final_record_only=True)
    return trajectory.final_gap


def _worker_chunk(bounds_pair):
    lo, hi = bounds_pair
    problem, cert, template = _WORKER_CTX
    return [_one_gap(problem, cert, template, seed) for seed in range(lo, hi)]


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
) -> MonteCarloEstimate:
    """Estimate E[f(x_T) - inf f] over seeds base_seed .. base_seed + n_seeds - 1.

    The template's own seed is ignored; its record stride is forced to T
    since only the final gap feeds the estimator.  A diverging run aborts
    the whole estimate with the offending seed in the error.

    Results are bitwise independent of ``workers``.
    """
    n_seeds = int(n_seeds)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    base_seed = check_seed(base_seed)
    check_seed(base_seed + n_seeds - 1)
    workers = max(1, int(workers))
    template = replace(template, record_stride=template.T)
    lo, hi = base_seed, base_seed + n_seeds
    if workers == 1 or n_seeds < 2 * workers:
        gaps = [_one_gap(problem, cert, template, seed) for seed in range(lo, hi)]
    else:
        chunk = max(1, math.ceil(n_seeds / (workers * 8)))
        spans = [(s, min(s + chunk, hi)) for s in range(lo, hi, chunk)]
        with multiprocessing.Pool(
            workers, initializer=_init_worker, initargs=(problem, cert, template)
        ) as pool:
            gaps = [g for part in pool.map(_worker_chunk, spans) for g in part]
    values = np.asarray(gaps, dtype=float)
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
class BoundVerdict:
    """Comparison of an estimate's upper confidence limit against a bound."""

    bound_value: float
    ci95_upper: float
    slack_ratio: float
    satisfied: bool


def compare_to_bound(estimate: MonteCarloEstimate, bound_value: float) -> BoundVerdict:
    """Check ci95_upper <= bound and report the multiplicative slack."""
    if not np.isfinite(bound_value):
        raise ValueError(f"bound must be finite, got {bound_value!r}")
    tiny = float(np.finfo(float).tiny)
    return BoundVerdict(
        bound_value=float(bound_value),
        ci95_upper=estimate.ci95_upper,
        slack_ratio=float(bound_value) / max(estimate.ci95_upper, tiny),
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


def _sweep_cell(problem_id, problem, cert, x0, T, schedule, b, n_seeds, base_seed, workers):
    x0 = problem.check_point(x0)
    eff = effective_constants(problem, b, cert)
    d_sq = float(np.sum((x0 - cert.x_star) ** 2))
    report = build_bound_report(schedule, eff.L_b, d_sq, eff.sigma_b_sq, T)
    template = RunConfig(T=T, seed=0, schedule=schedule, x0=x0, batch_size=b)
    estimate = estimate_gap(problem, cert, template, n_seeds, base_seed, workers=workers)
    corollaries = (report.sqrt_c2, report.sqrt_general, report.polynomial)  # most specialised first
    return SweepRow(
        problem_id=problem_id,
        T=T,
        b=b,
        C=report.C,
        beta=report.beta,
        gamma=report.gamma,
        n_seeds=n_seeds,
        mean_gap=estimate.mean_gap,
        std_error=estimate.std_error,
        ci95_upper=estimate.ci95_upper,
        theorem1_bound=report.generic,
        corollary_bound=next((c for c in corollaries if c is not None), None),
        satisfied=bool(estimate.ci95_upper <= report.tightest()),
    )


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
        workers: worker processes per cell.

    Each cell runs at step size and bound constants for its batch size b
    (``effective_constants``).  A cell that fails with a domain error
    (invalid schedule, undefined sampling, divergence, violated hypothesis)
    does not abort the sweep; its row carries the error message and empty
    numeric fields.  Any other exception propagates.
    """
    rows = []
    for problem_id, problem, cert, x0 in problem_entries:
        for T in T_grid:
            for schedule in schedule_grid:
                for b in b_grid:
                    try:
                        row = _sweep_cell(
                            problem_id, problem, cert, x0, int(T), schedule, int(b),
                            int(n_seeds), base_seed, workers,
                        )
                    except _CELL_ERRORS as exc:
                        row = SweepRow(
                            problem_id=problem_id,
                            T=int(T),
                            b=int(b),
                            C=getattr(schedule, "C", None),
                            beta=getattr(schedule, "beta", None),
                            gamma=None,
                            n_seeds=int(n_seeds),
                            mean_gap=None,
                            std_error=None,
                            ci95_upper=None,
                            theorem1_bound=None,
                            corollary_bound=None,
                            satisfied=None,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    rows.append(row)
    return rows
