"""Sequential SGD and mini-batch SGD with seeded, replayable sampling.

One update is x <- x - gamma * g_t where g_t is the gradient of a single
component drawn from the sampling weights (batch size 1) or the average of
the component gradients over a uniformly drawn size-b subset (without
replacement).  All index randomness comes from the run stream of the seed,
so a trajectory is a pure function of (problem, config).  The step size
is the schedule resolved against ``problem.batch_smoothness(b)``, the
smoothness constant the bounds for batch size b use.

One engine runs every sampling mode: it advances a block of seeds in
lockstep as an (S, d) iterate matrix, each row drawing from its own seed's
stream.  Each row's step is computed by the same per-row calls whatever S
is, so a block of S seeds reproduces S single-seed runs bit for bit.
Batch gradients are summed over ascending component indices and divided
once (``FiniteSumProblem.batch_grad``); a batch covering every component
is the full-batch gradient itself, so batch size n reproduces
deterministic gradient descent bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .problems import FiniteSumProblem, SolutionCertificate, UnsupportedSamplingError
from .rng import RUN_STREAM, check_seed, stream

__all__ = [
    "ConstantStep",
    "DivergenceError",
    "PolynomialStep",
    "RunConfig",
    "ScheduleError",
    "StepRecord",
    "Trajectory",
    "UnsupportedSamplingError",
    "minibatch_run",
    "resolve_schedule",
    "schedule_from_doc",
    "schedule_to_doc",
    "sgd_run",
    "suggested_step_interpolation",
    "suggested_step_noisy",
    "write_trajectory_csv",
]

_DIVERGENCE_LIMIT = 1e100
# Indices are drawn this many steps at a time.  A mini-batch chunk is drawn
# one Fisher-Yates column after another, so this pattern fixes which run a
# seed maps to; single-sample draws do not depend on it.
_DRAW_STEPS = 1024
# Float64 entries that the intermediates of one seed block may hold, and the
# most rows a block needs to spread the per-step overhead thin.
_BLOCK_ENTRIES = 2**19
_BLOCK_ROWS = 1024


class ScheduleError(ValueError):
    """A step-size schedule violates its validity constraints."""


class DivergenceError(RuntimeError):
    """An iterate left the finite range; carries the first bad step and seed."""

    def __init__(self, step: int, seed: int):
        super().__init__(
            f"iterate diverged at step {step} (seed {seed}): "
            f"coordinate magnitude above {_DIVERGENCE_LIMIT:g} or non-finite"
        )
        self.step = step
        self.seed = seed

    def __reduce__(self):
        return type(self), (self.step, self.seed)


@dataclass(frozen=True)
class ConstantStep:
    """Fixed step size gamma."""

    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ScheduleError(f"gamma must be finite and positive, got {self.gamma!r}")


@dataclass(frozen=True)
class PolynomialStep:
    """Horizon-polynomial step 1 / (C * L * T**beta)."""

    C: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C >= 2):
            raise ScheduleError(f"C must be finite and >= 2, got {self.C!r}")
        if not (np.isfinite(self.beta) and 0 < self.beta < 1):
            raise ScheduleError(f"beta must lie in (0, 1), got {self.beta!r}")


StepSizeSchedule = ConstantStep | PolynomialStep


def resolve_schedule(schedule: StepSizeSchedule, L: float, T: int) -> float:
    """Resolve a schedule to the concrete step size for smoothness L, horizon T.

    Enforces the bound-validity window: gamma * L must lie strictly inside
    (0, 1).
    """
    if not (np.isfinite(L) and L > 0):
        raise ScheduleError(f"smoothness constant must be positive, got {L!r}")
    if int(T) < 1:
        raise ScheduleError(f"horizon must be >= 1, got {T!r}")
    if isinstance(schedule, ConstantStep):
        gamma = schedule.gamma
    elif isinstance(schedule, PolynomialStep):
        gamma = 1.0 / (schedule.C * L * float(T) ** schedule.beta)
    else:
        raise ScheduleError(f"unknown schedule {schedule!r}")
    gl = gamma * L
    if not 0 < gl < 1:
        raise ScheduleError(
            f"gamma * L = {gl!r} must lie strictly inside (0, 1) "
            "for the last-iterate bound to apply"
        )
    return gamma


def suggested_step_noisy() -> PolynomialStep:
    """Schedule preset for problems with gradient noise at the solution."""
    return PolynomialStep(C=4.0, beta=0.5)


def suggested_step_interpolation(L: float, T: int) -> ConstantStep:
    """Preset 1 / (4 L ln T) for interpolation problems, as a constant step."""
    if T < 2:
        raise ScheduleError("the log-horizon preset needs T >= 2")
    return ConstantStep(gamma=1.0 / (4.0 * L * math.log(T)))


def schedule_to_doc(schedule: StepSizeSchedule) -> dict:
    if isinstance(schedule, ConstantStep):
        return {"variant": "constant", "gamma": schedule.gamma}
    if isinstance(schedule, PolynomialStep):
        return {"variant": "polynomial", "C": schedule.C, "beta": schedule.beta}
    raise ScheduleError(f"unknown schedule {schedule!r}")


def schedule_from_doc(doc: dict) -> StepSizeSchedule:
    variant = doc.get("variant")
    if variant == "constant":
        return ConstantStep(gamma=float(doc["gamma"]))
    if variant == "polynomial":
        return PolynomialStep(C=float(doc["C"]), beta=float(doc["beta"]))
    raise ScheduleError(f"unknown schedule variant {variant!r}")


@dataclass(frozen=True)
class RunConfig:
    """One SGD run: horizon, seed, schedule, batch size, recording policy.

    ``record_stride = 0`` means automatic: max(1, T // 100).  ``x0`` is the
    initial iterate.  ``record_iterates`` additionally keeps an x snapshot
    in every record.
    """

    T: int
    seed: int
    schedule: StepSizeSchedule
    x0: np.ndarray
    batch_size: int = 1
    record_stride: int = 0
    record_iterates: bool = False

    def __post_init__(self):
        if int(self.T) < 1:
            raise ValueError(f"T must be a positive integer, got {self.T!r}")
        check_seed(self.seed)
        if not isinstance(self.schedule, (ConstantStep, PolynomialStep)):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if int(self.record_stride) < 0:
            raise ValueError(f"record_stride must be >= 0, got {self.record_stride!r}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite 1-d vector")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "batch_size", int(self.batch_size))
        object.__setattr__(self, "record_stride", int(self.record_stride))


@dataclass(frozen=True)
class StepRecord:
    t: int
    gap: float
    x_norm: float
    x: np.ndarray | None = None


@dataclass(frozen=True)
class Trajectory:
    """Recorded gaps of one run plus the final iterate and resolved step."""

    records: tuple[StepRecord, ...]
    final_iterate: np.ndarray
    seed: int
    gamma_used: float
    batch_size: int = 1

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap


def _sampler(problem: FiniteSumProblem, b: int):
    """draw(rng, steps) -> (steps, b) component indices, or None at b = n."""
    n = problem.n
    if b == n:
        return None  # the subset is the whole family; no randomness consumed
    if b == 1 and problem.uniform_weights:
        return lambda rng, steps: rng.integers(0, n, size=steps)[:, None]
    if b == 1:
        cum_weights = problem.cum_weights

        def draw(rng, steps):
            picks = np.searchsorted(cum_weights, rng.random(size=steps), side="right")
            return np.minimum(picks, n - 1)[:, None]

        return draw

    def draw(rng, steps):
        draws = np.stack([rng.integers(0, n - k, size=steps) for k in range(b)], axis=1)
        span = max(1, _BLOCK_ENTRIES // n)  # permutations held at once
        return np.concatenate([_subsets(n, draws[lo : lo + span]) for lo in range(0, steps, span)])

    return draw


def _subsets(n: int, draws: np.ndarray) -> np.ndarray:
    """Sorted size-b subsets of range(n), one per row of the (steps, b) draws.

    Partial Fisher-Yates: the first b entries of a uniformly random
    permutation form a uniform size-b subset.
    """
    steps, b = draws.shape
    rows = np.arange(steps)
    pool = np.tile(np.arange(n), (steps, 1))
    for k in range(b):
        j = k + draws[:, k]
        picked = pool[rows, j]
        pool[rows, j] = pool[:, k]
        pool[:, k] = picked
    return np.sort(pool[:, :b], axis=1)


def _block_rows(problem: FiniteSumProblem, b: int, T: int) -> int:
    """Seeds per block, so that one block's intermediates fit _BLOCK_ENTRIES.

    A row holds the b gathered components of a step and their indices for
    one draw chunk, and the n component values of its final gap.
    """
    per_row = (b + problem.n) * problem.component_entries() + b * min(T, _DRAW_STEPS)
    return max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // per_row))


def _run(problem: FiniteSumProblem, config: RunConfig, seeds, record=None):
    """Run one trajectory per seed in lockstep; returns (gamma, final iterates (S, d)).

    ``config.seed`` is ignored in favour of ``seeds``.  ``record(t, X)``, if
    given, sees the iterates at t = 0, at every record stride and at T.  A
    block that diverges raises DivergenceError for its lowest diverging
    seed at that seed's first bad step, as seed-by-seed runs would.
    """
    b = config.batch_size
    L_b = problem.batch_smoothness(b)  # raises for an undefined sampling mode
    x0 = problem.check_point(config.x0)
    T = config.T
    gamma = resolve_schedule(config.schedule, L_b, T)
    stride = config.record_stride if config.record_stride > 0 else max(1, T // 100)
    seeds = list(seeds)
    X = np.tile(x0, (len(seeds), 1))
    if record is not None:
        record(0, X)
    draw = _sampler(problem, b)
    rngs = [] if draw is None else [stream(seed, RUN_STREAM) for seed in seeds]
    idx = diverged = None
    t = 0
    while t < T:
        steps = min(_DRAW_STEPS, T - t)
        if draw is not None:
            chunk = np.empty((steps, len(rngs), b), dtype=np.intp)
            for row, rng in enumerate(rngs):
                chunk[:, row] = draw(rng, steps)
        for u in range(steps):
            if draw is not None:
                idx = chunk[u, : len(X)]
            X = X - gamma * problem.batch_grad(idx, X)
            t += 1
            # NaN fails the comparison too, so this also catches non-finite rows.
            if not np.abs(X).max() <= _DIVERGENCE_LIMIT:
                # Keep only the rows below the first bad one: a lower seed
                # that goes bad later is the one seed-by-seed runs report.
                first = int(np.argmin(np.abs(X).max(axis=1) <= _DIVERGENCE_LIMIT))
                diverged = DivergenceError(t, seeds[first])
                if first == 0:
                    raise diverged
                X, rngs = X[:first], rngs[:first]
            if record is not None and t != T and t % stride == 0:
                record(t, X)
    if diverged is not None:
        raise diverged
    if record is not None:
        record(T, X)
    return gamma, X


def _trajectory(problem: FiniteSumProblem, cert: SolutionCertificate, config: RunConfig) -> Trajectory:
    records = []

    def record(t, X):
        x = X[0]
        records.append(StepRecord(
            t=t,
            gap=float(problem.value(x) - cert.inf_f),
            x_norm=math.sqrt(x @ x),
            x=x.copy() if config.record_iterates else None,
        ))

    gamma, X = _run(problem, config, (config.seed,), record)
    return Trajectory(
        records=tuple(records),
        final_iterate=X[0].copy(),
        seed=config.seed,
        gamma_used=gamma,
        batch_size=config.batch_size,
    )


def sgd_run(problem: FiniteSumProblem, cert: SolutionCertificate, config: RunConfig) -> Trajectory:
    """Single-sample SGD for exactly T updates."""
    if config.batch_size != 1:
        raise UnsupportedSamplingError("sgd_run is the batch_size = 1 engine")
    return _trajectory(problem, cert, config)


def minibatch_run(problem: FiniteSumProblem, cert: SolutionCertificate, config: RunConfig) -> Trajectory:
    """Mini-batch SGD over uniform size-b subsets drawn without replacement."""
    return _trajectory(problem, cert, config)


def write_trajectory_csv(trajectory: Trajectory, path, include_x_norm: bool = False):
    """Write recorded steps as CSV with columns t, gap and optional x_norm."""
    header = ["t", "gap"] + (["x_norm"] if include_x_norm else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trajectory.records:
            row = [rec.t, repr(rec.gap)]
            if include_x_norm:
                row.append(repr(rec.x_norm))
            writer.writerow(row)
