"""Sequential SGD and mini-batch SGD with seeded, replayable sampling.

One update is x <- x - gamma * g_t where g_t is the gradient of a single
component drawn from the sampling weights (batch size 1) or the average of
the component gradients over a uniformly drawn size-b subset (without
replacement).  All index randomness comes from the run stream of the seed,
so a trajectory is a pure function of (problem, config).  The step size
is the schedule resolved against ``problem.batch_smoothness(b)``, the
smoothness constant the bounds for batch size b use.

Batch gradients are accumulated over ascending component indices and
divided once, and a batch covering every component takes the same code path
as a full-batch gradient, so batch size n reproduces deterministic gradient
descent bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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
_DRAW_CHUNK = 8192


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


def _record(t: int, x: np.ndarray, problem, cert, keep_x: bool) -> StepRecord:
    return StepRecord(
        t=t,
        gap=float(problem.value(x) - cert.inf_f),
        x_norm=math.sqrt(x @ x),
        x=x.copy() if keep_x else None,
    )


def _check_finite(x: np.ndarray, step: int, seed: int):
    # NaN propagates through the max and fails the comparison, so this also
    # catches non-finite iterates.
    if not np.abs(x).max() <= _DIVERGENCE_LIMIT:
        raise DivergenceError(step, seed)


def _run(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    config: RunConfig,
    seed: int | None = None,
    final_record_only: bool = False,
) -> Trajectory:
    # seed overrides config.seed so seed-loop callers (the Monte Carlo
    # estimator) can reuse one validated config instead of rebuilding it
    # per seed; the run is identical to replace(config, seed=seed).
    # final_record_only drops every record except t = T for callers that
    # consume only the final gap; the iterates themselves are unaffected.
    n = problem.n
    b = config.batch_size
    L_b = problem.batch_smoothness(b)  # raises for an undefined sampling mode
    seed = config.seed if seed is None else check_seed(seed)
    x = problem.check_point(config.x0).copy()
    T = config.T
    gamma = resolve_schedule(config.schedule, L_b, T)
    stride = config.record_stride if config.record_stride > 0 else max(1, T // 100)
    if final_record_only:
        stride = T
    keep_x = config.record_iterates
    records = [] if final_record_only else [_record(0, x, problem, cert, keep_x)]
    rng = stream(seed, RUN_STREAM)

    if b == 1:
        uniform = problem.uniform_weights
        cum_weights = problem.cum_weights
        buf = None
        pos = buffered = 0
        for t in range(T):
            if pos == buffered:
                buffered = min(_DRAW_CHUNK, T - t)
                if uniform:
                    buf = rng.integers(0, n, size=buffered)
                else:
                    buf = np.searchsorted(cum_weights, rng.random(size=buffered), side="right")
                    np.minimum(buf, n - 1, out=buf)
                pos = 0
            i = buf[pos]
            pos += 1
            x = x - gamma * problem.component_grad(i, x)
            step = t + 1
            _check_finite(x, step, seed)
            if step != T and step % stride == 0:
                records.append(_record(step, x, problem, cert, keep_x))
    elif b == n:
        # The subset is the whole family; no randomness to consume, and the
        # all-components gradient path keeps this bitwise equal to full GD.
        for t in range(T):
            grads = problem.component_grads_at(None, x)
            x = x - gamma * (grads.sum(axis=0) / b)
            step = t + 1
            _check_finite(x, step, seed)
            if step != T and step % stride == 0:
                records.append(_record(step, x, problem, cert, keep_x))
    else:
        base = np.arange(n)
        draw_buf = None
        pos = buffered = 0
        for t in range(T):
            if pos == buffered:
                buffered = min(1024, T - t)
                draw_buf = np.empty((buffered, b), dtype=np.int64)
                for k in range(b):
                    draw_buf[:, k] = rng.integers(0, n - k, size=buffered)
                pos = 0
            draws = draw_buf[pos]
            pos += 1
            # Partial Fisher-Yates: the first b entries of a uniformly random
            # permutation form a uniform size-b subset.
            pool = base.copy()
            for k in range(b):
                j = k + draws[k]
                pool[k], pool[j] = pool[j], pool[k]
            batch = np.sort(pool[:b])
            grads = problem.component_grads_at(batch, x)
            x = x - gamma * (grads.sum(axis=0) / b)
            step = t + 1
            _check_finite(x, step, seed)
            if step != T and step % stride == 0:
                records.append(_record(step, x, problem, cert, keep_x))

    records.append(_record(T, x, problem, cert, keep_x))
    return Trajectory(
        records=tuple(records),
        final_iterate=x.copy(),
        seed=seed,
        gamma_used=gamma,
        batch_size=b,
    )


def sgd_run(problem: FiniteSumProblem, cert: SolutionCertificate, config: RunConfig) -> Trajectory:
    """Single-sample SGD for exactly T updates."""
    if config.batch_size != 1:
        raise UnsupportedSamplingError("sgd_run is the batch_size = 1 engine")
    return _run(problem, cert, config)


def minibatch_run(problem: FiniteSumProblem, cert: SolutionCertificate, config: RunConfig) -> Trajectory:
    """Mini-batch SGD over uniform size-b subsets drawn without replacement."""
    return _run(problem, cert, config)


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
