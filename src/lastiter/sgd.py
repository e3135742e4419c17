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
A block of many seeds with short uniform single-sample streams draws all
its indices in one vectorized Philox pass (``rng._block_integers``) instead
of one generator per seed.  The pass gives the generators' draws bit for
bit; a row in which numpy would have rejected a draw is drawn again from
its seed's generator.  Blocks of fewer than _PASS_ROWS seeds (a single
seed among them), long streams, weighted sampling and mini-batches keep the
generators.
Batch gradients are summed over ascending component indices and divided
once (``FiniteSumProblem.batch_grad``); a batch covering every component
is the full-batch gradient itself, so batch size n reproduces
deterministic gradient descent bit for bit.

``run`` is the engine's one entry.  It returns the final iterates, and its
``observe(t, X)`` hook sees the iterates at t = 0 and after every step, so a
gap curve, a record stride or any other per-step quantity is an observer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import FiniteSumProblem, UnsupportedSamplingError
from .rng import RUN_STREAM, _block_integers, check_seed, stream

__all__ = [
    "ConstantStep",
    "DivergenceError",
    "PolynomialStep",
    "RunConfig",
    "ScheduleError",
    "UnsupportedSamplingError",
    "resolve_schedule",
    "run",
    "schedule_from_doc",
    "schedule_to_doc",
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
# A block of at least _PASS_ROWS seeds whose uniform single-sample runs
# take at most _PASS_DRAWS steps draws its indices in one vectorized Philox
# pass (rng._block_integers) instead of through one generator per seed; the
# pass holds up to _PASS_ENTRIES uint64 temporaries per draw, counting the
# draws up to a multiple of 8 (one Philox counter gives 8).  Crossover on
# a 2-CPU x86-64 machine, whole run() of n=16, d=4 least-squares and logistic
# and n=10, d=2 least-squares blocks, pass against generators (medians of
# 60 alternating runs): 16 rows break even; 32 rows take 0.36-0.68 against
# 0.65-1.20 ms at T=5, 4.0-5.0 against 4.3-5.3 ms at T=200 and 5.1-6.2
# against 5.4-6.6 ms at T=256 (pass faster in 44-57 of 60), but at T=512
# they tie (10.7-12.3 against 10.9-12.2 ms, pass faster in 34-46 of 60);
# 48 rows take 5.4-5.9 against 5.8-6.7 ms at T=200.  _PASS_DRAWS is below
# _DRAW_STEPS, so a pass serves a single draw chunk.
_PASS_ROWS = 32
_PASS_DRAWS = 256
_PASS_ENTRIES = 6


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
    try:
        horizon = float(T)
    except OverflowError:
        raise ScheduleError("horizon must fit the float range") from None
    if isinstance(schedule, ConstantStep):
        gamma = schedule.gamma
    elif isinstance(schedule, PolynomialStep):
        gamma = 1.0 / (schedule.C * L * horizon ** schedule.beta)
    else:
        raise ScheduleError(f"unknown schedule {schedule!r}")
    gl = gamma * L
    if not 0 < gl < 1:
        raise ScheduleError(
            f"gamma * L = {gl!r} must lie strictly inside (0, 1) "
            "for the last-iterate bound to apply"
        )
    return gamma


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
    """One SGD run: horizon, seed, schedule, initial iterate, batch size.

    Nothing reads ``record_stride``: a caller that wants the gap every k
    steps computes it in ``run``'s observer.  The field and its check stay
    only because the benchmark's probes (perfbench/child.py) still build
    ``RunConfig(..., record_stride=T)``; they go with ``sgd_run`` below.
    """

    T: int
    seed: int
    schedule: StepSizeSchedule
    x0: np.ndarray
    batch_size: int = 1
    record_stride: int = 0

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


def _takes_pass(problem: FiniteSumProblem, rows: int, b: int, T: int) -> bool:
    """Whether a block of ``rows`` seeds draws its indices in one Philox pass."""
    uniform_single = b == 1 and problem.n > 1 and problem.uniform_weights
    return uniform_single and rows >= _PASS_ROWS and T <= _PASS_DRAWS


def _block_rows(problem: FiniteSumProblem, b: int, T: int) -> int:
    """Seeds per block, so that one block's intermediates fit _BLOCK_ENTRIES.

    A row holds the b gathered components of a step and their indices for
    one draw chunk, and the n component values of its final gap.  A block
    that takes the Philox pass also holds the pass's uint64 temporaries; if
    they would leave it fewer than _PASS_ROWS rows, it stays just below
    _PASS_ROWS and keeps the generators instead.
    """
    per_row = (b + problem.n) * problem.component_entries() + b * min(T, _DRAW_STEPS)
    rows = min(_BLOCK_ROWS, _BLOCK_ENTRIES // per_row)
    if _takes_pass(problem, rows, b, T):
        with_pass = min(rows, _BLOCK_ENTRIES // (per_row + _PASS_ENTRIES * 8 * -(-T // 8)))
        rows = with_pass if with_pass >= _PASS_ROWS else _PASS_ROWS - 1
    return max(1, rows)


def run(problem: FiniteSumProblem, config: RunConfig, seeds, observe=None):
    """Run one trajectory per seed in lockstep; returns (gamma, final iterates (S, d)).

    Row s is the final iterate of seed ``seeds[s]``, bit for bit the same
    in any block, so ``run(problem, config, (seed,))`` is a single run.
    ``config.seed`` is ignored in favour of ``seeds``, which must not be
    empty.  ``observe(t, X)``, if given, sees the iterates at t = 0 and
    after every step t = 1 .. T; a gap curve is an observer that records
    ``problem.value(X) - cert.inf_f``.  After a row diverges, X keeps only
    the rows before it.  A block that diverges raises DivergenceError for
    its lowest diverging seed at that seed's first bad step, as seed-by-seed
    runs would.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run needs a nonempty seed block, got no seeds")
    b = config.batch_size
    L_b = problem.batch_smoothness(b)  # raises for an undefined sampling mode
    x0 = problem.check_point(config.x0)
    T = config.T
    gamma = resolve_schedule(config.schedule, L_b, T)
    X = np.tile(x0, (len(seeds), 1))
    if observe is not None:
        observe(0, X)
    draw = _sampler(problem, b)
    rngs, chunk, idx, diverged = [], None, None, None
    if _takes_pass(problem, len(seeds), b, T):
        draws, redraw = _block_integers(seeds, RUN_STREAM, np.full(T, problem.n))
        chunk = np.ascontiguousarray(draws.T, dtype=np.intp)[:, :, None]  # (T, S, 1)
        for row in np.flatnonzero(redraw):
            chunk[:, row] = draw(stream(seeds[row], RUN_STREAM), T)
    elif draw is not None:
        rngs = [stream(seed, RUN_STREAM) for seed in seeds]
    t = 0
    while t < T:
        steps = min(_DRAW_STEPS, T - t)
        if rngs:
            chunk = np.empty((steps, len(rngs), b), dtype=np.intp)
            for row, rng in enumerate(rngs):
                chunk[:, row] = draw(rng, steps)
        for u in range(steps):
            if chunk is not None:
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
            if observe is not None:
                observe(t, X)
    if diverged is not None:
        raise diverged
    return gamma, X


# Not part of the API: the benchmark's probes (perfbench/child.py) call these two names.
def sgd_run(problem, cert, config):
    return run(problem, config, (config.seed,))


minibatch_run = sgd_run
