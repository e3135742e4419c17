"""Sequential SGD and mini-batch SGD with seeded, replayable sampling.

One update is x <- x - gamma * g_t where g_t is the gradient of a single
component drawn from the sampling weights (batch size 1) or the average of
the component gradients over a uniformly drawn size-b subset (without
replacement).  The step size is the schedule resolved against
``problem.batch_smoothness(b)``, the smoothness constant the bounds for
batch size b use.

All index randomness comes from the run stream of the seed, so a
trajectory is a pure function of (problem, config).  ``_sampler`` alone
turns seeds into indices, _DRAW_STEPS steps at a time: positions, then a
resolver by size.  The positions are each seed's draws from its own
stream.  A uniform draw takes column k, the position that swap k of a
partial Fisher-Yates shuffle exchanges with k, as k + integers(0, n - k),
column after column, so b = 1 draws integers(0, n); a weighted single
sample takes random() to its bucket of the cumulative weights.  A block of
many seeds with short uniform single-sample streams computes them in one
vectorized Philox pass (``rng._block_integers``), bit for bit the
generators' draws; a row in which numpy would have rejected a draw takes
its positions from its seed's generator.  A resolver then turns the whole
block's positions into sorted subsets: without a pool where
b**4 <= _ONE_PASS_SCALE * n (``_small_subsets``, where a single sample is
its own position), through pools above (``_subsets``).  At b = n every
call gives None: a batch covering every component draws nothing.

One engine runs every sampling mode: it advances a block of seeds in
lockstep as an (S, d) iterate matrix.  Each row's step is computed by the
same per-row calls whatever S is, so a block of S seeds reproduces S
single-seed runs bit for bit.  A batch's component indices are sorted.
Where the problem has ``subset_quadratics`` at b (a uniform least-squares
family with 1 < b < n whose table fits its budget), a step reads each row's
H_S and c_S by the subset's colexicographic rank (``_subset_ranks``,
computed once per chunk for the whole draw group) and takes one gather and
one matrix-vector product per row, as a single-sample step does.  Any other
batch's gradients are summed and divided once, in the order
``FiniteSumProblem.batch_grad`` states; the two round apart by about 1e-16
relative.  A batch covering every component is the full-batch gradient
itself, so batch size n reproduces deterministic gradient descent bit for
bit.

``run`` is the engine's public entry.  It returns the final iterates, and
its ``observe(t, X)`` hook sees the iterates at t = 0 and after every step,
so a gap curve, a record stride or any other per-step quantity is an
observer.  It is the one-member case of ``_run_group``, whose members are
runs that draw alike: the same n, weights, b and T (``_draw_key``) over the
same seeds.  A group draws and resolves each chunk once, and each member
advances its own block over it with its own step size, so each member's
result is its ``run`` bit for bit, and families that a Monte Carlo sweep
steps together see common random numbers.  Full batches of equal n and T
form a group too, whose draw is None at every chunk.
After every step one dot product clears the whole block when its sum of
squares is at most half the divergence limit squared.  Where it does not,
the exact per-entry test |x| <= _DIVERGENCE_LIMIT decides, so the clear
never changes which seed diverges or at which step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .problems import FiniteSumProblem, UnsupportedSamplingError, _subset_ranks
from .rng import RUN_STREAM, _as_integer, _block_integers, _checked_seeds, check_seed, stream

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
# A step's divergence check first clears the whole block when the sum of
# squares of its entries, one BLAS dot product, is at most this.  The clear
# is exact: NaN, +/-inf and squares that overflow make the sum NaN or inf,
# which fails the test, and the computed sum of N nonnegative terms is
# within a relative N * 2**-53 of the true one in any summation order, far
# below the factor 2 of margin, so a cleared block has every entry finite
# and below the limit.  Where the clear fails, the exact per-entry test
# decides.
_CLEAR_SQUARES = _DIVERGENCE_LIMIT**2 / 2
# Indices are drawn this many steps at a time.  Each seed draws a mini-batch
# chunk one Fisher-Yates column after another from its own generator, so
# this pattern fixes which run a seed maps to, whichever resolver then reads
# the positions; single-sample draws do not depend on it.
_DRAW_STEPS = 1024
# A mini-batch resolves a chunk's subsets without a pool (_small_subsets)
# where b**4 <= _ONE_PASS_SCALE * n, and through n-entry pools (_subsets)
# above.  The pass costs about b**2 array passes over a chunk's positions,
# the pools an n-entry fill, b swaps and a b-entry sort per step and row,
# so the crossover grows with n.  Time ratios of the pass to the pools on a
# 2-CPU x86-64 machine shared with other jobs (the ranges of 3 repeats):
# - one 1024-step chunk, integer draws included, at the rows _block_rows
#   gives a d = 2 least-squares family (medians of 21 alternating runs):
#   n=16: b=8 0.58-0.68, 13 0.87-0.98, 14 0.89-1.02; n=64: 19 0.82-0.85,
#   20 0.87-0.93, 24 1.01-1.16; n=256: 24 0.96-1.13, 28 1.11-1.28;
#   n=1024: 38 1.14-1.31, 40 1.19-1.40; n=4096: 53 1.01-1.15,
#   56 1.11-1.29, 64 1.33-1.65;
# - a whole 1024-step run() of a d = 2 logistic family at those rows, at
#   most 96 (medians of 11): n=64: b=20 0.90-0.98, 32 1.11-1.22; n=200:
#   50 1.47-1.78, 100 2.51-2.74; n=1000: 100 1.97-2.39.
# So the crossover sits a little above the gate at n <= 64 and below it at
# n >= 256.  Fewer rows move it down (at one row, n=256: b=8 0.98-1.06,
# 16 1.97-2.16), but so few rows come from large components, whose
# gradients then take most of a step: a one-row, 1024-step run at n=256,
# d=32, b=16 takes about 22 ms either way.  No benchmark workload draws
# above the gate, so neither its placement nor _subsets is measured end
# to end.
_ONE_PASS_SCALE = 2048
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
    T = _as_integer(T, "horizon", ScheduleError)
    if T < 1:
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
        for name in ("T", "batch_size", "record_stride"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name))
        if self.T < 1:
            raise ValueError(f"T must be a positive integer, got {self.T!r}")
        check_seed(self.seed)
        if not isinstance(self.schedule, (ConstantStep, PolynomialStep)):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.record_stride < 0:
            raise ValueError(f"record_stride must be >= 0, got {self.record_stride!r}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite 1-d vector")
        object.__setattr__(self, "x0", x0)


def _draw_key(problem: FiniteSumProblem, b: int, T: int) -> tuple:
    """What ``_sampler`` reads besides the seeds: n, the weights (None where uniform), b and T.

    Runs with equal keys draw the same indices from the same seeds, so
    ``_run_group`` may step them through one draw; full batches of equal n
    and T, which draw nothing, share a key too.
    """
    return problem.n, None if problem.uniform_weights else problem.weights.tobytes(), b, T


def _sampler(problem: FiniteSumProblem, b: int, seeds, T: int):
    """draw(rows, steps) -> next (steps, rows, b) indices of seeds[:rows], or None at b = n.

    The one place where seeds become indices: positions, then a resolver by
    size.  Each seed fills its row of a (b, rows, steps) array of positions
    in np.min_scalar_type(n) from its own run stream.  A uniform draw takes
    column k, the position that swap k of a partial Fisher-Yates shuffle
    exchanges with k, as k + integers(0, n - k), column after column; a
    weighted single sample takes random() to its bucket of the cumulative
    weights.  A block that ``_takes_pass`` computes its single-sample
    positions in one Philox pass (``rng._block_integers``) instead, and a
    row flagged for a redraw takes them from its seed's generator.  The
    resolver turns the whole block's positions into sorted subsets, each
    row the same as a single-seed run's: ``_small_subsets`` where
    b**4 <= _ONE_PASS_SCALE * n (a single sample is its own position),
    ``_subsets`` above.  At b = n every call returns None (every component)
    and touches no stream.  ``rows`` may only shrink from call to call.
    Every seed is checked as ``check_seed`` checks it: by ``stream``, by
    the Philox pass, or at b = n, where no seed is drawn from, by
    ``rng._checked_seeds``.  Column k is drawn as integers(k, n), which is
    the same draw as k + integers(0, n - k): the same values, and the
    stream left at the same place.
    """
    n = problem.n
    if b == n:
        _checked_seeds(seeds)
        return lambda rows, steps: None  # the subset is the whole family; no randomness consumed
    kind = np.min_scalar_type(n)
    resolve = _small_subsets if b**4 <= _ONE_PASS_SCALE * n else _subsets

    def positions(rngs, steps):
        pos = np.empty((b, len(rngs), steps), dtype=kind)
        for row, rng in enumerate(rngs):
            if problem.uniform_weights:
                for k in range(b):
                    pos[k, row] = rng.integers(k, n, size=steps)
            else:
                picks = np.searchsorted(problem.cum_weights, rng.random(size=steps), side="right")
                pos[0, row] = np.minimum(picks, n - 1)
        return pos

    if _takes_pass(problem, len(seeds), b, T):
        draws, redraw = _block_integers(seeds, RUN_STREAM, np.full(T, n))
        passed = draws.astype(kind)[None]
        flagged = np.flatnonzero(redraw)
        passed[:, flagged] = positions([stream(seeds[row], RUN_STREAM) for row in flagged], T)
        return lambda rows, steps: resolve(n, passed[:, :rows])  # T < _DRAW_STEPS: one chunk
    rngs = [stream(seed, RUN_STREAM) for seed in seeds]
    return lambda rows, steps: resolve(n, positions(rngs[:rows], steps))


def _subsets(n: int, pos: np.ndarray) -> np.ndarray:
    """The sorted subsets of the (b, rows, steps) positions, as (steps, rows, b) indices.

    Partial Fisher-Yates: swap k exchanges the entries at k and pos_k of a
    pool range(n), and the first b entries of the resulting uniformly
    random permutation form a uniform size-b subset.  Each (step, row)
    gets its own pool, _BLOCK_ENTRIES // n of them at a time.
    """
    b, rows, steps = pos.shape
    draws = pos.transpose(2, 1, 0).reshape(-1, b)  # one row per (step, seed)
    chunk = np.empty((steps, rows, b), dtype=np.intp)
    subsets = chunk.reshape(-1, b)  # a view in the same order
    span = max(1, min(len(draws), _BLOCK_ENTRIES // n))  # permutations held at once
    pool = np.empty((span, n), dtype=np.intp)
    for lo in range(0, len(draws), span):
        part = draws[lo : lo + span]
        pool = pool[: len(part)]  # a shorter last span reuses the front rows
        pool[:] = np.arange(n)
        flat = pool.reshape(-1)  # a view: the swaps go through flat indices
        starts = np.arange(0, pool.size, n)
        for k in range(b):
            lin = starts + part[:, k]
            picked = flat.take(lin)
            flat[lin] = pool[:, k]
            pool[:, k] = picked
        pool[:, :b].sort(axis=1)
        subsets[lo : lo + span] = pool[:, :b]
    return chunk


def _small_subsets(n: int, pos: np.ndarray) -> np.ndarray:
    """The ``_subsets`` of the (b, rows, steps) positions, resolved without a pool.

    Swap k of the partial Fisher-Yates puts the value at p_k = pos_k at
    position k and moves the value w_k that position k held to p_k, so
    the picked value is w_j for the latest j < k with p_j = p_k (else p_k),
    and w_k is w_j for the latest j < k with p_j = k (else k).  An
    insertion network of minima and maxima then sorts each step's picks,
    as np.sort would.  Every array is in pos's narrow type, and pos is
    overwritten.
    """
    b, rows, steps = pos.shape
    kind = pos.dtype
    picked, moved = [], []
    for k in range(b):
        pick = pos[k]
        for j in range(k):
            pick = np.where(pos[j] == pos[k], moved[j], pick)
        picked.append(pick)
        if k + 1 < b:  # the last swap's moved value is never read
            held = kind.type(k)
            for j in range(k):
                held = np.where(pos[j] == k, moved[j], held)
            moved.append(held)
    del moved  # b - 2 arrays the sort does not need
    for i in range(1, b):
        for j in range(i, 0, -1):  # no name holds a replaced pair, so a swap frees it
            picked[j - 1], picked[j] = (np.minimum(picked[j - 1], picked[j]),
                                        np.maximum(picked[j - 1], picked[j]))
    chunk = np.empty((steps, rows, b), dtype=np.intp)
    # The network left no pick a view of pos but a single sample, which is pos itself.
    np.copyto(chunk, np.stack(picked, out=pos).transpose(2, 1, 0))
    return chunk


def _takes_pass(problem: FiniteSumProblem, rows: int, b: int, T: int) -> bool:
    """Whether a block of ``rows`` seeds draws its indices in one Philox pass."""
    uniform_single = b == 1 and problem.n > 1 and problem.uniform_weights
    return uniform_single and rows >= _PASS_ROWS and T <= _PASS_DRAWS


def _block_rows(problem: FiniteSumProblem, b: int, T: int) -> int:
    """Seeds per block, so that one block's intermediates fit _BLOCK_ENTRIES.

    A row holds the gathered components of a step and the indices of its
    b components for one draw chunk, counted in 2-byte units of its
    positions.  A step gathers b components, or one subset's quadratic
    where the problem has ``subset_quadratics`` at b: asking builds that
    table, so a pool forked after the blocks are sized inherits it.  A
    row's final gap is evaluated apart, a few rows at a time
    (``montecarlo._gaps``).  A block that takes the Philox pass also holds
    the pass's uint64 temporaries; if they would leave it fewer than
    _PASS_ROWS rows, it stays just below _PASS_ROWS and keeps the
    generators instead.  The index term also bounds a chunk's positions
    and their resolution, whose narrow-integer arrays hold rows * steps
    entries each: their bytes times b / 2 are at most _BLOCK_ENTRIES in a
    block of more than one row, and in a lone row while b <= 512 (n above
    3 * 10**7 at the one-pass gate).
    ``_small_subsets`` holds at most 3b of them, so at most 3 MB.
    ``_subsets`` holds 2b of them, fewer bytes than its chunk, beside pools
    of at most _BLOCK_ENTRIES entries (one pool of n where n is larger).
    """
    units = max(1, np.min_scalar_type(problem.n).itemsize // 2)  # 2 at n >= 2**16
    gathered = 1 if problem.subset_quadratics(b) is not None else b
    per_row = gathered * problem.component_entries() + b * min(T, _DRAW_STEPS) * units
    rows = min(_BLOCK_ROWS, _BLOCK_ENTRIES // per_row)
    if _takes_pass(problem, rows, b, T):
        with_pass = min(rows, _BLOCK_ENTRIES // (per_row + _PASS_ENTRIES * 8 * -(-T // 8)))
        rows = with_pass if with_pass >= _PASS_ROWS else _PASS_ROWS - 1
    return max(1, rows)


class _Member:
    """One run of a draw group: its step's gradient, block of iterates and lowest diverging seed's error so far.

    A member whose problem has ``subset_quadratics`` at the run's batch
    size is tabled: its gradient ``grad(ranks, X)`` reads each row's subset
    by its rank.  Any other's is ``batch_grad(subsets, X)``.  A plain class:
    a dataclass would build its methods at every import, about 0.3 ms.
    """

    __slots__ = ("tabled", "grad", "gamma", "X", "observe", "diverged")

    def __init__(self, problem: FiniteSumProblem, b: int, gamma: float, X: np.ndarray, observe):
        table = problem.subset_quadratics(b)
        self.tabled = table is not None
        self.grad = problem.batch_grad if table is None else functools.partial(_table_grad, *table)
        self.gamma, self.X, self.observe = gamma, X, observe
        self.diverged = None


def _table_grad(H, c, ranks, X):
    """H_S x - c_S for each row x of X and its subset's rank: one gather and one gemv per row, as at b = 1."""
    return np.matmul(H.take(ranks, axis=0), X[:, :, None])[:, :, 0] - c.take(ranks, axis=0)


def _run_group(members, seeds) -> list:
    """Step each (problem, config, observe) member through one index draw; per member (gamma, X) or its error.

    The members' runs draw the same indices: they share ``_draw_key``.
    Each _DRAW_STEPS chunk is drawn and resolved once, for the most rows a
    member still holds (None for a full batch, which draws nothing), and
    ranked once if any member is tabled (see ``_Member``).  Then each
    member advances its own block over the chunk, or over its ranks, with
    its own step size, as ``run`` describes; a row's indices do not depend
    on the rows drawn beside it, so every member's result is bit for bit
    its ``run``.  A member whose block diverges gets the DivergenceError
    ``run`` raises, and one with no row left takes no further step, while
    the others go on.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run needs a nonempty seed block, got no seeds")
    group = []
    for problem, config, observe in members:
        L_b = problem.batch_smoothness(config.batch_size)  # raises for an undefined sampling mode
        x0 = problem.check_point(config.x0)
        gamma = resolve_schedule(config.schedule, L_b, config.T)
        group.append(_Member(problem, config.batch_size, gamma, np.tile(x0, (len(seeds), 1)), observe))
        if observe is not None:
            observe(0, group[-1].X)
    problem, config, _ = members[0]
    T = config.T
    draw = _sampler(problem, config.batch_size, seeds, T)
    tabled = any(member.tabled for member in group)
    live, ranks = group, None
    t = 0
    while t < T and live:
        steps = min(_DRAW_STEPS, T - t)
        chunk = draw(max(len(member.X) for member in live), steps)
        if tabled:
            ranks = _subset_ranks(chunk, problem.n)
        for member in live:
            _advance(member, ranks if member.tabled else chunk, t, steps, seeds)
        live = [member for member in live if len(member.X)]
        t += steps
    return [(member.gamma, member.X) if member.diverged is None else member.diverged
            for member in group]


def _advance(member: _Member, chunk, t: int, steps: int, seeds):
    """Advance a member's block over ``steps`` steps from t, by ``chunk``'s indices (None: every component).

    A tabled member's chunk holds each step's subset ranks (steps, rows),
    any other's the subsets themselves (steps, rows, b).
    """
    grad, gamma, X, observe = member.grad, member.gamma, member.X, member.observe
    for u in range(steps):
        idx = None if chunk is None else chunk[u, : len(X)]
        X = X - gamma * grad(idx, X)
        t += 1
        # NaN fails the comparisons too, so these also catch non-finite rows.
        if not np.vdot(X, X) <= _CLEAR_SQUARES and not np.abs(X).max() <= _DIVERGENCE_LIMIT:
            # Keep only the rows below the first bad one: a lower seed
            # that goes bad later is the one seed-by-seed runs report.
            first = int(np.argmin(np.abs(X).max(axis=1) <= _DIVERGENCE_LIMIT))
            member.diverged = DivergenceError(t, seeds[first])
            X = X[:first]
            if first == 0:
                break
        if observe is not None:
            observe(t, X)
    member.X = X


def run(problem: FiniteSumProblem, config: RunConfig, seeds, observe=None):
    """Run one trajectory per seed in lockstep; returns (gamma, final iterates (S, d)).

    Row s is the final iterate of seed ``seeds[s]``, bit for bit the same
    in any block, so ``run(problem, config, (seed,))`` is a single run.
    ``config.seed`` is ignored in favour of ``seeds``, which must not be
    empty.  ``observe(t, X)``, if given, sees the iterates at t = 0 and
    after every step t = 1 .. T; a gap curve is an observer that records
    ``problem.value(X) - cert.inf_f``.  After a row diverges, X keeps only
    the rows before it.  A row diverges at the first step that leaves one of
    its entries non-finite or above _DIVERGENCE_LIMIT in magnitude.  Each
    step first clears the whole block with one dot product (its sum of
    squares at most _CLEAR_SQUARES), and the exact per-entry test decides
    whenever that fails.  A block that diverges raises DivergenceError for
    its lowest diverging seed at that seed's first bad step, as seed-by-seed
    runs would.  This is the one-member case of ``_run_group``.
    """
    (result,) = _run_group([(problem, config, observe)], seeds)
    if isinstance(result, DivergenceError):
        raise result
    return result


# Not part of the API: the benchmark's probes (perfbench/child.py) call these two names.
def sgd_run(problem, cert, config):
    return run(problem, config, (config.seed,))


minibatch_run = sgd_run
