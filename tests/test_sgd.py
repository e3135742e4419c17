"""SGD engine: exactness oracles, sampling laws, determinism, failure modes."""

import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import lastiter as li
from lastiter import sgd


def single_quadratic():
    """f(x) = x^2 / 2 with one component: SGD is exact gradient descent."""
    problem = li.LeastSquaresProblem(np.ones((1, 1, 1)), np.zeros((1, 1)))
    return problem, li.certify_solution(problem)


def coordinate_problem(n):
    """n components, f_i = x_i^2 / 2: each update touches one coordinate."""
    design = np.zeros((n, 1, n))
    for i in range(n):
        design[i, 0, i] = 1.0
    problem = li.LeastSquaresProblem(design, np.zeros((n, 1)))
    return problem, li.certify_solution(problem)


def final_iterate(problem, config, seed):
    """The final iterate of one seed's run."""
    return li.run(problem, config, (seed,))[1][0]


def gap_curve(problem, cert, config, seeds):
    """(final iterates, gaps f(x_t) - inf f of each row at t = 0 .. T), the gaps by an observer."""
    gaps = []
    _, X = li.run(problem, config, seeds, lambda t, X: gaps.append(problem.value(X) - cert.inf_f))
    return X, np.array(gaps)


def test_gradient_descent_exact_oracle():
    problem, cert = single_quadratic()
    config = li.RunConfig(T=2, seed=1, schedule=li.ConstantStep(0.5), x0=np.array([1.0]))
    gamma, X = li.run(problem, config, (1,))
    assert X[0, 0] == 0.25
    assert problem.value(X[0]) - cert.inf_f == 0.03125
    assert gamma == 0.5


def test_run_observes_every_step():
    problem, _ = li.make_least_squares(n=5, d=2, spread=1.0, seed=5)
    config = li.RunConfig(T=30, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(2))
    seen = []
    _, X = li.run(problem, config, (3, 4), lambda t, X: seen.append((t, X.copy())))
    assert [t for t, _ in seen] == list(range(config.T + 1))
    assert np.array_equal(seen[0][1], np.ones((2, 2)))
    assert np.array_equal(seen[-1][1], X)


@pytest.mark.parametrize("seeds", [[], range(40, 40)], ids=["list", "range"])
def test_run_refuses_an_empty_seed_block(seeds):
    problem, _ = li.make_least_squares(n=5, d=2, spread=1.0, seed=5)
    config = li.RunConfig(T=30, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(2))
    seen = []
    with pytest.raises(ValueError, match="^run needs a nonempty seed block, got no seeds$"):
        li.run(problem, config, seeds, lambda t, X: seen.append(t))
    assert seen == []  # refused before any work


def test_run_purity():
    problem, cert = li.make_least_squares(n=5, d=2, spread=1.0, seed=5)
    x0 = np.array([1.0, -1.0])
    keep = x0.copy()
    config = li.RunConfig(T=50, seed=3, schedule=li.PolynomialStep(2.0, 0.5), x0=x0)
    first, first_gaps = gap_curve(problem, cert, config, (3,))
    assert np.array_equal(x0, keep)
    second, second_gaps = gap_curve(problem, cert, config, (3,))
    assert np.array_equal(first, second)
    assert first_gaps.shape == (config.T + 1, 1)
    assert np.array_equal(first_gaps, second_gaps)


def test_seed_changes_trajectory():
    problem, _ = li.make_least_squares(n=6, d=2, spread=1.0, seed=6)
    config = li.RunConfig(T=30, seed=0, schedule=li.ConstantStep(0.05), x0=np.zeros(2))
    a = final_iterate(problem, config, 10)
    b = final_iterate(problem, config, 11)
    assert not np.array_equal(a, b)


def test_minibatch_b1_equals_single_sample():
    """The engine at b = 1 is the single-sample loop written out here."""
    problem, cert = li.make_least_squares(n=7, d=3, spread=1.0, seed=7)
    gamma = 0.02
    for seed in (0, 5, 99):
        cfg1 = li.RunConfig(T=64, seed=seed, schedule=li.ConstantStep(gamma),
                            x0=np.zeros(3), batch_size=1)
        x = final_iterate(problem, cfg1, seed)
        single = np.zeros(3)
        for i in li.stream(seed, li.RUN_STREAM).integers(0, problem.n, size=cfg1.T):
            single = single - gamma * problem.component_grads_at(np.array([i]), single)[0]
        assert np.array_equal(x, single)
        assert problem.value(x) - cert.inf_f == problem.value(single) - cert.inf_f


def test_minibatch_full_batch_is_gradient_descent():
    problem, _ = li.make_least_squares(n=6, d=2, spread=1.0, seed=8)
    gamma = 0.1 / problem.L
    cfg = li.RunConfig(T=25, seed=4, schedule=li.ConstantStep(gamma),
                       x0=np.ones(2), batch_size=problem.n)
    final = final_iterate(problem, cfg, 4)
    x = np.ones(2)
    for _ in range(25):
        x = x - gamma * problem.grad(x)
    assert np.array_equal(final, x)
    # no randomness consumed: every seed gives the identical iterate
    assert np.array_equal(final_iterate(problem, cfg, 991), final)


def test_single_sample_frequencies_uniform():
    n, T = 4, 8000
    problem, _ = coordinate_problem(n)
    gamma = 0.125
    cfg = li.RunConfig(T=T, seed=123, schedule=li.ConstantStep(gamma), x0=np.ones(n))
    # coordinate i shrinks by (1 - gamma) once per visit
    counts = np.log(final_iterate(problem, cfg, 123)) / math.log1p(-gamma)
    assert abs(counts.sum() - T) < 1e-6
    expected = T / n
    sd = math.sqrt(T * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - expected) < 6 * sd)


def test_single_sample_frequencies_weighted():
    n, T = 4, 8000
    design = np.zeros((n, 1, n))
    for i in range(n):
        design[i, 0, i] = 1.0
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    problem = li.LeastSquaresProblem(design, np.zeros((n, 1)), weights=weights)
    gamma = 0.125
    cfg = li.RunConfig(T=T, seed=321, schedule=li.ConstantStep(gamma), x0=np.ones(n))
    counts = np.log(final_iterate(problem, cfg, 321)) / math.log1p(-gamma)
    assert abs(counts.sum() - T) < 1e-6
    for i, w in enumerate(weights):
        sd = math.sqrt(T * w * (1 - w))
        assert abs(counts[i] - T * w) < 6 * sd


def test_minibatch_subsets_uniform_without_replacement():
    n, b, T = 6, 3, 4000
    problem, _ = coordinate_problem(n)
    gamma = 0.3
    cfg = li.RunConfig(T=T, seed=777, schedule=li.ConstantStep(gamma),
                       x0=np.ones(n), batch_size=b)
    # a visited coordinate shrinks by (1 - gamma/b); counts must total b T
    counts = np.log(final_iterate(problem, cfg, 777)) / math.log1p(-gamma / b)
    assert abs(counts.sum() - b * T) < 1e-5
    p = b / n
    sd = math.sqrt(T * p * (1 - p))
    assert np.all(np.abs(counts - T * p) < 6 * sd)


def test_minibatch_rejects_nonuniform_weights():
    design = np.zeros((3, 1, 3))
    for i in range(3):
        design[i, 0, i] = 1.0
    problem = li.LeastSquaresProblem(design, np.zeros((3, 1)),
                                     weights=np.array([0.5, 0.3, 0.2]))
    cfg = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.1),
                       x0=np.zeros(3), batch_size=2)
    with pytest.raises(li.UnsupportedSamplingError):
        li.run(problem, cfg, (1,))


def test_batch_size_larger_than_family_rejected():
    problem, _ = single_quadratic()
    cfg = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.1),
                       x0=np.zeros(1), batch_size=2)
    with pytest.raises(ValueError):
        li.run(problem, cfg, (1,))


class UnderstatedQuadratic(li.FiniteSumProblem):
    """f(x) = 5 x^2 claiming smoothness 0.1: lets a divergent step through."""

    def __init__(self):
        super().__init__(np.ones(1), np.array([0.1]), 0.1, 1)

    def component_values_at(self, idx, x):
        return 5.0 * x[..., :1] ** 2

    def component_grads_at(self, idx, x):
        return 10.0 * x[..., None, :]


def test_divergence_reports_step_and_seed():
    problem = UnderstatedQuadratic()
    cfg = li.RunConfig(T=10000, seed=42, schedule=li.ConstantStep(5.0), x0=np.array([1.0]))
    with pytest.raises(li.DivergenceError) as info:
        li.run(problem, cfg, (42,))
    assert info.value.seed == 42
    assert info.value.step >= 1
    assert "42" in str(info.value)
    # pool workers hand errors back pickled
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is li.DivergenceError
    assert (back.step, back.seed, str(back)) == (info.value.step, 42, str(info.value))


def test_schedule_validation():
    with pytest.raises(li.ScheduleError):
        li.ConstantStep(0.0)
    with pytest.raises(li.ScheduleError):
        li.ConstantStep(-1.0)
    with pytest.raises(li.ScheduleError):
        li.PolynomialStep(1.5, 0.5)
    with pytest.raises(li.ScheduleError):
        li.PolynomialStep(2.0, 0.0)
    with pytest.raises(li.ScheduleError):
        li.PolynomialStep(2.0, 1.0)


def test_resolve_schedule_values_and_window():
    assert li.resolve_schedule(li.ConstantStep(0.125), L=2.0, T=10) == 0.125
    gamma = li.resolve_schedule(li.PolynomialStep(2.0, 0.5), L=4.0, T=100)
    assert abs(gamma - 1.0 / (2.0 * 4.0 * 10.0)) < 1e-16
    gamma = li.resolve_schedule(li.PolynomialStep(3.0, 0.25), L=0.5, T=16)
    assert abs(gamma - 1.0 / (3.0 * 0.5 * 2.0)) < 1e-15
    with pytest.raises(li.ScheduleError) as info:
        li.resolve_schedule(li.ConstantStep(0.5), L=2.0, T=10)
    assert "(0, 1)" in str(info.value)
    with pytest.raises(li.ScheduleError):
        li.resolve_schedule(li.ConstantStep(0.1), L=-1.0, T=10)
    for schedule in (li.ConstantStep(0.1), li.PolynomialStep(2.0, 0.5)):
        with pytest.raises(li.ScheduleError, match="horizon must fit the float range"):
            li.resolve_schedule(schedule, L=1.0, T=10**400)
        with pytest.raises(li.ScheduleError, match=r"^horizon must be >= 1, got 0$"):
            li.resolve_schedule(schedule, L=1.0, T=0)
        with pytest.raises(li.ScheduleError, match=r"^horizon must be an integer, got 2.5$"):
            li.resolve_schedule(schedule, L=1.0, T=2.5)
        assert li.resolve_schedule(schedule, L=1.0, T=100.0) == li.resolve_schedule(schedule, L=1.0, T=100)
    with pytest.raises(li.ScheduleError, match=r"^unknown schedule '0.1'$"):
        li.resolve_schedule("0.1", L=1.0, T=10)


def test_schedule_doc_round_trip():
    for schedule in (li.ConstantStep(0.03), li.PolynomialStep(3.0, 0.25)):
        back = li.schedule_from_doc(li.schedule_to_doc(schedule))
        assert back == schedule
    with pytest.raises(li.ScheduleError):
        li.schedule_from_doc({"variant": "mystery"})
    with pytest.raises(li.ScheduleError, match=r"^unknown schedule 0.1$"):
        li.schedule_to_doc(0.1)


def test_run_config_validation():
    schedule = li.ConstantStep(0.1)
    with pytest.raises(ValueError):
        li.RunConfig(T=0, seed=1, schedule=schedule, x0=np.zeros(1))
    with pytest.raises(ValueError):
        li.RunConfig(T=5, seed=-1, schedule=schedule, x0=np.zeros(1))
    with pytest.raises(ValueError):
        li.RunConfig(T=5, seed=1, schedule=schedule, x0=np.array([np.inf]))
    with pytest.raises(ValueError):
        li.RunConfig(T=5, seed=1, schedule=schedule, x0=np.zeros(1), batch_size=0)
    with pytest.raises(ValueError):
        li.RunConfig(T=5, seed=1, schedule=schedule, x0=np.zeros(1), record_stride=-1)
    with pytest.raises(ValueError):
        li.RunConfig(T=5, seed=1, schedule="0.1", x0=np.zeros(1))
    for field in ("T", "batch_size", "record_stride"):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 2.5$"):
            li.RunConfig(**{"T": 5, "seed": 1, "schedule": schedule, "x0": np.zeros(1), field: 2.5})
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 2.5$"):
        li.RunConfig(T=5, seed=2.5, schedule=schedule, x0=np.zeros(1))
    for field in ("T", "batch_size", "record_stride", "seed"):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got True$"):
            li.RunConfig(**{"T": 5, "seed": 1, "schedule": schedule, "x0": np.zeros(1), field: True})
    problem, _ = li.make_least_squares(n=4, d=1, spread=1.0, seed=12)
    config = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.01 / problem.L), x0=np.zeros(1))
    with pytest.raises(ValueError, match=r"^seed must be an integer, got np.True_$"):
        li.run(problem, config, [np.True_])
    config = li.RunConfig(T=1000.0, seed=1.0, schedule=schedule, x0=np.zeros(1), batch_size=2.0)
    assert (config.T, config.batch_size) == (1000, 2) and type(config.T) is int


@pytest.mark.parametrize("path", ["pass", "generators", "full"])
def test_run_checks_every_seed_of_a_block(path):
    """A bad seed anywhere in a block raises check_seed's error, whichever way the block samples."""
    problem, _ = li.make_least_squares(n=4, d=1, spread=1.0, seed=12)
    rows = {"pass": sgd._PASS_ROWS + 8, "generators": sgd._PASS_ROWS - 11, "full": sgd._PASS_ROWS + 8}[path]
    config = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.01 / problem.L), x0=np.zeros(1),
                          batch_size=problem.n if path == "full" else 1)
    assert sgd._takes_pass(problem, rows, config.batch_size, config.T) == (path == "pass")
    for bad, message in [(2.5, "seed must be an integer, got 2.5"),
                         (True, "seed must be an integer, got True"),
                         (np.True_, "seed must be an integer, got np.True_"),
                         (-1, "seed must be an integer in [0, 2**64), got -1"),
                         (2**64, "seed must be an integer in [0, 2**64), got 18446744073709551616")]:
        seeds = list(range(rows))  # the bad seed in the middle of the block
        seeds[rows // 2] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            li.run(problem, config, seeds)
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
        li.run(problem, config, [-1, 2**70, True])
    seeds = [100, 2**64 - 1, *range(rows - 2)]
    as_given = [100.0, np.uint64(2**64 - 1), *seeds[2:]]  # integral floats and numpy ints pass
    assert np.array_equal(li.run(problem, config, as_given)[1], single_runs(problem, config, seeds))


def test_polynomial_schedule_resolved_against_problem_smoothness():
    problem, _ = li.make_least_squares(n=4, d=2, spread=0.5, seed=12)
    T = 49
    cfg = li.RunConfig(T=T, seed=2, schedule=li.PolynomialStep(2.0, 0.5), x0=np.zeros(2))
    gamma, _ = li.run(problem, cfg, (2,))
    assert abs(gamma - 1.0 / (2.0 * problem.L * 7.0)) < 1e-15


def weighted_least_squares():
    base, _ = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    weights = np.arange(1.0, 7.0) / 21.0
    problem = li.LeastSquaresProblem(base.design, base.offsets, weights=weights)
    return problem, li.certify_solution(problem)


def single_runs(problem, config, seeds):
    """Final iterates of seed-by-seed runs; single runs keep the per-seed generator."""
    assert not sgd._takes_pass(problem, 1, config.batch_size, config.T)
    return np.stack([final_iterate(problem, config, seed) for seed in seeds])


@pytest.mark.parametrize("family", ["least_squares", "logistic", "weighted_least_squares"])
def test_seed_blocks_reproduce_single_seed_runs_bitwise(family):
    if family == "least_squares":
        problem, _ = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    elif family == "logistic":
        problem, _ = li.make_logistic(n=6, d=3, seed=15)
    else:
        problem, _ = weighted_least_squares()
    S = sgd._PASS_ROWS + 16
    for b in (1, 3, problem.n) if problem.uniform_weights else (1,):
        config = li.RunConfig(T=40, seed=0, schedule=li.PolynomialStep(2.0, 0.5),
                              x0=np.ones(3), batch_size=b)
        # for uniform b = 1 the whole block takes the Philox pass, blocks of seven the generators
        assert sgd._takes_pass(problem, S, b, config.T) == (b == 1 and problem.uniform_weights)
        assert not sgd._takes_pass(problem, 7, b, config.T)
        singles = single_runs(problem, config, range(100, 100 + S))
        _, whole = li.run(problem, config, range(100, 100 + S))
        sevens = np.concatenate([li.run(problem, config, range(lo, min(lo + 7, 100 + S)))[1]
                                 for lo in range(100, 100 + S, 7)])
        assert np.array_equal(whole, singles), b
        assert np.array_equal(sevens, singles), b
        assert np.array_equal(problem.value(whole), [problem.value(x) for x in singles])


def test_pass_rows_flagged_for_redraw_come_from_their_generators(monkeypatch):
    problem, cert = li.make_least_squares(n=5, d=2, spread=1.0, seed=18)
    config = li.RunConfig(T=30, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(2))
    seeds = range(200, 200 + sgd._PASS_ROWS + 8)
    flagged = [0, 5, len(seeds) - 1]
    block_integers = sgd._block_integers

    def forced(seeds, purpose, bounds):
        draws, redraw = block_integers(seeds, purpose, bounds)
        draws[flagged] = 0  # wrong draws that the fallback must replace
        redraw[flagged] = True
        return draws, redraw

    monkeypatch.setattr(sgd, "_block_integers", forced)
    streams = []
    monkeypatch.setattr(sgd, "stream", lambda seed, purpose: streams.append(seed) or li.stream(seed, purpose))
    _, block = li.run(problem, config, seeds)
    assert streams == [seeds[row] for row in flagged]
    assert np.array_equal(block, single_runs(problem, config, seeds))


class UnderstatedPair(li.FiniteSumProblem):
    """f_0 = 5 x^2 and f_1 .. f_{n-1} = 0 claiming smoothness 0.1: a step of 5 on a batch of b
    holding f_0 multiplies x by 1 - 50 / b, so -49 at b = 1."""

    def __init__(self, n=2):
        super().__init__(np.full(n, 1 / n), np.full(n, 0.1), 0.1, 1)

    def component_values_at(self, idx, x):
        idx = np.arange(self.n) if idx is None else idx
        return 5.0 * x[..., :1] ** 2 * (idx == 0)

    def component_grads_at(self, idx, x):
        idx = np.arange(self.n) if idx is None else idx
        return 10.0 * x[..., None, :] * (idx == 0)[..., None]


def test_diverging_pass_block_reports_its_lowest_seed_at_its_first_bad_step():
    problem = UnderstatedPair()
    config = li.RunConfig(T=110, seed=0, schedule=li.ConstantStep(5.0), x0=np.array([1.0]))
    seeds = range(300, 300 + sgd._PASS_ROWS + 32)
    assert sgd._takes_pass(problem, len(seeds), 1, config.T)
    first_bad = {}
    for seed in seeds:
        try:
            li.run(problem, config, (seed,))
        except li.DivergenceError as exc:
            first_bad[seed] = exc.step
    lowest = min(first_bad)
    # a higher seed goes bad first, so the block must keep running past it
    assert min(first_bad.values()) < first_bad[lowest] and lowest != seeds[0]
    with pytest.raises(li.DivergenceError) as info:
        li.run(problem, config, seeds)
    assert (info.value.seed, info.value.step) == (lowest, first_bad[lowest])


def test_diverging_minibatch_block_matches_single_runs_on_fewer_rows(monkeypatch):
    """Rows that go bad leave the block, and later chunks are resolved for the rows left."""
    monkeypatch.setattr(sgd, "_DRAW_STEPS", 32)  # many chunks before the first row goes bad
    problem = UnderstatedPair(8)
    config = li.RunConfig(T=5000, seed=0, schedule=li.ConstantStep(5.0), x0=np.array([1.0]),
                          batch_size=2)
    seeds = range(400, 416)
    paths, first_bad = {}, {}
    for seed in seeds:
        paths[seed] = []
        with pytest.raises(li.DivergenceError) as info:
            li.run(problem, config, (seed,), lambda t, X: paths[seed].append(X[0].copy()))
        first_bad[seed] = info.value.step
    # higher seeds go bad first, so the block runs on with fewer rows
    assert min(first_bad.values()) < first_bad[seeds[0]]
    rows, seen = [], []
    small_subsets = sgd._small_subsets
    monkeypatch.setattr(sgd, "_small_subsets", lambda n, pos:
                        rows.append(pos.shape[1]) or small_subsets(n, pos))
    with pytest.raises(li.DivergenceError) as info:
        li.run(problem, config, seeds, lambda t, X: seen.append(X.copy()))
    assert (info.value.seed, info.value.step) == (seeds[0], first_bad[seeds[0]])
    assert len(seen) == first_bad[seeds[0]]
    for t, X in enumerate(seen):
        assert np.array_equal(X[:, 0], [paths[seed][t][0] for seed in seeds[: len(X)]]), t
    assert rows[0] == len(seeds) and rows[-1] < len(seeds) and rows == sorted(rows, reverse=True)


class SetPoints(li.FiniteSumProblem):
    """f_i(x) = ||x - p_i||^2 / 2 claiming smoothness 0.5: a step of 1 on f_i moves x to p_i,
    exactly where every point holds 0, +/-v or one bad value in each coordinate."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        n, d = self.points.shape
        super().__init__(np.full(n, 1 / n), np.full(n, 0.5), 0.5, d)

    def component_grads_at(self, idx, x):
        p = self.points if idx is None else self.points.take(idx, axis=0)
        return x[..., None, :] - p


def exact_rule_run(problem, config, seeds):
    """(iterates at t = 0 .. T, each bad seed's first bad step) of the block's b = 1 steps on the
    engine's own draws, judged by the per-entry rule |x| <= _DIVERGENCE_LIMIT alone."""
    seeds = list(seeds)
    chunk = sgd._sampler(problem, 1, seeds, config.T)(len(seeds), config.T)
    X = np.tile(config.x0, (len(seeds), 1))
    path, first_bad = [X], {}
    for t in range(config.T):
        with np.errstate(invalid="ignore"):  # bad rows run on here
            X = X - config.schedule.gamma * problem.batch_grad(chunk[t], X)
        for row in np.flatnonzero(~np.all(np.abs(X) <= sgd._DIVERGENCE_LIMIT, axis=1)):
            first_bad.setdefault(seeds[row], t + 1)
        path.append(X)
    return path, first_bad


def limit_config(x0):
    return li.RunConfig(T=60, seed=0, schedule=li.ConstantStep(1.0), x0=np.asarray(x0, float))


WITHIN_LIMIT = {
    "at-limit": (1e100 * np.array([[1, -1, 0, 0], [-1, 1, 1, -1], [0, 0, 0, 0], [0, 0, -1, 1]]),
                 np.zeros(4)),
    "large-sum": (0.9e100 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1], [1, 1, -1, -1]]),
                  np.full(4, 0.9e100)),
}


@pytest.mark.parametrize("case", WITHIN_LIMIT)
def test_divergence_check_lets_every_entry_within_the_limit_through(case):
    """Entries at +/-_DIVERGENCE_LIMIT, or d = 4 entries of 0.9e100: every step's sum of squares
    is above the dot-product clear, and the exact rule lets every step through."""
    points, x0 = WITHIN_LIMIT[case]
    problem, config, seeds = SetPoints(points), limit_config(x0), range(40)
    path, first_bad = exact_rule_run(problem, config, seeds)
    assert first_bad == {} and all(np.vdot(X, X) > sgd._CLEAR_SQUARES for X in path[1:])
    assert max(np.abs(X).max() for X in path) == np.abs(points).max()
    seen = []
    _, X = li.run(problem, config, seeds, lambda t, X: seen.append(X.copy()))
    assert np.array_equal(X, path[-1])
    assert all(np.array_equal(a, b) for a, b in zip(seen, path, strict=True))


@pytest.mark.parametrize("bad", [np.nextafter(1e100, np.inf), np.nan, np.inf, -np.inf])
def test_divergence_check_reports_the_lowest_bad_seed_at_its_first_bad_step(bad):
    v = sgd._DIVERGENCE_LIMIT
    points = np.zeros((64, 4))
    points[1] = [v, -v, 0, 0]
    points[2] = [0, 0, bad, 0]
    problem = SetPoints(points)
    config, seeds = limit_config(np.zeros(4)), range(600, 640)
    _, first_bad = exact_rule_run(problem, config, seeds)
    lowest = min(first_bad)
    # a higher seed goes bad first, so the block must keep running past it
    assert min(first_bad.values()) < first_bad[lowest] and lowest != seeds[0]
    with pytest.raises(li.DivergenceError) as info:
        li.run(problem, config, seeds)
    assert (info.value.seed, info.value.step) == (lowest, first_bad[lowest])


def test_pass_block_with_the_largest_seed_matches_single_runs():
    problem, cert = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    config = li.RunConfig(T=20, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(3))
    seeds = range(2**64 - sgd._PASS_ROWS - 3, 2**64)
    assert np.array_equal(li.run(problem, config, seeds)[1], single_runs(problem, config, seeds))


def test_blocks_take_the_pass_only_where_it_is_cheaper(monkeypatch):
    """The pass serves blocks of many seeds with short uniform single-sample streams."""
    problem, _ = li.make_least_squares(n=10, d=2, spread=1.0, seed=19)
    weighted, _ = weighted_least_squares()
    streams = []
    monkeypatch.setattr(sgd, "stream", lambda seed, purpose: streams.append(seed) or li.stream(seed, purpose))

    def stream_calls(S, T, b=1, family=problem):
        streams.clear()
        config = li.RunConfig(T=T, seed=0, schedule=li.PolynomialStep(2.0, 0.5),
                              x0=np.zeros(family.dimension), batch_size=b)
        li.run(family, config, range(S))
        return len(streams)

    assert stream_calls(1000, 5) == 0
    assert stream_calls(sgd._PASS_ROWS, sgd._PASS_DRAWS) == 0
    assert stream_calls(1, 5) == 1
    assert stream_calls(sgd._PASS_ROWS - 1, 5) == sgd._PASS_ROWS - 1
    assert stream_calls(64, sgd._PASS_DRAWS + 1) == 64
    assert stream_calls(64, 5, b=2) == 64
    assert stream_calls(64, 5, family=weighted) == 64
    assert stream_calls(64, 5, b=problem.n) == 0  # full batches draw nothing


def parent_block_rows(problem, b, T):
    """Seeds per block without the pass: the gathered components, a chunk of indices, the final gap."""
    per_row = (b + problem.n) * problem.component_entries() + b * min(T, sgd._DRAW_STEPS)
    return max(1, min(sgd._BLOCK_ROWS, sgd._BLOCK_ENTRIES // per_row))


@pytest.mark.parametrize("n, b, T", [(1000, 2, 256), (100, 2, 200), (1000, 1, sgd._PASS_DRAWS + 1),
                                     (6, 3, 40), (6, 6, 40)])
def test_block_rows_without_the_pass_are_unchanged(n, b, T):
    problem, _ = li.make_logistic(n=n, d=4, seed=20)
    assert not sgd._takes_pass(problem, sgd._BLOCK_ROWS, b, T)
    assert sgd._block_rows(problem, b, T) == parent_block_rows(problem, b, T)
    weighted, _ = weighted_least_squares()
    assert sgd._block_rows(weighted, 1, 5) == parent_block_rows(weighted, 1, 5)


@pytest.mark.parametrize("n", [6, 1000])
def test_block_rows_bound_the_memory_of_a_pass(n):
    problem, _ = li.make_least_squares(n=n, d=3, spread=1.0, seed=14)
    for T in (1, 5, 8, 9, 40, sgd._PASS_DRAWS):
        rows = sgd._block_rows(problem, 1, T)
        assert sgd._takes_pass(problem, rows, 1, T) and rows <= parent_block_rows(problem, 1, T)
        tracemalloc.start()
        try:
            sgd._block_integers(list(range(rows)), li.RUN_STREAM, np.full(T, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sgd._PASS_ENTRIES * 8 * -(-T // 8) * rows, (T, rows, peak)
        # the pass's temporaries fit beside the rest of the block's intermediates
        per_row = (1 + n) * problem.component_entries() + T
        assert peak + 8 * per_row * rows <= 8 * sgd._BLOCK_ENTRIES, (T, rows, peak)


@pytest.mark.parametrize("n, b, T", [(16, 1, 1600), (300, 1, 1024), (16, 2, 1600), (16, 4, 1600),
                                     (16, 13, 2000), (64, 7, 500), (64, 19, 1024), (300, 5, 1024),
                                     (70000, 3, 1024), (70000, 100, 1024), (16, 14, 1600),
                                     (64, 20, 1024), (70000, 300, 1024)])
def test_block_rows_bound_the_memory_of_small_subsets(n, b, T):
    """A chunk's draw holds at most 3b narrow arrays, 3 MB, beside its chunk in one pass, or
    its positions twice and _BLOCK_ENTRIES pool entries above the one-pass gate."""
    problem = li.LeastSquaresProblem(np.ones((n, 2, 2)), np.zeros((n, 2)))
    rows, steps = sgd._block_rows(problem, b, T), min(T, sgd._DRAW_STEPS)
    narrow = rows * steps * np.min_scalar_type(n).itemsize  # bytes of one narrow array
    one_pass = b**4 <= sgd._ONE_PASS_SCALE * n
    assert 3 * b * narrow <= 6 * sgd._BLOCK_ENTRIES or not one_pass, rows
    draw = sgd._sampler(problem, b, range(rows), T)
    tracemalloc.start()
    try:
        chunk = draw(rows, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk.shape == (steps, rows, b)
    if not one_pass:
        # the positions and their (step, seed) copy, a span of pools and a few span-long indices
        span = max(1, min(rows * steps, sgd._BLOCK_ENTRIES // n))
        assert 2 * b * narrow <= chunk.nbytes
        assert peak <= chunk.nbytes + 2 * b * narrow + 8 * span * (n + 8), (rows, peak)
    elif narrow >= 2**16:  # large enough that numpy's small per-call allocations do not count
        assert peak <= chunk.nbytes + (3 * b + 1) * narrow, (rows, peak)  # one more for a mask


def test_block_too_small_for_the_pass_temporaries_keeps_the_generators(monkeypatch):
    problem, _ = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    T = sgd._PASS_DRAWS
    per_row = (1 + problem.n) * problem.component_entries() + T
    monkeypatch.setattr(sgd, "_BLOCK_ENTRIES", sgd._PASS_ROWS * per_row)
    # the block without the temporaries would take the pass, with them it could not
    assert parent_block_rows(problem, 1, T) == sgd._PASS_ROWS
    assert sgd._block_rows(problem, 1, T) == sgd._PASS_ROWS - 1


def single_sample_indices(problem, seed, T):
    """A seed's T single-sample indices, written out: integers(0, n), or random() bucketed by the weights."""
    rng = li.stream(seed, li.RUN_STREAM)
    if problem.uniform_weights:
        return rng.integers(0, problem.n, size=T)
    picks = np.searchsorted(problem.cum_weights, rng.random(size=T), side="right")
    return np.minimum(picks, problem.n - 1)


def test_single_sample_seed_mapping_past_many_draw_chunks():
    """b = 1 draws all T indices from the seed's run stream in order, uniform or weighted."""
    uniform, _ = li.make_least_squares(n=5, d=2, spread=1.0, seed=16)
    for problem in (uniform, weighted_least_squares()[0]):
        T, gamma, d = 9000, 0.01 / problem.L, problem.dimension
        config = li.RunConfig(T=T, seed=0, schedule=li.ConstantStep(gamma), x0=np.zeros(d))
        _, block = li.run(problem, config, (21, 22))
        for row, seed in zip(block, (21, 22)):
            x = np.zeros(d)
            for i in single_sample_indices(problem, seed, T):
                x = x - gamma * problem.component_grads_at(np.array([i]), x)[0]
            assert np.array_equal(row, x)


def partial_fisher_yates(n, draws):
    """Each step's sorted b-subset of range(n), by list swaps: column k swaps k with k + draw."""
    subsets = []
    for step_draws in draws:
        pool = list(range(n))
        for k, draw in enumerate(step_draws):
            j = k + int(draw)
            pool[k], pool[j] = pool[j], pool[k]
        subsets.append(sorted(pool[:len(step_draws)]))
    return subsets


def seed_draws(seed, n, b, steps):
    """One seed's draws for a chunk: column k is integers(0, n - k) over the steps, column after column."""
    rng = li.stream(seed, li.RUN_STREAM)
    return np.stack([rng.integers(0, n - k, size=steps) for k in range(b)], axis=1)


def positions(n, seeds_draws):
    """The (b, rows, steps) swap positions k + draw of each seed's (steps, b) draws, in the narrowest type for n."""
    b = seeds_draws[0].shape[1]
    pos = np.stack([draws.T + np.arange(b)[:, None] for draws in seeds_draws], axis=1)
    return pos.astype(np.min_scalar_type(n))


@pytest.mark.parametrize("block_entries", [sgd._BLOCK_ENTRIES, 40])
@pytest.mark.parametrize("n, b", [(3, 2), (7, 3), (16, 4), (16, 15), (64, 8), (64, 20)])
def test_subset_draws_are_a_partial_fisher_yates(monkeypatch, n, b, block_entries):
    """A mini-batch draw is a list-based partial Fisher-Yates per step, in any span split."""
    monkeypatch.setattr(sgd, "_BLOCK_ENTRIES", block_entries)
    problem, _ = li.make_least_squares(n=n, d=1, spread=1.0, seed=n)
    drawn = sgd._sampler(problem, b, [3], 50)(1, 50)
    draws = seed_draws(3, n, b, 50)
    assert drawn.shape == (50, 1, b) and drawn[:, 0].tolist() == partial_fisher_yates(n, draws)
    assert np.array_equal(sgd._subsets(n, positions(n, [draws])), drawn)


@pytest.mark.parametrize("steps", [1, 7, 1023, 1024])
@pytest.mark.parametrize("n, b", [(3, 2), (16, 4), (16, 8), (16, 13), (64, 7)])
def test_block_subsets_are_a_partial_fisher_yates_row_by_row(n, b, steps):
    """A small batch's chunk, resolved for the whole block at once, holds each seed's own subsets."""
    seeds = (0, 9, 2**64 - 1)
    pos = positions(n, [seed_draws(seed, n, b, steps) for seed in seeds])
    pooled = sgd._subsets(n, pos)  # first: _small_subsets overwrites pos
    chunk = sgd._small_subsets(n, pos)
    assert chunk.shape == (steps, len(seeds), b) and chunk.dtype == np.intp
    for row, seed in enumerate(seeds):
        assert chunk[:, row].tolist() == partial_fisher_yates(n, seed_draws(seed, n, b, steps)), seed
    assert np.array_equal(pooled, chunk)  # both resolvers read the same positions alike


@pytest.mark.parametrize("b, one_pass", [(2, True), (19, True), (20, False)])
def test_only_small_batches_resolve_subsets_for_the_whole_block(monkeypatch, b, one_pass):
    """At n = 64 the one-pass gate b**4 <= 2048 n admits b up to 19."""
    problem, _ = li.make_least_squares(n=64, d=2, spread=1.0, seed=21)
    calls = []
    for name in ("_small_subsets", "_subsets"):
        monkeypatch.setattr(sgd, name, lambda *args, name=name, wrapped=getattr(sgd, name):
                            calls.append(name) or wrapped(*args))
    config = li.RunConfig(T=30, seed=0, schedule=li.ConstantStep(0.01), x0=np.zeros(2), batch_size=b)
    li.run(problem, config, range(5))
    # one resolution of the block's one chunk, in one pass or through pools
    assert calls == (["_small_subsets"] if one_pass else ["_subsets"])


def check_minibatch_seed_mapping_past_a_draw_chunk(monkeypatch, n, b):
    """Seeds 5, 6 and 7 at batch size b over 2100 steps equal the list-based reference, chunk by chunk."""
    problem, cert = li.make_least_squares(n=n, d=2, spread=1.0, seed=17)
    T, gamma = 2100, 0.05 / problem.L
    config = li.RunConfig(T=T, seed=0, schedule=li.ConstantStep(gamma), x0=np.zeros(2),
                          batch_size=b)
    _, block = li.run(problem, config, (5, 6, 7))
    # a tiny budget shuffles a few steps' permutations at a time: same subsets
    monkeypatch.setattr(sgd, "_BLOCK_ENTRIES", 50)
    assert np.array_equal(li.run(problem, config, (5, 6, 7))[1], block)
    for row, seed in zip(block, (5, 6, 7)):
        rng = li.stream(seed, li.RUN_STREAM)
        x = np.zeros(2)
        for start in range(0, T, 1024):
            steps = min(1024, T - start)
            draws = np.stack([rng.integers(0, n - k, size=steps) for k in range(b)], axis=1)
            for batch in map(np.array, partial_fisher_yates(n, draws)):
                x = x - gamma * (problem.component_grads_at(batch, x).sum(axis=0) / b)
        assert np.array_equal(row, x)


def test_minibatch_seed_mapping_past_a_draw_chunk(monkeypatch):
    """b > 1 draws 1024 steps at a time, one partial Fisher-Yates column after another."""
    check_minibatch_seed_mapping_past_a_draw_chunk(monkeypatch, 7, 3)


def test_large_minibatch_seed_mapping_past_a_draw_chunk(monkeypatch):
    """Above the one-pass gate (14**4 > 2048 * 16), seed-by-seed subsets map seeds to the same runs."""
    check_minibatch_seed_mapping_past_a_draw_chunk(monkeypatch, 16, 14)
