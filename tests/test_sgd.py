"""SGD engine: exactness oracles, sampling laws, determinism, failure modes."""

import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import lastiter as li
from lastiter import sgd


def single_quadratic():
    """f(x) = x^2 / 2 with one component: SGD is exact gradient descent."""
    problem = li.LeastSquaresProblem(np.ones((1, 1, 1)), np.zeros((1, 1)))
    return problem, li.closed_form_certificate(problem)


def coordinate_problem(n):
    """n components, f_i = x_i^2 / 2: each update touches one coordinate."""
    design = np.zeros((n, 1, n))
    for i in range(n):
        design[i, 0, i] = 1.0
    problem = li.LeastSquaresProblem(design, np.zeros((n, 1)))
    return problem, li.closed_form_certificate(problem)


def test_gradient_descent_exact_oracle():
    problem, cert = single_quadratic()
    config = li.RunConfig(T=2, seed=1, schedule=li.ConstantStep(0.5), x0=np.array([1.0]))
    traj = li.sgd_run(problem, cert, config)
    assert traj.final_iterate[0] == 0.25
    assert traj.final_gap == 0.03125
    assert traj.gamma_used == 0.5


def test_trajectory_record_layout():
    problem, cert = single_quadratic()
    config = li.RunConfig(T=40, seed=2, schedule=li.ConstantStep(0.1),
                          x0=np.array([1.0]), record_stride=10)
    traj = li.sgd_run(problem, cert, config)
    assert [r.t for r in traj.records] == [0, 10, 20, 30, 40]
    assert traj.records[0].gap == 0.5
    assert traj.records[-1].gap == traj.final_gap


def test_record_stride_auto():
    problem, cert = single_quadratic()
    config = li.RunConfig(T=500, seed=2, schedule=li.ConstantStep(0.1), x0=np.array([1.0]))
    traj = li.sgd_run(problem, cert, config)
    ts = [r.t for r in traj.records]
    assert ts[0] == 0 and ts[-1] == 500
    assert ts == sorted(ts)
    assert 50 <= len(ts) <= 120


def test_engine_observes_every_step_whatever_the_record_stride():
    problem, _ = li.make_least_squares(n=5, d=2, spread=1.0, seed=5)
    config = li.RunConfig(T=30, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(2),
                          record_stride=7)
    seen = []
    _, X = sgd._run(problem, config, (3, 4), lambda t, X: seen.append((t, X.copy())))
    assert [t for t, _ in seen] == list(range(config.T + 1))
    assert np.array_equal(seen[0][1], np.ones((2, 2)))
    assert np.array_equal(seen[-1][1], X)


def test_run_purity():
    problem, cert = li.make_least_squares(n=5, d=2, spread=1.0, seed=5)
    x0 = np.array([1.0, -1.0])
    keep = x0.copy()
    config = li.RunConfig(T=50, seed=3, schedule=li.PolynomialStep(2.0, 0.5), x0=x0)
    first = li.sgd_run(problem, cert, config)
    assert np.array_equal(x0, keep)
    second = li.sgd_run(problem, cert, config)
    assert np.array_equal(first.final_iterate, second.final_iterate)
    assert [r.gap for r in first.records] == [r.gap for r in second.records]


def test_seed_changes_trajectory():
    problem, cert = li.make_least_squares(n=6, d=2, spread=1.0, seed=6)
    base = dict(T=30, schedule=li.ConstantStep(0.05), x0=np.zeros(2))
    a = li.sgd_run(problem, cert, li.RunConfig(seed=10, **base))
    b = li.sgd_run(problem, cert, li.RunConfig(seed=11, **base))
    assert not np.array_equal(a.final_iterate, b.final_iterate)


def test_minibatch_b1_equals_single_sample():
    problem, cert = li.make_least_squares(n=7, d=3, spread=1.0, seed=7)
    for seed in (0, 5, 99):
        cfg1 = li.RunConfig(T=64, seed=seed, schedule=li.ConstantStep(0.02),
                            x0=np.zeros(3), batch_size=1)
        a = li.sgd_run(problem, cert, cfg1)
        b = li.minibatch_run(problem, cert, cfg1)
        assert np.array_equal(a.final_iterate, b.final_iterate)
        assert a.final_gap == b.final_gap


def test_minibatch_full_batch_is_gradient_descent():
    problem, cert = li.make_least_squares(n=6, d=2, spread=1.0, seed=8)
    gamma = 0.1 / problem.L
    cfg = li.RunConfig(T=25, seed=4, schedule=li.ConstantStep(gamma),
                       x0=np.ones(2), batch_size=problem.n)
    traj = li.minibatch_run(problem, cert, cfg)
    x = np.ones(2)
    for _ in range(25):
        x = x - gamma * problem.grad(x)
    assert np.array_equal(traj.final_iterate, x)
    # no randomness consumed: every seed gives the identical iterate
    other = li.minibatch_run(problem, cert,
                             li.RunConfig(T=25, seed=991, schedule=li.ConstantStep(gamma),
                                          x0=np.ones(2), batch_size=problem.n))
    assert np.array_equal(other.final_iterate, traj.final_iterate)


def test_single_sample_frequencies_uniform():
    n, T = 4, 8000
    problem, cert = coordinate_problem(n)
    gamma = 0.125
    cfg = li.RunConfig(T=T, seed=123, schedule=li.ConstantStep(gamma), x0=np.ones(n))
    traj = li.sgd_run(problem, cert, cfg)
    # coordinate i shrinks by (1 - gamma) once per visit
    counts = np.log(traj.final_iterate) / math.log1p(-gamma)
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
    cert = li.closed_form_certificate(problem)
    gamma = 0.125
    cfg = li.RunConfig(T=T, seed=321, schedule=li.ConstantStep(gamma), x0=np.ones(n))
    traj = li.sgd_run(problem, cert, cfg)
    counts = np.log(traj.final_iterate) / math.log1p(-gamma)
    assert abs(counts.sum() - T) < 1e-6
    for i, w in enumerate(weights):
        sd = math.sqrt(T * w * (1 - w))
        assert abs(counts[i] - T * w) < 6 * sd


def test_minibatch_subsets_uniform_without_replacement():
    n, b, T = 6, 3, 4000
    problem, cert = coordinate_problem(n)
    gamma = 0.3
    cfg = li.RunConfig(T=T, seed=777, schedule=li.ConstantStep(gamma),
                       x0=np.ones(n), batch_size=b)
    traj = li.minibatch_run(problem, cert, cfg)
    # a visited coordinate shrinks by (1 - gamma/b); counts must total b T
    counts = np.log(traj.final_iterate) / math.log1p(-gamma / b)
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
    cert = li.closed_form_certificate(problem)
    cfg = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.1),
                       x0=np.zeros(3), batch_size=2)
    with pytest.raises(li.UnsupportedSamplingError):
        li.minibatch_run(problem, cert, cfg)


def test_batch_size_larger_than_family_rejected():
    problem, cert = single_quadratic()
    cfg = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.1),
                       x0=np.zeros(1), batch_size=2)
    with pytest.raises(ValueError):
        li.minibatch_run(problem, cert, cfg)


def test_sgd_run_requires_batch_size_one():
    problem, cert = coordinate_problem(3)
    cfg = li.RunConfig(T=5, seed=1, schedule=li.ConstantStep(0.1),
                       x0=np.zeros(3), batch_size=2)
    with pytest.raises(ValueError):
        li.sgd_run(problem, cert, cfg)


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
    cert = li.SolutionCertificate(
        x_star=np.zeros(1), inf_f=0.0, sigma_star_sq=0.0,
        grad_norm_residual=0.0, provenance="closed_form", tol=1e-8,
    )
    cfg = li.RunConfig(T=10000, seed=42, schedule=li.ConstantStep(5.0), x0=np.array([1.0]))
    with pytest.raises(li.DivergenceError) as info:
        li.sgd_run(problem, cert, cfg)
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


def test_schedule_doc_round_trip():
    for schedule in (li.ConstantStep(0.03), li.PolynomialStep(3.0, 0.25)):
        back = li.schedule_from_doc(li.schedule_to_doc(schedule))
        assert back == schedule
    with pytest.raises(li.ScheduleError):
        li.schedule_from_doc({"variant": "mystery"})


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


def test_polynomial_schedule_resolved_against_problem_smoothness():
    problem, cert = li.make_least_squares(n=4, d=2, spread=0.5, seed=12)
    T = 49
    cfg = li.RunConfig(T=T, seed=2, schedule=li.PolynomialStep(2.0, 0.5), x0=np.zeros(2))
    traj = li.sgd_run(problem, cert, cfg)
    assert abs(traj.gamma_used - 1.0 / (2.0 * problem.L * 7.0)) < 1e-15


def weighted_least_squares():
    base, _ = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    weights = np.arange(1.0, 7.0) / 21.0
    problem = li.LeastSquaresProblem(base.design, base.offsets, weights=weights)
    return problem, li.closed_form_certificate(problem)


def single_runs(problem, config, seeds):
    """Final iterates of seed-by-seed runs; single runs keep the per-seed generator."""
    assert not sgd._takes_pass(problem, 1, config.batch_size, config.T)
    return np.stack([sgd._run(problem, config, (seed,))[1][0] for seed in seeds])


@pytest.mark.parametrize("family", ["least_squares", "logistic", "weighted_least_squares"])
def test_seed_blocks_reproduce_single_seed_runs_bitwise(family):
    if family == "least_squares":
        problem, cert = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    elif family == "logistic":
        problem, cert = li.make_logistic(n=6, d=3, seed=15)
    else:
        problem, cert = weighted_least_squares()
    S = sgd._PASS_ROWS + 16
    for b in (1, 3, problem.n) if problem.uniform_weights else (1,):
        config = li.RunConfig(T=40, seed=0, schedule=li.PolynomialStep(2.0, 0.5),
                              x0=np.ones(3), batch_size=b)
        # for uniform b = 1 the whole block takes the Philox pass, blocks of seven the generators
        assert sgd._takes_pass(problem, S, b, config.T) == (b == 1 and problem.uniform_weights)
        assert not sgd._takes_pass(problem, 7, b, config.T)
        singles = np.stack([
            li.minibatch_run(problem, cert, dataclasses.replace(config, seed=100 + s)).final_iterate
            for s in range(S)
        ])
        _, whole = sgd._run(problem, config, range(100, 100 + S))
        sevens = np.concatenate([sgd._run(problem, config, range(lo, min(lo + 7, 100 + S)))[1]
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
    _, block = sgd._run(problem, config, seeds)
    assert streams == [seeds[row] for row in flagged]
    assert np.array_equal(block, single_runs(problem, config, seeds))


class UnderstatedPair(li.FiniteSumProblem):
    """f_0 = 5 x^2 and f_1 = 0 claiming smoothness 0.1: each draw of f_0 multiplies x by -49."""

    def __init__(self):
        super().__init__(np.full(2, 0.5), np.full(2, 0.1), 0.1, 1)

    def component_values_at(self, idx, x):
        idx = np.arange(2) if idx is None else idx
        return 5.0 * x[..., :1] ** 2 * (idx == 0)

    def component_grads_at(self, idx, x):
        idx = np.arange(2) if idx is None else idx
        return 10.0 * x[..., None, :] * (idx == 0)[..., None]


def test_diverging_pass_block_reports_its_lowest_seed_at_its_first_bad_step():
    problem = UnderstatedPair()
    config = li.RunConfig(T=110, seed=0, schedule=li.ConstantStep(5.0), x0=np.array([1.0]))
    seeds = range(300, 300 + sgd._PASS_ROWS + 32)
    assert sgd._takes_pass(problem, len(seeds), 1, config.T)
    first_bad = {}
    for seed in seeds:
        try:
            sgd._run(problem, config, (seed,))
        except li.DivergenceError as exc:
            first_bad[seed] = exc.step
    lowest = min(first_bad)
    # a higher seed goes bad first, so the block must keep running past it
    assert min(first_bad.values()) < first_bad[lowest] and lowest != seeds[0]
    with pytest.raises(li.DivergenceError) as info:
        sgd._run(problem, config, seeds)
    assert (info.value.seed, info.value.step) == (lowest, first_bad[lowest])


def test_pass_block_with_the_largest_seed_matches_single_runs():
    problem, cert = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    config = li.RunConfig(T=20, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(3))
    seeds = range(2**64 - sgd._PASS_ROWS - 3, 2**64)
    assert np.array_equal(sgd._run(problem, config, seeds)[1], single_runs(problem, config, seeds))


def test_blocks_take_the_pass_only_where_it_is_cheaper(monkeypatch):
    """The pass serves blocks of many seeds with short uniform single-sample streams."""
    problem, cert = li.make_least_squares(n=10, d=2, spread=1.0, seed=19)
    weighted, weighted_cert = weighted_least_squares()
    streams = []
    monkeypatch.setattr(sgd, "stream", lambda seed, purpose: streams.append(seed) or li.stream(seed, purpose))

    def stream_calls(S, T, b=1, family=problem):
        streams.clear()
        config = li.RunConfig(T=T, seed=0, schedule=li.PolynomialStep(2.0, 0.5),
                              x0=np.zeros(family.dimension), batch_size=b)
        if S == 1:
            li.minibatch_run(family, cert if family is problem else weighted_cert, config)
        else:
            sgd._run(family, config, range(S))
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


def test_block_too_small_for_the_pass_temporaries_keeps_the_generators(monkeypatch):
    problem, _ = li.make_least_squares(n=6, d=3, spread=1.0, seed=14)
    T = sgd._PASS_DRAWS
    per_row = (1 + problem.n) * problem.component_entries() + T
    monkeypatch.setattr(sgd, "_BLOCK_ENTRIES", sgd._PASS_ROWS * per_row)
    # the block without the temporaries would take the pass, with them it could not
    assert parent_block_rows(problem, 1, T) == sgd._PASS_ROWS
    assert sgd._block_rows(problem, 1, T) == sgd._PASS_ROWS - 1


def test_single_sample_seed_mapping_past_many_draw_chunks():
    """b = 1 draws all T indices from the seed's run stream in order."""
    problem, cert = li.make_least_squares(n=5, d=2, spread=1.0, seed=16)
    T, gamma = 9000, 0.01 / problem.L
    config = li.RunConfig(T=T, seed=0, schedule=li.ConstantStep(gamma), x0=np.zeros(2))
    _, block = sgd._run(problem, config, (21, 22))
    for row, seed in zip(block, (21, 22)):
        x = np.zeros(2)
        for i in li.stream(seed, li.RUN_STREAM).integers(0, problem.n, size=T):
            x = x - gamma * problem.component_grads_at(np.array([i]), x)[0]
        assert np.array_equal(row, x)


def test_minibatch_seed_mapping_past_a_draw_chunk(monkeypatch):
    """b > 1 draws 1024 steps at a time, one partial Fisher-Yates column after another."""
    problem, cert = li.make_least_squares(n=7, d=2, spread=1.0, seed=17)
    n, b, T, gamma = problem.n, 3, 2100, 0.05 / problem.L
    config = li.RunConfig(T=T, seed=0, schedule=li.ConstantStep(gamma), x0=np.zeros(2),
                          batch_size=b)
    _, block = sgd._run(problem, config, (5, 6, 7))
    # a tiny budget shuffles a few steps' permutations at a time: same subsets
    monkeypatch.setattr(sgd, "_BLOCK_ENTRIES", 50)
    assert np.array_equal(sgd._run(problem, config, (5, 6, 7))[1], block)
    for row, seed in zip(block, (5, 6, 7)):
        rng = li.stream(seed, li.RUN_STREAM)
        x = np.zeros(2)
        for start in range(0, T, 1024):
            steps = min(1024, T - start)
            draws = np.stack([rng.integers(0, n - k, size=steps) for k in range(b)], axis=1)
            for step_draws in draws:
                pool = list(range(n))
                for k in range(b):
                    j = k + int(step_draws[k])
                    pool[k], pool[j] = pool[j], pool[k]
                batch = np.array(sorted(pool[:b]))
                x = x - gamma * (problem.component_grads_at(batch, x).sum(axis=0) / b)
        assert np.array_equal(row, x)
