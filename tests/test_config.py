"""Config loading: grids, problem specs, x0 policies, plan validation."""

import inspect
import json
import warnings

import numpy as np
import pytest

import lastiter as li
from lastiter.config import DEFAULT_LEMMA_CONFIG


def run_doc(**run_overrides):
    run = {
        "T": 50,
        "n_seeds": 4,
        "base_seed": 0,
        "schedule": {"variant": "polynomial", "C": 2.0, "beta": 0.5},
    }
    run.update(run_overrides)
    return {
        "problem": {"generator": "least_squares", "n": 6, "d": 3, "spread": 1.0, "seed": 5},
        "run": run,
    }


def sweep_doc(**sweep_overrides):
    sweep = {
        "T_grid": [10, 20],
        "schedules": [{"variant": "polynomial", "C": 2.0, "beta": 0.5}],
        "b_grid": [1, 2],
        "n_seeds": 3,
        "base_seed": 1,
    }
    sweep.update(sweep_overrides)
    return {
        "problems": [
            {"generator": "least_squares", "n": 6, "d": 2, "spread": 1.0, "seed": 7},
            {"generator": "least_squares", "n": 4, "d": 2, "spread": 0.5, "seed": 8},
        ],
        "sweep": sweep,
    }


# -- grids -----------------------------------------------------------------


def test_resolve_grid_explicit_list():
    grid = li.resolve_grid([1, 2.5, 4])
    assert grid.dtype == float
    assert grid.tolist() == [1.0, 2.5, 4.0]


def test_resolve_grid_linear_and_log():
    lin = li.resolve_grid({"min": 0.0, "max": 1.0, "count": 5})
    assert np.allclose(lin, np.linspace(0.0, 1.0, 5))
    log = li.resolve_grid({"min": 0.01, "max": 100.0, "count": 5, "spacing": "log"})
    assert np.allclose(log, np.logspace(-2, 2, 5))


def test_resolve_grid_log_int_is_unique_integers():
    grid = li.resolve_grid({"min": 2, "max": 50, "count": 40, "spacing": "log-int"})
    assert np.all(grid == np.rint(grid))
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 2 and grid[-1] == 50


def test_resolve_grid_log_int_past_int64_does_not_wrap():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = li.resolve_grid({"min": 1, "max": 1e21, "count": 3, "spacing": "log-int"})
    assert np.array_equal(grid, np.rint(np.logspace(0.0, 21.0, 3)))
    assert grid[0] == 1.0 and grid[-1] == 1e21


@pytest.mark.parametrize(
    "spec",
    [
        [],
        ["x", 1],
        [True, 2.0],
        "not-a-grid",
        {"min": 1.0, "max": 0.0, "count": 3},
        {"min": 0.0, "max": 1.0, "count": 0},
        {"min": 0.0, "max": 1.0, "count": 3, "spacing": "log"},
        {"min": 0.0, "max": 1.0, "count": 3, "spacing": "cubic"},
        {"min": 0.0, "max": 1.0, "count": 3, "surprise": 1},
    ],
)
def test_resolve_grid_rejects_malformed_specs(spec):
    with pytest.raises(li.ConfigError):
        li.resolve_grid(spec)


def test_resolve_grid_collects_multiple_errors():
    with pytest.raises(li.ConfigError) as info:
        li.resolve_grid({"min": 5.0, "max": 1.0, "count": 0, "bogus": 1}, "g")
    assert len(info.value.errors) == 3
    assert all(msg.startswith("g:") for msg in info.value.errors)


# -- problem specs -----------------------------------------------------------


def test_build_problem_default_ids():
    pid, problem, cert = li.build_problem(
        {"generator": "least_squares", "n": 6, "d": 3, "spread": 1.0, "seed": 5}
    )
    assert pid == "least_squares-n6-d3-spread1-seed5"
    assert problem.n == 6 and problem.dimension == 3
    assert cert.x_star.shape == (3,)
    pid2, problem2, _ = li.build_problem({"generator": "logistic", "n": 5, "d": 2, "seed": 9})
    assert pid2 == "logistic-n5-d2-seed9"
    assert problem2.n == 5


def test_generator_rows_declare_the_generator_parameters():
    from lastiter.config import _GENERATORS

    assert {name: generator.make for name, generator in _GENERATORS.items()} == {
        "least_squares": "make_least_squares", "logistic": "make_logistic"}
    for generator in _GENERATORS.values():
        parameters = inspect.signature(getattr(li, generator.make)).parameters
        assert list(generator.fields) == list(parameters), generator.make


def test_build_problem_custom_id_passes_through():
    pid, _, _ = li.build_problem(
        {"generator": "least_squares", "n": 4, "d": 2, "spread": 0.0, "seed": 1, "id": "tiny"}
    )
    assert pid == "tiny"


def test_build_problem_rejects_a_spec_that_is_not_an_object():
    with pytest.raises(li.ConfigError) as info:
        li.build_problem(5)
    assert info.value.errors == ["problem[0]: expected an object"]


def test_build_problem_rejects_unknown_generator_and_keys():
    with pytest.raises(li.ConfigError, match="generator"):
        li.build_problem({"generator": "cubic", "n": 3, "d": 2, "seed": 0})
    with pytest.raises(li.ConfigError, match="unknown keys"):
        li.build_problem({"generator": "logistic", "n": 3, "d": 2, "seed": 0, "spread": 1.0})


def test_build_problem_collects_field_errors():
    with pytest.raises(li.ConfigError) as info:
        li.build_problem({"generator": "least_squares", "n": 0, "d": 2, "spread": -1.0, "seed": -3})
    joined = "\n".join(info.value.errors)
    assert "n:" in joined and "seed:" in joined and "spread:" in joined
    assert len(info.value.errors) == 3


def test_build_problem_rejects_bool_disguised_as_int():
    with pytest.raises(li.ConfigError, match="n:"):
        li.build_problem({"generator": "least_squares", "n": True, "d": 2, "spread": 1.0, "seed": 0})


def test_build_problem_from_file_round_trip(tmp_path):
    problem, cert = li.make_least_squares(n=5, d=2, spread=1.0, seed=3)
    path = tmp_path / "prob.json"
    li.save_problem(path, problem)
    pid, loaded, loaded_cert = li.build_problem({"file": str(path)})
    assert pid == f"file:{path}"
    assert loaded.n == 5
    assert np.array_equal(loaded_cert.x_star, cert.x_star)
    pid2, _, _ = li.build_problem({"file": str(path), "id": "from-disk"})
    assert pid2 == "from-disk"


def test_file_problem_over_the_memory_budget_is_a_config_error(tmp_path):
    # a 5100-entry design whose Hessian stack would hold 8.67M entries
    problem = {"kind": "least_squares", "design": [[[0.0] * 1700]] * 3,
               "offsets": [[0.0]] * 3, "weights": [1 / 3] * 3}
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"schema": "lastiter-problem/1", "problem": problem}))
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan({**run_doc(), "problem": {"file": str(path)}})
    assert info.value.errors == [f"problem[0]: cannot load {str(path)!r}: instance needs "
                                 f"8670000 float64 entries, over the {li.MEMORY_BUDGET_ENTRIES} budget"]


def test_logistic_spec_over_the_memory_budget_is_a_config_error():
    # 5800 feature entries, but a d*d = 8.41M-entry Gram matrix
    doc = {**run_doc(), "problem": {"generator": "logistic", "n": 2, "d": 2900, "seed": 0}}
    with pytest.raises(li.ConfigError, match=r"problem\[0\]: instance needs 8410000 float64 entries"):
        li.load_run_plan(doc)


def test_file_problem_lacking_its_problem_key_is_a_config_error(tmp_path):
    problem, _ = li.make_least_squares(n=4, d=2, spread=1.0, seed=3)
    doc = li.problem_to_doc(problem)
    del doc["problem"]
    path = tmp_path / "headless.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan({**run_doc(), "problem": {"file": str(path)}})
    assert info.value.errors == [f"problem[0]: file {str(path)!r} lacks key 'problem'"]


def test_unreadable_problem_file_is_collected_with_other_errors(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json")
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan({**run_doc(n_seeds=0), "problem": {"file": str(path)}})
    errors = info.value.errors
    assert "run.n_seeds: must be a positive integer" in errors
    assert any(e.startswith(f"problem[0]: cannot load {str(path)!r}: Expecting value") for e in errors)
    with pytest.raises(li.ConfigError, match="path string"):
        li.build_problem({"file": ["not", "a", "path"]})


def test_generator_failure_is_collected_with_other_errors():
    doc = {"problem": {"generator": "logistic", "n": 1, "d": 2, "seed": 0}, "run": run_doc(T=2)["run"]}
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan(doc)
    errors = info.value.errors
    assert any(e.startswith("run.T:") for e in errors)
    assert "problem[0]: need n >= 2 so both labels occur, got n=1" in errors


def test_seeds_must_fit_64_bits():
    spec = {"generator": "least_squares", "n": 4, "d": 2, "seed": 2**64}
    with pytest.raises(li.ConfigError, match=r"problem\[0\]\.seed"):
        li.load_run_plan({**run_doc(), "problem": spec})
    with pytest.raises(li.ConfigError, match=r"run\.x0\.seed"):
        li.load_run_plan(run_doc(x0={"policy": "offset", "distance": 1.0, "seed": 2**64}))
    with pytest.raises(li.ConfigError, match="point_seed"):
        li.load_lemma_plan({"lemmas": {"point_seed": 2**64}})


def test_numbers_must_fit_the_float_range():
    spec = {"generator": "least_squares", "n": 4, "d": 2, "spread": 10**400, "seed": 1}
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan({**run_doc(), "problem": spec})
    assert info.value.errors == ["problem[0].spread: must be a finite number >= 0"]
    with pytest.raises(li.ConfigError, match="finite numbers"):
        li.resolve_grid([1.0, -(10**400)])
    with pytest.raises(li.ConfigError, match="min <= max"):
        li.resolve_grid({"min": 1, "max": 10**400, "count": 3})
    # Integers past int64 but inside the float range are numbers like any other.
    assert np.array_equal(li.resolve_grid({"min": 10**20, "max": 10**22, "count": 3, "spacing": "log"}),
                          np.logspace(20.0, 22.0, 3))
    with pytest.raises(li.ConfigError, match=r"problem\[0\]: Newton steps stopped at residual .* above tol 1e-10"):
        li.load_run_plan({**run_doc(), "problem": {**spec, "spread": 2**70}})


# -- x0 policies ---------------------------------------------------------------


def test_resolve_x0_zeros():
    _, problem, cert = li.build_problem(
        {"generator": "least_squares", "n": 4, "d": 3, "spread": 1.0, "seed": 2}
    )
    x0 = li.resolve_x0({"policy": "zeros"}, problem, cert)
    assert np.array_equal(x0, np.zeros(3))


def test_resolve_x0_offset_has_exact_distance():
    _, problem, cert = li.build_problem(
        {"generator": "least_squares", "n": 4, "d": 6, "spread": 1.0, "seed": 2}
    )
    x0 = li.resolve_x0({"policy": "offset", "distance": 2.5, "seed": 4}, problem, cert)
    assert float(np.linalg.norm(x0 - cert.x_star)) == pytest.approx(2.5, rel=1e-12)
    again = li.resolve_x0({"policy": "offset", "distance": 2.5, "seed": 4}, problem, cert)
    assert np.array_equal(x0, again)
    other = li.resolve_x0({"policy": "offset", "distance": 2.5, "seed": 5}, problem, cert)
    assert not np.array_equal(x0, other)


def test_resolve_x0_explicit_and_errors():
    _, problem, cert = li.build_problem(
        {"generator": "least_squares", "n": 4, "d": 2, "spread": 1.0, "seed": 2}
    )
    x0 = li.resolve_x0({"policy": "explicit", "values": [1.0, -2.0]}, problem, cert)
    assert x0.tolist() == [1.0, -2.0]
    with pytest.raises(li.ConfigError, match="length 2"):
        li.resolve_x0({"policy": "explicit", "values": [1.0]}, problem, cert)
    with pytest.raises(li.ConfigError, match="finite"):
        li.resolve_x0({"policy": "explicit", "values": [1.0, float("nan")]}, problem, cert)
    with pytest.raises(li.ConfigError, match="unknown policy"):
        li.resolve_x0({"policy": "warm"}, problem, cert)
    with pytest.raises(li.ConfigError):
        li.resolve_x0({"policy": "zeros", "extra": 1}, problem, cert)
    with pytest.raises(li.ConfigError):
        li.resolve_x0({}, problem, cert)


def test_offset_x0_past_the_float_range_is_a_config_error():
    policy = {"policy": "offset", "distance": 1.7e308, "seed": 1}
    problem = {"generator": "least_squares", "n": 10, "d": 2, "seed": 3}
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan({**run_doc(x0=policy), "problem": problem})
    assert info.value.errors == ["run.x0.distance: 1.7e+308 from x* leaves the float range"]
    with pytest.raises(li.ConfigError) as info:
        li.load_sweep_plan({**sweep_doc(x0=policy), "problems": [problem]})
    assert info.value.errors == ["sweep.x0.distance: 1.7e+308 from x* leaves the float range"]


# -- run plans --------------------------------------------------------------------


def test_load_run_plan_happy_path():
    plan = li.load_run_plan(run_doc())
    assert plan.problem_id == "least_squares-n6-d3-spread1-seed5"
    assert plan.template.T == 50
    assert plan.template.batch_size == 1
    assert plan.n_seeds == 4 and plan.base_seed == 0
    assert np.array_equal(plan.template.x0, np.zeros(3))
    assert plan.template.schedule == li.PolynomialStep(2.0, 0.5)
    assert len(plan.config_hash) == 64


def test_load_run_plan_hash_tracks_content():
    assert li.load_run_plan(run_doc()).config_hash == li.load_run_plan(run_doc()).config_hash
    changed = li.load_run_plan(run_doc(T=51))
    assert changed.config_hash != li.load_run_plan(run_doc()).config_hash


def test_generator_only_config_hashes_are_unchanged():
    # Values of the canonical-JSON hash of the user's document, from before
    # file problems were pinned by digest; generator specs must keep them.
    lemma_doc = {"lemmas": {"problems": [
        {"generator": "least_squares", "n": 5, "d": 2, "spread": 1.0, "seed": 1}]}}
    assert li.load_run_plan(run_doc()).config_hash == (
        "6df6cb52af68b251a2e08ad5b791b8de68ef2f3c69ec7c80704e8fd73a8541fb")
    assert li.load_sweep_plan(sweep_doc()).config_hash == (
        "01a24e9df2a2ad0052811263bbaedbcf158d5123f3c65c16557756af38564935")
    assert li.load_lemma_plan(lemma_doc).config_hash == (
        "ce69418b4d4936901332185631044f8707e4a98e8249e136b48aec919ebc06db")
    assert li.load_lemma_plan().config_hash == (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a")


def test_file_problem_config_hash_follows_the_file_content(tmp_path):
    path = tmp_path / "problem.json"
    spec = {"file": str(path)}
    docs = {
        li.load_run_plan: {**run_doc(), "problem": spec},
        li.load_sweep_plan: {**sweep_doc(), "problems": [sweep_doc()["problems"][0], spec]},
        li.load_lemma_plan: {"lemmas": {"problems": [spec]}},
    }
    hashes = []
    for seed in (3, 4, 3):
        li.save_problem(path, li.make_least_squares(n=6, d=2, spread=1.0, seed=seed)[0])
        hashes.append([load(doc).config_hash for load, doc in docs.items()])
    for first, second, again in zip(*hashes):
        assert first != second
        assert first == again
    assert spec == {"file": str(path)}


def test_load_run_plan_from_file(tmp_path):
    import json

    path = tmp_path / "run.json"
    path.write_text(json.dumps(run_doc()))
    plan = li.load_run_plan(str(path))
    assert plan.template.T == 50


def test_load_run_plan_rejects_small_horizon():
    with pytest.raises(li.ConfigError, match="T >= 3"):
        li.load_run_plan(run_doc(T=2))


def test_load_run_plan_collects_all_violations():
    doc = run_doc(T=2, n_seeds=0, schedule={"variant": "mystery"})
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan(doc)
    joined = "\n".join(info.value.errors)
    assert "run.T" in joined
    assert "run.n_seeds" in joined
    assert "run.schedule" in joined
    assert len(info.value.errors) >= 3


def test_load_run_plan_rejects_unknown_top_level_keys():
    doc = run_doc()
    doc["extra"] = True
    with pytest.raises(li.ConfigError, match=r"config: unknown keys \['extra'\]"):
        li.load_run_plan(doc)


def test_load_run_plan_checks_schedule_window():
    with pytest.raises(li.ConfigError, match=r"\(0, 1\)"):
        li.load_run_plan(run_doc(schedule={"variant": "constant", "gamma": 100.0}))


def test_load_run_plan_checks_schedule_window_at_batch_smoothness():
    # L_b < L for b > 1, so a step past 1/L can still be valid for a batch
    problem = li.build_problem(run_doc()["problem"])[1]
    gamma = 2.0 / (problem.L + problem.batch_smoothness(6))
    assert gamma * problem.L > 1.0 > gamma * problem.batch_smoothness(6)
    constant = {"variant": "constant", "gamma": gamma}
    plan = li.load_run_plan(run_doc(schedule=constant, batch_size=6))
    assert plan.template.schedule == li.ConstantStep(gamma)
    with pytest.raises(li.ConfigError, match=r"\(0, 1\)"):
        li.load_run_plan(run_doc(schedule=constant))


def test_run_and_sweep_sections_reject_unknown_keys():
    # the batch smoothness is derived from the problem, never configured
    with pytest.raises(li.ConfigError, match=r"run: unknown keys \['smoothness'\]"):
        li.load_run_plan(run_doc(smoothness=1.0))
    # the estimator records only the final gap, so a stride has nothing to set
    with pytest.raises(li.ConfigError, match=r"run: unknown keys \['record_stride'\]"):
        li.load_run_plan(run_doc(record_stride=3))
    with pytest.raises(li.ConfigError, match=r"sweep: unknown keys \['smoothness'\]"):
        li.load_sweep_plan(sweep_doc(smoothness=1.0))


def test_load_run_plan_rejects_oversized_batch():
    with pytest.raises(li.ConfigError, match="family size"):
        li.load_run_plan(run_doc(batch_size=7))


def test_load_run_plan_rejects_nonuniform_batch(tmp_path):
    design = np.ones((3, 1, 1))
    offsets = np.array([[0.0], [1.0], [-1.0]])
    problem = li.LeastSquaresProblem(design, offsets, weights=np.array([0.5, 0.25, 0.25]))
    path = tmp_path / "weighted.json"
    li.save_problem(path, problem)
    doc = run_doc(batch_size=2)
    doc["problem"] = {"file": str(path)}
    with pytest.raises(li.ConfigError, match="uniform weights"):
        li.load_run_plan(doc)


def test_load_run_plan_rejects_seed_range_overflow():
    with pytest.raises(li.ConfigError, match="64 bits"):
        li.load_run_plan(run_doc(base_seed=2**64 - 1, n_seeds=2))


def test_load_sweep_plan_rejects_seed_range_overflow():
    with pytest.raises(li.ConfigError, match=r"sweep\.base_seed: seed range exceeds 64 bits"):
        li.load_sweep_plan(sweep_doc(base_seed=2**64 - 2, n_seeds=3))
    # the last seed of the range is 2**64 - 1, which is still valid
    assert li.load_sweep_plan(sweep_doc(base_seed=2**64 - 3, n_seeds=3)).base_seed == 2**64 - 3


def test_load_run_plan_x0_policy_flows_through():
    plan = li.load_run_plan(run_doc(x0={"policy": "offset", "distance": 1.5, "seed": 11}))
    d_sq = float(np.sum((plan.template.x0 - plan.cert.x_star) ** 2))
    assert d_sq == pytest.approx(1.5**2, rel=1e-12)


# -- sweep plans --------------------------------------------------------------------


def test_load_sweep_plan_happy_path():
    plan = li.load_sweep_plan(sweep_doc())
    assert plan.T_grid == (10, 20)
    assert plan.b_grid == (1, 2)
    assert len(plan.entries) == 2
    assert len(plan.schedules) == 1
    assert isinstance(plan.schedules[0], li.PolynomialStep)
    assert plan.n_seeds == 3 and plan.base_seed == 1
    ids = [e[0] for e in plan.entries]
    assert ids[0].startswith("least_squares-n6")


def test_load_sweep_plan_rejects_batch_over_smallest_family():
    with pytest.raises(li.ConfigError, match="smallest family size 4"):
        li.load_sweep_plan(sweep_doc(b_grid=[1, 5]))


def test_load_sweep_plan_rejects_small_T():
    with pytest.raises(li.ConfigError, match="T_grid"):
        li.load_sweep_plan(sweep_doc(T_grid=[2, 10]))


def test_horizons_must_fit_the_float_range():
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan(run_doc(T=10**400))
    assert info.value.errors == ["run.T: bound comparison requires an integer T >= 3 that fits a float"]
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan(run_doc(T=10**400, schedule={"variant": "constant", "gamma": 0.01}))
    assert info.value.errors == ["run.T: bound comparison requires an integer T >= 3 that fits a float"]
    with pytest.raises(li.ConfigError) as info:
        li.load_sweep_plan(sweep_doc(T_grid=[10, 10**400]))
    assert info.value.errors == ["sweep.T_grid: must be a nonempty list of integers >= 3 that fit a float"]


def test_load_sweep_plan_reports_bad_schedule_position():
    bad = sweep_doc(
        schedules=[
            {"variant": "polynomial", "C": 2.0, "beta": 0.5},
            {"variant": "nope"},
        ]
    )
    with pytest.raises(li.ConfigError, match=r"schedules\[1\]"):
        li.load_sweep_plan(bad)


BAD_SCHEDULES = [
    ({"variant": "constant", "gamma": "0.1"}, ".gamma: must be a finite number"),
    ({"variant": "polynomial", "C": "2", "beta": 0.5}, ".C: must be a finite number"),
    ({"variant": "polynomial", "C": 2.0, "beta": True}, ".beta: must be a finite number"),
    ({"variant": "constant", "gamma": 0.1, "typo": 1}, ": unknown keys ['typo']"),
    ({"variant": "polynomial", "C": 2.0, "beta": 0.5, "typo": 1}, ": unknown keys ['typo']"),
    # well-typed fields that break the schedule's own rule
    ({"variant": "polynomial", "C": 1.0, "beta": 0.5}, ": C must be finite and >= 2, got 1.0"),
    ({"variant": "polynomial", "C": 2.0, "beta": 1.0}, ": beta must lie in (0, 1), got 1.0"),
    ({"variant": "constant", "gamma": -1.0}, ": gamma must be finite and positive, got -1.0"),
]


@pytest.mark.parametrize("schedule, message", BAD_SCHEDULES, ids=[
    "string-gamma", "string-C", "bool-beta", "constant-unknown-key", "polynomial-unknown-key",
    "C-below-2", "beta-at-1", "negative-gamma"])
def test_schedule_objects_are_checked_like_every_other_object(schedule, message):
    with pytest.raises(li.ConfigError) as info:
        li.load_run_plan(run_doc(schedule=schedule))
    assert info.value.errors == ["run.schedule" + message]
    good = {"variant": "polynomial", "C": 2.0, "beta": 0.5}
    with pytest.raises(li.ConfigError) as info:
        li.load_sweep_plan(sweep_doc(schedules=[good, schedule]))
    assert info.value.errors == ["sweep.schedules[1]" + message]


def test_load_sweep_plan_requires_sections():
    with pytest.raises(li.ConfigError) as info:
        li.load_sweep_plan({"problems": []})
    joined = "\n".join(info.value.errors)
    assert "problems" in joined and "sweep" in joined


# -- lemma plans ----------------------------------------------------------------------


def test_default_lemma_plan_entries_and_grids():
    plan = li.load_lemma_plan()
    ids = [e[0] for e in plan.entries]
    assert ids == [
        "least_squares-n20-d5-spread1-seed11",
        "least_squares-n16-d3-spread0-seed12",
        "logistic-n24-d4-seed13",
    ]
    grids = plan.grids
    assert grids["n_points"] == 200 and grids["n_pairs"] == 100
    assert grids["eps_grid"].size == 7
    assert grids["gamma_l_grid"].tolist() == [0.1, 0.5, 0.9]
    assert np.all(grids["weight_T_grid"] == np.rint(grids["weight_T_grid"]))
    assert grids["weight_T_grid"][0] == 2 and grids["weight_T_grid"][-1] == 5000
    assert grids["exponent_t_grid"].size == 400
    assert grids["exp_convexity_x_grid"].size == 41


def test_lemma_grid_overrides_merge_over_defaults():
    plan = li.load_lemma_plan(
        {
            "lemmas": {
                "n_points": 10,
                "n_pairs": 5,
                "problems": [
                    {"generator": "least_squares", "n": 4, "d": 2, "spread": 1.0, "seed": 1}
                ],
                "eps_grid": [0.5, 1.0],
            }
        }
    )
    assert plan.grids["n_points"] == 10
    assert plan.grids["eps_grid"].tolist() == [0.5, 1.0]
    # untouched keys keep their defaults
    assert plan.grids["gautschi_x_grid"].size == DEFAULT_LEMMA_CONFIG["gautschi_x_grid"]["count"]
    assert len(plan.entries) == 1


def test_lemma_grids_reject_domain_violations():
    with pytest.raises(li.ConfigError, match="gamma_l_grid"):
        li.load_lemma_plan({"lemmas": {"gamma_l_grid": [0.5, 1.5]}})
    with pytest.raises(li.ConfigError, match="eps_grid"):
        li.load_lemma_plan({"lemmas": {"eps_grid": [-1.0, 1.0]}})
    with pytest.raises(li.ConfigError, match="exponent_theta_grid"):
        li.load_lemma_plan({"lemmas": {"exponent_theta_grid": [0.5, 3.0]}})
    with pytest.raises(li.ConfigError, match="lemmas.weight_T_grid: entries must be integers"):
        li.load_lemma_plan({"lemmas": {"weight_T_grid": [2.5]}})
    with pytest.raises(li.ConfigError, match="n_points"):
        li.load_lemma_plan({"lemmas": {"n_points": 1}})
    with pytest.raises(li.ConfigError, match="unknown keys"):
        li.load_lemma_plan({"lemmas": {"mystery_grid": [1.0]}})


# Lemma configs that ask for arrays over the memory budget, and the one error each gets.
OVERSIZED_LEMMAS = [
    ({"exponent_t_grid": {"min": 1, "max": 10, "count": 10**12, "spacing": "log"}},
     "lemmas.exponent_t_grid"),
    ({"eps_grid": [1.0] * (li.MEMORY_BUDGET_ENTRIES + 1)}, "lemmas.eps_grid"),
    ({"gautschi_x_grid": {"min": 0.1, "max": 1e4, "count": 30_000, "spacing": "log"},
      "gautschi_c_grid": {"min": 0.0, "max": 1.0, "count": 30_000}},
     "lemmas.gautschi_x_grid with gautschi_c_grid"),
    ({"exponent_theta_grid": {"min": 1e-3, "max": 2.0, "count": 30_000, "spacing": "log"}},
     "lemmas.exponent_t_grid with exponent_theta_grid"),
    ({"n_points": 2**21}, "lemmas.n_points with eps_grid"),
    ({"gamma_l_grid": {"min": 0.1, "max": 0.9, "count": 100}, "n_pairs": 100_000},
     "lemmas.gamma_l_grid with n_pairs"),
    ({"n_points": 2**20, "eps_grid": [1.0]}, "lemmas.n_points at problem[0]"),
    ({"n_pairs": 2**21, "gamma_l_grid": [0.5]}, "lemmas.n_pairs at problem[0]"),
]


@pytest.mark.parametrize("lemmas, label", OVERSIZED_LEMMAS)
def test_lemma_arrays_past_the_memory_budget_are_refused_before_they_are_built(monkeypatch, lemmas, label):
    import lastiter.config as config

    resolved, real_resolve = [], config.resolve_grid
    monkeypatch.setattr(config, "resolve_grid",
                        lambda spec, name="grid": resolved.append(name) or real_resolve(spec, name))
    problems = [{"generator": "least_squares", "n": 4, "d": 16, "spread": 1.0, "seed": 1}]
    with pytest.raises(li.ConfigError) as info:
        li.load_lemma_plan({"lemmas": {"problems": problems, **lemmas}})
    budget = li.MEMORY_BUDGET_ENTRIES
    assert info.value.errors == [f"{label}: asks for an array over the {budget}-entry memory budget"]
    # no grid of the refused array was built
    assert not any(f"lemmas.{key}" in resolved for key in lemmas if key in label)


def test_lemma_plan_collects_grid_and_every_problem_error():
    bad_problems = [
        {"generator": "mystery"},
        {"generator": "logistic", "n": 1, "d": 2, "seed": 0},
    ]
    with pytest.raises(li.ConfigError) as info:
        li.load_lemma_plan({"lemmas": {"n_points": 1, "problems": bad_problems}})
    errors = info.value.errors
    assert "lemmas.n_points: must be an integer >= 2" in errors
    assert any(e.startswith("problem[0].generator:") for e in errors)
    assert "problem[1]: need n >= 2 so both labels occur, got n=1" in errors


def test_lemma_plan_rejects_unknown_top_level():
    with pytest.raises(li.ConfigError, match=r"config: unknown keys \['lemma'\]"):
        li.load_lemma_plan({"lemma": {}})


def test_config_error_carries_error_list():
    err = li.ConfigError(["a: bad", "b: worse"])
    assert err.errors == ["a: bad", "b: worse"]
    assert "a: bad" in str(err)
