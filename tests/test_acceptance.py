"""Acceptance gate: the eight shipped guarantees, each with a printed line.

Every test here checks one end-to-end promise at its stated tolerance and
runtime budget.  The criterion lines appear in the "acceptance criteria"
section of the pytest terminal summary.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lastiter as li
import lastiter.cli as cli

WORKERS = min(8, os.cpu_count() or 1)

TRIO = (
    ("ls-n10-d2", 10, 2, 1.0, 101),
    ("ls-n50-d2", 50, 2, 2.0, 102),
    ("ls-n50-d10", 50, 10, 1.0, 103),
)
TRIO_T_GRID = (100, 400, 1600, 6400)
TRIO_SEEDS = 2000


def two_quadratics():
    """f_1 = x^2/2, f_2 = x^2 with shared minimizer 0 (exact L = 2)."""
    design = np.zeros((2, 2, 1))
    design[0, 0, 0] = 1.0
    design[1, :, 0] = 1.0
    return li.LeastSquaresProblem(design, np.zeros((2, 2)))


@pytest.fixture(scope="session")
def trio_rows():
    """The bound-domination sweep, shared between criteria 4 and 5."""
    entries = []
    for pid, n, d, spread, seed in TRIO:
        problem, cert = li.make_least_squares(n=n, d=d, spread=spread, seed=seed)
        x0 = li.resolve_x0({"policy": "offset", "distance": 1.0, "seed": 5}, problem, cert)
        entries.append((pid, problem, cert, x0))
    start = time.monotonic()
    rows = li.sweep(
        entries,
        TRIO_T_GRID,
        [li.PolynomialStep(2.0, 0.5)],
        [1],
        n_seeds=TRIO_SEEDS,
        base_seed=0,
        workers=WORKERS,
    )
    elapsed = time.monotonic() - start
    return rows, entries, elapsed


@pytest.mark.criterion(1, "lemma battery passes on default grids inside the 60 s budget")
def test_criterion_1_lemma_battery(acceptance_note):
    start = time.monotonic()
    plan = li.load_lemma_plan()
    results = li.run_battery(list(plan.entries), plan.grids)
    elapsed = time.monotonic() - start
    assert [r.lemma_id for r in results] == list(li.BATTERY_ORDER)
    by_id = {r.lemma_id: r for r in results}
    # default grid scale: 200 points x 7 eps x 3 problems, 100 pairs x 3 step
    # ratios x 3 problems
    assert by_id["variance_transfer"].grid_size == 200 * 7 * 3
    assert by_id["one_step_descent"].grid_size == 100 * 3 * 3
    assert by_id["weight_bounds"].grid_size >= 3 * 40 * 30
    for r in results:
        if r.lemma_id == "exponent_inequality":
            assert r.flagged and not r.passed
            assert r.details["boundary_t"] == 1.0
            assert r.details["boundary_lhs"] == 3.0
            assert r.details["boundary_rhs"] == pytest.approx(4.0 * math.log(2.0))
            assert r.details["holds_beyond_first_valid"]
        else:
            assert not r.flagged
            assert r.worst_slack >= -1e-9, (r.lemma_id, r.worst_slack, r.worst_point)
            assert r.passed
    assert elapsed < 60.0
    acceptance_note(1, f"{elapsed:.1f}s of 60s budget")


@pytest.mark.criterion(
    2, "weight recursion, log-Gamma closed form, and defining relation agree to 1e-10"
)
def test_criterion_2_weight_dual_representation(acceptance_note, weight_closed_form):
    start = time.monotonic()
    worst_rel = 0.0
    worst_res = 0.0
    for phi in (0.01, 0.5, 0.99):
        for T in range(1, 5001):
            seq = li.weight_sequence(T, phi - 1.0)
            closed = weight_closed_form(seq)
            recursion = seq.alphas[1 : T + 1]
            rel = float(np.max(np.abs(closed - recursion) / np.abs(closed)))
            res = float(np.max(seq.defining_residuals()))
            worst_rel = max(worst_rel, rel)
            worst_res = max(worst_res, res)
    # a coarse grid over the full phi range on top of the endpoint scans
    for T in (3, 10, 31, 100, 316, 1000, 3162, 5000):
        for phi in np.linspace(0.01, 0.99, 25):
            seq = li.weight_sequence(T, float(phi) - 1.0)
            closed = weight_closed_form(seq)
            recursion = seq.alphas[1 : T + 1]
            worst_rel = max(
                worst_rel, float(np.max(np.abs(closed - recursion) / np.abs(closed)))
            )
            worst_res = max(worst_res, float(np.max(seq.defining_residuals())))
    elapsed = time.monotonic() - start
    assert worst_rel <= 1e-10
    assert worst_res <= 1e-10
    acceptance_note(
        2, f"worst closed-form rel {worst_rel:.1e}, worst residual {worst_res:.1e}, {elapsed:.1f}s"
    )


@pytest.mark.criterion(
    3, "interpolation oracle: 1e5-seed estimate matches 0.75 * 0.40625^T within 3 SE"
)
def test_criterion_3_exact_oracle(acceptance_note):
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    start = time.monotonic()
    margins = []
    for T in (1, 2, 5, 10):
        config = li.RunConfig(
            T=T, seed=0, schedule=li.ConstantStep(0.25), x0=np.array([1.0])
        )
        est = li.estimate_gap(
            problem, cert, config, n_seeds=100_000, base_seed=0, workers=WORKERS
        )
        exact = 0.75 * 0.40625**T
        deviation = abs(est.mean_gap - exact)
        assert deviation <= 3.0 * est.std_error, (T, est.mean_gap, exact, est.std_error)
        margins.append(deviation / est.std_error)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    acceptance_note(3, f"max deviation {max(margins):.2f} SE, {elapsed:.1f}s of 30s budget")


@pytest.mark.criterion(
    4, "bound domination: every sweep row stays below both bound forms at 2000 seeds"
)
def test_criterion_4_bound_domination(trio_rows, acceptance_note):
    rows, entries, elapsed = trio_rows
    assert len(rows) == len(TRIO) * len(TRIO_T_GRID)
    lookup = {pid: (problem, cert, x0) for pid, problem, cert, x0 in entries}
    worst_ratio = 0.0
    for row in rows:
        assert row.error is None, (row.problem_id, row.T, row.error)
        assert row.ci95_upper <= row.theorem1_bound, (row.problem_id, row.T)
        assert row.ci95_upper <= row.corollary_bound, (row.problem_id, row.T)
        problem, cert, x0 = lookup[row.problem_id]
        d_sq = float(np.sum((x0 - cert.x_star) ** 2))
        expected = li.sqrt_step_bound_c2(problem.L, d_sq, cert.sigma_star_sq, row.T)
        assert row.corollary_bound == pytest.approx(expected, rel=1e-12)
        worst_ratio = max(
            worst_ratio, row.ci95_upper / min(row.theorem1_bound, row.corollary_bound)
        )
    assert elapsed < 600.0
    acceptance_note(
        4, f"worst ci95/bound ratio {worst_ratio:.3f}, {elapsed:.0f}s of 600s budget"
    )


@pytest.mark.criterion(5, "rate shape: per-problem log-log slope lies in [-1.0, -0.35]")
def test_criterion_5_rate_shape(trio_rows, acceptance_note):
    rows, _, _ = trio_rows
    slopes = {}
    for pid, _, _, _, _ in TRIO:
        mine = [row for row in rows if row.problem_id == pid]
        assert len(mine) == len(TRIO_T_GRID)
        log_t = np.log10([row.T for row in mine])
        log_gap = np.log10([row.mean_gap for row in mine])
        slope = float(np.polyfit(log_t, log_gap, 1)[0])
        slopes[pid] = slope
        assert -1.0 <= slope <= -0.35, (pid, slope)
    acceptance_note(
        5, ", ".join(f"{pid} {slope:.2f}" for pid, slope in slopes.items())
    )


@pytest.mark.criterion(
    6, "reductions: b=1 matches single-sample SGD, b=n matches GD, exact variance endpoints"
)
def test_criterion_6_reduction_identities():
    problem, cert = li.make_least_squares(n=8, d=3, spread=1.5, seed=31)
    gamma = 0.8 / problem.L
    x0 = cert.x_star + 0.7
    for seed in (0, 1, 2):
        cfg = li.RunConfig(T=60, seed=seed, schedule=li.ConstantStep(gamma), x0=x0, batch_size=1)
        gaps = []
        _, X = li.run(problem, cfg, (seed,),
                      lambda t, X: gaps.append(float(problem.value(X[0]) - cert.inf_f)))
        # the single-sample loop written out, its gap recorded at every step
        x = x0.copy()
        loop_gaps = [float(problem.value(x) - cert.inf_f)]
        for i in li.stream(seed, li.RUN_STREAM).integers(0, problem.n, size=cfg.T):
            x = x - gamma * problem.component_grads_at(np.array([i]), x)[0]
            loop_gaps.append(float(problem.value(x) - cert.inf_f))
        assert np.array_equal(X[0], x)
        assert gaps == loop_gaps
    gd_cfg = li.RunConfig(
        T=40, seed=123, schedule=li.ConstantStep(gamma), x0=x0, batch_size=problem.n
    )
    _, full = li.run(problem, gd_cfg, (123,))
    x = x0.copy()
    for _ in range(40):
        x = x - gamma * problem.grad(x)
    assert np.array_equal(full[0], x)
    eff_one = li.effective_constants(problem, 1, cert)
    eff_full = li.effective_constants(problem, problem.n, cert)
    assert eff_full.sigma_b_sq == 0.0
    grads = problem.component_grads_at(None, cert.x_star)
    mean_sq = float(np.mean(np.einsum("ni,ni->n", grads, grads)))
    assert eff_one.sigma_b_sq == pytest.approx(mean_sq, rel=1e-12)
    assert eff_one.sigma_b_sq == cert.sigma_star_sq


@pytest.mark.criterion(7, "complexity horizon returns exactly 14 on the unit setup")
def test_criterion_7_complexity_horizon():
    assert li.complexity_horizon(18.0, 1.0, 1.0, 0.0) == 14

    def score(t: int) -> float:
        return t / (1.0 + math.log(t + 1.0)) ** 2

    # K = max(18 L D^2, 67 sigma^2 / (2L)) = 18 meets epsilon = 18 at ratio 1
    assert score(13) < 1.0 <= score(14)


DETERMINISM_RUN_DOC = {
    "problem": {"generator": "least_squares", "n": 6, "d": 3, "spread": 1.0, "seed": 5},
    "run": {
        "T": 50,
        "n_seeds": 16,
        "base_seed": 0,
        "schedule": {"variant": "polynomial", "C": 2.0, "beta": 0.5},
        "x0": {"policy": "offset", "distance": 1.0, "seed": 3},
    },
}
DETERMINISM_SWEEP_DOC = {
    "problems": [
        {"generator": "least_squares", "n": 6, "d": 2, "spread": 1.0, "seed": 7, "id": "p"}
    ],
    "sweep": {
        "T_grid": [10, 20],
        "schedules": [{"variant": "polynomial", "C": 2.0, "beta": 0.5}],
        "b_grid": [1, 2],
        "n_seeds": 24,
        "base_seed": 0,
    },
}


@pytest.mark.criterion(
    8, "determinism: rerun output files are byte-identical and worker-independent"
)
def test_criterion_8_determinism(tmp_path, acceptance_note):
    lemma_doc = {
        "lemmas": {
            "problems": [
                {"generator": "least_squares", "n": 5, "d": 2, "spread": 1.0, "seed": 1}
            ],
            "n_points": 8,
            "n_pairs": 4,
            "eps_grid": [0.5, 2.0],
            "gamma_l_grid": [0.5],
            "weight_T_grid": [3, 20],
            "weight_phi_grid": [0.0, 0.7],
            "exponent_t_grid": [1.0, 10.0],
            "exponent_theta_grid": [0.5, 1.0],
            "exp_convexity_x_grid": [0.0, 1.0],
            "exp_convexity_a_grid": [1.0],
            "gautschi_x_grid": [1.0, 10.0],
            "gautschi_c_grid": [0.0, 1.0],
        }
    }
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(DETERMINISM_RUN_DOC))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(DETERMINISM_SWEEP_DOC))
    lemma_cfg = tmp_path / "lemmas.json"
    lemma_cfg.write_text(json.dumps(lemma_doc))

    def files_of(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    run_outs = []
    for label, workers in (("r1", "1"), ("r2", "2"), ("r3", "1")):
        out = tmp_path / label
        code = cli.main([
            "run", "--config", str(run_cfg), "--out", str(out),
            "--workers", workers, "--deterministic-output", "--dump-seeds",
        ])
        assert code == 0
        run_outs.append(files_of(out))
    assert set(run_outs[0]) == {"report.json", "seeds.csv"}
    assert run_outs[0] == run_outs[1] == run_outs[2]

    sweep_outs = []
    for label, workers in (("s1", "1"), ("s2", "2")):
        out = tmp_path / label
        code = cli.main([
            "sweep", "--config", str(sweep_cfg), "--out", str(out),
            "--workers", workers, "--deterministic-output",
        ])
        assert code == 0
        sweep_outs.append(files_of(out))
    assert set(sweep_outs[0]) == {"sweep.csv", "sweep_loglog.csv", "sweep_meta.json"}
    assert sweep_outs[0] == sweep_outs[1]

    lemma_outs = []
    for label in ("l1", "l2"):
        out = tmp_path / label
        code = cli.main([
            "verify-lemmas", "--config", str(lemma_cfg), "--out", str(out),
            "--deterministic-output",
        ])
        assert code == 0
        lemma_outs.append(files_of(out))
    assert set(lemma_outs[0]) == {"lemmas.csv", "lemmas.json"}
    assert lemma_outs[0] == lemma_outs[1]

    bound_outs = []
    for label in ("b1", "b2"):
        out = tmp_path / label
        code = cli.main([
            "bound", "--horizon", "100", "--smoothness", "2.0",
            "--distance-sq", "1.0", "--noise", "0.3", "--C", "2",
            "--out", str(out), "--deterministic-output",
        ])
        assert code == 0
        bound_outs.append(files_of(out))
    assert set(bound_outs[0]) == {"bound.csv", "bound.json"}
    assert bound_outs[0] == bound_outs[1]
    acceptance_note(8, "run/sweep/verify-lemmas/bound outputs stable across reruns and workers")


# One process per thread count runs every command, so numpy is imported twice, not once per command.
_RUN_COMMANDS = """
import json, sys
import lastiter.cli as cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """--deterministic-output files are byte-identical at 1 and 2 OpenBLAS threads.

    The families are sized so that their BLAS calls (the Hessian stack,
    the mean offsets, the weighted gradient, the logistic margins and each
    point's one matrix-vector product over its components) are large enough
    for OpenBLAS to split them across threads.  The tall family's component
    values at a point are one (303, 40) product, a row count that is not a
    multiple of the kernels' unrolling.
    """
    design = np.random.default_rng(11).standard_normal((160, 1, 64))
    weights = np.random.default_rng(12).uniform(0.5, 1.5, 160)
    li.save_problem(tmp_path / "weighted-problem.json", li.LeastSquaresProblem(
        design, design[:, :, 0] + 0.5, weights=weights / math.fsum(weights)))
    tall = np.random.default_rng(13).standard_normal((101, 3, 40))
    li.save_problem(tmp_path / "tall-problem.json", li.LeastSquaresProblem(tall, tall[:, :, 0] + 0.5))

    def run_doc(problem, b):
        return {"problem": problem, "run": {
            "T": 20, "n_seeds": 8, "base_seed": 0, "batch_size": b,
            "schedule": {"variant": "polynomial", "C": 2.0, "beta": 0.5},
            "x0": {"policy": "offset", "distance": 1.0, "seed": 3},
        }}

    wide = {"generator": "least_squares", "n": 8, "d": 128, "spread": 1.0, "seed": 7}
    commands = {
        "ls-b1": ("run", run_doc(wide, 1)),
        "ls-b4": ("run", run_doc(wide, 4)),
        "weighted": ("run", run_doc({"file": str(tmp_path / "weighted-problem.json")}, 1)),
        "tall": ("run", run_doc({"file": str(tmp_path / "tall-problem.json")}, 8)),
        "logistic": ("run", run_doc({"generator": "logistic", "n": 1000, "d": 50, "seed": 3}, 8)),
        "criterion-8-run": ("run", DETERMINISM_RUN_DOC),
        "criterion-8-sweep": ("sweep", DETERMINISM_SWEEP_DOC),
    }
    for name, (_, doc) in commands.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        argvs = [[command, "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / threads / name),
                  "--deterministic-output", *(["--dump-seeds"] if command == "run" else [])]
                 for name, (command, _) in commands.items()]
        proc = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(argvs)],
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {p.relative_to(tmp_path / threads).as_posix(): p.read_bytes()
                            for p in sorted((tmp_path / threads).rglob("*")) if p.is_file()}
    assert len(outputs["1"]) == 2 * 6 + 3
    moved = sorted(name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name])
    assert moved == []


def _single_sample_statistics(problem, cert, x0, T, gamma, n_seeds, base_seed):
    """(mean, std_error, ci95_upper) of b = 1 SGD with the sampling loop written out."""
    gaps = []
    for seed in range(base_seed, base_seed + n_seeds):
        picks = li.stream(seed, li.RUN_STREAM).integers(0, problem.n, size=T)
        x = x0.copy()
        for i in picks:
            x = x - gamma * problem.component_grads_at(np.array([i]), x)[0]
        gaps.append(float(problem.value(x) - cert.inf_f))
    mean, std_error = li.reduce_moments(gaps)
    return mean, std_error, mean + 1.96 * std_error


def _sqrt_c2_bounds(problem, cert, d_sq, T):
    """Every bound of the C = 2, beta = 1/2 schedule at the family's own L and sigma*^2."""
    L, s2 = problem.L, cert.sigma_star_sq
    gamma = li.resolve_schedule(li.PolynomialStep(2.0, 0.5), L, T)
    poly = li.polynomial_step_bound(2.0, 0.5, L, d_sq, s2, T)
    return {
        "T": T, "gamma": gamma, "L": L, "D_sq": d_sq, "sigma_star_sq": s2,
        "phi": li.phi(gamma, L), "generic": li.last_iterate_bound(gamma, L, d_sq, s2, T),
        "schedule_variant": "polynomial", "C": 2.0, "beta": 0.5, "B": poly.B,
        "polynomial": poly.value, "sqrt_general": li.sqrt_step_bound(2.0, L, d_sq, s2, T),
        "sqrt_c2": li.sqrt_step_bound_c2(L, d_sq, s2, T),
    }


def test_b1_outputs_use_single_sample_constants(tmp_path):
    """b = 1 run and sweep outputs come from L and sigma*^2 of the family itself."""
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(DETERMINISM_RUN_DOC))
    assert cli.main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "r"),
                     "--deterministic-output"]) == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    _, problem, cert = li.build_problem(DETERMINISM_RUN_DOC["problem"])
    spec = DETERMINISM_RUN_DOC["run"]
    x0 = li.resolve_x0(spec["x0"], problem, cert)
    T = spec["T"]
    bounds = _sqrt_c2_bounds(problem, cert, float(np.sum((x0 - cert.x_star) ** 2)), T)
    mean, se, ci95 = _single_sample_statistics(problem, cert, x0, T, bounds["gamma"],
                                               spec["n_seeds"], spec["base_seed"])
    tightest = min(bounds[k] for k in ("generic", "polynomial", "sqrt_general", "sqrt_c2"))
    assert doc["bounds"] == bounds
    assert doc["run"]["gamma_used"] == bounds["gamma"]
    assert doc["run"]["effective"] == {"L": problem.L, "sigma_sq": cert.sigma_star_sq}
    assert doc["run"]["x0"] == x0.tolist()
    assert (doc["estimate"]["mean_gap"], doc["estimate"]["std_error"],
            doc["estimate"]["ci95_upper"]) == (mean, se, ci95)
    assert doc["verdict"] == {"bound_value": tightest, "ci95_upper": ci95,
                              "slack_ratio": tightest / ci95, "satisfied": ci95 <= tightest}

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(DETERMINISM_SWEEP_DOC))
    assert cli.main(["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path / "s"),
                     "--deterministic-output"]) == 0
    with open(tmp_path / "s" / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["b"] == "1"]
    _, problem, cert = li.build_problem(DETERMINISM_SWEEP_DOC["problems"][0])
    spec = DETERMINISM_SWEEP_DOC["sweep"]
    x0 = np.zeros(problem.dimension)
    assert [int(r["T"]) for r in rows] == spec["T_grid"]
    for row in rows:
        T = int(row["T"])
        bounds = _sqrt_c2_bounds(problem, cert, float(np.sum(cert.x_star ** 2)), T)
        mean, se, ci95 = _single_sample_statistics(problem, cert, x0, T, bounds["gamma"],
                                                   spec["n_seeds"], spec["base_seed"])
        tightest = min(bounds[k] for k in ("generic", "polynomial", "sqrt_general", "sqrt_c2"))
        assert row == {
            "problem_id": "p", "T": str(T), "b": "1", "C": "2.0", "beta": "0.5",
            "gamma": repr(bounds["gamma"]), "n_seeds": str(spec["n_seeds"]),
            "mean_gap": repr(mean), "std_error": repr(se), "ci95_upper": repr(ci95),
            "theorem1_bound": repr(bounds["generic"]), "corollary_bound": repr(bounds["sqrt_c2"]),
            "satisfied": "true" if ci95 <= tightest else "false", "error": "",
        }
