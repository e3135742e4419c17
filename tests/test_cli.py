"""End-to-end command line behavior: exit codes, files, stdout/stderr."""

import csv
import dataclasses
import datetime
import json
import multiprocessing
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lastiter as li
import lastiter.cli as cli


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_config_doc(T=10, n_seeds=8, **run_overrides):
    run = {
        "T": T,
        "n_seeds": n_seeds,
        "base_seed": 0,
        "schedule": {"variant": "polynomial", "C": 2.0, "beta": 0.5},
        "x0": {"policy": "offset", "distance": 1.0, "seed": 3},
    }
    run.update(run_overrides)
    return {
        "problem": {"generator": "least_squares", "n": 4, "d": 2, "spread": 1.0, "seed": 5},
        "run": run,
    }


def sweep_config_doc():
    return {
        "problems": [
            {"generator": "least_squares", "n": 4, "d": 2, "spread": 1.0, "seed": 7, "id": "p"}
        ],
        "sweep": {
            "T_grid": [5, 10],
            "schedules": [{"variant": "polynomial", "C": 2.0, "beta": 0.5}],
            "b_grid": [1],
            "n_seeds": 3,
            "base_seed": 0,
        },
    }


def lemma_config_doc():
    return {
        "lemmas": {
            "problems": [
                {"generator": "least_squares", "n": 4, "d": 2, "spread": 1.0, "seed": 1}
            ],
            "n_points": 5,
            "n_pairs": 3,
            "eps_grid": [1.0],
            "gamma_l_grid": [0.5],
            "weight_T_grid": [3, 10],
            "weight_phi_grid": [0.0, 0.5],
            "exponent_t_grid": [1.0, 10.0, 100.0],
            "exponent_theta_grid": [0.5, 1.0],
            "exp_convexity_x_grid": [0.0, 1.0, 2.0],
            "exp_convexity_a_grid": [1.0, 2.0],
            "gautschi_x_grid": [1.0, 10.0],
            "gautschi_c_grid": [0.0, 0.5, 1.0],
        }
    }


# -- run ---------------------------------------------------------------------


def test_run_writes_report_and_exits_zero(tmp_path, capsys):
    config = write_config(tmp_path, "run.json", run_config_doc())
    out = tmp_path / "out"
    code = cli.main([
        "run", "--config", config, "--out", str(out),
        "--deterministic-output", "--dump-seeds",
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema"] == "lastiter-report/1"
    assert doc["verdict"]["satisfied"] is True
    assert doc["run"]["T"] == 10
    assert doc["run"]["gamma_used"] == pytest.approx(doc["bounds"]["gamma"])
    assert doc["generated_at"] is None
    seeds = (out / "seeds.csv").read_text().strip().splitlines()
    assert seeds[0] == "seed,gap"
    assert len(seeds) == 1 + 8
    assert seeds[1].startswith("0,")
    stdout = capsys.readouterr().out
    assert "satisfied" in stdout
    assert "report.json" in stdout


def test_seeds_csv_holds_each_seed_and_its_gap(tmp_path, monkeypatch):
    """One row per seed from base_seed on, the gap as its full repr, CRLF rows."""
    checks = []
    check_cell = cli.check_cell
    monkeypatch.setattr(cli, "check_cell", lambda *a, **k: checks.append(check_cell(*a, **k)) or checks[-1])
    config = write_config(tmp_path, "run.json", run_config_doc(n_seeds=6, base_seed=40))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out), "--dump-seeds"]) == 0
    gaps = checks[0].estimate.per_seed_gaps
    rows = "".join(f"{40 + i},{float(g)!r}\r\n" for i, g in enumerate(gaps))
    assert (out / "seeds.csv").read_bytes() == ("seed,gap\r\n" + rows).encode()


def test_run_without_dump_seeds_writes_no_csv(tmp_path):
    config = write_config(tmp_path, "run.json", run_config_doc(n_seeds=2))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    assert not (out / "seeds.csv").exists()
    assert (out / "report.json").exists()


def test_run_exit_two_on_violated_bound(tmp_path, capsys, monkeypatch):
    import lastiter.montecarlo as mc

    real_estimate = mc.estimate_gap

    def pessimist(*args, **kwargs):
        # an upper confidence limit above every bound the run is checked against
        return dataclasses.replace(real_estimate(*args, **kwargs), ci95_upper=1e30)

    monkeypatch.setattr(mc, "estimate_gap", pessimist)
    config = write_config(tmp_path, "run.json", run_config_doc(n_seeds=2))
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "VIOLATED" in capsys.readouterr().out
    verdict = json.loads((tmp_path / "out" / "report.json").read_text())["verdict"]
    assert verdict["satisfied"] is False
    assert verdict["ci95_upper"] == 1e30


def test_run_writes_null_slack_ratio_when_ci95_upper_is_not_positive(tmp_path, capsys):
    """f_i = x^2/2 has x* = 0 and inf f = 0 exactly; at gamma 0.9 the iterates underflow to 0."""
    li.save_problem(tmp_path / "p.json", li.LeastSquaresProblem(np.ones((4, 1, 1)), np.zeros((4, 1))))
    doc = {
        "problem": {"file": str(tmp_path / "p.json")},
        "run": {"T": 3000, "n_seeds": 20, "base_seed": 0,
                "schedule": {"variant": "constant", "gamma": 0.9},
                "x0": {"policy": "offset", "distance": 1.0, "seed": 1}},
    }
    config = write_config(tmp_path, "run.json", doc)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out), "--deterministic-output"]) == 0
    verdict = json.loads((out / "report.json").read_text())["verdict"]
    assert verdict["ci95_upper"] == 0.0 < verdict["bound_value"]
    assert verdict["slack_ratio"] is None
    assert verdict["satisfied"] is True
    assert "slack_ratio=n/a satisfied" in capsys.readouterr().out


@pytest.mark.parametrize("b", [1, 3])
def test_run_is_the_one_cell_sweep(tmp_path, b):
    problem = {"generator": "least_squares", "n": 6, "d": 2, "spread": 1.0, "seed": 5}
    schedule = {"variant": "polynomial", "C": 2.0, "beta": 0.5}
    x0 = {"policy": "offset", "distance": 1.0, "seed": 3}
    seeds = {"n_seeds": 12, "base_seed": 7}
    run_doc = {"problem": problem,
               "run": {"T": 40, "batch_size": b, "schedule": schedule, "x0": x0, **seeds}}
    sweep_doc = {"problems": [problem],
                 "sweep": {"T_grid": [40], "b_grid": [b], "schedules": [schedule], "x0": x0, **seeds}}
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert cli.main(["run", "--config", write_config(tmp_path, "run.json", run_doc),
                     "--out", str(run_out), "--deterministic-output"]) == 0
    assert cli.main(["sweep", "--config", write_config(tmp_path, "sweep.json", sweep_doc),
                     "--out", str(sweep_out), "--deterministic-output"]) == 0
    report = json.loads((run_out / "report.json").read_text())
    with open(sweep_out / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    # repr-formatted CSV floats and JSON floats both round-trip, so == is bitwise
    assert float(row["gamma"]) == report["run"]["gamma_used"] == report["bounds"]["gamma"]
    for key in ("mean_gap", "std_error", "ci95_upper"):
        assert float(row[key]) == report["estimate"][key]
    assert float(row["theorem1_bound"]) == report["bounds"]["generic"]
    assert float(row["corollary_bound"]) == report["bounds"]["sqrt_c2"]
    applicable = [report["bounds"][k] for k in ("generic", "polynomial", "sqrt_general", "sqrt_c2")]
    assert report["verdict"]["bound_value"] == min(applicable)
    assert row["satisfied"] == "true" and report["verdict"]["satisfied"] is True
    assert row["error"] == ""


def test_run_config_errors_exit_one_with_details(tmp_path, capsys):
    config = write_config(tmp_path, "bad.json", run_config_doc(T=2, n_seeds=0))
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "lastiter run: error:" in err
    assert "run.T" in err
    assert "run.n_seeds" in err


def test_integer_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    doc = run_config_doc()
    doc["problem"]["spread"] = 10**400
    config = write_config(tmp_path, "huge.json", doc)
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "problem[0].spread: must be a finite number >= 0" in err
    assert "Traceback" not in err


def test_offset_x0_past_the_float_range_is_a_config_error(tmp_path, capsys):
    doc = run_config_doc(x0={"policy": "offset", "distance": 1.7e308, "seed": 1})
    doc["problem"].update(n=10, seed=3)
    config = write_config(tmp_path, "far.json", doc)
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "run.x0.distance: 1.7e+308 from x* leaves the float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, error", [
    (["run"], "run.T: bound comparison requires an integer T >= 3 that fits a float"),
    (["sweep"], "sweep.T_grid: must be a nonempty list of integers >= 3 that fit a float"),
    (["bound", "--C", "2"], "T must fit the float range"),
    (["bound", "--gamma", "0.1"], "T must fit the float range"),
])
def test_horizon_past_the_float_range_is_an_input_error(tmp_path, capsys, command, error):
    if command == ["run"]:
        argv = ["--config", write_config(tmp_path, "run.json", run_config_doc(T=10**400))]
    elif command == ["sweep"]:
        doc = sweep_config_doc()
        doc["sweep"]["T_grid"] = [5, 10**400]
        argv = ["--config", write_config(tmp_path, "sweep.json", doc)]
    else:
        argv = ["--horizon", str(10**400), "--smoothness", "1", "--distance-sq", "1"]
    code = cli.main([*command, *argv, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"lastiter {command[0]}: error:", f"  {error}"]
    assert "Traceback" not in err


def one_input_error(capsys, command, argv, error):
    """The command exits 1 and prints exactly its error header and one error line."""
    assert cli.main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"lastiter {command}: error:", f"  {error}"]
    assert "Traceback" not in err


NAN = float("nan")
# A field of a saved n=4, d=2 problem document, replaced by a value its family refuses.
BAD_PROBLEM_FILES = {
    "weights-sum-to-half": ("least_squares", "weights", [0.125] * 4, "weights must sum to 1, got 0.5"),
    "negative-weight": ("least_squares", "weights", [0.5, 0.5, 0.25, -0.25],
                        "weights must be finite and strictly positive"),
    "offsets-shape": ("least_squares", "offsets", [[0.0, 0.0]] * 3,
                      "offsets must have shape (4, 2), got (3, 2)"),
    "nonfinite-design": ("least_squares", "design", [[[NAN, NAN]] * 2] * 4,
                         "design and offsets must be finite"),
    "weights-shape": ("least_squares", "weights", [1 / 3] * 3, "weights must have shape (4,)"),
    "2d-design": ("least_squares", "design", [[1.0, 0.0]] * 4,
                  "design must have shape (n, m, d), each at least 1"),
    "empty-design": ("least_squares", "design", [[[], []]] * 4,
                     "design must have shape (n, m, d), each at least 1"),
    "constant-components": ("least_squares", "design", [[[0.0, 0.0]] * 2] * 4,
                            "all components are constant; max smoothness must be positive"),
    "1d-features": ("logistic", "features", [1.0, 0.0, 0.0, 1.0],
                    "features must have shape (n, d), each at least 1"),
    "nonfinite-features": ("logistic", "features", [[NAN, 0.0]] * 4, "features must be finite"),
    "label-not-sign": ("logistic", "labels", [0.5, 1.0, -1.0, 1.0],
                       "labels must be a length-n vector of +/-1"),
    "zero-feature-row": ("logistic", "features", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                         "zero feature row makes a component constant"),
    "unknown-schema": ("least_squares", "schema", "lastiter-problem/2",
                       "unrecognized problem schema 'lastiter-problem/2'"),
    "unknown-kind": ("least_squares", "kind", "hinge", "unrecognized problem kind 'hinge'"),
}


@pytest.mark.parametrize("kind, field, value, reason", BAD_PROBLEM_FILES.values(), ids=BAD_PROBLEM_FILES)
def test_problem_file_that_breaks_its_family_rules_is_an_input_error(tmp_path, capsys, kind, field,
                                                                     value, reason):
    problem = (li.make_least_squares(n=4, d=2, spread=1.0, seed=5) if kind == "least_squares"
               else li.make_logistic(n=4, d=2, seed=1))[0]
    saved = li.problem_to_doc(problem)
    (saved if field == "schema" else saved["problem"])[field] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(saved))
    doc = run_config_doc()
    doc["problem"] = {"file": str(path)}
    argv = ["--config", write_config(tmp_path, "run.json", doc), "--out", str(tmp_path / "out")]
    one_input_error(capsys, "run", argv, f"problem[0]: cannot load {str(path)!r}: {reason}")


@pytest.mark.parametrize("command, content, reason", [
    ("run", b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("sweep", b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("verify-lemmas", b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("run", b'{"run": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
], ids=["run", "sweep", "verify-lemmas", "run-not-utf8"])
def test_config_that_is_not_json_is_an_input_error(tmp_path, capsys, command, content, reason):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    one_input_error(capsys, command, ["--config", str(path), "--out", str(tmp_path / "out")],
                    f"config: invalid JSON ({reason})")


def test_run_refuses_a_file_with_a_forged_certificate(tmp_path, capsys):
    """A certificate comes from the arrays: a file that carries its own is refused, not trusted."""
    problem, cert = li.make_least_squares(n=10, d=2, spread=1.0, seed=101)
    forged = {**li.problem_to_doc(problem), "certificate": {
        "x_star": (cert.x_star + 3.0).tolist(), "inf_f": cert.inf_f - 5.0,
        "sigma_star_sq": cert.sigma_star_sq * 1e6, "grad_norm_residual": 0.0, "tol": 1e-10,
    }}
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forged))
    doc = run_config_doc(T=400, n_seeds=200, x0={"policy": "zeros"})
    doc["problem"] = {"file": str(path)}
    config = write_config(tmp_path, "run.json", doc)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"problem[0]: cannot load {str(path)!r}: unknown keys ['certificate']" in err
    assert "certificates are derived from the arrays" in err
    assert not (tmp_path / "out").exists()


def test_report_certificate_of_a_file_is_the_generators(tmp_path):
    doc = run_config_doc(n_seeds=4)
    spec = {"generator": "logistic", "n": 6, "d": 3, "seed": 8}
    reports = []
    for name, problem_spec in (("generated", spec), ("file", {"file": str(tmp_path / "p.json")})):
        if name == "file":
            li.save_problem(tmp_path / "p.json", li.make_logistic(6, 3, 8)[0])
        config = write_config(tmp_path, f"{name}.json", {**doc, "problem": problem_spec})
        out = tmp_path / name
        assert cli.main(["run", "--config", config, "--out", str(out), "--deterministic-output"]) == 0
        reports.append(json.loads((out / "report.json").read_text())["problem"])
    generated, loaded = reports
    assert loaded["certificate"] == generated["certificate"]
    assert loaded["problem"] == generated["problem"]
    assert set(generated["certificate"]) == {
        "x_star", "inf_f", "sigma_star_sq", "grad_norm_residual", "tol"}


@pytest.mark.parametrize("features, labels", [
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, -1.0, 1.0]),
], ids=["separable", "separable-along-one-direction"])
def test_run_refuses_a_logistic_file_whose_mean_has_no_minimizer(tmp_path, capsys, features, labels):
    """Separable data drive the loss toward 0 without a minimizer; Newton steps see it in milliseconds."""
    li.save_problem(tmp_path / "p.json", li.LogisticProblem(features, labels))
    doc = run_config_doc()
    doc["problem"] = {"file": str(tmp_path / "p.json")}
    start = time.perf_counter()
    assert cli.main(["run", "--config", write_config(tmp_path, "run.json", doc),
                     "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 2.0  # a gradient-descent certifier took 5-7 s to give up
    err = capsys.readouterr().err
    header, line = err.splitlines()
    assert header == "lastiter run: error:"
    assert line.startswith("  problem[0]: ") and line.endswith("the mean has no minimizer")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_divergence_exits_one(tmp_path, capsys, monkeypatch):
    import lastiter.montecarlo as mc

    def explode(*args, **kwargs):
        raise li.DivergenceError(step=7, seed=3)

    monkeypatch.setattr(mc, "estimate_gap", explode)
    config = write_config(tmp_path, "run.json", run_config_doc(n_seeds=2))
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "diverged at step 7" in capsys.readouterr().err


def test_run_with_huge_finite_gaps_writes_a_complete_report(tmp_path):
    # gaps near 1e180: their squared deviations pass the largest float
    doc = run_config_doc(T=5, n_seeds=50, x0={"policy": "explicit", "values": [1e90, -1e90]})
    doc["problem"] = {"generator": "least_squares", "n": 10, "d": 2, "spread": 1.0, "seed": 3}
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, "run.json", doc), "--out", str(out)])
    assert code in (0, 2)
    estimate = json.loads((out / "report.json").read_text())["estimate"]
    assert 0 < estimate["std_error"] < estimate["ci95_upper"] < float("inf")


def test_untyped_value_error_is_a_bug_and_propagates(tmp_path, monkeypatch):
    import lastiter.montecarlo as mc

    def broken(*args, **kwargs):
        raise ValueError("a bug, not an input fault")

    monkeypatch.setattr(mc, "estimate_gap", broken)
    config = write_config(tmp_path, "run.json", run_config_doc(n_seeds=2))
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])


def test_run_missing_config_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run"])
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_run_deterministic_output_is_byte_identical_across_workers(tmp_path):
    config = write_config(tmp_path, "run.json", run_config_doc())
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["run", "--config", config, "--out", str(out1),
                     "--workers", "1", "--deterministic-output"]) == 0
    assert cli.main(["run", "--config", config, "--out", str(out2),
                     "--workers", "2", "--deterministic-output"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# -- workers resolution ----------------------------------------------------------


def test_workers_flag_must_be_positive(tmp_path, capsys):
    config = write_config(tmp_path, "run.json", run_config_doc(n_seeds=2))
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "o"),
                     "--workers", "0"])
    assert code == 1
    assert "--workers" in capsys.readouterr().err


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_run_forks_its_pools_whatever_the_start_method(tmp_path):
    # a design large enough for a writer's pool of two, and seeds for the estimate's
    doc = run_config_doc(n_seeds=8)
    doc["problem"] = {"generator": "least_squares", "n": 16, "d": 64, "spread": 1.0, "seed": 5}
    config = write_config(tmp_path, "run.json", doc)
    argv = ["run", "--config", config, "--workers", "2", "--deterministic-output", "--out"]
    assert cli.main(argv + [str(tmp_path / "here")]) == 0
    # spawn is the default, and a spawned worker fails the run; forks are counted
    script = (
        "import multiprocessing, sys\n"
        "from multiprocessing import context\n"
        "multiprocessing.set_start_method('spawn', force=True)\n"
        "def spawn(process): raise AssertionError('a pool worker was spawned')\n"
        "def fork(process, popen=context.ForkProcess._Popen):\n"
        "    print('forked', file=sys.stderr)\n"
        "    return popen(process)\n"
        "context.SpawnProcess._Popen = staticmethod(spawn)\n"
        "context.ForkProcess._Popen = staticmethod(fork)\n"
        "from lastiter.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv, str(tmp_path / "spawn")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # two workers for the estimate, and two for the writer where two CPUs are usable
    assert proc.stderr.count("forked") == 2 + (2 if li.reporting._fork_cpus() > 1 else 0)
    assert (tmp_path / "spawn" / "report.json").read_bytes() == \
        (tmp_path / "here" / "report.json").read_bytes()


# -- sweep -------------------------------------------------------------------------


def test_sweep_writes_tables(tmp_path, capsys):
    config = write_config(tmp_path, "sweep.json", sweep_config_doc())
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", config, "--out", str(out),
                     "--deterministic-output"])
    assert code == 0
    table = (out / "sweep.csv").read_text().strip().splitlines()
    assert table[0] == ",".join(li.SWEEP_COLUMNS)
    assert len(table) == 1 + 2  # two T values, one schedule, one batch size
    loglog = (out / "sweep_loglog.csv").read_text().strip().splitlines()
    assert loglog[0].startswith("problem_id,b,C,beta,log10_T")
    assert len(loglog) == 1 + 2
    meta = json.loads((out / "sweep_meta.json").read_text())
    assert meta["schema"] == "lastiter-sweep-meta/1"
    assert meta["n_rows"] == 2
    assert meta["n_errors"] == 0
    assert "sweep: 2 rows (0 errors)" in capsys.readouterr().out


def test_sweep_mixed_errors_keep_exit_zero(tmp_path):
    doc = sweep_config_doc()
    doc["sweep"]["schedules"].append({"variant": "constant", "gamma": 100.0})
    config = write_config(tmp_path, "sweep.json", doc)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    meta = json.loads((out / "sweep_meta.json").read_text())
    assert meta["n_rows"] == 4
    assert meta["n_errors"] == 2
    # error rows are excluded from the log-log table
    loglog = (out / "sweep_loglog.csv").read_text().strip().splitlines()
    assert len(loglog) == 1 + 2


def test_sweep_exits_one_when_every_cell_fails(tmp_path, capsys):
    doc = sweep_config_doc()
    doc["sweep"]["schedules"] = [{"variant": "constant", "gamma": 100.0}]
    config = write_config(tmp_path, "sweep.json", doc)
    code = cli.main(["sweep", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "every cell failed" in capsys.readouterr().err


# -- bound --------------------------------------------------------------------------


def test_bound_prints_table_without_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["bound", "--horizon", "100", "--smoothness", "1.0",
                     "--distance-sq", "1.0", "--noise", "0.5", "--C", "2"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    out = capsys.readouterr().out
    assert "generic_bound" in out
    assert "sqrt_c2_bound" in out
    assert "tightest_bound" in out


def test_bound_gamma_form_and_output_files(tmp_path, capsys):
    out = tmp_path / "b"
    code = cli.main(["bound", "--horizon", "50", "--smoothness", "2.0",
                     "--distance-sq", "1.5", "--noise", "0.1",
                     "--gamma", "0.1", "--out", str(out),
                     "--deterministic-output"])
    assert code == 0
    doc = json.loads((out / "bound.json").read_text())
    assert doc["schema"] == "lastiter-bound/1"
    assert doc["inputs"]["schedule"]["variant"] == "constant"
    expected = li.last_iterate_bound(0.1, 2.0, 1.5, 0.1, 50)
    assert doc["bounds"]["generic"] == pytest.approx(expected, rel=1e-12)
    assert doc["tightest"] == doc["bounds"]["generic"]
    table = (out / "bound.csv").read_text().strip().splitlines()
    assert table[0].startswith("T,gamma,L,D_sq")
    assert len(table) == 2
    stdout = capsys.readouterr().out
    assert "polynomial_bound" not in stdout  # constant step has no corollary


def test_bound_reports_horizon_for_target(capsys):
    code = cli.main(["bound", "--horizon", "10", "--smoothness", "1.0",
                     "--distance-sq", "1.0", "--C", "2",
                     "--target-accuracy", "18.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "horizon_for_target" in out
    line = next(l for l in out.splitlines() if l.startswith("horizon_for_target"))
    assert line.split()[-1] == "14"


def test_bound_requires_exactly_one_step_spec(capsys):
    both = cli.main(["bound", "--horizon", "10", "--smoothness", "1.0",
                     "--distance-sq", "1.0", "--gamma", "0.1", "--C", "2"])
    assert both == 1
    assert "exactly one" in capsys.readouterr().err
    neither = cli.main(["bound", "--horizon", "10", "--smoothness", "1.0",
                        "--distance-sq", "1.0"])
    assert neither == 1


def test_bound_refuses_beta_without_C(capsys):
    base = ["bound", "--horizon", "10", "--smoothness", "1.0", "--distance-sq", "1.0"]
    assert cli.main([*base, "--gamma", "0.1", "--beta", "0.3"]) == 1
    assert "--beta sets the polynomial step, so it needs --C" in capsys.readouterr().err
    # under --C, beta defaults to 0.5
    assert cli.main([*base, "--C", "2"]) == 0
    default = capsys.readouterr().out
    assert cli.main([*base, "--C", "2", "--beta", "0.5"]) == 0
    assert capsys.readouterr().out == default
    assert cli.main([*base, "--C", "2", "--beta", "0.3"]) == 0
    assert capsys.readouterr().out != default


def test_bound_invalid_window_exits_one(capsys):
    code = cli.main(["bound", "--horizon", "10", "--smoothness", "1.0",
                     "--distance-sq", "1.0", "--gamma", "1.0"])
    assert code == 1
    assert "lastiter bound: error:" in capsys.readouterr().err


# -- verify-lemmas ---------------------------------------------------------------------


def test_verify_lemmas_writes_battery_table(tmp_path, capsys):
    config = write_config(tmp_path, "lem.json", lemma_config_doc())
    out = tmp_path / "out"
    code = cli.main(["verify-lemmas", "--config", config, "--out", str(out),
                     "--deterministic-output"])
    assert code == 0
    table = (out / "lemmas.csv").read_text().strip().splitlines()
    assert table[0] == "lemma_id,grid_size,worst_slack,worst_point,passed,flagged"
    assert len(table) == 1 + len(li.BATTERY_ORDER)
    doc = json.loads((out / "lemmas.json").read_text())
    assert doc["schema"] == "lastiter-lemmas/1"
    ids = [r["lemma_id"] for r in doc["results"]]
    assert ids == list(li.BATTERY_ORDER)
    exponent = next(r for r in doc["results"] if r["lemma_id"] == "exponent_inequality")
    assert exponent["flagged"] is True
    assert exponent["details"]["boundary_lhs"] == 3.0
    stdout = capsys.readouterr().out
    assert "(flagged boundary, not gating)" in stdout
    assert stdout.count("pass") >= len(li.BATTERY_ORDER) - 1


@pytest.mark.parametrize("weight_T_grid", [
    [1099511627776],
    {"min": 1, "max": 1e21, "count": 3, "spacing": "log-int"},
])
def test_verify_lemmas_rejects_horizons_past_the_memory_budget(tmp_path, capsys, weight_T_grid):
    doc = lemma_config_doc()
    doc["lemmas"]["weight_T_grid"] = weight_T_grid
    config = write_config(tmp_path, "lem.json", doc)
    code = cli.main(["verify-lemmas", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "lastiter verify-lemmas: error:",
        f"  lemmas.weight_T_grid: entries must lie in [1, {li.MEMORY_BUDGET_ENTRIES}]",
    ]


@pytest.mark.parametrize("lemmas, label", [
    ({"exponent_t_grid": {"min": 1, "max": 10, "count": 10**12, "spacing": "log"}},
     "lemmas.exponent_t_grid"),
    ({"gautschi_x_grid": {"min": 0.1, "max": 1e4, "count": 30_000, "spacing": "log"},
      "gautschi_c_grid": {"min": 0.0, "max": 1.0, "count": 30_000}},
     "lemmas.gautschi_x_grid with gautschi_c_grid"),
    ({"n_points": 10**7}, "lemmas.n_points with eps_grid"),
    ({"n_pairs": 10**7}, "lemmas.gamma_l_grid with n_pairs"),
    ({"n_points": 10**6, "eps_grid": [1.0]}, "lemmas.n_points at problem[0]"),
])
def test_verify_lemmas_refuses_arrays_past_the_memory_budget(tmp_path, capsys, lemmas, label):
    config = write_config(tmp_path, "lem.json", {"lemmas": lemmas})
    code = cli.main(["verify-lemmas", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[:2] == [
        "lastiter verify-lemmas: error:",
        f"  {label}: asks for an array over the {li.MEMORY_BUDGET_ENTRIES}-entry memory budget",
    ]
    assert "Traceback" not in err


def test_verify_lemmas_filter(tmp_path):
    config = write_config(tmp_path, "lem.json", lemma_config_doc())
    out = tmp_path / "out"
    code = cli.main(["verify-lemmas", "--config", config, "--out", str(out),
                     "--lemma", "gautschi", "--lemma", "weight_bounds"])
    assert code == 0
    table = (out / "lemmas.csv").read_text().strip().splitlines()
    assert len(table) == 3
    assert {line.split(",")[0] for line in table[1:]} == {"gautschi", "weight_bounds"}


def test_verify_lemmas_rejects_unknown_lemma_id(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-lemmas", "--lemma", "nonsense"])
    assert info.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_verify_lemmas_exit_two_on_true_failure(tmp_path, capsys, monkeypatch):
    def broken_battery(entries, grids):
        return [li.LemmaCheckResult(
            lemma_id="gautschi", grid_size=4, worst_slack=-0.5,
            worst_point=(1.0, 0.5, "lower"), passed=False, flagged=False,
        )]

    monkeypatch.setattr(cli, "run_battery", broken_battery)
    code = cli.main(["verify-lemmas", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_lemmas_flagged_failure_does_not_gate(tmp_path, monkeypatch):
    def flagged_battery(entries, grids):
        return [li.LemmaCheckResult(
            lemma_id="exponent_inequality", grid_size=4, worst_slack=-0.2,
            worst_point=(1.0, 0.5), passed=False, flagged=True,
        )]

    monkeypatch.setattr(cli, "run_battery", flagged_battery)
    assert cli.main(["verify-lemmas", "--out", str(tmp_path / "out")]) == 0


# -- the head every JSON document shares --------------------------------------------------


def readme_schemas():
    """{file name: schema} from README's output-file table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return dict(re.findall(r"`(\w+\.json)` \(schema `([^`]+)`\)", readme))


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "timed"])
@pytest.mark.parametrize("command, name", [
    ("run", "report.json"), ("sweep", "sweep_meta.json"), ("bound", "bound.json"),
    ("verify-lemmas", "lemmas.json")])
def test_every_json_document_has_the_shared_head(tmp_path, command, name, deterministic):
    configs = {"run": run_config_doc(n_seeds=2), "sweep": sweep_config_doc(),
               "verify-lemmas": lemma_config_doc()}
    if command == "bound":
        argv = ["--horizon", "10", "--smoothness", "1.0", "--distance-sq", "1.0", "--gamma", "0.1"]
    else:
        argv = ["--config", write_config(tmp_path, "config.json", configs[command])]
    argv += ["--out", str(tmp_path / "out")] + ["--deterministic-output"] * deterministic
    assert cli.main([command, *argv]) == 0
    data = (tmp_path / "out" / name).read_bytes()
    doc = json.loads(data)
    assert data == (json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n").encode("utf-8")
    assert doc["schema"] == readme_schemas()[name]
    assert doc["code_version"] == li.__version__
    if deterministic:
        assert doc["generated_at"] is None
    else:
        stamp = datetime.datetime.fromisoformat(doc["generated_at"])
        assert stamp.utcoffset() == datetime.timedelta(0)


# -- parser level ------------------------------------------------------------------------


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["optimize"])
    assert info.value.code == 1


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lastiter", "bound", "--horizon", "10",
         "--smoothness", "1.0", "--distance-sq", "1.0", "--gamma", "0.1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "tightest_bound" in proc.stdout
