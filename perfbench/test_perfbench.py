"""The benchmark's own tests: its reference computations and a smoke run.

    python3 -m pytest perfbench

The smoke tests run every workload at tiny sizes through ``run.py`` exactly
as a benchmark run does, so a change that breaks a workload's command, its
output checks or its tracing fails here.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_recursion_reproduces_two_quadratics_closed_form():
    """f_1 = x^2/2, f_2 = x^2 at gamma 1/4: E gap_T = 0.75 * 0.40625^T."""
    design = np.zeros((2, 2, 1))
    design[0, 0, 0] = 1.0
    design[1, :, 0] = 1.0
    for T in (0, 1, 2, 7, 30):
        exact = reference.lsq_exact_gap(design, np.zeros((2, 2)), 0.25, T, [1.0])
        assert exact == pytest.approx(0.75 * 0.40625**T, rel=1e-13)


def test_recursion_reproduces_gradient_descent_at_full_batch():
    rng = np.random.default_rng(5)
    n, m, d, T, gamma = 6, 3, 4, 200, 0.05
    A = rng.standard_normal((n, m, d))
    b = rng.standard_normal((n, m))
    cert = reference.lsq_certificate(A, b)
    H = np.einsum("nmi,nmj->ij", A, A) / n
    c = np.einsum("nmi,nm->i", A, b) / n
    x = rng.standard_normal(d)
    x0 = x.copy()
    for _ in range(T):
        x = x - gamma * (H @ x - c)
    e = x - cert.x_star
    gd_gap = 0.5 * e @ H @ e
    assert reference.lsq_exact_gap(A, b, gamma, T, x0, batch_size=n) == pytest.approx(gd_gap, rel=1e-9)


def test_certificates_are_stationary_points():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((8, 2, 3))
    b = rng.standard_normal((8, 2))
    lsq = reference.lsq_certificate(A, b)
    assert lsq.residual < 1e-12
    F = rng.standard_normal((10, 3))
    y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
    logistic = reference.logistic_certificate(np.vstack([F, 1.5 * F]), np.concatenate([y, -y]))
    assert logistic.residual < 1e-12


def test_sqrt_c2_formula():
    T = 100
    want = 17.0 * 2.0 * 3.0 / 10.0 + 34.0 * math.log(101.0) * 0.5 / (2.0 * 10.0)
    assert reference.sqrt_c2_bound(2.0, 3.0, 0.5, T) == pytest.approx(want, rel=1e-15)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.SIZES))
def test_smoke(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "mc-short-runs", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
