"""The four benchmark workloads: their inputs and their output checks.

Each workload turns ``--seed`` into a config file and one ``lastiter``
command line.  Its check reads what the command wrote and compares it with
the independent computations in ``reference.py`` or with properties every
correct output has; it never compares against a stored copy of an earlier
output.  A check returns the number of failed operations and a list of
violated expectations; the operations are the Monte Carlo cells (one per
``run``, one per sweep row) and the non-flagged battery rows.  An operation
the program reports as failed (an error row, a violated bound, a failing
battery row) is counted, not checked further.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference

# A sweep cell or run fails its exact-expectation check when the estimate sits
# more than Z_LIMIT standard errors from the exact gap.  The gap is skewed and
# the standard error comes from the same few seeds, so the tail of z is much
# heavier than a normal's at small seed counts: Z_LIMIT and
# SWEEP_SEEDS_PER_CELL are chosen together (README.md, "Exact checks").
Z_LIMIT = 8.0
SWEEP_SEEDS_PER_CELL = 96

# b = n cells are deterministic gradient descent: their mean must match the
# recursion to rounding.
FULL_BATCH_RTOL = 1e-9
FULL_BATCH_ATOL = 1e-12

SLACK_TOL = -1e-9
LEMMA_IDS = (
    "variance_transfer",
    "one_step_descent",
    "weight_bounds",
    "exponent_inequality",
    "exp_convexity",
    "gautschi",
    "grad_second_moment_transfer",
)
EPS_GRID = {"min": 1e-3, "max": 1e3, "count": 7, "spacing": "log"}
GAMMA_L_GRID = [0.1, 0.5, 0.9]
SQRT_C2 = {"variant": "polynomial", "C": 2.0, "beta": 0.5}

SIZES = {
    "mc-short-runs": {
        "smoke": {"n_seeds": 400},
        "bench": {"n_seeds": 20_000},
        "reference": {"n_seeds": 100_000},
    },
    "sweep-long-horizon": {
        "smoke": {"T_grid": [10, 40, 160], "n_seeds": SWEEP_SEEDS_PER_CELL},
        "bench": {"T_grid": [200, 800, 1600], "n_seeds": SWEEP_SEEDS_PER_CELL},
        "reference": {"T_grid": [400, 1600, 6400], "n_seeds": 16},
    },
    "large-family-run": {
        "smoke": {"n": 8, "d": 16},
        "bench": {"n": 128, "d": 128},
        "reference": {"n": 512, "d": 128},
    },
    "lemma-battery": {
        "smoke": {"scale": 1},
        "bench": {"scale": 20},
        "reference": {"scale": 50},
    },
}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs."""

    workload: str
    subcommand: str  # lastiter subcommand; also names the plan loader
    flags: tuple  # extra CLI flags after --config/--out
    config: dict
    ops_per_round: int
    # Rounds a run makes at the least, even past its seconds: a workload whose
    # rounds are long needs a few for the median to drop a slow one.
    min_rounds: int = 1


class Checker:
    """Collects violated expectations for one workload's outputs."""

    def __init__(self):
        self.errors = []
        self.failed = 0
        self.work = 0  # SGD steps, or battery grid points, in one round

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)

    def close(self, got, want, rtol, what, atol=0.0):
        self.expect(
            got is not None and abs(got - want) <= rtol * abs(want) + atol,
            f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g}, atol {atol:g})",
        )


def _seeds(seed: int, count: int) -> list:
    """Independent 31-bit input seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def make_inputs(workload: str, seed: int, size: str = "bench") -> Inputs:
    sz = SIZES[workload][size]
    s = _seeds(seed, 4)
    if workload == "mc-short-runs":
        n_seeds, T = sz["n_seeds"], 5
        config = {
            "problem": {"generator": "least_squares", "id": "mc", "n": 10, "d": 2,
                        "spread": 1.0, "seed": s[0]},
            "run": {"T": T, "n_seeds": n_seeds, "base_seed": s[1], "schedule": SQRT_C2,
                    "x0": {"policy": "offset", "distance": 1.0, "seed": s[2]}},
        }
        flags = ("--workers", "1", "--dump-seeds", "--deterministic-output")
        return Inputs(workload, "run", flags, config, 1)
    if workload == "sweep-long-horizon":
        problems = [
            {"generator": "least_squares", "id": "lsq_a", "n": 16, "d": 4, "spread": 1.0, "seed": s[0]},
            {"generator": "least_squares", "id": "lsq_b", "n": 16, "d": 8, "spread": 0.5, "seed": s[1]},
            {"generator": "logistic", "id": "logistic", "n": 16, "d": 4, "seed": s[2]},
        ]
        b_grid = [1, 4, 16]
        config = {
            "problems": problems,
            "sweep": {"T_grid": sz["T_grid"], "schedules": [SQRT_C2], "b_grid": b_grid,
                      "n_seeds": sz["n_seeds"], "base_seed": s[3], "x0": {"policy": "zeros"}},
        }
        cells = len(problems) * len(sz["T_grid"]) * len(b_grid)
        return Inputs(workload, "sweep", ("--workers", "2", "--deterministic-output"), config, cells)
    if workload == "large-family-run":
        n_seeds, T = 4, 3
        config = {
            "problem": {"generator": "least_squares", "id": "large", "n": sz["n"], "d": sz["d"],
                        "spread": 1.0, "seed": s[0]},
            "run": {"T": T, "n_seeds": n_seeds, "base_seed": s[1], "schedule": SQRT_C2,
                    "x0": {"policy": "offset", "distance": 1.0, "seed": s[2]}},
        }
        return Inputs(workload, "run", ("--deterministic-output",), config, 1, min_rounds=3)
    if workload == "lemma-battery":
        k = sz["scale"]
        lemmas = {
            "problems": [
                {"generator": "least_squares", "n": 20, "d": 5, "spread": 1.0, "seed": s[0]},
                {"generator": "least_squares", "n": 16, "d": 3, "spread": 0.0, "seed": s[1]},
                {"generator": "logistic", "n": 24, "d": 4, "seed": s[2]},
            ],
            "n_points": 200 * k,
            "n_pairs": 100 * k,
            "point_seed": s[3],
            "eps_grid": EPS_GRID,
            "gamma_l_grid": GAMMA_L_GRID,
        }
        return Inputs(workload, "verify-lemmas", ("--deterministic-output",),
                      {"lemmas": lemmas}, len(LEMMA_IDS) - 1)
    raise KeyError(workload)


# -- checks -------------------------------------------------------------------


def _generate(spec: dict):
    """The family a problem spec names, from the package's public generators."""
    import lastiter

    if spec["generator"] == "least_squares":
        return lastiter.make_least_squares(spec["n"], spec["d"], spec["spread"], spec["seed"])[0]
    return lastiter.make_logistic(spec["n"], spec["d"], spec["seed"])[0]


def _check_report(inputs: Inputs, out_dir: str, returncode: int, chk: Checker):
    """Checks shared by both `run` workloads; returns (report, design, offsets, x0)."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    satisfied = report["verdict"]["satisfied"]
    chk.failed += 0 if satisfied else 1
    chk.expect(returncode == (0 if satisfied else 2), f"exit code {returncode} vs verdict {satisfied}")
    spec, run_cfg = inputs.config["problem"], inputs.config["run"]
    body = report["problem"]["problem"]
    design = np.asarray(body["design"], dtype=float)
    offsets = np.asarray(body["offsets"], dtype=float)
    problem = _generate(spec)
    chk.expect(np.array_equal(design, problem.design) and np.array_equal(offsets, problem.offsets)
               and body["weights"] == problem.weights.tolist(),
               "embedded problem does not round-trip to the generated family bit for bit")
    cert = reference.lsq_certificate(design, offsets)
    rep_cert = report["problem"]["certificate"]
    x_rep = np.asarray(rep_cert["x_star"], dtype=float)
    scale = 1.0 + float(np.linalg.norm(cert.x_star))
    chk.expect(float(np.linalg.norm(x_rep - cert.x_star)) <= 1e-8 * scale, "certificate x_star")
    chk.close(rep_cert["inf_f"], cert.inf_f, 1e-9, "certificate inf_f", atol=1e-12)
    chk.close(rep_cert["sigma_star_sq"], cert.sigma_star_sq, 1e-8, "certificate sigma_star_sq", atol=1e-12)
    chk.expect(rep_cert["grad_norm_residual"] <= rep_cert["tol"] and cert.residual <= rep_cert["tol"],
               f"certificate residual {rep_cert['grad_norm_residual']!r} / {cert.residual!r} "
               f"over tol {rep_cert['tol']!r}")
    chk.close(rep_cert["grad_norm_residual"], reference.lsq_gradient_norm(design, offsets, x_rep), 0.0,
              "certificate residual at the reported x_star", atol=1e-10)

    run, est, bounds = report["run"], report["estimate"], report["bounds"]
    T = run["T"]
    chk.work = run["n_seeds"] * T
    chk.expect(T == run_cfg["T"] and run["n_seeds"] == run_cfg["n_seeds"]
               and run["batch_size"] == 1, "run section does not echo the config")
    x0 = np.asarray(run["x0"], dtype=float)
    chk.close(float(np.linalg.norm(x0 - cert.x_star)), run_cfg["x0"]["distance"], 1e-9, "x0 distance")
    chk.close(run["gamma_used"], 1.0 / (2.0 * cert.L * math.sqrt(T)), 1e-12, "gamma_used")
    d_sq = float(np.sum((x0 - cert.x_star) ** 2))
    chk.close(bounds["sqrt_c2"], reference.sqrt_c2_bound(cert.L, d_sq, cert.sigma_star_sq, T),
              1e-8, "sqrt_c2 corollary")
    tightest = min(v for k, v in bounds.items()
                   if k in ("generic", "polynomial", "sqrt_general", "sqrt_c2") and v is not None)
    chk.expect(not satisfied or est["ci95_upper"] <= tightest,
               f"verdict satisfied but ci95_upper {est['ci95_upper']!r} > bound {tightest!r}")
    return report, design, offsets, x0


def _check_mc(inputs, out_dir, returncode, chk):
    report, design, offsets, x0 = _check_report(inputs, out_dir, returncode, chk)
    run, est = report["run"], report["estimate"]
    exact = reference.lsq_exact_gap(design, offsets, run["gamma_used"], run["T"], x0)
    z = (est["mean_gap"] - exact) / est["std_error"]
    chk.expect(abs(z) <= Z_LIMIT, f"mean_gap {est['mean_gap']!r} is {z:.2f} standard errors "
               f"from the exact gap {exact!r}")
    with open(os.path.join(out_dir, "seeds.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    base = run["base_seed"]
    chk.expect(rows[0] == ["seed", "gap"], "seeds.csv header")
    body = rows[1:]
    chk.expect(len(body) == run["n_seeds"], f"seeds.csv has {len(body)} rows, want {run['n_seeds']}")
    chk.expect(all(int(r[0]) == base + i for i, r in enumerate(body)), "seeds.csv seed column")
    gaps = [float(r[1]) for r in body]
    chk.expect(min(gaps) >= -1e-12, f"negative gap {min(gaps)!r} in seeds.csv")
    chk.close(math.fsum(gaps) / len(gaps), est["mean_gap"], 1e-12, "mean of seeds.csv")


def _check_sweep(inputs, out_dir, returncode, chk):
    chk.expect(returncode == 0, f"sweep exit code {returncode}")
    sweep_cfg = inputs.config["sweep"]
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "sweep_meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    order = [(spec["id"], T, b) for spec in inputs.config["problems"]
             for T in sweep_cfg["T_grid"] for b in sweep_cfg["b_grid"]]
    chk.expect([(r["problem_id"], int(r["T"]), int(r["b"])) for r in rows] == order,
               "sweep.csv rows are not the (problem, T, b) grid in nested order")
    chk.expect(meta["n_rows"] == len(order) and meta["n_seeds"] == sweep_cfg["n_seeds"],
               "sweep_meta.json does not describe the grid")
    chk.work = sum(int(r["n_seeds"]) * int(r["T"]) for r in rows)
    families = {}
    for spec in inputs.config["problems"]:
        problem = _generate(spec)
        if spec["generator"] == "least_squares":
            cert = reference.lsq_certificate(problem.design, problem.offsets)
        else:
            cert = reference.logistic_certificate(problem.features, problem.labels)
        families[spec["id"]] = (spec, problem, cert)
    for row in rows:
        label = f"{row['problem_id']} T={row['T']} b={row['b']}"
        if row["error"] or row["satisfied"] != "true":
            chk.failed += 1
            continue
        spec, problem, cert = families[row["problem_id"]]
        T, b = int(row["T"]), int(row["b"])
        mean, se, ci95 = float(row["mean_gap"]), float(row["std_error"]), float(row["ci95_upper"])
        gamma = float(row["gamma"])
        tightest = min(float(row["theorem1_bound"]), float(row["corollary_bound"]))
        chk.expect(ci95 <= tightest, f"{label}: theorem violated, ci95 {ci95!r} > bound {tightest!r}")
        if b == 1:
            d_sq = float(np.sum(cert.x_star ** 2))  # x0 = 0
            chk.close(gamma, 1.0 / (2.0 * cert.L * math.sqrt(T)), 1e-12, f"{label}: gamma")
            chk.close(float(row["corollary_bound"]),
                      reference.sqrt_c2_bound(cert.L, d_sq, cert.sigma_star_sq, T), 1e-6,
                      f"{label}: sqrt_c2 corollary")
        if spec["generator"] != "least_squares":
            continue
        exact = reference.lsq_exact_gap(problem.design, problem.offsets, gamma, T,
                                        np.zeros(problem.dimension), b)
        if b == problem.n:
            chk.expect(se == 0.0, f"{label}: full-batch cell has std_error {se!r}")
            chk.close(mean, exact, FULL_BATCH_RTOL, f"{label}: full-batch gap", atol=FULL_BATCH_ATOL)
        else:
            z = (mean - exact) / se
            chk.expect(abs(z) <= Z_LIMIT, f"{label}: mean_gap {mean!r} is {z:.2f} standard "
                       f"errors from the exact gap {exact!r}")


def _check_lemmas(inputs, out_dir, returncode, chk):
    with open(os.path.join(out_dir, "lemmas.json"), encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    lemmas = inputs.config["lemmas"]
    chk.expect([r["lemma_id"] for r in results] == list(LEMMA_IDS), "battery rows out of order")
    gate_failed = False
    for r in results:
        if r["lemma_id"] == "exponent_inequality":
            det = r["details"]
            chk.expect(r["flagged"], "exponent_inequality is not flagged")
            chk.expect(det["boundary_lhs"] == 3.0, f"boundary lhs {det['boundary_lhs']!r}")
            chk.close(det["boundary_rhs"], 4.0 * math.log(2.0), 1e-15, "boundary rhs")
            continue
        chk.expect(not r["flagged"], f"{r['lemma_id']} is flagged")
        if not r["passed"]:
            chk.failed += 1
            gate_failed = True
            continue
        chk.expect(r["worst_slack"] >= SLACK_TOL, f"{r['lemma_id']}: worst slack {r['worst_slack']!r}")
    chk.expect(returncode == (2 if gate_failed else 0), f"verify-lemmas exit code {returncode}")
    sizes = {r["lemma_id"]: r["grid_size"] for r in results}
    chk.work = sum(sizes.values())
    n_problems = len(lemmas["problems"])
    n_points, n_pairs = lemmas["n_points"], lemmas["n_pairs"]
    chk.expect(sizes["variance_transfer"] == n_points * EPS_GRID["count"] * n_problems,
               f"variance_transfer grid size {sizes['variance_transfer']}")
    chk.expect(sizes["one_step_descent"] == n_pairs * len(GAMMA_L_GRID) * n_problems,
               f"one_step_descent grid size {sizes['one_step_descent']}")
    want = sum((n_points - 1) * p["n"] + n_points for p in lemmas["problems"])
    chk.expect(sizes["grad_second_moment_transfer"] == want,
               f"grad_second_moment_transfer grid size {sizes['grad_second_moment_transfer']}, want {want}")


_CHECKS = {
    "mc-short-runs": _check_mc,
    "sweep-long-horizon": _check_sweep,
    "large-family-run": _check_report,
    "lemma-battery": _check_lemmas,
}


def check(inputs: Inputs, out_dir: str, returncode: int) -> Checker:
    """Check one round's outputs in out_dir against independent computations."""
    chk = Checker()
    _CHECKS[inputs.workload](inputs, out_dir, returncode, chk)
    return chk
