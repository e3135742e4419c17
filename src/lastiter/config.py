"""Experiment configuration: JSON loading, strict validation, grid resolution.

A config file is a single JSON object.  Validation happens at load and
collects every violated field before raising, so one round trip shows all
problems; anything a downstream operation would reject (step-size window,
horizon floor for bound comparison, batch size versus family size) is
checked here first.  Grid definitions are data, not code: defaults live in
``DEFAULT_LEMMA_CONFIG`` and a config may override any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import json

import numpy as np

from .problems import (
    FiniteSumProblem,
    SolutionCertificate,
    UnsupportedSamplingError,
    load_problem,
    make_least_squares,
    make_logistic,
)
from .reporting import doc_hash
from .rng import DIRECTION_STREAM, check_seed, stream
from .sgd import RunConfig, ScheduleError, resolve_schedule, schedule_from_doc

__all__ = [
    "ConfigError",
    "DEFAULT_LEMMA_CONFIG",
    "LemmaPlan",
    "RunPlan",
    "SweepPlan",
    "build_problem",
    "load_lemma_plan",
    "load_run_plan",
    "load_sweep_plan",
    "resolve_grid",
    "resolve_lemma_grids",
    "resolve_x0",
]

DEFAULT_LEMMA_CONFIG = {
    "problems": [
        {"generator": "least_squares", "n": 20, "d": 5, "spread": 1.0, "seed": 11},
        {"generator": "least_squares", "n": 16, "d": 3, "spread": 0.0, "seed": 12},
        {"generator": "logistic", "n": 24, "d": 4, "seed": 13, "tol": 1e-10},
    ],
    "n_points": 200,
    "n_pairs": 100,
    "point_radius": 2.0,
    "point_seed": 2718,
    "eps_grid": {"min": 1e-3, "max": 1e3, "count": 7, "spacing": "log"},
    "gamma_l_grid": [0.1, 0.5, 0.9],
    "weight_T_grid": {"min": 2, "max": 5000, "count": 48, "spacing": "log-int"},
    "weight_phi_grid": {"min": 0.01, "max": 1.0, "count": 34, "spacing": "linear"},
    "exponent_t_grid": {"min": 1.0, "max": 1e4, "count": 400, "spacing": "log"},
    "exponent_theta_grid": {"min": 1e-3, "max": 2.0, "count": 25, "spacing": "log"},
    "exp_convexity_x_grid": {"min": 0.0, "max": 10.0, "count": 41, "spacing": "linear"},
    "exp_convexity_a_grid": {"min": 1e-3, "max": 10.0, "count": 40, "spacing": "log"},
    "gautschi_x_grid": {"min": 0.1, "max": 1e4, "count": 80, "spacing": "log"},
    "gautschi_c_grid": {"min": 0.0, "max": 1.0, "count": 41, "spacing": "linear"},
}

_GRID_KEYS = tuple(k for k in DEFAULT_LEMMA_CONFIG if k.endswith("_grid"))
_LEMMA_SCALARS = ("n_points", "n_pairs", "point_radius", "point_seed")


class ConfigError(ValueError):
    """Config validation failed; ``errors`` lists every violated field."""

    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and np.isfinite(value)


def resolve_grid(spec, name: str = "grid") -> np.ndarray:
    """Resolve a grid definition to a 1-d array.

    Accepts an explicit nonempty list of numbers or a
    {"min", "max", "count", "spacing"} object with spacing "linear", "log",
    or "log-int" (log-spaced, rounded to unique integers).
    """
    if isinstance(spec, list):
        if not spec or not all(_is_num(v) for v in spec):
            raise ConfigError([f"{name}: explicit grid must be a nonempty list of finite numbers"])
        return np.asarray(spec, dtype=float)
    if not isinstance(spec, dict):
        raise ConfigError([f"{name}: expected a list or a min/max/count/spacing object"])
    unknown = set(spec) - {"min", "max", "count", "spacing"}
    errors = []
    if unknown:
        errors.append(f"{name}: unknown keys {sorted(unknown)}")
    lo, hi, count = spec.get("min"), spec.get("max"), spec.get("count")
    spacing = spec.get("spacing", "linear")
    if not (_is_num(lo) and _is_num(hi) and lo <= hi):
        errors.append(f"{name}: need finite min <= max")
    if not (_is_int(count) and count >= 1):
        errors.append(f"{name}: count must be a positive integer")
    if spacing not in ("linear", "log", "log-int"):
        errors.append(f"{name}: spacing must be linear, log, or log-int")
    if not errors and spacing in ("log", "log-int") and lo <= 0:
        errors.append(f"{name}: log spacing needs min > 0")
    if errors:
        raise ConfigError(errors)
    if spacing == "linear":
        return np.linspace(lo, hi, count)
    values = np.logspace(np.log10(lo), np.log10(hi), count)
    if spacing == "log-int":
        return np.unique(np.maximum(np.rint(values), np.ceil(lo)).astype(int)).astype(float)
    return values


def build_problem(spec: dict, index: int = 0):
    """Build (problem_id, problem, certificate) from a problem spec object.

    Specs name a generator with its parameters, or a "file" with a
    serialized problem document (which must embed a certificate).
    """
    if not isinstance(spec, dict):
        raise ConfigError([f"problem[{index}]: expected an object"])
    if "file" in spec:
        unknown = set(spec) - {"file", "id"}
        if unknown:
            raise ConfigError([f"problem[{index}]: unknown keys {sorted(unknown)}"])
        problem, cert = load_problem(spec["file"])
        if cert is None:
            raise ConfigError([f"problem[{index}]: file {spec['file']!r} has no certificate"])
        return spec.get("id", f"file:{spec['file']}"), problem, cert
    generator = spec.get("generator")
    if generator == "least_squares":
        keys = {"generator", "id", "n", "d", "spread", "seed"}
        defaults = {"spread": 1.0}
    elif generator == "logistic":
        keys = {"generator", "id", "n", "d", "seed", "tol"}
        defaults = {"tol": 1e-10}
    else:
        raise ConfigError(
            [f"problem[{index}].generator: must be 'least_squares' or 'logistic', got {generator!r}"]
        )
    unknown = set(spec) - keys
    errors = []
    if unknown:
        errors.append(f"problem[{index}]: unknown keys {sorted(unknown)}")
    merged = {**defaults, **{k: v for k, v in spec.items() if k not in ("generator", "id")}}
    if not (_is_int(merged.get("n")) and merged["n"] >= 1):
        errors.append(f"problem[{index}].n: must be a positive integer")
    if not (_is_int(merged.get("d")) and merged["d"] >= 1):
        errors.append(f"problem[{index}].d: must be a positive integer")
    if not (_is_int(merged.get("seed")) and merged["seed"] >= 0):
        errors.append(f"problem[{index}].seed: must be a nonnegative integer")
    if generator == "least_squares" and not (_is_num(merged["spread"]) and merged["spread"] >= 0):
        errors.append(f"problem[{index}].spread: must be a finite number >= 0")
    if generator == "logistic" and not (_is_num(merged["tol"]) and merged["tol"] > 0):
        errors.append(f"problem[{index}].tol: must be a positive number")
    if errors:
        raise ConfigError(errors)
    if generator == "least_squares":
        problem, cert = make_least_squares(merged["n"], merged["d"], merged["spread"], merged["seed"])
        default_id = (
            f"least_squares-n{merged['n']}-d{merged['d']}-spread{merged['spread']:g}-seed{merged['seed']}"
        )
    else:
        problem, cert = make_logistic(merged["n"], merged["d"], merged["seed"], tol=merged["tol"])
        default_id = f"logistic-n{merged['n']}-d{merged['d']}-seed{merged['seed']}"
    return spec.get("id", default_id), problem, cert


def resolve_x0(policy, problem: FiniteSumProblem, cert: SolutionCertificate) -> np.ndarray:
    """Initial iterate from a policy object.

    Policies: {"policy": "zeros"}, {"policy": "offset", "distance": r,
    "seed": s} (x* plus r times a seeded unit direction), or
    {"policy": "explicit", "values": [...]}.
    """
    errors = []
    if not isinstance(policy, dict) or "policy" not in policy:
        raise ConfigError(["x0: expected an object with a 'policy' key"])
    kind = policy["policy"]
    if kind == "zeros":
        if set(policy) - {"policy"}:
            raise ConfigError(["x0: zeros policy takes no other keys"])
        return np.zeros(problem.dimension)
    if kind == "offset":
        if set(policy) - {"policy", "distance", "seed"}:
            errors.append("x0: offset policy takes only distance and seed")
        if not (_is_num(policy.get("distance")) and policy["distance"] >= 0):
            errors.append("x0.distance: must be a finite number >= 0")
        if not (_is_int(policy.get("seed")) and policy["seed"] >= 0):
            errors.append("x0.seed: must be a nonnegative integer")
        if errors:
            raise ConfigError(errors)
        direction = stream(policy["seed"], DIRECTION_STREAM).standard_normal(problem.dimension)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.zeros(problem.dimension)
            direction[0] = 1.0
            norm = 1.0
        return cert.x_star + (policy["distance"] / norm) * direction
    if kind == "explicit":
        if set(policy) - {"policy", "values"}:
            raise ConfigError(["x0: explicit policy takes only values"])
        values = policy.get("values")
        if not isinstance(values, list) or len(values) != problem.dimension:
            raise ConfigError([f"x0.values: need a list of length {problem.dimension}"])
        if not all(_is_num(v) for v in values):
            raise ConfigError(["x0.values: entries must be finite numbers"])
        return np.asarray(values, dtype=float)
    raise ConfigError([f"x0.policy: unknown policy {kind!r}"])


def _load_doc(source) -> dict:
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    return doc


def _check_schedule(doc, label: str, errors: list):
    try:
        return schedule_from_doc(doc) if isinstance(doc, dict) else None
    except (ScheduleError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"{label}: {exc}")
        return None
    finally:
        if not isinstance(doc, dict):
            errors.append(f"{label}: expected a schedule object")


def _check_seeds(section: dict, label: str, errors: list):
    """n_seeds and base_seed of a run or sweep section; the range must fit 64 bits."""
    n_seeds = section.get("n_seeds")
    if not (_is_int(n_seeds) and n_seeds >= 1):
        errors.append(f"{label}.n_seeds: must be a positive integer")
    base_seed = section.get("base_seed", 0)
    if not (_is_int(base_seed) and base_seed >= 0):
        errors.append(f"{label}.base_seed: must be a nonnegative integer")
    elif _is_int(n_seeds) and n_seeds >= 1 and base_seed + n_seeds > 2**64:
        errors.append(f"{label}.base_seed: seed range exceeds 64 bits")
    return n_seeds, base_seed


def _check_entries(specs: list, x0_policy, label: str, errors: list) -> list:
    """(id, problem, cert, x0) per problem spec that builds; x0 is None where the policy fails."""
    entries = []
    for i, spec in enumerate(specs):
        try:
            problem_id, problem, cert = build_problem(spec, i)
        except ConfigError as exc:
            errors.extend(exc.errors)
            continue
        x0 = None
        try:
            x0 = resolve_x0(x0_policy, problem, cert)
        except ConfigError as exc:
            errors.extend(f"{label}.{line}" for line in exc.errors)
        entries.append((problem_id, problem, cert, x0))
    return entries


@dataclass(frozen=True)
class RunPlan:
    """Validated single-cell experiment: one problem, one run setting."""

    config_hash: str
    problem_id: str
    problem: FiniteSumProblem
    cert: SolutionCertificate
    template: RunConfig
    n_seeds: int
    base_seed: int


def load_run_plan(source) -> RunPlan:
    """Validate a run config (path or parsed dict) into a RunPlan."""
    doc = _load_doc(source)
    errors = []
    unknown = set(doc) - {"problem", "run"}
    if unknown:
        errors.append(f"config: unknown top-level keys {sorted(unknown)}")
    if "problem" not in doc:
        errors.append("problem: section is required")
    if "run" not in doc or not isinstance(doc.get("run"), dict):
        errors.append("run: section is required and must be an object")
    if errors:
        raise ConfigError(errors)
    run = doc["run"]
    unknown = set(run) - {"T", "n_seeds", "base_seed", "batch_size", "schedule", "x0"}
    if unknown:
        errors.append(f"run: unknown keys {sorted(unknown)}")
    T = run.get("T")
    if not (_is_int(T) and T >= 3):
        errors.append("run.T: bound comparison requires an integer T >= 3")
    n_seeds, base_seed = _check_seeds(run, "run", errors)
    batch_size = run.get("batch_size", 1)
    if not (_is_int(batch_size) and batch_size >= 1):
        errors.append("run.batch_size: must be a positive integer")
    schedule = _check_schedule(run.get("schedule"), "run.schedule", errors)
    entries = _check_entries([doc["problem"]], run.get("x0", {"policy": "zeros"}), "run", errors)
    if not entries:
        raise ConfigError(errors)
    ((problem_id, problem, cert, x0),) = entries
    l_b = None
    if _is_int(batch_size) and batch_size >= 1:
        try:
            l_b = problem.batch_smoothness(batch_size)
        except UnsupportedSamplingError as exc:
            errors.append(f"run.batch_size: {exc}")
    if schedule is not None and l_b is not None and _is_int(T) and T >= 3:
        try:
            resolve_schedule(schedule, l_b, T)
        except ScheduleError as exc:
            errors.append(f"run.schedule: {exc}")
    if errors:
        raise ConfigError(errors)
    return RunPlan(
        config_hash=doc_hash(doc),
        problem_id=problem_id,
        problem=problem,
        cert=cert,
        template=RunConfig(T=T, seed=0, schedule=schedule, x0=x0, batch_size=batch_size),
        n_seeds=n_seeds,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class SweepPlan:
    """Validated sweep: problems plus (T, schedule, b) grids."""

    config_hash: str
    entries: tuple
    T_grid: tuple
    schedules: tuple
    b_grid: tuple
    n_seeds: int
    base_seed: int


def load_sweep_plan(source) -> SweepPlan:
    """Validate a sweep config (path or parsed dict) into a SweepPlan.

    Field-level preconditions are all checked here; per-cell failures that
    depend on a particular (problem, T, schedule, b) combination are left
    to the sweep itself, which records them in the row.
    """
    doc = _load_doc(source)
    errors = []
    unknown = set(doc) - {"problems", "sweep"}
    if unknown:
        errors.append(f"config: unknown top-level keys {sorted(unknown)}")
    problems_spec = doc.get("problems")
    if not isinstance(problems_spec, list) or not problems_spec:
        errors.append("problems: must be a nonempty list")
    sweep_doc = doc.get("sweep")
    if not isinstance(sweep_doc, dict):
        errors.append("sweep: section is required and must be an object")
    if errors:
        raise ConfigError(errors)
    unknown = set(sweep_doc) - {
        "T_grid", "schedules", "b_grid", "n_seeds", "base_seed", "x0",
    }
    if unknown:
        errors.append(f"sweep: unknown keys {sorted(unknown)}")
    t_grid = sweep_doc.get("T_grid")
    if not (isinstance(t_grid, list) and t_grid and all(_is_int(t) and t >= 3 for t in t_grid)):
        errors.append("sweep.T_grid: must be a nonempty list of integers >= 3")
    schedules_doc = sweep_doc.get("schedules")
    schedules = []
    if not (isinstance(schedules_doc, list) and schedules_doc):
        errors.append("sweep.schedules: must be a nonempty list of schedule objects")
    else:
        for j, sdoc in enumerate(schedules_doc):
            s = _check_schedule(sdoc, f"sweep.schedules[{j}]", errors)
            if s is not None:
                schedules.append(s)
    b_grid = sweep_doc.get("b_grid", [1])
    if not (isinstance(b_grid, list) and b_grid and all(_is_int(b) and b >= 1 for b in b_grid)):
        errors.append("sweep.b_grid: must be a nonempty list of integers >= 1")
    n_seeds, base_seed = _check_seeds(sweep_doc, "sweep", errors)
    entries = _check_entries(problems_spec, sweep_doc.get("x0", {"policy": "zeros"}), "sweep", errors)
    if not errors:
        smallest_n = min(problem.n for _, problem, _, _ in entries)
        for b in b_grid:
            if b > smallest_n:
                errors.append(f"sweep.b_grid: batch size {b} exceeds the smallest family size {smallest_n}")
    if errors:
        raise ConfigError(errors)
    return SweepPlan(
        config_hash=doc_hash(doc),
        entries=tuple(entries),
        T_grid=tuple(int(t) for t in t_grid),
        schedules=tuple(schedules),
        b_grid=tuple(int(b) for b in b_grid),
        n_seeds=n_seeds,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class LemmaPlan:
    """Validated lemma battery inputs: problems plus resolved grids."""

    config_hash: str
    entries: tuple
    grids: dict


def resolve_lemma_grids(lemma_doc: dict) -> dict:
    """Merge a lemma config over the defaults and resolve every grid."""
    errors = []
    unknown = set(lemma_doc) - set(DEFAULT_LEMMA_CONFIG)
    if unknown:
        errors.append(f"lemmas: unknown keys {sorted(unknown)}")
    merged = {**DEFAULT_LEMMA_CONFIG, **{k: v for k, v in lemma_doc.items() if k != "problems"}}
    grids = {}
    for key in _GRID_KEYS:
        try:
            grids[key] = resolve_grid(merged[key], f"lemmas.{key}")
        except ConfigError as exc:
            errors.extend(exc.errors)
    for key in ("n_points", "n_pairs"):
        if not (_is_int(merged[key]) and merged[key] >= 2):
            errors.append(f"lemmas.{key}: must be an integer >= 2")
        else:
            grids[key] = merged[key]
    if not (_is_num(merged["point_radius"]) and merged["point_radius"] > 0):
        errors.append("lemmas.point_radius: must be a positive number")
    else:
        grids["point_radius"] = float(merged["point_radius"])
    if not (_is_int(merged["point_seed"]) and merged["point_seed"] >= 0):
        errors.append("lemmas.point_seed: must be a nonnegative integer")
    else:
        grids["point_seed"] = merged["point_seed"]
    if not errors:
        if np.any(grids["eps_grid"] <= 0):
            errors.append("lemmas.eps_grid: entries must be positive")
        if np.any(grids["gamma_l_grid"] <= 0) or np.any(grids["gamma_l_grid"] >= 1):
            errors.append("lemmas.gamma_l_grid: entries must lie strictly inside (0, 1)")
        if np.any(grids["weight_T_grid"] < 1):
            errors.append("lemmas.weight_T_grid: entries must be >= 1")
        if np.any((grids["weight_phi_grid"] < 0) | (grids["weight_phi_grid"] > 1)):
            errors.append("lemmas.weight_phi_grid: entries must lie in [0, 1]")
        if np.any(grids["exponent_t_grid"] < 1):
            errors.append("lemmas.exponent_t_grid: entries must be >= 1")
        if np.any((grids["exponent_theta_grid"] <= 0) | (grids["exponent_theta_grid"] > 2)):
            errors.append("lemmas.exponent_theta_grid: entries must lie in (0, 2]")
        if np.any(grids["exp_convexity_a_grid"] <= 0):
            errors.append("lemmas.exp_convexity_a_grid: entries must be positive")
        if np.any(grids["gautschi_x_grid"] <= 0):
            errors.append("lemmas.gautschi_x_grid: entries must be positive")
        if np.any((grids["gautschi_c_grid"] < 0) | (grids["gautschi_c_grid"] > 1)):
            errors.append("lemmas.gautschi_c_grid: entries must lie in [0, 1]")
    if errors:
        raise ConfigError(errors)
    return grids


def load_lemma_plan(source=None) -> LemmaPlan:
    """Validate a lemma config into a LemmaPlan; None means pure defaults."""
    doc = _load_doc(source) if source is not None else {}
    errors = []
    unknown = set(doc) - {"lemmas"}
    if unknown:
        errors.append(f"config: unknown top-level keys {sorted(unknown)}")
    lemma_doc = doc.get("lemmas", {})
    if not isinstance(lemma_doc, dict):
        errors.append("lemmas: must be an object")
    if errors:
        raise ConfigError(errors)
    grids = resolve_lemma_grids(lemma_doc)
    problems_spec = lemma_doc.get("problems", DEFAULT_LEMMA_CONFIG["problems"])
    if not (isinstance(problems_spec, list) and problems_spec):
        raise ConfigError(["lemmas.problems: must be a nonempty list"])
    entries = []
    for i, spec in enumerate(problems_spec):
        pid, problem, cert = build_problem(spec, i)
        entries.append((pid, problem, cert))
    return LemmaPlan(config_hash=doc_hash(doc), entries=tuple(entries), grids=grids)
