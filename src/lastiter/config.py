"""Experiment configuration: JSON loading, strict validation, grid resolution.

A config file is a single JSON object.  Validation happens at load and
collects every violated field before raising, so one round trip shows all
problems; anything a downstream operation would reject (step-size window,
horizon floor for bound comparison, batch size versus family size) is
checked here first.  Each kind of config object is declared once, as a table
of its fields, and ``_check_object`` checks every object against its table.
Grid definitions are data: each lemma grid's default and domain live in
``lastiter.lemmas.LEMMA_GRIDS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import json
import math

import numpy as np

from .lemmas import LEMMA_GRIDS, _sorted_unique, check_grid
from .problems import (
    MEMORY_BUDGET_ENTRIES,
    CertificationError,
    FiniteSumProblem,
    GenerationError,
    SolutionCertificate,
    UnsupportedSamplingError,
    load_problem,
    make_least_squares,
    make_logistic,
)
from .reporting import doc_hash
from .rng import DIRECTION_STREAM, stream
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
    "resolve_x0",
]

DEFAULT_LEMMA_CONFIG = {
    "problems": [
        {"generator": "least_squares", "n": 20, "d": 5, "spread": 1.0, "seed": 11},
        {"generator": "least_squares", "n": 16, "d": 3, "spread": 0.0, "seed": 12},
        {"generator": "logistic", "n": 24, "d": 4, "seed": 13},
    ],
    "n_points": 200,
    "n_pairs": 100,
    "point_seed": 2718,
    **{key: grid.default for key, grid in LEMMA_GRIDS.items()},
}


class ConfigError(ValueError):
    """Config validation failed; ``errors`` lists every violated field."""

    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    """A finite number; an integer must also fit the float range."""
    if _is_int(value):
        try:
            value = float(value)
        except OverflowError:
            return False
    return isinstance(value, float) and math.isfinite(value)


def _at_least(lowest: int) -> Callable:
    return lambda value: _is_int(value) and value >= lowest


def _horizon(value) -> bool:
    """An integer T >= 3, the floor of the bound comparison, that fits the float range."""
    return _at_least(3)(value) and _is_num(value)


def _list_of(check: Callable) -> Callable:
    return lambda value: isinstance(value, list) and bool(value) and all(map(check, value))


class _Field(NamedTuple):
    """One key of a config object: the check on its value, the rule it states, its default.

    A field without a default is required: its check sees None, which only ``_ANY`` accepts.
    """

    check: Callable
    rule: str
    default: object = None


_ANY = _Field(lambda value: True, "")
_POSITIVE_INT = _Field(_at_least(1), "must be a positive integer")
_SEED = _Field(lambda value: _is_int(value) and 0 <= value < 2**64,
               "must be a nonnegative integer below 2**64")
_NONNEGATIVE = _Field(lambda value: _is_num(value) and value >= 0, "must be a finite number >= 0")
_NUMBER = _Field(_is_num, "must be a finite number")
_NONEMPTY_LIST = _Field(_list_of(_ANY.check), "must be a nonempty list")
_X0 = _Field(lambda value: isinstance(value, dict), "expected an object", {"policy": "zeros"})


class _Generator(NamedTuple):
    """A problem generator: its function's name, its parameters as fields, its default-id format.

    The function is looked up in this module at each call: the benchmark
    tracer (perfbench/child.py) times builds by wrapping this module's binding.
    """

    make: str
    fields: dict
    id_format: str


_GENERATORS = {
    "least_squares": _Generator("make_least_squares", {
        "n": _POSITIVE_INT, "d": _POSITIVE_INT, "spread": _NONNEGATIVE._replace(default=1.0), "seed": _SEED,
    }, "least_squares-n{n}-d{d}-spread{spread:g}-seed{seed}"),
    "logistic": _Generator("make_logistic", {"n": _POSITIVE_INT, "d": _POSITIVE_INT, "seed": _SEED},
                           "logistic-n{n}-d{d}-seed{seed}"),
}
_FILE_SPEC = {"file": _Field(lambda value: isinstance(value, str), "must be a path string"), "id": _ANY}
_SCHEDULES = {"constant": {"gamma": _NUMBER}, "polynomial": {"C": _NUMBER, "beta": _NUMBER}}
_SEED_FIELDS = {"n_seeds": _POSITIVE_INT,
                "base_seed": _Field(_at_least(0), "must be a nonnegative integer", 0)}
_RUN_FIELDS = {
    "T": _Field(_horizon, "bound comparison requires an integer T >= 3 that fits a float"), **_SEED_FIELDS,
    "batch_size": _POSITIVE_INT._replace(default=1), "schedule": _ANY, "x0": _X0,
}
_SWEEP_FIELDS = {
    "T_grid": _Field(_list_of(_horizon), "must be a nonempty list of integers >= 3 that fit a float"),
    "schedules": _Field(_list_of(_ANY.check), "must be a nonempty list of schedule objects"),
    "b_grid": _Field(_list_of(_at_least(1)), "must be a nonempty list of integers >= 1", [1]),
    **_SEED_FIELDS, "x0": _X0,
}
_GRID_SPEC = {"min": _ANY, "max": _ANY, "count": _ANY, "spacing": _ANY._replace(default="linear")}
# Every lemma key defaults to DEFAULT_LEMMA_CONFIG; each key of LEMMA_GRIDS is
# then held to its domain there, a grid after resolve_grid.
_LEMMA_FIELDS = {key: _ANY._replace(default=value) for key, value in DEFAULT_LEMMA_CONFIG.items()} | {
    key: _Field(check, rule, DEFAULT_LEMMA_CONFIG[key]) for key, check, rule in (
        ("problems", *_NONEMPTY_LIST[:2]),
        ("n_points", _at_least(2), "must be an integer >= 2"),
        ("n_pairs", _at_least(2), "must be an integer >= 2"),
        ("point_radius", *_NUMBER[:2]),
        ("point_seed", *_SEED[:2]),
    )
}
_SECTION = _Field(lambda value: isinstance(value, dict), "section is required and must be an object")
_RUN_CONFIG = {"problem": _Field(lambda value: value is not None, "section is required"), "run": _SECTION}
_SWEEP_CONFIG = {"problems": _NONEMPTY_LIST, "sweep": _SECTION}
_LEMMA_CONFIG = {"lemmas": _SECTION._replace(rule="must be an object", default={})}


def _check_object(doc, fields: dict, label: str, errors: list, select: str | None = None):
    """Check a config object against its field table; return its values, defaults filled in.

    With ``select``, ``fields`` maps each kind the object's ``select`` key may
    name to that kind's field table.  Adds ``{label}: ...`` and
    ``{label}.{key}: {rule}`` errors; returns None for a non-object or an
    unknown kind, and leaves out every value that breaks its rule.
    """
    if not isinstance(doc, dict):
        errors.append(f"{label}: expected an object")
        return None
    if select is not None:
        kind = doc.get(select)
        if not (isinstance(kind, str) and kind in fields):
            expected = " or ".join(map(repr, fields))
            errors.append(f"{label}.{select}: unknown {select} {kind!r}, expected {expected}")
            return None
        fields = {select: _ANY, **fields[kind]}
    unknown = set(doc) - set(fields)
    if unknown:
        errors.append(f"{label}: unknown keys {sorted(unknown)}")
    values = {}
    for key, (check, rule, default) in fields.items():
        value = doc.get(key, default)
        if check(value):
            values[key] = value
        else:
            errors.append(f"{label}.{key}: {rule}")
    return values


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
    errors = []
    lo, hi, count, spacing = _check_object(spec, _GRID_SPEC, name, errors).values()
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
    lo, hi = float(lo), float(hi)  # numpy ufuncs reject Python integers beyond int64
    if spacing == "linear":
        return np.linspace(lo, hi, count)
    values = np.logspace(np.log10(lo), np.log10(hi), count)
    if spacing == "log-int":
        return _sorted_unique(np.maximum(np.rint(values), np.ceil(lo)))
    return values


def build_problem(spec: dict, index: int = 0):
    """Build (problem_id, problem, certificate) from a problem spec object.

    Specs name a generator with its parameters, or a "file" with a problem
    document saved by ``save_problem``; either way ``certify_solution``
    derives the certificate from the arrays.

    Raises:
        ConfigError: the spec is malformed, or its file cannot be loaded.
        GenerationError, CertificationError: from the generator or the certifier.
    """
    label = f"problem[{index}]"
    errors = []
    if isinstance(spec, dict) and "file" in spec:
        _check_object(spec, _FILE_SPEC, label, errors)
        if errors:
            raise ConfigError(errors)
        # Anything the document fails on is a fault of the file, not of the program.
        try:
            problem, cert = load_problem(spec["file"])
        except KeyError as exc:
            raise ConfigError([f"{label}: file {spec['file']!r} lacks key {exc}"]) from None
        except (AttributeError, OSError, TypeError, ValueError) as exc:
            raise ConfigError([f"{label}: cannot load {spec['file']!r}: {exc}"]) from None
        return spec.get("id", f"file:{spec['file']}"), problem, cert
    kinds = {name: {**generator.fields, "id": _ANY} for name, generator in _GENERATORS.items()}
    values = _check_object(spec, kinds, label, errors, select="generator")
    if errors:
        raise ConfigError(errors)
    generator = _GENERATORS[values.pop("generator")]
    del values["id"]
    problem, cert = globals()[generator.make](**values)
    return spec.get("id", generator.id_format.format(**values)), problem, cert


def resolve_x0(policy, problem: FiniteSumProblem, cert: SolutionCertificate) -> np.ndarray:
    """Initial iterate from a policy object.

    Policies: {"policy": "zeros"}, {"policy": "offset", "distance": r,
    "seed": s} (x* plus r times a seeded unit direction), or
    {"policy": "explicit", "values": [...]}.  An offset point that leaves
    the float range is a ConfigError.
    """
    explicit = _Field(lambda v: _list_of(_is_num)(v) and len(v) == problem.dimension,
                      f"need a list of length {problem.dimension} of finite numbers")
    policies = {"zeros": {}, "offset": {"distance": _NONNEGATIVE, "seed": _SEED},
                "explicit": {"values": explicit}}
    errors = []
    values = _check_object(policy, policies, "x0", errors, select="policy")
    if errors:
        raise ConfigError(errors)
    if values["policy"] == "offset":
        direction = stream(values["seed"], DIRECTION_STREAM).standard_normal(problem.dimension)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.zeros(problem.dimension)
            direction[0] = 1.0
            norm = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = cert.x_star + (values["distance"] / norm) * direction
        if not np.all(np.isfinite(x0)):
            raise ConfigError([f"x0.distance: {values['distance']!r} from x* leaves the float range"])
        return x0
    if values["policy"] == "explicit":
        return np.asarray(values["values"], dtype=float)
    return np.zeros(problem.dimension)


def _load_config(source, fields: dict) -> tuple[dict, dict]:
    """A config document (path or parsed dict) and its sections, top level checked against ``fields``."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
    errors = []
    sections = _check_object(doc, fields, "config", errors)
    if errors:
        raise ConfigError(errors)
    return doc, sections


def _check_schedule(doc, label: str, errors: list):
    """The schedule a schedule object declares, or None after adding its errors."""
    found = []
    values = _check_object(doc, _SCHEDULES, label, found, select="variant")
    if not found:
        try:
            return schedule_from_doc(values)
        except ScheduleError as exc:
            found.append(f"{label}: {exc}")
    errors.extend(found)
    return None


def _check_seeds(section: dict, label: str, errors: list):
    """The seeds base_seed .. base_seed + n_seeds - 1 of a run or sweep section must fit 64 bits."""
    if "n_seeds" in section and "base_seed" in section and (
            section["base_seed"] + section["n_seeds"] > 2**64):
        errors.append(f"{label}.base_seed: seed range exceeds 64 bits")


def _check_entries(specs: list, x0_policy, label: str, errors: list) -> list:
    """(id, problem, cert, x0) per problem spec that builds.

    A spec that fails to load or to generate adds a ``problem[i]`` error.
    x0 is None where the policy fails or no policy is given.
    """
    entries = []
    for i, spec in enumerate(specs):
        try:
            problem_id, problem, cert = build_problem(spec, i)
        except ConfigError as exc:
            errors.extend(exc.errors)
            continue
        except (GenerationError, CertificationError) as exc:
            errors.append(f"problem[{i}]: {exc}")
            continue
        x0 = None
        if x0_policy is not None:
            try:
                x0 = resolve_x0(x0_policy, problem, cert)
            except ConfigError as exc:
                errors.extend(f"{label}.{line}" for line in exc.errors)
        entries.append((problem_id, problem, cert, x0))
    return entries


def _pinned(specs: list, entries: list) -> list:
    """The specs, each {"file": ...} one carrying the digest of the problem it loaded.

    Config hashes are taken over pinned specs, so they follow a problem
    file's content and not only its path; the user's document is not changed.
    """
    return [{**spec, "digest": problem.digest()} if "file" in spec else spec
            for spec, (_, problem, _, _) in zip(specs, entries, strict=True)]


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
    doc, sections = _load_config(source, _RUN_CONFIG)
    errors = []
    run = _check_object(sections["run"], _RUN_FIELDS, "run", errors)
    _check_seeds(run, "run", errors)
    schedule = _check_schedule(run["schedule"], "run.schedule", errors)
    entries = _check_entries([sections["problem"]], run.get("x0"), "run", errors)
    if not entries:
        raise ConfigError(errors)
    ((problem_id, problem, cert, x0),) = entries
    l_b = None
    if "batch_size" in run:
        try:
            l_b = problem.batch_smoothness(run["batch_size"])
        except UnsupportedSamplingError as exc:
            errors.append(f"run.batch_size: {exc}")
    if schedule is not None and l_b is not None and "T" in run:
        try:
            resolve_schedule(schedule, l_b, run["T"])
        except ScheduleError as exc:
            errors.append(f"run.schedule: {exc}")
    if errors:
        raise ConfigError(errors)
    return RunPlan(
        config_hash=doc_hash({**doc, "problem": _pinned([sections["problem"]], entries)[0]}),
        problem_id=problem_id,
        problem=problem,
        cert=cert,
        template=RunConfig(T=run["T"], seed=0, schedule=schedule, x0=x0, batch_size=run["batch_size"]),
        n_seeds=run["n_seeds"],
        base_seed=run["base_seed"],
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
    doc, sections = _load_config(source, _SWEEP_CONFIG)
    problems_spec = sections["problems"]
    errors = []
    sweep = _check_object(sections["sweep"], _SWEEP_FIELDS, "sweep", errors)
    _check_seeds(sweep, "sweep", errors)
    schedules = [_check_schedule(sdoc, f"sweep.schedules[{j}]", errors)
                 for j, sdoc in enumerate(sweep.get("schedules", []))]
    entries = _check_entries(problems_spec, sweep.get("x0"), "sweep", errors)
    if not errors:
        smallest_n = min(problem.n for _, problem, _, _ in entries)
        for b in sweep["b_grid"]:
            if b > smallest_n:
                errors.append(f"sweep.b_grid: batch size {b} exceeds the smallest family size {smallest_n}")
    if errors:
        raise ConfigError(errors)
    return SweepPlan(
        config_hash=doc_hash({**doc, "problems": _pinned(problems_spec, entries)}),
        entries=tuple(entries),
        T_grid=tuple(sweep["T_grid"]),
        schedules=tuple(schedules),
        b_grid=tuple(sweep["b_grid"]),
        n_seeds=sweep["n_seeds"],
        base_seed=sweep["base_seed"],
    )


@dataclass(frozen=True)
class LemmaPlan:
    """Validated lemma battery inputs: problems plus resolved grids."""

    config_hash: str
    entries: tuple
    grids: dict


# Arrays of the battery whose size a lemma config sets, as the keys whose
# sizes multiply into it: each grid alone, the two two-grid checks, and the
# (points x eps) and (gamma L x pairs) slack tables.
_LEMMA_ARRAYS = ([(key,) for key in LEMMA_GRIDS if key != "point_radius"] + [
    ("exponent_t_grid", "exponent_theta_grid"), ("gautschi_x_grid", "gautschi_c_grid"),
    ("n_points", "eps_grid"), ("gamma_l_grid", "n_pairs"),
])


def _declared_size(value) -> int:
    """Entries a lemma count, grid list or grid object asks for (at most, for a log-int grid)."""
    if isinstance(value, list):
        return len(value)
    if isinstance(value, dict):
        value = value.get("count")
    return value if _is_int(value) and value > 0 else 1


def _over_budget(label: str, sizes: list, errors: list) -> bool:
    """Add a ``{label}: ...`` error if the product of ``sizes`` exceeds MEMORY_BUDGET_ENTRIES."""
    if math.prod(sizes) <= MEMORY_BUDGET_ENTRIES:
        return False
    errors.append(f"{label}: asks for an array over the {MEMORY_BUDGET_ENTRIES}-entry memory budget")
    return True


def _check_lemmas(lemma_doc, errors: list) -> dict | None:
    """A lemma section's values over the defaults, each key of LEMMA_GRIDS resolved and held to its domain.

    Adds ``lemmas...`` errors and leaves out every value that breaks its rule,
    and every grid of an array over the memory budget, before it is built;
    returns None for a non-object.
    """
    merged = _check_object(lemma_doc, _LEMMA_FIELDS, "lemmas", errors)
    if merged is None:
        return None
    for keys in _LEMMA_ARRAYS:
        if all(key in merged for key in keys) and _over_budget(
                "lemmas." + " with ".join(keys), [_declared_size(merged[key]) for key in keys], errors):
            for key in keys:
                merged.pop(key)
    for key in LEMMA_GRIDS:
        if key not in merged:  # broke its field rule or the memory budget
            continue
        value = merged.pop(key)
        try:
            if key == "point_radius":  # the one number among the grids
                merged[key] = float(check_grid(key, value))
            else:
                merged[key] = check_grid(key, resolve_grid(value, f"lemmas.{key}"))
        except ConfigError as exc:
            errors.extend(exc.errors)
        except ValueError as exc:
            errors.append(f"lemmas.{exc}")
    return merged


def load_lemma_plan(source=None) -> LemmaPlan:
    """Validate a lemma config into a LemmaPlan; None means pure defaults."""
    doc, sections = _load_config({} if source is None else source, _LEMMA_CONFIG)
    errors = []
    grids = _check_lemmas(sections["lemmas"], errors)
    problems_spec = grids.pop("problems", [])
    entries = _check_entries(problems_spec, None, "lemmas", errors)
    for i, (_, problem, _, _) in enumerate(entries):
        # each problem's point cloud (with a split slack per point and component) and pair cloud
        for key, sizes in (("n_points", [max(problem.dimension, problem.n + 1)]),
                           ("n_pairs", [2, problem.dimension])):
            if key in grids:
                _over_budget(f"lemmas.{key} at problem[{i}]", [grids[key], *sizes], errors)
    if errors:
        raise ConfigError(errors)
    if "problems" in sections["lemmas"]:
        doc = {**doc, "lemmas": {**sections["lemmas"], "problems": _pinned(problems_spec, entries)}}
    return LemmaPlan(config_hash=doc_hash(doc),
                     entries=tuple(entry[:3] for entry in entries), grids=grids)
