"""Command line interface.

Subcommands::

    lastiter run           --config run.json [--out DIR] [--workers N]
                           [--deterministic-output] [--dump-seeds]
    lastiter sweep         --config sweep.json [--out DIR] [--workers N]
                           [--deterministic-output]
    lastiter bound         --horizon T --smoothness L --distance-sq D2
                           [--noise S2] (--gamma G | --C C [--beta B])
                           [--target-accuracy EPS] [--out DIR]
                           [--deterministic-output]
    lastiter verify-lemmas [--config lemmas.json] [--lemma ID ...]
                           [--out DIR] [--deterministic-output]

Exit codes: 0 success, 1 usage/config/runtime error, 2 a checked bound or
lemma was violated.  --workers sets the Monte Carlo worker process count
(default 1); outputs are byte-identical across worker counts when
--deterministic-output is set.  JSON files format their large arrays on
forked processes, one per usable CPU, with the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import os
import sys

from . import __version__
from .bounds import BoundReport, HypothesisError, build_bound_report, complexity_horizon
from .config import ConfigError, load_lemma_plan, load_run_plan, load_sweep_plan
from .lemmas import BATTERY_ORDER, LemmaCheckResult, run_battery
from .montecarlo import SWEEP_COLUMNS, _run_settings, check_cell, sweep
from .problems import _problem_doc
from .reporting import fmt, write_csv, write_json
from .sgd import (
    ConstantStep,
    DivergenceError,
    PolynomialStep,
    ScheduleError,
    UnsupportedSamplingError,
    schedule_to_doc,
)

# Unused here (check_cell chains them), but the benchmark tracer
# (perfbench/child.py) wraps these names on this module.
from .bounds import effective_constants  # noqa: F401
from .montecarlo import estimate_gap  # noqa: F401

__all__ = ["main"]

# Input faults reach main as one of these, or as an OSError or DivergenceError
# handled apart; any other exception is a bug and keeps its traceback.
_USAGE_ERRORS = (ConfigError, ScheduleError, UnsupportedSamplingError, HypothesisError)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lastiter", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lastiter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p, config_required=None, workers=False, dump_seeds=False, out_default="."):
        if config_required is not None:
            p.add_argument("--config", required=config_required, metavar="PATH",
                           help="JSON experiment config")
        p.add_argument("--out", default=out_default, metavar="DIR",
                       help="output directory" + (" (default: .)" if out_default else ""))
        if workers:
            p.add_argument("--workers", type=int, default=1, metavar="N",
                           help="worker processes (default: 1)")
        p.add_argument("--deterministic-output", action="store_true",
                       help="omit timestamps so reruns are byte-identical")
        if dump_seeds:
            p.add_argument("--dump-seeds", action="store_true",
                           help="also write per-seed gaps to seeds.csv")

    p_run = sub.add_parser("run",
                           help="Monte Carlo estimate for one setup, checked against its bounds")
    common(p_run, config_required=True, workers=True, dump_seeds=True)

    p_sweep = sub.add_parser("sweep",
                             help="estimate/bound table over a (problem, T, schedule, b) grid")
    common(p_sweep, config_required=True, workers=True)

    p_bound = sub.add_parser("bound",
                             help="evaluate the convergence bounds for given constants")
    p_bound.add_argument("--horizon", type=int, required=True, metavar="T")
    p_bound.add_argument("--smoothness", type=float, required=True, metavar="L")
    p_bound.add_argument("--distance-sq", type=float, required=True, metavar="D2",
                         help="squared distance from the start point to a minimizer")
    p_bound.add_argument("--noise", type=float, default=0.0, metavar="S2",
                         help="optimal-point gradient second moment (default 0)")
    p_bound.add_argument("--gamma", type=float, default=None, metavar="G",
                         help="constant step size")
    p_bound.add_argument("--C", type=float, default=None, metavar="C", dest="C",
                         help="polynomial step scale (step 1/(C L T^beta))")
    p_bound.add_argument("--beta", type=float, default=None, metavar="B",
                         help="polynomial step exponent, with --C only (default 0.5)")
    p_bound.add_argument("--target-accuracy", type=float, default=None, metavar="EPS",
                         help="also print the minimal horizon reaching this accuracy")
    common(p_bound, out_default=None)

    p_lem = sub.add_parser("verify-lemmas",
                           help="run the numeric lemma battery and write its table")
    common(p_lem, config_required=False)
    p_lem.add_argument("--lemma", action="append", default=None, choices=list(BATTERY_ORDER),
                       metavar="ID", help="restrict output to this lemma id (repeatable)")
    return parser


def _resolve_workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(["--workers: must be a positive integer"])
    return args.workers


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _document(schema: str, args, **body) -> dict:
    """``body`` under the head every output JSON file shares; no time under --deterministic-output."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return {
        "schema": schema,
        "code_version": __version__,
        "generated_at": None if args.deterministic_output else now.isoformat(),
        **body,
    }


def _cmd_run(args) -> int:
    plan = load_run_plan(args.config)
    workers = _resolve_workers(args)
    out_dir = _ensure_out(args)
    template, problem = plan.template, plan.problem
    b = template.batch_size
    check = check_cell(
        problem, plan.cert, template.x0, template.T, template.schedule, b,
        plan.n_seeds, plan.base_seed, workers=workers,
    )
    estimate, report = check.estimate, check.bounds
    doc = _document(
        "lastiter-report/1", args,
        config_hash=plan.config_hash,
        problem={"id": plan.problem_id, **_problem_doc(problem),
                 "certificate": dataclasses.asdict(plan.cert)},
        run={
            **_run_settings(template),
            "n_seeds": plan.n_seeds,
            "base_seed": plan.base_seed,
            "gamma_used": report.gamma,
            "effective": {"L": report.L, "sigma_sq": report.sigma_star_sq},
        },
        estimate={
            "mean_gap": estimate.mean_gap,
            "std_error": estimate.std_error,
            "ci95_upper": estimate.ci95_upper,
            "fingerprint": estimate.fingerprint,
        },
        bounds=report.to_doc(),
        verdict={
            "bound_value": check.bound_value,
            "ci95_upper": estimate.ci95_upper,
            "slack_ratio": check.slack_ratio,
            "satisfied": check.satisfied,
        },
    )
    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, doc)
    if args.dump_seeds:
        seeds_path = os.path.join(out_dir, "seeds.csv")
        gaps = estimate.per_seed_gaps.tolist()
        seeds = range(plan.base_seed, plan.base_seed + len(gaps))
        write_csv(seeds_path, ("seed", "gap"), zip(map(str, seeds), map(float.__repr__, gaps)))
    status = "satisfied" if check.satisfied else "VIOLATED"
    slack = "n/a" if check.slack_ratio is None else f"{check.slack_ratio:.3f}"
    print(f"run: problem={plan.problem_id} T={template.T} b={b} seeds={plan.n_seeds}")
    print(f"run: mean_gap={estimate.mean_gap:.6e} ci95_upper={estimate.ci95_upper:.6e}")
    print(f"run: bound={check.bound_value:.6e} slack_ratio={slack} {status}")
    print(f"run: wrote {report_path}")
    return 0 if check.satisfied else 2


# sweep columns that sweep_loglog.csv writes as log10_{name}
_LOGLOG_COLUMNS = ("T", "mean_gap", "ci95_upper", "theorem1_bound", "corollary_bound")


def _cmd_sweep(args) -> int:
    plan = load_sweep_plan(args.config)
    workers = _resolve_workers(args)
    out_dir = _ensure_out(args)
    rows = sweep(
        plan.entries, plan.T_grid, plan.schedules, plan.b_grid,
        plan.n_seeds, plan.base_seed, workers=workers,
    )
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_csv(csv_path, SWEEP_COLUMNS,
              [[fmt(getattr(row, col)) for col in SWEEP_COLUMNS] for row in rows])
    loglog_rows = []
    for row in rows:
        if row.error is not None or not row.mean_gap or row.mean_gap <= 0:
            continue
        values = (getattr(row, name) for name in _LOGLOG_COLUMNS)
        loglog_rows.append((
            row.problem_id, fmt(row.b), fmt(row.C), fmt(row.beta),
            *(repr(math.log10(v)) if v is not None and v > 0 else "" for v in values),
        ))
    loglog_header = ("problem_id", "b", "C", "beta", *(f"log10_{name}" for name in _LOGLOG_COLUMNS))
    write_csv(os.path.join(out_dir, "sweep_loglog.csv"), loglog_header, loglog_rows)
    n_errors = sum(1 for row in rows if row.error is not None)
    meta = _document(
        "lastiter-sweep-meta/1", args,
        config_hash=plan.config_hash,
        columns=list(SWEEP_COLUMNS),
        n_rows=len(rows),
        n_errors=n_errors,
        n_seeds=plan.n_seeds,
        base_seed=plan.base_seed,
    )
    write_json(os.path.join(out_dir, "sweep_meta.json"), meta)
    print(f"sweep: {len(rows)} rows ({n_errors} errors) -> {csv_path}")
    if rows and n_errors == len(rows):
        print("sweep: every cell failed", file=sys.stderr)
        return 1
    return 0


# bound.csv columns, before the tightest bound: every report field but the schedule's name.
_BOUND_COLUMNS = tuple(f.name for f in dataclasses.fields(BoundReport) if f.name != "schedule_variant")


def _cmd_bound(args) -> int:
    if (args.gamma is None) == (args.C is None):
        raise ConfigError(["bound: give exactly one of --gamma or --C"])
    if args.beta is not None and args.C is None:
        raise ConfigError(["bound: --beta sets the polynomial step, so it needs --C"])
    if args.gamma is not None:
        schedule = ConstantStep(args.gamma)
    else:
        schedule = PolynomialStep(C=args.C, beta=0.5 if args.beta is None else args.beta)
    report = build_bound_report(
        schedule, args.smoothness, args.distance_sq, args.noise, args.horizon,
    )
    lines = [
        ("T", report.T),
        ("gamma", report.gamma),
        ("gamma*L", report.gamma * report.L),
        ("phi", report.phi),
    ]
    lines += [(f"{name}_bound", value) for name, value in report.applicable().items()]
    lines.append(("tightest_bound", report.tightest()))
    horizon_needed = None
    if args.target_accuracy is not None:
        horizon_needed = complexity_horizon(
            args.target_accuracy, args.smoothness, args.distance_sq, args.noise,
        )
        lines.append(("horizon_for_target", horizon_needed))
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        text = fmt(value) if not isinstance(value, float) else f"{value:.12g}"
        print(f"{name:<{width}}  {text}")
    if args.out:
        out_dir = _ensure_out(args)
        doc = _document(
            "lastiter-bound/1", args,
            inputs={
                "T": args.horizon,
                "L": args.smoothness,
                "D_sq": args.distance_sq,
                "sigma_star_sq": args.noise,
                "schedule": schedule_to_doc(schedule),
                "target_accuracy": args.target_accuracy,
            },
            bounds=report.to_doc(),
            tightest=report.tightest(),
            horizon_for_target=horizon_needed,
        )
        write_json(os.path.join(out_dir, "bound.json"), doc)
        row = [fmt(getattr(report, name)) for name in _BOUND_COLUMNS] + [fmt(report.tightest())]
        write_csv(os.path.join(out_dir, "bound.csv"), (*_BOUND_COLUMNS, "tightest"), [row])
    return 0


# lemmas.csv columns: every result field but the free-form details.
_LEMMA_COLUMNS = tuple(f.name for f in dataclasses.fields(LemmaCheckResult) if f.name != "details")


def _lemma_cell(value) -> str:
    return " ".join(fmt(v) for v in value) if isinstance(value, tuple) else fmt(value)


def _cmd_verify_lemmas(args) -> int:
    plan = load_lemma_plan(args.config)
    out_dir = _ensure_out(args)
    results = run_battery(list(plan.entries), plan.grids)
    if args.lemma:
        wanted = set(args.lemma)
        results = [r for r in results if r.lemma_id in wanted]
    rows = [dataclasses.asdict(r) for r in results]
    csv_path = os.path.join(out_dir, "lemmas.csv")
    write_csv(csv_path, _LEMMA_COLUMNS,
              [[_lemma_cell(row[col]) for col in _LEMMA_COLUMNS] for row in rows])
    doc = _document(
        "lastiter-lemmas/1", args,
        config_hash=plan.config_hash,
        results=rows,
    )
    write_json(os.path.join(out_dir, "lemmas.json"), doc)
    gate_failed = False
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        note = " (flagged boundary, not gating)" if r.flagged else ""
        print(f"{r.lemma_id:<28} {mark}{note}  worst_slack={r.worst_slack:+.3e}  grid={r.grid_size}")
        if not r.passed and not r.flagged:
            gate_failed = True
    print(f"verify-lemmas: wrote {csv_path}")
    return 2 if gate_failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "bound": _cmd_bound,
        "verify-lemmas": _cmd_verify_lemmas,
    }
    try:
        return handlers[args.command](args)
    except (DivergenceError, OSError) as exc:
        print(f"lastiter {args.command}: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"lastiter {args.command}: error:", file=sys.stderr)
        for line in str(exc).splitlines():
            print(f"  {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
