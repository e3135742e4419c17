"""End-to-end and per-layer benchmark of the lastiter command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size bench|smoke|reference]

NAME is one of mc-short-runs, sweep-long-horizon, large-family-run,
lemma-battery, or ``all``.  The seed makes the workload's inputs.  With
``--trace 0`` the command runs in fresh processes, round after round, until
S seconds have passed, and the end-to-end metrics (median over rounds) are
printed.  With ``--trace 1`` one untraced and one traced round of the
workload, the same of a companion workload at smoke size for the layers the
workload's command never calls, and direct layer probes give every per-layer
metric.  Either way every output is checked, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread per process: the sweep runs two worker processes on a
# two-CPU machine, and OpenBLAS would otherwise start two threads in each.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 5
SAMPLE_REFERENCE_S = 0.00018
SAMPLE_TRIM = 0.1


class BenchError(RuntimeError):
    """The benchmark could not run the program or read its outputs."""


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LASTITER_WORKERS", None)
    return env


def _spawn(argv: list, log_path: str):
    """Run argv to completion: (wall seconds, peak RSS in MB, exit code).

    wait4 reports the largest resident set of the child and of every
    descendant it waited for, so pool workers count too.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _log_tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-2000:].decode("utf-8", "replace")


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Session:
    """One workload's inputs, scratch directory and program invocations."""

    def __init__(self, workload: str, seed: int, size: str):
        self.inputs = workloads.make_inputs(workload, seed, size)
        self.seed, self.size = seed, size
        self.dir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.inputs.config, fh)
        self.out = os.path.join(self.dir, "out")
        self.checker = None
        self.first = None

    def cli_args(self) -> list:
        return [self.inputs.subcommand, "--config", self.config, "--out", self.out, *self.inputs.flags]

    def round(self, traced: bool = False):
        """Run the command once and check its outputs; returns (wall, rss)."""
        shutil.rmtree(self.out, ignore_errors=True)
        child = [sys.executable, os.path.join(HERE, "child.py")]
        if traced:
            prefix = child + ["trace", self.speed_path(), self.spans_path(), "--"]
        else:
            prefix = child + ["run", self.speed_path(), "--"]
        log = os.path.join(self.dir, "cli.log")
        wall, rss, code = _spawn(prefix + self.cli_args(), log)
        if code not in (0, 2):
            raise BenchError(f"lastiter exited with {code}:\n{_log_tail(log)}")
        wall = self.at_reference_speed(wall)
        fingerprint = (code, _digest(self.out))
        if self.first is None:
            self.first = fingerprint
            self.checker = workloads.check(self.inputs, self.out, code)
        else:
            self.checker.expect(fingerprint == self.first,
                                "a repeated round did not reproduce the first round's exit code and bytes")
        return wall, rss

    def config_for(self, workload: str) -> str:
        """A config file of the named workload's inputs at this session's seed and size."""
        if workload == self.inputs.workload:
            return self.config
        path = os.path.join(self.dir, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads.make_inputs(workload, self.seed, self.size).config, fh)
        return path

    def spans_path(self) -> str:
        return os.path.join(self.dir, "spans.json")

    def speed_path(self) -> str:
        return os.path.join(self.dir, "speed.json")

    def at_reference_speed(self, seconds: float) -> float:
        """Seconds scaled to the CPU speed at which child.Sampler's loop takes
        SAMPLE_REFERENCE_S, from the samples of the command and its workers.

        The slowest SAMPLE_TRIM of the samples are dropped before the mean:
        a sample that a preemption or a burst of page faults lands on says
        little about the speed of the rest of the round."""
        with open(self.speed_path(), encoding="utf-8") as fh:
            samples = json.load(fh)
        for path in glob.glob(self.speed_path() + ".*"):
            with open(path, encoding="utf-8") as fh:
                samples += [float(line) for line in fh]
            os.remove(path)
        kept = sorted(samples)[:max(1, int(len(samples) * (1.0 - SAMPLE_TRIM)))]
        return seconds * SAMPLE_REFERENCE_S / statistics.fmean(kept)

    def child(self, *args) -> dict:
        log = os.path.join(self.dir, "child.log")
        with open(log, "wb") as err:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                                  stdout=subprocess.PIPE, stderr=err, env=_child_env(), cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"child.py {args[0]} exited with {proc.returncode}:\n{_log_tail(log)}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])

    def setup_s(self) -> float:
        probe = self.child("setup", self.speed_path(), self.inputs.subcommand, self.config)
        return self.at_reference_speed(probe["import_s"] + probe["plan_s"])

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(session: Session, seconds: float) -> tuple:
    """End-to-end metrics: whole rounds until the time is up, medians over them.

    At least the workload's min_rounds rounds run, even past the seconds.
    """
    setups = [session.setup_s() for _ in range(SETUP_REPEATS)]
    walls, rss = [], []
    start = time.perf_counter()
    while True:
        wall, peak = session.round()
        walls.append(wall)
        rss.append(peak)
        if len(walls) >= session.inputs.min_rounds and time.perf_counter() - start >= seconds:
            break
    return len(walls), {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    }


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics from spans; a layer whose span never fired is absent."""
    dur = [end - start for _, start, end, _ in spans]
    kids = [[] for _ in spans]  # (name, duration) of each span's direct children
    for (name, _, _, parent), d in zip(spans, dur):
        if parent is not None:
            kids[parent].append((name, d))
    names = {s[0] for s in spans}
    out = {}

    def total(name):
        return sum(d for (n, *_), d in zip(spans, dur) if n == name)

    def self_time(name, prefix=""):
        """Duration minus the children whose names start with prefix."""
        return sum(d - sum(cd for cn, cd in ks if cn.startswith(prefix))
                   for (n, *_), d, ks in zip(spans, dur, kids) if n == name)

    simple = {
        "cli.import_s": "cli.import",
        "problems.certify_s": "problems.certify",
        "montecarlo.estimate_s": "montecarlo.estimate",
        "montecarlo.fingerprint_s": "montecarlo.fingerprint",
        "montecarlo.reduce_s": "montecarlo.reduce",
        "bounds.eval_s": "bounds.eval",
        "bounds.weight_sequence_s": "bounds.weight_sequence",
        "lemmas.battery_s": "lemmas.battery",
        "reporting.write_s": "reporting.write",
        "reporting.hash_s": "reporting.hash",
    }
    for metric, name in simple.items():
        if name in names:
            out[metric] = _metric(total(name), "s")
    for lemma_id in workloads.LEMMA_IDS:
        if f"lemmas.check.{lemma_id}" in names:
            out[f"lemmas.check_s.{lemma_id}"] = _metric(total(f"lemmas.check.{lemma_id}"), "s")
    if "config.plan" in names:
        out["config.plan_self_s"] = _metric(self_time("config.plan", "problems."), "s")
    if "problems.build" in names:
        out["problems.build_s"] = _metric(self_time("problems.build"), "s")
    if "montecarlo.estimate" in names:
        simulate = self_time("montecarlo.estimate")
        out["montecarlo.simulate_s"] = _metric(simulate, "s")
        out["montecarlo.seeds_per_s"] = _metric(counts["montecarlo.seeds"] / simulate, "seeds/s")
    units = {"reporting.bytes_written": "bytes"}
    for key, value in counts.items():
        out[key] = _metric(value, units.get(key, "count"))
    return out


# The workload whose command calls the layers that a workload's own command
# never calls; its traced smoke-size round fills in those layers' metrics.
COMPANION = {
    "mc-short-runs": "lemma-battery",
    "sweep-long-horizon": "lemma-battery",
    "large-family-run": "lemma-battery",
    "lemma-battery": "mc-short-runs",
}


def traced_metrics(session: Session) -> tuple:
    """An untraced and a traced round: (untraced wall, traced wall, metrics)."""
    untraced, _ = session.round()
    traced, _ = session.round(traced=True)
    with open(session.spans_path(), encoding="utf-8") as fh:
        recorded = json.load(fh)
    metrics = layer_metrics(recorded["spans"], recorded["counts"])
    rate = session.checker.work / untraced
    if session.inputs.subcommand == "verify-lemmas":
        metrics["checks_per_s"] = _metric(rate, "points/s")
    else:
        metrics["steps_per_s"] = _metric(rate, "steps/s")
    return untraced, traced, metrics


def trace(session: Session) -> tuple:
    """Per-layer metrics: the workload's own rounds, the companion's, direct probes."""
    untraced, traced, metrics = traced_metrics(session)
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    companion = Session(COMPANION[session.inputs.workload], session.seed, "smoke")
    try:
        _, _, filler = traced_metrics(companion)
    finally:
        companion.close()
    session.checker.errors += [f"{companion.inputs.workload} (companion): {message}"
                               for message in companion.checker.errors]
    for name, metric in filler.items():
        metrics.setdefault(name, metric)
    probe_configs = [session.config_for(name) for name in ("mc-short-runs", "sweep-long-horizon")]
    metrics.update(session.child("probe", *probe_configs))
    return 2, metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    session = Session(workload, seed, size)
    try:
        rounds, metrics = trace(session) if traced else measure(session, seconds)
    finally:
        session.close()
    chk = session.checker
    for message in chk.errors:
        print(f"{workload}: check failed: {message}", file=sys.stderr)
    return {
        "correct": not chk.errors,
        "attempted": rounds * session.inputs.ops_per_round,
        "failed": rounds * chk.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    names = list(workloads.SIZES)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke", "reference"), default="bench")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lastiter", "__init__.py")):
        print(f"perfbench: no lastiter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        if args.workload == "all":
            print(json.dumps({"workload": name, **results[name]}))
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind like an exception, so a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
