"""Measurements that run inside a fresh Python process with ``lastiter``.

    python3 perfbench/child.py setup SPEED KIND CONFIG
        Time ``import lastiter.cli`` and loading the plan of CONFIG with the
        loader for KIND (run, sweep or verify-lemmas); print them as JSON.
    python3 perfbench/child.py run SPEED -- LASTITER_ARGS...
        Run ``lastiter.cli.main(LASTITER_ARGS)``, as ``python3 -m lastiter``
        does.
    python3 perfbench/child.py trace SPEED SPANS -- LASTITER_ARGS...
        The same with a span around every call into a package layer; the
        spans and counts go to SPANS.
    python3 perfbench/child.py probe RUN_CONFIG SWEEP_CONFIG
        Time single layers by direct calls: rng and the per-seed cost of sgd
        on the problem of RUN_CONFIG, step rates and pool start-up on the
        families of SWEEP_CONFIG; print the per-layer metrics as JSON.

In the first three modes a timer samples the speed of the CPUs the command
runs on; the sample times go to SPEED and SPEED.<pid> (see ``Sampler``).
The parent (``run.py``) sets PYTHONPATH so ``lastiter`` imports from source.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace


SAMPLE_PERIOD_S = 0.025
SAMPLE_LOOP = 4_000


class Sampler:
    """Times a fixed integer loop every SAMPLE_PERIOD_S, from a SIGALRM handler.

    The host this benchmark runs on changes the speed of a CPU by up to a
    factor of two within seconds.  The handler runs in the measured process,
    between its bytecodes, so its samples cover the whole run on the CPUs
    the run actually used; ``run.py`` scales times by their mean.  It costs
    about 2 % of the run.  Timers are not inherited across fork, so a forked
    child (a pool worker) restarts the timer and, since workers leave through
    ``os._exit``, writes each sample at once to SPEED.<pid>.
    """

    def __init__(self, path: str):
        self.path = path
        self.samples = []
        self.sink = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOP):
            acc += i
        elapsed = time.perf_counter() - start
        if self.sink is None:
            self.samples.append(elapsed)
        else:
            os.write(self.sink, f"{elapsed!r}\n".encode())

    def _start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _in_forked_child(self):
        self.sink = os.open(f"{self.path}.{os.getpid()}", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self._start()

    def __enter__(self):
        os.register_at_fork(after_in_child=self._in_forked_child)
        self._start()
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)
        return False


def _setup(kind: str, config: str):
    start = time.perf_counter()
    import lastiter.cli  # noqa: F401
    from lastiter import config as cfg

    imported = time.perf_counter()
    loader = {"run": cfg.load_run_plan, "sweep": cfg.load_sweep_plan,
              "verify-lemmas": cfg.load_lemma_plan}[kind]
    loader(config)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "plan_s": done - imported}))
    return 0


def _run(argv: list):
    import lastiter.cli

    return lastiter.cli.main(argv)


# -- tracing ---------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent index) and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, count=None):
        """Replace module.attr, the binding its callers look up, by a spanned call."""
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, spanned)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_estimate(counts, args, result):
    _add(counts, "montecarlo.cells", 1)
    _add(counts, "montecarlo.seeds", int(args["n_seeds"]))
    _add(counts, "montecarlo.steps", int(args["n_seeds"]) * int(args["template"].T))


def _count_build(counts, args, result):
    problem = result[0]
    arrays = problem.design if hasattr(problem, "design") else problem.features
    _add(counts, "problems.entries", int(arrays.size))


def _count_battery(counts, args, result):
    _add(counts, "lemmas.grid_points", sum(r.grid_size for r in result))


def _count_write(counts, args, result):
    _add(counts, "reporting.bytes_written", os.path.getsize(args["path"]))


LEMMA_CHECKS = {
    "check_variance_transfer": "variance_transfer",
    "check_one_step_inequality": "one_step_descent",
    "check_weight_bounds": "weight_bounds",
    "check_exponent_inequality": "exponent_inequality",
    "check_exp_convexity": "exp_convexity",
    "check_gautschi": "gautschi",
    "check_second_moment_transfer": "grad_second_moment_transfer",
}


def install(tracer: Tracer):
    """Span every layer call that the CLI makes, at the name each caller looks up.

    Modules import with ``from .x import y``, so ``lastiter.cli.estimate_gap``
    and ``lastiter.montecarlo.estimate_gap`` are separate bindings, and each
    is wrapped where it is called from.
    """
    from lastiter import cli, config, lemmas, montecarlo, problems

    table = [
        (cli, ("load_run_plan", "load_sweep_plan", "load_lemma_plan"), "config.plan", None),
        (config, ("make_least_squares", "make_logistic"), "problems.build", _count_build),
        (problems, ("closed_form_certificate", "certify_solution"), "problems.certify", None),
        (cli, ("estimate_gap",), "montecarlo.estimate", _count_estimate),
        (montecarlo, ("estimate_gap",), "montecarlo.estimate", _count_estimate),
        (montecarlo, ("run_fingerprint",), "montecarlo.fingerprint", None),
        (montecarlo, ("reduce_moments",), "montecarlo.reduce", None),
        (cli, ("build_bound_report", "effective_constants"), "bounds.eval", None),
        (montecarlo, ("effective_constants", "last_iterate_bound", "polynomial_step_bound",
                      "sqrt_step_bound", "sqrt_step_bound_c2"), "bounds.eval", None),
        (lemmas, ("weight_sequence",), "bounds.weight_sequence", None),
        (cli, ("run_battery",), "lemmas.battery", _count_battery),
        (cli, ("write_json", "write_csv"), "reporting.write", _count_write),
        (config, ("doc_hash",), "reporting.hash", None),
        (montecarlo, ("doc_hash",), "reporting.hash", None),
    ]
    table += [(lemmas, (attr,), f"lemmas.check.{lemma_id}", None)
              for attr, lemma_id in LEMMA_CHECKS.items()]
    for module, attrs, name, count in table:
        for attr in attrs:
            tracer.wrap(module, attr, name, count)


def _trace(spans_path: str, argv: list):
    tracer = Tracer()
    with tracer.span("cli.import"):
        import lastiter.cli
    install(tracer)
    # Spans fired inside pool workers stay in the workers and are not collected.
    with tracer.span("cli.main"):
        code = lastiter.cli.main(argv)
    tracer.dump(spans_path)
    return code


# -- direct layer probes ------------------------------------------------------------


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def _probe(run_config: str, sweep_config: str):
    import math

    from lastiter import config as cfg
    from lastiter import montecarlo, rng, sgd

    metrics = {}
    plan = cfg.load_run_plan(run_config)
    metrics["rng.stream_us"] = (_per_call_us(lambda i: rng.stream(i, rng.RUN_STREAM), 2000), "us")
    one_step = replace(plan.template, T=1)
    metrics["sgd.seed_fixed_us"] = (
        _per_call_us(lambda i: sgd.sgd_run(plan.problem, plan.cert, replace(one_step, seed=i)), 400),
        "us",
    )
    plan = cfg.load_sweep_plan(sweep_config)
    T = max(plan.T_grid)
    for pid, problem, cert, x0 in plan.entries:
        gamma = 1.0 / (2.0 * problem.L * math.sqrt(T))
        for mode, b in (("b1", 1), ("minibatch", 4), ("full", problem.n)):
            config = sgd.RunConfig(T=T, seed=0, schedule=sgd.ConstantStep(gamma=gamma),
                                   x0=x0, batch_size=b, record_stride=T)
            rates = []
            for seed in range(3):
                start = time.perf_counter()
                sgd.minibatch_run(problem, cert, replace(config, seed=seed))
                rates.append(T / (time.perf_counter() - start))
            metrics[f"sgd.step_rate.{pid}.{mode}"] = (statistics.median(rates), "steps/s")
    pid, problem, cert, x0 = plan.entries[0]
    trivial = sgd.RunConfig(T=3, seed=0, schedule=sgd.PolynomialStep(C=2.0, beta=0.5), x0=x0)

    def estimate(workers):
        start = time.perf_counter()
        montecarlo.estimate_gap(problem, cert, trivial, 4, 0, workers=workers)
        return time.perf_counter() - start

    pooled = statistics.median(estimate(2) for _ in range(5))
    serial = statistics.median(estimate(1) for _ in range(5))
    metrics["montecarlo.pool_startup_s"] = (pooled - serial, "s")
    print(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
    return 0


def main(argv):
    mode = argv[0]
    if mode == "probe":
        return _probe(argv[1], argv[2])
    with Sampler(argv[1]):
        if mode == "setup":
            return _setup(argv[2], argv[3])
        if mode == "run" and argv[2] == "--":
            return _run(argv[3:])
        if mode == "trace" and argv[3] == "--":
            return _trace(argv[2], argv[4:])
    raise SystemExit(f"bad arguments {argv!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
