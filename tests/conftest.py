"""Shared pytest wiring: one printed pass/fail line per acceptance criterion.

Tests marked ``@pytest.mark.criterion(number, title)`` report their outcome
in a dedicated terminal section at the end of the run, so the acceptance
status is readable at a glance even inside a long ``pytest -v`` log.

The ``weight_closed_form`` fixture is the log-Gamma oracle for the
averaging weights, kept apart from the recursion the package computes them by.
The ``pools`` and ``busy_at_exit`` fixtures watch the package's process pools,
and ``pools`` also the temporary and part files its writers leave.
"""

import contextlib
import functools
import glob
import math
import os

import numpy as np
import pytest

import lastiter.reporting as reporting

_RESULTS = {}
_NOTES = {}


def _record_note(number: int, text: str):
    _NOTES[number] = text


@pytest.fixture
def acceptance_note():
    """Attach a short note (timings, margins) to this criterion's line."""
    return _record_note


@functools.lru_cache(maxsize=None)
def _lgamma_ladder(shift: float, size: int) -> np.ndarray:
    """math.lgamma(k + shift) for k = 1..size, read-only since every caller shares it."""
    ladder = np.array([math.lgamma(k + shift) for k in range(1, size + 1)])
    ladder.setflags(write=False)
    return ladder


def _weight_closed_form(seq) -> np.ndarray:
    """alpha_0..alpha_{T-1} of ``seq`` through log-Gamma instead of the recursion.

    alpha_t = Gamma(T+2) Gamma(T-t+phi) / (Gamma(T+1+phi) Gamma(T-t+1)).
    The lgamma ladders are cached per shift in power-of-two sizes, so a scan
    over every T up to some horizon evaluates each lgamma about twice.
    """
    T, p = seq.T, seq.phi
    size = 1 << (T - 1).bit_length()
    log_alpha = (
        math.lgamma(T + 2.0)
        - math.lgamma(T + 1.0 + p)
        + _lgamma_ladder(p, size)[T - 1 :: -1]
        - _lgamma_ladder(1.0, size)[T - 1 :: -1]
    )
    return np.exp(log_alpha)


@pytest.fixture
def weight_closed_form():
    """The log-Gamma closed form of a ``WeightSequence``'s alpha_0..alpha_{T-1}."""
    return _weight_closed_form


@pytest.fixture
def _pool_log(monkeypatch):
    """Watch every pool ``reporting._forked`` opens.

    A pool terminated, or left, with a task in flight fails the test: a
    worker killed while sending its reply would leave the pool unable to
    shut down.
    """
    log = {"opened": [], "busy": []}
    real_forked = reporting._forked

    @contextlib.contextmanager
    def watched(processes, shared):
        log["opened"].append(processes)
        submitted = []
        try:
            with real_forked(processes, shared) as pool:
                submit, terminate = pool.apply_async, pool.terminate

                def apply_async(*args):
                    submitted.append(submit(*args))
                    return submitted[-1]

                def checked_terminate():
                    assert all(result.ready() for result in submitted), "terminated with a task in flight"
                    terminate()

                pool.apply_async, pool.terminate = apply_async, checked_terminate
                try:
                    yield pool
                finally:
                    log["busy"].append(sum(not result.ready() for result in submitted))
        finally:
            assert all(result.ready() for result in submitted), "left with a task in flight"

    monkeypatch.setattr(reporting, "_forked", watched)
    return log


@pytest.fixture
def pools(_pool_log, monkeypatch):
    """The process counts of the pools opened, in order.

    A test using it also fails if a file written through
    ``reporting._replacing`` leaves its temporary or a writer's part file
    (``.NAME.PID.*``) beside it.
    """
    written = set()
    real_replacing = reporting._replacing

    def watched(path, *args, **kwargs):
        written.add(os.path.split(os.fspath(path)))
        return real_replacing(path, *args, **kwargs)

    monkeypatch.setattr(reporting, "_replacing", watched)
    yield _pool_log["opened"]
    left = [found for head, name in sorted(written)
            for found in glob.glob(glob.escape(os.path.join(head, f".{name}.{os.getpid()}.")) + "*")]
    assert not left, f"left behind: {left}"


@pytest.fixture
def busy_at_exit(_pool_log):
    """Per pool opened, the tasks still in flight when the block using it was left."""
    return _pool_log["busy"]


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, title): acceptance criterion with a printed pass/fail line",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, title = marker.args
    if report.when == "call":
        _RESULTS[number] = (title, report.passed)
    elif report.when == "setup" and report.failed:
        _RESULTS[number] = (title, False)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        title, passed = _RESULTS[number]
        status = "PASS" if passed else "FAIL"
        note = _NOTES.get(number)
        suffix = f" [{note}]" if note else ""
        terminalreporter.write_line(f"criterion {number}: {status} - {title}{suffix}")
