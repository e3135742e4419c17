"""The writers: JSON byte-identical to json.dump with json's errors, CSV to csv.writer."""

import csv
import io
import json
import multiprocessing
import os
import shutil
import time

import numpy as np
import pytest

import lastiter as li
import lastiter.cli as cli
import lastiter.reporting as reporting
from lastiter.reporting import write_csv, write_json

CPUS = (1, 2, 3)
PER = reporting._PROCESS_ENTRIES
BIG = 2 * PER  # the fewest entries the writer forks for


def json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def written(tmp_path, doc, cpus=None) -> bytes:
    """write_json's bytes, the writer seeing ``cpus`` usable CPUs (the host's if None)."""
    path = tmp_path / "doc.json"
    with pytest.MonkeyPatch.context() as patch:
        if cpus is not None:
            patch.setattr(reporting, "_fork_cpus", lambda: cpus)
        write_json(path, doc)
    return path.read_bytes()


CORPUS = [
    [],
    {},
    [[], {}, [[]], {"a": {}}],
    {"empty": [], "nested": {"list": [], "dict": {}}},
    [1.0, 2, 3.5],
    [1.0, True, False, 2.0],
    [[1.0, 2.0], [3.0, 4], []],
    [-0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300],
    [np.float64(0.1), 2.0, np.float64(-0.0)],
    (1.0, 2.0),
    {"k": (1, 2.0), "t": ("x", None)},
    "héllo ☃ \"quoted\"\n",
    {"naïve": ["ünïcödé", "日本"], "b": None, "a": [[1.0, 2.0], [3.0]]},
    {1: "x", 10: "y", 2.5: "z", -3: "w"},
    {None: 1},
    {True: 1, False: 0},
    3.0,
    7,
    None,
    "",
]


@pytest.mark.parametrize("doc", CORPUS, ids=range(len(CORPUS)))
def test_writer_matches_json_dump(tmp_path, doc):
    for cpus in CPUS:
        assert written(tmp_path, doc, cpus) == json_text(doc).encode("utf-8")


@pytest.mark.parametrize("bad", [
    [1.0, float("nan")],
    [float("inf"), 2.0],
    [1, float("-inf")],
    {"a": [[0.0], [float("nan")]]},
    float("nan"),
    {float("inf"): 1},
])
def test_non_finite_floats_raise_json_error(tmp_path, bad):
    with pytest.raises(ValueError) as expected:
        json_text(bad)
    with pytest.raises(ValueError) as got:
        written(tmp_path, bad)
    assert str(got.value) == str(expected.value)


ARRAYS = [
    np.array(0.1),
    np.array([]),
    np.zeros((3, 0)),
    np.zeros((0, 3)),
    np.array([-0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300]),
    np.random.default_rng(3).standard_normal((2, 3, 4)),
    np.arange(6).reshape(2, 3),
]


@pytest.mark.parametrize("array", ARRAYS, ids=range(len(ARRAYS)))
def test_arrays_write_as_their_lists(tmp_path, array):
    doc = {"a": array, "b": {"c": array, "d": 1.0}}
    listed = {"a": array.tolist(), "b": {"c": array.tolist(), "d": 1.0}}
    for cpus in CPUS:
        assert written(tmp_path, doc, cpus) == json_text(listed).encode("utf-8")


# Each array, and the most processes the writer may fork for it (under 2: none).
LARGE_ARRAYS = {
    "below": (np.random.default_rng(4).standard_normal((2, PER - 1)), 1),
    "at": (np.random.default_rng(5).standard_normal((2, PER)), 2),
    "three_rows": (np.random.default_rng(8).standard_normal((3, PER)), 3),
    "two_rows": (np.random.default_rng(9).standard_normal((2, 3 * PER // 2)), 2),
    "above_3d": (np.random.default_rng(6).standard_normal((5, 128, BIG // 512)), 2),
    "ints": (np.arange(BIG + 6).reshape(-1, 2), 2),
    "empty_rows": (np.zeros((4, 0, BIG)), 1),
    "flat": (np.random.default_rng(7).standard_normal(BIG + 1), 1),
}


@pytest.mark.parametrize("name", LARGE_ARRAYS)
def test_large_arrays_match_at_every_cpu_count(tmp_path, pools, name):
    array, most = LARGE_ARRAYS[name]
    doc = {"a": array, "b": {"c": array[:1], "d": 1.0}}
    expected = json_text({"a": array.tolist(), "b": {"c": array[:1].tolist(), "d": 1.0}}).encode("utf-8")
    for cpus in CPUS:
        del pools[:]
        assert written(tmp_path, doc, cpus) == expected
        # no more processes than CPUs, outer rows or PER-entry shares, and only
        # the whole array is split
        processes = min(cpus, most)
        assert pools == ([processes] if processes > 1 else [])
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_writer_stays_in_this_process_where_it_cannot_fork(tmp_path, monkeypatch, pools):
    monkeypatch.setattr(reporting, "_START_METHOD", None)
    array, _ = LARGE_ARRAYS["three_rows"]
    assert written(tmp_path, {"a": array}) == json_text({"a": array.tolist()}).encode("utf-8")
    assert pools == []


def test_non_finite_arrays_raise_json_error(tmp_path):
    bad = np.array([[0.0, 1.0], [2.0, np.nan]])
    with pytest.raises(ValueError) as expected:
        json_text(bad.tolist())
    with pytest.raises(ValueError) as got:
        written(tmp_path, {"a": bad})
    assert str(got.value) == str(expected.value)


def write_in_worker(path, array):
    write_json(path, {"a": array})


@pytest.mark.skipif(reporting._START_METHOD is None, reason="the platform cannot fork")
def test_writer_in_a_pool_worker_stays_in_its_process(tmp_path, monkeypatch):
    # the worker sees three CPUs, but a daemonic process may not fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    array, _ = LARGE_ARRAYS["three_rows"]
    path = tmp_path / "doc.json"
    with reporting._forked(1, None) as pool:
        pool.apply(write_in_worker, (path, array))
    assert path.read_bytes() == json_text({"a": array.tolist()}).encode("utf-8")


@pytest.mark.skipif(reporting._START_METHOD is None, reason="the platform cannot fork")
def test_interrupted_pool_terminates_its_workers():
    """Ctrl-C in a pool's block kills its workers at once, a task in flight or not, and re-raises."""
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with reporting._forked(2, None) as pool:
            workers = list(pool._pool)
            pool.apply_async(time.sleep, (60,))  # leaving by close() and join() would wait for it
            raise KeyboardInterrupt
    assert time.monotonic() - start < 30
    assert len(workers) == 2
    assert all(worker.exitcode is not None for worker in workers)
    assert not set(workers) & set(multiprocessing.active_children())


@pytest.mark.parametrize("cpus", CPUS)
def test_failed_write_leaves_the_previous_file_and_no_temporary(tmp_path, monkeypatch, pools, cpus):
    monkeypatch.setattr(reporting, "_fork_cpus", lambda: cpus)
    bad = np.zeros((4, BIG // 4))
    bad[2, 7] = np.nan  # in the third task, formatted by a pool worker when cpus > 1
    with pytest.raises(ValueError) as expected:
        json_text(bad.tolist())
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError) as got:
        write_json(path, {"a": bad})
    assert str(got.value) == str(expected.value)
    assert len(pools) == (cpus > 1)
    assert list(tmp_path.iterdir()) == []
    write_json(path, [1.0])
    with pytest.raises(ValueError):
        write_json(path, {"a": bad})
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert path.read_bytes() == json_text([1.0]).encode("utf-8")


@pytest.mark.skipif(reporting._START_METHOD is None, reason="the platform cannot fork")
@pytest.mark.parametrize("outcome", ["success", "nan", "interrupt"])
def test_forked_write_leaves_no_part_file(tmp_path, monkeypatch, outcome):
    """However a forked write ends, the directory holds only the new or the previous file."""
    monkeypatch.setattr(reporting, "_fork_cpus", lambda: 2)
    array = np.random.default_rng(10).standard_normal((8, BIG // 4))  # 8 tasks, 4 in flight
    path = tmp_path / "doc.json"
    write_json(path, [1.0])
    previous = path.read_bytes()
    parts = ".doc.json.*.tmp.*"
    seen = []
    copy = shutil.copyfileobj

    def interrupting_copy(src, dst):
        # the second part's copy waits until later parts lie beside it, then Ctrl-C
        deadline = time.monotonic() + 30
        while len(list(tmp_path.glob(parts))) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        seen.append(len(list(tmp_path.glob(parts))))
        if len(seen) == 2:
            raise KeyboardInterrupt
        copy(src, dst)

    before = set(multiprocessing.active_children())
    if outcome == "success":
        write_json(path, {"a": array})
        assert path.read_bytes() == json_text({"a": array.tolist()}).encode("utf-8")
    elif outcome == "nan":
        array[1, 5] = np.nan  # the second task fails while the third and fourth are in flight
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_json(path, {"a": array})
    else:
        monkeypatch.setattr(shutil, "copyfileobj", interrupting_copy)
        with pytest.raises(KeyboardInterrupt):
            write_json(path, {"a": array})
        assert seen[-1] >= 3
    if outcome != "success":
        assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert set(multiprocessing.active_children()) <= before


class Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


@pytest.mark.parametrize("chunk_rows", [2, reporting._CSV_CHUNK_ROWS])
def test_failed_csv_write_leaves_the_previous_file_and_no_temporary(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(reporting, "_CSV_CHUNK_ROWS", chunk_rows)
    rows = [("1", "2"), ("3", "4"), ("5", "6"), ("7", Unprintable())]  # the bad cell after a written chunk
    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="no text"):
        write_csv(path, ("a", "b"), rows)
    assert list(tmp_path.iterdir()) == []
    write_csv(path, ("a", "b"), rows[:1])
    with pytest.raises(RuntimeError, match="no text"):
        write_csv(path, ("a", "b"), iter(rows))
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"


# (header, rows, joined): joined says whether the rows need no csv quoting,
# so that write_csv writes them, header included, as one joined string.
CSV_CORPUS = [
    (("seed",), [("0",), ("1",), ("17",)], True),
    (("seed",), [("0",), ("",), ("2",)], False),  # a row of one empty cell is written ""
    (("note",), [("with,comma",)], False),
    (("seed", "gap"), [("0", "0.1"), ("1", "-2.5e-300"), ("2", "nan")], True),
    (("a", "b"), [("", ""), ("x", "")], True),
    (("a", "b"), [(" spaced ", "ünïcödé"), ["日本", "tab\there"]], True),
    (("a", "b"), [("with,comma", "x")], False),
    (("a", "b"), [('say "hi"', "x")], False),
    (("a", "b"), [("cr\rhere", "x")], False),
    (("a", "b"), [("x", "lf\nhere")], False),
    (("a", "b"), [("x", "crlf\r\n")], False),
    (("a", "b"), [(1, 2.5), (None, True), (np.float64(0.1), -0.0)], False),
    (("a", "b"), [("x", None)], False),
    (("a", "b"), [("1", "2", "3"), ("4",)], True),
    (("a", "b"), [("1", "2", "3"), ("4",), ()], False),  # an empty row is an empty line
    (("a,b", "c"), [("1", "2")], False),
    (("a", "b"), [], True),
]


def csv_writer_text(header, rows) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("header, rows, joined", CSV_CORPUS, ids=range(len(CSV_CORPUS)))
def test_csv_writer_matches_csv_module(tmp_path, monkeypatch, header, rows, joined):
    assert (reporting._joined_rows([tuple(header), *map(tuple, rows)]) is not None) == joined
    expected = csv_writer_text(header, rows).encode("utf-8")
    path = tmp_path / "table.csv"
    for chunk_rows in (1, 2, reporting._CSV_CHUNK_ROWS):
        monkeypatch.setattr(reporting, "_CSV_CHUNK_ROWS", chunk_rows)
        write_csv(path, header, iter(rows))
        assert path.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


# An ndarray is written only as a value of a str-keyed dict.
@pytest.mark.parametrize("bad", [
    {(1, 2): 3}, [np.int64(3)], {"a": object()}, {1: "x", "b": 2}, {"a": [np.zeros(2)]},
])
def test_unencodable_values_raise_json_error(tmp_path, bad):
    with pytest.raises(TypeError) as expected:
        json_text(bad)
    with pytest.raises(TypeError) as got:
        written(tmp_path, bad)
    assert str(got.value) == str(expected.value)


def test_problem_documents_match_json_dump(tmp_path):
    for problem, _ in (li.make_least_squares(n=6, d=3, spread=1.0, seed=1),
                       li.make_logistic(n=7, d=2, seed=2)):
        doc = li.problem_to_doc(problem)
        assert written(tmp_path, doc) == json_text(doc).encode("utf-8")


@pytest.mark.parametrize("cpus", [1, 3])
def test_saved_large_problem_matches_json_dump(tmp_path, monkeypatch, pools, cpus):
    monkeypatch.setattr(reporting, "_fork_cpus", lambda: cpus)
    problem, _ = li.make_least_squares(n=16, d=64, spread=1.0, seed=4)
    assert problem.design.size == BIG  # formatted on two forked processes at 3 CPUs
    path = tmp_path / "problem.json"
    li.save_problem(path, problem)
    assert path.read_bytes() == json_text(li.problem_to_doc(problem)).encode("utf-8")
    assert pools == ([2] if cpus > 1 else [])


def check_report(tmp_path, problem):
    """Run one small job and check report.json against json.dump; return the document."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "problem": problem,
        "run": {"T": 10, "n_seeds": 3, "schedule": {"variant": "polynomial", "C": 2.0, "beta": 0.5}},
    }))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = (out / "report.json").read_bytes()
    doc = json.loads(report)
    assert report == json_text(doc).encode("utf-8")
    assert written(tmp_path, doc) == report
    return doc


def test_report_document_matches_json_dump(tmp_path):
    doc = check_report(tmp_path, {"generator": "logistic", "n": 6, "d": 2, "seed": 4})
    problem, _ = li.make_logistic(n=6, d=2, seed=4)
    embedded = {key: doc["problem"][key] for key in ("schema", "problem")}
    assert embedded == li.problem_to_doc(problem)


def test_large_report_document_matches_json_dump(tmp_path, monkeypatch, pools):
    monkeypatch.setattr(reporting, "_fork_cpus", lambda: 3)
    n, d = 16, 64
    assert n * d * d == BIG  # the design is formatted on two forked processes
    doc = check_report(tmp_path, {"generator": "least_squares", "n": n, "d": d, "spread": 1.0,
                                  "seed": 4})
    assert pools == [2]
    problem, _ = li.make_least_squares(n=n, d=d, spread=1.0, seed=4)
    embedded = {key: doc["problem"][key] for key in ("schema", "problem")}
    assert embedded == li.problem_to_doc(problem)
