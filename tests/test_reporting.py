"""The JSON writer: byte-identical to json.dump, with json's errors."""

import json

import numpy as np
import pytest

import lastiter as li
import lastiter.cli as cli
from lastiter.reporting import write_json


def json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def written(tmp_path, doc) -> bytes:
    path = tmp_path / "doc.json"
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
    assert written(tmp_path, doc) == json_text(doc).encode("utf-8")


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
    doc = {"a": array, "b": [array, 1.0]}
    listed = {"a": array.tolist(), "b": [array.tolist(), 1.0]}
    assert written(tmp_path, doc) == json_text(listed).encode("utf-8")


def test_non_finite_arrays_raise_json_error(tmp_path):
    bad = np.array([[0.0, 1.0], [2.0, np.nan]])
    with pytest.raises(ValueError) as expected:
        json_text(bad.tolist())
    with pytest.raises(ValueError) as got:
        written(tmp_path, {"a": bad})
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [{(1, 2): 3}, [np.int64(3)], {"a": object()}, {1: "x", "b": 2}])
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


def test_report_document_matches_json_dump(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "problem": {"generator": "logistic", "n": 6, "d": 2, "seed": 4},
        "run": {"T": 10, "n_seeds": 3, "schedule": {"variant": "polynomial", "C": 2.0, "beta": 0.5}},
    }))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = (out / "report.json").read_bytes()
    doc = json.loads(report)
    assert report == json_text(doc).encode("utf-8")
    assert written(tmp_path, doc) == report
    problem, _ = li.make_logistic(n=6, d=2, seed=4)
    embedded = {key: doc["problem"][key] for key in ("schema", "problem")}
    assert embedded == li.problem_to_doc(problem)
