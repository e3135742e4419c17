"""The public surface: one declaration per module, re-exported whole by the package."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lastiter as li

MODULES = ("bounds", "config", "lemmas", "montecarlo", "problems", "rng", "sgd")
REMOVED = (
    "complexity_beta_constant",
    "tphi_cap",
    "write_trajectory_csv",
    "suggested_step_noisy",
    "suggested_step_interpolation",
    "sigma_star_sq",
    "resolve_lemma_grids",
    "sgd_run",
    "minibatch_run",
    "Trajectory",
    "StepRecord",
    "closed_form_certificate",
)
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def module_all(name):
    return importlib.import_module(f"lastiter.{name}").__all__


def test_package_exports_the_union_of_module_declarations():
    union = set().union(*(module_all(name) for name in MODULES))
    assert sorted(li.__all__) == sorted(union)
    assert len(li.__all__) == len(union)
    for name in li.__all__:
        assert hasattr(li, name), name


def test_a_name_declared_twice_is_one_object():
    homes = {}
    for module in MODULES:
        for name in module_all(module):
            homes.setdefault(name, []).append(module)
    repeated = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert "UnsupportedSamplingError" in repeated
    for name, mods in repeated.items():
        objects = {id(getattr(importlib.import_module(f"lastiter.{m}"), name)) for m in mods}
        assert objects == {id(getattr(li, name))}, (name, mods)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(li, name), name
        for module in MODULES:
            assert name not in module_all(module)
    assert "record_iterates" not in li.RunConfig.__dataclass_fields__
    assert "effective" not in li.CellCheck.__dataclass_fields__
    assert "epsilon" not in li.AbcConstants.__dataclass_fields__
    assert "provenance" not in li.SolutionCertificate.__dataclass_fields__
    assert not hasattr(li.FiniteSumProblem, "to_doc")
    assert not hasattr(importlib.import_module("lastiter.reporting"), "jsonable")


def test_certificates_have_no_tolerance_knob():
    """A family's certificate depends on its arrays alone, so no caller picks the logistic tol."""
    assert list(inspect.signature(li.make_logistic).parameters) == ["n", "d", "seed"]
    assert list(inspect.signature(li.save_problem).parameters) == ["path", "problem"]
    assert list(inspect.signature(li.problem_to_doc).parameters) == ["problem"]
    assert list(inspect.signature(li.certify_solution).parameters) == ["problem"]
    assert "__post_init__" not in vars(li.SolutionCertificate)
    with pytest.raises(li.ConfigError) as info:
        li.build_problem({"generator": "logistic", "n": 4, "d": 2, "seed": 1, "tol": 1e-10})
    assert info.value.errors == ["problem[0]: unknown keys ['tol']"]


def readme_api_list():
    """(module, [backticked names]) per bullet of README's public API list."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Highlights of the public API")
    section = text[start : text.index("\n## ", start)]
    bullets = re.split(r"\n- ", section)[1:]
    assert bullets, "README lists no modules"
    listed = []
    for bullet in bullets:
        names = [n for n in re.findall(r"`([^`]+)`", bullet)
                 if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", n)]
        module, names = names[0], names[1:]
        assert module.startswith("lastiter."), bullet
        listed.append((module, names))
    return listed


def test_readme_api_list_names_exist():
    for module_name, names in readme_api_list():
        module = importlib.import_module(module_name)
        assert names, module_name
        for dotted in names:
            target = module
            for part in dotted.split("."):
                assert hasattr(target, part), f"{module_name}: {dotted}"
                target = getattr(target, part)


def run_python(code, *args):
    """Run code in a fresh interpreter that imports lastiter from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120, env=env,
    )


def test_command_line_imports_no_scipy():
    """The package runs on numpy and the standard library; scipy is for tests only."""
    proc = run_python("import lastiter.cli, sys; assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_verify_lemmas_imports_no_numpy_ma(tmp_path):
    """np.unique imports numpy.ma (12-20 ms); the log-int grids and the chord check avoid it."""
    config = tmp_path / "lemmas.json"
    config.write_text(json.dumps({"lemmas": {
        "problems": [{"generator": "least_squares", "n": 5, "d": 2, "spread": 1.0, "seed": 1}],
        "n_points": 8,
        "n_pairs": 4,
    }}))
    proc = run_python(
        "import sys, lastiter.cli\n"
        "code = lastiter.cli.main(['verify-lemmas', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules\n",
        str(config), str(tmp_path / "out"),
    )
    assert proc.returncode == 0, proc.stderr


def package_imports():
    """{module: modules of the package it imports}, from every relative import at any depth."""
    package = ROOT / "src" / "lastiter"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                targets.update(n.split(".")[0] for n in names if n.split(".")[0] in modules)
        graph[name] = targets
    return graph


def test_package_imports_point_down():
    """No module imports, directly or through others, a module that imports it."""
    graph = package_imports()
    assert graph["montecarlo"] >= {"reporting", "sgd"}
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
