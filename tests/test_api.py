"""The public surface: one declaration per module, re-exported whole by the package."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import lastiter as li

MODULES = ("bounds", "config", "lemmas", "montecarlo", "problems", "rng", "sgd")
REMOVED = (
    "complexity_beta_constant",
    "tphi_cap",
    "write_trajectory_csv",
    "suggested_step_noisy",
    "suggested_step_interpolation",
    "sigma_star_sq",
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
    assert set(li.StepRecord.__dataclass_fields__) == {"t", "gap"}


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


def test_command_line_imports_no_scipy():
    """The package runs on numpy and the standard library; scipy is for tests only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import lastiter.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
