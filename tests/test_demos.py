"""The demos and the README's library tour run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lastiter import cli

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ["build_problems.py"],
    ["bound_landscape.py"],
    ["lemma_battery.py"],
    ["convergence_sweep.py", "--seeds", "16"],
]


@pytest.mark.parametrize("argv", DEMOS, ids=[argv[0] for argv in DEMOS])
def test_demo_runs(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    scratch = tmp_path / "tmp"  # build_problems.py saves a problem to a temporary file
    scratch.mkdir()
    env["TMPDIR"] = str(scratch)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(scratch.iterdir()) == []


def test_readme_library_tour_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", tour.split("\n## ", 1)[0], flags=re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_bound_table_matches_the_command(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^lastiter bound (?:.*\\\n)*.*$", readme, flags=re.M)
    table = readme.split("The `bound` subcommand prints an aligned table:\n\n```\n", 1)[1]
    assert cli.main(command.replace("\\\n", " ").split()[1:]) == 0
    assert capsys.readouterr().out == table.split("```", 1)[0]
