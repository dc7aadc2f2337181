"""Smoke tests keeping the demo scripts runnable."""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    argv = sys.argv
    sys.argv = [str(script)]
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    out = capsys.readouterr().out
    assert out.strip(), "demo produced no output"


def test_readme_library_quickstart_runs(monkeypatch, capsys):
    # the block as the README shows it, run from the repository root
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)[1]
    claimed = re.search(r"print\(rho\.symmetric_population\(\)\)\s*# ([0-9.]+):", block)[1]
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    printed = []
    for line in capsys.readouterr().out.splitlines():
        try:
            printed.append(float(line))
        except ValueError:
            pass
    # the population first, then the fidelity
    assert f"{printed[0]:.4f}" == claimed == "0.7273"
