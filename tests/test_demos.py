"""Every demo script runs to completion and prints the stdout pinned in the golden manifest;
the README's library quick start runs too."""

import json
import re
import runpy
from pathlib import Path

import pytest

from test_golden import DEMOS, MANIFEST, text_digest
from volintervals.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert text_digest(out) == json.loads(MANIFEST.read_text())[f"demos/{demo.stem}.stdout"]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--kind", "correlated", "--length", "8192", "--seed", "1",
                 "--out", "prices.csv"]) == 0
    capsys.readouterr()
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
