"""Every demo script runs to completion and prints the stdout pinned in the golden manifest."""

import json
import runpy

import pytest

from test_golden import DEMOS, MANIFEST, text_digest


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert text_digest(out) == json.loads(MANIFEST.read_text())[f"demos/{demo.stem}.stdout"]
