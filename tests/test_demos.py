"""Smoke test of the narrative scripts under ``demos/``.

Each demo imports the library's public API and asserts its own results,
so running it in a child Python checks both that the names it uses still
exist and that its claims still hold.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
