"""Smoke test: each quick demo runs to completion as its own process.

Demo 07 (the full image task) takes minutes and is left out.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_quick_demos_are_found():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(tmp_path, name):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
