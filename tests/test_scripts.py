"""The report scripts under scripts/ run to completion.

Each runs in a fresh interpreter with the package on PYTHONPATH; only the
exit code is checked, the numbers they print are pinned elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rovib

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "approximation_error_report.py",
    "kinetic_constant_trend.py",
    "reproduce_level_tables.py",
])
def test_report_script_exits_0(script):
    src = str(Path(rovib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
