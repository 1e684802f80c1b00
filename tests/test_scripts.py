"""The report scripts under scripts/ run to completion.

Each runs in a fresh interpreter with the package on PYTHONPATH and
numpy RuntimeWarnings raised as errors.  The exit code is checked for
every script; the kinetic-constant sweep's stdout is pinned here, the
other scripts' numbers are pinned elsewhere.  bench.py runs on a stub
benchmark in a scratch git checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rovib

ROOT = Path(__file__).resolve().parents[1]

# the label column is padded with two spaces even where it is empty
KINETIC_CONSTANT_TREND = [
    "  hbar^2/(2 m_u)  worst |delta|  entries > 0.005",
    "     16.85755000        0.05245               67  ",
    "     16.85760000        0.02376               62  ",
    "     16.85762919        0.00711                7  CODATA-2018",
    "     16.85764000        0.00266                0  ",
    "     16.85764400        0.00151                0  working value",
    "     16.85765000        0.00492                0  ",
    "     16.85770000        0.03361               63  ",
]


def run_script(script):
    src = str(Path(rovib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "scripts" / script)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


@pytest.mark.parametrize("script", [
    "approximation_error_report.py",
    "kinetic_constant_trend.py",
    "oracle_deviation_report.py",
    "reproduce_level_tables.py",
])
def test_report_script_exits_0(script):
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_kinetic_constant_trend_output():
    proc = run_script("kinetic_constant_trend.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == KINETIC_CONSTANT_TREND


def test_bench_counts_only_source_changes_as_dirty(tmp_path):
    # bench.py rewrites the tracked BENCH_<label>.json itself, so that
    # file's own change must not mark the next run dirty
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "bench.py").write_text(
        (ROOT / "scripts" / "bench.py").read_text())
    (tmp_path / "perfbench").mkdir()
    run_py = tmp_path / "perfbench" / "run.py"
    run_py.write_text('print(\'{"seed": 1}\')\nprint(\'{"success_frac": 1.0}\')\n')

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    def bench():
        subprocess.run([sys.executable, "scripts/bench.py", "--label", "t",
                        "--workload", "cli"], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    git("add", ".")
    git("commit", "-qm", "source")
    bench()
    git("add", "BENCH_t.json")
    git("commit", "-qm", "first run")
    bench()
    bench()  # BENCH_t.json now differs from HEAD
    run_py.write_text(run_py.read_text() + "# edited\n")
    bench()
    runs = json.loads((tmp_path / "BENCH_t.json").read_text())["runs"]
    assert [run["git_dirty"] for run in runs] == [False, False, False, True]
