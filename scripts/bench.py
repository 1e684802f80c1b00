"""Run the benchmark once and add the run to BENCH_<label>.json.

Usage, from anywhere, with numpy and scipy installed:

    python3 scripts/bench.py --label parent --workload cli --seed 601 --seconds 30

It runs perfbench/run.py unchanged, on the checkout that holds this
script, for one workload; --seed, --seconds and --trace pass through.
run.py imports scipy for its environment line, so for now this script
needs scipy too, although rovib does not.

BENCH_<label>.json, at the root of the checkout, holds {"label", "runs"};
each run adds {"git_commit", "git_dirty", "command", "environment",
"result"}: the checkout's HEAD and whether tracked files other than the
BENCH_*.json files differ from it (this script rewrites those itself, so
counting them would mark every run after a file's first as dirty),
run.py's arguments, its details line (environment, seed, request count)
and its last line, the metrics.  The details line's table and requests,
which the seed regenerates, and its per-request samples are left out:
they took 34 KB to 0.35 MB per run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = ("table", "requests", "request_times_s", "setup_samples_s")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Needs scipy for now: perfbench/run.py imports it for its environment "
               "line.  Other options (--seed, --seconds, --trace) pass to "
               "perfbench/run.py.")
    parser.add_argument("--label", required=True,
                        help="names the file, BENCH_<label>.json")
    parser.add_argument("--workload", required=True,
                        choices=("manifold", "compare", "cli"))
    args, run_args = parser.parse_known_args(argv)
    run_args = ["--workload", args.workload, *run_args]
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), *run_args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    *_, detail, result = proc.stdout.splitlines()
    detail = {key: value for key, value in json.loads(detail).items()
              if key not in LEFT_OUT}
    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text()) if path.exists() else {"label": args.label,
                                                                "runs": []}
    bench["runs"].append({
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no", "--",
                              ".", ":(exclude,top)BENCH_*.json")),
        "command": ["perfbench/run.py", *run_args],
        "environment": detail,
        "result": json.loads(result),
    })
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
