"""rovib benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload manifold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The package runs from ``src/`` (no install needed).  The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The line before it holds the run's details: the
environment, the seed, the generated table and every request made.
Workloads, metrics and their meaning are described in README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("manifold", "compare", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def limit_blas_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the usable core count; must run before
    numpy is imported.  Unset variables are set to the core count."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var) or cores)
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout from .git, without running git (which would
    search parent directories when the checkout is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "git_commit": git_commit(ROOT),
        "clients": 1,
        "loop": "closed",
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    missing = [p for p in (src / "rovib" / "__init__.py", ROOT / "tests" / "reference_levels.py")
               if not p.is_file()]
    if missing:
        print(f"error: not a rovib source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    blas = limit_blas_threads()
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    import rovib
    import workloads

    if Path(rovib.__file__).resolve().parent != (src / "rovib").resolve():
        print(f"error: imported rovib from {rovib.__file__}, not {src}", file=sys.stderr)
        return 2
    result, detail = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, env
    )
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(blas), **detail}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
