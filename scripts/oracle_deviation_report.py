"""Sinc-DVR cross-check of the closed-form level tables.

For every molecule with a ro-vibrational reference table, solves the
radial problem numerically (oracle.deviation_report: a dense sinc-DVR
Hamiltonian refined until N and 2N basis functions agree, its lowest
eigenvectors shared by the J values whose levels fit its box) and
prints closed-form minus oracle for each level.  Where the table quotes a numerically
converged benchmark value, it also prints oracle minus benchmark, with
the oracle solved for the benchmark's own exponent b = beta (1 - eta)
(reference_levels.benchmark_params).  Entries listed in
BENCHMARK_ERRATA are marked and left out of the miss count.

Usage: python scripts/oracle_deviation_report.py [--molecule NAME]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from reference_levels import BENCHMARK_ERRATA, REFERENCE_LEVELS, benchmark_params

from rovib.database import load_database
from rovib.oracle import deviation_report

NU_ROWS = [0, 3, 5]
J_COLUMNS = [0, 1, 2, 3, 4, 5, 10, 15, 20]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--molecule", help="restrict to one molecule")
    args = parser.parse_args()

    db = load_database()
    names = [args.molecule] if args.molecule else list(REFERENCE_LEVELS)
    for name in names:
        params = db.get(name)
        entries = REFERENCE_LEVELS[name]
        report = deviation_report(params, NU_ROWS, J_COLUMNS)
        bench_report = deviation_report(benchmark_params(params), NU_ROWS,
                                        J_COLUMNS)
        bench_oracle = {(row.nu, row.J): row.E_oracle
                        for row in bench_report.rows}
        print(f"\n{name}  (sinc DVR; or-bench on b = beta (1 - eta))")
        print(f"{'nu':>3} {'J':>3} {'closed':>12} {'oracle':>12} "
              f"{'cl-or':>8}  {'or-bench':>9}")
        bench_misses = 0
        for row in report.rows:
            benchmark = entries.get((row.nu, row.J), (None, None))[0]
            erratum = (name, row.nu, row.J) in BENCHMARK_ERRATA
            if benchmark is None:
                gap = " " * 9
            else:
                diff = bench_oracle[(row.nu, row.J)] - benchmark
                bench_misses += abs(diff) > 0.05 and not erratum
                gap = f"{diff:9.3f}"
            print(f"{row.nu:>3} {row.J:>3} {row.E_closed:12.4f} "
                  f"{row.E_oracle:12.4f} {row.delta:8.4f}  {gap}"
                  + ("  erratum" if erratum else ""))
        print(f"max |closed - oracle| = {report.max_abs_delta:.4f} cm^-1 "
              f"(J = 0: {report.max_abs_delta_by_J[0]:.4f}); largest oracle "
              f"|E_N - E_2N| = {max(row.oracle_err for row in report.rows):.1e}")
        print(f"benchmark rows outside 0.05 cm^-1 (errata excluded): "
              f"{bench_misses}")


if __name__ == "__main__":
    main()
