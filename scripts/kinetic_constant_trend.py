"""Residuals of the reference tables as a function of hbar^2/(2 m_u).

The reference level tables pin the kinetic constant more tightly than
the masses they quote (six digits of mu/10^-23 g).  This script sweeps
candidate values of hbar^2/(2 m_u), recomputes every closed-form table
entry, and reports the worst residual per candidate.  The working value
in units.py sits at the flat bottom of this curve; the CODATA-2018
value does not reproduce seven of the entries within 0.005 cm^-1.

Usage: python scripts/kinetic_constant_trend.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from reference_levels import N2_REFERENCE_COLUMNS, REFERENCE_LEVELS

from rovib.database import load_database
from rovib.spectrum import level
from rovib.units import HBAR2_OVER_2MU, HBAR2_OVER_2MU_CODATA

CANDIDATES = (
    16.857550,
    16.857600,
    HBAR2_OVER_2MU_CODATA,
    16.857640,
    HBAR2_OVER_2MU,
    16.857650,
    16.857700,
)
LABELS = {HBAR2_OVER_2MU_CODATA: "CODATA-2018", HBAR2_OVER_2MU: "working value"}


def worst_residual(db, candidate):
    """Worst |delta| and the count above 0.005 cm^-1 with the kinetic
    constant set to candidate.  The closed form sees the constant only
    through hbar^2/(2 mu), so each mu is divided by candidate/working."""

    def params(name):
        p = db.get(name)
        return p._replace(mu=p.mu / (candidate / HBAR2_OVER_2MU))

    worst = 0.0
    over = 0
    for name, entries in REFERENCE_LEVELS.items():
        p = params(name)
        for (nu, J), (_, reference) in entries.items():
            delta = abs(level(p, nu, J).E - reference)
            worst = max(worst, delta)
            over += delta > 0.005
    p = params("N2")
    for nu, (_, _, reference, _) in N2_REFERENCE_COLUMNS.items():
        delta = abs(level(p, nu, 0).E - reference)
        worst = max(worst, delta)
        over += delta > 0.005
    return worst, over


def main():
    db = load_database()
    print(f"{'hbar^2/(2 m_u)':>16} {'worst |delta|':>14} {'entries > 0.005':>16}")
    for candidate in CANDIDATES:
        worst, over = worst_residual(db, candidate)
        label = LABELS.get(candidate, "")
        print(f"{candidate:16.8f} {worst:14.5f} {over:>16}  {label}")


if __name__ == "__main__":
    main()
