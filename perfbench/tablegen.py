"""Seeded molecule table for the benchmark.

The table keeps the bundled rows verbatim and adds PER_PARENT rows around
each of them, perturbing eta, alpha, De and we.  mu, re and the tabulated
beta column are copied from the parent row.  Only the stdlib random
generator is used, so one seed gives a byte-identical table on every
platform and Python version that keeps ``random.Random``'s sequence.

The harmonic frequency is not drawn on its own: each child row draws the
Morse bound count x = 2 De / we from one of PER_PARENT equal strata of
[x0 (1 - X_SPAN), x0 (1 + X_SPAN)] and sets we = 2 De / x.  Every table
therefore holds the same spread of manifold sizes (the number of nu rows
is floor(x - 1/2) + 1), and the cost of a request depends on the seed only
through which molecule it names, not through how big the table's
molecules happen to be.
"""

from __future__ import annotations

import math
import random

HEADER = "name eta mu_1e-23_g alpha_inv_A re_A beta_inv_A De_cm1 we_cm1"
PER_PARENT = 3

# Ranges keep every row inside what the package accepts and computes
# without failure: all (nu, J) up to the Morse bound count and J = 200
# have a real closed-form solution, and both Lambert-W variants of
# `rovib varshni` stay in their real domain (checked by the self-test).
ETA_SPAN = 0.015  # absolute, bundled etas lie in [-0.033, 0.028]
ALPHA_SPAN = 0.03  # relative
DE_SPAN = 0.05  # relative
X_SPAN = 0.05  # relative span of 2 De / we


def bound_count(De: float, we: float) -> int:
    """Highest nu of a molecule's manifold, floor(2 De / we - 1/2)."""
    return math.floor(2.0 * De / we - 0.5)


def data_lines(text: str) -> list[str]:
    """Molecule rows of a database file, header and comments dropped."""
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows or rows[0].split() != HEADER.split():
        raise ValueError("database text does not start with the expected header")
    return rows[1:]


def generate(seed: int, bundled_text: str) -> str:
    """Bundled rows plus PER_PARENT seeded perturbations of each."""
    rng = random.Random(seed)
    parents = data_lines(bundled_text)
    lines = [
        f"# rovib benchmark table, seed {seed}: {len(parents)} bundled rows, "
        f"then {PER_PARENT} perturbed rows per bundled row.",
        HEADER,
        *parents,
    ]
    for parent in parents:
        name, eta, mu, alpha, re, beta, De, we = parent.split()
        eta, alpha, De, we = float(eta), float(alpha), float(De), float(we)
        x0 = 2.0 * De / we
        strata = list(range(PER_PARENT))
        rng.shuffle(strata)
        for i, stratum in enumerate(strata, start=1):
            new_eta = eta + rng.uniform(-ETA_SPAN, ETA_SPAN)
            new_alpha = alpha * (1.0 + rng.uniform(-ALPHA_SPAN, ALPHA_SPAN))
            new_De = De * (1.0 + rng.uniform(-DE_SPAN, DE_SPAN))
            share = (stratum + rng.random()) / PER_PARENT
            x = x0 * (1.0 - X_SPAN + 2.0 * X_SPAN * share)
            lines.append(
                f"{name}_{i} {new_eta:.6f} {mu} {new_alpha:.6f} {re} {beta} "
                f"{new_De:.1f} {2.0 * new_De / x:.1f}"
            )
    return "\n".join(lines) + "\n"
