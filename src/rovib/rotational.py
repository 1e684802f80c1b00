"""
rotational.py

Centrifugal term and its rational approximation.

For J > 0 the radial equation carries J(J+1) * hbar^2/(2 mu) / r^2.  On
the P-form side that term is approximated by expanding re^2/r^2 around
the minimum in the same rational basis as the potential,

    re^2/r^2 ~ C1 + C2/(e^{b r} + q) + C3/(e^{b r} + q)^2,

with C1..C3 fixed by matching value, slope and curvature at re.  The
shifted coefficients Pt_i = P_i + gamma C_i then feed the closed-form
spectrum unchanged.  numpy is imported only by the functions that take
arrays: the coefficients of one J are plain floats.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .potentials import PForm
from .units import kinetic_factor

if TYPE_CHECKING:
    import numpy as np


class FactorizationCoefficients(NamedTuple):
    """Coefficients of the rational re^2/r^2 approximation."""

    C1: float
    C2: float
    C3: float


class EffectiveCoefficients(NamedTuple):
    """P-form coefficients shifted by the centrifugal expansion; the
    numbers are arrays over J when built for an array of J."""

    Pt1: float  # cm^-1
    Pt2: float
    Pt3: float
    gamma: float  # cm^-1, J(J+1) hbar^2/(2 mu re^2)


def badawi_coefficients(u: float, eta: float) -> FactorizationCoefficients:
    """Match re^2/r^2 in the rational basis to second order at the minimum.

    Arguments are u = b re and the shape parameter eta; the three
    matching conditions solve in closed form.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if eta == 1.0:
        raise ValueError("eta must differ from 1")
    one = 1.0 - eta
    w = one / u
    C1 = 1.0 - w**2 * (4.0 * u / one - (3.0 + u))
    C2 = 2.0 * math.exp(u) * one * (3.0 * w - (3.0 + u) * w**2)
    C3 = (math.exp(2.0 * u) / u**2) * one**4 * ((3.0 + u) - 2.0 * u / one)
    return FactorizationCoefficients(C1=C1, C2=C2, C3=C3)


def centrifugal_strength(J, mu: float, re: float):
    """gamma = J(J+1) hbar^2/(2 mu) / re^2 in cm^-1, for one J or an array."""
    bad = (J < 0) | (J % 1 != 0)  # a bool for one J, an array for an array
    if bad.any() if hasattr(bad, "any") else bad:
        raise ValueError(f"J must be a non-negative integer, got {J}")
    if re <= 0.0:
        raise ValueError(f"re must be positive, got {re}")
    try:
        return J * (J + 1) * kinetic_factor(mu) / re**2
    except OverflowError:  # an int J(J+1) beyond float range: J in floats
        try:
            J = float(J)
        except OverflowError:
            raise ValueError("J must be a non-negative integer, got one beyond "
                             "float range") from None
        return J * (J + 1) * kinetic_factor(mu) / re**2


def effective_coefficients(
    pform: PForm,
    coeffs: FactorizationCoefficients,
    J: int,
    mu: float,
    re: float,
) -> EffectiveCoefficients:
    """Pt_i = P_i + gamma C_i; at J = 0 the P-form passes through.

    J may be an array of indices; Pt_i and gamma are then arrays too.
    """
    gamma = centrifugal_strength(J, mu, re)
    return EffectiveCoefficients(
        Pt1=pform.P1 + gamma * coeffs.C1,
        Pt2=pform.P2 + gamma * coeffs.C2,
        Pt3=pform.P3 + gamma * coeffs.C3,
        gamma=gamma,
    )


def centrifugal_approx_error(
    coeffs: FactorizationCoefficients, q: float, u: float, b: float, r_grid
) -> np.ndarray:
    """Relative error of the rational approximation of re^2/r^2.

    Returns (approx - exact)/exact on the given radii; independent of J
    because gamma multiplies both sides.
    """
    import numpy as np

    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radii must be positive")
    den = np.exp(b * r) + q
    if np.any(np.abs(den) < 1.0e-12 * np.exp(b * float(np.max(r)))):
        raise ValueError("radius too close to a pole of the rational basis")
    approx = coeffs.C1 + coeffs.C2 / den + coeffs.C3 / den**2
    exact = (u / b) ** 2 / r**2
    return (approx - exact) / exact


def greene_aldrich_approx(lam: float, r) -> np.ndarray:
    """Exponential-basis approximation lam^2 (1/12 + e^{lam r}/(e^{lam r}-1)^2).

    The standard small-lam*r substitute for 1/r^2; kept as a pointwise
    comparator for the second-order matching above, no spectrum is
    derived from it.
    """
    import numpy as np

    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    el = np.exp(lam * r)
    out = lam**2 * (1.0 / 12.0 + el / (el - 1.0) ** 2)
    return float(out) if r.ndim == 0 else out


def greene_aldrich_error(lam: float, r) -> np.ndarray:
    """Relative error of the exponential-basis approximation of 1/r^2."""
    import numpy as np

    r = np.asarray(r, dtype=float)
    return (greene_aldrich_approx(lam, r) - 1.0 / r**2) * r**2


def default_r_grid(re: float, n: int = 200, pole: float | None = None) -> np.ndarray:
    """Log-spaced radii over [0.6 re, 5 re] for approximation-error scans.

    Points within 1e-6 Angstrom of a pole are dropped.
    """
    import numpy as np

    if re <= 0.0:
        raise ValueError(f"re must be positive, got {re}")
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    grid = np.geomspace(0.6 * re, 5.0 * re, n)
    if pole is not None:
        grid = grid[np.abs(grid - pole) > 1.0e-6]
    return grid
