"""
rotational.py

Centrifugal term and its rational approximation.

For J > 0 the radial equation carries J(J+1) * hbar^2/(2 mu) / r^2.  On
the P-form side that term is approximated by expanding re^2/r^2 around
the minimum in the same rational basis as the potential,

    re^2/r^2 ~ C1 + C2/(e^{b r} + q) + C3/(e^{b r} + q)^2,

with C1..C3 fixed by matching value, slope and curvature at re.  The
shifted coefficients Pt_i = P_i + gamma C_i then feed the closed-form
spectrum unchanged.  The module imports no numpy: the coefficients of
one J are plain floats, centrifugal_strength and effective_coefficients
take level_table's array of J by duck typing, and the scan helpers take
any sequence of radii and return lists of floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .potentials import PForm
from .units import kinetic_factor

# The library's largest nu or J, the largest integer a float64 holds
# exactly.  Within the bounds of SpectroscopicParams no index up to it
# overflows the centrifugal term or the closed form's (1 + 2 nu)^2.
MAX_INDEX = 2**53


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
    # a bool for one J, an array for an array
    bad = (J < 0) | (J % 1 != 0) | (J > MAX_INDEX)
    if bad.any() if hasattr(bad, "any") else bad:
        raise ValueError("J must be a non-negative integer at most 2**53")
    if re <= 0.0:
        raise ValueError(f"re must be positive, got {re}")
    return J * (J + 1) * kinetic_factor(mu) / re**2


def effective_coefficients(
    pform: PForm,
    coeffs: FactorizationCoefficients,
    J: int,
    mu: float,
    re: float,
) -> EffectiveCoefficients:
    """Pt_i = P_i + gamma C_i, gamma = centrifugal_strength(J, mu, re);
    at J = 0 the P-form passes through.

    J may be an array of indices; Pt_i are then arrays too.
    """
    gamma = centrifugal_strength(J, mu, re)
    return EffectiveCoefficients(
        Pt1=pform.P1 + gamma * coeffs.C1,
        Pt2=pform.P2 + gamma * coeffs.C2,
        Pt3=pform.P3 + gamma * coeffs.C3,
    )


def _positive(r, label: str) -> list[float]:
    """The radii r as floats; ValueError if one is at or below 0."""
    r = [float(x) for x in r]
    if any(x <= 0.0 for x in r):
        raise ValueError(f"{label} must be positive")
    return r


def centrifugal_approx_error(
    coeffs: FactorizationCoefficients, q: float, u: float, b: float, r_grid
) -> list[float]:
    """Relative error of the rational approximation of re^2/r^2.

    Returns (approx - exact)/exact at each of the given radii, each
    computed on its own; independent of J because gamma multiplies both
    sides.  A radius where |1 + q e^{-b r}| < 1e-12, the basis
    denominator e^{b r} + q within 1e-12 e^{b r} of 0, raises ValueError.
    """
    r = _positive(r_grid, "radii")
    ebr = [math.exp(b * x) for x in r]
    if any(abs(1.0 + q / e) < 1.0e-12 for e in ebr):
        raise ValueError("radius too close to a pole of the rational basis")
    den = [e + q for e in ebr]
    C1, C2, C3 = coeffs
    re2 = (u / b) ** 2
    exact = [re2 / (x * x) for x in r]
    return [(C1 + C2 / d + C3 / (d * d) - e) / e for d, e in zip(den, exact)]


def greene_aldrich_error(lam: float, r) -> list[float]:
    """Relative error, at each of the radii r, of the exponential-basis
    approximation lam^2 (1/12 + e^{lam r}/(e^{lam r}-1)^2) of 1/r^2.

    The standard small-lam*r substitute for 1/r^2; kept as a pointwise
    comparator for the second-order matching above, no spectrum is
    derived from it.
    """
    lam2 = lam**2
    out = []
    for x in _positive(r, "r"):
        el = math.exp(lam * x)
        g = lam2 * (1.0 / 12.0 + el / ((el - 1.0) * (el - 1.0)))
        out.append((g - 1.0 / (x * x)) * (x * x))
    return out


def default_r_grid(re: float, n: int = 200, pole: float | None = None) -> list[float]:
    """Log-spaced radii over [0.6 re, 5 re] for approximation-error scans.

    The points of numpy's geomspace: the two ends as given, between them
    10^(log10(0.6 re) + i step).  Points within 1e-6 Angstrom of a pole
    are dropped.
    """
    if re <= 0.0:
        raise ValueError(f"re must be positive, got {re}")
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    lo, hi = 0.6 * re, 5.0 * re
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (n - 1)
    grid = [lo, *(10.0 ** (i * step + start) for i in range(1, n - 1)), hi]
    if pole is not None:
        grid = [x for x in grid if abs(x - pole) > 1.0e-6]
    return grid
