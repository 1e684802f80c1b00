"""
spectrum.py

Closed-form ro-vibrational energies for the effective P-form potential

    U_eff(r) = Pt1 + Pt2/(e^{b r} + q) + Pt3/(e^{b r} + q)^2

obtained by factorizing the radial Hamiltonian with the superpotential
W(r) = Q1 + Q2/(e^{b r} + q).  With k = hbar^2/(2 mu) and the shorthand

    T = (Pt3 + q Pt2) / (k q^2 b^2),
    D = 1 + 4 Pt3 / (k q^2 b^2),
    s = -(1 + 2 nu) + sign(q) sqrt(D),

the level energy is E = Pt1 - k b^2 (T/s - s/4)^2.  The sign(q) branch
keeps the ground state normalizable on either side of q = 0; the q -> 0
(Morse) limit is singular here and is served by morse_vibrational_energy
instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .potentials import (
    PForm,
    SingularRadiusError,
    SpectroscopicParams,
    derive,
    from_params,
    to_pform,
)
from .rotational import EffectiveCoefficients, badawi_coefficients, effective_coefficients
from .units import kinetic_factor

_EPS = sys.float_info.epsilon


class MorseLimitError(ValueError):
    """Raised when q = 0, or q so close to 0 that the closed form loses
    its digits; use morse_vibrational_energy for that limit."""


# Largest cancellation error (cm^-1) the closed form may carry.  Near
# q = 0, T/s and s/4 both grow like 1/q and cancel in the bracket, which
# leaves about 2 eps sqrt(P1 P3) / |q| = 2 De eps |1 - eta| / |eta| in E.
# Probes against 60-digit arithmetic found the true error within ~3x of
# that estimate, so this cut keeps it below the 0.005 cm^-1 band of the
# reference tables (at De = 2e4 it lies at |eta| ~ 9e-9).
MORSE_LIMIT_TOL_CM1 = 1.0e-3


@dataclass(frozen=True)
class EnergyLevel:
    nu: int
    J: int
    E: float  # cm^-1, measured from the potential minimum
    bound: bool  # False past the formula's monotone range or the zero of s


@dataclass(frozen=True)
class SusyIntermediates:
    """Superpotential coefficients and the factorization ground state."""

    Q1t: float  # 1/Angstrom, negative for a normalizable state
    Q2t: float  # 1/Angstrom, positive root of the factorization quadratic
    E0: float  # cm^-1
    branch: str  # "plus" for q > 0, "minus" for q < 0


@dataclass(frozen=True)
class WavefunctionSample:
    r: float  # Angstrom
    value: float  # unnormalized psi(r)


@dataclass(frozen=True)
class LevelFailure:
    nu: int
    J: int
    error: str


def _index_error(label: str, value: int) -> ValueError | None:
    if value != int(value) or value < 0:
        return ValueError(f"{label} must be a non-negative integer, got {value}")
    return None


def _shorthands(pform: PForm, eff: EffectiveCoefficients, mu: float):
    if pform.q**2 == 0.0:  # q = 0, or so close that q^2 underflows
        raise MorseLimitError(
            "q = 0 has no P-form spectrum; use morse_vibrational_energy"
        )
    cancellation = 2.0 * _EPS * math.sqrt(abs(pform.P1 * pform.P3)) / abs(pform.q)
    if cancellation > MORSE_LIMIT_TOL_CM1:
        raise MorseLimitError(
            f"q = {pform.q:.3g} is too close to the Morse limit: cancellation "
            f"error ~{cancellation:.2g} cm^-1 exceeds {MORSE_LIMIT_TOL_CM1} "
            "cm^-1; use morse_vibrational_energy"
        )
    k = kinetic_factor(mu)
    kq2b2 = k * pform.q**2 * pform.b**2
    T = (eff.Pt3 + pform.q * eff.Pt2) / kq2b2
    D = 1.0 + 4.0 * eff.Pt3 / kq2b2
    return k, T, D


def _table(pform: PForm, eff: EffectiveCoefficients, nu_list, J_list, mu, J_errors):
    """Rows and (nu, J, error) failures on the nu x J grid, row-major.

    The one closed-form kernel: eff holds Pt1..Pt3 as len(J) arrays (or
    scalars), so T and D are per J, s and E per cell.  A cell fails with
    the first of its J error, a bad nu, q = 0, D < 0 and s = 0.
    """
    nu_errors = [_index_error("nu", nu) for nu in nu_list]
    try:
        k, T, D = _shorthands(pform, eff, mu)
    except MorseLimitError as exc:
        return [], [(nu, J, e or n or exc) for nu, n in zip(nu_list, nu_errors)
                    for J, e in zip(J_list, J_errors)]
    nus = np.asarray(nu_list, dtype=float)[:, None]
    s = np.copysign(np.sqrt(np.maximum(D, 0.0)), pform.q) - (1.0 + 2.0 * nus)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = T / s - s / 4.0
        # float_power squares with libm pow as float ** 2 does; ** and
        # np.power on arrays round a few cells per 10^4 differently
        E = eff.Pt1 - k * pform.b**2 * np.float_power(bracket, 2.0)
    D = np.atleast_1d(D)  # per J; a scalar when eff holds one J
    failed = (D < 0.0) | (s == 0.0) | np.array([e is not None for e in J_errors])
    failed[[e is not None for e in nu_errors]] = True
    # past the zero of s (eta < 0) bracket turns negative again, at large
    # negative E; only cells where s keeps the sign of q are bound
    bound_cells = (bracket < 0.0) & (s * pform.q > 0.0)
    rows = [
        EnergyLevel(nu, J, E_cell, bound)
        for nu, E_row, bound_row, failed_row in zip(
            nu_list, E.tolist(), bound_cells.tolist(), failed.tolist())
        for J, E_cell, bound, bad in zip(J_list, E_row, bound_row, failed_row)
        if not bad
    ]
    failures = []
    for i, j in np.argwhere(failed).tolist():
        nu, J = nu_list[i], J_list[j]
        failures.append((nu, J, J_errors[j] or nu_errors[i] or ValueError(
            f"no real solution: discriminant {D[j]:.6g} < 0 at nu={nu}, J={J}"
            if D[j] < 0.0
            else f"degenerate quantum-number shift s = 0 at nu={nu}, J={J}"
        )))
    return rows, failures


def _single(table) -> EnergyLevel:
    rows, failures = table
    if failures:
        raise failures[0][2]
    return rows[0]


def energy(pform: PForm, eff: EffectiveCoefficients, nu: int, mu: float) -> EnergyLevel:
    """Closed-form level energy; (b, q) from pform, Pt_i from eff.

    Raises MorseLimitError for q = 0 and ValueError when the
    discriminant D turns negative (no real solution at this J).  Past
    the monotone range in nu the value is still returned, flagged
    bound=False.
    """
    return _single(_table(pform, eff, [nu], [eff.J], mu, [None]))


def susy_intermediates(
    pform: PForm, eff: EffectiveCoefficients, mu: float
) -> SusyIntermediates:
    """Superpotential coefficients Q1t, Q2t and the exact ground level.

    Q2t is the positive root of Q2t^2 + b q Q2t = Pt3/k; Q1t follows
    from (q Pt2 + Pt3)/k = 2 q Q1t Q2t + Q2t^2.  Taking the positive
    root realizes the plus branch for q > 0 and the minus branch for
    q < 0 without a case split.  E0 = Pt1 - k Q1t^2 coincides with
    energy(nu=0) identically.
    """
    k, _, _ = _shorthands(pform, eff, mu)
    bq_half = pform.b * pform.q / 2.0
    radicand = bq_half**2 + eff.Pt3 / k
    if radicand < 0.0:
        raise ValueError(f"no real superpotential: radicand {radicand:.6g} < 0")
    Q2t = -bq_half + math.sqrt(radicand)
    if Q2t == 0.0:
        raise ValueError("superpotential degenerates (Q2t = 0)")
    Q1t = ((pform.q * eff.Pt2 + eff.Pt3) / k - Q2t**2) / (2.0 * pform.q * Q2t)
    return SusyIntermediates(
        Q1t=Q1t,
        Q2t=Q2t,
        E0=eff.Pt1 - k * Q1t**2,
        branch="plus" if pform.q > 0.0 else "minus",
    )


def wavefunction(
    intermediates: SusyIntermediates, pform: PForm, r: float
) -> WavefunctionSample:
    """Unnormalized nodeless ground state at one radius.

    The amplitude may underflow to 0 far from the well, which is
    harmless for ratio and decay checks.
    """
    return WavefunctionSample(
        r=r, value=math.exp(log_wavefunction(intermediates, pform, r))
    )


def log_wavefunction(
    intermediates: SusyIntermediates, pform: PForm, r: float
) -> float:
    """ln psi(r) = Q1t r - (Q2t / (b q)) ln(1 + q e^{-b r}).

    The log-domain form keeps large exponents from overflowing.
    """
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    arg = pform.q * math.exp(-pform.b * r)
    if arg <= -1.0:
        raise SingularRadiusError("radius at or inside a pole of the potential")
    return intermediates.Q1t * r - (
        intermediates.Q2t / (pform.b * pform.q)
    ) * math.log1p(arg)


def morse_vibrational_energy(De: float, we: float, nu: int) -> float:
    """Morse level we (nu + 1/2) - we^2 (nu + 1/2)^2 / (4 De), J = 0.

    Valid while nu + 1/2 < 2 De / we; beyond that the Morse well holds
    no further bound states and ValueError is raised.
    """
    if error := _index_error("nu", nu):
        raise error
    if De <= 0.0 or we <= 0.0:
        raise ValueError("De and we must be positive")
    x = nu + 0.5
    if x >= 2.0 * De / we:
        raise ValueError(
            f"nu={nu} beyond the Morse bound spectrum (nu + 1/2 >= 2 De/we)"
        )
    return we * x - we**2 * x**2 / (4.0 * De)


def level(params: SpectroscopicParams, nu: int, J: int) -> EnergyLevel:
    """One level: the single cell of level_table, raising its failure."""
    return _single(_levels(params, [nu], [J]))


def _levels(params: SpectroscopicParams, nu_list, J_list):
    J_errors = [_index_error("J", J) for J in J_list]
    try:  # once per molecule; an error here fails every cell but bad-J ones
        derived = derive(params)
        pform = to_pform(from_params(params))
        coeffs = badawi_coefficients(derived.u, params.eta)
        J = np.array([0 if e else J for J, e in zip(J_list, J_errors)], dtype=float)
        eff = effective_coefficients(pform, coeffs, J, params.mu, params.re)
    except ValueError as exc:
        return [], [(nu, J, e or exc) for nu in nu_list
                    for J, e in zip(J_list, J_errors)]
    return _table(pform, eff, nu_list, J_list, params.mu, J_errors)


def level_table(
    params: SpectroscopicParams, nu_list: list[int], J_list: list[int]
) -> tuple[list[EnergyLevel], list[LevelFailure]]:
    """Levels for every (nu, J) pair, row-major in nu then J.

    One array pass of the closed form covers the grid.  Entries that
    fail (bad index, negative discriminant, Morse limit) are collected
    as LevelFailure records instead of aborting the table.
    """
    if not nu_list or not J_list:
        raise ValueError("nu_list and J_list must be non-empty")
    rows, failures = _levels(params, nu_list, J_list)
    return rows, [LevelFailure(nu, J, str(error)) for nu, J, error in failures]
