"""
spectrum.py

Closed-form ro-vibrational energies for the effective P-form potential

    U_eff(r) = Pt1 + Pt2/(e^{b r} + q) + Pt3/(e^{b r} + q)^2

obtained by factorizing the radial Hamiltonian with the superpotential
W(r) = Q1 + Q2/(e^{b r} + q).  With k = hbar^2/(2 mu), n = 1 + 2 nu and

    R = sqrt(q^2 + 4 Pt3 / (k b^2)),
    q s = R - q n,
    bracket = [4 Pt2 / (k b^2) + 2 n R - q (1 + n^2)] / (4 q s),

the level energy is E = Pt1 - k b^2 bracket^2.  The bracket is the
textbook T/s - s/4, T = (Pt3 + q Pt2) / (k q^2 b^2), multiplied through
by q: neither of its terms grows like 1/q, so no digits cancel as
eta -> 0, and at q = 0 E is exactly the Morse level
De - k b^2 (sqrt(De/k)/b - (nu + 1/2))^2.  Taking R >= 0 keeps the
ground state normalizable on either side of q = 0.
"""

from __future__ import annotations

import math
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

@dataclass(frozen=True)
class EnergyLevel:
    nu: int
    J: int
    E: float  # cm^-1, measured from the potential minimum
    bound: bool  # False past the formula's monotone range or the zero of q s


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


def _table(pform: PForm, eff: EffectiveCoefficients, nu_list, J_list, mu, J_errors):
    """Rows and (nu, J, error) failures on the nu x J grid, row-major.

    The one closed-form kernel: eff holds Pt1..Pt3 as len(J) arrays (or
    scalars), so R is per J, q s and E per cell.  A cell fails with the
    first of its J error, a bad nu, a negative radicand R^2 and q s = 0.
    """
    nu_errors = [_index_error("nu", nu) for nu in nu_list]
    q, kb2 = pform.q, kinetic_factor(mu) * pform.b**2
    R2 = np.atleast_1d(q**2 + 4.0 * eff.Pt3 / kb2)  # per J
    R = np.sqrt(np.maximum(R2, 0.0))
    n = 1.0 + 2.0 * np.asarray(nu_list, dtype=float)[:, None]
    qs = R - q * n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bracket = (4.0 * eff.Pt2 / kb2 + 2.0 * n * R - q * (1.0 + n**2)) / (4.0 * qs)
        # float_power squares with libm pow as float ** 2 does; ** and
        # np.power on arrays round a few cells per 10^4 differently
        E = eff.Pt1 - kb2 * np.float_power(bracket, 2.0)
    failed = (R2 < 0.0) | (qs == 0.0) | np.array([e is not None for e in J_errors])
    failed[[e is not None for e in nu_errors]] = True
    # past the zero of q s (eta < 0) bracket turns negative again, at
    # large negative E; only cells with q s > 0 are bound
    bound_cells = (bracket < 0.0) & (qs > 0.0)
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
            f"no real solution: discriminant {R2[j]:.6g} < 0 at nu={nu}, J={J}"
            if R2[j] < 0.0
            else f"degenerate quantum-number shift q s = 0 at nu={nu}, J={J}"
        )))
    return rows, failures


def _single(table) -> EnergyLevel:
    rows, failures = table
    if failures:
        raise failures[0][2]
    return rows[0]


def energy(pform: PForm, eff: EffectiveCoefficients, nu: int, mu: float) -> EnergyLevel:
    """Closed-form level energy; (b, q) from pform, Pt_i from eff.

    Any q works, q = 0 (Morse) included.  Raises ValueError when the
    radicand R^2 turns negative (no real solution at this J).  Past the
    monotone range in nu the value is still returned, flagged
    bound=False.
    """
    return _single(_table(pform, eff, [nu], [eff.J], mu, [None]))


def susy_intermediates(
    pform: PForm, eff: EffectiveCoefficients, mu: float
) -> SusyIntermediates:
    """Superpotential coefficients Q1t, Q2t and the exact ground level.

    Q2t = -b q/2 + S, S = sqrt((b q/2)^2 + Pt3/k), is the positive root
    of Q2t^2 + b q Q2t = Pt3/k; Q1t follows from (q Pt2 + Pt3)/k =
    2 q Q1t Q2t + Q2t^2, divided through by q as
    Q1t = (Pt2/k - b^2 q/2 + b S) / (2 Q2t).  Taking the positive root
    realizes the plus branch for q > 0 and the minus branch for q < 0
    without a case split.  E0 = Pt1 - k Q1t^2 coincides with
    energy(nu=0).  q = 0 raises ValueError: the wavefunction divides by
    b q.
    """
    if pform.q == 0.0:
        raise ValueError("q = 0 (Morse) has no P-form ground-state wavefunction")
    k = kinetic_factor(mu)
    bq_half = pform.b * pform.q / 2.0
    radicand = bq_half**2 + eff.Pt3 / k
    if radicand < 0.0:
        raise ValueError(f"no real superpotential: radicand {radicand:.6g} < 0")
    S = math.sqrt(radicand)
    Q2t = -bq_half + S
    if Q2t == 0.0:
        raise ValueError("superpotential degenerates (Q2t = 0)")
    Q1t = (eff.Pt2 / k - pform.b * bq_half + pform.b * S) / (2.0 * Q2t)
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
    derived = derive(params)
    pform = to_pform(from_params(params))
    coeffs = badawi_coefficients(derived.u, params.eta)
    J = np.array([0 if e else J for J, e in zip(J_list, J_errors)], dtype=float)
    eff = effective_coefficients(pform, coeffs, J, params.mu, params.re)
    return _table(pform, eff, nu_list, J_list, params.mu, J_errors)


def level_table(
    params: SpectroscopicParams, nu_list: list[int], J_list: list[int]
) -> tuple[list[EnergyLevel], list[LevelFailure]]:
    """Levels for every (nu, J) pair, row-major in nu then J.

    One array pass of the closed form covers the grid.  Entries that
    fail (bad index, negative radicand) are collected as LevelFailure
    records instead of aborting the table.
    """
    if not nu_list or not J_list:
        raise ValueError("nu_list and J_list must be non-empty")
    rows, failures = _levels(params, nu_list, J_list)
    return rows, [LevelFailure(nu, J, str(error)) for nu, J, error in failures]
