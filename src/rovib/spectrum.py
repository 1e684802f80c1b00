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

level_table takes at most MAX_PAIRS cells and evaluates E in one of
two kernels, chosen by grid size: in plain floats cell by cell up to
MAX_SCALAR_CELLS cells, so that small requests never import numpy, and
in one numpy pass above.  Both call one expression of the closed form,
_radical per J and _level per cell, and agree to the last bit.  The
numpy kernel builds its rows with the cyclic garbage collector paused:
EnergyLevel rows, a tuple subclass, stay tracked, and a manifold of
~14,000 of them would otherwise start about 19 collections.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from itertools import compress, repeat
from typing import NamedTuple

from .potentials import (
    PForm,
    SingularRadiusError,
    SpectroscopicParams,
    derive,
    from_params,
    to_pform,
)
from .rotational import (MAX_INDEX, EffectiveCoefficients, badawi_coefficients,
                         effective_coefficients)
from .units import kinetic_factor

MAX_PAIRS = 250_000  # (nu, J) cells in one level_table call
# Largest nu x J grid that level_table evaluates in plain floats
# (_scalar_table) rather than with numpy (_table), so that a request up to
# here never imports numpy, which costs a fresh interpreter about 0.17 s.
# With numpy loaded (2-vCPU x86 host), 16 cells took 30 us against 70 us,
# 64 cells 71 against 85 us, 144 cells 129 against 107 us and 256 cells
# 203 against 135 us: past ~100 cells plain floats are slower, by at most
# 0.07 ms.
MAX_SCALAR_CELLS = 256


class EnergyLevel(NamedTuple):
    nu: int
    J: int
    E: float  # cm^-1, measured from the potential minimum
    bound: bool  # False past the formula's monotone range or the zero of q s


class SusyIntermediates(NamedTuple):
    """Superpotential coefficients and the factorization ground state."""

    Q1t: float  # 1/Angstrom, negative for a normalizable state
    Q2t: float  # 1/Angstrom, positive root of the factorization quadratic
    E0: float  # cm^-1


class LevelFailure(NamedTuple):
    nu: int
    J: int
    error: str


def _index_error(label: str, value: int) -> str | None:
    """Why value is no index: above MAX_INDEX, past which J(J+1) and
    (1 + 2 nu)^2 could overflow (a text without its digits, which may
    run to hundreds), negative or not whole (nan and inf included)."""
    if value % 1 == 0 and abs(value) > MAX_INDEX:  # nan % 1 and inf % 1 are nan
        return f"{label} must be a non-negative integer at most 2**53"
    if value < 0 or value % 1:
        return f"{label} must be a non-negative integer, got {value}"
    return None


# the failure of a cell whose E is not finite: q s tiny against bracket's
# numerator, so bracket^2 or k b^2 bracket^2 overflows, n and R finite
_E_BEYOND = "level beyond float range: the closed form's bracket^2 overflows"


def _failure_text(nu, J, R2: float, qs: float) -> str:
    """Why the closed form has no level at an in-range (nu, J)."""
    if R2 < 0.0:
        return f"no real solution: discriminant {R2:.6g} < 0 at nu={nu}, J={J}"
    if qs == 0.0:
        return f"degenerate quantum-number shift q s = 0 at nu={nu}, J={J}"
    return _E_BEYOND


@contextmanager
def _collector_paused():
    """Hold off the cyclic garbage collector, then restore its state.

    CPython never untracks tuple subclasses, so every EnergyLevel row
    stays tracked and a large table would start a collection every 700
    rows (the default threshold).  Allocations still count while paused:
    the collection is deferred to the first allocation after, not
    skipped.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _PlainFloats:
    """The numpy functions the closed form calls, on plain floats."""

    maximum, sqrt, float_power = max, math.sqrt, pow


def _radical(xp, q: float, kb2: float, eff: EffectiveCoefficients):
    """R^2, R and 4 Pt2 / (k b^2): the closed form's per-J terms, in
    floats (xp = _PlainFloats) or in numpy arrays over J (xp = numpy)."""
    R2 = q**2 + 4.0 * eff.Pt3 / kb2
    return R2, xp.sqrt(xp.maximum(R2, 0.0)), 4.0 * eff.Pt2 / kb2


def _level(xp, q: float, kb2: float, n, R, p2, Pt1):
    """q s, E and the bound flag at n = 1 + 2 nu from _radical's terms:
    in floats, or on the nu x J grid when n is a numpy column.

    Arrays are updated in place, so a grid takes three float arrays.
    bracket^2 is libm pow in both (pow, np.float_power): an array's ** 2
    multiplies, which rounds a few cells per 10^4 differently.  Where
    plain floats raise (q s = 0, bracket^2 beyond float range) E is nan.
    Past the zero of q s (eta < 0) bracket turns negative again, at large
    negative E; only cells with q s > 0 are bound.
    """
    qs = R - q * n
    bracket = 2.0 * n * R
    bracket += p2
    bracket -= q * (1.0 + n * n)
    try:
        bracket /= 4.0 * qs
        E = xp.float_power(bracket, 2.0)
    except ArithmeticError:
        return qs, math.nan, False
    E *= -kb2  # Pt1 - k b^2 bracket^2 exactly: IEEE x - y is x + (-y)
    E += Pt1
    return qs, E, (bracket < 0.0) & (qs > 0.0)


def _table(q, kb2, nu_list, J_list, eff, ns, nu_errors, J_errors):
    """Rows and LevelFailures on the nu x J grid, row-major: the array kernel.

    eff holds Pt1..Pt3 as len(J) arrays and ns, n = 1 + 2 nu per nu,
    becomes a column.  A cell fails with the first of its J error, its
    nu error, a negative R^2, q s = 0 and an E that is not finite
    (_E_BEYOND); q s = 0 never gives a finite E.  The rows are built
    with the garbage collector paused (_collector_paused).
    """
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        R2, R, p2 = _radical(np, q, kb2, eff)
        qs, E, bound = _level(np, q, kb2, np.array(ns)[:, None], R, p2, eff.Pt1)
    ok = np.isfinite(E)
    ok &= (R2 >= 0.0) & np.array([e is None for e in J_errors])
    ok[[e is not None for e in nu_errors]] = False
    with _collector_paused():
        # one C-level pass over the flat grid: tuple.__new__ is
        # EnergyLevel._make without its per-row Python call
        cells = zip([nu for nu in nu_list for _ in J_list], list(J_list) * len(nu_list),
                    E.ravel().tolist(), bound.ravel().tolist())
        rows = list(map(tuple.__new__, repeat(EnergyLevel),
                        compress(cells, ok.ravel().tolist())))
        failures = [
            LevelFailure(nu_list[i], J_list[j], J_errors[j] or nu_errors[i]
                         or _failure_text(nu_list[i], J_list[j], R2[j], qs[i, j]))
            for i, j in np.argwhere(~ok).tolist()
        ]
    return rows, failures


def _scalar_table(q, kb2, nu_list, J_list, effs, ns, nu_errors, J_errors):
    """_table cell by cell in plain floats, one EffectiveCoefficients per
    J: the same _radical and _level and the same failures, bit for bit."""
    per_J = [(J, J_error, eff.Pt1, *_radical(_PlainFloats, q, kb2, eff))
             for J, J_error, eff in zip(J_list, J_errors, effs)]
    cells, failures = [], []
    for nu, n, nu_error in zip(nu_list, ns, nu_errors):
        for J, J_error, Pt1, R2, R, p2 in per_J:
            qs, E, bound = _level(_PlainFloats, q, kb2, n, R, p2, Pt1)
            if J_error or nu_error or R2 < 0.0 or not math.isfinite(E):
                failures.append(LevelFailure(nu, J, J_error or nu_error
                                             or _failure_text(nu, J, R2, qs)))
            else:
                cells.append((nu, J, E, bound))
    return list(map(tuple.__new__, repeat(EnergyLevel), cells)), failures


def susy_intermediates(
    pform: PForm, eff: EffectiveCoefficients, mu: float
) -> SusyIntermediates:
    """Superpotential coefficients Q1t, Q2t and the exact ground level.

    Q2t = -b q/2 + S, S = sqrt((b q/2)^2 + Pt3/k), is the positive root
    of Q2t^2 + b q Q2t = Pt3/k; Q1t follows from (q Pt2 + Pt3)/k =
    2 q Q1t Q2t + Q2t^2, divided through by q as
    Q1t = (Pt2/k - b^2 q/2 + b S) / (2 Q2t).  Taking the positive root
    realizes the plus branch for q > 0 and the minus branch for q < 0
    without a case split.  E0 = Pt1 - k Q1t^2 coincides with the
    nu = 0 level.  q = 0 raises ValueError: log_wavefunction divides
    by b q.
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
    return SusyIntermediates(Q1t=Q1t, Q2t=Q2t, E0=eff.Pt1 - k * Q1t**2)


def log_wavefunction(
    intermediates: SusyIntermediates, pform: PForm, r: float
) -> float:
    """ln psi(r) = Q1t r - (Q2t / (b q)) ln(1 + q e^{-b r}) of the
    unnormalized nodeless ground state.

    The log-domain form keeps large exponents from overflowing; psi
    itself underflows to 0 far from the well.
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
        raise ValueError(error)
    if De <= 0.0 or we <= 0.0:
        raise ValueError("De and we must be positive")
    x = nu + 0.5
    if x >= 2.0 * De / we:
        raise ValueError(
            f"nu={nu} beyond the Morse bound spectrum (nu + 1/2 >= 2 De/we)"
        )
    return we * x - we**2 * x**2 / (4.0 * De)


def level(params: SpectroscopicParams, nu: int, J: int) -> EnergyLevel:
    """One level: the single cell of level_table, in plain floats,
    raising its failure as ValueError."""
    rows, failures = level_table(params, [nu], [J])
    if failures:
        raise ValueError(failures[0].error)
    return rows[0]


def level_table(
    params: SpectroscopicParams, nu_list: list[int], J_list: list[int]
) -> tuple[list[EnergyLevel], list[LevelFailure]]:
    """Levels for every (nu, J) pair, row-major in nu then J; more than
    MAX_PAIRS pairs raise ValueError before any work.

    The per-molecule and per-index steps run once per call.  A grid of
    at most MAX_SCALAR_CELLS cells is evaluated cell by cell in plain
    floats (_scalar_table) and imports nothing; a larger one in one numpy
    pass (_table).  Both give the same rows and failures to the last bit.
    Entries that fail (bad index, negative radicand, q s = 0, an E beyond
    float range) are collected as LevelFailure records instead of
    aborting the table.
    """
    if not nu_list or not J_list:
        raise ValueError("nu_list and J_list must be non-empty")
    if len(nu_list) * len(J_list) > MAX_PAIRS:
        raise ValueError(f"nu_list x J_list asks for {len(nu_list) * len(J_list)} "
                         f"levels; the limit is {MAX_PAIRS}")
    J_errors = [_index_error("J", J) for J in J_list]
    derived = derive(params)
    pform = to_pform(from_params(params))
    coeffs = badawi_coefficients(derived.u, params.eta)
    nu_errors = [_index_error("nu", nu) for nu in nu_list]
    # a failed index's cells are computed at index 0 and discarded
    ns = [1.0 + 2.0 * (0.0 if e else float(nu)) for nu, e in zip(nu_list, nu_errors)]
    Js = [0.0 if e else float(J) for J, e in zip(J_list, J_errors)]
    request = (pform.q, kinetic_factor(params.mu) * pform.b**2, nu_list, J_list)
    if len(nu_list) * len(J_list) <= MAX_SCALAR_CELLS:
        effs = [effective_coefficients(pform, coeffs, J, params.mu, params.re)
                for J in Js]
        return _scalar_table(*request, effs, ns, nu_errors, J_errors)
    import numpy as np

    eff = effective_coefficients(pform, coeffs, np.array(Js), params.mu, params.re)
    return _table(*request, eff, ns, nu_errors, J_errors)
