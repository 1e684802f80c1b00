"""
oracle.py

An independent numerical check of the closed-form spectrum: the
Colbert-Miller sinc discrete variable representation (DVR; J. Chem.
Phys. 96, 1982 (1992)) of -k R'' + (U(r) + J(J+1) k / r^2) R = E R with
the exact 1/r^2, one dense eigenproblem per J refined N -> 2N until its
levels agree to DVR_TOL_CM1.  The J values of a request refine together,
the problems of one basis size solved as one stacked eigensolve
(dvr_eigenvalues).  Its disagreement with the closed form measures the
rational approximation of the centrifugal term.  deviation_report runs
it over a closed-form (nu, J) table, converge for one level of a
TietzHua.  No other module imports this one at load time: the package
resolves converge and deviation_report on first access and the CLI
imports it inside compare, so the closed form never pays for compiling
it.  numpy is imported by the functions that build arrays, not by
importing this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .potentials import (MAX_BASIS, SingularRadiusError, TietzHua, evaluate,
                         from_params)
from .spectrum import LevelFailure, _index_error, level_table
from .units import kinetic_factor

if TYPE_CHECKING:
    import numpy as np

DVR_TOL_CM1 = 1.0e-6  # N -> 2N agreement that ends the DVR refinement
_R_MIN, _R_MAX = 0.3, 8.0  # the range every box lies in, in units of re
_TAIL = 18.0  # decay integral past each turning point: amplitude e^-18
_SAFETY = 2.0  # spacing pi / (_SAFETY p_max), p_max the largest wave number
_SCAN = 2048  # potential samples over the range that place the box
_STACK = 2**18  # matrix elements per stacked eigensolve, unless one matrix has more
_ABOVE_BASIS = ("nu at or above the sinc DVR basis size within {} basis "
                "functions; no oracle level")


class ResolutionError(RuntimeError):
    """Basis budget too small to converge the requested level."""


def _potential(model: TietzHua, r: np.ndarray) -> np.ndarray:
    """evaluate, with a sample on the pole (0 < eta < 1) a ResolutionError."""
    try:
        return evaluate(model, r)
    except SingularRadiusError as exc:
        raise ResolutionError(f"{exc}; no oracle level") from None


def _effective(model: TietzHua, r: np.ndarray, c) -> np.ndarray:
    """V(r) + c / r^2 for c = J(J+1) k: at one J, or with c a column of
    them at one J per row of r."""
    return _potential(model, r) + c / r**2


def dvr_eigenvalues(r: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """Ascending eigenvalues of -k d^2/dr^2 + v in the sinc DVR on the
    uniform points r, one basis function per point: r and v of shape (n,),
    or (m, n) for m problems solved as one stack."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n = r.shape[-1]
    # t = k / dr^2 as the scalar expression gives it: a numpy scalar's ** 2
    # calls pow, as float_power does; an array's ** 2 multiplies, which
    # differs in the last bit for ~0.1% of spacings
    t = k / np.float_power((r[..., -1] - r[..., 0]) / (n - 1), 2)
    m = np.arange(n)
    row = 2.0 * (-1.0) ** m / np.maximum(m * m, 1)  # h[i, j] = t row[|i - j|]
    h = sliding_window_view(np.concatenate([row[:0:-1], row]), n)[::-1]
    h = h * t[..., None, None]
    h[..., m, m] = math.pi**2 / 3.0 * t[..., None] + v
    return np.linalg.eigvalsh(h)


def _scan(model: TietzHua) -> tuple[np.ndarray, np.ndarray]:
    """The _SCAN points of [_R_MIN re, _R_MAX re] and V on them, from
    which boxes are placed."""
    import numpy as np

    r = np.linspace(_R_MIN * model.re, _R_MAX * model.re, _SCAN)
    return r, _potential(model, r)


def _box(r: np.ndarray, v: np.ndarray, E_top: float, k: float) -> tuple[float, float, int]:
    """(r_min, r_max, N) for levels up to E_top, above the scan's minimum:
    the well at E_top plus tails where the decay integral reaches _TAIL,
    within the scan, and N = _SAFETY times the de Broglie limit."""
    import numpy as np

    dr = (r[-1] - r[0]) / (r.size - 1)
    well = int(np.argmin(v))
    decay = np.sqrt(np.maximum(v - E_top, 0.0) / k) * dr  # zero inside the well
    inner = np.searchsorted(np.cumsum(decay[well::-1]), _TAIL)
    outer = np.searchsorted(np.cumsum(decay[well:]), _TAIL)
    r_min, r_max = r[max(well - inner, 0)], r[min(well + outer, r.size - 1)]
    p_max = math.sqrt((E_top - v[well]) / k)
    return r_min, r_max, math.ceil(_SAFETY * p_max * (r_max - r_min) / math.pi) + 1


def _dvr_levels(
    model: TietzHua, mu: float, jobs: dict[int, tuple[list[int], float]],
    n_max: int, scan: tuple[np.ndarray, np.ndarray],
) -> dict[int, dict[int, tuple[float, float, int] | str]]:
    """{J: {nu: (E_2N, |E_N - E_2N|, 2N) or the reason there is none}}
    for jobs {J: (nus, E_top)} and scan = _scan(model).

    Per J, box and first N: _box at E_top (the highest level's).  N
    doubles while some level moves by more than DVR_TOL_CM1 and 4N fits
    in n_max; then, if n_max // 2 exceeds N, the last pair that fits,
    (n_max // 2, 2 (n_max // 2)), serves the levels still unconverged,
    and a level converged at an earlier pair keeps that pair.  With E_top
    at or below the scan's minimum of the effective potential there is
    no well to box and nothing is solved; a level at or above the last N
    has no N -> 2N pair.  The J values refine
    together: each step solves those due at the smallest basis size as
    one stack of at most max(size^2, _STACK) matrix elements."""
    import numpy as np

    k, (r, V) = kinetic_factor(mu), scan
    c = {J: J * (J + 1) * k for J in jobs}
    out, box, N, size, fine = {}, {}, {}, {}, {}
    for J, (nus, E_top) in jobs.items():
        v = V + c[J] / r**2
        if E_top <= v.min():
            out[J] = dict.fromkeys(nus, "below the effective potential's minimum; "
                                        "no oracle level")
            continue
        *box[J], n = _box(r, v, E_top, k)
        N[J] = size[J] = min(max(n, 2), n_max // 2)
    while size:  # size[J]: the basis J solves next, N[J] or 2 N[J]
        n = min(size.values())
        stack = [J for J in size if size[J] == n][:max(_STACK // n**2, 1)]
        x = np.linspace(*np.array([box[J] for J in stack]).T, n).T  # a row per J
        v = _effective(model, x, np.array([c[J] for J in stack])[:, None])
        for J, E in zip(stack, dvr_eigenvalues(x, v, k)):
            nus = jobs[J][0]
            E = np.append(E, np.full(max(nus) + 1, np.nan))[nus]  # nan at or above n
            if n == N[J]:
                fine[J], size[J] = E, 2 * n
                continue
            errors, fine[J] = np.abs(E - fine[J]), E
            converged = np.all(errors <= DVR_TOL_CM1)
            if not (converged or 4 * N[J] > n_max):
                N[J], size[J] = n, 2 * n
                continue
            kept = out.get(J, {})  # set if this is the last pair
            out[J] = {
                nu: kept[nu] if isinstance(kept.get(nu), tuple) else
                _ABOVE_BASIS.format(n_max) if nu >= N[J] else
                (E_nu, err, n) if err <= DVR_TOL_CM1 else
                f"sinc DVR not converged to {DVR_TOL_CM1} cm^-1 within {n} "
                f"basis functions (|E_N - E_2N| = {err:.3g} cm^-1)"
                for nu, E_nu, err in zip(nus, E.tolist(), errors.tolist())
            }
            if converged or N[J] >= n_max // 2:
                del size[J]
            else:
                N[J] = size[J] = n_max // 2
    return out


def _whole_budget(n_points) -> bool:
    """n_points is a whole number >= 4.  nan fails every comparison, so a
    nan budget would never stop the refinement's doubling."""
    return n_points >= 4 and n_points % 1 == 0


class ConvergeResult(NamedTuple):
    """One level from the sinc DVR refined N -> 2N.

    The DVR converges exponentially in N, so no h^2 extrapolation is
    applied: extrapolated is the 2N eigenvalue itself.
    """

    nu: int
    J: int
    extrapolated: float  # E_2N, cm^-1
    difference: float  # |E_N - E_2N|, at most DVR_TOL_CM1
    n_points_fine: int  # 2N


def converge(
    model: TietzHua, J: int, mu: float, nu: int, n_points: int = MAX_BASIS,
) -> ConvergeResult:
    """Level nu at J of a TietzHua, converged to DVR_TOL_CM1 within
    n_points (at most MAX_BASIS) basis functions like deviation_report's
    rows, else ResolutionError naming the reason.  nu and J are
    non-negative integers, as level_table takes them (ValueError else).

    The box energy comes from the model's potential alone, not from the
    closed form: the WKB phase integral S(E) of sqrt((E - v) / k) dr over
    the well, where v < E next to the scan's minimum, is pi (nu + 1) half
    a level above nu.  E stays below the well top, the lower of the
    highest v on each side of the minimum.  One solve on _box at E gives
    level nu, whose box _dvr_levels then refines.  A level past the WKB
    count S(top) / pi - 1/2 by half a level or more fails before any
    basis is built.
    """
    import numpy as np

    if nu < 0 or J < 0 or not _whole_budget(n_points):
        raise ValueError(f"need nu >= 0, J >= 0 and a whole n_points >= 4, got "
                         f"{nu}, {J}, {n_points}")
    if error := _index_error("nu", nu) or _index_error("J", J):
        raise ValueError(error)
    nu, J = int(nu), int(J)
    k, n_max = kinetic_factor(mu), min(int(n_points), MAX_BASIS)
    if nu >= n_max // 2:  # _dvr_levels' last N is at most n_max // 2
        raise ResolutionError(_ABOVE_BASIS.format(n_max))
    scan = r, V = _scan(model)
    v = V + J * (J + 1) * k / r**2
    well = int(np.argmin(v))
    rim = np.concatenate([np.maximum.accumulate(v[well::-1])[:0:-1],
                          np.maximum.accumulate(v[well:])])  # max v from the minimum
    top, dr = min(rim[0], rim[-1]), (r[-1] - r[0]) / (r.size - 1)

    def phase(E):  # S(E) / pi
        return np.sqrt((E - v[rim < E]) / k).sum() * dr / math.pi

    lo, E, phase_top = v[well], top, phase(top)
    if phase_top <= nu:
        raise ResolutionError(f"nu above the well: its WKB count at the top is "
                              f"{phase_top - 0.5:.2f}; no oracle level")
    if phase_top > nu + 1:
        for _ in range(50):  # bisection to 2^-50 of the well's depth
            mid = 0.5 * (lo + E)
            lo, E = (mid, E) if phase(mid) < nu + 1 else (lo, mid)
    r_min, r_max, n = _box(r, v, E, k)
    x = np.linspace(r_min, r_max, min(max(n, nu + 1), n_max))
    E_nu = dvr_eigenvalues(x, _effective(model, x, J * (J + 1) * k), k)[nu]
    level = _dvr_levels(model, mu, {J: ([nu], E_nu)}, n_max, scan)[J][nu]
    if isinstance(level, str):
        raise ResolutionError(level)
    return ConvergeResult(nu, J, *level)


class DeviationRow(NamedTuple):
    nu: int
    J: int
    E_closed: float
    E_oracle: float
    delta: float  # E_closed - E_oracle
    oracle_err: float  # |E_N - E_2N| of the sinc-DVR refinement, cm^-1
    basis: int  # 2N, the DVR basis behind E_oracle


class DeviationReport(NamedTuple):
    """Closed form against the sinc-DVR oracle over a (nu, J) table."""

    molecule: str
    rows: list[DeviationRow]
    failures: list[LevelFailure]
    max_abs_delta: float
    mean_delta: float
    max_abs_delta_by_J: dict[int, float]


def deviation_report(
    params, nu_list: list[int], J_list: list[int], n_points: int = MAX_BASIS,
) -> DeviationReport:
    """Compare closed-form levels with sinc-DVR eigenvalues (per row the
    2N value, |E_N - E_2N| and 2N).  n_points is the largest basis the
    refinement may build, at most MAX_BASIS; a cell beyond the bound
    range, one _dvr_levels gives a reason for, or one whose potential
    samples hit the pole, is a LevelFailure."""
    if not nu_list or not J_list or not _whole_budget(n_points):
        raise ValueError("need non-empty nu_list and J_list and a whole n_points >= 4")
    rows_closed, failures = level_table(params, nu_list, J_list)
    model, n_max = from_params(params), min(int(n_points), MAX_BASIS)
    cells_by_J: dict[int, list] = {}
    for row in rows_closed:
        if row.bound:
            cells_by_J.setdefault(row.J, []).append(row)
    jobs = {J: ([c.nu for c in cells], max(c.E for c in cells))
            for J, cells in cells_by_J.items()}
    try:
        oracle = _dvr_levels(model, params.mu, jobs, n_max, _scan(model))
    except ResolutionError as exc:  # a sample on the pole
        oracle = {J: dict.fromkeys(nus, str(exc)) for J, (nus, _) in jobs.items()}
    rows = []
    for row in rows_closed:
        level = (oracle[row.J][row.nu] if row.bound else
                 "beyond the bound range; no oracle level")
        if isinstance(level, str):
            failures.append(LevelFailure(row.nu, row.J, level))
        else:
            E, err, basis = level
            rows.append(DeviationRow(row.nu, row.J, row.E, E, row.E - E, err, basis))
    by_J: dict[int, float] = {}
    for row in rows:
        by_J[row.J] = max(by_J.get(row.J, 0.0), abs(row.delta))
    deltas = [row.delta for row in rows]
    return DeviationReport(
        params.name, rows, failures, max(by_J.values(), default=math.nan),
        math.fsum(deltas) / len(deltas) if deltas else math.nan, by_J,
    )
