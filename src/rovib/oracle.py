"""
oracle.py

Independent numerical checks of the closed-form spectrum.  Both solve
-k R'' + (U(r) + J(J+1) k / r^2) R = E R with the exact 1/r^2, so their
disagreements with the closed form measure its rational approximation
of that term plus solver error.  deviation_report uses the Colbert-
Miller sinc discrete variable representation (DVR; J. Chem. Phys. 96,
1982 (1992)), one dense numpy solve per J; converge and
solve_bound_states keep a three-point finite-difference grid, a
tridiagonal matrix solved by scipy (imported on first use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Union

import numpy as np

from .potentials import TietzHua, evaluate, from_params
from .spectrum import EnergyLevel, LevelFailure, level_table
from .units import kinetic_factor

Potential = Union[TietzHua, Callable[[np.ndarray], np.ndarray]]

DVR_TOL_CM1 = 1.0e-6  # N -> 2N agreement that ends the DVR refinement
MAX_BASIS = 2048  # largest DVR basis; eigvalsh: 0.6 s, 32 MB on 2 vCPUs, ~N^3
_TAIL = 18.0  # decay integral past each turning point: amplitude e^-18
_SAFETY = 2.0  # spacing pi / (_SAFETY p_max), p_max the largest wave number


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, **kwargs):
    """scipy.linalg.eigh_tridiagonal, with scipy imported on the first
    solve: only the oracle needs it, so the closed form starts without it."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


class ResolutionError(RuntimeError):
    """Grid too coarse to resolve the requested state."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max]; endpoints carry R = 0."""

    r_min: float
    r_max: float
    n_points: int  # total linspace points, endpoints included

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(
                f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})"
            )
        if self.n_points < 1000:
            raise ValueError(f"n_points must be at least 1000, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)

    def halved(self) -> "RadialGrid":
        """Same interval with exactly half the spacing."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.n_points - 1)


@dataclass(frozen=True)
class EigenSolution:
    """One numerical bound state; wavefunction is normalized and matches
    the full grid, zeros at both endpoints."""

    nu: int
    J: int
    E: float
    grid: RadialGrid
    wavefunction: np.ndarray


def default_grid(re: float, n_points: int = 8000) -> RadialGrid:
    """Box [0.3 re, 8 re]; wide enough that low-lying tails are ~1e-30."""
    return RadialGrid(0.3 * re, 8.0 * re, n_points)


def _potential_values(model: Potential, r: np.ndarray) -> np.ndarray:
    if callable(model):
        return np.asarray(model(r), dtype=float)
    return evaluate(model, r)


def _effective(model: Potential, mu: float, J: int, r: np.ndarray) -> np.ndarray:
    return _potential_values(model, r) + J * (J + 1) * kinetic_factor(mu) / r**2


def _tridiagonal(
    model: Potential, mu: float, grid: RadialGrid, J: int
) -> tuple[np.ndarray, np.ndarray]:
    k = kinetic_factor(mu)
    r = grid.points()[1:-1]
    h2 = grid.spacing**2
    diag = 2.0 * k / h2 + _effective(model, mu, J, r)
    off = np.full(r.size - 1, -k / h2)
    return diag, off


def _count_nodes(psi: np.ndarray) -> int:
    significant = psi[np.abs(psi) > 1.0e-8 * np.max(np.abs(psi))]
    return int(np.sum(np.signbit(significant[:-1]) != np.signbit(significant[1:])))


def solve_bound_states(
    model: Potential,
    J: int,
    mu: float,
    grid: RadialGrid,
    n_levels: int,
) -> list[EigenSolution]:
    """Lowest n_levels eigenpairs, labeled and checked by node count.

    Wavefunctions are normalized to sum(R^2) * spacing = 1 with the
    first significant lobe positive.  A state whose node count does not
    equal its index means the grid cannot represent it; that raises
    ResolutionError rather than returning a mislabeled level.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be positive, got {n_levels}")
    if J < 0:
        raise ValueError(f"J must be non-negative, got {J}")
    diag, off = _tridiagonal(model, mu, grid, J)
    energies, vectors = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1)
    )
    solutions = []
    for i in range(n_levels):
        psi = np.zeros(grid.n_points)
        psi[1:-1] = vectors[:, i]
        psi /= math.sqrt(float(np.sum(psi**2)) * grid.spacing)
        lobe = np.argmax(np.abs(psi) > 0.01 * np.max(np.abs(psi)))
        if psi[lobe] < 0.0:
            psi = -psi
        nodes = _count_nodes(psi[1:-1])
        if nodes != i:
            raise ResolutionError(
                f"state {i} shows {nodes} nodes; refine the grid "
                f"(n_points={grid.n_points})"
            )
        solutions.append(
            EigenSolution(nu=i, J=J, E=float(energies[i]), grid=grid,
                          wavefunction=psi)
        )
    return solutions


def _eigenvalues(
    model: Potential, mu: float, grid: RadialGrid, J: int, nu_max: int
) -> np.ndarray:
    diag, off = _tridiagonal(model, mu, grid, J)
    return eigh_tridiagonal(
        diag, off, select="i", select_range=(0, nu_max), eigvals_only=True
    )


@dataclass(frozen=True)
class ConvergeResult:
    """Grid-halving pair behind a converged eigenvalue.

    extrapolated = (4 E_fine - E_coarse) / 3 cancels the leading h^2
    error of the three-point stencil.
    """

    nu: int
    J: int
    raw_coarse: float
    raw_fine: float
    extrapolated: float
    difference: float  # |raw_fine - raw_coarse|
    n_points_fine: int


def converge(
    model: Potential,
    J: int,
    mu: float,
    nu: int,
    base_grid: RadialGrid | None = None,
    tol: float = 0.01,
    max_doublings: int = 2,
) -> ConvergeResult:
    """Refine until two successive halvings agree to tol (cm^-1).

    Solves on the base grid and its halving; if the raw difference
    exceeds tol, the finer grid becomes the new base, at most
    max_doublings times, after which ResolutionError is raised.  The
    default base of 32768 points brings the hardest bundled cases
    (nu = 5, J = 20) under 0.01 cm^-1 within two doublings.
    """
    if base_grid is None:
        base_grid = RadialGrid(0.3 * model.re, 8.0 * model.re, 32768)
    grid = base_grid
    coarse = float(_eigenvalues(model, mu, grid, J, nu)[nu])
    for _ in range(max_doublings + 1):
        fine_grid = grid.halved()
        fine = float(_eigenvalues(model, mu, fine_grid, J, nu)[nu])
        difference = abs(fine - coarse)
        if difference < tol:
            return ConvergeResult(
                nu=nu,
                J=J,
                raw_coarse=coarse,
                raw_fine=fine,
                extrapolated=(4.0 * fine - coarse) / 3.0,
                difference=difference,
                n_points_fine=fine_grid.n_points,
            )
        grid, coarse = fine_grid, fine
    raise ResolutionError(
        f"eigenvalue nu={nu}, J={J} not converged to {tol} cm^-1 after "
        f"{max_doublings} doublings from n_points={base_grid.n_points}"
    )


@dataclass(frozen=True)
class DeviationRow:
    nu: int
    J: int
    E_closed: float
    E_oracle: float
    delta: float  # E_closed - E_oracle
    oracle_err: float  # |E_N - E_2N| of the sinc-DVR refinement, cm^-1
    basis: int  # 2N, the DVR basis behind E_oracle


@dataclass(frozen=True)
class DeviationReport:
    """Closed form against the sinc-DVR oracle over a (nu, J) table."""

    molecule: str
    rows: list[DeviationRow]
    failures: list[LevelFailure]
    max_abs_delta: float
    mean_delta: float
    max_abs_delta_by_J: dict[int, float]


def _dvr_levels(
    model: TietzHua, mu: float, J: int, cells: list[EnergyLevel], n_max: int
) -> dict[tuple[int, int], tuple[float, float, int]]:
    """{(nu, J): (E_2N, |E_N - E_2N|, 2N)} for closed-form levels at one J.

    Box: the well at the top level's energy plus tails where the decay
    integral reaches _TAIL, within [0.3 re, 8 re].  N starts at _SAFETY
    times the de Broglie limit and doubles while some level moves by
    more than DVR_TOL_CM1 and 4N fits in n_max."""
    k, nus, E_top = kinetic_factor(mu), [c.nu for c in cells], max(c.E for c in cells)
    r, dr = np.linspace(0.3 * model.re, 8.0 * model.re, 2048, retstep=True)
    v = _effective(model, mu, J, r)
    well = int(np.argmin(v))
    decay = np.sqrt(np.maximum(v - E_top, 0.0) / k) * dr  # zero inside the well
    inner = np.searchsorted(np.cumsum(decay[well::-1]), _TAIL)
    outer = np.searchsorted(np.cumsum(decay[well:]), _TAIL)
    r_min, r_max = r[max(well - inner, 0)], r[min(well + outer, r.size - 1)]
    p_max = math.sqrt(max(E_top - v[well], 0.0) / k)
    n = math.ceil(_SAFETY * p_max * (r_max - r_min) / math.pi) + 1
    n = min(max(n, 2), n_max // 2)

    def solve(n):  # a level at or above N reads nan
        r, dr = np.linspace(r_min, r_max, n, retstep=True)
        d = np.subtract.outer(np.arange(n), np.arange(n))
        t = k / dr**2
        h = 2.0 * (-1.0) ** d / np.maximum(d * d, 1) * t
        h[np.diag_indices(n)] = math.pi**2 / 3.0 * t + _effective(model, mu, J, r)
        return np.append(np.linalg.eigvalsh(h), np.full(max(nus) + 1, np.nan))[nus]

    fine = solve(n)
    while True:
        coarse, fine = fine, solve(2 * n)
        errors = np.abs(fine - coarse)
        if np.all(errors <= DVR_TOL_CM1) or 4 * n > n_max:
            return {(nu, J): (float(E), float(err), 2 * n)
                    for nu, E, err in zip(nus, fine, errors)}
        n *= 2


def deviation_report(
    params,
    nu_list: list[int],
    J_list: list[int],
    n_points: int = MAX_BASIS,
) -> DeviationReport:
    """Compare closed-form levels with sinc-DVR eigenvalues (per row the
    2N value, |E_N - E_2N| and 2N).  n_points is the largest basis the
    refinement may build, at most MAX_BASIS; a cell beyond the bound
    range or not converged within it is a LevelFailure."""
    if not nu_list or not J_list or n_points < 4:
        raise ValueError("need non-empty nu_list and J_list and n_points >= 4")
    rows_closed, failures = level_table(params, nu_list, J_list)
    model, n_max = from_params(params), min(n_points, MAX_BASIS)
    oracle = {}
    for J in dict.fromkeys(row.J for row in rows_closed if row.bound):
        cells = [row for row in rows_closed if row.bound and row.J == J]
        oracle.update(_dvr_levels(model, params.mu, J, cells, n_max))
    rows = []
    for row in rows_closed:
        E, err, basis = oracle.get((row.nu, row.J), (math.nan, math.nan, 0))
        if err <= DVR_TOL_CM1:
            rows.append(DeviationRow(row.nu, row.J, row.E, E, row.E - E, err, basis))
        else:
            failures.append(LevelFailure(row.nu, row.J, (
                f"sinc DVR not converged to {DVR_TOL_CM1} cm^-1 within {n_max} "
                f"basis functions (|E_N - E_2N| = {err:.3g} cm^-1)"
                if row.bound else "beyond the bound range; no oracle level")))
    deltas = [row.delta for row in rows]
    by_J = {
        J: max(abs(row.delta) for row in rows if row.J == J)
        for J in J_list
        if any(row.J == J for row in rows)
    }
    return DeviationReport(
        molecule=params.name,
        rows=rows,
        failures=failures,
        max_abs_delta=max(abs(d) for d in deltas) if deltas else math.nan,
        mean_delta=fmean(deltas) if deltas else math.nan,
        max_abs_delta_by_J=by_J,
    )
