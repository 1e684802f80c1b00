"""
oracle.py

Independent numerical check of the closed-form spectrum.

The radial equation -k R'' + (U(r) + J(J+1) k / r^2) R = E R is put on a
uniform grid with a three-point second difference and Dirichlet ends,
giving a symmetric tridiagonal matrix; eigenvalues come from bisection
on the Sturm sequence plus inverse iteration for the vectors.  Nothing
here reuses the factorization machinery: the centrifugal term enters as
the exact 1/r^2, so disagreements with the closed form measure the
rational approximation of that term plus grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Union

import numpy as np

from .potentials import PotentialModel, equilibrium_radius, evaluate, from_params
from .spectrum import LevelFailure, level_table
from .units import kinetic_factor

Potential = Union[PotentialModel, Callable[[np.ndarray], np.ndarray]]


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


def _tridiagonal(
    model: Potential, mu: float, grid: RadialGrid, J: int
) -> tuple[np.ndarray, np.ndarray]:
    k = kinetic_factor(mu)
    r = grid.points()[1:-1]
    v = _potential_values(model, r)
    if J > 0:
        v = v + J * (J + 1) * k / r**2
    h2 = grid.spacing**2
    diag = 2.0 * k / h2 + v
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
        re = equilibrium_radius(model)
        base_grid = RadialGrid(0.3 * re, 8.0 * re, 32768)
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


@dataclass(frozen=True)
class DeviationReport:
    """Closed form against the grid oracle over a (nu, J) table."""

    molecule: str
    rows: list[DeviationRow]
    failures: list[LevelFailure]
    max_abs_delta: float
    mean_delta: float
    max_abs_delta_by_J: dict[int, float]


def deviation_report(
    params,
    nu_list: list[int],
    J_list: list[int],
    n_points: int = 16384,
) -> DeviationReport:
    """Compare closed-form levels with extrapolated grid eigenvalues.

    One eigensolve per (J, grid) covers all requested nu at once; each
    oracle value is the h^2-extrapolant of an exact grid halving, good
    to ~1e-3 cm^-1 at the default size.
    """
    if not nu_list or not J_list:
        raise ValueError("nu_list and J_list must be non-empty")
    rows_closed, failures = level_table(params, nu_list, J_list)
    closed = {(row.nu, row.J): row.E for row in rows_closed}
    model = from_params(params)
    nu_max = max(nu_list)
    oracle: dict[tuple[int, int], float] = {}
    for J in J_list:
        grid = default_grid(params.re, n_points)
        coarse = _eigenvalues(model, params.mu, grid, J, nu_max)
        fine = _eigenvalues(model, params.mu, grid.halved(), J, nu_max)
        for nu in nu_list:
            oracle[(nu, J)] = float((4.0 * fine[nu] - coarse[nu]) / 3.0)
    rows = [
        DeviationRow(
            nu=nu, J=J, E_closed=closed[(nu, J)], E_oracle=oracle[(nu, J)],
            delta=closed[(nu, J)] - oracle[(nu, J)],
        )
        for nu in nu_list
        for J in J_list
        if (nu, J) in closed
    ]
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
