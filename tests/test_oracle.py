import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib.oracle import (
    DVR_TOL_CM1,
    MAX_BASIS,
    ConvergeResult,
    RadialGrid,
    ResolutionError,
    converge,
    default_grid,
    deviation_report,
    solve_bound_states,
)
from rovib.potentials import SpectroscopicParams, TietzHua, derive, from_params
from rovib.spectrum import level_table
from rovib.units import kinetic_factor

MU = 8.0
MORSE = TietzHua(De=42041.0, re=1.207, b=2.6636, eta=0.0)  # eta = 0: Morse


def morse_exact(nu):
    we = 2.0 * MORSE.b * math.sqrt(MORSE.De * kinetic_factor(MU))
    x = nu + 0.5
    return we * x - we**2 * x**2 / (4.0 * MORSE.De)


@pytest.fixture(scope="module")
def morse_pair():
    grid = default_grid(MORSE.re, 16384)
    return (
        solve_bound_states(MORSE, 0, MU, grid, 10),
        solve_bound_states(MORSE, 0, MU, grid.halved(), 10),
    )


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 5.0, 2000)
    with pytest.raises(ValueError):
        RadialGrid(2.0, 1.0, 2000)
    with pytest.raises(ValueError):
        RadialGrid(0.5, 5.0, 999)
    grid = RadialGrid(0.5, 5.0, 2001)
    assert grid.spacing == pytest.approx(4.5 / 2000.0, rel=1.0e-14)
    half = grid.halved()
    assert half.n_points == 4001
    assert half.spacing == pytest.approx(grid.spacing / 2.0, rel=1.0e-14)
    assert grid.points()[0] == 0.5 and grid.points()[-1] == 5.0


def test_default_grid_box():
    grid = default_grid(1.207)
    assert grid.n_points == 8000
    assert grid.r_min == pytest.approx(0.3 * 1.207)
    assert grid.r_max == pytest.approx(8.0 * 1.207)


def test_harmonic_oscillator_with_callable_potential():
    mu, Ke, r0 = 7.5, 1.0e5, 2.0
    we = math.sqrt(2.0 * kinetic_factor(mu) * Ke)
    sols = solve_bound_states(
        lambda r: 0.5 * Ke * (r - r0) ** 2, 0, mu, RadialGrid(0.5, 3.5, 8000), 4
    )
    for s in sols:
        assert s.E == pytest.approx(we * (s.nu + 0.5), rel=1.0e-4)


def test_morse_eigenvalues_match_analytic(morse_pair):
    coarse, fine = morse_pair
    for nu in range(10):
        extrapolated = (4.0 * fine[nu].E - coarse[nu].E) / 3.0
        assert abs(extrapolated - morse_exact(nu)) <= 0.02


def test_solutions_are_labeled_and_ordered(morse_pair):
    coarse, _ = morse_pair
    assert [s.nu for s in coarse] == list(range(10))
    assert all(s.J == 0 for s in coarse)
    energies = [s.E for s in coarse]
    assert energies == sorted(energies)


def test_wavefunction_normalization_and_sign(morse_pair):
    coarse, _ = morse_pair
    for s in coarse:
        psi = s.wavefunction
        assert psi.size == s.grid.n_points
        assert psi[0] == 0.0 and psi[-1] == 0.0
        assert float(np.sum(psi**2)) * s.grid.spacing == pytest.approx(
            1.0, rel=1.0e-12
        )
        peak = np.max(np.abs(psi))
        lobe = np.argmax(np.abs(psi) > 0.01 * peak)
        assert psi[lobe] > 0.0
        # box wide enough that the interior boundary values are tiny
        assert abs(psi[1]) < 1.0e-6 * peak and abs(psi[-2]) < 1.0e-6 * peak


def test_grid_halving_converges(morse_pair):
    # the stencil is second order: halving the spacing divides the
    # error against the analytic spectrum by four
    coarse, fine = morse_pair
    for nu in (0, 5, 9):
        err_coarse = coarse[nu].E - morse_exact(nu)
        err_fine = fine[nu].E - morse_exact(nu)
        assert abs(err_fine) < abs(err_coarse)
        assert err_fine == pytest.approx(err_coarse / 4.0, rel=0.05)


def test_solver_argument_validation():
    grid = RadialGrid(0.5, 5.0, 1000)
    with pytest.raises(ValueError):
        solve_bound_states(MORSE, 0, MU, grid, 0)
    with pytest.raises(ValueError):
        solve_bound_states(MORSE, -1, MU, grid, 1)


def test_converge_against_published_benchmark(db):
    # hardest bundled case; the published numeric benchmark is
    # 10614.632, reproduced to better than the 0.05 acceptance band
    p = db.get("NO")
    result = converge(from_params(p), 20, p.mu, 5)
    assert isinstance(result, ConvergeResult)
    assert result.extrapolated == pytest.approx(10614.632, abs=0.05)
    assert result.difference < 0.01
    assert result.n_points_fine >= 65535
    # the halved grid sits closer to the extrapolant
    assert abs(result.raw_fine - result.extrapolated) < abs(
        result.raw_coarse - result.extrapolated
    )


def test_converge_reports_unresolvable_grid(db):
    p = db.get("NO")
    tiny = RadialGrid(0.3 * p.re, 8.0 * p.re, 1000)
    with pytest.raises(ResolutionError, match="not converged"):
        converge(from_params(p), 0, p.mu, 5, base_grid=tiny,
                 tol=1.0e-9, max_doublings=0)


def test_deng_fan_case_stays_close_to_closed_form(db):
    # eta = e^{-u} realizes the q = -1 potential; closed form and oracle
    # must agree through the rational centrifugal expansion
    p = db.get("NO")
    d = derive(p)
    params = SpectroscopicParams(
        name="DF", De=p.De, re=p.re, we=p.we, mu=p.mu, alpha=p.alpha,
        eta=math.exp(-d.u),
    )
    assert derive(params).q == pytest.approx(-1.0, abs=1.0e-12)
    report = deviation_report(params, [0, 2], [0, 5], n_points=16384)
    assert report.max_abs_delta <= 0.1
    assert report.max_abs_delta_by_J[0] <= 0.01


def test_deviation_report_structure(db):
    p = db.get("O2")
    report = deviation_report(p, [0, 1], [0, 5], n_points=2000)
    assert report.molecule == "O2"
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0), (0, 5), (1, 0), (1, 5)]
    assert report.failures == []
    assert report.max_abs_delta == max(abs(r.delta) for r in report.rows)
    for row in report.rows:
        assert row.delta == row.E_closed - row.E_oracle
    assert set(report.max_abs_delta_by_J) == {0, 5}
    with pytest.raises(ValueError):
        deviation_report(p, [], [0])


def test_deviation_report_collects_closed_form_failures(db):
    p = db.get("NO")
    report = deviation_report(p, [0], [0, 1300], n_points=2000)
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0)]
    assert [(f.nu, f.J) for f in report.failures] == [(0, 1300)]


def test_deviation_report_fails_cells_it_cannot_compare(db):
    # nu = 80 is beyond NO's bound range; a budget of 100 basis functions
    # resolves nu = 0 but not nu = 3, and nothing larger is built
    p = db.get("NO")
    report = deviation_report(p, [0, 3, 80], [0], n_points=100)
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0)]
    assert report.rows[0].oracle_err <= DVR_TOL_CM1
    assert report.rows[0].basis <= 100
    assert [(f.nu, f.J) for f in report.failures] == [(3, 0), (80, 0)]
    assert "not converged to 1e-06 cm^-1 within 100 basis" in report.failures[0].error
    assert report.failures[1].error == "beyond the bound range; no oracle level"

    report = deviation_report(p, [0, 3, 80], [0], n_points=10**6)
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0), (3, 0)]
    for row in report.rows:
        assert row.oracle_err <= DVR_TOL_CM1
        assert row.basis <= MAX_BASIS
        assert abs(row.delta) <= 1.0e-6  # the closed form is exact at J = 0


@settings(max_examples=30, deadline=None)
@given(
    De=st.floats(2.0e4, 6.0e4),
    re=st.floats(1.0, 1.5),
    mu=st.floats(5.0, 12.0),
    alpha=st.floats(1.0, 1.6),
    eta=st.floats(0.005, 0.05) | st.floats(-0.05, -0.005),
)
def test_dvr_matches_exact_closed_form_at_J0(De, re, mu, alpha, eta):
    # at J = 0 the closed form is exact, so every level up to 0.9 De must
    # agree with the sinc-DVR oracle to 1e-6 cm^-1
    params = SpectroscopicParams(
        name="H", De=De, re=re, we=4.0 * alpha * math.sqrt(De * kinetic_factor(mu)),
        mu=mu, alpha=alpha, eta=eta,
    )
    rows, _ = level_table(params, list(range(200)), [0])
    nus = [row.nu for row in rows if row.bound and row.E <= 0.9 * De]
    report = deviation_report(params, nus, [0])
    assert report.failures == []
    assert [row.nu for row in report.rows] == nus
    for row in report.rows:
        assert abs(row.delta) <= 1.0e-6, (row.nu, row.delta, row.oracle_err)
