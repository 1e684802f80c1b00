"""
Acceptance checks for the headline claims of the package.

Each test pins a reproduction target from reference_levels.py with its
stated tolerance.  The benchmark column of the level tables was solved
for the exponent b = beta (1 - eta) from the printed beta, not for the
package's b = 2 alpha; the two agree only to the 4 printed decimals of
beta, enough to move nu = 5 levels by 0.1 cm^-1.  So
test_oracle_reproduces_benchmark_levels runs the oracle on that
Hamiltonian (reference_levels.benchmark_params), after checking that the
two exponents agree within the print precision.  One benchmark entry,
O2 (0, 0), contradicts its own rotational ladder and is listed in
reference_levels.BENCHMARK_ERRATA; see README.md.
"""

import math
import time

import numpy as np
import pytest

from rovib.oracle import default_grid, deviation_report, solve_bound_states
from rovib.potentials import (
    SpectroscopicParams,
    TietzHua,
    alpha_dmrm,
    deng_fan,
    derive,
    evaluate,
    from_params,
    lambert_w0,
    schioberg,
    to_pform,
    verify_varshni,
)
from rovib.rotational import badawi_coefficients, effective_coefficients
from rovib.spectrum import (
    energy,
    level,
    morse_vibrational_energy,
    susy_intermediates,
)
from rovib.units import kinetic_factor

from reference_levels import (
    BENCHMARK_ERRATA,
    N2_REFERENCE_COLUMNS,
    REFERENCE_LEVELS,
    benchmark_params,
)

J_COLUMNS = (0, 1, 2, 3, 4, 5, 10, 15, 20)
NU_ROWS = (0, 3, 5)


def test_closed_form_reproduces_reference_levels(db):
    # every closed-form entry of the level tables to 0.005 cm^-1, in
    # under a second
    start = time.perf_counter()
    misses = []
    for name, entries in REFERENCE_LEVELS.items():
        params = db.get(name)
        for (nu, J), (_, reference) in entries.items():
            computed = level(params, nu, J).E
            if abs(computed - reference) > 0.005:
                misses.append((name, nu, J, computed, reference))
    elapsed = time.perf_counter() - start
    assert not misses, f"{len(misses)} entries off by more than 0.005: {misses[:5]}"
    assert elapsed < 1.0


def test_n2_closed_form_and_morse_columns(db):
    params = db.get("N2")
    for nu, (_, _, closed, morse) in N2_REFERENCE_COLUMNS.items():
        assert level(params, nu, 0).E == pytest.approx(closed, abs=0.01)
        assert morse_vibrational_energy(params.De, params.we, nu) == pytest.approx(
            morse, abs=0.01
        )


# benchmark entries carry three decimals
PRINT_PRECISION = 1.0e-3


def ladder_outliers(levels):
    """Benchmark entries that contradict the rest of their (nu) row.

    For each entry, E0 + B x - D x^2 with x = J (J + 1) is fitted to the
    other benchmark entries of its row.  The entry is an outlier when
    those others fit to within the print precision and it misses the
    fit by more than ten times that.  Uses the benchmark values alone.
    Returns {(molecule, nu, J): fitted value at that J}.
    """
    outliers = {}
    for name, entries in levels.items():
        for nu in {nu for nu, _ in entries}:
            row = {J: bench for (n, J), (bench, _) in entries.items()
                   if n == nu and bench is not None}
            for J0, value in row.items():
                others = [J for J in row if J != J0]
                x = np.array([J * (J + 1) for J in others], dtype=float)
                design = np.column_stack([np.ones_like(x), x, -x * x])
                energies = np.array([row[J] for J in others])
                coef = np.linalg.lstsq(design, energies, rcond=None)[0]
                x0 = J0 * (J0 + 1)
                fitted = coef[0] + coef[1] * x0 - coef[2] * x0 * x0
                residual = np.max(np.abs(design @ coef - energies))
                fits = residual <= PRINT_PRECISION
                if fits and abs(value - fitted) > 10.0 * PRINT_PRECISION:
                    outliers[(name, nu, J0)] = fitted
    return outliers


def test_oracle_reproduces_benchmark_levels(db):
    # the oracle, solved for the benchmark's exponent b = beta (1 - eta),
    # sits within 0.05 cm^-1 of every benchmark entry except the one
    # erratum, which the ladder check finds on the benchmark data alone
    outliers = ladder_outliers(REFERENCE_LEVELS)
    assert outliers.keys() == BENCHMARK_ERRATA.keys()
    for key, fitted in outliers.items():
        assert fitted == pytest.approx(BENCHMARK_ERRATA[key], abs=PRINT_PRECISION)

    misses = []
    compared = 0
    for name, entries in REFERENCE_LEVELS.items():
        params = db.get(name)
        # the two exponents agree within the print band of beta
        gap = abs(2.0 * params.alpha - params.beta_table * (1.0 - params.eta))
        assert gap <= 0.5e-4 * abs(1.0 - params.eta) + 1.0e-6, name
        report = deviation_report(
            benchmark_params(params), list(NU_ROWS), list(J_COLUMNS),
            n_points=32768,
        )
        oracle = {(row.nu, row.J): row.E_oracle for row in report.rows}
        for (nu, J), (benchmark, _) in entries.items():
            if benchmark is None or (name, nu, J) in BENCHMARK_ERRATA:
                continue
            compared += 1
            delta = oracle[(nu, J)] - benchmark
            if abs(delta) > 0.05:
                misses.append((name, nu, J, round(delta, 3)))
    assert compared == 53
    assert not misses, (
        f"{len(misses)} of {compared} benchmark entries outside 0.05 cm^-1: "
        f"{misses}"
    )


def test_closed_form_tracks_oracle(db):
    for name in REFERENCE_LEVELS:
        params = db.get(name)
        report = deviation_report(
            params, list(NU_ROWS), list(J_COLUMNS), n_points=16384
        )
        assert report.failures == []
        assert report.max_abs_delta <= 1.0, name
        assert report.max_abs_delta_by_J[0] <= 0.1, name
    # N2 appears only with J = 0 in the reference data; hold it to the
    # tighter J = 0 band across its table
    report = deviation_report(db.get("N2"), list(range(10)), [0], n_points=16384)
    assert report.max_abs_delta <= 0.1


def test_property_suite_is_fast_and_passes(db):
    start = time.perf_counter()

    for name in db.names:
        params = db.get(name)
        d = derive(params)
        model = from_params(params)
        pform = to_pform(model)
        coeffs = badawi_coefficients(d.u, params.eta)
        r = np.linspace(0.5 * params.re, 6.0 * params.re, 401)

        # minimum conditions
        report = verify_varshni(model, d)
        assert abs(report.dU_at_re) <= 1.0e-6 * params.De / params.re
        assert report.depth == pytest.approx(params.De, rel=1.0e-6)
        curvature_target = 2.0 * params.De * params.beta_table**2
        assert report.d2U_at_re == pytest.approx(curvature_target, rel=5.0e-5)

        # pointwise equivalence of the model variants
        u_th = evaluate(model, r)
        ds = schioberg(A=d.A, B=d.B, q=d.q, alpha=params.alpha)
        e2x = np.exp(2.0 * params.alpha * r)
        u_ds = d.A * (d.B + (e2x - d.q) / (e2x + d.q)) ** 2
        assert np.max(np.abs(u_th - u_ds)) <= 1.0e-10 * params.De
        assert np.max(np.abs(evaluate(ds, r) - u_ds)) <= 1.0e-10 * params.De
        den = np.exp(pform.b * r) + pform.q
        u_pf = pform.P1 + pform.P2 / den + pform.P3 / den**2
        assert np.max(np.abs(u_th - u_pf)) <= 1.0e-10 * params.De

        # q = -1 reduction and the q -> 0 limit
        u_df = params.De * (
            1.0 - np.expm1(d.b * params.re) / np.expm1(d.b * r)
        ) ** 2
        for df in (
            TietzHua(De=params.De, re=params.re, b=d.b, eta=math.exp(-d.u)),
            deng_fan(De=params.De, re=params.re, lam=d.b),
        ):
            assert np.max(np.abs(evaluate(df, r) - u_df)) <= 1.0e-12 * params.De
        u_morse = params.De * (1.0 - np.exp(-d.b * (r - params.re))) ** 2
        near_morse = TietzHua(De=params.De, re=params.re, b=d.b, eta=1.0e-8)
        assert np.max(
            np.abs(evaluate(near_morse, r) - u_morse)
        ) <= 1.0e-5 * params.De

        # centrifugal expansion coefficients against the matching oracle
        h = 1.0e-3 * params.re

        def g1(x, b=d.b, q=d.q):
            return 1.0 / (math.exp(b * x) + q)

        def g2(x):
            return g1(x) ** 2

        def d1(f, x0=params.re):
            return (f(x0 - 2 * h) - 8 * f(x0 - h) + 8 * f(x0 + h)
                    - f(x0 + 2 * h)) / (12 * h)

        def d2(f, x0=params.re):
            return (-f(x0 - 2 * h) + 16 * f(x0 - h) - 30 * f(x0)
                    + 16 * f(x0 + h) - f(x0 + 2 * h)) / (12 * h * h)

        matrix = np.array([
            [1.0, g1(params.re), g2(params.re)],
            [0.0, d1(g1), d1(g2)],
            [0.0, d2(g1), d2(g2)],
        ])
        rhs = np.array([1.0, -2.0 / params.re, 6.0 / params.re**2])
        c_oracle = np.linalg.solve(matrix, rhs)
        for got, want in zip((coeffs.C1, coeffs.C2, coeffs.C3), c_oracle):
            assert abs(got - want) <= 1.0e-8 * max(1.0, abs(want))

        # superpotential defining relations and ground-state consistency
        k = kinetic_factor(params.mu)
        for J in (0, 5, 10, 20):
            eff = effective_coefficients(pform, coeffs, J, params.mu, params.re)
            s = susy_intermediates(pform, eff, params.mu)
            scale = abs(eff.Pt3) / k
            assert abs(s.Q2t**2 + pform.b * pform.q * s.Q2t - eff.Pt3 / k) <= (
                1.0e-8 * scale
            )
            assert abs(
                2.0 * pform.q * s.Q1t * s.Q2t + s.Q2t**2
                - (pform.q * eff.Pt2 + eff.Pt3) / k
            ) <= 1.0e-8 * scale
            assert s.E0 == pytest.approx(energy(pform, eff, 0, params.mu).E,
                                         rel=1.0e-10)

        # monotonicity within the bound range
        for J in (0, 10, 30):
            eff = effective_coefficients(pform, coeffs, J, params.mu, params.re)
            levels = [energy(pform, eff, nu, params.mu) for nu in range(21)]
            assert all(lev.bound for lev in levels)
            assert all(b.E > a.E for a, b in zip(levels, levels[1:]))
        for nu in (0, 5):
            levels = [level(params, nu, J) for J in range(31)]
            assert all(b.E > a.E for a, b in zip(levels, levels[1:]))

    # node counts and grid convergence on the eigensolver
    params = db.get("NO")
    model = from_params(params)
    grid = default_grid(params.re, 2000)
    ladder = [
        solve_bound_states(model, 0, params.mu, g, 3)
        for g in (grid, grid.halved(), grid.halved().halved())
    ]
    for sols in ladder:
        assert [s.nu for s in sols] == [0, 1, 2]
        assert all(s.wavefunction[0] == 0.0 and s.wavefunction[-1] == 0.0
                   for s in sols)
    for nu in range(3):
        # second-order stencil: each halving should cut the shift 4x
        step1 = abs(ladder[1][nu].E - ladder[0][nu].E)
        step2 = abs(ladder[2][nu].E - ladder[1][nu].E)
        assert step2 == pytest.approx(step1 / 4.0, rel=0.2)

    # Lambert W defining equation
    for x in np.geomspace(1.0e-9, 1.0e6, 100):
        for sign in (1.0, -1.0):
            if sign < 0 and x >= 1.0 / math.e:
                continue
            w = lambert_w0(sign * float(x))
            assert abs(w * math.exp(w) - sign * x) <= 1.0e-13 * max(1.0, x)

    assert time.perf_counter() - start < 30.0


def test_range_parameter_discrepancy(db):
    # the two Lambert-W range-parameter variants must be visibly
    # different for every bundled molecule
    for name in ("NO", "O2+", "N2"):
        params = db.get(name)
        d = derive(params)
        published = alpha_dmrm(params, d, "as_published")
        corrected = alpha_dmrm(params, d, "corrected")
        assert abs(corrected - published) > 1.0e-6

    # for O2 the published variant has no real value at all: its W
    # argument lands below -1/e, the strongest form of the discrepancy
    params = db.get("O2")
    d = derive(params)
    assert alpha_dmrm(params, d, "corrected") > 0.0
    with pytest.raises(ValueError, match="below -1/e") as err:
        alpha_dmrm(params, d, "as_published")
    assert "-0.397" in str(err.value)

    # independent validation of W at the arguments actually used
    for name in ("NO", "O2+", "N2"):
        params = db.get(name)
        d = derive(params)
        for exponent in (-params.re * d.beta / 2.0, -params.re * d.beta):
            x = params.re * d.q * d.beta * math.exp(exponent)
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1.0e-13
