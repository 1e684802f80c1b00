import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib.potentials import derive, from_params, pole_radius, to_pform
from rovib.rotational import (
    badawi_coefficients,
    centrifugal_approx_error,
    centrifugal_strength,
    default_r_grid,
    effective_coefficients,
    greene_aldrich_error,
)
from rovib.units import kinetic_factor

from test_spectrum import physical_params

# expansion coefficients for the bundled parameter sets, frozen from the
# closed forms after they were cross-checked against the matching oracle
FROZEN_C = {
    "NO":  (0.34774245, 15.12654945, -10.68254108),
    "O2":  (0.34863813, 15.10486080, -14.42095205),
    "O2+": (0.35523343, 16.37492282, -5.13575516),
    "N2":  (0.33985144, 14.13896674, 7.42585266),
}


def _coeffs(params):
    d = derive(params)
    return d, badawi_coefficients(d.u, params.eta)


@pytest.mark.parametrize("name", list(FROZEN_C))
def test_frozen_coefficients(db, name):
    _, co = _coeffs(db.get(name))
    for got, want in zip((co.C1, co.C2, co.C3), FROZEN_C[name]):
        assert got == pytest.approx(want, abs=1.0e-6)


def test_expansion_matches_value_at_minimum(db):
    for name in db.names:
        p = db.get(name)
        d, co = _coeffs(p)
        err = centrifugal_approx_error(co, d.q, d.u, d.b, np.array([p.re]))
        assert abs(float(err[0])) <= 1.0e-10


def test_expansion_matches_derivatives_at_minimum(db):
    # first and second derivative of the expansion against -2/re and
    # 6/re^2, the derivatives of re^2/r^2
    for name in db.names:
        p = db.get(name)
        d, co = _coeffs(p)

        def fa(r):
            den = math.exp(d.b * r) + d.q
            return co.C1 + co.C2 / den + co.C3 / den**2

        re, h = p.re, 1.0e-3 * p.re
        u = [fa(re + i * h) for i in (-2, -1, 0, 1, 2)]
        d1 = (u[0] - 8.0 * u[1] + 8.0 * u[3] - u[4]) / (12.0 * h)
        d2 = (-u[0] + 16.0 * u[1] - 30.0 * u[2] + 16.0 * u[3] - u[4]) / (12.0 * h**2)
        assert d1 == pytest.approx(-2.0 / re, rel=1.0e-8)
        assert d2 == pytest.approx(6.0 / re**2, rel=1.0e-8)


def test_closed_forms_against_matching_oracle(db):
    # solve the value/slope/curvature matching conditions numerically
    # (finite differences on the raw basis functions plus a 3x3 solve)
    # and compare with the closed forms
    cases = [(db.get(n).re, derive(db.get(n)).u, db.get(n).eta) for n in db.names]
    p = db.get("NO")
    u_no = derive(p).u
    cases.append((p.re, u_no, -0.029477))  # widely printed NO shape value
    cases.append((p.re, u_no, math.exp(-u_no)))  # q = -1 case
    for re, u, eta in cases:
        b = u / re
        q = -eta * math.exp(u)
        h = 1.0e-3 * re

        def g1(r):
            return 1.0 / (math.exp(b * r) + q)

        def g2(r):
            return g1(r) ** 2

        def d1(f):
            return (f(re - 2 * h) - 8 * f(re - h) + 8 * f(re + h) - f(re + 2 * h)) / (12 * h)

        def d2(f):
            return (-f(re - 2 * h) + 16 * f(re - h) - 30 * f(re)
                    + 16 * f(re + h) - f(re + 2 * h)) / (12 * h * h)

        matrix = np.array([
            [1.0, g1(re), g2(re)],
            [0.0, d1(g1), d1(g2)],
            [0.0, d2(g1), d2(g2)],
        ])
        rhs = np.array([1.0, -2.0 / re, 6.0 / re**2])
        c_oracle = np.linalg.solve(matrix, rhs)
        co = badawi_coefficients(u, eta)
        for got, want in zip((co.C1, co.C2, co.C3), c_oracle):
            assert abs(got - want) <= 1.0e-8 * max(1.0, abs(want))


def test_effective_coefficients_structure(db):
    p = db.get("N2")
    d, co = _coeffs(p)
    pf = to_pform(from_params(p))
    at_zero = effective_coefficients(pf, co, 0, p.mu, p.re)
    assert (at_zero.Pt1, at_zero.Pt2, at_zero.Pt3) == (pf.P1, pf.P2, pf.P3)
    assert centrifugal_strength(0, p.mu, p.re) == 0.0
    gamma = centrifugal_strength(1, p.mu, p.re)
    assert gamma == pytest.approx(2.0 * kinetic_factor(p.mu) / p.re**2, rel=1.0e-14)
    one = effective_coefficients(pf, co, 1, p.mu, p.re)
    assert one == (pf.P1 + gamma * co.C1, pf.P2 + gamma * co.C2, pf.P3 + gamma * co.C3)
    three = effective_coefficients(pf, co, 3, p.mu, p.re)
    # shifts scale exactly with J(J+1)
    # recovering the shift by subtraction cancels ~5 digits, so the
    # scaling check cannot be tighter than ~1e-11
    for a, b_ in ((one.Pt1 - pf.P1, three.Pt1 - pf.P1),
                  (one.Pt2 - pf.P2, three.Pt2 - pf.P2),
                  (one.Pt3 - pf.P3, three.Pt3 - pf.P3)):
        assert b_ == pytest.approx(6.0 * a, rel=1.0e-10)


def test_pt3_stays_positive_through_j60(db):
    for name in db.names:
        p = db.get(name)
        d, co = _coeffs(p)
        pf = to_pform(from_params(p))
        for J in range(61):
            assert effective_coefficients(pf, co, J, p.mu, p.re).Pt3 > 0.0


def test_centrifugal_strength_domain():
    assert centrifugal_strength(0, 7.5, 1.2) == 0.0
    with pytest.raises(ValueError):
        centrifugal_strength(-1, 7.5, 1.2)
    with pytest.raises(ValueError):
        centrifugal_strength(2.5, 7.5, 1.2)
    with pytest.raises(ValueError):
        centrifugal_strength(1, 7.5, 0.0)
    with pytest.raises(ValueError):
        centrifugal_strength(1, -7.5, 1.2)


def test_expansion_error_grows_away_from_minimum(db):
    p = db.get("NO")
    d, co = _coeffs(p)
    radii = np.array([p.re, 1.2 * p.re, 3.0 * p.re])
    err = np.abs(centrifugal_approx_error(co, d.q, d.u, d.b, radii))
    assert err[0] <= 1.0e-10
    assert err[1] > 1.0e-4
    assert err[2] > err[1]


def test_expansion_error_rejects_poles():
    # eta e^u > 1 puts a basis pole at positive radius
    re, b, eta = 1.2, 2.6, 0.9
    u = b * re
    q = -eta * math.exp(u)
    co = badawi_coefficients(u, eta)
    pole = math.log(-q) / b
    with pytest.raises(ValueError):
        centrifugal_approx_error(co, q, u, b, np.array([pole]))
    with pytest.raises(ValueError):
        centrifugal_approx_error(co, q, u, b, np.array([-1.0]))


@pytest.mark.parametrize("eta", [0.9, 0.05])
def test_expansion_error_pole_threshold_is_per_radius(eta):
    # the test is |1 + q e^{-b r}| < 1e-12 at each radius: 1.05e-12 passes
    # and 0.95e-12 fails, with a radius far out in the same call (scaling
    # the threshold by e^{b max r} failed both)
    re, b = 1.2, 2.6
    u = b * re
    q = -eta * math.exp(u)
    co = badawi_coefficients(u, eta)
    far = 5.0 * re
    for delta, fails in ((1.05e-12, False), (0.95e-12, True)):
        r = (math.log(-q) - math.log1p(-delta)) / b  # 1 + q e^{-b r} = delta
        assert abs(1.0 + q * math.exp(-b * r) - delta) < 1.0e-15
        if fails:
            with pytest.raises(ValueError, match="too close to a pole"):
                centrifugal_approx_error(co, q, u, b, [r, far])
        else:
            assert len(centrifugal_approx_error(co, q, u, b, [r, far])) == 2


def test_expansion_error_without_a_pole_scans_any_grid():
    # eta = 0 has no pole: b re = 6.4 used to fail the default grid, as
    # e^{b r} at 0.6 re fell below 1e-12 e^{b 5 re}
    re, b, eta = 1.6, 4.0, 0.0
    co = badawi_coefficients(b * re, eta)
    grid = default_r_grid(re, 200)
    errors = centrifugal_approx_error(co, 0.0, b * re, b, grid)
    assert len(errors) == 200 and all(math.isfinite(x) for x in errors)
    assert abs(centrifugal_approx_error(co, 0.0, b * re, b, [re])[0]) < 1.0e-12


def test_exponential_comparator():
    # at lam = r = 1 the approximation is 1.0040069275411256, 1/r^2 is 1
    assert greene_aldrich_error(1.0, [1.0])[0] == pytest.approx(
        1.0040069275411256 - 1.0, abs=1.0e-12
    )
    # small-argument regime: good to a few 1e-5 at lam r = 0.01
    assert abs(float(greene_aldrich_error(0.01, np.array([1.0]))[0])) < 1.0e-4
    with pytest.raises(ValueError):
        greene_aldrich_error(1.0, [0.0])
    with pytest.raises(ValueError):
        greene_aldrich_error(1.0, [-1.0])


def test_rational_beats_exponential_at_minimum(db):
    for name in db.names:
        p = db.get(name)
        d, co = _coeffs(p)
        r = np.array([p.re])
        rational = abs(float(centrifugal_approx_error(co, d.q, d.u, d.b, r)[0]))
        exponential = abs(float(greene_aldrich_error(d.b, r)[0]))
        assert rational < 1.0e-3 * exponential


def test_default_r_grid():
    grid = default_r_grid(1.2, 50)
    assert type(grid) is list and len(grid) == 50
    assert grid[0] == pytest.approx(0.72, rel=1.0e-12)
    assert grid[-1] == pytest.approx(6.0, rel=1.0e-12)
    dropped = default_r_grid(1.2, 50, pole=grid[10])
    assert type(dropped) is list and len(dropped) == 49
    assert min(abs(r - grid[10]) for r in dropped) > 1.0e-6
    with pytest.raises(ValueError):
        default_r_grid(0.0, 50)
    with pytest.raises(ValueError):
        default_r_grid(1.2, 1)


# the numpy expressions the plain-float scan helpers replaced


def numpy_r_grid(re, n, pole=None):
    grid = np.geomspace(0.6 * re, 5.0 * re, n)
    return grid if pole is None else grid[np.abs(grid - pole) > 1.0e-6]


def numpy_approx_error(coeffs, q, u, b, r):
    den = np.exp(b * r) + q
    approx = coeffs.C1 + coeffs.C2 / den + coeffs.C3 / den**2
    exact = (u / b) ** 2 / r**2
    return (approx - exact) / exact


def numpy_greene_aldrich(lam, r):
    el = np.exp(lam * r)
    return lam**2 * (1.0 / 12.0 + el / (el - 1.0) ** 2)


def _matches_numpy(params, n):
    d, co = _coeffs(params)
    pole = pole_radius(d.b, d.q)
    grid = default_r_grid(params.re, n, pole=pole)
    reference = numpy_r_grid(params.re, n, pole=pole)
    assert type(grid) is list and len(grid) == reference.size
    assert grid[0] == reference[0] and grid[-1] == reference[-1]  # exact ends
    r = np.array(grid)
    assert np.allclose(r, reference, rtol=1.0e-13, atol=0.0)
    rational = np.array(centrifugal_approx_error(co, d.q, d.u, d.b, grid))
    rational_ref = numpy_approx_error(co, d.q, d.u, d.b, r)
    # each error is approx / exact - 1 in effect, so the radii's and exp's
    # last-bit differences reach it as a few 1e-16 absolute: noise in its
    # leading digits near re, rel 1e-13 where it reaches 1e-2
    assert _close_away_from_noise(rational, rational_ref)
    error = np.array(greene_aldrich_error(d.b, grid))
    error_ref = (numpy_greene_aldrich(d.b, r) - 1.0 / r**2) * r**2
    assert _close_away_from_noise(error, error_ref)


def _close_away_from_noise(values, reference) -> bool:
    """|values - reference| <= 1e-15 + 1e-13 |reference|: the absolute term
    rules near re, where the error is noise, the relative one once the
    error passes 1e-2."""
    return np.allclose(values, reference, rtol=1.0e-13, atol=1.0e-15)


@pytest.mark.parametrize("n", [2, 20, 200, 4001])
def test_scan_helpers_match_their_numpy_expressions(db, n):
    for name in db.names:
        _matches_numpy(db.get(name), n)


@settings(max_examples=100, deadline=None)
@given(p=physical_params, n=st.integers(2, 400))
def test_scan_helpers_match_their_numpy_expressions_on_drawn_molecules(p, n):
    _matches_numpy(p, n)


def test_scan_helpers_return_floats():
    lam = 1.3
    assert type(greene_aldrich_error(lam, [1.0])[0]) is float
    assert type(greene_aldrich_error(lam, [2])[0]) is float
    # each radius on its own: a one-element list gives the element's value
    assert greene_aldrich_error(lam, [1.0]) == greene_aldrich_error(lam, [3.0, 1.0])[1:]
    for values in (greene_aldrich_error(lam, (1.0, 2.0)),
                   greene_aldrich_error(lam, np.array([1.0, 2.0])),
                   default_r_grid(1.2, 5)):
        assert type(values) is list and {type(x) for x in values} == {float}
    co = badawi_coefficients(3.0, 0.05)
    assert centrifugal_approx_error(co, -0.05 * math.exp(3.0), 3.0, 2.5, []) == []


def test_badawi_domain():
    with pytest.raises(ValueError):
        badawi_coefficients(0.0, 0.1)
    with pytest.raises(ValueError):
        badawi_coefficients(-1.0, 0.1)
    with pytest.raises(ValueError):
        badawi_coefficients(3.0, 1.0)
