import math

import numpy as np
import pytest

from rovib.potentials import derive, from_params, to_pform
from rovib.rotational import (
    badawi_coefficients,
    centrifugal_approx_error,
    centrifugal_strength,
    default_r_grid,
    effective_coefficients,
    greene_aldrich_approx,
    greene_aldrich_error,
)
from rovib.units import kinetic_factor

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
    assert at_zero.gamma == 0.0
    one = effective_coefficients(pf, co, 1, p.mu, p.re)
    assert one.gamma == pytest.approx(2.0 * kinetic_factor(p.mu) / p.re**2,
                                      rel=1.0e-14)
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
    # the text level_table gives for such an index, not an OverflowError
    with pytest.raises(ValueError, match="got one beyond float range"):
        centrifugal_strength(10**400, 7.5, 1.2)


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


def test_exponential_comparator():
    assert greene_aldrich_approx(1.0, 1.0) == pytest.approx(
        1.0040069275411256, rel=1.0e-12
    )
    # small-argument regime: good to a few 1e-5 at lam r = 0.01
    assert abs(float(greene_aldrich_error(0.01, np.array([1.0]))[0])) < 1.0e-4
    with pytest.raises(ValueError):
        greene_aldrich_approx(1.0, 0.0)
    with pytest.raises(ValueError):
        greene_aldrich_approx(1.0, -1.0)


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
    assert grid.size == 50
    assert grid[0] == pytest.approx(0.72, rel=1.0e-12)
    assert grid[-1] == pytest.approx(6.0, rel=1.0e-12)
    dropped = default_r_grid(1.2, 50, pole=float(grid[10]))
    assert dropped.size == 49
    assert np.min(np.abs(dropped - grid[10])) > 1.0e-6
    with pytest.raises(ValueError):
        default_r_grid(0.0, 50)
    with pytest.raises(ValueError):
        default_r_grid(1.2, 1)


def test_badawi_domain():
    with pytest.raises(ValueError):
        badawi_coefficients(0.0, 0.1)
    with pytest.raises(ValueError):
        badawi_coefficients(-1.0, 0.1)
    with pytest.raises(ValueError):
        badawi_coefficients(3.0, 1.0)
