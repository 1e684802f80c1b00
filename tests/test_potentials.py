import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib.potentials import (
    DeformedSchioberg,
    DengFan,
    GeneralPForm,
    Morse,
    SingularRadiusError,
    SpectroscopicParams,
    TietzHua,
    alpha_dmrm,
    derive,
    dissociation_energy,
    equilibrium_radius,
    evaluate,
    from_params,
    lambert_w0,
    model_pole_radius,
    schioberg_offset,
    to_pform,
    verify_varshni,
)
from rovib.units import kinetic_factor

from reference_levels import PUBLISHED_PARAMS


def synthetic(eta, De=5.0e4, re=1.2, we=1800.0, mu=7.5, alpha=1.3):
    return SpectroscopicParams(
        name="X", De=De, re=re, we=we, mu=mu, alpha=alpha, eta=eta
    )


# ---------------------------------------------------------------------------
# parameter derivation


@settings(max_examples=200)
@given(
    De=st.floats(min_value=1.0e3, max_value=2.0e5),
    re=st.floats(min_value=0.5, max_value=4.0),
    we=st.floats(min_value=200.0, max_value=4000.0),
    mu=st.floats(min_value=0.5, max_value=50.0),
    alpha=st.floats(min_value=0.3, max_value=4.0),
    # |eta| below ~1e-2 is excluded: B + 1 then cancels to fewer digits
    # than the identity check below requires
    eta=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.01, max_value=0.9),
        st.floats(min_value=-0.9, max_value=-0.01),
    ),
)
def test_derive_relations(De, re, we, mu, alpha, eta):
    params = SpectroscopicParams(
        name="X", De=De, re=re, we=we, mu=mu, alpha=alpha, eta=eta
    )
    d = derive(params)
    assert d.b == 2.0 * alpha
    assert d.u == d.b * re
    assert d.q == pytest.approx(-eta * math.exp(d.u), rel=1.0e-14)
    assert (d.q > 0) == (eta < 0)
    assert d.Ke == pytest.approx(we**2 / (2.0 * kinetic_factor(mu)), rel=1.0e-14)
    assert d.beta == pytest.approx(math.sqrt(d.Ke / (2.0 * De)), rel=1.0e-14)
    if eta == 0.0:
        assert d.q == 0.0
        assert math.isinf(d.A)
        assert d.B == -1.0
    else:
        # the offset coefficient always restores the exact well depth
        assert d.A * (d.B + 1.0) ** 2 == pytest.approx(De, rel=1.0e-12)


def test_derived_beta_vs_tabulated(db):
    # NO and N2 rows are self-consistent to well under 1e-3
    for name in ("NO", "N2"):
        p = db.get(name)
        rel = abs(derive(p).beta - p.beta_table) / p.beta_table
        assert rel < 1.0e-3
    # the O2 and O2+ rows carry a beta column inconsistent with their
    # (we, mu, De) at the 1.5e-2 level; pin the mismatch so a silent
    # "fix" of either column shows up here
    for name in ("O2", "O2+"):
        p = db.get(name)
        rel = abs(derive(p).beta - p.beta_table) / p.beta_table
        assert 1.0e-3 < rel < 2.0e-2


def test_printed_no_eta_flips_deformation_sign(db):
    # the widely printed NO eta makes q positive and moves every level;
    # the bundled value keeps q negative (see reference_levels.py)
    printed = PUBLISHED_PARAMS["NO"]["eta"]
    p = db.get("NO")
    q_bundled = derive(p).q
    q_printed = derive(
        SpectroscopicParams(
            name="NO", De=p.De, re=p.re, we=p.we, mu=p.mu, alpha=p.alpha,
            eta=printed,
        )
    ).q
    assert q_bundled < 0.0 < q_printed


@pytest.mark.parametrize("field", ["De", "re", "we", "mu", "alpha"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_positive_parameters_required(field, bad):
    kwargs = dict(name="X", De=5.0e4, re=1.2, we=1800.0, mu=7.5,
                  alpha=1.3, eta=0.05)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=field):
        SpectroscopicParams(**kwargs)


@pytest.mark.parametrize(
    "field", ["De", "re", "we", "mu", "alpha", "eta", "beta_table"]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, bad):
    kwargs = dict(name="X", De=5.0e4, re=1.2, we=1800.0, mu=7.5,
                  alpha=1.3, eta=0.05, beta_table=2.7)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SpectroscopicParams(**kwargs)


def test_degenerate_eta_rejected():
    with pytest.raises(ValueError, match="eta"):
        synthetic(eta=1.0)
    with pytest.raises(ValueError, match="beta_table"):
        SpectroscopicParams(name="X", De=5.0e4, re=1.2, we=1800.0, mu=7.5,
                            alpha=1.3, eta=0.05, beta_table=-2.0)


# ---------------------------------------------------------------------------
# pointwise equivalence of the model variants


@pytest.mark.parametrize("name", list(PUBLISHED_PARAMS))
def test_model_variants_agree_pointwise(db, name):
    p = db.get(name)
    d = derive(p)
    th = from_params(p)
    ds = DeformedSchioberg(A=d.A, B=d.B, q=d.q, alpha=p.alpha)
    gp = GeneralPForm(to_pform(th))
    r = np.linspace(0.5 * p.re, 6.0 * p.re, 401)
    u_th = evaluate(th, r)
    assert np.max(np.abs(u_th - evaluate(ds, r))) <= 1.0e-10 * p.De
    assert np.max(np.abs(u_th - evaluate(gp, r))) <= 1.0e-10 * p.De
    # derived triples satisfy the minimum conditions, so the raw
    # squared-tanh form carries no constant offset
    assert abs(schioberg_offset(ds)) <= 1.0e-10 * p.De


def test_raw_triple_minimum_is_zero():
    # the squared bracket touches zero wherever the minimum is
    # reachable, even for a triple that derive() never produces
    model = DeformedSchioberg(A=5.0e4, B=-0.9, q=0.5, alpha=1.3)
    re = equilibrium_radius(model)
    assert re > 0.0
    offset = schioberg_offset(model)
    assert abs(offset) <= 1.0e-10 * model.A
    assert evaluate(model, re) == pytest.approx(offset, abs=1.0e-10 * model.A)
    depth = evaluate(model, 50.0) - evaluate(model, re)
    assert depth == pytest.approx(dissociation_energy(model), rel=1.0e-9)


def test_minimum_outside_domain_is_rejected():
    # tanh_q never reaches -B = 0.2 at positive radius for q = 0.5
    model = DeformedSchioberg(A=5.0e4, B=-0.2, q=0.5, alpha=1.3)
    with pytest.raises(ValueError, match="no minimum"):
        equilibrium_radius(model)


def test_deng_fan_reduction(db):
    # eta = e^{-u} makes the deformation exactly -1
    for name in ("NO", "N2"):
        p = db.get(name)
        d = derive(p)
        th = TietzHua(De=p.De, re=p.re, b=d.b, eta=math.exp(-d.u))
        df = DengFan(De=p.De, re=p.re, lam=d.b)
        r = np.linspace(0.5 * p.re, 6.0 * p.re, 401)
        assert np.max(np.abs(evaluate(th, r) - evaluate(df, r))) <= 1.0e-12 * p.De
        assert to_pform(df).q == -1.0


def test_morse_limit(db):
    p = db.get("O2")
    b = 2.0 * p.alpha
    morse = Morse(De=p.De, re=p.re, beta=b)
    r = np.linspace(0.5 * p.re, 6.0 * p.re, 401)
    exact = evaluate(TietzHua(De=p.De, re=p.re, b=b, eta=0.0), r)
    assert np.max(np.abs(exact - evaluate(morse, r))) <= 1.0e-12 * p.De
    small = evaluate(TietzHua(De=p.De, re=p.re, b=b, eta=1.0e-8), r)
    assert np.max(np.abs(small - evaluate(morse, r))) <= 1.0e-5 * p.De


@pytest.mark.parametrize("name", list(PUBLISHED_PARAMS))
def test_minimum_and_asymptote(db, name):
    p = db.get(name)
    model = from_params(p)
    assert evaluate(model, p.re) == pytest.approx(0.0, abs=1.0e-9 * p.De)
    far = min(100.0 * p.re, 650.0 / (2.0 * p.alpha))
    assert evaluate(model, far) == pytest.approx(p.De, rel=1.0e-6)
    # repulsive wall
    assert evaluate(model, 1.0e-6) > p.De


def test_evaluate_requires_positive_radius(db):
    model = from_params(db.get("NO"))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            evaluate(model, bad)
    with pytest.raises(ValueError):
        evaluate(model, np.array([1.0, -0.5]))


def test_pole_rejection():
    # eta e^u > 1 puts the rational pole at positive radius
    model = TietzHua(De=5.0e4, re=1.2, b=2.6, eta=0.9)
    pole = model_pole_radius(model)
    assert pole is not None and pole > 0.0
    for r in (pole, pole + 5.0e-10, pole - 5.0e-10):
        with pytest.raises(SingularRadiusError):
            evaluate(model, r)
    with pytest.raises(SingularRadiusError):
        evaluate(model, np.array([0.5, pole + 1.0e-10, 2.0]))
    assert math.isfinite(evaluate(model, pole + 1.0e-3))


def test_no_pole_for_bundled_molecules(db):
    for name in db.names:
        assert model_pole_radius(from_params(db.get(name))) is None
    assert model_pole_radius(DengFan(De=5.0e4, re=1.2, lam=2.6)) is None
    assert model_pole_radius(Morse(De=5.0e4, re=1.2, beta=2.6)) is None


def test_pform_coefficient_identities(db):
    for name in db.names:
        p = db.get(name)
        pf = to_pform(from_params(p))
        assert pf.P1 == p.De
        assert pf.P2**2 == pytest.approx(4.0 * pf.P1 * pf.P3, rel=1.0e-12)
        assert pf.P2 < 0.0 < pf.P3


def test_pform_has_no_morse_representation():
    with pytest.raises(ValueError, match="Morse"):
        to_pform(Morse(De=5.0e4, re=1.2, beta=2.6))


def test_equilibrium_radius_inversions(db):
    p = db.get("O2+")
    d = derive(p)
    ds = DeformedSchioberg(A=d.A, B=d.B, q=d.q, alpha=p.alpha)
    gp = GeneralPForm(to_pform(from_params(p)))
    assert equilibrium_radius(ds) == pytest.approx(p.re, rel=1.0e-12)
    assert equilibrium_radius(gp) == pytest.approx(p.re, rel=1.0e-12)


# ---------------------------------------------------------------------------
# minimum-condition verification


def test_minimum_conditions_hold(db):
    for name in db.names:
        p = db.get(name)
        report = verify_varshni(from_params(p), derive(p))
        assert report.re == p.re
        assert abs(report.dU_at_re) <= 1.0e-6 * p.De / p.re
        assert report.depth == pytest.approx(p.De, rel=1.0e-6)


def test_curvature_matches_tabulated_beta(db):
    # the measured curvature must reproduce 2 De beta^2 built from the
    # tabulated beta, bounded at the 5-digit print precision of beta
    for name in db.names:
        p = db.get(name)
        report = verify_varshni(from_params(p), derive(p))
        target = 2.0 * p.De * p.beta_table**2
        rel = abs(report.d2U_at_re - target) / target
        assert rel < 5.0e-5
        if name == "NO":
            assert rel < 2.0e-5


# ---------------------------------------------------------------------------
# Lambert W and the range-parameter variants


def _w_bisect(x):
    lo, hi = -1.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_lambert_known_values():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1.0e-13)
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1.0e-13)
    assert lambert_w0(-1.0 / math.e) == -1.0


def test_lambert_defining_equation_residual():
    xs = (
        list(np.geomspace(1.0e-9, 1.0e6, 400))
        + list(-np.geomspace(1.0e-9, 1.0 / math.e - 1.0e-9, 400))
        + [0.0]
    )
    for x in xs:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1.0e-13 * max(1.0, abs(x))


def test_lambert_matches_bisection():
    for x in np.linspace(-1.0 / math.e + 1.0e-6, 10.0, 60):
        w = lambert_w0(float(x))
        assert abs(w - _w_bisect(float(x))) <= 5.0e-12 * max(1.0, abs(w))


def test_lambert_domain():
    with pytest.raises(ValueError):
        lambert_w0(-1.0 / math.e - 1.0e-9)
    # arguments within rounding of the branch point clamp to -1
    assert lambert_w0(-1.0 / math.e + 1.0e-17) == -1.0


def test_range_parameter_corrected_always_defined(db):
    for name in db.names:
        p = db.get(name)
        value = alpha_dmrm(p, derive(p), "corrected")
        assert math.isfinite(value) and value > 0.0


def test_range_parameter_variants_differ(db):
    for name in ("NO", "O2+", "N2"):
        p = db.get(name)
        d = derive(p)
        diff = alpha_dmrm(p, d, "corrected") - alpha_dmrm(p, d, "as_published")
        assert abs(diff) > 1.0e-6


def test_range_parameter_published_variant_leaves_domain_for_o2(db):
    # the halved exponent pushes the W argument to -0.397, below -1/e;
    # the offending argument must be reported
    p = db.get("O2")
    with pytest.raises(ValueError, match="below -1/e") as err:
        alpha_dmrm(p, derive(p), "as_published")
    assert "-0.397" in str(err.value)


def test_range_parameter_morse_case_degenerates_to_half_beta():
    p = synthetic(eta=0.0)
    d = derive(p)
    assert alpha_dmrm(p, d, "corrected") == pytest.approx(d.beta / 2.0, rel=1.0e-14)
    assert alpha_dmrm(p, d, "as_published") == pytest.approx(d.beta / 2.0, rel=1.0e-14)


def test_range_parameter_unknown_variant(db):
    p = db.get("NO")
    with pytest.raises(ValueError, match="variant"):
        alpha_dmrm(p, derive(p), "improved")
