import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib.potentials import (
    PForm,
    SingularRadiusError,
    SpectroscopicParams,
    derive,
    from_params,
    to_pform,
)
from rovib.rotational import badawi_coefficients, effective_coefficients
from rovib.spectrum import (
    EnergyLevel,
    SusyIntermediates,
    energy,
    level,
    level_table,
    log_wavefunction,
    morse_vibrational_energy,
    susy_intermediates,
    wavefunction,
)
from rovib.units import kinetic_factor

from reference_levels import N2_REFERENCE_COLUMNS, REFERENCE_LEVELS


def _pipeline(params, J):
    d = derive(params)
    pf = to_pform(from_params(params))
    co = badawi_coefficients(d.u, params.eta)
    return pf, effective_coefficients(pf, co, J, params.mu, params.re)


def test_reference_spot_levels(db):
    assert level(db.get("NO"), 0, 0).E == pytest.approx(
        REFERENCE_LEVELS["NO"][(0, 0)][1], abs=5.0e-3
    )
    assert level(db.get("O2"), 3, 10).E == pytest.approx(
        REFERENCE_LEVELS["O2"][(3, 10)][1], abs=5.0e-3
    )
    assert level(db.get("O2+"), 5, 20).E == pytest.approx(
        REFERENCE_LEVELS["O2+"][(5, 20)][1], abs=5.0e-3
    )
    assert level(db.get("N2"), 9, 0).E == pytest.approx(
        N2_REFERENCE_COLUMNS[9][2], abs=1.0e-2
    )


def test_ground_state_consistency(db):
    # the factorization ground level must coincide with the nu = 0 energy
    for name in db.names:
        p = db.get(name)
        for J in (0, 5, 20):
            pf, eff = _pipeline(p, J)
            s = susy_intermediates(pf, eff, p.mu)
            assert s.E0 == pytest.approx(energy(pf, eff, 0, p.mu).E, rel=1.0e-10)


def test_superpotential_defining_relations(db):
    for name in db.names:
        p = db.get(name)
        k = kinetic_factor(p.mu)
        for J in (0, 10):
            pf, eff = _pipeline(p, J)
            s = susy_intermediates(pf, eff, p.mu)
            scale = abs(eff.Pt3) / k
            res_quadratic = s.Q2t**2 + pf.b * pf.q * s.Q2t - eff.Pt3 / k
            res_cross = (
                2.0 * pf.q * s.Q1t * s.Q2t + s.Q2t**2
                - (pf.q * eff.Pt2 + eff.Pt3) / k
            )
            assert abs(res_quadratic) <= 1.0e-8 * scale
            assert abs(res_cross) <= 1.0e-8 * scale


def test_susy_fixture_values(db):
    pf, eff = _pipeline(db.get("NO"), 0)
    s = susy_intermediates(pf, eff, db.get("NO").mu)
    assert s.Q1t == pytest.approx(-152.89591154227546, rel=1.0e-10)
    assert s.Q2t == pytest.approx(3465.6853650817893, rel=1.0e-10)
    assert s.E0 == pytest.approx(947.7568475647786, abs=1.0e-6)
    assert s.branch == "minus"


def test_branch_rule(db):
    for name, want in (("NO", "minus"), ("O2", "minus"),
                       ("O2+", "plus"), ("N2", "plus")):
        p = db.get(name)
        pf, eff = _pipeline(p, 0)
        s = susy_intermediates(pf, eff, p.mu)
        assert s.branch == want
        assert s.Q1t < 0.0  # normalizability
        if pf.q > 0.0:
            assert s.Q2t / (pf.b * pf.q) > 0.0


def test_ground_state_wavefunction_fixtures(db):
    p = db.get("NO")
    pf, eff = _pipeline(p, 0)
    s = susy_intermediates(pf, eff, p.mu)
    sample = wavefunction(s, pf, p.re)
    assert sample.r == p.re
    assert sample.value == pytest.approx(1.1650037309699278e-101, rel=1.0e-6)
    assert log_wavefunction(s, pf, 20.0 * p.re) == pytest.approx(
        -3519.663883703181, rel=1.0e-9
    )
    # deep inside the repulsive wall the amplitude underflows but the
    # sample stays finite
    assert math.isfinite(wavefunction(s, pf, 1.0e-4).value)


def test_ground_state_decays(db):
    for name in db.names:
        p = db.get(name)
        pf, eff = _pipeline(p, 0)
        s = susy_intermediates(pf, eff, p.mu)
        ln_re = log_wavefunction(s, pf, p.re)
        ln_6 = log_wavefunction(s, pf, 6.0 * p.re)
        ln_12 = log_wavefunction(s, pf, 12.0 * p.re)
        ln_20 = log_wavefunction(s, pf, 20.0 * p.re)
        assert ln_re > ln_6 > ln_12 > ln_20
        assert ln_20 - ln_re < math.log(1.0e-6)


def test_wavefunction_domain():
    dummy = SusyIntermediates(Q1t=-1.0, Q2t=1.0, E0=0.0, branch="minus")
    pf = PForm(b=2.6, q=-20.36, P1=5.0e4, P2=-1.0e5, P3=5.0e4)
    with pytest.raises(ValueError):
        wavefunction(dummy, pf, 0.0)
    with pytest.raises(ValueError):
        log_wavefunction(dummy, pf, -1.0)
    # inside the pole radius the log argument drops below -1
    with pytest.raises(SingularRadiusError):
        wavefunction(dummy, pf, 0.5)


def test_energies_increase_in_nu_and_j(db):
    for name in db.names:
        p = db.get(name)
        for J in (0, 10, 30):
            pf, eff = _pipeline(p, J)
            levels = [energy(pf, eff, nu, p.mu) for nu in range(21)]
            assert all(lev.bound for lev in levels)
            assert all(b.E > a.E for a, b in zip(levels, levels[1:]))
        for nu in (0, 5):
            levels = [level(p, nu, J) for J in range(31)]
            assert all(b.E > a.E for a, b in zip(levels, levels[1:]))


def test_bound_flag_flips_past_monotone_range(db):
    p = db.get("NO")
    pf, eff = _pipeline(p, 0)
    flags = [energy(pf, eff, nu, p.mu).bound for nu in range(80)]
    flip = flags.index(False)
    assert flip == 56
    assert all(flags[:flip])
    # energies never exceed the dissociation plateau
    assert all(energy(pf, eff, nu, p.mu).E <= eff.Pt1 for nu in range(80))


def test_high_j_has_no_real_solution(db):
    p = db.get("NO")
    pf, eff = _pipeline(p, 1300)
    with pytest.raises(ValueError, match="discriminant"):
        energy(pf, eff, 0, p.mu)
    with pytest.raises(ValueError, match="radicand"):
        susy_intermediates(pf, eff, p.mu)


def _morse_level(De, b, mu, nu):
    """De - k b^2 (sqrt(De/k)/b - (nu + 1/2))^2, the q = 0 closed form."""
    k = kinetic_factor(mu)
    return De - k * b**2 * (math.sqrt(De / k) / b - (nu + 0.5)) ** 2


def test_morse_limit_is_the_morse_level():
    # q = 0 exactly: the closed form is the Morse level, to rounding
    pf = PForm(b=2.6, q=0.0, P1=5.0e4, P2=-1.0e5, P3=5.0e4)
    eff = effective_coefficients(
        pf, badawi_coefficients(3.0, 0.5), 0, 7.5, 1.2
    )
    for nu in (0, 1, 10, 40):
        assert energy(pf, eff, nu, 7.5).E == pytest.approx(
            _morse_level(5.0e4, 2.6, 7.5, nu), abs=1.0e-8
        )
    with pytest.raises(ValueError, match="q = 0"):
        susy_intermediates(pf, eff, 7.5)
    morse_params = SpectroscopicParams(
        name="X", De=5.0e4, re=1.2, we=1800.0, mu=7.5, alpha=1.3, eta=0.0
    )
    for nu in (0, 1, 10, 40):
        assert level(morse_params, nu, 0).E == pytest.approx(
            _morse_level(5.0e4, 2.6, 7.5, nu), abs=1.0e-8
        )
    assert level(morse_params, 0, 20).bound


def _near_morse(eta):
    return SpectroscopicParams(
        name="X", De=2.0e4, re=1.0, we=1000.0, mu=5.0, alpha=1.0, eta=eta
    )


def test_near_zero_eta_is_the_morse_limit(db):
    # the textbook bracket T/s - s/4 cancelled to ~2 De eps/|eta|: at
    # eta = 1e-12 it gave 522.05 (~6 cm^-1 off), at 1e-15 -1577.8; the
    # q-free bracket has no such cancellation
    for eta in (0.0, 1.0e-12, -1.0e-12, 1.0e-15, 1.0e-100):
        for nu in (0, 1, 5, 20):
            assert level(_near_morse(eta), nu, 0).E == pytest.approx(
                _morse_level(2.0e4, 2.0, 5.0, nu), abs=1.0e-8
            )
        rows, failures = level_table(_near_morse(eta), [0, 1], [0, 3])
        assert failures == [] and len(rows) == 4 and all(r.bound for r in rows)
        if eta != 0.0:
            pf, eff = _pipeline(_near_morse(eta), 0)
            assert susy_intermediates(pf, eff, 5.0).E0 == pytest.approx(
                _morse_level(2.0e4, 2.0, 5.0, 0), abs=1.0e-8
            )
    # a moderate eta against the closed form in 60-digit arithmetic; the
    # T/s - s/4 bracket was 9.7e-9 cm^-1 off at (0, 0)
    assert level(_near_morse(1.0e-4), 0, 0).E == pytest.approx(
        float("516.027697177141736868662228952"), abs=1.0e-10
    )
    assert level(_near_morse(1.0e-4), 3, 7).E == pytest.approx(
        float("3646.05201492557894913424087359"), abs=1.0e-10
    )
    for name in db.names:
        rows, failures = level_table(db.get(name), list(range(40)), [0, 20, 100])
        assert failures == [] and len(rows) == 120


def test_level_table_at_eta_zero_is_the_morse_spectrum(db):
    # eta = 0 and alpha = beta/2 make b = beta; then we = 2 beta sqrt(De k)
    # and the closed form is the Morse spectrum of (De, we)
    for name in db.names:
        p = db.get(name)
        morse = SpectroscopicParams(
            name=name, De=p.De, re=p.re, we=p.we, mu=p.mu,
            alpha=derive(p).beta / 2.0, eta=0.0,
        )
        nus = [nu for nu in range(200) if nu < 2.0 * p.De / p.we - 0.5]
        rows, failures = level_table(morse, nus, [0])
        assert failures == [] and [row.nu for row in rows] == nus
        for row in rows:
            assert row.E == pytest.approx(
                morse_vibrational_energy(p.De, p.we, row.nu), rel=1.0e-9
            )


def test_morse_energies(db):
    p = db.get("N2")
    assert morse_vibrational_energy(p.De, p.we, 0) == pytest.approx(
        N2_REFERENCE_COLUMNS[0][3], abs=1.0e-2
    )
    assert morse_vibrational_energy(p.De, p.we, 9) == pytest.approx(
        N2_REFERENCE_COLUMNS[9][3], abs=1.0e-2
    )
    # deep-well limit is harmonic
    for nu in range(6):
        assert morse_vibrational_energy(1.0e12, 100.0, nu) == pytest.approx(
            100.0 * (nu + 0.5), rel=1.0e-8
        )


def test_morse_bound_spectrum_cap():
    assert morse_vibrational_energy(1000.0, 1000.0, 1) > 0.0
    with pytest.raises(ValueError, match="bound spectrum"):
        morse_vibrational_energy(1000.0, 1000.0, 2)
    with pytest.raises(ValueError):
        morse_vibrational_energy(0.0, 1000.0, 0)
    with pytest.raises(ValueError):
        morse_vibrational_energy(1000.0, 1000.0, -1)


def test_level_matches_manual_pipeline(db):
    p = db.get("O2")
    pf, eff = _pipeline(p, 10)
    assert level(p, 3, 10) == energy(pf, eff, 3, p.mu)


def test_level_table_order_and_failures(db):
    p = db.get("NO")
    rows, failures = level_table(p, [0, 1], [0, 1300])
    assert [(r.nu, r.J) for r in rows] == [(0, 0), (1, 0)]
    assert [(f.nu, f.J) for f in failures] == [(0, 1300), (1, 1300)]
    assert all("no real solution" in f.error for f in failures)
    assert all(isinstance(r, EnergyLevel) for r in rows)

    rows, failures = level_table(p, [2], [0, 1, 2])
    assert [(r.nu, r.J) for r in rows] == [(2, 0), (2, 1), (2, 2)]
    assert failures == []

    with pytest.raises(ValueError):
        level_table(p, [], [0])
    with pytest.raises(ValueError):
        level_table(p, [0], [])


def test_quantum_number_validation(db):
    p = db.get("NO")
    pf, eff = _pipeline(p, 0)
    with pytest.raises(ValueError):
        energy(pf, eff, -1, p.mu)
    with pytest.raises(ValueError):
        level(p, 0, -2)


# (repr of E, E from the same closed form in 60-digit mpmath arithmetic
# on the same double inputs).  The repr pins the array kernel bit for
# bit; the T/s - s/4 kernel it replaced was up to 7.3e-10 cm^-1 off
PINNED_E = {
    ("NO", 0, 0): ("947.7568475654916", "947.756847565487335258607784033"),
    ("O2", 3, 10): ("5416.478910882026", "5416.47891088203060687687527825"),
    ("O2+", 5, 20): ("10489.717928208134", "10489.7179282081636806570938193"),
    ("N2", 9, 0): ("20877.560480790555", "20877.5604807905506084411912964"),
    ("NO", 40, 150): ("66547.84709538783", "66547.8470953878246859901767951"),
    ("NO", 60, 0): ("53066.14613173171", "53066.1461317317090276492284743"),
    ("N2", 100, 200): ("47441.70058604328", "47441.7005860432400160127618653"),
    # cells where squaring with x * x instead of pow changed the last bit
    # of the T/s - s/4 kernel; of the q-free kernel only (N2, 4, 134)
    ("NO", 1, 80): ("13360.364055660611", "13360.3640556606064264560975732"),
    ("NO", 23, 15): ("35579.67510526927", "35579.6751052692768389356581125"),
    ("NO", 33, 130): ("60566.08937322453", "60566.0893732245364510807813856"),
    ("O2", 6, 64): ("14760.509792601071", "14760.509792601087882724873519"),
    ("O2+", 7, 102): ("28384.87784243792", "28384.8778424379269146845171856"),
    ("N2", 4, 24): ("11410.339695167131", "11410.3396951671137794674104538"),
    ("N2", 4, 134): ("42842.94606055448", "42842.94606055448364213846353"),
    ("N2", 5, 71): ("21939.59201161278", "21939.5920116127256232564597663"),
    # more cells where x * x instead of pow changes the last bit
    ("NO", 4, 11): ("8431.017964726707", "8431.01796472674143421461041192"),
    ("O2", 21, 12): ("26866.071702190653", "26866.071702190656316014601248"),
    ("O2+", 18, 18): ("29732.575958116024", "29732.5759581160213516257533675"),
}


def test_pinned_energies_are_bit_identical(db):
    for (name, nu, J), (want, exact) in PINNED_E.items():
        E = level(db.get(name), nu, J).E
        assert repr(E) == want
        assert abs(E - float(exact)) <= 1.0e-10
        rows, _ = level_table(db.get(name), [nu], [J])
        assert repr(rows[0].E) == want


def test_table_rows_hold_plain_python_values(db):
    rows, failures = level_table(db.get("NO"), [0, 60], [0, 5])
    assert not failures
    for row in rows:
        assert type(row.nu) is int and type(row.J) is int
        assert type(row.E) is float and type(row.bound) is bool
    assert [row.bound for row in rows] == [True, True, False, False]
    json.dumps([row.__dict__ for row in rows])


def test_table_failures_keep_level_messages_and_order(db):
    p = db.get("NO")
    rows, failures = level_table(p, [-1, 0], [-2, 0, 1300])
    assert [(r.nu, r.J) for r in rows] == [(0, 0)]
    assert [(f.nu, f.J) for f in failures] == [
        (-1, -2), (-1, 0), (-1, 1300), (0, -2), (0, 1300)
    ]
    assert failures[0].error == "J must be a non-negative integer, got -2"
    assert failures[1].error == "nu must be a non-negative integer, got -1"
    assert failures[4].error.startswith("no real solution: discriminant -")
    assert failures[4].error.endswith("< 0 at nu=0, J=1300")


def _scalar_energy(params, nu, J):
    """E and bound from the per-level closed form in plain Python floats,
    with the operation order of the array kernel; None where the cell
    fails (R^2 < 0 or q s = 0)."""
    pf, eff = _pipeline(params, J)
    q, kb2 = pf.q, kinetic_factor(params.mu) * pf.b**2
    R2 = q**2 + 4.0 * eff.Pt3 / kb2
    n = 1.0 + 2.0 * nu
    if R2 < 0.0:
        return None
    R = math.sqrt(R2)
    qs = R - q * n
    if qs == 0.0:
        return None
    bracket = (4.0 * eff.Pt2 / kb2 + 2.0 * n * R - q * (1.0 + n**2)) / (4.0 * qs)
    try:
        square = bracket**2
    except OverflowError:  # float ** raises where IEEE pow gives inf
        square = math.inf
    return eff.Pt1 - kb2 * square, bracket < 0.0 and qs > 0.0


physical_params = st.builds(
    SpectroscopicParams,
    name=st.just("X"),
    De=st.floats(2.0e4, 1.2e5),
    re=st.floats(0.9, 1.6),
    we=st.floats(800.0, 3000.0),
    mu=st.floats(5.0, 12.0),
    alpha=st.floats(0.9, 1.8),
    eta=st.floats(-0.1, 0.1) | st.sampled_from([0.0, 1.0e-15, -1.0e-12]),
)


def _cells(rows):
    return [(row.nu, row.J, repr(row.E), row.bound) for row in rows]


@settings(max_examples=60, deadline=None)
@given(
    params=physical_params,
    nu_list=st.lists(st.integers(-1, 150), min_size=1, max_size=8),
    J_list=st.lists(st.integers(-1, 4000), min_size=1, max_size=8),
)
def test_table_equals_level_and_scalar_closed_form(params, nu_list, J_list):
    # J up to 4000 runs past D < 0 for every parameter set drawn here
    rows, failures = level_table(params, nu_list, J_list)
    want_rows, want_failures = [], []
    for nu in nu_list:
        for J in J_list:
            try:
                want_rows.append(level(params, nu, J))
            except ValueError as exc:
                want_failures.append((nu, J, str(exc)))
    assert _cells(rows) == _cells(want_rows)
    assert [(f.nu, f.J, f.error) for f in failures] == want_failures
    for row in rows:
        E, bound = _scalar_energy(params, row.nu, row.J)
        assert repr(row.E) == repr(E) and row.bound == bound
    for nu, J, error in want_failures:
        if min(nu, J) < 0:
            assert "must be a non-negative integer" in error
        else:
            assert "no real solution" in error or "q s = 0" in error
            assert _scalar_energy(params, nu, J) is None


def _manifold(params, J):
    """Bound levels at one J, nu from 0 up past the Morse bound count."""
    top = int(2.0 * params.De / params.we) + 5
    rows, _ = level_table(params, list(range(top)), [J])
    return [row for row in rows if row.bound]


@settings(max_examples=60, deadline=None)
@given(params=physical_params, J=st.integers(0, 300))
def test_bound_levels_rise_in_nu(params, J):
    energies = [row.E for row in _manifold(params, J)]
    assert all(a < b for a, b in zip(energies, energies[1:]))


@settings(max_examples=60, deadline=None)
@given(params=physical_params)
def test_bound_levels_lie_below_dissociation(params):
    # J = 0 only: for J > 0 the bound flag means E below the effective
    # asymptote Pt1 = De + gamma C1, and the top levels exceed De
    for row in _manifold(params, 0):
        assert row.E < params.De
