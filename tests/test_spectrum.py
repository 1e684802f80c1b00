import gc
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib import spectrum
from rovib.potentials import (
    PForm,
    SingularRadiusError,
    SpectroscopicParams,
    derive,
    from_params,
    to_pform,
)
from rovib.database import MAX_B_RE, MAX_MAGNITUDE
from rovib.rotational import (EffectiveCoefficients, badawi_coefficients,
                              centrifugal_strength, effective_coefficients)
from rovib.spectrum import (
    MAX_INDEX,
    MAX_PAIRS,
    MAX_SCALAR_CELLS,
    EnergyLevel,
    LevelFailure,
    SusyIntermediates,
    level,
    level_table,
    log_wavefunction,
    morse_vibrational_energy,
    susy_intermediates,
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
            assert s.E0 == pytest.approx(level(p, 0, J).E, rel=1.0e-10)


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


def test_branch_rule(db):
    # the positive root serves the minus branch (q < 0) and the plus
    # branch (q > 0) alike
    for name, plus in (("NO", False), ("O2", False), ("O2+", True), ("N2", True)):
        p = db.get(name)
        pf, eff = _pipeline(p, 0)
        s = susy_intermediates(pf, eff, p.mu)
        assert (pf.q > 0.0) is plus
        assert s.Q2t > 0.0
        assert s.Q1t < 0.0  # normalizability
        if pf.q > 0.0:
            assert s.Q2t / (pf.b * pf.q) > 0.0


def test_ground_state_wavefunction_fixtures(db):
    p = db.get("NO")
    pf, eff = _pipeline(p, 0)
    s = susy_intermediates(pf, eff, p.mu)
    # ln psi itself: psi(re) = 1.165e-101 sits below approx's default
    # abs=1e-12, which would pass any value that small
    assert log_wavefunction(s, pf, p.re) == pytest.approx(
        -232.40837010283562, rel=1.0e-12
    )
    assert log_wavefunction(s, pf, 20.0 * p.re) == pytest.approx(
        -3519.663883703181, rel=1.0e-9
    )
    # deep inside the repulsive wall the amplitude underflows but the
    # sample stays finite
    assert math.isfinite(math.exp(log_wavefunction(s, pf, 1.0e-4)))


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


@pytest.mark.parametrize("J", [0, 20, 50])
def test_ground_state_solves_the_radial_equation(db, J):
    # psi0 = e^L with L = log_wavefunction solves -k psi'' + U_eff psi =
    # E0 psi, i.e. -k (L'' + L'^2) + U_eff - E0 = 0, with U_eff = Pt1 +
    # Pt2/y + Pt3/y^2, y = e^{br} + q; L' and L'' by central differences
    # (step h: truncation about 6e-4 cm^-1, rounding below it)
    h = 5.0e-5
    for name in db.names:
        p = db.get(name)
        pf, eff = _pipeline(p, J)
        s = susy_intermediates(pf, eff, p.mu)
        assert s.E0 == pytest.approx(level(p, 0, J).E, rel=1.0e-13)
        k = kinetic_factor(p.mu)
        for i in range(15):
            r = p.re * (0.8 + 0.05 * i)  # 0.8 re .. 1.5 re
            lo, mid, hi = (log_wavefunction(s, pf, r + m * h) for m in (-1, 0, 1))
            d1, d2 = (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h**2
            y = math.exp(pf.b * r) + pf.q
            U = eff.Pt1 + eff.Pt2 / y + eff.Pt3 / y**2
            assert abs(-k * (d2 + d1**2) + U - s.E0) < 2.0e-3, (name, r)


def test_wavefunction_domain():
    dummy = SusyIntermediates(Q1t=-1.0, Q2t=1.0, E0=0.0)
    pf = PForm(b=2.6, q=-20.36, P1=5.0e4, P2=-1.0e5, P3=5.0e4)
    with pytest.raises(ValueError):
        log_wavefunction(dummy, pf, 0.0)
    with pytest.raises(ValueError):
        log_wavefunction(dummy, pf, -1.0)
    # inside the pole radius the log argument drops below -1
    with pytest.raises(SingularRadiusError):
        log_wavefunction(dummy, pf, 0.5)


def test_energies_increase_in_nu_and_j(db):
    for name in db.names:
        p = db.get(name)
        for J in (0, 10, 30):
            levels, failures = level_table(p, list(range(21)), [J])
            assert failures == [] and all(lev.bound for lev in levels)
            assert all(b.E > a.E for a, b in zip(levels, levels[1:]))
        for nu in (0, 5):
            levels = [level(p, nu, J) for J in range(31)]
            assert all(b.E > a.E for a, b in zip(levels, levels[1:]))


def test_bound_flag_flips_past_monotone_range(db):
    p = db.get("NO")
    levels, failures = level_table(p, list(range(80)), [0])
    assert failures == []
    flags = [lev.bound for lev in levels]
    flip = flags.index(False)
    assert flip == 56
    assert all(flags[:flip])
    # energies never exceed the dissociation plateau, Pt1 = De at J = 0
    assert all(lev.E <= p.De for lev in levels)


def test_high_j_has_no_real_solution(db):
    p = db.get("NO")
    with pytest.raises(ValueError, match="discriminant"):
        level(p, 0, 1300)
    pf, eff = _pipeline(p, 1300)
    with pytest.raises(ValueError, match="radicand"):
        susy_intermediates(pf, eff, p.mu)


def _morse_level(De, b, mu, nu):
    """De - k b^2 (sqrt(De/k)/b - (nu + 1/2))^2, the q = 0 closed form."""
    k = kinetic_factor(mu)
    return De - k * b**2 * (math.sqrt(De / k) / b - (nu + 0.5)) ** 2


def test_morse_limit_is_the_morse_level():
    # eta = 0 makes q = 0 exactly: the closed form is the Morse level,
    # to rounding
    morse_params = SpectroscopicParams(
        name="X", De=5.0e4, re=1.2, we=1800.0, mu=7.5, alpha=1.3, eta=0.0
    )
    pf, eff = _pipeline(morse_params, 0)
    assert pf.q == 0.0
    with pytest.raises(ValueError, match="q = 0"):
        susy_intermediates(pf, eff, 7.5)
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
    # the layers called by hand, then the closed form in plain floats
    p = db.get("O2")
    lev = level(p, 3, 10)
    E, bound = _scalar_energy(p, 3, 10)
    assert repr(lev.E) == repr(E) and lev.bound == bound


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
    with pytest.raises(ValueError, match="nu must be"):
        level(p, -1, 0)
    with pytest.raises(ValueError, match="J must be"):
        level(p, 0, -2)
    # a huge negative index gets the bound's text, without its 401 digits
    with pytest.raises(ValueError, match=r"^nu must be a non-negative integer at most 2\*\*53$"):
        level(p, -(10**400), 0)


@pytest.mark.parametrize("nu, J", [(0, -2), (-1, 0), (0, 1300)])
def test_level_raises_the_level_table_failure(db, nu, J):
    p = db.get("NO")
    (failure,) = level_table(p, [nu], [J])[1]
    with pytest.raises(ValueError) as info:
        level(p, nu, J)
    assert str(info.value) == failure.error


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
    json.dumps([row._asdict() for row in rows])


def test_table_rows_skip_failed_cells_in_row_major_order(db):
    p = db.get("NO")
    nu_list, J_list = [0, -1, 3, 0], [0, -2, 5, 1300, 5]
    rows, failures = level_table(p, nu_list, J_list)
    assert [(r.nu, r.J) for r in rows] == [
        (0, 0), (0, 5), (0, 5), (3, 0), (3, 5), (3, 5), (0, 0), (0, 5), (0, 5)
    ]
    assert len(rows) + len(failures) == len(nu_list) * len(J_list)
    for row in rows:
        assert isinstance(row, EnergyLevel)
        assert row == level(p, row.nu, row.J)
    with pytest.raises(AttributeError):
        rows[0].E = 0.0


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_indices_fail_like_any_bad_index(db, bad):
    # int(nan) and int(inf) used to raise before the index was checked
    from rovib.oracle import converge

    want = [f"nu must be a non-negative integer, got {bad}",
            f"J must be a non-negative integer, got {bad}"]
    for p in (db.get("NO"), _near_morse(0.0)):  # at q = 0, q * inf is nan
        for n in (2, MAX_SCALAR_CELLS):  # the scalar kernel, then the array one
            rows, failures = level_table(p, [bad, *range(n)], [0, bad])
            assert [(row.nu, row.J) for row in rows] == [(i, 0) for i in range(n)]
            assert {f.error for f in failures} == set(want)
        model = from_params(p)
        for call, error in (
            (lambda: level(p, bad, 0), want[0]),
            (lambda: level(p, 0, bad), want[1]),
            (lambda: morse_vibrational_energy(p.De, p.we, bad), want[0]),
            (lambda: converge(model, 0, p.mu, bad), want[0]),
            (lambda: converge(model, bad, p.mu, 0), want[1]),
        ):
            with pytest.raises(ValueError, match=error):
                call()


@pytest.mark.parametrize("index", [2**53, 2**53 + 1, 3.7e153, 1.0e200, 10**400],
                         ids=["2**53", "2**53+1", "3.7e153", "1e200", "10**400"])
def test_every_entry_point_takes_indices_up_to_2_53(db, index):
    # past MAX_INDEX = 2**53 an index fails like any bad index, with one
    # text that does not print its digits; up to it nothing overflows
    from rovib.oracle import ResolutionError, converge, deviation_report

    def error(call):
        try:
            call()
        except (ValueError, ResolutionError) as exc:
            return str(exc)
        return None

    beyond = index > MAX_INDEX
    want = {label: f"{label} must be a non-negative integer at most 2**53"
            for label in ("nu", "J")}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in (db.get("NO"), _near_morse(0.0)):  # at q = 0, q * n^2 is 0
            model = from_params(p)
            small = level_table(p, [index, 0], [0, index])
            # the array kernel, on the same four cells plus nu = 1..255
            rows, failures = level_table(p, [index, 0, *range(1, MAX_SCALAR_CELLS)],
                                         [0, index])
            assert repr(small) == repr(([r for r in rows if r.nu in (0, index)],
                                        [f for f in failures if f.nu in (0, index)]))
            texts = [(f.nu, f.J, f.error) for f in small[1]]
            if beyond:
                assert texts == [(index, 0, want["nu"]), (index, index, want["J"]),
                                 (0, index, want["J"])]
                assert small[0] == level_table(p, [0], [0])[0]
            else:
                assert not any("must be a non-negative integer" in t for *_, t in texts)
            for label, call in (
                ("nu", lambda: level(p, index, 0)),
                ("J", lambda: level(p, 0, index)),
                ("nu", lambda: morse_vibrational_energy(p.De, p.we, index)),
                ("nu", lambda: converge(model, 0, p.mu, index)),
                ("J", lambda: converge(model, index, p.mu, 0)),
                ("J", lambda: centrifugal_strength(index, p.mu, p.re)),
            ):
                text = error(call)
                if beyond:
                    assert text == want[label]
                else:
                    assert text is None or "must be a non-negative integer" not in text
            for nu_list, J_list, label in (([index], [0], "nu"), ([0], [index], "J")):
                report = deviation_report(p, nu_list, J_list, n_points=64)
                texts = [f.error for f in report.failures]
                if beyond:
                    assert texts == [want[label]]
                else:
                    assert not any("must be a non-negative integer" in t for t in texts)


def test_indices_beyond_float_range_fail_like_any_bad_index(db):
    # float(10**400) raises OverflowError, which used to escape both kernels;
    # such an index is past MAX_INDEX and fails with the bound's text
    huge = 10**400
    want = {"nu must be a non-negative integer at most 2**53",
            "J must be a non-negative integer at most 2**53"}
    for p in (db.get("NO"), _near_morse(0.0)):
        for n in (2, MAX_SCALAR_CELLS):  # the scalar kernel, then the array one
            rows, failures = level_table(p, [huge, *range(n)], [0, huge])
            assert rows == level_table(p, list(range(n)), [0])[0]
            assert [(f.nu, f.J) for f in failures] == [
                (huge, 0), (huge, huge), *((i, huge) for i in range(n))]
            assert {f.error for f in failures} == want
        with pytest.raises(ValueError, match=r"^nu must be .* at most 2\*\*53$"):
            level(p, huge, 0)
        with pytest.raises(ValueError, match=r"^J must be .* at most 2\*\*53$"):
            level(p, 0, huge)
        with pytest.raises(ValueError, match=r"^nu must be .* at most 2\*\*53$"):
            morse_vibrational_energy(p.De, p.we, huge)


@pytest.mark.parametrize("J", [10**200, 1.0e200, 10**155])
def test_a_J_whose_centrifugal_term_overflows_fails_as_beyond_range(db, J):
    # J(J+1) hbar^2/(2 mu re^2) past float range used to fail as "no real
    # solution: discriminant -inf" with every digit of J, or give a nan row;
    # such a J is past MAX_INDEX and fails on every molecule, in both
    # kernels, without a warning and without touching the other cells
    want = "J must be a non-negative integer at most 2**53"
    for name in db.names:
        p = db.get(name)
        assert level_table(p, [0], [J]) == ([], [LevelFailure(0, J, want)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, failures = level_table(p, list(range(150)), [0, J])  # 300 cells
        assert rows == level_table(p, list(range(150)), [0])[0]
        assert failures == [LevelFailure(nu, J, want) for nu in range(150)]
        with pytest.raises(ValueError, match=r"^J must be .* at most 2\*\*53$"):
            level(p, 0, J)


@pytest.mark.parametrize("nu", [10**200, 1.0e200, 10**160, 6.6e153, 3.7e153])
def test_a_nu_whose_square_overflows_fails_as_beyond_range(db, nu):
    # (1 + 2 nu)^2, or q or k b^2 times it, past float range gave every
    # level of the nu at E = -inf (NO from nu = 6.6e153, eta = 0 from
    # 3.7e153); such a nu is past MAX_INDEX and fails like any bad index
    want = "nu must be a non-negative integer at most 2**53"
    for p in [*map(db.get, db.names), _near_morse(0.0), _near_morse(-0.05)]:
        assert level_table(p, [nu], [0]) == ([], [LevelFailure(nu, 0, want)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, failures = level_table(p, [0, nu], list(range(150)))  # 300 cells
        assert rows == level_table(p, [0], list(range(150)))[0]
        assert failures == [LevelFailure(nu, J, want) for J in range(150)]
        with pytest.raises(ValueError, match=r"^nu must be .* at most 2\*\*53$"):
            level(p, nu, 0)


_MAGNITUDE = st.floats(1.0 / MAX_MAGNITUDE, MAX_MAGNITUDE) | st.sampled_from(
    [1.0 / MAX_MAGNITUDE, MAX_MAGNITUDE])


@st.composite
def records_at_the_bounds(draw):
    """SpectroscopicParams anywhere its checks allow, edges included."""
    re = draw(_MAGNITUDE)
    cap = MAX_B_RE / (2.0 * re)  # 2 alpha re at most MAX_B_RE
    if 2.0 * cap * re > MAX_B_RE:
        cap = math.nextafter(cap, 0.0)
    return SpectroscopicParams(
        name="X", De=draw(_MAGNITUDE), re=re, we=draw(_MAGNITUDE), mu=draw(_MAGNITUDE),
        alpha=min(draw(_MAGNITUDE), cap),
        eta=draw(st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE).filter(lambda x: x != 1.0)
                 | st.sampled_from([-MAX_MAGNITUDE, MAX_MAGNITUDE, 0.0, 1.0 - 1.0e-16])),
    )


_INDICES = st.lists(st.integers(0, MAX_INDEX) | st.sampled_from([MAX_INDEX, 0]),
                    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(params=records_at_the_bounds(), nu_list=_INDICES, J_list=_INDICES)
def test_no_record_overflows_at_indices_up_to_2_53(params, nu_list, J_list):
    # both kernels, under RuntimeWarning as an error: a cell is a finite
    # row or fails for a reason of the closed form, never of float range
    # but _E_BEYOND, which nobody has shown cannot happen
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows, failures = level_table(params, nu_list, J_list)
        copies = MAX_SCALAR_CELLS // (len(nu_list) * len(J_list)) + 1
        wide = level_table(params, nu_list * copies, J_list)  # the array kernel
    assert repr(wide) == repr((rows * copies, failures * copies))
    assert all(math.isfinite(row.E) for row in rows)
    for f in failures:
        assert ("no real solution" in f.error or "q s = 0" in f.error
                or f.error == spectrum._E_BEYOND), f


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
    beta_table=st.none(),
)


def _cells(rows):
    return [(row.nu, row.J, repr(row.E), row.bound) for row in rows]


@settings(max_examples=60, deadline=None)
@given(
    params=physical_params,
    nu_list=st.lists(st.integers(-1, 150), min_size=1, max_size=8),
    J_list=st.lists(st.integers(-1, 4000), min_size=1, max_size=8),
    wide=st.booleans(),
)
def test_table_equals_level_and_scalar_closed_form(params, nu_list, J_list, wide):
    # J up to 4000 runs past D < 0 for every parameter set drawn here.  A
    # wide grid repeats nu_list past MAX_SCALAR_CELLS, so the table comes
    # from the array kernel while level() stays on the scalar one
    if wide:
        nu_list = nu_list * (MAX_SCALAR_CELLS // (len(nu_list) * len(J_list)) + 1)
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


def _both_kernels(monkeypatch, params, nu_list, J_list):
    """level_table's rows and failures as repr, from the scalar kernel and
    then from the array kernel."""
    out = []
    for cutoff in (len(nu_list) * len(J_list), 0):
        monkeypatch.setattr(spectrum, "MAX_SCALAR_CELLS", cutoff)
        out.append(tuple(map(repr, level_table(params, nu_list, J_list))))
    return out


def test_kernels_agree_bit_for_bit_on_the_bundled_molecules(db, monkeypatch):
    # nu past the bound range, J past R^2 < 0 (but for N2), bad indices;
    # every 7th J of 0..4000 keeps the test near 2 s
    errors = set()
    for name in db.names:
        p = db.get(name)
        nu_list = list(range(-1, int(2.0 * p.De / p.we) + 11))
        J_list = [*range(0, 4001, 7), 4000, 1.5]
        scalar, array = _both_kernels(monkeypatch, p, nu_list, J_list)
        assert scalar == array
        rows, failures = level_table(p, nu_list, J_list)
        assert not all(row.bound for row in rows)
        errors |= {(name, f.error.split(":")[0].split(" must")[0]) for f in failures}
    assert errors == {(name, kind) for name in db.names for kind in ("J", "nu")} | {
        (name, "no real solution") for name in ("NO", "O2", "O2+")}


def test_level_table_bounds_its_request(db, monkeypatch):
    # 501 x 501 cells, each list far below the cap, are refused before
    # the per-molecule steps run
    def not_called(*args):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr(spectrum, "derive", not_called)
    nu_list = J_list = list(range(501))
    with pytest.raises(ValueError, match=f"asks for 251001 levels; the limit is {MAX_PAIRS}"):
        level_table(db.get("NO"), nu_list, J_list)


@pytest.mark.parametrize("kb2, Pt2, Pt3, error", [
    # R = 1 + 2^-52, so q s = R - q n = 2.2e-16 at nu = 0: bracket^2 overflows
    (1.0, 2.5e199, ((1.0 + 2.0**-52) ** 2 - 1.0) / 4.0, spectrum._E_BEYOND),
    # R = 2, q s = 1: bracket = 1.2e154 and bracket^2 are finite, 2 bracket^2 not
    (2.0, 2.4e154, 1.5, spectrum._E_BEYOND),
    # R = 1, so q s = 0: a division by zero in both kernels
    (1.0, 1.0, 0.0, "degenerate quantum-number shift q s = 0 at nu=0, J=0"),
], ids=["bracket^2", "kb2 bracket^2", "q s = 0"])
def test_both_kernels_fail_a_cell_without_a_finite_E(kb2, Pt2, Pt3, error):
    import numpy as np

    eff = EffectiveCoefficients(Pt1=0.0, Pt2=Pt2, Pt3=Pt3)
    grid = (1.0, kb2, [0], [0])  # q, k b^2, nu_list, J_list
    indices = ([1.0], [None], [None])  # n = 1 + 2 nu, no index errors
    want = ([], [LevelFailure(0, 0, error)])
    assert spectrum._scalar_table(*grid, [eff], *indices) == want
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        arrays = EffectiveCoefficients(*(np.array([x]) for x in eff))
        assert spectrum._table(*grid, arrays, *indices) == want


def test_grid_size_picks_the_kernel(db, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[2]) * len(args[3]))
        return table(*args)

    table = spectrum._table
    monkeypatch.setattr(spectrum, "_table", counted)
    p = db.get("NO")
    level_table(p, list(range(MAX_SCALAR_CELLS)), [0])
    level_table(p, [0, 1], list(range(MAX_SCALAR_CELLS // 2)))
    level(p, 3, 10)
    assert calls == []
    level_table(p, list(range(MAX_SCALAR_CELLS + 1)), [0])
    level_table(p, [0, 1], list(range(MAX_SCALAR_CELLS // 2 + 1)))
    assert calls == [MAX_SCALAR_CELLS + 1, MAX_SCALAR_CELLS + 2]


N2_MANIFOLD = list(range(68)), list(range(201))  # nu to the bound count, J 0..200


def test_collector_stays_out_of_the_row_build(db):
    # EnergyLevel rows are a tuple subclass, which CPython never untracks:
    # unpaused, each N2 manifold (13,668 rows) started up to 19 collections
    p = db.get("N2")
    starts, per_call = [], []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    level_table(p, *N2_MANIFOLD)  # imports numpy if no test has yet
    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        gc.collect()
        for _ in range(20):
            before = len(starts)
            level_table(p, *N2_MANIFOLD)
            per_call.append(len(starts) - before)
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    assert max(per_call) <= 1, per_call


@pytest.mark.parametrize("enabled", [True, False])
def test_table_restores_the_collector_state(db, monkeypatch, enabled):
    p = db.get("N2")
    seen = []

    def fail(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("row build failed")

    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        rows, failures = level_table(p, *N2_MANIFOLD)
        assert (len(rows), failures) == (68 * 201, [])
        assert gc.isenabled() is enabled
        monkeypatch.setattr(spectrum, "compress", fail)
        with pytest.raises(RuntimeError, match="row build failed"):
            level_table(p, *N2_MANIFOLD)
        assert seen == [False]  # paused inside the window
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


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
