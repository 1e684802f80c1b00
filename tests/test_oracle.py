import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rovib import oracle
from rovib.database import load_database
from rovib.oracle import (
    DVR_TOL_CM1,
    MAX_BASIS,
    ConvergeResult,
    DeviationRow,
    ResolutionError,
    converge,
    deviation_report,
    dvr_eigenvalues,
)
from rovib.potentials import (MAX_ORACLE_POINTS, SpectroscopicParams, TietzHua, derive,
                              evaluate, from_params, pole_radius)
from rovib.rotational import badawi_coefficients
from rovib.spectrum import level_table
from rovib.units import kinetic_factor

from test_spectrum import physical_params

MU = 8.0
MORSE = TietzHua(De=42041.0, re=1.207, b=2.6636, eta=0.0)  # eta = 0: Morse


@pytest.fixture
def bases(monkeypatch):
    """The size of every sinc-DVR basis the oracle builds, one per matrix
    of each stack, in order."""
    sizes = []

    def counted(r, v, k):
        sizes.extend([r.shape[-1]] * (r.size // r.shape[-1]))
        return dvr_eigenvalues(r, v, k)

    monkeypatch.setattr(oracle, "dvr_eigenvalues", counted)
    return sizes


@pytest.fixture
def stacks(monkeypatch):
    """The shape of r, (matrices, basis), in every eigensolve call the
    oracle makes, in order."""
    shapes = []

    def counted(r, v, k):
        shapes.append(r.shape)
        return dvr_eigenvalues(r, v, k)

    monkeypatch.setattr(oracle, "dvr_eigenvalues", counted)
    return shapes


@pytest.fixture
def groups(monkeypatch):
    """The J values of every group deviation_report solves in one basis,
    in order."""
    found = []
    grouped = oracle._groups

    def counted(*args):
        out = grouped(*args)
        found.extend(Js for Js, _ in out)
        return out

    monkeypatch.setattr(oracle, "_groups", counted)
    return found


@pytest.fixture
def lapack(monkeypatch):
    """The matrix shape of every numpy eigensolve, as ("eigvalsh" or
    "eigh", shape), in order."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a.shape))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def morse_exact(nu):
    we = 2.0 * MORSE.b * math.sqrt(MORSE.De * kinetic_factor(MU))
    x = nu + 0.5
    return we * x - we**2 * x**2 / (4.0 * MORSE.De)


def test_dvr_eigenvalues_of_a_harmonic_oscillator():
    mu, Ke, r0 = 7.5, 1.0e5, 2.0
    k = kinetic_factor(mu)
    we = math.sqrt(2.0 * k * Ke)
    r = np.linspace(0.5, 3.5, 100)
    E = dvr_eigenvalues(r, 0.5 * Ke * (r - r0) ** 2, k)
    for nu in range(4):
        assert E[nu] == pytest.approx(we * (nu + 0.5), rel=1.0e-4)


@pytest.mark.parametrize("n", [2, 3, 35, 434])
def test_dvr_eigenvalues_use_the_outer_product_hamiltonian(n):
    # the Toeplitz layout of the kinetic matrix against the element-wise
    # Colbert-Miller formula, bit for bit
    r = np.linspace(0.6, 4.0, n)
    v = np.random.default_rng(n).normal(scale=1.0e4, size=n)
    k = kinetic_factor(MU)
    t = k / ((r[-1] - r[0]) / (n - 1)) ** 2
    d = np.subtract.outer(np.arange(n), np.arange(n))
    h = 2.0 * (-1.0) ** d / np.maximum(d * d, 1) * t
    h[np.diag_indices(n)] = math.pi**2 / 3.0 * t + v
    assert np.array_equal(dvr_eigenvalues(r, v, k), np.linalg.eigvalsh(h))


def test_dvr_eigenvalues_solves_a_stack_row_by_row():
    # a stack of problems of one size gives each row's eigenvalues bit
    # for bit as the problem solved alone
    k = kinetic_factor(MU)
    rng = np.random.default_rng(7)
    r = np.linspace([0.5, 0.7, 0.9], [2.5, 3.1, 4.0], 40, axis=-1)
    v = rng.normal(scale=1.0e4, size=r.shape)
    E = dvr_eigenvalues(r, v, k)
    assert E.shape == (3, 40)
    for i in range(3):
        assert np.array_equal(E[i], dvr_eigenvalues(r[i], v[i], k))


def test_converge_argument_validation():
    for J, nu, n_points, error in (
        (-1, 0, 100, "J must be a non-negative integer, got -1"),
        (0, -1, 100, "nu must be a non-negative integer, got -1"),
        (0, 0, 3, "need a whole n_points >= 4"),
    ):
        with pytest.raises(ValueError, match=error):
            converge(MORSE, J, MU, nu, n_points=n_points)
    # an index far below zero is named without its 400 digits
    for J, nu in ((0, -(10**400)), (-(10**400), 0)):
        with pytest.raises(ValueError, match=r"must be a non-negative integer at most "
                                             r"2\*\*53$") as info:
            converge(MORSE, J, MU, nu)
        assert not re.search(r"\d{3}", str(info.value))


@pytest.mark.parametrize("model, mu, error", [
    (MORSE, math.nan, "reduced mass must be positive and finite"),
    (MORSE, math.inf, "reduced mass must be positive and finite"),
    (MORSE._replace(De=math.nan), MU, "need finite model fields"),
    (MORSE._replace(b=0.0), MU, "De, re and b positive"),
    (MORSE._replace(re=-1.2), MU, "De, re and b positive"),
    (MORSE._replace(eta=1.0), MU, "eta != 1"),
], ids=["mu nan", "mu inf", "De nan", "b zero", "re negative", "eta one"])
def test_converge_rejects_a_bad_model_or_mass_before_the_scan(bases, model, mu, error):
    # a ValueError naming the field, not an IndexError, ZeroDivisionError
    # or ResolutionError from the scan
    with pytest.raises(ValueError, match=error):
        converge(model, 0, mu, 0)
    assert bases == []


@pytest.mark.parametrize("n_points", [math.nan, math.inf, 100.5])
def test_a_budget_that_is_not_a_whole_number_fails_before_any_solve(db, bases, n_points):
    # min(nan, MAX_BASIS) is nan, which fails every budget comparison: O2
    # nu = 54 then asked for a 3244-function basis and kept doubling
    p = db.get("O2")
    with pytest.raises(ValueError, match="a whole n_points >= 4"):
        deviation_report(p, [54], [0], n_points=n_points)
    with pytest.raises(ValueError, match="a whole n_points >= 4"):
        converge(from_params(p), 0, p.mu, 54, n_points=n_points)
    assert bases == []


def test_a_whole_float_budget_is_the_integer_budget(db):
    p = db.get("O2")
    assert deviation_report(p, [0, 3], [0], n_points=100.0) == \
        deviation_report(p, [0, 3], [0], n_points=100)
    assert converge(from_params(p), 0, p.mu, 0, n_points=100.0) == \
        converge(from_params(p), 0, p.mu, 0, n_points=100)


def test_converge_rejects_non_integer_indices():
    # the wording of level_table's failure for the same index
    for J, nu, error in ((0, 2.5, "nu must be a non-negative integer, got 2.5"),
                         (1.5, 0, "J must be a non-negative integer, got 1.5")):
        with pytest.raises(ValueError, match=error):
            converge(MORSE, J, MU, nu)
    # an integral float is its integer, as level_table takes it
    assert converge(MORSE, 2.0, MU, 1.0) == converge(MORSE, 2, MU, 1)


def test_morse_eigenvalues_match_analytic():
    for nu in range(10):
        assert abs(converge(MORSE, 0, MU, nu).extrapolated - morse_exact(nu)) <= 0.02


def test_converge_against_published_benchmark(db):
    # hardest bundled case; the published numeric benchmark is
    # 10614.632, reproduced to better than the 0.05 acceptance band
    p = db.get("NO")
    result = converge(from_params(p), 20, p.mu, 5)
    assert isinstance(result, ConvergeResult)
    assert (result.nu, result.J) == (5, 20)
    assert result.extrapolated == pytest.approx(10614.632, abs=0.05)
    assert result.difference < 0.01
    assert result.n_points_fine <= MAX_BASIS


@pytest.mark.parametrize("name", ["NO", "O2", "O2+", "N2"])
def test_converge_equals_deviation_report(db, name):
    p = db.get(name)
    result = converge(from_params(p), 20, p.mu, 5)
    (row,) = deviation_report(p, [5], [20]).rows
    assert abs(result.extrapolated - row.E_oracle) <= DVR_TOL_CM1
    assert result.difference <= DVR_TOL_CM1


@pytest.mark.parametrize("J", [0, 20, 100])
@pytest.mark.parametrize("name", ["NO", "O2", "O2+", "N2"])
def test_converge_equals_deviation_report_over_a_grid(db, name, J):
    p = db.get(name)
    model = from_params(p)
    for nu in (0, 10, 20, 30):
        (row,) = deviation_report(p, [nu], [J]).rows
        E = converge(model, J, p.mu, nu).extrapolated
        assert abs(E - row.E_oracle) <= 2 * DVR_TOL_CM1, (nu, E, row.E_oracle)


def test_converge_builds_no_basis_beyond_its_last_pair(db, bases):
    # the box energy comes from a WKB phase integral over the scan, so no
    # larger solve (434 basis functions over the whole range, for NO)
    # precedes the N = 35 -> 70 refinement
    p = db.get("NO")
    result = converge(from_params(p), 20, p.mu, 5)
    assert result.n_points_fine == 70 and max(bases) == 70
    assert result.extrapolated == pytest.approx(10614.589785694576, abs=1.0e-9)


def test_a_level_above_the_well_fails_before_any_basis(db, bases):
    # NO J = 0 counts 55.92 by WKB at the well's top: nu = 60 lies more
    # than half a level above it, so nothing is solved
    p = db.get("NO")
    with pytest.raises(ResolutionError,
                       match=r"nu above the well: its WKB count at the top is 55\.92"):
        converge(from_params(p), 0, p.mu, 60)
    assert bases == []
    # N2 J = 20 counts 64.54, so nu = 64 is within half a level and converges
    p = db.get("N2")
    result = converge(from_params(p), 20, p.mu, 64)
    assert result.extrapolated == pytest.approx(79903.879, abs=1.0e-3)


def test_not_converged_names_the_largest_basis_built(db, bases):
    # O2 J = 0 nu = 54 doubles to 811 -> 1622, as 3244 exceeds a budget
    # of 2047, then tries the last pair that fits, 1023 -> 2046: the
    # message names 2046, not the budget
    p = db.get("O2")
    with pytest.raises(ResolutionError, match="not converged") as info:
        converge(from_params(p), 0, p.mu, 54, n_points=2047)
    assert bases[1:] == [811, 1622, 1023, 2046]
    assert "within 2046 basis functions" in str(info.value)


def test_the_last_pair_that_fits_the_budget_is_tried(db, bases):
    # NO J = 0 nu = 4 within 100 basis functions doubles to 31 -> 62, as
    # 124 exceeds the budget, and misses there by 1.68e-6 cm^-1; the last
    # pair that fits, 50 -> 100, converges it to the default budget's level
    p = db.get("NO")
    model = from_params(p)
    small = converge(model, 0, p.mu, 4, n_points=100)
    assert bases[1:] == [31, 62, 50, 100]
    assert small.n_points_fine == 100 and small.difference <= DVR_TOL_CM1
    assert abs(small.extrapolated - converge(model, 0, p.mu, 4).extrapolated) <= 1.0e-6
    # a level converged at an earlier pair keeps it: nu = 0 at 26 -> 52
    report = deviation_report(p, [0, 3], [0], n_points=100)
    assert [(row.nu, row.basis) for row in report.rows] == [(0, 52), (3, 100)]
    assert report.failures == []


def test_converge_reports_unresolvable_grid(db):
    p = db.get("NO")
    with pytest.raises(ResolutionError, match="not converged"):
        converge(from_params(p), 0, p.mu, 5, n_points=20)


def test_a_level_above_the_basis_names_that_cause(db):
    # NO nu = 30 needs more than 20 basis functions just to exist: both
    # converge and deviation_report say so instead of printing an
    # N -> 2N difference of nan
    p = db.get("NO")
    above = "nu at or above the sinc DVR basis size within 20 basis functions"
    with pytest.raises(ResolutionError, match=above) as info:
        converge(from_params(p), 0, p.mu, 30, n_points=20)
    assert "nan" not in str(info.value)
    report = deviation_report(p, [0, 30], [0], n_points=20)
    assert [(f.nu, f.J) for f in report.failures][-1] == (30, 0)
    assert above in report.failures[-1].error
    assert not any("nan" in f.error for f in report.failures)


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


def test_deviation_report_keeps_unsorted_and_repeated_indices_in_order(db):
    report = deviation_report(db.get("NO"), [3, 0], [5, 0, 5], n_points=2000)
    assert [(r.nu, r.J) for r in report.rows] == [
        (3, 5), (3, 0), (3, 5), (0, 5), (0, 0), (0, 5)
    ]
    assert report.failures == []
    assert report.rows[0] == report.rows[2] and report.rows[3] == report.rows[5]
    assert list(report.max_abs_delta_by_J) == [5, 0]


# deviation_report(p, [0, 3, 5], [0], n_points=16384), the grid behind
# perfbench's max_oracle_err_cm1, and converge(p, J=20, nu=5), as rovib
# gave them before J values shared a basis: a J solved alone keeps its
# arithmetic bit for bit
PINNED_SINGLE_J = {
    "NO": ([(0, 0, 947.7568475654916, 947.7568475654828, 8.86757334228605e-12,
             2.114575181622058e-11, 70),
            (3, 0, 6453.240001673716, 6453.240001673698, 1.7280399333685637e-11,
             2.180058800149709e-09, 70),
            (5, 0, 9951.693763972617, 9951.693763972638, -2.1827872842550278e-11,
             2.3354550648946315e-07, 70)],
           (5, 20, 10614.589785694576, 2.8496106097009033e-07, 70)),
    "O2": ([(0, 0, 775.0895816463817, 775.0895816464076, -2.5920599000528455e-11,
             1.5006662579253316e-11, 70),
            (3, 0, 5269.673272166976, 5269.673272166986, -1.000444171950221e-11,
             2.72393663180992e-09, 70),
            (5, 0, 8118.516884680379, 8118.516884680392, -1.2732925824820995e-11,
             2.7468649932416156e-07, 70)],
           (5, 20, 8663.441893500474, 3.42823113896884e-07, 70)),
    "O2+": ([(0, 0, 934.6139026355086, 934.6139026355037, 4.888534022029489e-12,
              7.389644451905042e-12, 70),
             (3, 0, 6376.61493774649, 6376.6149377465335, -4.3655745685100555e-11,
              2.1191226551309228e-10, 70),
             (5, 0, 9846.089891560761, 9846.089891560785, -2.3646862246096134e-11,
              7.087146514095366e-08, 70)],
            (5, 20, 10489.094923888857, 8.389542927034199e-08, 70)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SINGLE_J))
def test_the_single_J_path_is_pinned(db, name):
    p = db.get(name)
    rows, level = PINNED_SINGLE_J[name]
    report = deviation_report(p, [0, 3, 5], [0], n_points=16384)
    assert report.failures == []
    assert [tuple(row) for row in report.rows] == rows
    assert tuple(converge(from_params(p), J=20, mu=p.mu, nu=5)) == level


# the refinement's |E_N - E_2N| does not see the eigensolver's rounding:
# refined on boxes of 440 and 448 functions, N2's nu = 1, J = 0 level
# moves 5.4e-10 cm^-1 more than both estimates summed, and an estimate
# can read 0.0
ROUNDING_CM1 = 2.0e-9


def _agree_as_one_J(cell, alone, shared):
    """A cell of a multi-J report against the same cell of the report at
    its J alone: equal, or, for a J that shared a basis, a row within
    1e-8 cm^-1 and within the two rows' oracle_err summed, plus the
    eigensolver's rounding."""
    if cell == alone:
        return
    assert cell.J in shared and isinstance(cell, DeviationRow), (cell, alone)
    assert isinstance(alone, DeviationRow), (cell, alone)
    assert cell[:3] == alone[:3]
    diff = abs(cell.E_oracle - alone.E_oracle)
    assert diff <= 1.0e-8, (cell, alone)
    assert diff <= cell.oracle_err + alone.oracle_err + ROUNDING_CM1, (cell, alone)


@pytest.mark.parametrize("n_points", [20, 100, 2048])
@pytest.mark.parametrize("name", ["NO", "O2", "O2+", "N2"])
def test_deviation_report_equals_its_one_J_reports(db, stacks, groups, name, n_points):
    # the J values of a report refine together, in stacks of mixed boxes;
    # a J that shares no basis keeps, bit for bit, the cell of a report at
    # that J alone, and one that shares it agrees within both oracle_err.
    # At the full budget J = 0, 20, 40 and 60 share J = 0's basis (2N =
    # 150 to 156) and J = 150 refines alone
    p = db.get(name)
    nus, Js = [12, 0, 4], [150, 0, 20, 0, 60, 40]
    report = deviation_report(p, nus, Js, n_points=n_points)
    assert all(m * n * n <= max(n * n, oracle._STACK) for m, n in stacks)
    shared = {J for group in groups if len(group) > 1 for J in group}
    cells = {}
    for J in set(Js):
        alone = deviation_report(p, nus, [J], n_points=n_points)
        cells.update({(c.nu, c.J): c for c in alone.rows + alone.failures})
    assert len(report.rows) + len(report.failures) == len(nus) * len(Js)
    for cell in report.rows + report.failures:
        _agree_as_one_J(cell, cells[(cell.nu, cell.J)], shared)
    if n_points == 2048:
        assert report.failures == [] and shared


REF_GRID = ([0, 3, 5], [0, 1, 2, 3, 4, 5, 10, 15, 20])


def test_nine_J_values_make_one_refinement_and_one_contraction(db, groups, lapack):
    # O2's reference grid is one group: J = 0 refines 37 -> 74 on a box
    # at E(5, 20), one eigh of the 74-function matrix gives its vectors,
    # and the other 8 J values converge at M = 12 -> 24, each size one
    # stacked eigvalsh
    report = deviation_report(db.get("O2"), *REF_GRID)
    assert groups == [REF_GRID[1]]
    assert {row.basis for row in report.rows} == {74}
    assert lapack == [("eigvalsh", (1, 37, 37)), ("eigvalsh", (1, 74, 74)),
                      ("eigh", (74, 74)), ("eigvalsh", (8, 24, 24)),
                      ("eigvalsh", (8, 12, 12))]
    assert report.failures == []
    # a contracted row's error adds |E_M - E_2M| to the reference's
    # |E_N - E_2N| at that nu, which the J = 0 row reports
    reference = {row.nu: row.oracle_err for row in report.rows if row.J == 0}
    for row in report.rows:
        assert reference[row.nu] <= row.oracle_err <= DVR_TOL_CM1 + reference[row.nu]
        alone = deviation_report(db.get("O2"), [row.nu], [row.J]).rows[0]
        _agree_as_one_J(row, alone, set(REF_GRID[1]))


def test_groups_follow_the_well_top_and_the_box_rule(db, groups):
    # NO: from J = 50 on, J = 0's box at the group's highest level needs
    # more than 5/4 of a J's own first N; a group of one refines alone
    deviation_report(db.get("NO"), [0, 3, 5], list(range(0, 201, 10)))
    assert groups == [[0, 10, 20, 30, 40]] + [[J] for J in range(50, 200, 10)]
    # NO at a budget of 64, where every first N is 32, so the box rule
    # holds: the nu = 53 level of each J from 13 to 15 lies above the
    # well top of the J before it, so each refines alone (J = 16 and 17
    # hold no such level)
    groups.clear()
    deviation_report(db.get("NO"), [53], list(range(12, 18)), n_points=64)
    assert groups == [[12], [13], [14], [15]]


def test_a_contraction_doubles_M_until_every_level_settles(db, groups, lapack):
    # nu = 0 alone starts at M = 2: J = 5 and 10 settle at M = 4 -> 8,
    # J = 15 at 8 -> 16; J = 20 refines alone (the box rule)
    p = db.get("NO")
    report = deviation_report(p, [0], [0, 5, 10, 15, 20])
    assert groups == [[0, 5, 10, 15], [20]]
    after = lapack[[solve for solve, _ in lapack].index("eigh") + 1:]
    assert [shape for _, shape in after][:6] == [
        (3, 4, 4), (3, 2, 2), (3, 8, 8), (3, 4, 4), (1, 16, 16), (1, 8, 8)]
    reference = report.rows[0].oracle_err
    for row in report.rows:
        alone = deviation_report(p, [0], [row.J]).rows[0]
        _agree_as_one_J(row, alone, {0, 5, 10, 15})
        if row.J in (5, 10, 15):
            assert reference <= row.oracle_err <= DVR_TOL_CM1 + reference


def test_a_smaller_stack_cap_changes_only_the_call_count(db, stacks, groups, monkeypatch):
    # three J values share no basis (fewer than _MIN_GROUP): each refines
    # 35 -> 70 on its own box, one stack of 3 matrices per basis size
    p = db.get("O2")
    report = deviation_report(p, REF_GRID[0], [0, 10, 20])
    assert groups == [[0], [10], [20]]
    assert stacks == [(3, 35), (3, 70)]
    stacks.clear()
    monkeypatch.setattr(oracle, "_STACK", 3 * 35**2)  # 3 of 35, 1 of 70
    assert deviation_report(p, REF_GRID[0], [0, 10, 20]) == report
    assert stacks == [(3, 35)] + [(1, 70)] * 3


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=physical_params,
       nus=st.lists(st.integers(0, 15), min_size=1, max_size=4),
       Js=st.lists(st.integers(0, 60), min_size=2, max_size=5))
def test_a_cell_that_converges_alone_converges_in_a_shared_basis(groups, p, nus, Js):
    # every cell of a one-J report that converges converges in the
    # multi-J report, within 1e-8 cm^-1 and both oracle_err; a cell that
    # fails alone fails with the same reason
    groups.clear()
    report = deviation_report(p, nus, Js)
    shared = {J for group in groups if len(group) > 1 for J in group}
    cells = {}
    for J in set(Js):
        alone = deviation_report(p, nus, [J])
        cells.update({(c.nu, c.J): c for c in alone.rows + alone.failures})
    for cell in report.rows + report.failures:
        _agree_as_one_J(cell, cells[(cell.nu, cell.J)], shared)


def test_deviation_report_collects_closed_form_failures(db):
    p = db.get("NO")
    report = deviation_report(p, [0], [0, 1300], n_points=2000)
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0)]
    assert [(f.nu, f.J) for f in report.failures] == [(0, 1300)]


def _well_by_running_maximum(v, k, dr):
    """One J's well the way converge once found it: rim[i] is the highest
    v between the minimum and point i, the well at E the points where
    rim < E."""
    well = int(np.argmin(v))
    rim = np.concatenate([np.maximum.accumulate(v[well::-1])[:0:-1],
                          np.maximum.accumulate(v[well:])])
    top = min(rim[0], rim[-1])
    inside = v[rim < top]
    return v[well], top, inside, np.sqrt((top - inside) / k).sum() * dr / math.pi


def _box_over_the_whole_scan(wells, row, E_top):
    """wells.box with the decay integrals taken over the whole scan."""
    r, v, well, k = wells.r, wells.v[row], wells.well[row], wells.k
    decay = np.sqrt(np.maximum(v - E_top, 0.0) / k) * wells.dr
    inner = np.searchsorted(np.cumsum(decay[well::-1]), oracle._TAIL)
    outer = np.searchsorted(np.cumsum(decay[well:]), oracle._TAIL)
    r_min, r_max = r[max(well - inner, 0)], r[min(well + outer, r.size - 1)]
    p_max = math.sqrt((E_top - wells.lo[row]) / k)
    return r_min, r_max, math.ceil(oracle._SAFETY * p_max * (r_max - r_min) / math.pi) + 1


def _check_wells(p, J_list):
    k = kinetic_factor(p.mu)
    wells = oracle._wells(from_params(p), J_list, k)
    for row, J in enumerate(J_list):
        lo, top, inside, phase = _well_by_running_maximum(wells.v[row], k, wells.dr)
        assert (wells.lo[row], wells.top[row]) == (lo, top), J
        assert np.array_equal(wells.inside[row], inside), J
        for found in (wells.phase(row, top), wells.top_phase[row]):  # summed otherwise
            assert found == pytest.approx(phase, rel=1.0e-12, abs=1.0e-12), J
        # the box's integrals start near the minimum and widen until they
        # reach their end: the same box, bit for bit
        for E in np.linspace(lo, top, 7)[1:]:
            assert wells.box(row, E) == _box_over_the_whole_scan(wells, row, E), (J, E)


@pytest.mark.parametrize("name", ["NO", "O2", "O2+", "N2"])
def test_wells_found_at_once_match_the_running_maximum(db, name):
    # from J = 0, whose top is v at the scan's end, through barriers, to
    # J = 400, where v falls to the scan's end and there is no well
    _check_wells(db.get(name), [0, 1, 20, 50, 100, 150, 200, 250, 400])


@settings(max_examples=30, deadline=None)
@given(p=physical_params, J_list=st.lists(st.integers(0, 600), min_size=1, max_size=6))
def test_wells_found_at_once_match_the_running_maximum_on_drawn_molecules(p, J_list):
    # eta > 0 puts a pole inside the scan for some: v peaks there
    try:
        _check_wells(p, J_list)
    except ResolutionError:  # a scan point within 1e-9 A of the pole
        assume(False)


@pytest.mark.parametrize("name", ["NO", "O2", "O2+", "N2"])
def test_every_compared_row_is_converges_level(db, name):
    # deviation_report boxes a J at its highest closed-form level, converge
    # at the one level it solves, both inside the same well: every row
    # agrees, up to J = 150, where the closed form's upper levels lie at
    # or above the barrier top and past the WKB count
    p = db.get(name)
    model = from_params(p)
    for J in (0, 50, 100, 150):
        rows = deviation_report(p, list(range(0, 70, 10)), [J]).rows
        assert rows
        for row in rows:
            E = converge(model, J, p.mu, row.nu).extrapolated
            assert abs(E - row.E_oracle) <= DVR_TOL_CM1, (J, row.nu, E, row.E_oracle)


def test_a_cell_past_the_well_fails_as_converge_fails_it(db):
    # NO J = 100: the barrier tops out at 55,170.33 cm^-1 and its well
    # counts 39.14 levels by WKB.  A box spanning the barrier once put the
    # quasi-bound nu = 35 level at index 47, a row 5,068 cm^-1 off
    p = db.get("NO")
    with pytest.raises(ResolutionError) as past:
        converge(from_params(p), 100, p.mu, 47)
    report = deviation_report(p, [33, 35, 47], [100])
    assert [row.nu for row in report.rows] == [33]
    assert [(f.nu, f.error) for f in report.failures] == [
        (35, "closed-form level at or above the well's top, 55170.33 cm^-1; "
             "no oracle level"),
        (47, "nu above the well: its WKB count at the top is 39.14; no oracle level"),
    ]
    assert str(past.value) == report.failures[1].error


def test_deviation_report_fails_levels_below_the_well(tmp_path):
    # a row inside the range check whose closed form puts nu = 0 below the
    # effective potential's minimum (E = -799 cm^-1 at J = 0, -9.4e21 at
    # J = 10, both flagged bound): no box fits, so nothing is solved
    path = tmp_path / "x.txt"
    path.write_text(
        "name eta mu_1e-23_g alpha_inv_A re_A beta_inv_A De_cm1 we_cm1\n"
        "X -1000000.0 0.16308488071050078 6.823521683325615 1e-06 "
        "26154.899529762522 0.3170294395385019 0.8036300849865148\n"
    )
    report = deviation_report(load_database(path).get("X"), [0, 2], [0, 10],
                              n_points=64)
    assert report.rows == []
    below = "below the effective potential's minimum; no oracle level"
    assert [(f.nu, f.J, f.error) for f in report.failures] == [
        (0, 0, below), (0, 10, below),
        (2, 0, "beyond the bound range; no oracle level"), (2, 10, below),
    ]


def test_deviation_report_bounds_its_oracle_work(db, bases):
    # len(J_list) x min(n_points, MAX_BASIS) basis functions at most: 33 J
    # at the default budget are refused before any basis is built
    p = db.get("NO")
    with pytest.raises(ValueError, match=f"asks for {33 * MAX_BASIS} oracle basis "
                                         f"functions; the limit is {MAX_ORACLE_POINTS}"):
        deviation_report(p, [0], list(range(33)))
    assert bases == []
    # perfbench's compare request, 9 J at n_points = 16384, is within the cap
    report = deviation_report(p, [0, 3, 5], [0, 1, 2, 3, 4, 5, 10, 15, 20],
                              n_points=16384)
    assert len(report.rows) == 27 and report.failures == []


def test_deviation_report_fails_cells_it_cannot_compare(db, bases):
    # nu = 80 is beyond NO's bound range; a budget of 56 basis functions
    # resolves nu = 0 but not nu = 3, and nothing larger is built: the
    # refinement doubles to 26 -> 52, as 104 exceeds the budget, then
    # tries the last pair that fits, 28 -> 56
    p = db.get("NO")
    report = deviation_report(p, [0, 3, 80], [0], n_points=56)
    assert bases == [26, 52, 28, 56]
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0)]
    assert report.rows[0].oracle_err <= DVR_TOL_CM1
    assert report.rows[0].basis == 52  # converged at 26 -> 52, and kept
    assert [(f.nu, f.J) for f in report.failures] == [(3, 0), (80, 0)]
    assert "not converged to 1e-06 cm^-1 within 56 basis" in report.failures[0].error
    assert report.failures[1].error == "beyond the bound range; no oracle level"

    report = deviation_report(p, [0, 3, 80], [0], n_points=10**6)
    assert [(r.nu, r.J) for r in report.rows] == [(0, 0), (3, 0)]
    for row in report.rows:
        assert row.oracle_err <= DVR_TOL_CM1
        assert row.basis <= MAX_BASIS
        assert abs(row.delta) <= 1.0e-6  # the closed form is exact at J = 0


def test_a_pole_on_a_potential_sample_fails_each_cell(db):
    # eta < 1 puts a pole at re + ln(eta) / b; one on a point of the scan
    # that places the boxes used to escape as SingularRadiusError
    p = db.get("NO")
    scan = np.linspace(oracle._R_MIN * p.re, oracle._R_MAX * p.re, oracle._SCAN)
    on_pole = p._replace(eta=math.exp(2.0 * p.alpha * (scan[150] - p.re)))
    assert level_table(on_pole, [0, 1], [0, 5])[0]  # bound closed-form rows
    report = deviation_report(on_pole, [0, 1], [0, 5], n_points=256)
    assert report.rows == []
    assert [(f.nu, f.J) for f in report.failures] == [(0, 0), (0, 5), (1, 0), (1, 5)]
    assert {f.error for f in report.failures} == {
        "radius within 1e-9 A of the potential pole at 0.994740645 A; no oracle level"}


def test_converge_with_a_pole_on_a_potential_sample_raises_resolution_error(db):
    # the same pole as above: converge names it as deviation_report does,
    # instead of letting SingularRadiusError escape
    p = db.get("NO")
    scan = np.linspace(oracle._R_MIN * p.re, oracle._R_MAX * p.re, oracle._SCAN)
    on_pole = p._replace(eta=math.exp(2.0 * p.alpha * (scan[150] - p.re)))
    with pytest.raises(ResolutionError) as info:
        converge(from_params(on_pole), 0, on_pole.mu, 0)
    assert str(info.value) == (
        "radius within 1e-9 A of the potential pole at 0.994740645 A; no oracle level")


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


@pytest.mark.parametrize("J", [20, 50, 100, 150])
@pytest.mark.parametrize("name", ["NO", "O2", "O2+", "N2"])
def test_closed_form_is_exact_for_the_rational_centrifugal_term(db, name, J):
    # at J > 0 the closed form solves U + gamma (C1 + C2 y + C3 y^2),
    # y = 1/(e^{br} + q), exactly: a 700-point sinc DVR of that potential
    # on [0.55 re, 4 re] must give every bound level below 0.9 De to 1e-6
    # cm^-1 (about 1e-9 in practice).  Only the rational re^2/r^2 separates
    # the closed form from the true spectrum.
    p = db.get(name)
    derived, k = derive(p), kinetic_factor(p.mu)
    C = badawi_coefficients(derived.u, p.eta)
    gamma = J * (J + 1) * k / p.re**2
    r = np.linspace(0.55 * p.re, 4.0 * p.re, 700)
    y = 1.0 / (np.exp(derived.b * r) + derived.q)
    v = evaluate(from_params(p), r) + gamma * (C.C1 + C.C2 * y + C.C3 * y**2)
    E = dvr_eigenvalues(r, v, k)
    rows, _ = level_table(p, list(range(700)), [J])
    levels = [row for row in rows if row.bound and row.E < 0.9 * p.De]
    assert len(levels) >= 8
    for row in levels:
        assert abs(row.E - E[row.nu]) <= 1.0e-6, (row.nu, row.E - E[row.nu])


@pytest.mark.parametrize("J", [20, 100])
@settings(max_examples=10, deadline=None)
@given(p=physical_params)
def test_closed_form_is_exact_for_drawn_molecules(J, p):
    # the check above for drawn molecules, whose inner walls can be softer
    # (b re down to 1.6): a wall at 0.55 re moves the nu = 20, J = 20 level
    # of a Morse well with b re = 2 by 1.04e-6 cm^-1, so the box starts at
    # 0.3 re.  It keeps 700 points unless 2.5 points per half de Broglie
    # wavelength at 0.9 De need more
    derived, k = derive(p), kinetic_factor(p.mu)
    lo, hi = 0.3 * p.re, 4.0 * p.re
    pole = pole_radius(derived.b, derived.q)
    assume(pole is None or not lo <= pole <= hi)  # eta > 0 at large b re
    C = badawi_coefficients(derived.u, p.eta)
    gamma = J * (J + 1) * k / p.re**2
    n = max(700, math.ceil(2.5 * math.sqrt(0.9 * p.De / k) * (hi - lo) / math.pi))
    r = np.linspace(lo, hi, n)
    y = 1.0 / (np.exp(derived.b * r) + derived.q)
    v = evaluate(from_params(p), r) + gamma * (C.C1 + C.C2 * y + C.C3 * y**2)
    E = dvr_eigenvalues(r, v, k)
    rows, _ = level_table(p, list(range(n)), [J])
    levels = [row for row in rows if row.bound and row.E < 0.9 * p.De]
    assume(levels)  # J = 100 can lift a light molecule's well past 0.9 De
    for row in levels:
        assert abs(row.E - E[row.nu]) <= 1.0e-6, (row.nu, row.E - E[row.nu])


def test_cells_past_the_zero_of_s_are_beyond_the_bound_range():
    # eta < 0: from nu = 55 on, s has left the sign of q and the bracket
    # turns negative again at E down to -6.8e7 cm^-1; those cells are not
    # bound, so the oracle fails them without refining its basis for them
    params = SpectroscopicParams(
        name="X", De=5340.0, re=1.597, we=1000.0, mu=7.95, alpha=2.13, eta=-0.2735,
    )
    rows, failures = level_table(params, list(range(80)), [0])
    assert failures == []
    assert [row.nu for row in rows if row.bound] == list(range(13))
    assert min(row.E for row in rows) < -6.0e7

    report = deviation_report(params, [0, 5, 12, 55, 56, 79], [0])
    assert [(row.nu, row.basis) for row in report.rows] == [
        (0, 430), (5, 430), (12, 430)
    ]
    assert [f.nu for f in report.failures] == [55, 56, 79]
    assert all(f.error == "beyond the bound range; no oracle level"
               for f in report.failures)
