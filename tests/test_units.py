import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib.units import (
    AMU_IN_GRAMS,
    EV_PER_WAVENUMBER,
    HBAR2_OVER_2MU,
    HBAR2_OVER_2MU_CODATA,
    kinetic_factor,
    mass_grams_to_amu,
    wavenumber_to_roy_ev,
)


def test_working_constant_pinned():
    # regression targets depend on this exact value; see units.py
    assert HBAR2_OVER_2MU == 16.857644
    # CODATA-2018 values, and the reference tables' eV per cm^-1
    assert HBAR2_OVER_2MU_CODATA == 16.85762919164018
    assert AMU_IN_GRAMS == 1.66053906660e-24
    assert EV_PER_WAVENUMBER == 1.23941188e-4


def test_working_constant_near_codata():
    rel = abs(HBAR2_OVER_2MU - HBAR2_OVER_2MU_CODATA) / HBAR2_OVER_2MU_CODATA
    assert rel < 1.0e-6


@given(mu=st.floats(min_value=0.1, max_value=500.0))
def test_kinetic_factor_scaling(mu):
    assert kinetic_factor(mu) * mu == pytest.approx(HBAR2_OVER_2MU, rel=1.0e-12)


def test_mass_conversion_spot_values():
    assert mass_grams_to_amu(1.249) == pytest.approx(7.5216, abs=1.0e-3)
    assert mass_grams_to_amu(1.377) == pytest.approx(8.2925, abs=1.0e-3)
    assert mass_grams_to_amu(1.171) == pytest.approx(7.0519, abs=1.0e-3)


def test_roy_shift_spot_values():
    # NO ground level relative to dissociation
    assert wavenumber_to_roy_ev(947.759, 53341.0) == pytest.approx(-6.4936, abs=1.0e-4)
    # N2 ground level, matches the converted reference column
    assert wavenumber_to_roy_ev(1174.9477, 79885.0) == pytest.approx(
        -9.7554174, abs=1.0e-6
    )


@settings(max_examples=200)
@given(
    energy=st.floats(min_value=0.0, max_value=1.0e5),
    De=st.floats(min_value=1.0e3, max_value=1.0e6),
)
def test_roy_round_trip(energy, De):
    there = wavenumber_to_roy_ev(energy, De)
    back = De + there / EV_PER_WAVENUMBER
    assert back == pytest.approx(energy, rel=1.0e-12, abs=1.0e-7)


@pytest.mark.parametrize("bad", [0.0, -1.0, -7.5])
def test_positive_mass_required(bad):
    with pytest.raises(ValueError):
        kinetic_factor(bad)
    with pytest.raises(ValueError):
        mass_grams_to_amu(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kinetic_factor_requires_a_finite_mass(bad):
    # inf gave 0, which later divisions met as ZeroDivisionError; nan
    # passed through into nan energies
    with pytest.raises(ValueError, match="reduced mass must be positive and finite"):
        kinetic_factor(bad)
