"""Ro-vibrational bound states of diatomics in a deformed Schioberg potential."""

from .database import MoleculeDatabase, load_database
from .oracle import converge, deviation_report
from .potentials import (
    DerivedParams,
    PForm,
    SpectroscopicParams,
    alpha_dmrm,
    derive,
    evaluate,
    from_params,
    lambert_w0,
    to_pform,
    verify_varshni,
)
from .rotational import (
    EffectiveCoefficients,
    FactorizationCoefficients,
    badawi_coefficients,
    effective_coefficients,
    greene_aldrich_approx,
)
from .spectrum import (
    EnergyLevel,
    SusyIntermediates,
    level,
    level_table,
    morse_vibrational_energy,
    susy_intermediates,
)

__version__ = "0.1.0"

__all__ = [
    "MoleculeDatabase",
    "load_database",
    "converge",
    "deviation_report",
    "DerivedParams",
    "PForm",
    "SpectroscopicParams",
    "alpha_dmrm",
    "derive",
    "evaluate",
    "from_params",
    "lambert_w0",
    "to_pform",
    "verify_varshni",
    "EffectiveCoefficients",
    "FactorizationCoefficients",
    "badawi_coefficients",
    "effective_coefficients",
    "greene_aldrich_approx",
    "EnergyLevel",
    "SusyIntermediates",
    "level",
    "level_table",
    "morse_vibrational_energy",
    "susy_intermediates",
    "__version__",
]
