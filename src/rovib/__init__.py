"""Ro-vibrational bound states of diatomics in a deformed Schioberg potential.

The public names below load their submodule on first access (PEP 562), so
that ``import rovib`` loads none of them and a caller pays only for the
modules it uses: the closed form never loads the oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule defining it, in __all__ order
_SUBMODULE = {name: module for module, names in (
    ("database", "MoleculeDatabase SpectroscopicParams load_database"),
    ("oracle", "converge deviation_report"),
    ("potentials", "DerivedParams PForm alpha_dmrm derive "
                   "evaluate from_params to_pform verify_varshni"),
    ("rotational", "EffectiveCoefficients FactorizationCoefficients "
                   "badawi_coefficients effective_coefficients"),
    ("spectrum", "EnergyLevel SusyIntermediates level level_table "
                 "morse_vibrational_energy susy_intermediates"),
) for name in names.split()}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
