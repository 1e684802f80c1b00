"""
database.py

Whitespace-separated molecule parameter files, read as UTF-8, and
SpectroscopicParams, the validated record a row becomes.  Loading needs
only units and the standard library, so it compiles none of the
potential model (rovib.potentials re-exports the record).

Format: comment lines start with #, blanks are skipped, the first data
line must be the exact header

    name eta mu_1e-23_g alpha_inv_A re_A beta_inv_A De_cm1 we_cm1

and every following line one molecule.  Masses are quoted in 1e-23 g as
parameter tables usually print them and converted to amu on load; the
beta column is kept as beta_table for consistency reporting.

Lookup order for the file: explicit path argument, then the ROVIB_DB
environment variable, then the bundled table.
"""

from __future__ import annotations

import math
import os
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .units import mass_grams_to_amu

ENV_VAR = "ROVIB_DB"

# Largest magnitude of a parameter (and inverse of the smallest positive
# one), and largest exponent b re = 2 alpha re: far beyond any diatomic,
# and small enough that e^{b re}, we^2 and the P-form, centrifugal and
# oracle quantities built from them stay finite.
MAX_MAGNITUDE = 1.0e6
MAX_B_RE = 50.0

COLUMNS = (
    "name",
    "eta",
    "mu_1e-23_g",
    "alpha_inv_A",
    "re_A",
    "beta_inv_A",
    "De_cm1",
    "we_cm1",
)


class _SpectroscopicFields(NamedTuple):
    name: str
    De: float
    re: float
    we: float
    mu: float
    alpha: float
    eta: float
    beta_table: float | None = None


class SpectroscopicParams(_SpectroscopicFields):
    """Input constants for one molecule.

    Energies in cm^-1, lengths in Angstrom, mass in amu.  ``eta`` is the
    shape (deformation) parameter of the Tietz-Hua form; ``eta = 1``
    degenerates the potential and is rejected.  ``beta_table`` optionally
    carries a tabulated Morse constant for consistency reports; the
    package otherwise works with the value derived from we.  Every number
    must be finite, the positive ones within [1/MAX_MAGNITUDE,
    MAX_MAGNITUDE], |eta| at most MAX_MAGNITUDE and 2 alpha re at most
    MAX_B_RE, so that nothing computed from them overflows.  Every way
    of making one checks these: the constructor, ``_make``, ``_replace``,
    ``copy`` and unpickling.
    """

    __slots__ = ()

    def __new__(cls, name, De, re, we, mu, alpha, eta, beta_table=None):
        self = super().__new__(cls, name, De, re, we, mu, alpha, eta, beta_table)
        for field in ("De", "re", "we", "mu", "alpha", "eta", "beta_table"):
            value = getattr(self, field)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value}")
        for field in ("De", "re", "we", "mu", "alpha", "beta_table"):
            value = getattr(self, field)
            if value is None:  # beta_table is optional
                continue
            if not value > 0.0:
                raise ValueError(f"{field} must be positive, got {value}")
            if not 1.0 / MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
                raise ValueError(
                    f"{field} must lie in [{1.0 / MAX_MAGNITUDE:g}, "
                    f"{MAX_MAGNITUDE:g}], got {value}"
                )
        if self.eta == 1.0:
            raise ValueError("eta must differ from 1 (potential degenerates)")
        if abs(self.eta) > MAX_MAGNITUDE:
            raise ValueError(
                f"eta must lie in [{-MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], got {self.eta}"
            )
        if 2.0 * self.alpha * self.re > MAX_B_RE:
            raise ValueError(
                f"alpha must keep 2 alpha re at most {MAX_B_RE:g}, got alpha = "
                f"{self.alpha} at re = {self.re}"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and so _replace) bypasses __new__
        return cls(*iterable)


class DatabaseError(ValueError):
    """Malformed database file; message carries path and line number."""


class UnknownMoleculeError(KeyError):
    """Requested molecule not present in the database."""


class MoleculeDatabase(NamedTuple):
    path: str
    molecules: dict[str, SpectroscopicParams]

    def get(self, name: str) -> SpectroscopicParams:
        try:
            return self.molecules[name]
        except KeyError:
            known = ", ".join(self.molecules)
            raise UnknownMoleculeError(
                f"unknown molecule {name!r}; {self.path} defines: {known}"
            ) from None

    @property
    def names(self) -> list[str]:
        return list(self.molecules)


def bundled_path() -> Path:
    return Path(str(resources.files("rovib").joinpath("data/molecules.txt")))


def resolve_path(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return bundled_path()


def load_database(path: str | os.PathLike | None = None) -> MoleculeDatabase:
    """Parse a molecule file; raises DatabaseError with the offending line."""
    resolved = resolve_path(path)
    try:
        text = resolved.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise DatabaseError(f"cannot read database {resolved}: {exc}") from exc

    molecules: dict[str, SpectroscopicParams] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not header_seen:
            if tuple(fields) != COLUMNS:
                raise DatabaseError(
                    f"{resolved}:{lineno}: expected header "
                    f"'{' '.join(COLUMNS)}', got '{line}'"
                )
            header_seen = True
            continue
        if len(fields) != len(COLUMNS):
            raise DatabaseError(
                f"{resolved}:{lineno}: expected {len(COLUMNS)} fields, "
                f"got {len(fields)}"
            )
        name = fields[0]
        if name in molecules:
            raise DatabaseError(f"{resolved}:{lineno}: duplicate molecule {name!r}")
        values = {}
        for column, field in zip(COLUMNS[1:], fields[1:]):
            try:
                values[column] = float(field)
            except ValueError:
                raise DatabaseError(
                    f"{resolved}:{lineno}: column {column!r} is not a number: "
                    f"{field!r}"
                ) from None
        try:
            molecules[name] = SpectroscopicParams(
                name=name,
                De=values["De_cm1"],
                re=values["re_A"],
                we=values["we_cm1"],
                mu=mass_grams_to_amu(values["mu_1e-23_g"]),
                alpha=values["alpha_inv_A"],
                eta=values["eta"],
                beta_table=values["beta_inv_A"],
            )
        except ValueError as exc:
            raise DatabaseError(f"{resolved}:{lineno}: {name}: {exc}") from exc
    if not header_seen:
        raise DatabaseError(f"{resolved}: no header line found")
    if not molecules:
        raise DatabaseError(f"{resolved}: no molecules defined")
    return MoleculeDatabase(path=str(resolved), molecules=molecules)
