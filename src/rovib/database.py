"""
database.py

Whitespace-separated molecule parameter files.

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

import os
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .potentials import SpectroscopicParams
from .units import mass_grams_to_amu

ENV_VAR = "ROVIB_DB"

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
        text = resolved.read_text()
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
