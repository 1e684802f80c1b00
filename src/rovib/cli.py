"""
cli.py

Command line front end.

Exit codes: 0 success, 2 usage problems (unknown molecule, unreadable
database, bad index syntax, a request above MAX_INDICES, MAX_PAIRS,
MAX_GRID_POINTS, MAX_ORACLE_POINTS or MAX_SCAN_POINTS), 3 when a
requested computation fails; in the latter case whatever could be
computed is still printed and the failures go to stderr.  Warnings (csv rows beyond the bound
range) also go to stderr and leave the exit code alone.  Identical
arguments and database give byte-identical output.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .database import ENV_VAR, DatabaseError, UnknownMoleculeError, load_database
from .oracle import ResolutionError, deviation_report
from .potentials import (
    SpectroscopicParams,
    alpha_dmrm,
    derive,
    from_params,
    pole_radius,
    verify_varshni,
)
from .rotational import (
    badawi_coefficients,
    centrifugal_approx_error,
    default_r_grid,
    greene_aldrich_error,
)
from .spectrum import level_table, morse_vibrational_energy
from .units import wavenumber_to_roy_ev

EXIT_USAGE = 2
EXIT_COMPUTE = 3

STANDARD_J = "0,1,2,3,4,5,10,15,20"
MAX_INDICES = 10_000  # indices in one --nu or --J list
MAX_PAIRS = 250_000  # (nu, J) pairs in one levels or compare request
# compare --grid-points: twice the 262,137 points converge() may reach;
# the oracle also solves the halved grid, so a 2**19 request ends on
# about 1M points, ~1.3 s and ~140 MB per J on a 2-vCPU host
MAX_GRID_POINTS = 2**19
# compare: len(--J) x --grid-points, since each J solves its grid and the
# halving; estimated from logged per-J timings, the largest allowed
# request runs ~10-25 s on a 2-vCPU host
MAX_ORACLE_POINTS = 2**22
MAX_SCAN_POINTS = 100_000  # approx-error --points


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI request."""

    molecule: str
    nu_list: tuple[int, ...] = (0,)
    J_list: tuple[int, ...] = (0,)
    output_format: str = "text"  # text | csv | json
    energy_unit: str = "cm-1"  # cm-1 | roy_eV
    db: str | None = None
    grid_points: int = 16384


def parse_index_list(text: str, label: str) -> tuple[int, ...]:
    """Parse '0,3,5' or '0..9' (or a mix) into a tuple of indices.

    At most MAX_INDICES indices; a span is counted before it is expanded.
    """
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            lo_text, dots, hi_text = token.partition("..")
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
            if hi < lo:
                raise ValueError
        except ValueError:
            raise click.BadParameter(
                f"bad {label} token {token!r}; use e.g. '0,3,5' or '0..9'"
            ) from None
        if len(out) + hi - lo + 1 > MAX_INDICES:
            raise click.BadParameter(f"{label} lists more than {MAX_INDICES} indices")
        out.extend(range(lo, hi + 1))
    if not out or any(i < 0 for i in out):
        raise click.BadParameter(f"{label} indices must be non-negative")
    return tuple(out)


def parse_grid(nu_spec: str, j_spec: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The --nu and --J lists of one request, at most MAX_PAIRS pairs."""
    nu_list = parse_index_list(nu_spec, "--nu")
    J_list = parse_index_list(j_spec, "--J")
    if len(nu_list) * len(J_list) > MAX_PAIRS:
        raise click.UsageError(
            f"--nu x --J asks for {len(nu_list) * len(J_list)} levels; "
            f"the limit is {MAX_PAIRS}"
        )
    return nu_list, J_list


def _load(db_path: str | None):
    try:
        return load_database(db_path)
    except DatabaseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _molecule_params(config: RunConfig) -> SpectroscopicParams:
    try:
        return _load(config.db).get(config.molecule)
    except UnknownMoleculeError as exc:
        click.echo(f"error: {exc.args[0]}", err=True)
        sys.exit(EXIT_USAGE)


def _energy_out(config: RunConfig, params: SpectroscopicParams, value: float) -> float:
    if config.energy_unit == "roy_eV":
        return wavenumber_to_roy_ev(value, params.De)
    return value


def _energy_column(config: RunConfig) -> str:
    return "E_roy_eV" if config.energy_unit == "roy_eV" else "E_cm1"


def _fmt_energy(config: RunConfig, value: float) -> str:
    return f"{value:.8f}" if config.energy_unit == "roy_eV" else f"{value:.6f}"


# ---------------------------------------------------------------------------
# command implementations (return output text plus failure lines)


def cmd_levels(config: RunConfig) -> tuple[str, list[str], list[str]]:
    """Closed-form level table for one molecule, its failures and warnings."""
    params = _molecule_params(config)
    rows, failures = level_table(params, list(config.nu_list), list(config.J_list))
    col = _energy_column(config)
    if config.output_format == "csv":
        lines = [f"molecule,nu,J,{col}"]
        for row in rows:
            value = _energy_out(config, params, row.E)
            lines.append(
                f"{config.molecule},{row.nu},{row.J},{_fmt_energy(config, value)}"
            )
        text = "\n".join(lines)
    elif config.output_format == "json":
        text = json.dumps([
            {
                "molecule": config.molecule,
                "nu": row.nu,
                "J": row.J,
                col: _energy_out(config, params, row.E),
                "bound": row.bound,
            }
            for row in rows
        ], indent=2)
    else:
        lines = [f"{'molecule':<10}{'nu':>4}{'J':>4}{col:>18}"]
        for row in rows:
            value = _energy_out(config, params, row.E)
            marker = "" if row.bound else "  (beyond bound range)"
            lines.append(
                f"{config.molecule:<10}{row.nu:>4}{row.J:>4}{value:>18.4f}{marker}"
            )
        text = "\n".join(lines)
    unbound = sum(not row.bound for row in rows)
    warnings = []
    if unbound and config.output_format == "csv":  # text marks them, json has bound
        warnings.append(
            f"warning: {unbound} of {len(rows)} rows lie beyond the bound range; "
            f"their {col} is not a bound level"
        )
    failures = [f"error: nu={f.nu} J={f.J}: {f.error}" for f in failures]
    return text, failures, warnings


def cmd_compare(config: RunConfig) -> tuple[str, list[str]]:
    """Closed form against the grid oracle."""
    params = _molecule_params(config)
    try:
        report = deviation_report(
            params,
            list(config.nu_list),
            list(config.J_list),
            n_points=config.grid_points,
        )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    if config.output_format == "csv":
        lines = ["molecule,nu,J,E_cm1,E_oracle_cm1,delta_cm1"]
        for row in report.rows:
            lines.append(
                f"{config.molecule},{row.nu},{row.J},{row.E_closed:.6f},"
                f"{row.E_oracle:.6f},{row.delta:.6f}"
            )
        text = "\n".join(lines)
    elif config.output_format == "json":
        text = json.dumps({
            "molecule": config.molecule,
            "rows": [
                {
                    "nu": row.nu, "J": row.J, "E_cm1": row.E_closed,
                    "E_oracle_cm1": row.E_oracle, "delta_cm1": row.delta,
                }
                for row in report.rows
            ],
            "max_abs_delta_cm1": report.max_abs_delta,
            "mean_delta_cm1": report.mean_delta,
        }, indent=2)
    else:
        lines = [
            f"{'molecule':<10}{'nu':>4}{'J':>4}{'E_cm1':>16}"
            f"{'E_oracle_cm1':>16}{'delta_cm1':>12}"
        ]
        for row in report.rows:
            lines.append(
                f"{config.molecule:<10}{row.nu:>4}{row.J:>4}{row.E_closed:>16.4f}"
                f"{row.E_oracle:>16.4f}{row.delta:>12.4f}"
            )
        lines.append(
            f"max|delta| = {report.max_abs_delta:.4f} cm^-1, "
            f"mean delta = {report.mean_delta:.4f} cm^-1"
        )
        text = "\n".join(lines)
    return text, [f"error: nu={f.nu} J={f.J}: {f.error}" for f in report.failures]


def cmd_varshni(config: RunConfig) -> tuple[str, list[str]]:
    """Minimum-condition residuals plus shape and range parameters."""
    params = _molecule_params(config)
    derived = derive(params)
    report = verify_varshni(from_params(params), derived)
    pole = pole_radius(derived.b, derived.q)
    dU_rel = abs(report.dU_at_re) * params.re / params.De
    depth_rel = abs(report.depth - params.De) / params.De
    d2U_rel = abs(report.d2U_at_re - derived.Ke) / derived.Ke
    beta_rel = (
        abs(derived.beta - params.beta_table) / params.beta_table
        if params.beta_table
        else None
    )
    alpha, notes = {}, {}
    for variant in ("corrected", "as_published"):
        try:
            alpha[variant] = alpha_dmrm(params, derived, variant)
            notes[variant] = f"{alpha[variant]:.6f}"
        except ValueError as exc:
            # e.g. O2: the published exponent pushes the W argument below -1/e
            alpha[variant] = None
            notes[variant] = f"no real value ({exc})"
    corrected, published = alpha["corrected"], alpha["as_published"]
    if corrected is None or published is None:
        difference = None
        which = "published" if published is None else "corrected"
        difference_note = f"undefined ({which} variant leaves the real domain)"
    else:
        difference = corrected - published
        difference_note = f"{difference:.6e}   (unequal)"
    failures = []
    if corrected is None:
        failures.append(f"error: alpha_w_corrected: {notes['corrected']}")
    if config.output_format == "json":
        return json.dumps({
            "molecule": config.molecule,
            "re_A": report.re,
            "dU_at_re_rel": dU_rel,
            "depth_cm1": report.depth,
            "depth_rel_err": depth_rel,
            "d2U_at_re_cm1_A2": report.d2U_at_re,
            "Ke_cm1_A2": derived.Ke,
            "d2U_rel_err": d2U_rel,
            "q": derived.q,
            "pole_radius_A": pole,
            "beta_derived_inv_A": derived.beta,
            "beta_table_inv_A": params.beta_table,
            "beta_rel_diff": beta_rel,
            "alpha_w_corrected_inv_A": corrected,
            "alpha_w_as_published_inv_A": published,
            "alpha_w_difference_inv_A": difference,
        }, indent=2), failures
    pole_note = (
        f"{pole:.6f}" if pole is not None else "none for r > 0"
    )
    lines = [
        f"molecule                     {config.molecule}",
        f"re_A                         {report.re:.6f}",
        f"dU_at_re (rel to De/re)      {dU_rel:.3e}   target 0",
        f"depth_cm1                    {report.depth:.6f}   target {params.De:.6f} "
        f"(rel err {depth_rel:.3e})",
        f"d2U_at_re_cm1_A2             {report.d2U_at_re:.6f}   harmonic Ke "
        f"{derived.Ke:.6f} (rel diff {d2U_rel:.3e})",
        f"q                            {derived.q:.8f}",
        f"pole_radius_A                {pole_note}",
        f"beta_derived_inv_A           {derived.beta:.6f}",
    ]
    if params.beta_table is not None:
        agree = "agrees with" if beta_rel < 5.0e-5 else "DIFFERS from"
        lines.append(
            f"beta_table_inv_A             {params.beta_table:.6f}   derived value "
            f"{agree} the tabulated one (rel diff {beta_rel:.2e})"
        )
    lines += [
        f"alpha_w_corrected_inv_A      {notes['corrected']}",
        f"alpha_w_as_published_inv_A   {notes['as_published']}",
        f"alpha_w_difference_inv_A     {difference_note}",
    ]
    return "\n".join(lines), failures


def cmd_morse(config: RunConfig) -> tuple[str, list[str]]:
    """Morse vibrational column from the same De, re, we."""
    params = _molecule_params(config)
    rows: list[tuple[int, float]] = []
    failures: list[str] = []
    for nu in config.nu_list:
        try:
            rows.append((nu, morse_vibrational_energy(params.De, params.we, nu)))
        except ValueError as exc:
            failures.append(f"error: nu={nu}: {exc}")
    col = _energy_column(config)
    if config.output_format == "csv":
        lines = [f"molecule,nu,{col}"]
        for nu, value in rows:
            out = _energy_out(config, params, value)
            lines.append(f"{config.molecule},{nu},{_fmt_energy(config, out)}")
        text = "\n".join(lines)
    elif config.output_format == "json":
        text = json.dumps([
            {
                "molecule": config.molecule,
                "nu": nu,
                col: _energy_out(config, params, value),
            }
            for nu, value in rows
        ], indent=2)
    else:
        lines = [f"{'molecule':<10}{'nu':>4}{col:>18}"]
        for nu, value in rows:
            lines.append(
                f"{config.molecule:<10}{nu:>4}"
                f"{_energy_out(config, params, value):>18.4f}"
            )
        text = "\n".join(lines)
    return text, failures


def cmd_approx_error(config: RunConfig, points: int) -> str:
    """Centrifugal approximation error scan."""
    params = _molecule_params(config)
    derived = derive(params)
    coeffs = badawi_coefficients(derived.u, params.eta)
    radii = default_r_grid(params.re, points, pole=pole_radius(derived.b, derived.q))
    rational = centrifugal_approx_error(
        coeffs, derived.q, derived.u, derived.b, radii
    )
    exponential = greene_aldrich_error(derived.b, radii)
    if config.output_format == "csv":
        lines = ["r_A,rational_rel_err,exponential_rel_err"]
        for r, a, g in zip(radii, rational, exponential):
            lines.append(f"{r:.6f},{a:.6e},{g:.6e}")
        return "\n".join(lines)
    if config.output_format == "json":
        return json.dumps({
            "molecule": config.molecule,
            "r_A": list(radii),
            "rational_rel_err": list(rational),
            "exponential_rel_err": list(exponential),
        }, indent=2)
    r_eq = np.array([params.re])
    at_re_rational = float(
        centrifugal_approx_error(coeffs, derived.q, derived.u, derived.b, r_eq)[0]
    )
    at_re_exponential = float(greene_aldrich_error(derived.b, r_eq)[0])
    return "\n".join([
        f"molecule {config.molecule}: centrifugal approximation error, "
        f"{radii.size} radii in [{radii[0]:.3f}, {radii[-1]:.3f}] A",
        f"max |rational|    = {float(np.max(np.abs(rational))):.3e}",
        f"max |exponential| = {float(np.max(np.abs(exponential))):.3e}",
        f"at re: rational {at_re_rational:.3e}, "
        f"exponential {at_re_exponential:.3e}",
    ])


def _emit(text: str, failures: list[str], warnings: Sequence[str] = ()) -> None:
    """Print the output, then warnings and failures to stderr; failures
    set exit code 3."""
    click.echo(text)
    for line in [*warnings, *failures]:
        click.echo(line, err=True)
    if failures:
        sys.exit(EXIT_COMPUTE)


# ---------------------------------------------------------------------------
# click surface


@click.group()
@click.version_option(version=__version__, prog_name="rovib")
def cli() -> None:
    """Ro-vibrational levels of diatomics in a deformed Schioberg potential."""


_db_option = click.option(
    "--db", type=click.Path(), default=None, envvar=ENV_VAR,
    help="Molecule database file (default: bundled table).",
)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "csv", "json"]),
    default="text", show_default=True,
)


@cli.command()
@click.argument("molecule")
@click.option("--nu", "nu_spec", default="0..5", show_default=True,
              help="Vibrational indices, e.g. '0,3,5' or '0..9'.")
@click.option("--J", "j_spec", default="0", show_default=True,
              help="Rotational indices, same syntax as --nu.")
@click.option("--unit", type=click.Choice(["cm-1", "roy_eV"]), default="cm-1",
              show_default=True, help="Energy unit of the output column.")
@_format_option
@_db_option
def levels(molecule, nu_spec, j_spec, unit, fmt, db) -> None:
    """Closed-form level energies for one molecule.

    Examples:

        rovib levels NO --nu 0,3,5 --J 0,1,2,3,4,5,10,15,20

        rovib levels N2 --nu 0..9 --J 0 --format csv

        rovib levels O2 --nu 0 --unit roy_eV
    """
    nu_list, J_list = parse_grid(nu_spec, j_spec)
    config = RunConfig(
        molecule=molecule,
        nu_list=nu_list,
        J_list=J_list,
        energy_unit=unit,
        output_format=fmt,
        db=db,
    )
    _emit(*cmd_levels(config))


@cli.command()
@click.argument("molecule")
@click.option("--nu", "nu_spec", default="0,3,5", show_default=True,
              help="Vibrational indices.")
@click.option("--J", "j_spec", default=STANDARD_J, show_default=True,
              help="Rotational indices.")
@click.option("--grid-points", type=click.IntRange(max=MAX_GRID_POINTS),
              default=16384, show_default=True,
              help="Oracle grid size (an exact halving is added on top).")
@_format_option
@_db_option
def compare(molecule, nu_spec, j_spec, grid_points, fmt, db) -> None:
    """Closed form against the grid eigensolver.

    Examples:

        rovib compare NO --nu 0,3,5 --J 0,5,20

        rovib compare O2 --nu 0 --J 0 --grid-points 20000 --format csv
    """
    nu_list, J_list = parse_grid(nu_spec, j_spec)
    if len(J_list) * grid_points > MAX_ORACLE_POINTS:
        raise click.UsageError(
            f"--J x --grid-points asks for {len(J_list) * grid_points} oracle "
            f"grid points; the limit is {MAX_ORACLE_POINTS}"
        )
    config = RunConfig(
        molecule=molecule,
        nu_list=nu_list,
        J_list=J_list,
        output_format=fmt,
        db=db,
        grid_points=grid_points,
    )
    try:
        text, failures = cmd_compare(config)
    except ResolutionError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_COMPUTE)
    _emit(text, failures)


@cli.command()
@click.argument("molecule")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@_db_option
def varshni(molecule, fmt, db) -> None:
    """Minimum-condition residuals and derived shape parameters.

    Reports the finite-difference minimum checks (slope, depth,
    curvature), the deformation q with its pole radius, the derived
    Morse constant against the tabulated one, and both variants of the
    Lambert-W range parameter.

    Example:

        rovib varshni NO
    """
    config = RunConfig(molecule=molecule, output_format=fmt, db=db)
    _emit(*cmd_varshni(config))


@cli.command()
@click.argument("molecule")
@click.option("--nu", "nu_spec", default="0..9", show_default=True,
              help="Vibrational indices.")
@click.option("--unit", type=click.Choice(["cm-1", "roy_eV"]), default="cm-1",
              show_default=True)
@_format_option
@_db_option
def morse(molecule, nu_spec, unit, fmt, db) -> None:
    """Morse vibrational levels (J = 0) from the same De, re, we.

    Example:

        rovib morse N2 --nu 0..9 --format csv
    """
    config = RunConfig(
        molecule=molecule,
        nu_list=parse_index_list(nu_spec, "--nu"),
        energy_unit=unit,
        output_format=fmt,
        db=db,
    )
    _emit(*cmd_morse(config))


@cli.command("approx-error")
@click.argument("molecule")
@click.option("--points", type=click.IntRange(max=MAX_SCAN_POINTS), default=200,
              show_default=True, help="Number of radii in the scan.")
@_format_option
@_db_option
def approx_error(molecule, points, fmt, db) -> None:
    """Centrifugal approximation error across the well.

    Scans the relative error of the rational re^2/r^2 expansion and of
    the exponential (Greene-Aldrich style) substitute over log-spaced
    radii in [0.6 re, 5 re].

    Example:

        rovib approx-error NO --format csv
    """
    config = RunConfig(molecule=molecule, output_format=fmt, db=db)
    try:
        click.echo(cmd_approx_error(config, points))
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_COMPUTE)


def main() -> None:
    cli()
