"""
cli.py

Command line front end.  The table commands (levels, morse, compare and
approx-error's csv) build row dicts and print them through _render: text
and csv print the table's columns, json dumps the rows whole.

Exit codes: 0 success, 2 usage problems (unknown molecule, unreadable
database, bad index syntax, a request above MAX_INDICES, MAX_INDEX,
MAX_PAIRS or MAX_ORACLE_POINTS, --grid-points outside
4..MAX_GRID_POINTS, --points outside 2..MAX_SCAN_POINTS), 3 when a
requested computation fails; in the latter case whatever could be
computed is still printed and the failures go to stderr.  Warnings
(csv rows beyond the bound range) also go to stderr and leave the exit
code alone.  Identical arguments and database give byte-identical
output.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from itertools import zip_longest

import click

from . import __version__
from .database import DatabaseError, UnknownMoleculeError, load_database
from .oracle import MAX_BASIS, deviation_report
from .potentials import (
    SingularRadiusError,
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
MAX_INDEX = 2**53  # largest --nu or --J index: the largest exact float64 integer
MAX_PAIRS = 250_000  # (nu, J) pairs in one levels or compare request
# compare --grid-points: largest sinc-DVR basis per J (the oracle uses at
# most MAX_BASIS); 16384 keeps the budget existing callers pass valid
MAX_GRID_POINTS = 16384
# compare: len(--J) x min(--grid-points, MAX_BASIS).  The largest allowed
# request, 32 J each refined to MAX_BASIS, took 23 s and 97 MB on 2 vCPUs
MAX_ORACLE_POINTS = 2**16
MAX_SCAN_POINTS = 100_000  # approx-error --points


def parse_index_list(text: str, label: str) -> tuple[int, ...]:
    """Parse '0,3,5' or '0..9' (or a mix) into a tuple of indices.

    At most MAX_INDICES indices, none above MAX_INDEX; a span is counted
    before it is expanded.
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
        if hi > MAX_INDEX:
            raise click.BadParameter(f"{label} indices must be at most 2**53")
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


def _params(molecule: str, db: str | None) -> SpectroscopicParams:
    """The molecule's constants; a bad database or unknown name exits 2."""
    try:
        return load_database(db).get(molecule)
    except (DatabaseError, UnknownMoleculeError) as exc:
        click.echo(f"error: {exc.args[0]}", err=True)
        sys.exit(EXIT_USAGE)


# --unit: energy column, its csv format and the conversion from cm^-1
UNITS = {
    "cm-1": ("E_cm1", ".6f", lambda E, De: E),
    "roy_eV": ("E_roy_eV", ".8f", wavenumber_to_roy_ev),
}
# (key, text spec, csv spec): the text header takes the spec's width
MOLECULE_NU_J = (("molecule", "<10", ""), ("nu", ">4", ""), ("J", ">4", ""))


def _render(
    fmt: str, columns: Sequence[tuple[str, str | None, str]], rows: list[dict],
    marks: Sequence[str] = (),
) -> str:
    """Rows as a text table (each line ending in its mark), csv, or json;
    json dumps the row dicts whole, keys outside the columns too."""
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        lines = [",".join(key for key, _, _ in columns)]
        lines += [",".join(format(row[key], spec) for key, _, spec in columns)
                  for row in rows]
    else:
        lines = ["".join(format(key, spec.split(".")[0]) for key, spec, _ in columns)]
        lines += ["".join(format(row[key], spec) for key, spec, _ in columns) + mark
                  for row, mark in zip_longest(rows, marks, fillvalue="")]
    return "\n".join(lines)


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
    "--db", type=click.Path(), default=None,
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
@click.option("--unit", type=click.Choice(list(UNITS)), default="cm-1",
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
    params = _params(molecule, db)
    col, csv_spec, convert = UNITS[unit]
    table, failures = level_table(params, list(nu_list), list(J_list))
    rows = [{"molecule": molecule, "nu": row.nu, "J": row.J,
             col: convert(row.E, params.De), "bound": row.bound} for row in table]
    marks = ["" if row.bound else "  (beyond bound range)" for row in table]
    unbound = sum(not row.bound for row in table)
    warnings = []
    if unbound and fmt == "csv":  # text marks them, json has bound
        warnings.append(
            f"warning: {unbound} of {len(rows)} rows lie beyond the bound range; "
            f"their {col} is not a bound level"
        )
    _emit(
        _render(fmt, [*MOLECULE_NU_J, (col, ">18.4f", csv_spec)], rows, marks),
        [f"error: nu={f.nu} J={f.J}: {f.error}" for f in failures],
        warnings,
    )


@cli.command()
@click.argument("molecule")
@click.option("--nu", "nu_spec", default="0,3,5", show_default=True,
              help="Vibrational indices.")
@click.option("--J", "j_spec", default=STANDARD_J, show_default=True,
              help="Rotational indices.")
@click.option("--grid-points", type=click.IntRange(4, MAX_GRID_POINTS),
              default=MAX_BASIS, show_default=True,
              help=f"Largest sinc-DVR basis the oracle may build per J "
                   f"(at most {MAX_BASIS} are used).")
@_format_option
@_db_option
def compare(molecule, nu_spec, j_spec, grid_points, fmt, db) -> None:
    """Closed form against a sinc-DVR eigensolver.

    Each J is one dense Hamiltonian, refined until N and 2N basis
    functions agree to 1e-6 cm^-1 (json rows carry |E_N - E_2N| and 2N);
    levels past the bound range or unconverged within --grid-points exit 3.

    Examples:

        rovib compare NO --nu 0,3,5 --J 0,5,20

        rovib compare O2 --nu 0..40 --J 0 --format json
    """
    nu_list, J_list = parse_grid(nu_spec, j_spec)
    basis = len(J_list) * min(grid_points, MAX_BASIS)
    if basis > MAX_ORACLE_POINTS:
        raise click.UsageError(
            f"--J x --grid-points asks for {basis} oracle basis functions; "
            f"the limit is {MAX_ORACLE_POINTS}"
        )
    report = deviation_report(
        _params(molecule, db), list(nu_list), list(J_list), n_points=grid_points
    )
    rows = [{"nu": row.nu, "J": row.J, "E_cm1": row.E_closed,
             "E_oracle_cm1": row.E_oracle, "delta_cm1": row.delta,
             "oracle_err_cm1": row.oracle_err, "basis": row.basis}
            for row in report.rows]
    if fmt == "json":
        text = json.dumps({
            "molecule": molecule,
            "rows": rows,
            "max_abs_delta_cm1": report.max_abs_delta if rows else None,
            "mean_delta_cm1": report.mean_delta if rows else None,
        }, indent=2)
    else:
        text = _render(fmt, [
            *MOLECULE_NU_J, ("E_cm1", ">16.4f", ".6f"),
            ("E_oracle_cm1", ">16.4f", ".6f"), ("delta_cm1", ">12.4f", ".6f"),
        ], [{"molecule": molecule, **row} for row in rows])
    if fmt == "text" and rows:
        text += (
            f"\nmax|delta| = {report.max_abs_delta:.4f} cm^-1, "
            f"mean delta = {report.mean_delta:.4f} cm^-1"
        )
    _emit(text, [f"error: nu={f.nu} J={f.J}: {f.error}" for f in report.failures])


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
    params = _params(molecule, db)
    derived = derive(params)
    try:
        report = verify_varshni(from_params(params), derived)
    except SingularRadiusError as exc:  # eta near 1 puts a pole by re
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_COMPUTE)
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
    if fmt == "json":
        text = json.dumps({
            "molecule": molecule,
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
        }, indent=2)
    else:
        pole_note = f"{pole:.6f}" if pole is not None else "none for r > 0"
        lines = [
            f"molecule                     {molecule}",
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
        text = "\n".join(lines)
    _emit(text, failures)


@cli.command()
@click.argument("molecule")
@click.option("--nu", "nu_spec", default="0..9", show_default=True,
              help="Vibrational indices.")
@click.option("--unit", type=click.Choice(list(UNITS)), default="cm-1",
              show_default=True)
@_format_option
@_db_option
def morse(molecule, nu_spec, unit, fmt, db) -> None:
    """Morse vibrational levels (J = 0) from the same De, re, we.

    Example:

        rovib morse N2 --nu 0..9 --format csv
    """
    nu_list = parse_index_list(nu_spec, "--nu")
    params = _params(molecule, db)
    col, csv_spec, convert = UNITS[unit]
    rows, failures = [], []
    for nu in nu_list:
        try:
            E = morse_vibrational_energy(params.De, params.we, nu)
        except ValueError as exc:
            failures.append(f"error: nu={nu}: {exc}")
        else:
            rows.append({"molecule": molecule, "nu": nu, col: convert(E, params.De)})
    _emit(_render(fmt, [*MOLECULE_NU_J[:2], (col, ">18.4f", csv_spec)], rows),
          failures)


@cli.command("approx-error")
@click.argument("molecule")
@click.option("--points", type=click.IntRange(2, MAX_SCAN_POINTS), default=200,
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
    params = _params(molecule, db)
    try:
        derived = derive(params)
        coeffs = badawi_coefficients(derived.u, params.eta)
        pole = pole_radius(derived.b, derived.q)
        radii = default_r_grid(params.re, points, pole=pole)
        rational = centrifugal_approx_error(
            coeffs, derived.q, derived.u, derived.b, radii
        )
        exponential = greene_aldrich_error(derived.b, radii)
        if fmt == "csv":
            text = _render(fmt, [
                ("r_A", None, ".6f"), ("rational_rel_err", None, ".6e"),
                ("exponential_rel_err", None, ".6e"),
            ], [{"r_A": r, "rational_rel_err": a, "exponential_rel_err": g}
                for r, a, g in zip(radii, rational, exponential)])
        elif fmt == "json":
            text = json.dumps({
                "molecule": molecule,
                "r_A": list(radii),
                "rational_rel_err": list(rational),
                "exponential_rel_err": list(exponential),
            }, indent=2)
        else:
            import numpy as np

            r_eq = np.array([params.re])
            at_re_rational = float(centrifugal_approx_error(
                coeffs, derived.q, derived.u, derived.b, r_eq
            )[0])
            at_re_exponential = float(greene_aldrich_error(derived.b, r_eq)[0])
            text = "\n".join([
                f"molecule {molecule}: centrifugal approximation error, "
                f"{radii.size} radii in [{radii[0]:.3f}, {radii[-1]:.3f}] A",
                f"max |rational|    = {float(np.max(np.abs(rational))):.3e}",
                f"max |exponential| = {float(np.max(np.abs(exponential))):.3e}",
                f"at re: rational {at_re_rational:.3e}, "
                f"exponential {at_re_exponential:.3e}",
            ])
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_COMPUTE)
    click.echo(text)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
