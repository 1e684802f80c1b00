"""
cli.py

Command line front end on argparse: each command registers its options
with @command, and main(argv) calls it with them as keywords.  Usage
errors, argparse's own and the UsageErrors a command raises, print as
usage line, help hint, blank line, "Error: ...", and exit 2.

Every command describes its output once and prints it with one _emit
call, in each of text, csv and json: a table (columns of (key, text spec
or None, csv spec) over row dicts, plus a text mark per row) and report
entries ((json key or None, value, text line or None)).  A command adds
a column by adding it to its columns and its row dicts.  The json shapes
are those the commands have always printed: levels and morse a bare list
of rows, compare, varshni and approx-error one object of their entries.

Exit codes: 0 success, 2 usage problems (unknown molecule, unreadable
database, bad index syntax, a request above MAX_INDICES, MAX_INDEX,
MAX_PAIRS or MAX_ORACLE_POINTS, --grid-points outside 4..MAX_BASIS,
--points outside 2..MAX_SCAN_POINTS), 3 when a requested computation
fails; in the latter case whatever could be computed is still printed
and the failures go to stderr.  Warnings (csv rows beyond the bound
range) also go to stderr and leave the exit code alone.  Identical
arguments and database give byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import zip_longest

from . import __version__
from .database import DatabaseError, UnknownMoleculeError, load_database
from .potentials import (
    MAX_BASIS,
    MAX_ORACLE_POINTS,
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
from .spectrum import MAX_INDEX, MAX_PAIRS, level_table, morse_vibrational_energy
from .units import wavenumber_to_roy_ev

EXIT_USAGE = 2
EXIT_COMPUTE = 3

STANDARD_J = "0,1,2,3,4,5,10,15,20"
MAX_INDICES = 10_000  # indices in one --nu or --J list
MAX_SCAN_POINTS = 100_000  # approx-error --points


class UsageError(Exception):
    """A bad command line found after parsing; main prints it under the
    command's usage and exits 2."""


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
            raise UsageError(
                f"Invalid value: bad {label} token {token!r}; use e.g. '0,3,5' or '0..9'"
            ) from None
        if hi > MAX_INDEX:
            raise UsageError(f"Invalid value: {label} indices must be at most 2**53")
        if len(out) + hi - lo + 1 > MAX_INDICES:
            raise UsageError(
                f"Invalid value: {label} lists more than {MAX_INDICES} indices")
        out.extend(range(lo, hi + 1))
    if not out or any(i < 0 for i in out):
        raise UsageError(f"Invalid value: {label} indices must be non-negative")
    return tuple(out)


def parse_grid(nu_spec: str, j_spec: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The --nu and --J lists of one request, at most MAX_PAIRS pairs."""
    nu_list = parse_index_list(nu_spec, "--nu")
    J_list = parse_index_list(j_spec, "--J")
    if len(nu_list) * len(J_list) > MAX_PAIRS:
        raise UsageError(
            f"--nu x --J asks for {len(nu_list) * len(J_list)} levels; "
            f"the limit is {MAX_PAIRS}"
        )
    return nu_list, J_list


def _params(molecule: str, db: str | None) -> SpectroscopicParams:
    """The molecule's constants; a bad database or unknown name exits 2."""
    try:
        return load_database(db).get(molecule)
    except (DatabaseError, UnknownMoleculeError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# --unit: energy column, its csv format and the conversion from cm^-1
UNITS = {
    "cm-1": ("E_cm1", ".6f", lambda E, De: E),
    "roy_eV": ("E_roy_eV", ".8f", wavenumber_to_roy_ev),
}
# (key, text spec, csv spec): the text header takes the spec's width
MOLECULE_NU_J = (("molecule", "<10", ""), ("nu", ">4", ""), ("J", ">4", ""))


def _emit(fmt: str, columns=(), rows=(), marks=(), entries=(), failures=(),
          warnings=()) -> None:
    """Print one command's output in fmt, then warnings and failures to
    stderr; failures set exit code 3.

    The table is columns of (key, text spec or None, csv spec) over row
    dicts, with one text mark per row; entries are the report's (json
    key or None, value, text line or None).  text prints the columns
    that have a text spec (none: no table), each row with its mark, then
    the entries' lines; csv prints every column; json dumps the entries
    with a key as one object or, with no entries, the row dicts whole.
    """
    if fmt == "json":
        import json

        report = {key: value for key, value, _ in entries if key is not None}
        out = json.dumps(report if entries else rows, indent=2)
    else:
        text = fmt == "text"
        sep, marks = ("", marks) if text else (",", ())
        cells = [(key, spec) for key, text_spec, csv_spec in columns
                 if (spec := text_spec if text else csv_spec) is not None]
        lines = []
        if cells:  # the header takes each spec's width
            lines.append(sep.join(format(key, spec.split(".")[0])
                                  for key, spec in cells))
            lines += [sep.join(format(row[key], spec) for key, spec in cells) + mark
                      for row, mark in zip_longest(rows, marks, fillvalue="")]
        if text:
            lines += [line for _, _, line in entries if line is not None]
        out = "\n".join(lines)
    print(out, flush=True)  # before stderr, where both go to one stream
    for line in [*warnings, *failures]:
        print(line, file=sys.stderr)
    if failures:
        sys.exit(EXIT_COMPUTE)


# ---------------------------------------------------------------------------
# argparse surface


class _Parser(argparse.ArgumentParser):
    """No option abbreviations, --help but no -h, docstrings as written,
    and click's usage errors: usage line, help hint, blank line, error."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False,
                         formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        sys.stderr.write(f"Usage: {self.usage}\nTry '{self.prog} --help' for help.\n"
                         f"\nError: {message}\n")
        sys.exit(EXIT_USAGE)


COMMANDS = []  # (command function, its options) in --help order


def command(*options):
    """Register a command and its options; each also takes MOLECULE and --db."""
    def register(run):
        COMMANDS.append((run, options))
        return run
    return register


def _int_in(low: int, high: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
    if not low <= value <= high:
        raise argparse.ArgumentTypeError(f"{value} is not in the range {low}<=x<={high}.")
    return value


def _option(flag: str, dest: str, default, help: str = "", choices=None, span=None):
    """(flag, add_argument keywords) of an option whose --help shows its
    default: text, one of choices, or an integer in span = (low, high)."""
    kwargs, shown = {"dest": dest, "default": default, "metavar": "TEXT"}, "%(default)s"
    if choices:
        kwargs.update(choices=choices, metavar=f"[{'|'.join(choices)}]")
    if span:
        kwargs.update(type=partial(_int_in, *span), metavar="INTEGER RANGE")
        shown += "; {}<=x<={}".format(*span)
    return flag, {**kwargs, "help": f"{help}  [default: {shown}]".lstrip()}


_FORMAT = _option("--format", "fmt", "text", choices=("text", "csv", "json"))


def _parser() -> _Parser:
    """The rovib command line: one subparser per registered command."""
    top = _Parser(prog="rovib", usage="rovib [OPTIONS] COMMAND [ARGS]...",
                  description="Ro-vibrational levels of diatomics in a deformed "
                              "Schioberg potential.")
    top.add_argument("--version", action="version",
                     version=f"rovib, version {__version__}",
                     help="Show the version and exit.")
    commands = top.add_subparsers(title="commands", metavar="COMMAND", prog="rovib",
                                  required=True)
    for run, options in COMMANDS:
        name = run.__name__.replace("_", "-")
        doc = "\n".join(line.removeprefix("    ") for line in run.__doc__.splitlines())
        sub = commands.add_parser(name, usage=f"rovib {name} [OPTIONS] MOLECULE",
                                  help=doc.split("\n")[0], description=doc)
        sub.add_argument("molecule", metavar="MOLECULE",
                         help="A molecule of the database.")
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.add_argument("--db", metavar="PATH",
                         help="Molecule database file (default: bundled table).")
        sub.set_defaults(run=run, parser=sub)
    return top


@command(
    _option("--nu", "nu_spec", "0..5", "Vibrational indices, e.g. '0,3,5' or '0..9'."),
    _option("--J", "j_spec", "0", "Rotational indices, same syntax as --nu."),
    _option("--unit", "unit", "cm-1", "Energy unit of the output column.", tuple(UNITS)),
    _FORMAT,
)
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
    warnings = [  # text marks them, json has bound
        f"warning: {unbound} of {len(rows)} rows lie beyond the bound range; "
        f"their {col} is not a bound level"] if unbound and fmt == "csv" else []
    _emit(fmt, [*MOLECULE_NU_J, (col, ">18.4f", csv_spec)], rows, marks,
          failures=[f"error: nu={f.nu} J={f.J}: {f.error}" for f in failures],
          warnings=warnings)


@command(
    _option("--nu", "nu_spec", "0,3,5", "Vibrational indices."),
    _option("--J", "j_spec", STANDARD_J, "Rotational indices."),
    _option("--grid-points", "grid_points", MAX_BASIS,
            "Largest sinc-DVR basis the oracle may build per J.", span=(4, MAX_BASIS)),
    _FORMAT,
)
def compare(molecule, nu_spec, j_spec, grid_points, fmt, db) -> None:
    """Closed form against a sinc-DVR eigensolver.

    J values whose levels fit one box share a dense sinc-DVR basis: the
    lowest is refined until N and 2N basis functions agree to 1e-6 cm^-1,
    the others are solved in its lowest 2M eigenvectors until M and 2M
    agree; a J that shares none is refined alone (json rows carry the
    error estimate and the basis size).  Levels past the bound range or
    unconverged within --grid-points exit 3.

    Examples:

        rovib compare NO --nu 0,3,5 --J 0,5,20

        rovib compare O2 --nu 0..40 --J 0 --format json
    """
    nu_list, J_list = parse_grid(nu_spec, j_spec)
    basis = len(J_list) * grid_points
    if basis > MAX_ORACLE_POINTS:
        raise UsageError(
            f"--J x --grid-points asks for {basis} oracle basis functions; "
            f"the limit is {MAX_ORACLE_POINTS}"
        )
    from .oracle import deviation_report  # the one command that needs the oracle

    report = deviation_report(
        _params(molecule, db), list(nu_list), list(J_list), n_points=grid_points
    )
    rows = [{"nu": row.nu, "J": row.J, "E_cm1": row.E_closed,
             "E_oracle_cm1": row.E_oracle, "delta_cm1": row.delta,
             "oracle_err_cm1": row.oracle_err, "basis": row.basis}
            for row in report.rows]
    # with no row compared, json has null and text no summary line
    max_abs, mean = (report.max_abs_delta, report.mean_delta) if rows else (None, None)
    summary = (f"max|delta| = {max_abs:.4f} cm^-1, mean delta = {mean:.4f} cm^-1"
               if rows else None)
    _emit(fmt, [*MOLECULE_NU_J, ("E_cm1", ">16.4f", ".6f"),
                ("E_oracle_cm1", ">16.4f", ".6f"), ("delta_cm1", ">12.4f", ".6f")],
          [{"molecule": molecule, **row} for row in rows],
          entries=[("molecule", molecule, None), ("rows", rows, None),
                   ("max_abs_delta_cm1", max_abs, summary),
                   ("mean_delta_cm1", mean, None)],
          failures=[f"error: nu={f.nu} J={f.J}: {f.error}" for f in report.failures])


@command(_option("--format", "fmt", "text", choices=("text", "json")))
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
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_COMPUTE)
    pole = pole_radius(derived.b, derived.q)
    dU_rel = abs(report.dU_at_re) * params.re / params.De
    depth_rel = abs(report.depth - params.De) / params.De
    d2U_rel = abs(report.d2U_at_re - derived.Ke) / derived.Ke
    beta, beta_rel, beta_note = params.beta_table, None, None
    if beta is not None:
        beta_rel = abs(derived.beta - beta) / beta
        agree = "agrees with" if beta_rel < 5.0e-5 else "DIFFERS from"
        beta_note = (f"{beta:.6f}   derived value {agree} the tabulated one "
                     f"(rel diff {beta_rel:.2e})")
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
    # (json key, value, text after the key or None: json only)
    entries = [
        ("molecule", molecule, molecule),
        ("re_A", report.re, f"{report.re:.6f}"),
        ("dU_at_re_rel", dU_rel, f"{dU_rel:.3e}   target 0"),
        ("depth_cm1", report.depth,
         f"{report.depth:.6f}   target {params.De:.6f} (rel err {depth_rel:.3e})"),
        ("depth_rel_err", depth_rel, None),
        ("d2U_at_re_cm1_A2", report.d2U_at_re, f"{report.d2U_at_re:.6f}   harmonic "
         f"Ke {derived.Ke:.6f} (rel diff {d2U_rel:.3e})"),
        ("Ke_cm1_A2", derived.Ke, None),
        ("d2U_rel_err", d2U_rel, None),
        ("q", derived.q, f"{derived.q:.8f}"),
        ("pole_radius_A", pole, "none for r > 0" if pole is None else f"{pole:.6f}"),
        ("beta_derived_inv_A", derived.beta, f"{derived.beta:.6f}"),
        ("beta_table_inv_A", beta, beta_note),
        ("beta_rel_diff", beta_rel, None),
        ("alpha_w_corrected_inv_A", corrected, notes["corrected"]),
        ("alpha_w_as_published_inv_A", published, notes["as_published"]),
        ("alpha_w_difference_inv_A", difference, difference_note),
    ]
    labels = {"dU_at_re_rel": "dU_at_re (rel to De/re)"}
    _emit(fmt, entries=[(key, value, None if note is None
                         else f"{labels.get(key, key):<29}{note}")
                        for key, value, note in entries],
          failures=[f"error: alpha_w_corrected: {notes['corrected']}"]
          if corrected is None else [])


@command(
    _option("--nu", "nu_spec", "0..9", "Vibrational indices."),
    _option("--unit", "unit", "cm-1", choices=tuple(UNITS)),
    _FORMAT,
)
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
    _emit(fmt, [*MOLECULE_NU_J[:2], (col, ">18.4f", csv_spec)], rows,
          failures=failures)


@command(
    _option("--points", "points", 200, "Number of radii in the scan.",
            span=(2, MAX_SCAN_POINTS)),
    _FORMAT,
)
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
        scan = [*radii, params.re]  # each error is pointwise: the radii, then re
        *rational, rational_at_re = centrifugal_approx_error(
            coeffs, derived.q, derived.u, derived.b, scan)
        *exponential, exponential_at_re = greene_aldrich_error(derived.b, scan)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_COMPUTE)
    # the table is csv only, so its rows are a generator that only csv
    # runs: text prints the summary lines, json the columns
    _emit(fmt, [("r_A", None, ".6f"), ("rational_rel_err", None, ".6e"),
                ("exponential_rel_err", None, ".6e")],
          ({"r_A": r, "rational_rel_err": a, "exponential_rel_err": g}
           for r, a, g in zip(radii, rational, exponential)),
          entries=[
              ("molecule", molecule, f"molecule {molecule}: centrifugal approximation "
               f"error, {len(radii)} radii in [{radii[0]:.3f}, {radii[-1]:.3f}] A"),
              ("r_A", radii, None),
              ("rational_rel_err", rational,
               f"max |rational|    = {max(map(abs, rational)):.3e}"),
              ("exponential_rel_err", exponential,
               f"max |exponential| = {max(map(abs, exponential)):.3e}"),
              (None, None, f"at re: rational {rational_at_re:.3e}, "
               f"exponential {exponential_at_re:.3e}"),
          ])


def main(argv: list[str] | None = None) -> None:
    """The rovib console script: run the command that argv (default
    sys.argv[1:]) names; usage errors exit 2, failed computations 3."""
    try:
        namespace, extra = _parser().parse_known_args(argv)
        args = vars(namespace)
        run, parser = args.pop("run"), args.pop("parser")
        try:
            if extra:  # left over by the command's parser
                raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
            run(**args)
        except UsageError as exc:
            parser.error(str(exc))
    except BrokenPipeError:  # the reader left early (rovib ... | head): exit 0
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except KeyboardInterrupt:
        sys.exit("\nAborted!")


if __name__ == "__main__":
    main()
