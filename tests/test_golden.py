"""Golden CLI corpus: exit code, stdout and stderr of fixed commands.

Each case below has a fixture ``tests/golden/<name>.txt`` holding what
``rovib <args>`` printed on the bundled database, and the test asserts
byte equality, so any change to a printed number, a format or a message
shows here.  Floats are printed at full repr in json, so the fixtures
carry numpy's and LAPACK's rounding; they were recorded on x86-64 with
numpy 2.4 and its bundled OpenBLAS 0.3.31.  After an intended output change, re-record
them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from rovib.cli import cli
from rovib.database import ENV_VAR, bundled_path

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "levels_NO_text": "levels NO --nu 0,3,5 --J 0,1,2,3,4,5,10,15,20",
    "levels_N2_csv": "levels N2 --nu 0..9 --J 0 --format csv",
    "levels_NO_json": "levels NO --nu 0,3 --J 0,20 --format json",
    "levels_O2_roy_text": "levels O2 --nu 0..2 --J 0,5 --unit roy_eV",
    "levels_O2_roy_csv": "levels O2 --nu 0..2 --J 0,5 --unit roy_eV --format csv",
    "levels_O2+_roy_json": "levels O2+ --nu 0,1 --J 0 --unit roy_eV --format json",
    "levels_beyond_bound_text": "levels NO --nu 54..57,200 --J 0,20",
    "levels_beyond_bound_csv": "levels NO --nu 54..57,200 --J 0,20 --format csv",
    "levels_beyond_bound_json": "levels NO --nu 55..57 --J 20 --format json",
    "levels_partial_text": "levels NO --nu 0,1 --J 0,1250",
    "levels_partial_csv": "levels NO --nu 0,1 --J 0,1250 --format csv",
    "levels_bad_index": "levels NO --nu 3..1",
    "morse_N2_text": "morse N2 --nu 0..9",
    "morse_N2_csv": "morse N2 --nu 0..9 --format csv",
    "morse_O2_roy_json": "morse O2 --nu 0..3 --unit roy_eV --format json",
    "morse_partial_csv": "morse N2 --nu 66..69 --format csv",
    "varshni_NO_text": "varshni NO",
    "varshni_N2_json": "varshni N2 --format json",
    "varshni_O2_text": "varshni O2",
    "varshni_O2_json": "varshni O2 --format json",
    "varshni_O2+_text": "varshni O2+",
    "approx_error_NO_text": "approx-error NO",
    "approx_error_N2_csv": "approx-error N2 --points 20 --format csv",
    "approx_error_O2+_json": "approx-error O2+ --points 10 --format json",
    "compare_NO_text": "compare NO --nu 0,3 --J 0,5 --grid-points 2000",
    "compare_O2_csv": "compare O2 --nu 0,2 --J 0,20 --grid-points 2000 --format csv",
    "compare_N2_json": "compare N2 --nu 0,1 --J 0 --grid-points 2000 --format json",
    "compare_partial": "compare NO --nu 0,2000 --J 0",
    "levels_unknown_molecule": "levels CO",
    "help": "--help",
    "levels_help": "levels --help",
    "compare_help": "compare --help",
    "varshni_help": "varshni --help",
    "morse_help": "morse --help",
    "approx_error_help": "approx-error --help",
}


def run(args: str) -> str:
    """One command's exit code, stdout and stderr as one fixture text.

    The bundled database's path depends on the checkout, so messages that
    name it carry ``<bundled>`` instead.
    """
    result = CliRunner().invoke(
        cli, args.split(), env={ENV_VAR: None}, catch_exceptions=False,
        terminal_width=80,
    )
    text = (
        f"exit {result.exit_code}\n--- stdout\n{result.stdout}"
        f"--- stderr\n{result.stderr}"
    )
    return text.replace(str(bundled_path()), "<bundled>")


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run(args))
