import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from typing import NamedTuple

import pytest

from rovib import load_database
from rovib.cli import main


@pytest.fixture(scope="session")
def db():
    return load_database()


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args, env=None) -> CliResult:
    """rovib args, run in-process at 80 columns: exit code, stdout, stderr.

    env sets environment variables for the call, None unsetting one.
    Only SystemExit is caught, so any other exception fails the test.
    """
    saved = dict(os.environ)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    for key, value in (env or {}).items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return CliResult(code, out.getvalue(), err.getvalue())
