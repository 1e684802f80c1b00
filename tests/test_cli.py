import json
import os
import subprocess
import sys
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import rovib
from rovib import __version__
from rovib import cli as cli_module
from rovib.cli import (
    MAX_BASIS,
    MAX_GRID_POINTS,
    MAX_INDICES,
    MAX_ORACLE_POINTS,
    MAX_PAIRS,
    MAX_SCAN_POINTS,
    cli,
    parse_index_list,
)
from rovib.spectrum import level
from rovib.units import wavenumber_to_roy_ev

HEADER = "name eta mu_1e-23_g alpha_inv_A re_A beta_inv_A De_cm1 we_cm1"
ZZ_ROW = "ZZ 0.013727 1.249 1.357795 1.151 2.7534 53341.0 1904.2"


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_index_list():
    assert parse_index_list("0,3,5", "--nu") == (0, 3, 5)
    assert parse_index_list("0..4", "--nu") == (0, 1, 2, 3, 4)
    assert parse_index_list("0,2..4,9", "--J") == (0, 2, 3, 4, 9)
    for bad in ("x", "5..1", "-3", "", "1..x"):
        with pytest.raises(click.BadParameter):
            parse_index_list(bad, "--nu")


def test_levels_csv_exact(runner):
    result = runner.invoke(
        cli, ["levels", "NO", "--nu", "0", "--J", "0", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,J,E_cm1"
    assert lines[1] == "NO,0,0,947.756848"


def test_levels_text_defaults(runner):
    result = runner.invoke(cli, ["levels", "NO"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 7  # header plus nu = 0..5 at J = 0
    assert "E_cm1" in lines[0]
    assert "947.7568" in lines[1]


def test_levels_row_major_grid(runner):
    result = runner.invoke(
        cli,
        ["levels", "NO", "--nu", "0,3", "--J", "0,1,2,3,4,5,10,15,20",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 18
    assert rows[0].startswith("NO,0,0,") and rows[9].startswith("NO,3,0,")


def test_levels_roy_unit(runner, db):
    result = runner.invoke(
        cli,
        ["levels", "NO", "--nu", "0", "--J", "0", "--unit", "roy_eV",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,J,E_roy_eV"
    value = float(lines[1].split(",")[-1])
    expected = wavenumber_to_roy_ev(level(db.get("NO"), 0, 0).E, 53341.0)
    assert value == pytest.approx(expected, abs=1.0e-7)
    assert value < 0.0


def test_levels_json(runner):
    result = runner.invoke(
        cli, ["levels", "O2", "--nu", "0", "--J", "0,1", "--format", "json"]
    )
    assert result.exit_code == 0
    rows = json.loads(result.stdout)
    assert [(r["nu"], r["J"]) for r in rows] == [(0, 0), (0, 1)]
    assert all(r["bound"] for r in rows)
    assert rows[0]["E_cm1"] == pytest.approx(775.089, abs=5.0e-3)


def test_output_is_deterministic(runner):
    args = ["levels", "N2", "--nu", "0..9", "--J", "0,5", "--format", "csv"]
    first = runner.invoke(cli, args)
    second = runner.invoke(cli, args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout

    args = ["compare", "NO", "--nu", "0", "--J", "0", "--grid-points", "2000",
            "--format", "csv"]
    first = runner.invoke(cli, args)
    second = runner.invoke(cli, args)
    assert first.stdout == second.stdout


def test_unknown_molecule_is_usage_error(runner):
    result = runner.invoke(cli, ["levels", "CO"])
    assert result.exit_code == 2
    assert "unknown molecule" in result.stderr


def test_bad_index_syntax_is_usage_error(runner):
    result = runner.invoke(cli, ["levels", "NO", "--nu", "0..x"])
    assert result.exit_code == 2
    assert "--nu" in result.stderr


def test_unreadable_database_is_usage_error(runner):
    result = runner.invoke(cli, ["levels", "NO", "--db", "/nonexistent/db.txt"])
    assert result.exit_code == 2
    assert "cannot read" in result.stderr


def test_partial_failure_keeps_output_and_exits_3(runner):
    result = runner.invoke(
        cli, ["levels", "NO", "--nu", "0", "--J", "0,1300", "--format", "csv"]
    )
    assert result.exit_code == 3
    assert "NO,0,0,947.756848" in result.stdout
    assert "no real solution" in result.stderr
    assert "J=1300" in result.stderr


def test_compare_ground_state(runner):
    result = runner.invoke(
        cli,
        ["compare", "NO", "--nu", "0", "--J", "0", "--grid-points", "16384",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,J,E_cm1,E_oracle_cm1,delta_cm1"
    delta = float(lines[1].split(",")[-1])
    assert abs(delta) <= 0.1


def test_compare_text_summary(runner):
    result = runner.invoke(
        cli, ["compare", "O2", "--nu", "0", "--J", "0,5", "--grid-points", "2000"]
    )
    assert result.exit_code == 0
    assert "max|delta|" in result.stdout


def test_morse_column(runner):
    result = runner.invoke(cli, ["morse", "N2", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,E_cm1"
    assert len(lines) == 11
    assert float(lines[1].split(",")[-1]) == pytest.approx(1174.9477, abs=0.01)


def test_varshni_text_report(runner):
    result = runner.invoke(cli, ["varshni", "NO"])
    assert result.exit_code == 0
    assert "-0.31262637" in result.stdout
    assert "none for r > 0" in result.stdout
    assert "DIFFERS" in result.stdout  # NO beta columns disagree at 9e-5

    result = runner.invoke(cli, ["varshni", "N2"])
    assert result.exit_code == 0
    assert "agrees with" in result.stdout


def test_varshni_reports_domain_failure_for_o2(runner):
    result = runner.invoke(cli, ["varshni", "O2"])
    assert result.exit_code == 0
    assert "no real value" in result.stdout
    assert "-0.397" in result.stdout


def test_varshni_json(runner):
    result = runner.invoke(cli, ["varshni", "O2", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["alpha_w_as_published_inv_A"] is None
    assert data["alpha_w_difference_inv_A"] is None
    assert data["alpha_w_corrected_inv_A"] > 0.0

    data = json.loads(runner.invoke(cli, ["varshni", "NO", "--format", "json"]).stdout)
    assert abs(data["alpha_w_difference_inv_A"]) > 1.0e-6
    assert data["q"] == pytest.approx(-0.31262637, abs=1.0e-8)


def test_varshni_corrected_domain_failure_exits_3(runner, tmp_path):
    # eta = 0.9 puts the corrected Lambert-W argument at -2.73 < -1/e:
    # the report is still printed, without a traceback, and exits 3
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace('0.013727', '0.9')}\n")
    for fmt in ("text", "json"):
        result = runner.invoke(
            cli, ["varshni", "ZZ", "--format", fmt, "--db", str(custom)]
        )
        assert result.exit_code == 3
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: alpha_w_corrected: no real value" in result.stderr
        assert "-2.73" in result.stderr
    assert json.loads(result.stdout)["alpha_w_corrected_inv_A"] is None


@pytest.mark.parametrize("old, new", [("0.013727", "nan"), ("53341.0", "inf")])
def test_non_finite_database_value_is_usage_error(runner, tmp_path, old, new):
    # a non-finite number stops at load time instead of failing once per
    # level (eta = nan) or printing nan energies (De = inf)
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace(old, new)}\n")
    result = runner.invoke(
        cli, ["levels", "ZZ", "--format", "csv", "--db", str(custom)]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "must be finite" in result.stderr


@pytest.mark.parametrize("old, new, field", [
    ("1.357795", "400", "alpha"),  # e^{2 alpha re} overflows
    ("1904.2", "1e200", "we"),  # we^2 overflows
    ("0.013727", "1e300", "eta"),  # eta e^{2 alpha re} squared overflows
])
def test_overflowing_database_value_is_usage_error(runner, tmp_path, old, new, field):
    # finite but absurd values used to end in an OverflowError traceback
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace(old, new)}\n")
    for command in ("levels", "compare", "varshni", "approx-error"):
        result = runner.invoke(cli, [command, "ZZ", "--db", str(custom)])
        assert result.exit_code == 2, (command, result.exception)
        assert result.stdout == ""
        assert f"ZZ: {field} must" in result.stderr


def test_varshni_pole_on_the_stencil_exits_3(runner, tmp_path):
    # eta just below 1 puts the pole of the potential on the derivative
    # stencil around re: an error line and exit 3, not a traceback
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace('0.013727', '0.9999999999999999')}\n")
    result = runner.invoke(cli, ["varshni", "ZZ", "--db", str(custom)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: radius within 1e-9 A of the potential pole")


def test_morse_row_prints_levels(runner, tmp_path):
    # eta = 0 is the Morse potential; it used to fail every cell (exit 3)
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace('0.013727', '0')}\n")
    result = runner.invoke(cli, ["levels", "ZZ", "--J", "0,20", "--db", str(custom)])
    assert result.exit_code == 0
    assert result.stderr == ""
    assert len(result.stdout.splitlines()) == 13


def test_index_list_cap_counts_spans_before_expanding():
    assert len(parse_index_list(f"0..{MAX_INDICES - 1}", "--nu")) == MAX_INDICES
    for text in (f"0..{MAX_INDICES}", f"5,0..{MAX_INDICES - 1}",
                 ",".join(["1"] * (MAX_INDICES + 1))):
        with pytest.raises(click.BadParameter, match="more than"):
            parse_index_list(text, "--nu")


def test_pair_cap_is_a_usage_error(runner, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr(cli_module, "level_table", not_called)
    monkeypatch.setattr(cli_module, "deviation_report", not_called)
    side = int(MAX_PAIRS**0.5) + 1  # side * side pairs, each list far below the cap
    spec = f"0..{side - 1}"
    for command in ("levels", "compare"):
        result = runner.invoke(cli, [command, "NO", "--nu", spec, "--J", spec])
        assert result.exit_code == 2
        assert f"the limit is {MAX_PAIRS}" in result.stderr


def test_grid_and_scan_caps_are_usage_errors(runner, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr(cli_module, "deviation_report", not_called)
    monkeypatch.setattr(cli_module, "default_r_grid", not_called)
    assert MAX_GRID_POINTS >= MAX_BASIS  # the largest basis the oracle builds
    for args, low, cap in (
        (["compare", "NO", "--nu", "0", "--J", "0", "--grid-points"], 4,
         MAX_GRID_POINTS),
        (["approx-error", "NO", "--points"], 2, MAX_SCAN_POINTS),
    ):
        for bad in (cap + 1, low - 1, -5):
            result = runner.invoke(cli, [*args, str(bad)])
            assert result.exit_code == 2
            assert f"{bad} is not in the range {low}<=x<={cap}" in result.stderr
        # the cap itself is accepted and goes on to the computation
        result = runner.invoke(cli, [*args, str(cap)])
        assert "reached the computation" in str(result.exception)


def test_oracle_work_cap_is_a_usage_error(runner, monkeypatch):
    # len(--J) x --grid-points bounds the total oracle work of one compare
    def not_called(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr(cli_module, "deviation_report", not_called)

    def compare(n_J, grid_points):
        return runner.invoke(cli, ["compare", "NO", "--nu", "0", "--J",
                                   f"0..{n_J - 1}", "--grid-points", str(grid_points)])

    for grid_points in (MAX_BASIS, MAX_GRID_POINTS):
        n_J = MAX_ORACLE_POINTS // grid_points
        assert n_J * grid_points == MAX_ORACLE_POINTS
        result = compare(n_J + 1, grid_points)
        assert result.exit_code == 2
        assert f"the limit is {MAX_ORACLE_POINTS}" in result.stderr
        # the cap itself is accepted and goes on to the computation
        result = compare(n_J, grid_points)
        assert "reached the computation" in str(result.exception)


def test_csv_warns_about_rows_beyond_bound_range(runner):
    args = ["levels", "NO", "--nu", "198..200", "--format", "csv"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0
    assert result.stdout == (
        "molecule,nu,J,E_cm1\n"
        "NO,198,0,-269315.686853\n"
        "NO,199,0,-273798.436915\n"
        "NO,200,0,-278311.090664\n"
    )
    assert result.stderr == (
        "warning: 3 of 3 rows lie beyond the bound range; "
        "their E_cm1 is not a bound level\n"
    )
    result = runner.invoke(cli, ["levels", "NO", "--nu", "55..57", "--format", "csv"])
    assert result.exit_code == 0
    assert result.stderr.startswith("warning: 2 of 3 rows ")  # nu = 56, 57
    for fmt in ("text", "json"):  # these mark the rows themselves
        result = runner.invoke(cli, [*args[:-1], fmt])
        assert result.exit_code == 0 and result.stderr == ""
    result = runner.invoke(cli, ["levels", "NO", "--nu", "0..55", "--format", "csv"])
    assert result.exit_code == 0 and result.stderr == ""


FRESH_INTERPRETER = """
import sys
from contextlib import redirect_stdout
from io import StringIO

def scipy_loaded(step):
    print(step, "scipy" in sys.modules, file=sys.stderr)

import rovib
scipy_loaded("import rovib")
import rovib.cli
scipy_loaded("import rovib.cli")
for args in (["levels", "NO"], ["morse", "NO"], ["varshni", "NO"],
             ["approx-error", "NO"]):
    with redirect_stdout(StringIO()):
        rovib.cli.cli.main(args, standalone_mode=False)
    scipy_loaded(args[0])
rovib.cli.cli.main(["compare", "NO", "--nu", "0,3", "--J", "0,5",
                    "--grid-points", "2000", "--format", "csv"],
                   standalone_mode=False)
scipy_loaded("compare")
from rovib.database import load_database
from rovib.oracle import converge
from rovib.potentials import from_params
params = load_database().get("NO")
converge(from_params(params), 20, params.mu, 5)
scipy_loaded("converge")
"""


def test_no_command_loads_scipy():
    # a fresh interpreter, so that no other test's imports count
    src = str(Path(rovib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "import rovib False", "import rovib.cli False", "levels False",
        "morse False", "varshni False", "approx-error False", "compare False",
        "converge False",
    ]
    assert proc.stdout == (
        "molecule,nu,J,E_cm1,E_oracle_cm1,delta_cm1\n"
        "NO,0,0,947.756848,947.756848,0.000000\n"
        "NO,0,5,998.204857,998.204415,0.000442\n"
        "NO,3,0,6453.240002,6453.240002,-0.000000\n"
        "NO,3,5,6501.894569,6501.876152,0.018418\n"
    )


def test_compare_fails_per_cell_and_bounds_its_work(runner):
    # nu = 2000 lies far beyond the bound range: the oracle solves nothing
    # for it, the nu = 0 row still prints and the cell fails with exit 3
    start = time.perf_counter()
    result = runner.invoke(cli, ["compare", "NO", "--nu", "0,2000", "--J", "0",
                                 "--format", "csv"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3
    assert result.stdout.splitlines()[1].startswith("NO,0,0,947.756848,947.7568")
    assert len(result.stdout.splitlines()) == 2
    assert result.stderr == (
        "error: nu=2000 J=0: beyond the bound range; no oracle level\n"
    )


def test_approx_error_csv(runner):
    result = runner.invoke(
        cli, ["approx-error", "NO", "--points", "10", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "r_A,rational_rel_err,exponential_rel_err"
    assert len(lines) == 11


def test_db_flag_and_env(runner, tmp_path):
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW}\n")

    result = runner.invoke(cli, ["levels", "ZZ", "--nu", "0", "--db", str(custom)])
    assert result.exit_code == 0

    result = runner.invoke(
        cli, ["levels", "ZZ", "--nu", "0"], env={"ROVIB_DB": str(custom)}
    )
    assert result.exit_code == 0

    # an explicit flag wins over the environment
    result = runner.invoke(
        cli,
        ["levels", "ZZ", "--nu", "0", "--db", str(custom)],
        env={"ROVIB_DB": "/nonexistent/db.txt"},
    )
    assert result.exit_code == 0


def test_help_and_version(runner):
    result = runner.invoke(cli, ["--help"])
    assert result.exit_code == 0
    for command in ("levels", "compare", "varshni", "morse", "approx-error"):
        assert command in result.stdout
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.stdout


def test_version_matches_pyproject():
    # the version is written in the package and in pyproject.toml; keep
    # the two from drifting apart
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__
