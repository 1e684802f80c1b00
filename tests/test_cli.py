import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rovib
from rovib import __version__
from rovib import cli as cli_module
from rovib.cli import (
    MAX_BASIS,
    MAX_INDEX,
    MAX_INDICES,
    MAX_ORACLE_POINTS,
    MAX_PAIRS,
    MAX_SCAN_POINTS,
    UsageError,
    parse_index_list,
)
from rovib.spectrum import level
from rovib.units import wavenumber_to_roy_ev

from conftest import run_cli

HEADER = "name eta mu_1e-23_g alpha_inv_A re_A beta_inv_A De_cm1 we_cm1"
ZZ_ROW = "ZZ 0.013727 1.249 1.357795 1.151 2.7534 53341.0 1904.2"
# passes the range check, but its closed form puts nu = 0 below the
# effective potential's minimum (E = -799 cm^-1 at J = 0, -9.4e21 at J = 10)
BELOW_WELL_ROW = ("X -1000000.0 0.16308488071050078 6.823521683325615 1e-06 "
                  "26154.899529762522 0.3170294395385019 0.8036300849865148")


def fresh_rovib(args):
    """Run python args in a fresh interpreter with the package importable."""
    src = str(Path(rovib.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_parse_index_list():
    assert parse_index_list("0,3,5", "--nu") == (0, 3, 5)
    assert parse_index_list("0..4", "--nu") == (0, 1, 2, 3, 4)
    assert parse_index_list("0,2..4,9", "--J") == (0, 2, 3, 4, 9)
    for bad in ("x", "5..1", "-3", "", "1..x"):
        with pytest.raises(UsageError):
            parse_index_list(bad, "--nu")


def test_levels_csv_exact():
    result = run_cli(["levels", "NO", "--nu", "0", "--J", "0", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,J,E_cm1"
    assert lines[1] == "NO,0,0,947.756848"


def test_levels_text_defaults():
    result = run_cli(["levels", "NO"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 7  # header plus nu = 0..5 at J = 0
    assert "E_cm1" in lines[0]
    assert "947.7568" in lines[1]


def test_levels_row_major_grid():
    result = run_cli(["levels", "NO", "--nu", "0,3", "--J", "0,1,2,3,4,5,10,15,20",
                      "--format", "csv"])
    assert result.exit_code == 0
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 18
    assert rows[0].startswith("NO,0,0,") and rows[9].startswith("NO,3,0,")


def test_levels_roy_unit(db):
    result = run_cli(["levels", "NO", "--nu", "0", "--J", "0", "--unit", "roy_eV",
                      "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,J,E_roy_eV"
    value = float(lines[1].split(",")[-1])
    expected = wavenumber_to_roy_ev(level(db.get("NO"), 0, 0).E, 53341.0)
    assert value == pytest.approx(expected, abs=1.0e-7)
    assert value < 0.0


def test_levels_json():
    result = run_cli(["levels", "O2", "--nu", "0", "--J", "0,1", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.stdout)
    assert [(r["nu"], r["J"]) for r in rows] == [(0, 0), (0, 1)]
    assert all(r["bound"] for r in rows)
    assert rows[0]["E_cm1"] == pytest.approx(775.089, abs=5.0e-3)


def test_output_is_deterministic():
    args = ["levels", "N2", "--nu", "0..9", "--J", "0,5", "--format", "csv"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout

    args = ["compare", "NO", "--nu", "0", "--J", "0", "--grid-points", "2000",
            "--format", "csv"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.stdout == second.stdout


def test_unknown_molecule_is_usage_error():
    result = run_cli(["levels", "CO"])
    assert result.exit_code == 2
    assert "unknown molecule" in result.stderr


def test_bad_index_syntax_is_usage_error():
    result = run_cli(["levels", "NO", "--nu", "0..x"])
    assert result.exit_code == 2
    assert "--nu" in result.stderr


def test_unreadable_database_is_usage_error():
    result = run_cli(["levels", "NO", "--db", "/nonexistent/db.txt"])
    assert result.exit_code == 2
    assert "cannot read" in result.stderr


def test_partial_failure_keeps_output_and_exits_3():
    result = run_cli(["levels", "NO", "--nu", "0", "--J", "0,1300", "--format", "csv"])
    assert result.exit_code == 3
    assert "NO,0,0,947.756848" in result.stdout
    assert "no real solution" in result.stderr
    assert "J=1300" in result.stderr


def test_compare_ground_state():
    result = run_cli(["compare", "NO", "--nu", "0", "--J", "0", "--grid-points", "2048",
                      "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,J,E_cm1,E_oracle_cm1,delta_cm1"
    delta = float(lines[1].split(",")[-1])
    assert abs(delta) <= 0.1


def test_compare_text_summary():
    result = run_cli(["compare", "O2", "--nu", "0", "--J", "0,5", "--grid-points", "2000"])
    assert result.exit_code == 0
    assert "max|delta|" in result.stdout


def test_morse_column():
    result = run_cli(["morse", "N2", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "molecule,nu,E_cm1"
    assert len(lines) == 11
    assert float(lines[1].split(",")[-1]) == pytest.approx(1174.9477, abs=0.01)


def test_varshni_text_report():
    result = run_cli(["varshni", "NO"])
    assert result.exit_code == 0
    assert "-0.31262637" in result.stdout
    assert "none for r > 0" in result.stdout
    assert "DIFFERS" in result.stdout  # NO beta columns disagree at 9e-5

    result = run_cli(["varshni", "N2"])
    assert result.exit_code == 0
    assert "agrees with" in result.stdout


def test_varshni_reports_domain_failure_for_o2():
    result = run_cli(["varshni", "O2"])
    assert result.exit_code == 0
    assert "no real value" in result.stdout
    assert "-0.397" in result.stdout


def test_varshni_json():
    result = run_cli(["varshni", "O2", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["alpha_w_as_published_inv_A"] is None
    assert data["alpha_w_difference_inv_A"] is None
    assert data["alpha_w_corrected_inv_A"] > 0.0

    data = json.loads(run_cli(["varshni", "NO", "--format", "json"]).stdout)
    assert abs(data["alpha_w_difference_inv_A"]) > 1.0e-6
    assert data["q"] == pytest.approx(-0.31262637, abs=1.0e-8)


def test_varshni_corrected_domain_failure_exits_3(tmp_path):
    # eta = 0.9 puts the corrected Lambert-W argument at -2.73 < -1/e:
    # the report is still printed, without a traceback, and exits 3
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace('0.013727', '0.9')}\n")
    for fmt in ("text", "json"):
        result = run_cli(["varshni", "ZZ", "--format", fmt, "--db", str(custom)])
        assert result.exit_code == 3
        assert "error: alpha_w_corrected: no real value" in result.stderr
        assert "-2.73" in result.stderr
    assert json.loads(result.stdout)["alpha_w_corrected_inv_A"] is None


@pytest.mark.parametrize("old, new", [("0.013727", "nan"), ("53341.0", "inf")])
def test_non_finite_database_value_is_usage_error(tmp_path, old, new):
    # a non-finite number stops at load time instead of failing once per
    # level (eta = nan) or printing nan energies (De = inf)
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace(old, new)}\n")
    result = run_cli(["levels", "ZZ", "--format", "csv", "--db", str(custom)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "must be finite" in result.stderr


@pytest.mark.parametrize("old, new, field", [
    ("1.357795", "400", "alpha"),  # e^{2 alpha re} overflows
    ("1904.2", "1e200", "we"),  # we^2 overflows
    ("0.013727", "1e300", "eta"),  # eta e^{2 alpha re} squared overflows
])
def test_overflowing_database_value_is_usage_error(tmp_path, old, new, field):
    # finite but absurd values used to end in an OverflowError traceback
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace(old, new)}\n")
    for command in ("levels", "compare", "varshni", "approx-error"):
        result = run_cli([command, "ZZ", "--db", str(custom)])
        assert result.exit_code == 2, (command, result.stderr)
        assert result.stdout == ""
        assert f"ZZ: {field} must" in result.stderr


def test_varshni_pole_on_the_stencil_exits_3(tmp_path):
    # eta just below 1 puts the pole of the potential on the derivative
    # stencil around re: an error line and exit 3, not a traceback
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace('0.013727', '0.9999999999999999')}\n")
    result = run_cli(["varshni", "ZZ", "--db", str(custom)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: radius within 1e-9 A of the potential pole")


def test_morse_row_prints_levels(tmp_path):
    # eta = 0 is the Morse potential; it used to fail every cell (exit 3)
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW.replace('0.013727', '0')}\n")
    result = run_cli(["levels", "ZZ", "--J", "0,20", "--db", str(custom)])
    assert result.exit_code == 0
    assert result.stderr == ""
    assert len(result.stdout.splitlines()) == 13


def test_approx_error_without_a_pole_exits_0(tmp_path):
    # eta = 0 has no pole, but with b re = 6.4 the pole test scaled by the
    # largest radius rejected the scan: "radius too close to a pole", exit 3
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\nX 0 1.249 2.0 1.6 2.7534 53341.0 1904.2\n")
    for fmt in ("text", "csv", "json"):
        result = run_cli(["approx-error", "X", "--format", fmt, "--db", str(custom)])
        assert result.exit_code == 0, result.stderr
        assert result.stderr == ""
    assert len(json.loads(result.stdout)["rational_rel_err"]) == 200


def test_index_list_cap_counts_spans_before_expanding():
    assert len(parse_index_list(f"0..{MAX_INDICES - 1}", "--nu")) == MAX_INDICES
    for text in (f"0..{MAX_INDICES}", f"5,0..{MAX_INDICES - 1}",
                 ",".join(["1"] * (MAX_INDICES + 1))):
        with pytest.raises(UsageError, match="more than"):
            parse_index_list(text, "--nu")


def test_index_cap_accepts_2_to_the_53():
    # 2**53 is the largest integer a float64 holds exactly
    assert parse_index_list(f"0,{MAX_INDEX}", "--nu") == (0, 2**53)
    for text in (str(MAX_INDEX + 1), f"0..{MAX_INDEX + 1}", "1" + "0" * 400):
        with pytest.raises(UsageError, match="at most 2"):
            parse_index_list(text, "--J")


@pytest.mark.parametrize("flag", ["--nu", "--J"])
def test_huge_index_is_a_usage_error(flag):
    # an index past float range used to end in an OverflowError traceback
    other = "--J" if flag == "--nu" else "--nu"
    for command in ("levels", "compare"):
        result = run_cli([command, "NO", flag, "1" + "0" * 400, other, "0"])
        assert result.exit_code == 2
        assert f"{flag} indices must be at most 2**53" in result.stderr


def test_compare_past_the_well_exits_3_with_converges_reason():
    result = run_cli(["compare", "NO", "--nu", "47", "--J", "100"])
    assert result.exit_code == 3
    assert result.stderr == ("error: nu=47 J=100: nu above the well: its WKB count "
                             "at the top is 39.14; no oracle level\n")


def test_compare_below_the_well_exits_3_without_traceback(tmp_path):
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{BELOW_WELL_ROW}\n")
    proc = fresh_rovib([
        "-W", "error::RuntimeWarning", "-c", "from rovib.cli import main; main()",
        "compare", "X", "--nu", "0,2", "--J", "0,10", "--grid-points", "64",
        "--db", str(custom),
    ])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("below the effective potential's minimum") == 3


def test_pair_cap_is_a_usage_error(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr(cli_module, "level_table", not_called)
    monkeypatch.setattr("rovib.oracle.deviation_report", not_called)
    side = int(MAX_PAIRS**0.5) + 1  # side * side pairs, each list far below the cap
    spec = f"0..{side - 1}"
    for command in ("levels", "compare"):
        result = run_cli([command, "NO", "--nu", spec, "--J", spec])
        assert result.exit_code == 2
        assert f"the limit is {MAX_PAIRS}" in result.stderr


def test_grid_and_scan_caps_are_usage_errors(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr("rovib.oracle.deviation_report", not_called)
    monkeypatch.setattr(cli_module, "default_r_grid", not_called)
    assert MAX_BASIS == 2048  # --grid-points stops at the largest basis built
    for args, low, cap in (
        (["compare", "NO", "--nu", "0", "--J", "0", "--grid-points"], 4, MAX_BASIS),
        (["approx-error", "NO", "--points"], 2, MAX_SCAN_POINTS),
    ):
        for bad in (cap + 1, low - 1, -5):
            result = run_cli([*args, str(bad)])
            assert result.exit_code == 2
            assert f"{bad} is not in the range {low}<=x<={cap}" in result.stderr
        # the cap itself is accepted and goes on to the computation
        with pytest.raises(AssertionError, match="reached the computation"):
            run_cli([*args, str(cap)])


def test_oracle_work_cap_is_a_usage_error(monkeypatch):
    # len(--J) x --grid-points bounds the total oracle work of one compare
    def not_called(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    monkeypatch.setattr("rovib.oracle.deviation_report", not_called)

    def compare(n_J, grid_points):
        return run_cli(["compare", "NO", "--nu", "0", "--J", f"0..{n_J - 1}",
                        "--grid-points", str(grid_points)])

    for grid_points in (MAX_BASIS, MAX_BASIS // 2):
        n_J = MAX_ORACLE_POINTS // grid_points
        assert n_J * grid_points == MAX_ORACLE_POINTS
        result = compare(n_J + 1, grid_points)
        assert result.exit_code == 2
        assert (f"asks for {(n_J + 1) * grid_points} oracle basis functions; "
                f"the limit is {MAX_ORACLE_POINTS}") in result.stderr
        # the cap itself is accepted and goes on to the computation
        with pytest.raises(AssertionError, match="reached the computation"):
            compare(n_J, grid_points)


def test_csv_warns_about_rows_beyond_bound_range():
    args = ["levels", "NO", "--nu", "198..200", "--format", "csv"]
    result = run_cli(args)
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
    result = run_cli(["levels", "NO", "--nu", "55..57", "--format", "csv"])
    assert result.exit_code == 0
    assert result.stderr.startswith("warning: 2 of 3 rows ")  # nu = 56, 57
    for fmt in ("text", "json"):  # these mark the rows themselves
        result = run_cli([*args[:-1], fmt])
        assert result.exit_code == 0 and result.stderr == ""
    result = run_cli(["levels", "NO", "--nu", "0..55", "--format", "csv"])
    assert result.exit_code == 0 and result.stderr == ""


# Every command in every format, in three groups run in this order: the
# closed-form commands of at most spectrum.MAX_SCALAR_CELLS cells (no
# numpy), a larger table (numpy, no oracle), then compare (the oracle).
SMALL_COMMANDS = [
    "levels NO", "levels CO", "levels NO --nu 0..3 --J 0,20 --format csv",
    "levels NO --nu 0..3 --J 0,20 --unit roy_eV --format json",
    "levels NO --nu 0,3,5 --J 0..20 --format csv",
    "morse NO", "morse N2", "morse N2 --format csv", "morse N2 --format json",
    "varshni NO", "varshni NO --format json", "approx-error NO", "approx-error O2+",
    "approx-error O2+ --format csv", "approx-error O2+ --format json",
    "approx-error O2+ --points 10", "approx-error O2+ --points 10 --format csv",
    "approx-error O2+ --points 10 --format json", "--help",
]
LARGE_TABLE = "levels NO --nu 0..5 --J 0..60 --format csv"
COMPARE_COMMANDS = ["compare NO --nu 0 --J 0", "compare NO --nu 0 --J 0 --format csv",
                    "compare NO --nu 0 --J 0 --format json"]
ALL_COMMANDS = [*SMALL_COMMANDS, LARGE_TABLE, *COMPARE_COMMANDS]

RUN_COMMANDS = """
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import rovib
loaded("import rovib")
from rovib.database import load_database
load_database()
loaded("load_database")
import rovib.cli
loaded("import rovib.cli")
for command in COMMANDS:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            rovib.cli.main(command.split())
        except SystemExit as exc:
            assert exc.code in (0, 2), exc.code  # --help, levels CO
    loaded(command)
"""

FRESH_INTERPRETER = f"""
COMMANDS = {ALL_COMMANDS!r}

def loaded(step):
    print(step, "scipy" in sys.modules, "numpy" in sys.modules, file=sys.stderr)
{RUN_COMMANDS}
rovib.cli.main(["compare", "NO", "--nu", "0,3", "--J", "0,5",
                "--grid-points", "2000", "--format", "csv"])
loaded("compare")
from rovib.oracle import converge
from rovib.potentials import from_params
params = load_database().get("NO")
converge(from_params(params), 20, params.mu, 5)
loaded("converge")
"""


def test_no_command_loads_scipy():
    # a fresh interpreter, so that no other test's imports count; each
    # line: step, scipy loaded, numpy loaded; only a table of more than
    # spectrum.MAX_SCALAR_CELLS cells, compare and converge need numpy
    proc = fresh_rovib(["-c", FRESH_INTERPRETER])
    assert proc.returncode == 0, proc.stderr
    no_numpy = ["import rovib", "load_database", "import rovib.cli", *SMALL_COMMANDS]
    assert proc.stderr.splitlines() == [
        *(f"{step} False False" for step in no_numpy),
        *(f"{step} False True" for step in [LARGE_TABLE, *COMPARE_COMMANDS,
                                            "compare", "converge"]),
    ]
    assert proc.stdout == (
        "molecule,nu,J,E_cm1,E_oracle_cm1,delta_cm1\n"
        "NO,0,0,947.756848,947.756848,0.000000\n"
        "NO,0,5,998.204857,998.204415,0.000442\n"
        "NO,3,0,6453.240002,6453.240002,-0.000000\n"
        "NO,3,5,6501.894569,6501.876152,0.018418\n"
    )


SUBMODULES_LOADED = f"""
COMMANDS = {ALL_COMMANDS!r}

def loaded(step):
    print(step + ":", *sorted(m for m in sys.modules if m.startswith("rovib.")
                              or m in ("click", "dataclasses", "numpy")), file=sys.stderr)
{RUN_COMMANDS}"""


def test_each_call_loads_only_the_submodules_it_uses():
    # a fresh interpreter: import rovib loads no submodule, load_database
    # no potential model and no numpy, only compare loads the oracle, and
    # no step loads dataclasses (which would import inspect, ast, dis and
    # tokenize: about half of a cold start) or click
    proc = fresh_rovib(["-c", SUBMODULES_LOADED])
    assert proc.returncode == 0, proc.stderr
    closed_form = "rovib.cli rovib.database rovib.potentials rovib.rotational " \
                  "rovib.spectrum rovib.units"
    assert proc.stderr.splitlines() == [
        "import rovib:", "load_database: rovib.database rovib.units",
        "import rovib.cli: " + closed_form,
        *(f"{command}: {closed_form}" for command in SMALL_COMMANDS),
        f"{LARGE_TABLE}: numpy {closed_form}",
        *(f"{command}: numpy rovib.cli rovib.database rovib.oracle rovib.potentials "
          "rovib.rotational rovib.spectrum rovib.units" for command in COMPARE_COMMANDS),
    ]


@pytest.mark.parametrize("module", ["rovib", "rovib.cli"])
def test_python_dash_m_runs_the_console_script(module):
    args = ["levels", "NO", "--nu", "0..3", "--format", "csv"]
    script = fresh_rovib(["-c", "from rovib.cli import main; main()", *args])
    proc = fresh_rovib(["-m", module, *args])
    assert proc.returncode == script.returncode == 0, proc.stderr
    assert proc.stdout == script.stdout
    assert proc.stdout.splitlines()[1] == "NO,0,0,947.756848"


@pytest.mark.parametrize("ending", ["closed pipe", "interrupt"])
def test_an_ended_call_leaves_no_traceback(ending):
    # as under click: a reader that leaves early (rovib ... | head) ends
    # the call quietly with exit 0, Ctrl-C with "Aborted!" and exit 1
    src = str(Path(rovib.__file__).resolve().parents[1])
    args = (["levels", "N2", "--nu", "0..66", "--J", "0..200"] if ending == "closed pipe"
            else ["compare", "O2", "--nu", "40..54", "--J", "0..31"])  # about 8 s
    launch = ("import sys; from rovib.cli import main; "
              "print('in main', file=sys.stderr, flush=True); main()")
    proc = subprocess.Popen(
        [sys.executable, "-c", launch, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stderr.readline() == "in main\n"
    if ending == "closed pipe":
        proc.stdout.readline()
        proc.stdout.close()
    else:
        time.sleep(0.5)  # inside the oracle's solves, which take seconds
        proc.send_signal(signal.SIGINT)
    stderr = proc.stderr.read()
    if ending == "closed pipe":
        assert (proc.wait(timeout=60), stderr) == (0, "")
    else:
        assert (proc.wait(timeout=60), stderr) == (1, "\nAborted!\n")


def test_compare_fails_per_cell_and_bounds_its_work():
    # nu = 2000 lies far beyond the bound range: the oracle solves nothing
    # for it, the nu = 0 row still prints and the cell fails with exit 3
    start = time.perf_counter()
    result = run_cli(["compare", "NO", "--nu", "0,2000", "--J", "0", "--format", "csv"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3
    assert result.stdout.splitlines()[1].startswith("NO,0,0,947.756848,947.7568")
    assert len(result.stdout.splitlines()) == 2
    assert result.stderr == (
        "error: nu=2000 J=0: beyond the bound range; no oracle level\n"
    )


def test_approx_error_csv():
    result = run_cli(["approx-error", "NO", "--points", "10", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "r_A,rational_rel_err,exponential_rel_err"
    assert len(lines) == 11


def test_db_flag_and_env(tmp_path):
    custom = tmp_path / "custom.txt"
    custom.write_text(f"{HEADER}\n{ZZ_ROW}\n")

    result = run_cli(["levels", "ZZ", "--nu", "0", "--db", str(custom)])
    assert result.exit_code == 0

    result = run_cli(["levels", "ZZ", "--nu", "0"], env={"ROVIB_DB": str(custom)})
    assert result.exit_code == 0

    # an explicit flag wins over the environment
    result = run_cli(["levels", "ZZ", "--nu", "0", "--db", str(custom)],
                     env={"ROVIB_DB": "/nonexistent/db.txt"})
    assert result.exit_code == 0


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


# database rows (eta, mu in 1e-23 g, alpha, re, beta, De, we): half near
# the bundled molecules, half anywhere SpectroscopicParams accepts (each
# magnitude in [1e-6, 1e6], 2 alpha re at most 50, eta != 1)
_physical_row = st.tuples(
    st.floats(-0.1, 0.1), st.floats(0.8, 2.0), st.floats(0.9, 1.8),
    st.floats(0.9, 1.6), st.floats(1.5, 3.5), st.floats(2.0e4, 1.2e5),
    st.floats(800.0, 3000.0),
)
_wide_row = st.tuples(
    st.floats(-1.0e6, 1.0e6).filter(lambda eta: eta != 1.0)
    | st.sampled_from([0.0, 0.9999999999999999, 1.0000000000000002, -1.0e6]),
    _log_uniform(-5.9, 5.1),  # mu: 1e-23 g, so amu lies in [1e-6, 1e6]
    _log_uniform(-5.9, 5.9), _log_uniform(-5.9, 5.9), _log_uniform(-5.9, 5.9),
    _log_uniform(-5.9, 5.9), _log_uniform(-5.9, 5.9),
).map(lambda row: (*row[:2], min(row[2], 24.9 / row[3]), *row[3:]))
_COMMANDS = [
    ["levels", "X", "--nu", "0,3", "--J", "0,20"],
    ["levels", "X", "--nu", "0..29", "--J", "0..9"],  # past MAX_SCALAR_CELLS
    ["compare", "X", "--nu", "0,1", "--J", "0,20", "--grid-points", "256"],
    ["varshni", "X"],
    ["morse", "X"],
    ["approx-error", "X", "--points", "20"],
]


def _reject(constant):
    raise ValueError(f"{constant} is not json")


@settings(max_examples=80, deadline=None)
@given(row=_physical_row | _wide_row)
def test_random_databases_exit_cleanly_in_every_format(tmp_path_factory, row):
    # every command, in every format it offers, on a random molecule:
    # exit 0, 2 or 3, no exception but SystemExit (run_cli lets any other
    # through), and json that parses as strict json (no NaN or Infinity)
    custom = tmp_path_factory.mktemp("db") / "custom.txt"
    custom.write_text(f"{HEADER}\nX {' '.join(map(repr, row))}\n")
    for args in _COMMANDS:
        formats = ("text", "json") if args[0] == "varshni" else ("text", "csv", "json")
        for fmt in formats:
            result = run_cli([*args, "--format", fmt, "--db", str(custom)])
            assert result.exit_code in (0, 2, 3), (args, fmt, result.stderr)
            if fmt == "json" and (result.exit_code == 0 or result.stdout):
                json.loads(result.stdout, parse_constant=_reject)


def test_help_and_version():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    for command in ("levels", "compare", "varshni", "morse", "approx-error"):
        assert command in result.stdout
    result = run_cli(["--version"])
    assert result.exit_code == 0
    assert __version__ in result.stdout


def test_every_public_name_resolves():
    assert len(set(rovib.__all__)) == len(rovib.__all__)
    for name in rovib.__all__:
        assert getattr(rovib, name) is not None, name


def test_version_matches_pyproject():
    # the version is written in the package and in pyproject.toml; keep
    # the two from drifting apart
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__
