import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from rovib.cli import cli
from rovib.database import (
    ENV_VAR,
    DatabaseError,
    UnknownMoleculeError,
    bundled_path,
    load_database,
    resolve_path,
)
from rovib.units import mass_grams_to_amu

from reference_levels import ETA_NO_EFFECTIVE

HEADER = "name eta mu_1e-23_g alpha_inv_A re_A beta_inv_A De_cm1 we_cm1"
ROW = "XX 0.05 1.30 1.30 1.20 2.70 50000.0 1800.0"


def write_db(tmp_path, body, name="custom.txt"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_bundled_contents(db):
    assert db.names == ["NO", "O2", "O2+", "N2"]
    assert db.path == str(bundled_path())
    no = db.get("NO")
    assert no.De == 53341.0
    assert no.re == 1.151
    assert no.we == 1904.2
    assert no.alpha == 1.357795
    assert no.eta == ETA_NO_EFFECTIVE
    assert no.beta_table == 2.7534
    assert no.mu == pytest.approx(mass_grams_to_amu(1.249), rel=1.0e-14)
    assert db.get("O2").eta == 0.027262
    assert db.get("O2+").De == 54688.0
    assert db.get("N2").we == 2358.6


def test_unknown_molecule(db):
    with pytest.raises(UnknownMoleculeError) as err:
        db.get("CO")
    message = err.value.args[0]
    assert "CO" in message and "NO" in message and db.path in message


def test_load_custom_file(tmp_path):
    path = write_db(tmp_path, f"# comment\n\n{HEADER}\n{ROW}\n")
    custom = load_database(path)
    assert custom.names == ["XX"]
    xx = custom.get("XX")
    assert xx.De == 50000.0
    assert xx.mu == pytest.approx(mass_grams_to_amu(1.30), rel=1.0e-14)
    assert xx.beta_table == 2.70


def test_resolve_path_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_path() == bundled_path()
    env_file = tmp_path / "env.txt"
    monkeypatch.setenv(ENV_VAR, str(env_file))
    assert resolve_path() == env_file
    assert resolve_path(tmp_path / "explicit.txt") == tmp_path / "explicit.txt"


def test_env_var_is_honored(tmp_path, monkeypatch):
    path = write_db(tmp_path, f"{HEADER}\n{ROW}\n")
    monkeypatch.setenv(ENV_VAR, str(path))
    assert load_database().names == ["XX"]


def test_missing_file():
    with pytest.raises(DatabaseError, match="cannot read"):
        load_database("/nonexistent/molecules.txt")


def test_header_required(tmp_path):
    path = write_db(tmp_path, f"# note\n{ROW}\n")
    with pytest.raises(DatabaseError, match="expected header") as err:
        load_database(path)
    assert ":2:" in str(err.value)


def test_field_count_checked(tmp_path):
    path = write_db(tmp_path, f"{HEADER}\nXX 0.05 1.30\n")
    with pytest.raises(DatabaseError, match="expected 8 fields"):
        load_database(path)


def test_numeric_fields_checked(tmp_path):
    bad = ROW.replace("50000.0", "fifty")
    path = write_db(tmp_path, f"{HEADER}\n{bad}\n")
    with pytest.raises(DatabaseError, match="De_cm1"):
        load_database(path)


def test_duplicates_rejected(tmp_path):
    path = write_db(tmp_path, f"{HEADER}\n{ROW}\n{ROW}\n")
    with pytest.raises(DatabaseError, match="duplicate") as err:
        load_database(path)
    assert ":3:" in str(err.value)


def test_parameter_validation_names_molecule_and_line(tmp_path):
    degenerate = ROW.replace("0.05", "1.0", 1)
    path = write_db(tmp_path, f"{HEADER}\n{degenerate}\n")
    with pytest.raises(DatabaseError, match="eta") as err:
        load_database(path)
    assert ":2: XX:" in str(err.value)


@pytest.mark.parametrize("column, old, new", [
    ("eta", "0.05", "nan"),
    ("De_cm1", "50000.0", "inf"),
])
def test_non_finite_values_rejected(tmp_path, column, old, new):
    path = write_db(tmp_path, f"{HEADER}\n{ROW.replace(old, new, 1)}\n")
    with pytest.raises(DatabaseError, match="must be finite") as err:
        load_database(path)
    assert ":2: XX:" in str(err.value)


def test_empty_and_headerless_files(tmp_path):
    with pytest.raises(DatabaseError, match="no header"):
        load_database(write_db(tmp_path, "# only comments\n", name="a.txt"))
    with pytest.raises(DatabaseError, match="no molecules"):
        load_database(write_db(tmp_path, f"{HEADER}\n", name="b.txt"))


_token = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "-1", "1e400", "nan", "-inf", "1_0", "0x1p3", "XX"]),
    st.text(st.characters(codec="utf-8", exclude_categories=("Z", "Cc")),
            min_size=1, max_size=6),
)
_row = st.lists(_token, min_size=7, max_size=9).map(" ".join)
# ROW with up to three numbers replaced by huge or tiny magnitudes
_magnitude = st.sampled_from([
    "0", "1e-300", "-1e-300", "1e-7", "1e-6", "20", "400", "1e6", "1e7",
    "1e30", "1e200", "1e300", "-1e300", "1.7e308",
])
_huge_row = st.lists(
    st.tuples(st.integers(1, 7), _magnitude), min_size=1, max_size=3
).map(lambda subs: " ".join(
    dict(subs).get(i, field) for i, field in enumerate(ROW.split())
))
_database_text = st.one_of(
    st.text(st.characters(codec="utf-8")),
    st.lists(_row, max_size=4).map(lambda rows: "\n".join([HEADER, *rows])),
    _huge_row.map(lambda row: f"{HEADER}\n{row}"),
)


@settings(max_examples=200, deadline=None)
@given(body=st.one_of(_database_text, st.binary()))
def test_arbitrary_input_raises_only_database_error(tmp_path_factory, body):
    # a row either fails to load or runs the closed-form commands without
    # a traceback (an overflow used to surface only there, as exit 1)
    path = tmp_path_factory.getbasetemp() / "fuzz-db.txt"
    path.write_bytes(body.encode() if isinstance(body, str) else body)
    try:
        db = load_database(path)
    except DatabaseError:
        return
    assert db.names
    for name in db.names:
        for command in ("levels", "varshni", "approx-error"):
            # "--": a drawn name may look like an option, e.g. "-1"
            result = CliRunner().invoke(cli, [command, "--db", str(path), "--", name])
            assert result.exit_code in (0, 3), (command, result.exception)
