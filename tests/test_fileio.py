import csv
import io
import math
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from arrayforge import fileio
from arrayforge.fileio import _json_value, atomic_write_csv, atomic_write_text, csv_column

FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2]
INTS = [0, -7, 2**70]
TEXTS = ["a,b", 'say "hi"', "plain"]


def csv_writer_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def test_csv_cells_are_repr_and_round_trip(tmp_path):
    values = FLOATS + INTS + TEXTS
    header = [f"c{i}" for i in range(len(values))]
    path = atomic_write_csv(tmp_path / "cells.csv", header, [[value] for value in values])
    with open(path, newline="", encoding="utf-8") as handle:
        read_header, cells = list(csv.reader(handle))
    assert read_header == header
    for value, cell in zip(values, cells):
        if isinstance(value, float):
            assert cell == repr(value)
            assert struct.pack("<d", float(cell)) == struct.pack("<d", value)
        elif isinstance(value, int):
            assert cell == repr(value) and int(cell) == value
        else:
            assert cell == value


# Cells that csv.writer quotes, leaves bare or writes empty.
ODD_CELLS = ["", " padded ", "two\nlines", "carriage\rreturn", 'quote"inside', "a,b", None, True, False]


def test_columns_write_the_bytes_of_csv_writer(tmp_path):
    values = FLOATS + INTS + TEXTS + ODD_CELLS
    header = [f"c{i}" for i in range(len(values))]
    rows = [values, values[::-1]]
    expected = csv_writer_bytes(header, rows)
    columns = [list(column) for column in zip(*rows)]
    assert atomic_write_csv(tmp_path / "columns.csv", header, columns).read_bytes() == expected
    # a preformatted column gives the same bytes
    columns[0] = csv_column(columns[0])
    assert atomic_write_csv(tmp_path / "preformatted.csv", header, columns).read_bytes() == expected
    # a column of numbers only, and one without numbers
    numbers, others = FLOATS + INTS, (TEXTS + ODD_CELLS)[: len(FLOATS + INTS)]
    expected = csv_writer_bytes(["n", "o"], zip(numbers, others))
    assert atomic_write_csv(tmp_path / "split.csv", ["n", "o"], [numbers, others]).read_bytes() == expected
    # a status column that repeats its strings, one of them quoted, beside a mixed column with a NaN
    statuses = ["ok", 'a,"b"', "ok", "absent", 'a,"b"', "ok", "rank-deficient"]
    mixed = ["ok", math.nan, 'a,"b"', 3, None, "ok", 0.5]
    expected = csv_writer_bytes(["status", "mixed"], zip(statuses, mixed))
    assert atomic_write_csv(tmp_path / "repeated.csv", ["status", "mixed"], [statuses, mixed]).read_bytes() == expected


def test_a_string_column_quotes_each_distinct_string_once(monkeypatch):
    quoted = []
    real = fileio._quoted

    def counting(value):
        quoted.append(value)
        return real(value)

    monkeypatch.setattr(fileio, "_quoted", counting)
    column = csv_column(["ok", 'a,"b"', "absent"] * 50)
    assert sorted(quoted) == sorted(["ok", 'a,"b"', "absent"])
    assert column[:3] == ("ok", '"a,""b"""', "absent")


@pytest.mark.parametrize(
    "header, columns",
    [
        (["a", "b"], [[1.0, 2.0]]),
        (["a", "b"], [[1.0], ["x"], [3]]),
        (["a", "b"], [[1.0, 2.0], ["x"]]),
        (["rho", "method", "seed", "scf_error"], [[0.5, "x", 3, 1.0]]),
        ([""], [["", "x", None]]),
        ([], []),
    ],
    ids=["too-few", "too-many", "unequal", "a-row-as-one-column", "one-column", "no-columns"],
)
def test_columns_must_match_the_header_and_each_other(tmp_path, header, columns):
    # zip would drop the extra cells of a longer column, and a row passed as
    # the only column would write one column of its cells.  A single column
    # is rejected too: the writer leaves out csv.writer's quoting of a lone
    # empty cell.
    with pytest.raises(ValueError, match="equal-length columns"):
        atomic_write_csv(tmp_path / "bad.csv", header, columns)
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("length", [245, 255])
def test_any_valid_file_name_can_be_written(tmp_path, length):
    # The temporary file's name does not grow with the target's, so a name at
    # the usual 255-byte limit is written and nothing else is left behind.
    target = tmp_path / ("a" * (length - len(".json")) + ".json")
    assert atomic_write_text(target, "x").read_text() == "x"
    assert [path.name for path in tmp_path.iterdir()] == [target.name]


def test_artifacts_get_the_mode_open_gives_a_new_file(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("x")
    artifact = atomic_write_text(tmp_path / "artifact.txt", "x")
    assert stat.S_IMODE(artifact.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_artifacts_are_0644_under_umask_022(tmp_path):
    # The temporary file mkstemp makes is 0600; a child process sets its umask before the import.
    script = (
        "import os, sys; os.umask(0o022)\n"
        "from arrayforge.fileio import atomic_write_text\n"
        "print(oct(os.stat(atomic_write_text(sys.argv[1], 'x')).st_mode & 0o777))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.txt")], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0o644"


def test_artifact_mode_follows_the_umask_at_write_time(tmp_path):
    # The mode used to come from the umask in effect at import.
    script = (
        "import os, sys; os.umask(0o022)\n"
        "from arrayforge.fileio import atomic_write_text\n"
        "os.umask(0o077)\n"
        "print(oct(os.stat(atomic_write_text(sys.argv[1], 'x')).st_mode & 0o777))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.txt")], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0o600"


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400, True, "0.5"], ids=["nan", "inf", "-inf", "10**400", "bool", "text"]
)
def test_json_number_must_be_a_finite_number(value):
    with pytest.raises(ValueError, match='"x" must be a finite number'):
        _json_value(value, "x", float)
