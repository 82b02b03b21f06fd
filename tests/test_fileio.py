import csv
import math
import struct

import pytest

from arrayforge.fileio import _json_value, atomic_write_csv

FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2]
INTS = [0, -7, 2**70]
TEXTS = ["a,b", 'say "hi"', "plain"]


def test_csv_cells_are_repr_and_round_trip(tmp_path):
    values = FLOATS + INTS + TEXTS
    header = [f"c{i}" for i in range(len(values))]
    path = atomic_write_csv(tmp_path / "cells.csv", header, [values])
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


def test_mapping_rows_write_the_bytes_of_sequence_rows(tmp_path):
    values = FLOATS + INTS + TEXTS
    header = [f"c{i}" for i in range(len(values))]
    as_sequence = atomic_write_csv(tmp_path / "seq.csv", header, [values, values[::-1]])
    mappings = [dict(reversed(list(zip(header, row)))) for row in (values, values[::-1])]
    as_mapping = atomic_write_csv(tmp_path / "map.csv", header, mappings)
    assert as_mapping.read_bytes() == as_sequence.read_bytes()


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400, True, "0.5"], ids=["nan", "inf", "-inf", "10**400", "bool", "text"]
)
def test_json_number_must_be_a_finite_number(value):
    with pytest.raises(ValueError, match='"x" must be a finite number'):
        _json_value(value, "x", float)
