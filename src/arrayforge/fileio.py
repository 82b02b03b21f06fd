"""Atomic artifact writing and JSON reading: the package's only file I/O.

All writers serialize fully in memory, write to a temporary file next to
the target, and rename it into place, so an interrupted run never leaves
a truncated artifact behind.  The temporary file is created as ``open``
creates a new file, so an artifact gets mode 0666 less the umask in
effect when it is written (0644 under umask 022).  Output is canonical
(sorted JSON keys, LF line endings, repr floats) so identical inputs
produce identical bytes.  Every CSV artifact goes through the one column
writer ``atomic_write_csv``, so this module owns the CSV cell format:
callers pass at least two columns of Python scalars, or a ``csv_column``
of them, and never encode cells themselves.  A row of two or more cells
is never blank, so no cell needs the quoting ``csv.writer`` gives a lone
empty one.  Document readers check each value with ``_require_keys``,
``_json_value`` and ``_json_numbers``, which name the key.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

__all__ = [
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_csv",
    "csv_column",
    "load_json",
]


# Created with mode 0666 as open() creates a file, so the kernel applies the umask;
# O_EXCL and O_NOFOLLOW never reuse or follow a name that is already there.
_TEMP_FLAGS = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0)


def atomic_write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_json(path, obj) -> Path:
    return atomic_write_text(path, canonical_json(obj))


class CsvColumn(tuple):
    """The CSV text of a column of cells, made by ``csv_column``; a caller may write it to several files."""


@functools.lru_cache(maxsize=1024, typed=True)
def _quoted(value) -> str:
    """``value`` as ``csv.writer`` writes it in a row of several cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, None])
    return buffer.getvalue()[: -len(",\n")]


def _cell(value) -> str:
    # csv.writer writes a float as its repr and an int as its str, which equals its repr.
    return repr(value) if type(value) in (float, int) else _quoted(value)


def csv_column(values) -> CsvColumn:
    """The CSV text of each Python scalar in ``values``."""
    values = list(values)
    # A column of numbers skips the per-cell dispatch.
    return CsvColumn(map(repr if set(map(type, values)) <= {float, int} else _cell, values))


def atomic_write_csv(path, header, columns) -> Path:
    """Write equal-length ``columns`` of Python scalars, or their ``csv_column``, under ``header`` as CSV.

    The bytes are those of ``csv.writer(lineterminator="\\n")`` for the
    rows.  A ``float`` or ``int`` cell is ``repr(value)`` (``nan`` and
    ``inf`` included), so floats round-trip exactly.  Pass Python scalars,
    not numpy ones.  Raises ``ValueError`` unless there are at least two
    columns, one per header cell, all of the same length.
    """
    columns = [column if isinstance(column, CsvColumn) else csv_column(column) for column in columns]
    lengths = list(map(len, columns))
    if len(columns) < 2 or len(columns) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"{path}: expected {len(header)} equal-length columns (two or more), got lengths {lengths}")
    lines = [",".join(map(_cell, header)), *map(",".join, zip(*columns))]
    return atomic_write_text(path, "\n".join(lines) + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# JSON kind -> (its name, the Python types that hold it); a tuple passes as
# a list so that a document's to_dict() form reads back.
_JSON_KINDS = {int: ("an integer", int), float: ("a finite number", (int, float)), str: ("a string", str),
               list: ("a list", (list, tuple)), dict: ("an object", dict)}


def _require_keys(data, keys, document: str) -> None:
    """Raise ``ValueError`` unless ``data`` is a JSON object holding all of ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{document} document must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f'{document} document is missing "{key}"')


def _json_value(value, key: str, kind: type):
    """``value``, read from document key ``key``, if it is of JSON type ``kind``.

    ``kind`` is int, float (a finite number, returned as a float), str, list
    or dict; a boolean is neither an integer nor a number.
    """
    name, types = _JSON_KINDS[kind]
    typed = isinstance(value, types) and not isinstance(value, bool)
    # The bound fails for NaN, the infinities (json.load reads both) and integers too large for a float.
    if not typed or (kind is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f'"{key}" must be {name}, got {value!r}')
    return float(value) if kind is float else value


def _json_numbers(value, key: str):
    """``value``, read from document key ``key``, if it is a number or nested lists of numbers."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _json_numbers(item, key)
    else:
        _json_value(value, key, float)
    return value
