"""Atomic artifact writing and JSON reading: the package's only file I/O.

All writers serialize fully in memory, write to a temporary file next to
the target, and rename it into place, so an interrupted run never leaves
a truncated artifact behind.  Output is canonical (sorted JSON keys, LF
line endings, repr floats) so identical inputs produce identical bytes.
This module owns the CSV cell format: callers pass Python scalars and
never encode cells themselves.  Document readers check each value with
``_require_keys``, ``_json_value`` and ``_json_numbers``, which name the key.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

__all__ = ["atomic_write_text", "atomic_write_json", "atomic_write_csv", "load_json"]


def atomic_write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
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


def atomic_write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` of Python scalars as CSV.

    A row is a sequence in header order or a mapping keyed by ``header``.
    Each cell is ``str(value)``, which for ``float`` and ``int`` equals
    ``repr(value)`` (``nan`` and ``inf`` included), so floats round-trip
    exactly.  Pass Python scalars, not numpy ones.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[key] for key in header] if isinstance(row, Mapping) else row)
    return atomic_write_text(path, buffer.getvalue())


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
