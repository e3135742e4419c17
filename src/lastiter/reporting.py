"""Canonical serialization helpers shared by reports, sweeps, and the CLI.

JSON documents are dumped with sorted keys and fixed separators so equal
documents are equal bytes; CSV files are written through the csv module
with its RFC-4180 quoting and CRLF rows, always with a header row.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math

import numpy as np


def canonical_dumps(doc) -> str:
    """Deterministic JSON text for a document (sorted keys, fixed separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def doc_hash(doc) -> str:
    """Hex sha256 of the canonical JSON encoding."""
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()


# json's encoder for scalars and errors: with an indent it is the pure-Python
# encoder that json.dump uses, so its texts and messages are json.dump's own.
_encode = json.JSONEncoder(indent=1, allow_nan=False).encode


def write_json(path, doc):
    """Pretty but deterministic JSON file (sorted keys, trailing newline).

    The bytes are exactly those of ``json.dump(doc, fh, sort_keys=True,
    indent=1, allow_nan=False)`` plus a newline, written piece by piece as
    they are encoded; a list of plain floats is encoded in one join.  An
    ndarray is written as its ``.tolist()`` would be, one innermost row at a
    time, so no nested list of the whole array is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for piece in _pieces(doc, "\n"):
            fh.write(piece)
        fh.write("\n")


def _pieces(value, newline: str):
    """JSON text of value in pieces; newline is the line break plus the current indent.

    Empty containers and scalars are json's own text.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist() if value.ndim < 2 else list(value)
    if isinstance(value, (list, tuple)) and value:
        inner = newline + " "
        if set(map(type, value)) == {float}:
            if not all(map(math.isfinite, value)):
                _encode(value)  # raises json's error for the first non-finite item
            yield "[" + inner + ("," + inner).join(map(float.__repr__, value)) + newline + "]"
            return
        for i, item in enumerate(value):
            yield ("," if i else "[") + inner
            yield from _pieces(item, inner)
        yield newline + "]"
    elif isinstance(value, dict) and value:
        inner = newline + " "
        for i, (key, item) in enumerate(sorted(value.items())):
            yield ("," if i else "{") + inner + _encode(_key(key)) + ": "
            yield from _pieces(item, inner)
        yield newline + "}"
    else:
        yield _encode(value)


def _key(key) -> str:
    """An object key as json converts it: str as is, int/float/bool/None as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (bool, int, float)):
        return _encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def write_csv(path, header, rows):
    """CSV with a mandatory header row; values are stringified verbatim."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        writer.writerows(rows)


def fmt(value) -> str:
    """Cell formatting: full-fidelity repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def timestamp(deterministic: bool):
    """ISO-8601 UTC now, or None when deterministic output is requested."""
    if deterministic:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()
