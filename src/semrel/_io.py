"""Small input/output helpers shared across the file-format modules."""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError


@contextmanager
def naming(path):
    """Context manager that puts ``path: `` in front of a DataError raised
    inside it; any other error passes unchanged."""
    try:
        yield
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


@contextmanager
def open_lines(source):
    """Context manager yielding lines from a path or from an open stream.

    Given a path, a DataError raised inside the block is named with the path,
    and text that is not UTF-8 raises a ParseError, so every read error names
    its file.
    """
    if not isinstance(source, (str, Path)):
        yield source
        return
    with naming(source), open(source, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})") from None


def data_lines(lines):
    """``(line_no, columns)`` for each line that is neither blank nor a '#'
    comment: the line without its line ending, split at tabs."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.strip() and not line.startswith("#"):
            yield line_no, line.split("\t")


# What int() takes; when it still fails, the number has more digits than it converts.
_INTEGER = re.compile(r"\s*[+-]?\d+\s*")


def excerpt(text: str, limit: int = 40) -> str:
    """``text`` for a message, cut after ``limit`` characters."""
    return text if len(text) <= limit else text[:limit] + "…"


def int_error(text: str, field: str, line_no: int) -> ParseError:
    """The error for a ``field`` whose ``text`` int() refused: it names the
    field and the line and quotes at most 40 characters of the text."""
    if _INTEGER.fullmatch(text):
        return ParseError(f"{field} {excerpt(text)!r} has too many digits at line {line_no}")
    return ParseError(f"non-numeric {field} {excerpt(text)!r} at line {line_no}")


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"invalid JSON: integer {excerpt(text)!r} has too many digits") from None


def write_pieces(destination, pieces) -> None:
    """Write an iterable of strings to a path or an already-open stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        destination.writelines(pieces)


def write_document(destination, doc: dict) -> None:
    """Write a versioned JSON document to a path or stream, on one line.

    The bytes are those of ``json.dumps(doc, allow_nan=False) + "\n"`` with
    every ndarray given as nested lists: compact, floats in shortest
    round-trip form. Arrays are encoded a block of rows at a time, so no copy
    of the whole document is held in memory. A NaN or infinity is not valid
    JSON, so it raises DataError before the destination is opened.
    """
    if not _is_finite(doc):
        raise DataError(f"refusing to write a non-finite number into a {doc['format']} file")
    write_pieces(destination, chain(_pieces(doc), "\n"))


# About this many values of a matrix are turned into Python floats and
# encoded at a time: large enough for json's C encoder to set the pace, and
# small enough (about 100 KB of lists and text) that a save after training
# fits in memory the process already holds.
_BLOCK_VALUES = 1024


def _pieces(value):
    """Yield the JSON text of ``value`` as consecutive pieces."""
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _pieces(item)
        yield "}"
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        step = max(1, _BLOCK_VALUES // max(1, value.shape[1]))
        yield "["
        for start in range(0, len(value), step):
            yield (", " if start else "") + json.dumps(value[start:start + step].tolist())[1:-1]
        yield "]"
    elif isinstance(value, np.ndarray):
        yield json.dumps(value.tolist())
    else:
        yield json.dumps(value)


def _is_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_is_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_is_finite, value))
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return not isinstance(value, float) or math.isfinite(value)


@contextmanager
def read_document(source, fmt: str, version: int, kind: str):
    """Context manager yielding a versioned JSON document from a path or stream.

    The document must be a JSON object whose "format" is ``fmt`` and whose
    "version" is ``version``. As with ``open_lines``, a DataError raised
    inside the block names the file; so does a KeyError (a missing field) or
    a TypeError (a mistyped one), each turned into a DataError.
    """
    with open_lines(source) as fh:
        try:
            doc = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        except (UnicodeDecodeError, ParseError):
            raise  # open_lines reports text that is not UTF-8; _json_int's error stands
        except ValueError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != fmt:
            raise DataError(f"not a {kind} file")
        if type(doc.get("version")) is not int or doc["version"] != version:
            raise DataError(f"unsupported {kind} version {excerpt(repr(doc.get('version')))}")
        try:
            yield doc
        except KeyError as exc:
            raise DataError(f"{kind} file lacks the {exc.args[0]!r} field") from None
        except TypeError:
            raise DataError(f"{kind} file has a field of the wrong type") from None
