"""Small input/output helpers shared across the file-format modules, and
the package's one handle on numpy.

Every module takes ``np`` from here. It is numpy loaded lazily: importing the
package finds numpy but does not run it, and the first attribute looked up
on ``np`` does. ``extract-paths`` computes nothing with numpy, so it never
pays numpy's import, which would be about a third of its time on a small
corpus. The other commands load numpy at their first array.

Before that, each of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` that is not set is set to 1. A BLAS library splits a
large product's sum between its threads, and the split changes the last bits
of the result, so its default of one thread per CPU would make a model's
bytes depend on the machine. A variable the user set is left as it is.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from types import ModuleType

from .errors import DataError, ParseError


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, whose code runs at its first attribute lookup.

    A module already in ``sys.modules`` is returned as it is. One that
    cannot be found, or that ``sys.modules`` blocks with None, raises
    ModuleNotFoundError now, as ``import`` would.
    """
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")
np = lazy_import("numpy")


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
    its file. A leading UTF-8 byte-order mark is dropped.
    """
    if not isinstance(source, (str, Path)):
        yield source
        return
    with naming(source), open(source, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})") from None


def data_lines(lines, start: int = 1):
    """``(line_no, columns)`` for each line that is neither blank nor a '#'
    comment: the line without its line ending, split at tabs. The first line
    is numbered ``start``."""
    for line_no, raw in enumerate(lines, start=start):
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
