"""Small input/output helpers shared across the file-format modules."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError, ParseError


class open_lines:
    """Context manager yielding lines from a path or from an open stream.

    Given a path, a DataError raised inside the block is raised again with the
    path in front of its message, and text that is not UTF-8 raises a
    ParseError that names the path, so every read error names its file.
    """

    def __init__(self, source):
        self.source = source
        self._fh = None

    def __enter__(self):
        if isinstance(self.source, (str, Path)):
            self._fh = open(self.source, encoding="utf-8")
            return self._fh
        return self.source

    def __exit__(self, exc_type, exc, tb):
        if self._fh is not None:
            self._fh.close()
            if isinstance(exc, DataError):
                raise type(exc)(f"{self.source}: {exc}") from None
            if isinstance(exc, UnicodeDecodeError):
                raise ParseError(f"{self.source}: not UTF-8 text ({exc.reason})") from None
        return False


def write_text(destination, text: str) -> None:
    """Write text to a path or an already-open stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        destination.write(text)


def write_document(destination, doc: dict) -> None:
    """Write a versioned JSON document to a path or stream, on one line.

    Floats are written in shortest round-trip form. With no indent, json
    encodes in C; readers ignore whitespace, so indented files still load. A
    NaN or infinity is not valid JSON, so it raises DataError and nothing is
    written.
    """
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:
        raise DataError(f"refusing to write a non-finite number into a {doc['format']} file") from None
    write_text(destination, text + "\n")


@contextmanager
def read_document(source, fmt: str, version: int, kind: str):
    """Context manager yielding a versioned JSON document from a path or stream.

    The document must be a JSON object whose "format" is ``fmt`` and whose
    "version" is ``version``. As with ``open_lines``, a DataError raised
    inside the block, by the caller's decoding too, names the file.
    """
    with open_lines(source) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != fmt:
            raise DataError(f"not a {kind} file")
        if doc.get("version") != version:
            raise DataError(f"unsupported {kind} version {doc.get('version')!r}")
        yield doc
