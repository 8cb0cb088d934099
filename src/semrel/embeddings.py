"""Word-vector tables in plain text format: one token and its values per line."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import open_lines
from .errors import ParseError

UNK_TOKEN = "<unk>"


@dataclass
class EmbeddingTable:
    """An immutable token-to-vector map with a fallback row for unknown tokens."""

    dimension: int
    entries: dict[str, np.ndarray]
    unk_vector: np.ndarray

    def lookup(self, token: str) -> np.ndarray:
        """Vector stored for the lowercased token, or the unknown vector."""
        return self.entries.get(token.lower(), self.unk_vector)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_table(source) -> EmbeddingTable:
    """Load a table from a path or an iterable of lines.

    Lines are whitespace-separated: a token followed by a fixed number of
    finite decimal values, with no header. Tokens are folded to lowercase, as
    lookups are, so two rows that differ only in case are duplicates. A
    literal "<unk>" row, when present, becomes the fallback vector; otherwise
    unknown tokens map to zeros.
    """
    entries: dict[str, np.ndarray] = {}
    dimension = None
    with open_lines(source) as lines:
        for line_no, raw in enumerate(lines, start=1):
            parts = raw.split()
            if not parts:
                continue
            token, values = parts[0].lower(), parts[1:]
            if not values:
                raise ParseError(f"no vector values at line {line_no}")
            if dimension is None:
                dimension = len(values)
            elif len(values) != dimension:
                raise ParseError(f"dimension mismatch at line {line_no}")
            if token in entries:
                raise ParseError(f"duplicate token {parts[0]!r} at line {line_no}")
            try:
                row = [float(v) for v in values]
            except ValueError:
                raise ParseError(f"unparsable value at line {line_no}") from None
            # One sum catches nan, inf and overflow ("1e999") in a single test.
            if not math.isfinite(sum(row)):
                raise ParseError(f"non-finite or overflowing value at line {line_no}")
            vector = np.array(row)
            vector.flags.writeable = False
            entries[token] = vector
    if dimension is None:
        raise ParseError("embedding file contains no vectors")
    unk = entries.get(UNK_TOKEN)
    if unk is None:
        unk = np.zeros(dimension)
        unk.flags.writeable = False
    return EmbeddingTable(dimension, entries, unk)
