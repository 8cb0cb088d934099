"""Word-vector tables in plain text format: one token and its values per line."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._io import excerpt, open_lines
from .errors import ParseError

UNK_TOKEN = "<unk>"
CHUNK_LINES = 1024


@dataclass
class EmbeddingTable:
    """An immutable token-to-vector map with a fallback row for unknown tokens.

    ``matrix`` is one read-only (n, d) array and ``rows`` maps each lowercased
    token to its row.
    """

    rows: dict[str, int]
    matrix: np.ndarray
    unk_vector: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, token: str) -> np.ndarray:
        """Read-only row of the lowercased token, or the unknown vector."""
        row = self.rows.get(token.lower())
        return self.unk_vector if row is None else self.matrix[row]


def load_table(source, tokens: Iterable[str] | None = None) -> EmbeddingTable:
    """Load a table from a path or an iterable of lines.

    Lines are whitespace-separated: a token followed by a fixed number of
    finite decimal values, with no header. Tokens are folded to lowercase, as
    lookups are, so two rows that differ only in case are duplicates. A
    literal "<unk>" row, when present, becomes the fallback vector; otherwise
    unknown tokens map to zeros.

    The lines are read in chunks of ``CHUNK_LINES``, and numpy parses each
    chunk into rows that are appended to one matrix. A chunk that fails any
    check is read again line by line, which names the first faulty line.

    Given ``tokens``, the matrix keeps only the rows of those tokens (folded
    to lowercase) and of "<unk>", in file order; every line is still read and
    checked, so a faulty line raises the same error whether or not it is kept.
    """
    keep = None if tokens is None else {t.lower() for t in tokens} | {UNK_TOKEN}
    rows: dict[str, int] = {}
    seen: set[str] = set()
    matrix = np.empty((0, 0))
    dimension = None
    with open_lines(source) as lines:
        lines = iter(lines)
        line_no = 1
        while chunk := list(islice(lines, CHUNK_LINES)):
            read, block = (_parse_chunk(chunk, seen, dimension)
                           or _read_lines(chunk, line_no, seen, dimension))
            line_no += len(chunk)
            if not read:
                continue
            seen.update(read)
            dimension = block.shape[1]
            if keep is not None:
                picked = [i for i, token in enumerate(read) if token in keep]
                read, block = [read[i] for i in picked], block[picked]
            n = len(rows)
            # Growing one buffer by realloc keeps the peak near the table's
            # size; no view of it exists before the loop ends. The resize runs
            # even when no row is kept, so the matrix is (0, d), not (0, 0).
            matrix.resize((n + len(read), dimension), refcheck=False)
            matrix[n:] = block
            rows.update(zip(read, range(n, n + len(read))))
        if dimension is None:
            raise ParseError("embedding file contains no vectors")
    matrix.flags.writeable = False
    unk_row = rows.get(UNK_TOKEN)
    if unk_row is None:
        unk = np.zeros(dimension)
        unk.flags.writeable = False
    else:
        unk = matrix[unk_row]
    return EmbeddingTable(rows, matrix, unk)


def _parse_chunk(chunk: list[str], seen: set[str], dimension: int | None):
    """(tokens, values) of a chunk by numpy's parser, or None when the chunk
    has no rows, a line is faulty or numpy cannot vouch for it."""
    tokens, rests = [], []
    for raw in chunk:
        parts = raw.split(None, 1)
        if len(parts) == 2:
            tokens.append(parts[0].lower())
            rests.append(parts[1])
        elif parts:
            return None
    if not tokens or len(set(tokens)) < len(tokens) or not seen.isdisjoint(tokens):
        return None
    try:
        block = np.loadtxt(rests, comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape[0] != len(tokens) or dimension not in (None, block.shape[1]):
        return None
    # The line loop tests math.isfinite(sum(row)). No partial sum of a row
    # exceeds its width times its largest absolute value, so when twice that
    # bound is finite, every row passes the test in any order of addition.
    if not math.isfinite(2.0 * block.shape[1] * float(np.abs(block).max())):
        return None
    return tokens, block


def _read_lines(chunk: list[str], first_line: int, seen: set[str], dimension: int | None):
    """(tokens, values) of a chunk read one line at a time; raises ParseError
    at the first faulty line."""
    tokens, values_rows = [], []
    in_chunk = set()
    for line_no, raw in enumerate(chunk, start=first_line):
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
        if token in seen or token in in_chunk:
            raise ParseError(f"duplicate token {excerpt(parts[0])!r} at line {line_no}")
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise ParseError(f"unparsable value at line {line_no}") from None
        # One sum catches nan, inf and overflow ("1e999") in a single test.
        if not math.isfinite(sum(row)):
            raise ParseError(f"non-finite or overflowing value at line {line_no}")
        in_chunk.add(token)
        tokens.append(token)
        values_rows.append(row)
    return tokens, np.array(values_rows)
