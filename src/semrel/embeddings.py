"""Word-vector tables in plain text format: one token and its values per line."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from ._io import excerpt, np, open_lines
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

    Given ``tokens``, the matrix keeps only the rows of those tokens (folded
    to lowercase) and of "<unk>", in file order; without it, every row is
    kept. One pass splits the token off each line, and every row is checked
    for UTF-8, for values after its token and for a duplicate token. Only the
    kept rows, and the first row, which fixes the width, have their values
    parsed and checked: a bad value or a wrong width in a row that is not
    kept is not seen. Those rows go to numpy in batches of ``CHUNK_LINES``,
    and a batch that fails any check is read again line by line, so each
    error names the first faulty line in file order.
    """
    keep = None if tokens is None else {t.lower() for t in tokens} | {UNK_TOKEN}
    rows: dict[str, int] = {}
    matrix = np.empty((0, 0))
    dimension = None
    with open_lines(source) as lines:
        for read, line_nos, texts in _batches(lines, keep):
            block = _parse_chunk(texts, dimension)
            if block is None:
                block = _read_lines(zip(line_nos, texts), dimension)
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


def _batches(lines, keep: set[str] | None):
    """Batches of ``(tokens, line numbers, value texts)`` of the rows whose
    values are parsed: the rows in ``keep`` (every row when it is None) and
    the first row, which fixes the width.

    A row without values or with a token seen before raises a ParseError,
    but only after the batch pending is yielded, whose rows come earlier.
    """
    # Three lists, not a (line_no, text) tuple per row: such tuples share an
    # allocator size class with the kept tokens and would leave holes among
    # them, about 0.2 MB of peak RSS when a 3,502 x 24 table is kept whole.
    seen: set[str] = set()
    tokens, line_nos, texts = [], [], []
    first = None
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split(None, 1)
        if len(parts) == 2:
            token = parts[0].lower()
            kept = keep is None or token in keep
            if token not in seen:
                seen.add(token)
                if first is None:
                    first = parts[1]
                elif not kept:
                    continue
                tokens.append(token)
                line_nos.append(line_no)
                texts.append(parts[1])
                if len(tokens) == CHUNK_LINES:
                    yield tokens, line_nos, texts
                    tokens, line_nos, texts = [], [], []
                continue
            # A row read in full names a wrong width before a duplicate token.
            if kept and len(parts[1].split()) != len(first.split()):
                error = f"dimension mismatch at line {line_no}"
            else:
                error = f"duplicate token {excerpt(parts[0])!r} at line {line_no}"
        elif parts:
            error = f"no vector values at line {line_no}"
        else:
            continue
        if tokens:
            yield tokens, line_nos, texts
        raise ParseError(error)
    if tokens:
        yield tokens, line_nos, texts


def _parse_chunk(texts: list[str], dimension: int | None):
    """The values of a batch by numpy's parser, or None when a row is faulty
    or numpy cannot vouch for the batch."""
    try:
        block = np.loadtxt(texts, comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape[0] != len(texts) or dimension not in (None, block.shape[1]):
        return None
    # The line loop tests math.isfinite(sum(row)). No partial sum of a row
    # exceeds its width times its largest absolute value, so when twice that
    # bound is finite, every row passes the test in any order of addition.
    if not math.isfinite(2.0 * block.shape[1] * float(np.abs(block).max())):
        return None
    return block


def _read_lines(numbered: Iterable[tuple[int, str]], dimension: int | None):
    """The values of a batch read one line at a time; raises ParseError at
    the first faulty line."""
    values_rows = []
    for line_no, text in numbered:
        values = text.split()
        if dimension is None:
            dimension = len(values)
        elif len(values) != dimension:
            raise ParseError(f"dimension mismatch at line {line_no}")
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise ParseError(f"unparsable value at line {line_no}") from None
        # One sum catches nan, inf and overflow ("1e999") in a single test.
        if not math.isfinite(sum(row)):
            raise ParseError(f"non-finite or overflowing value at line {line_no}")
        values_rows.append(row)
    return np.array(values_rows)
