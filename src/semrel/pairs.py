"""Word-pair datasets: label sets, pair records, and TSV input/output.

Dataset files are UTF-8 TSV with one pair per line: ``x<TAB>y<TAB>label``.
Five-class files use the relation labels, two-class files use TRUE/FALSE.
Prediction files reuse the same three-column layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ._io import data_lines, excerpt, open_lines, write_pieces
from .errors import DataError, ParseError

RELATED_LABELS = ("ANT", "HYPER", "PART_OF", "SYN")
NEGATIVE_LABEL = "RANDOM"
RELATION_LABELS = RELATED_LABELS + (NEGATIVE_LABEL,)
SYN_LABEL = "SYN"

BINARY_TRUE = "TRUE"
BINARY_FALSE = "FALSE"

# Internal label set of the two-class relatedness model. RELATED comes first so
# that an exact probability tie resolves the same way as the score threshold.
RELATED = "RELATED"
UNRELATED = "UNRELATED"
RELATEDNESS_LABELS = (RELATED, UNRELATED)

# The negative class of each label space, in the order that evaluate looks
# for one in a gold file to leave out of scoring.
NEGATIVE_LABELS = (NEGATIVE_LABEL, UNRELATED, BINARY_FALSE)

# Any of these labels folds onto one of the two relatedness classes.
TO_RELATEDNESS = {
    **{label: RELATED for label in (*RELATED_LABELS, RELATED, BINARY_TRUE)},
    **{label: UNRELATED for label in NEGATIVE_LABELS},
}


@dataclass(frozen=True)
class PairRecord:
    """One dataset row: the pair of terms and its (possibly empty) label."""

    x: str
    y: str
    label: str


def read_pairs(source, require_label: bool = True) -> list[PairRecord]:
    """Read pair records from a path or an iterable of lines.

    Lines carry at least two tab-separated columns; extra columns are ignored.
    Neither term may be empty, nor the label when ``require_label`` is true; a
    ParseError names the line. Blank lines and '#' comments are skipped.
    """
    records = []
    with open_lines(source) as lines:
        for line_no, cols in data_lines(lines):
            if len(cols) < 2:
                raise ParseError(f"expected at least 2 tab-separated columns at line {line_no}")
            if not cols[0] or not cols[1]:
                raise ParseError(f"empty term at line {line_no}")
            label = cols[2] if len(cols) >= 3 else ""
            if require_label and not label:
                raise ParseError(f"missing label at line {line_no}")
            records.append(PairRecord(cols[0], cols[1], label))
    return records


def read_labelled(path, labels: dict[str, str], context: str) -> list[PairRecord]:
    """The pairs of ``path``, each label mapped through ``labels``; a label
    outside it is a DataError that starts with the path, as a bad line's is."""
    with open_lines(path) as lines:
        records = read_pairs(lines)
        check_labels((r.label for r in records), labels, context)
    return [replace(r, label=labels[r.label]) for r in records]


def write_pairs(records: Iterable[PairRecord], destination) -> None:
    """Write records as three-column TSV, one per line, in the given order."""
    write_pieces(destination, (f"{r.x}\t{r.y}\t{r.label}\n" for r in records))


def check_labels(labels: Iterable[str], allowed: Iterable[str], context: str = "dataset") -> None:
    """Raise DataError naming the labels outside ``allowed``, cut to 40 characters."""
    bad = sorted(set(labels) - set(allowed))
    if bad:
        raise DataError(f"invalid labels in {context}: {excerpt(', '.join(bad))}")


def checked_label_set(records: Sequence[PairRecord], label_set: Iterable[str] | None,
                      context: str) -> tuple[str, ...]:
    """``label_set`` as a tuple, by default the records' sorted labels; no
    records, or a label outside the set, raises DataError naming ``context``."""
    if not records:
        raise DataError(f"{context} is empty")
    labels = tuple(label_set) if label_set is not None else tuple(sorted({r.label for r in records}))
    check_labels((r.label for r in records), labels, context)
    return labels
