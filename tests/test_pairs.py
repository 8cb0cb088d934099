import io

import pytest

from semrel.errors import DataError, ParseError
from semrel.pairs import (
    PairRecord,
    RELATION_LABELS,
    check_labels,
    checked_label_set,
    read_pairs,
    write_pairs,
)


def test_read_labelled_pairs():
    text = "cat\tanimal\tHYPER\nwheel\tcar\tPART_OF\n"
    records = read_pairs(io.StringIO(text))
    assert records == [
        PairRecord("cat", "animal", "HYPER"),
        PairRecord("wheel", "car", "PART_OF"),
    ]


def test_blank_lines_and_comments_skipped():
    text = "# header\n\ncat\tanimal\tHYPER\n   \n# trailing\n"
    assert len(read_pairs(io.StringIO(text))) == 1


def test_unlabelled_pairs_allowed_when_not_required():
    records = read_pairs(io.StringIO("cat\tanimal\n"), require_label=False)
    assert records[0].x == "cat" and records[0].label == ""


def test_missing_label_is_an_error_by_default():
    with pytest.raises(ParseError, match="line 1"):
        read_pairs(io.StringIO("cat\tanimal\n"))


def test_single_column_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 2"):
        read_pairs(io.StringIO("a\tb\tHYPER\njust-one-column\n"))


@pytest.mark.parametrize("line, message", [
    ("\tmouse\tHYPER", "empty term at line 2"),
    ("cat\t\tHYPER", "empty term at line 2"),
    ("cat\tmouse\t", "missing label at line 2"),
    ("cat\tmouse", "missing label at line 2"),
])
def test_empty_fields_rejected_with_line_number(line, message):
    with pytest.raises(ParseError, match=message):
        read_pairs(io.StringIO("a\tb\tSYN\n" + line + "\n"))


def test_empty_label_allowed_when_not_required():
    records = read_pairs(io.StringIO("cat\tmouse\t\n"), require_label=False)
    assert records == [PairRecord("cat", "mouse", "")]
    with pytest.raises(ParseError, match="empty term at line 1"):
        read_pairs(io.StringIO("cat\t\n"), require_label=False)


def test_crlf_line_endings_never_reach_a_column():
    records = read_pairs(io.StringIO("cat\tanimal\tHYPER\r\nwheel\tcar\r\n"), require_label=False)
    assert records == [PairRecord("cat", "animal", "HYPER"), PairRecord("wheel", "car", "")]


def test_extra_columns_ignored():
    records = read_pairs(io.StringIO("a\tb\tHYPER\tsource=wn\n"))
    assert records == [PairRecord("a", "b", "HYPER")]


def test_round_trip():
    records = [PairRecord("cat", "animal", "HYPER"), PairRecord("a", "b", "RANDOM")]
    buf = io.StringIO()
    write_pairs(records, buf)
    buf.seek(0)
    assert read_pairs(buf) == records


def test_check_labels_lists_every_offender():
    records = [
        PairRecord("a", "b", "HYPER"),
        PairRecord("c", "d", "BOGUS"),
        PairRecord("e", "f", "WRONG"),
    ]
    with pytest.raises(DataError) as err:
        check_labels((r.label for r in records), RELATION_LABELS, "test set")
    assert "BOGUS" in str(err.value) and "WRONG" in str(err.value)
    assert "test set" in str(err.value)


def test_check_labels_accepts_clean_data():
    check_labels(["SYN"], RELATION_LABELS)


def test_checked_label_set_defaults_to_the_sorted_labels_and_names_its_context():
    records = [PairRecord("a", "b", "SYN"), PairRecord("c", "d", "ANT")]
    assert checked_label_set(records, None, "training set") == ("ANT", "SYN")
    fixed = ["SYN", "HYPER", "ANT"]
    assert checked_label_set(records, fixed, "training set") == tuple(fixed)
    with pytest.raises(DataError, match="^validation set is empty$"):
        checked_label_set([], RELATION_LABELS, "validation set")
    with pytest.raises(DataError, match="^invalid labels in training set: SYN$"):
        checked_label_set(records, ("ANT",), "training set")
