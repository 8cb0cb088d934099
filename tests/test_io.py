"""The writers against the one-shot text that each of them replaced, and
``naming``, which puts a path in front of a data error."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import reference_document_text
from semrel._io import _BLOCK_VALUES, naming, write_document
from semrel.corpus import INDEX_HEADER, PathIndex, load_index, path_from_text, path_to_text, save_index
from semrel.errors import DataError, ParseError
from semrel.pairs import PairRecord, write_pairs

EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    """A float matrix with no rows, no columns, rows wider than the block
    budget, or a row count on either side of a block boundary."""
    width = draw(st.sampled_from([0, 1, 3, 50, _BLOCK_VALUES, _BLOCK_VALUES + 1]))
    step = max(1, _BLOCK_VALUES // max(1, width))
    rows = draw(st.sampled_from([0, 1, step - 1, step, step + 1, 2 * step, 2 * step + 1]))
    return draw(hnp.arrays(float, (rows, width), elements=VALUES))


DOCUMENTS = st.fixed_dictionaries({
    "format": st.just("semrel-test"),
    "version": st.just(1),
    "labels": st.lists(st.text(max_size=3), max_size=3),
    "seed": st.one_of(st.none(), st.integers()),
    "rate": VALUES,
    "vector": hnp.arrays(float, st.integers(0, 9), elements=VALUES),
    "arrays": st.dictionaries(st.text(max_size=3), matrices(), max_size=3),
})


@settings(max_examples=60, deadline=None)
@given(doc=DOCUMENTS)
@example(doc={"format": "semrel-test", "version": 1, "labels": [], "seed": None, "rate": -0.0,
              "vector": np.array(EDGE_VALUES), "arrays": {"m": np.array([EDGE_VALUES] * 3)}})
def test_write_document_writes_the_one_shot_bytes_to_a_path_and_a_stream(tmp_path_factory, doc):
    expected = reference_document_text(doc)
    stream = io.StringIO()
    write_document(stream, doc)
    assert stream.getvalue() == expected
    path = tmp_path_factory.getbasetemp() / "document.json"
    write_document(path, doc)
    assert path.read_bytes() == expected.encode("utf-8")


# ------------------------------------------------------------ text writers


def _old_index_text(index):
    """The index text as one string, the way save_index used to build it."""
    lines = [INDEX_HEADER]
    for x, y in index.pair_keys():
        rows = sorted((path_to_text(p), c) for p, c in index.get(x, y).items())
        lines.extend(f"{x}\t{y}\t{text}\t{count}" for text, count in rows)
    return "\n".join(lines) + "\n"


def _old_pairs_text(records):
    lines = [f"{r.x}\t{r.y}\t{r.label}" for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


def _index(*rows):
    index = PathIndex()
    for x, y, text, count in rows:
        index.add(x, y, path_from_text(text), count)
    return index


INDEXES = {
    "no pairs": _index(),
    "several pairs": _index(
        ("cat", "animal", "X/NOUN/nsubj/<::be/VERB/cop/^::Y/NOUN/nmod/>", 2),
        ("cat", "animal", "X/NOUN/nsubj/<::Y/NOUN/dep/^", 1),
        ("Wheel", "cart", "X/NOUN/nsubj/<::part/NOUN/dep/^::Y/NOUN/nmod/>", 3),
        ("a b", "c%d", "X/NOUN/conj/>::Y/NOUN/dep/^", 1),
    ),
}
RECORDS = {
    "no records": [],
    "one record": [PairRecord("cat", "animal", "HYPER")],
    "several records": [PairRecord("cat", "animal", "HYPER"), PairRecord("a", "b", ""),
                        PairRecord("hot", "cold", "ANT")],
}


def _written(write, value, tmp_path):
    """What ``write`` puts in a stream and in a file, as text."""
    stream = io.StringIO()
    write(value, stream)
    write(value, tmp_path / "out.txt")
    return stream.getvalue(), (tmp_path / "out.txt").read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", INDEXES)
def test_save_index_writes_the_joined_lines_to_a_path_and_a_stream(tmp_path, name):
    index = INDEXES[name]
    expected = _old_index_text(index)
    assert _written(save_index, index, tmp_path) == (expected, expected)
    assert load_index(tmp_path / "out.txt") == index


@pytest.mark.parametrize("name", RECORDS)
def test_write_pairs_writes_the_joined_lines_to_a_path_and_a_stream(tmp_path, name):
    expected = _old_pairs_text(RECORDS[name])
    assert _written(write_pairs, RECORDS[name], tmp_path) == (expected, expected)


def test_naming_puts_the_path_in_front_of_a_data_error_once(tmp_path):
    path = tmp_path / "data.tsv"
    for error in (DataError, ParseError):
        with pytest.raises(error) as caught:
            with naming(path):
                raise error("bad value at line 3")
        assert str(caught.value) == f"{path}: bad value at line 3"
    with pytest.raises(FileNotFoundError) as caught:
        with naming(path):
            open(path, encoding="utf-8")
    assert str(caught.value) == f"[Errno 2] No such file or directory: '{path}'"
    assert caught.value.filename == str(path)
    with naming(path):
        pass
