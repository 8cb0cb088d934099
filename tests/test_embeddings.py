import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_load_table
from semrel import embeddings
from semrel.embeddings import UNK_TOKEN, load_table
from semrel.errors import ParseError

SMALL = "cat 1.0 0.0\ndog 0.5 0.5\nmouse -1.0 0.25\n"


def test_load_and_lookup():
    table = load_table(io.StringIO(SMALL))
    assert table.dimension == 2
    assert len(table.rows) == 3
    assert np.array_equal(table.lookup("cat"), [1.0, 0.0])
    assert np.array_equal(table.lookup("mouse"), [-1.0, 0.25])


def test_lookup_folds_case():
    table = load_table(io.StringIO(SMALL))
    assert np.array_equal(table.lookup("CAT"), table.lookup("cat"))


def test_unknown_token_maps_to_zeros_without_unk_row():
    table = load_table(io.StringIO(SMALL))
    assert "aardvark" not in table.rows
    assert np.array_equal(table.lookup("aardvark"), [0.0, 0.0])


def test_explicit_unk_row_is_used():
    table = load_table(io.StringIO(SMALL + f"{UNK_TOKEN} 9.0 9.0\n"))
    assert np.array_equal(table.lookup("aardvark"), [9.0, 9.0])


def test_vectors_are_read_only():
    table = load_table(io.StringIO(SMALL))
    with pytest.raises(ValueError):
        table.lookup("cat")[0] = 5.0


def test_blank_lines_skipped():
    table = load_table(io.StringIO("cat 1.0\n\n\ndog 2.0\n"))
    assert len(table.rows) == 2


def test_dimension_mismatch_names_line():
    with pytest.raises(ParseError, match="line 2"):
        load_table(io.StringIO("cat 1.0 2.0\ndog 1.0\n"))


def test_token_without_values_rejected():
    with pytest.raises(ParseError, match="line 1"):
        load_table(io.StringIO("cat\n"))


def test_duplicate_token_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        load_table(io.StringIO("cat 1.0\ncat 2.0\n"))


def test_unparsable_value_names_line():
    with pytest.raises(ParseError, match="line 3"):
        load_table(io.StringIO("a 1.0\nb 2.0\nc x.y\n"))


def test_empty_file_rejected():
    with pytest.raises(ParseError, match="no vectors"):
        load_table(io.StringIO(""))


def test_tokens_fold_to_lowercase_at_load():
    table = load_table(io.StringIO("Cat 1 0\n"))
    assert np.array_equal(table.lookup("Cat"), [1.0, 0.0])
    assert np.array_equal(table.lookup("cat"), [1.0, 0.0])
    assert list(table.rows) == ["cat"]


def test_duplicate_after_case_folding_rejected():
    with pytest.raises(ParseError, match="duplicate.*line 2"):
        load_table(io.StringIO("Cat 1 0\ncat 0 1\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_value_rejected_with_line(value):
    with pytest.raises(ParseError, match="line 2"):
        load_table(io.StringIO(f"a 1.0 2.0\nb 0.5 {value}\n"))


def test_table_is_one_read_only_matrix():
    table = load_table(io.StringIO(SMALL + f"{UNK_TOKEN} 9.0 9.0\n"))
    assert table.matrix.shape == (4, 2) and not table.matrix.flags.writeable
    assert table.lookup("dog").base is table.matrix
    assert table.lookup("aardvark").base is table.matrix


@pytest.mark.parametrize("value, parsed", [("1_0", 10.0), ("１", 1.0), ("٣", 3.0)])
def test_values_only_float_accepts_still_load(value, parsed):
    table = load_table(io.StringIO(f"a 1.0 2.0\nb 0.5 {value}\n"))
    assert table.lookup("b").tolist() == [0.5, parsed]


# ------------------------------------------------- agreement with the line loop

# Whitespace to both str.split() and numpy. "\x0b", "\x0c" and "\x1c" are line
# breaks to str.splitlines() but not to file iteration, which load_table follows.
SEPARATORS = [" ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\u3000"]
# A lone "\r" ends a line in a list, but not in a StringIO, whose lines end at "\n".
ENDINGS = ["\n"] * 12 + ["\r\n"] * 3 + ["\r"]
BLANKS = ["", " ", "\t", "\x0c", "\x1c \x0b"]
# float() accepts these and numpy rejects them, so their chunk is read again
# line by line and loads.
FLOAT_ONLY = ["1_0", "１", "٣"]
FAULTY_VALUES = ["x.y", "0x10", "1,5", "nan", "-inf", "1e999"]
GOOD_VALUES = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-10**6, 10**6).map(str)
               | st.sampled_from(["0", "-0.0", "+.5", "5.", "1e-320", "1E3"]))
# "overflow" is a row of finite values whose sum overflows once it has two.
FAULTS = [None, None, "value", "overflow", "wide", "narrow", "bare", "dup"]
SOURCES = ["list", "stringio", "generator"]


@st.composite
def table_lines(draw):
    """Lines of a table with odd values and odd spacing, and at most one fault."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 30))
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, max(n - 1, 0)))
    lines, tokens = [], []
    for i in range(n):
        kind = fault if i == at else draw(st.sampled_from(["row"] * 8 + ["blank", "odd"]))
        token = f"W{i}" if draw(st.booleans()) else f"w{i}"
        if kind == "dup" and tokens:
            token = draw(st.sampled_from(tokens)).swapcase()
        if kind == "blank":
            fields = [draw(st.sampled_from(BLANKS))]
        else:
            width = {"wide": dim + 1, "narrow": dim - 1, "bare": 0}.get(kind, dim)
            values = draw(st.lists(GOOD_VALUES, min_size=width, max_size=width))
            if kind in ("odd", "value"):
                odd = FLOAT_ONLY if kind == "odd" else FAULTY_VALUES
                values[draw(st.integers(0, width - 1))] = draw(st.sampled_from(odd))
            if kind == "overflow":
                values = [draw(st.sampled_from(["1.7e308", "-1.7e308"]))] * width
            fields = [token, *values]
            tokens.append(token)
        sep = draw(st.sampled_from(SEPARATORS))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + sep.join(fields) + draw(st.sampled_from(ENDINGS)))
    return lines


def make_source(kind, lines):
    if kind == "list":
        return list(lines)
    if kind == "stringio":
        return io.StringIO("".join(lines))
    return (line for line in lines)


def loaded(kind, lines):
    """What load_table makes of the lines: the error, or rows, bits and unk."""
    try:
        table = load_table(make_source(kind, lines))
    except ParseError as exc:
        return ("error", str(exc))
    assert not table.matrix.flags.writeable and len(table.rows) == table.matrix.shape[0]
    return ("table", list(table.rows), table.matrix.shape, table.matrix.tobytes(),
            table.unk_vector.tobytes(), len(table.rows))


def reference_loaded(kind, lines):
    try:
        entries, unk = reference_load_table(make_source(kind, lines))
    except ParseError as exc:
        return ("error", str(exc))
    matrix = np.array(list(entries.values()))
    return ("table", list(entries), matrix.shape, matrix.tobytes(), unk.tobytes(), len(entries))


@settings(max_examples=200, deadline=None)
@given(lines=table_lines(), chunk=st.sampled_from([1, 2, 3, 5, 8]), kind=st.sampled_from(SOURCES))
def test_load_table_agrees_with_the_line_loop(lines, chunk, kind):
    with mock.patch.object(embeddings, "CHUNK_LINES", chunk):
        assert loaded(kind, lines) == reference_loaded(kind, lines)


def filler(start, stop, dim=3):
    """Good lines for tokens f<start> to f<stop - 1>."""
    rng = np.random.default_rng(start)
    return [f"f{i} " + " ".join(map(repr, rng.normal(size=dim).tolist())) + "\n"
            for i in range(start, stop)]


LATE = embeddings.CHUNK_LINES * 2 + 17


@pytest.mark.parametrize("kind", SOURCES)
@pytest.mark.parametrize("fault, message", [
    ("F5 1 2 3\n", "duplicate token 'F5' at line"),
    ("late 1 2\n", "dimension mismatch at line"),
    ("late 1 x 3\n", "unparsable value at line"),
    ("late 1 1e999 3\n", "non-finite or overflowing value at line"),
    ("late 1.7e308 1.7e308 0\n", "non-finite or overflowing value at line"),
    ("late\n", "no vector values at line"),
])
def test_a_fault_in_a_later_chunk_names_its_line(kind, fault, message):
    lines = filler(0, LATE) + [fault] + filler(LATE, LATE + 5)
    assert loaded(kind, lines) == reference_loaded(kind, lines) == ("error", f"{message} {LATE + 1}")


@pytest.mark.parametrize("kind", SOURCES)
def test_a_long_table_with_odd_lines_matches_the_line_loop(kind):
    lines = filler(0, LATE) + ["\n", "Odd 1_0 １\x1c2\r\n", "\x0c\n", f"{UNK_TOKEN} 4 5 6\n"]
    got = loaded(kind, lines)
    assert got == reference_loaded(kind, lines)
    assert got[0] == "table" and got[1][-2:] == ["odd", UNK_TOKEN]


# ---------------------------------------------------------- kept-rows load


def test_a_table_that_keeps_no_row_keeps_its_width():
    table = load_table(io.StringIO(SMALL), tokens=["aardvark"])
    assert table.matrix.shape == (0, 2) and table.dimension == 2 and table.rows == {}
    assert table.lookup("cat").tolist() == [0.0, 0.0]


def test_kept_rows_fold_case_and_keep_the_unk_row():
    table = load_table(io.StringIO(SMALL + f"{UNK_TOKEN} 9.0 9.0\n"), tokens=["MOUSE", "Cat"])
    assert list(table.rows) == ["cat", "mouse", UNK_TOKEN]
    assert table.lookup("dog").tolist() == [9.0, 9.0]


@st.composite
def table_and_tokens(draw):
    """Table lines and a token set: some of the table's tokens in any case,
    and some it lacks."""
    lines = draw(table_lines())
    words = [line.split()[0] for line in lines if line.split()]
    tokens = draw(st.lists(st.sampled_from(words), max_size=len(words))) if words else []
    tokens = [t.swapcase() if draw(st.booleans()) else t for t in tokens]
    return lines, tokens + draw(st.lists(st.sampled_from(["w0", "nope", UNK_TOKEN]), max_size=2))


@settings(max_examples=200, deadline=None)
@given(drawn=table_and_tokens(), chunk=st.sampled_from([1, 2, 3, 5, 8]),
       kind=st.sampled_from(SOURCES), unk=st.booleans())
def test_a_kept_rows_load_is_the_full_load_restricted_to_its_tokens(drawn, chunk, kind, unk):
    lines, tokens = drawn
    widths = [len(line.split()) - 1 for line in lines if line.split()]
    if unk and widths:
        lines = [*lines, f"{UNK_TOKEN} " + " ".join(["0.5"] * widths[0]) + "\n"]
    with mock.patch.object(embeddings, "CHUNK_LINES", chunk):
        try:
            full = load_table(make_source(kind, lines))
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                load_table(make_source(kind, lines), tokens)
            assert str(caught.value) == str(exc)
            return
        kept = load_table(make_source(kind, lines), tokens)
    keep = {t.lower() for t in tokens} | {UNK_TOKEN}
    expected = [t for t in full.rows if t in keep]
    assert list(kept.rows) == expected and list(kept.rows.values()) == list(range(len(expected)))
    assert kept.matrix.shape == (len(expected), full.dimension) and not kept.matrix.flags.writeable
    assert kept.matrix.tobytes() == full.matrix[[full.rows[t] for t in expected]].tobytes()
    assert kept.unk_vector.tobytes() == full.unk_vector.tobytes()
