import io

import numpy as np
import pytest

from semrel.embeddings import UNK_TOKEN, load_table
from semrel.errors import ParseError

SMALL = "cat 1.0 0.0\ndog 0.5 0.5\nmouse -1.0 0.25\n"


def test_load_and_lookup():
    table = load_table(io.StringIO(SMALL))
    assert table.dimension == 2
    assert len(table) == 3
    assert np.array_equal(table.lookup("cat"), [1.0, 0.0])
    assert np.array_equal(table.lookup("mouse"), [-1.0, 0.25])


def test_lookup_folds_case():
    table = load_table(io.StringIO(SMALL))
    assert np.array_equal(table.lookup("CAT"), table.lookup("cat"))


def test_unknown_token_maps_to_zeros_without_unk_row():
    table = load_table(io.StringIO(SMALL))
    assert "aardvark" not in table
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
    assert len(table) == 2


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
    assert "CAT" in table


def test_duplicate_after_case_folding_rejected():
    with pytest.raises(ParseError, match="duplicate.*line 2"):
        load_table(io.StringIO("Cat 1 0\ncat 0 1\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_value_rejected_with_line(value):
    with pytest.raises(ParseError, match="line 2"):
        load_table(io.StringIO(f"a 1.0 2.0\nb 0.5 {value}\n"))
