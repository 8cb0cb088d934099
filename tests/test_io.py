"""write_document against the one-shot encoding that it replaced."""

import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import reference_document_text
from semrel._io import _BLOCK_VALUES, write_document

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
