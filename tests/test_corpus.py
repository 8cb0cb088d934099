import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CAT_CONLL, conll_text, parse_rows
from oracles import bfs_path, brute_force_path_index, depth_directions, random_tree
from semrel.corpus import (
    DependencyPath,
    PathEdge,
    PathIndex,
    build_path_index,
    extract_paths,
    iter_conll,
    load_index,
    parse_conll,
    path_from_text,
    path_to_text,
    save_index,
)
from semrel.errors import ParseError
from semrel.pipeline import path_count


@pytest.fixture
def cat_sentence():
    return parse_conll(CAT_CONLL)[0]


# ---------------------------------------------------------------- parsing


def test_parse_cat_sentence(cat_sentence):
    # Column i holds token i; index 0 is the root sentinel.
    assert cat_sentence.lemmas == ("", "the", "black", "cat", "chase", "a", "gray", "mouse")
    assert cat_sentence.heads == (0, 3, 3, 4, 0, 7, 7, 4)
    assert cat_sentence.pos[3] == "NOUN" and cat_sentence.deprels[3] == "nsubj"
    assert cat_sentence.positions == {"the": [1], "black": [2], "cat": [3], "chase": [4],
                                      "a": [5], "gray": [6], "mouse": [7]}


def test_parse_accepts_string_file_and_lines():
    from_string = parse_conll(CAT_CONLL)
    from_file = parse_conll(io.StringIO(CAT_CONLL))
    from_lines = parse_conll(CAT_CONLL.splitlines())
    assert from_string == from_file == from_lines


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\x1c", "\x0b"])
def test_string_corpus_splits_lines_as_a_file_does(tmp_path, char):
    text = f"1\tca{char}t\tca{char}t\tNOUN\t_\t_\t0\troot\n"
    target = tmp_path / "corpus.conll"
    target.write_text(text, encoding="utf-8")
    with open(target, encoding="utf-8") as fh:
        from_file = parse_conll(fh)
    assert from_file[0].lemmas == ("", f"ca{char}t")
    assert parse_conll(text) == from_file


def test_crlf_line_endings_never_reach_a_column():
    expected = parse_conll(CAT_CONLL)
    crlf = CAT_CONLL.replace("\n", "\r\n")
    assert parse_conll(io.StringIO(crlf)) == expected  # an untranslated stream
    assert parse_conll(crlf) == expected
    assert parse_conll(CAT_CONLL.replace("\n", "\r")) == expected
    with pytest.raises(ParseError, match="line 9"):
        parse_conll(io.StringIO(crlf + "\r\n1\tcat\tcat\r\n"))


# Any text but tabs and line breaks, which would change the layout of a row.
CELL = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
               max_size=5)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       cells=st.lists(st.tuples(CELL, CELL, CELL, CELL), min_size=1, max_size=8))
def test_random_trees_parse_to_their_rows(seed, cells):
    heads = random_tree(np.random.default_rng(seed), len(cells))
    rows = [(form, lemma, pos, head, deprel)
            for (form, lemma, pos, deprel), head in zip(cells, heads)]
    sentence = parse_rows(rows)
    assert sentence.heads == (0, *heads)
    assert sentence.lemmas == ("", *(lemma.lower() for _, lemma, _, _ in cells))
    assert sentence.pos == ("", *(pos for _, _, pos, _ in cells))
    assert sentence.deprels == ("", *(deprel for _, _, _, deprel in cells))
    for lemma, ids in sentence.positions.items():
        assert ids == [i for i in range(1, len(cells) + 1) if sentence.lemmas[i] == lemma]
    assert sum(map(len, sentence.positions.values())) == len(cells)


def test_blank_line_separates_sentences_and_comments_skipped():
    text = "# doc 1\n" + CAT_CONLL + "\n# doc 2\n" + CAT_CONLL
    assert len(parse_conll(text)) == 2


def test_lemma_matching_folds_case():
    sentence = parse_conll(conll_text([("Cats", "Cat", "NOUN", 2, "nsubj"),
                                       ("sleep", "sleep", "VERB", 0, "root")]))[0]
    expected = DependencyPath((PathEdge("X", "NOUN", "nsubj", "up"),
                               PathEdge("Y", "VERB", "root", "root")))
    assert extract_paths(sentence, "cat", "sleep") == Counter({expected: 1})
    assert extract_paths(sentence, "CAT", "sleep") == Counter({expected: 1})


def test_short_row_rejected():
    with pytest.raises(ParseError, match="line 1"):
        parse_conll("1\tcat\tcat\tNOUN\n")


def test_non_numeric_id():
    bad = CAT_CONLL.replace("5\ta", "5-6\ta", 1)
    with pytest.raises(ParseError, match="line 5"):
        parse_conll(bad)


LONG_NUMBER = "9" * 5000
LONG_QUOTE = repr("9" * 40 + "…")


@pytest.mark.parametrize("column, field", [(0, "ID"), (6, "HEAD")])
def test_an_integer_of_too_many_digits_is_named_with_its_line(column, field):
    rows = CAT_CONLL.splitlines()
    cols = rows[2].split("\t")
    cols[column] = LONG_NUMBER
    rows[2] = "\t".join(cols)
    with pytest.raises(ParseError) as caught:
        parse_conll("\n".join(rows) + "\n")
    assert str(caught.value) == f"{field} {LONG_QUOTE} has too many digits at line 3"


def test_an_id_out_of_order_is_quoted_short():
    rows = conll_text([("a", "a", "X", 0, "root")]).replace("1\t", "1" * 4000 + "\t", 1)
    with pytest.raises(ParseError) as caught:
        parse_conll(rows)
    assert str(caught.value) == (
        f"token IDs must run 1..n, found {'1' * 40}… at line 1")


def test_ids_must_run_from_one():
    rows = conll_text([("a", "a", "X", 0, "root")]).replace("1\t", "2\t", 1)
    with pytest.raises(ParseError, match="IDs must run 1..n"):
        parse_conll(rows)


def test_head_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_conll(conll_text([("a", "a", "X", 5, "root")]))


def test_self_loop_rejected():
    with pytest.raises(ParseError, match="self-loop at line 2"):
        parse_conll(conll_text([("a", "a", "X", 0, "root"), ("b", "b", "X", 2, "dep")]))


def test_missing_root_rejected():
    with pytest.raises(ParseError, match="no root"):
        parse_conll(conll_text([("a", "a", "X", 2, "dep"), ("b", "b", "X", 1, "dep")]))


def test_multiple_roots_rejected():
    with pytest.raises(ParseError, match="multiple root"):
        parse_conll(conll_text([("a", "a", "X", 0, "root"), ("b", "b", "X", 0, "root")]))


def test_cycle_rejected():
    rows = [("r", "r", "X", 0, "root"), ("a", "a", "X", 3, "dep"),
            ("b", "b", "X", 4, "dep"), ("c", "c", "X", 2, "dep")]
    with pytest.raises(ParseError, match="cyclic"):
        parse_conll(conll_text(rows))


# ------------------------------------------------------- path extraction


def test_cat_mouse_path(cat_sentence):
    paths = extract_paths(cat_sentence, "cat", "mouse")
    assert len(paths) == 1
    (path, count), = paths.items()
    assert count == 1
    assert path.edges == (
        PathEdge("X", "NOUN", "nsubj", "up"),
        PathEdge("chase", "VERB", "root", "root"),
        PathEdge("Y", "NOUN", "dobj", "down"),
    )
    assert len(path.edges) - 1 == 2  # tree edges between the endpoints


def test_reversed_pair_swaps_directions(cat_sentence):
    (path,) = extract_paths(cat_sentence, "mouse", "cat")
    assert path.edges == (
        PathEdge("X", "NOUN", "dobj", "up"),
        PathEdge("chase", "VERB", "root", "root"),
        PathEdge("Y", "NOUN", "nsubj", "down"),
    )


def test_interior_lemmas_are_lowercased():
    rows = [("Dogs", "Dog", "NOUN", 2, "nsubj"), ("Chased", "Chase", "VERB", 0, "root"),
            ("Cats", "Cat", "NOUN", 2, "dobj")]
    sentence = parse_conll(conll_text(rows))[0]
    (path,) = extract_paths(sentence, "dog", "cat")
    assert path.edges[1].lemma == "chase"
    assert path.edges[0].lemma == "X" and path.edges[2].lemma == "Y"


def test_adjacent_tokens_share_one_edge(cat_sentence):
    # black -> cat is a single tree edge: two steps, apex at the cat node.
    (path,) = extract_paths(cat_sentence, "black", "cat")
    assert path.edges == (
        PathEdge("X", "ADJ", "amod", "up"),
        PathEdge("Y", "NOUN", "nsubj", "root"),
    )
    assert len(path.edges) - 1 == 1


def test_max_edges_bounds_tree_edges(cat_sentence):
    # black-cat-chase-mouse-gray covers four tree edges.
    assert len(extract_paths(cat_sentence, "black", "gray", max_edges=4)) == 1
    assert len(extract_paths(cat_sentence, "black", "gray", max_edges=3)) == 0
    (path,) = extract_paths(cat_sentence, "black", "gray", max_edges=4)
    assert len(path.edges) == 5


def test_absent_lemma_gives_empty_multiset(cat_sentence):
    assert extract_paths(cat_sentence, "cat", "dog") == Counter()


def test_max_edges_must_be_positive(cat_sentence):
    with pytest.raises(ValueError):
        extract_paths(cat_sentence, "cat", "mouse", max_edges=0)


def test_repeated_occurrences_are_counted():
    rows = [("cat", "cat", "NOUN", 2, "nsubj"), ("saw", "see", "VERB", 0, "root"),
            ("a", "a", "DET", 4, "det"), ("cat", "cat", "NOUN", 2, "dobj"),
            ("and", "and", "CCONJ", 6, "cc"), ("dog", "dog", "NOUN", 4, "conj")]
    sentence = parse_conll(conll_text(rows))[0]
    paths = extract_paths(sentence, "cat", "dog")
    # one path per cat occurrence, and they differ
    assert sum(paths.values()) == 2 and len(paths) == 2


def test_identical_lemma_pair_skips_same_position(cat_sentence):
    assert extract_paths(cat_sentence, "cat", "cat") == Counter()


def test_directions_match_depth_oracle_on_random_trees():
    rng = np.random.default_rng(5)
    pos_tags = ["NOUN", "VERB", "ADJ"]
    deprels = ["nsubj", "dobj", "nmod", "conj"]
    for _ in range(100):
        n = int(rng.integers(2, 9))
        heads = random_tree(rng, n)
        sentence = parse_rows(
            (f"w{i}", f"w{i}", pos_tags[i % 3], heads[i - 1],
             "root" if heads[i - 1] == 0 else deprels[i % 4])
            for i in range(1, n + 1)
        )
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        walk = bfs_path(heads, int(a), int(b))
        expected_dirs = depth_directions(heads, walk)
        paths = extract_paths(sentence, f"w{int(a)}", f"w{int(b)}", max_edges=n)
        assert len(paths) == 1
        (path,) = paths
        assert [e.direction for e in path.edges] == expected_dirs
        assert path.edges[0].lemma == "X" and path.edges[-1].lemma == "Y"


# ------------------------------------------------------------ text form


def test_path_text_worked_example(cat_sentence):
    (path,) = extract_paths(cat_sentence, "cat", "mouse")
    assert path_to_text(path) == "X/NOUN/nsubj/<::chase/VERB/root/^::Y/NOUN/dobj/>"


def test_path_text_round_trips_special_characters():
    path = DependencyPath((
        PathEdge("X", "NOUN", "nsubj", "up"),
        PathEdge("a/b::c", "SYM%", "de p", "root"),
        PathEdge("Y", "NOUN", "dobj", "down"),
    ))
    assert path_from_text(path_to_text(path)) == path


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.text(min_size=1, max_size=6), st.text(min_size=1, max_size=4),
              st.text(min_size=1, max_size=6), st.sampled_from(["up", "down", "root"])),
    min_size=1, max_size=5,
))
def test_path_text_round_trip_property(steps):
    path = DependencyPath(tuple(PathEdge(*s) for s in steps))
    assert path_from_text(path_to_text(path)) == path


def test_path_from_text_rejects_garbage():
    with pytest.raises(ParseError):
        path_from_text("not-a-step")
    with pytest.raises(ParseError):
        path_from_text("a/b/c/??")
    with pytest.raises(ParseError):
        path_from_text("")


# ----------------------------------------------------------------- index


def test_index_add_get_and_counts():
    index = PathIndex()
    path = DependencyPath((PathEdge("X", "N", "r", "root"), PathEdge("Y", "N", "d", "down")))
    index.add("Cat", "Mouse", path, 2)
    index.add("cat", "mouse", path)
    assert index.get("CAT", "MOUSE")[path] == 3
    assert path_count(index, "cat", "mouse") == 3
    assert path_count(index, "cat", "mouse", "distinct") == 1
    assert index.get("mouse", "cat") == Counter()  # direction matters
    assert len(index) == 1


def test_index_get_returns_a_copy():
    index = PathIndex()
    path = DependencyPath((PathEdge("X", "N", "r", "root"),))
    index.add("a", "b", path)
    index.get("a", "b")[path] = 99
    assert index.get("a", "b")[path] == 1


def test_index_add_rejects_a_count_below_one_and_an_index_equals_only_an_index():
    index = PathIndex()
    path = DependencyPath((PathEdge("X", "N", "r", "root"),))
    with pytest.raises(ValueError, match="count must be positive"):
        index.add("a", "b", path, count=0)
    assert len(index) == 0 and index == PathIndex()
    assert (index == object()) is False
    assert index.__eq__(object()) is NotImplemented


INDEX_LEMMAS = ("cat", "Cat", "CAT", "dog", "Dog", "mouse", "tail")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    drawn=st.lists(st.tuples(st.sampled_from(INDEX_LEMMAS + ("ghost",)),
                             st.sampled_from(INDEX_LEMMAS + ("Ghost",))), max_size=8),
    max_edges=st.integers(1, 5),
)
def test_build_path_index_matches_brute_force(seed, sizes, drawn, max_edges):
    rng = np.random.default_rng(seed)
    corpus = []
    for n in sizes:
        heads = random_tree(rng, n)
        lemmas = [INDEX_LEMMAS[int(rng.integers(len(INDEX_LEMMAS)))] for _ in range(n)]
        corpus.append(parse_rows(
            (lemmas[i - 1], lemmas[i - 1], "NOUN", heads[i - 1], "dep")
            for i in range(1, n + 1)))
    # Whatever was drawn, also ask for reversed and duplicate pairs, x == y in
    # mixed case, and a pair whose y occurs while its x never does.
    pairs = drawn + [(y, x) for x, y in drawn] + drawn[:2]
    pairs += [("cat", "CAT"), ("Dog", "dog"), ("ghost", "cat"), ("mouse", "Ghost")]
    expected = brute_force_path_index(corpus, pairs, max_edges)
    got = build_path_index(iter(corpus), pairs, max_edges)
    assert got == expected
    got_text, expected_text = io.StringIO(), io.StringIO()
    save_index(got, got_text)
    save_index(expected, expected_text)
    assert got_text.getvalue() == expected_text.getvalue()


def test_iter_conll_streams_and_parse_conll_lists_it():
    text = CAT_CONLL + "\n" + CAT_CONLL
    stream = iter_conll(io.StringIO(text))
    assert next(stream) == parse_conll(CAT_CONLL)[0]
    assert list(stream) == parse_conll(CAT_CONLL)
    assert parse_conll(text) == list(iter_conll(text))


def test_iter_conll_yields_good_sentences_before_a_bad_one():
    stream = iter_conll(CAT_CONLL + "\n" + "1\tcat\tcat\n")
    assert next(stream) == parse_conll(CAT_CONLL)[0]
    with pytest.raises(ParseError, match="line 9"):
        next(stream)


def test_build_path_index_is_order_independent(cat_sentence):
    other = parse_conll(conll_text([
        ("mice", "mouse", "NOUN", 3, "nsubj"), ("were", "be", "VERB", 3, "cop"),
        ("chased", "chase", "VERB", 0, "root"), ("by", "by", "ADP", 5, "case"),
        ("cats", "cat", "NOUN", 3, "nmod"),
    ]))[0]
    pairs = [("cat", "mouse"), ("black", "gray")]
    a = build_path_index([cat_sentence, other], pairs)
    b = build_path_index([other, cat_sentence], pairs)
    assert a == b and len(a) == 2


def test_index_save_load_round_trip(tmp_path, cat_sentence):
    index = build_path_index([cat_sentence], [("cat", "mouse"), ("black", "gray"), ("cat", "dog")])
    target = tmp_path / "paths.tsv"
    save_index(index, target)
    assert load_index(target) == index
    # pairs without paths do not appear at all
    assert "dog" not in target.read_text()


def test_load_index_names_a_count_of_too_many_digits(tmp_path):
    bad = tmp_path / "badidx.tsv"
    bad.write_text(f"# semrel path index v1\ncat\tmouse\tX/NOUN/nsubj/<\t{LONG_NUMBER}\n")
    with pytest.raises(ParseError) as caught:
        load_index(bad)
    assert str(caught.value) == f"{bad}: count {LONG_QUOTE} has too many digits at line 2"


def test_load_index_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("x\ty\tX/N/r^\t1\n")
    with pytest.raises(ParseError):
        load_index(bad)


INDEX_ROW = "cat\tmouse\tX/NOUN/nsubj/<\t1\n"


@pytest.mark.parametrize("row", ["\tmouse\tX/NOUN/nsubj/<\t1", "cat\t\tX/NOUN/nsubj/<\t1"],
                         ids=["empty-x", "empty-y"])
def test_load_index_refuses_an_empty_term(tmp_path, row):
    bad = tmp_path / "badidx.tsv"
    bad.write_text(f"# semrel path index v1\n{INDEX_ROW}{row}\n")
    with pytest.raises(ParseError) as caught:
        load_index(bad)
    assert str(caught.value) == f"{bad}: empty term at line 3"


@pytest.mark.parametrize("text", ["", INDEX_ROW, "# semrel path index v2\n" + INDEX_ROW],
                         ids=["empty", "no-header", "v2-header"])
def test_load_index_requires_its_header_on_line_1(tmp_path, text):
    good = tmp_path / "good.tsv"
    good.write_text("# semrel path index v1\n" + INDEX_ROW)
    assert len(load_index(good)) == 1
    bad = tmp_path / "bad.tsv"
    bad.write_text(text)
    with pytest.raises(ParseError) as caught:
        load_index(bad)
    assert str(caught.value) == f"{bad}: expected the header '# semrel path index v1' at line 1"


@pytest.mark.parametrize("path, message", [
    ("", "empty path text"),
    ("X/NOUN/nsubj", "malformed path step 'X/NOUN/nsubj'"),
    ("X/NOUN/nsubj/?", "unknown direction symbol '?' in step 'X/NOUN/nsubj/?'"),
])
def test_load_index_names_the_line_of_a_malformed_path(tmp_path, path, message):
    bad = tmp_path / "badidx.tsv"
    bad.write_text(f"# semrel path index v1\ncat\tmouse\tX/NOUN/nsubj/<\t1\ncat\tdog\t{path}\t2\n")
    with pytest.raises(ParseError) as caught:
        load_index(bad)
    assert str(caught.value) == f"{bad}: {message} at line 3"
