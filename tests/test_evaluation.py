import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_binary_f1
from semrel.errors import DataError
from semrel.evaluation import (
    binary_f1,
    confusion,
    lexical_split,
    report_tsv,
    scores,
)
from semrel.pairs import PairRecord, RELATION_LABELS

# Gold rows A,B against predictions; confusion [[3, 1], [0, 2]].
FIX_GOLD = ["A", "A", "A", "A", "B", "B"]
FIX_PRED = ["A", "A", "A", "B", "B", "B"]


# ------------------------------------------------------------- confusion


def test_confusion_counts():
    m = confusion(FIX_GOLD, FIX_PRED)
    assert m.labels == ("A", "B")
    assert np.array_equal(m.counts, [[3, 1], [0, 2]])
    assert m.counts[m.labels.index("A"), m.labels.index("B")] == 1
    assert m.counts[m.labels.index("A")].sum() == 4


def test_confusion_with_explicit_label_order():
    m = confusion(FIX_GOLD, FIX_PRED, labels=("B", "A"))
    assert np.array_equal(m.counts, [[2, 0], [1, 3]])


def test_confusion_rejects_stray_and_mismatched_input():
    with pytest.raises(DataError, match="C"):
        confusion(["A"], ["C"], labels=("A", "B"))
    with pytest.raises(ValueError):
        confusion(["A", "A"], ["A"])


# ---------------------------------------------------------------- scores


def test_macro_f1_hand_fixture():
    # A: P=3/3, R=3/4 -> F1=6/7;  B: P=2/3, R=2/2 -> F1=4/5
    # macro F1 = (6/7 + 4/5) / 2 = 29/35
    report = scores(FIX_GOLD, FIX_PRED, average="macro")
    assert report.f1 == pytest.approx(29 / 35, abs=1e-9)
    rows = {row.label: row for row in report.per_label}
    assert rows["A"].precision == pytest.approx(1.0)
    assert rows["A"].f1 == pytest.approx(6 / 7)
    assert rows["B"].f1 == pytest.approx(4 / 5)


def test_weighted_f1_hand_fixture():
    # supports 4 and 2: (4*(6/7) + 2*(4/5)) / 6 = 88/105
    report = scores(FIX_GOLD, FIX_PRED, average="weighted")
    assert report.f1 == pytest.approx(88 / 105, abs=1e-9)


def test_degenerate_ratios_score_zero():
    report = scores(["A", "B"], ["B", "A"], average="macro")
    assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0


def test_exclude_drops_label_from_rows_and_average():
    gold = ["A", "A", "RANDOM", "RANDOM"]
    pred = ["A", "RANDOM", "RANDOM", "RANDOM"]
    report = scores(gold, pred, average="weighted", exclude=("RANDOM",))
    assert [row.label for row in report.per_label] == ["A"]
    assert report.recall == pytest.approx(0.5)
    with pytest.raises(DataError):
        scores(gold, pred, exclude=("A", "RANDOM"))


def test_all_negative_dataset_scores_zero():
    gold = ["RANDOM"] * 10
    pred = ["RANDOM"] * 10
    report = scores(gold, pred, labels=RELATION_LABELS, average="weighted",
                    exclude=("RANDOM",))
    assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0


def test_unknown_average_rejected():
    with pytest.raises(ValueError):
        scores(FIX_GOLD, FIX_PRED, average="median")


def test_binary_f1_hand_case():
    gold = ["T", "T", "T", "F"]
    pred = ["T", "F", "T", "T"]
    # tp=2 fp=1 fn=1 -> P=2/3 R=2/3 F1=2/3
    assert binary_f1(gold, pred, "T") == pytest.approx(2 / 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40))
def test_binary_f1_on_flags_equals_the_reference_bit_for_bit(rows):
    gold = [g for g, _ in rows]
    pred = [p for _, p in rows]
    expected = reference_binary_f1(gold, pred)
    assert binary_f1(gold, pred, True) == expected
    assert binary_f1(np.array(gold, dtype=bool), np.array(pred, dtype=bool), True) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")), max_size=40))
def test_binary_f1_on_labels_counts_each_pair(rows):
    gold = [g for g, _ in rows]
    pred = [p for _, p in rows]
    expected = reference_binary_f1([g == "A" for g in gold], [p == "A" for p in pred])
    assert binary_f1(gold, pred, "A") == expected


# --------------------------------------------------------- lexical split


def split_records(n_words=30, per_word=3):
    records = []
    for i in range(n_words):
        for j in range(per_word):
            records.append(PairRecord(f"x{i:02d}", f"y{i:02d}_{j}", "SYN"))
    return records


def test_split_is_lexically_disjoint_over_many_seeds():
    records = split_records()
    for seed in range(25):
        train, val = lexical_split(records, 0.3, seed=seed)
        assert train and val
        assert len(train) + len(val) == len(records)
        assert {r.x for r in train}.isdisjoint({r.x for r in val})


def test_records_follow_their_x_word():
    train, val = lexical_split(split_records(), 0.3, seed=1)
    val_words = {r.x for r in val}
    for word in val_words:
        assert sum(1 for r in val if r.x == word) == 3


def test_split_is_deterministic():
    records = split_records()
    assert lexical_split(records, 0.3, seed=5) == lexical_split(records, 0.3, seed=5)
    a, _ = lexical_split(records, 0.3, seed=5)
    b, _ = lexical_split(records, 0.3, seed=6)
    assert a != b


@pytest.mark.parametrize("seed", range(1, 5))
def test_an_x_word_goes_to_one_side_whatever_its_case(seed):
    """Every lookup folds case, so Cat and cat are one x word."""
    records = [PairRecord("Cat", "mouse", "HYPER"), PairRecord("cat", "animal", "HYPER"),
               PairRecord("dog", "tail", "PART_OF"), PairRecord("bird", "wing", "PART_OF")]
    train, val = lexical_split(records, 0.5, seed=seed)
    assert len(train) + len(val) == len(records)
    assert {r.x.lower() for r in train}.isdisjoint({r.x.lower() for r in val})


def test_extreme_fractions_are_clamped_to_leave_both_sides():
    records = [PairRecord("a", "b", "SYN"), PairRecord("c", "d", "SYN")]
    train, val = lexical_split(records, 0.01, seed=0)
    assert len(train) == 1 and len(val) == 1
    train, val = lexical_split(records, 0.99, seed=0)
    assert len(train) == 1 and len(val) == 1


def test_split_input_validation():
    with pytest.raises(DataError):
        lexical_split([], 0.3)
    with pytest.raises(DataError):
        lexical_split([PairRecord("a", "b", "SYN")], 0.3)
    with pytest.raises(ValueError):
        lexical_split(split_records(), 0.0)
    with pytest.raises(ValueError):
        lexical_split(split_records(), 1.0)


# -------------------------------------------------------------- reports


def test_report_tsv_layout():
    report = scores(FIX_GOLD, FIX_PRED, average="macro")
    text = report_tsv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "label\tprecision\trecall\tf1\tsupport"
    assert lines[1].startswith("A\t1.000000\t0.750000\t")
    assert lines[-1].startswith("macro\t")
    assert lines[-1].endswith("\t6")
