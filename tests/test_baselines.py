
import numpy as np
import pytest

from helpers import make_table
from semrel.baselines import (
    baseline_classify,
    combine_vectors,
    features_for_pairs,
    predict_linear,
    train_linear,
)
from semrel.errors import DataError
from semrel.pairs import PairRecord, RELATED, UNRELATED


def separable_world(n_per_class=20, seed=4):
    """Two classes with linearly separable concatenated vectors."""
    rng = np.random.default_rng(seed)
    vectors, records = {}, []
    for i in range(n_per_class):
        for label, center in (("LEFT", -2.0), ("RIGHT", 2.0)):
            x = f"{label.lower()}x{i}"
            y = f"{label.lower()}y{i}"
            vectors[x] = rng.normal(loc=center, scale=0.3, size=3)
            vectors[y] = rng.normal(loc=center, scale=0.3, size=3)
            records.append(PairRecord(x, y, label))
    return make_table(vectors), records


# ------------------------------------------------------ feature building


def test_combine_vectors_hand_values():
    vx = np.array([1.0, 2.0])
    vy = np.array([3.0, 5.0])
    assert np.array_equal(combine_vectors(vx, vy, "concat"), [1.0, 2.0, 3.0, 5.0])
    assert np.array_equal(combine_vectors(vx, vy, "diff"), [-2.0, -3.0])
    assert np.array_equal(combine_vectors(vx, vy, "asym"), [-2.0, -3.0, 4.0, 9.0])
    with pytest.raises(ValueError):
        combine_vectors(vx, vy, "sum")


def test_features_for_pairs_stacks_rows():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    feats = features_for_pairs([PairRecord("a", "b", ""), PairRecord("b", "a", "")], table, "diff")
    assert feats.shape == (2, 2)
    assert np.array_equal(feats[0], [1.0, -1.0])


# -------------------------------------------------------------- training


def test_separable_data_is_fit_perfectly():
    table, records = separable_world()
    model = train_linear(records, table, epochs=20, seed=3)
    predictions = [predict_linear(model, table, r.x, r.y) for r in records]
    assert predictions == [r.label for r in records]


def test_training_is_deterministic():
    table, records = separable_world()
    a = train_linear(records, table, epochs=5, seed=9)
    b = train_linear(records, table, epochs=5, seed=9)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_training_input_validation():
    table, records = separable_world(n_per_class=2)
    with pytest.raises(DataError):
        train_linear([], table)
    with pytest.raises(ValueError):
        train_linear(records, table, method="sum")
    with pytest.raises(DataError, match="LEFT"):
        train_linear(records, table, label_set=("RIGHT",))


def test_the_label_set_is_checked_before_the_method():
    table, records = separable_world(n_per_class=2)
    with pytest.raises(DataError, match="invalid labels in training set: LEFT"):
        train_linear(records, table, method="sum", label_set=("RIGHT",))


# ---------------------------------------------------- gate and pipeline


def test_baseline_gate_and_classifier():
    table = make_table({
        "r1": [1.0, 0.0], "r2": [1.0, 0.0],
        "u1": [1.0, 0.0], "u2": [-1.0, 0.0],
    })
    train_recs = [PairRecord("r1", "r2", "SYN")]
    model = train_linear(train_recs, table, epochs=2, seed=0, label_set=("ANT", "SYN"))
    assert baseline_classify(model, table, 0.8, "u1", "u2", "RANDOM") == "RANDOM"
    assert baseline_classify(model, table, 0.8, "r1", "r2", "RANDOM") == "SYN"
    for threshold in (-0.1, 1.1):  # a combiner's t, so it lies in [0, 1]
        with pytest.raises(ValueError, match="t must lie in"):
            baseline_classify(model, table, threshold, "r1", "r2", "RANDOM")
