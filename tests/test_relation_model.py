import io
import json
import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_model, dense_gradients, make_table, random_table
from oracles import central_difference, reference_sgd_step, reference_train, rel_error
import copy

from semrel.corpus import DependencyPath, PathEdge, PathIndex, path_to_text
from semrel.errors import DataError
from semrel.pairs import PairRecord
from semrel.path_encoder import (
    STEP_COMPONENTS,
    ComponentEmbeddings,
    PathEncoder,
    average_paths_with_cache,
    input_width,
)
from semrel.pipeline import syn_heuristic
from semrel.relation_model import (
    MODEL_FORMAT,
    MODEL_VERSION,
    RELATEDNESS_PRESET,
    RELATIONS_PRESET,
    TrainConfig,
    apply_gradients,
    compile_example,
    forward,
    init_params,
    load_model,
    loss_and_gradients,
    pair_distribution,
    save_model,
    train,
    trainable_arrays,
)

P1 = DependencyPath((
    PathEdge("X", "NOUN", "nsubj", "up"),
    PathEdge("chase", "VERB", "root", "root"),
    PathEdge("Y", "NOUN", "dobj", "down"),
))
P2 = DependencyPath((PathEdge("X", "NOUN", "conj", "up"), PathEdge("Y", "NOUN", "cc", "root")))

LABELS = ("ANT", "HYPER", "SYN")


TINY_RECORDS = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN"),
                PairRecord("mouse", "dog", "ANT")]


def compile_examples(params, index, records):
    return [compile_example(params, r.x, r.y, index.get(r.x, r.y), r.label) for r in records]


def tiny_setup(hidden_layers=0, seed=7, train_word_vectors=False):
    """Two pairs with paths, in one or two length groups, and one without."""
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    config = TrainConfig(hidden_layers=hidden_layers, hidden_dim=4, mlp_hidden_dim=3,
                         lemma_dim=2, pos_dim=2, deprel_dim=2, dir_dim=1, seed=seed,
                         train_word_vectors=train_word_vectors)
    index = make_index()
    params = init_params(config, [(r.x, r.y) for r in TINY_RECORDS], index, table, LABELS,
                         np.random.default_rng(seed))
    return table, config, compile_examples(params, index, TINY_RECORDS), params


def make_index():
    index = PathIndex()
    index.add("cat", "mouse", P1, 2)
    index.add("cat", "mouse", P2, 1)
    index.add("dog", "cat", P2, 3)
    return index


# ---------------------------------------------------------------- config


def test_presets():
    assert RELATEDNESS_PRESET.epochs == 3 and RELATEDNESS_PRESET.hidden_layers == 0
    assert RELATIONS_PRESET.epochs == 5 and RELATIONS_PRESET.word_dropout_rate == 0.0
    assert RELATIONS_PRESET.learning_rate == 0.1


@pytest.mark.parametrize("bad", [
    dict(hidden_layers=2),
    dict(word_dropout_rate=1.0),
    dict(word_dropout_rate=-0.1),
    dict(epochs=0),
    dict(learning_rate=0.0),
    dict(path_average="median"),
    dict(hidden_dim=0),
    dict(learning_rate=float("nan")),
    dict(learning_rate=float("inf")),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_a_lemma_dim_below_one_is_rejected():
    with pytest.raises(ValueError, match="lemma_dim must be positive"):
        TrainConfig(lemma_dim=0)


@pytest.mark.parametrize("hidden_layers", [0, 1])
def test_each_initial_array_is_the_next_uniform_draw_of_its_shape(hidden_layers):
    """The seed's rng draws the edge components, the recurrent unit and the
    classifier in ``trainable_arrays`` order, each from [-0.1, 0.1]; no lemma
    row is seeded, since lemma_dim differs from the table's width."""
    _, _, _, params = tiny_setup(hidden_layers=hidden_layers, seed=7)
    rng = np.random.default_rng(7)
    arrays = trainable_arrays(params)
    assert list(arrays)[-2:] == (["w2", "b2"] if hidden_layers else ["w1", "b1"])
    for name, array in arrays.items():
        assert np.array_equal(array, rng.uniform(-0.1, 0.1, size=array.shape)), name


# --------------------------------------------------------------- forward


def test_featurize_concatenation_order():
    # The classifier input is [vector of x ; path vector ; vector of y].
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    _, _, _, params = tiny_setup()
    index = make_index()
    v_paths, _ = average_paths_with_cache(index.get("cat", "mouse"), params.encoder)
    x, y = table.lookup("cat"), table.lookup("mouse")
    [dist] = pair_distribution(params, table, index, [("cat", "mouse")])
    assert np.array_equal(dist, forward(np.concatenate([x, v_paths, y]), params))
    assert not np.array_equal(dist, forward(np.concatenate([y, v_paths, x]), params))


def test_forward_is_a_distribution():
    _, _, _, params = tiny_setup()
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=params.w1.shape[1])
        dist = forward(v, params)
        assert dist.shape == (len(LABELS),)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert np.all(dist > 0.0) and np.all(dist < 1.0)


def test_forward_rejects_wrong_width():
    _, _, _, params = tiny_setup()
    with pytest.raises(ValueError):
        forward(np.zeros(params.w1.shape[1] + 1), params)


def test_predict_breaks_exact_ties_toward_first_label():
    model = constant_model(LABELS, [0.4, 0.4, 0.2])
    table = random_table(["cat", "mouse"], 2, seed=1)
    [dist] = pair_distribution(model, table, PathIndex(), [("cat", "mouse")])
    assert dist[0] == dist[1]
    assert syn_heuristic(LABELS, dist, n_paths=0) == "ANT"
    assert LABELS[int(dist.argmax())] == "ANT"


def test_pair_distribution_uses_index_paths():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    _, _, examples, params = tiny_setup()
    index = make_index()
    [dist] = pair_distribution(params, table, index, [("cat", "mouse")])
    loss_input = np.concatenate([
        table.lookup("cat"),
        np.zeros(params.encoder.hidden_size),
        table.lookup("mouse"),
    ])
    # paths exist for the pair, so the path block cannot be all zeros
    assert not np.allclose(dist, forward(loss_input, params))


# A pair with two paths, one with one, one without, a case-folded repeat and
# a word outside the table.
SOME_PAIRS = [("cat", "mouse"), ("dog", "cat"), ("mouse", "dog"), ("Cat", "MOUSE"), ("owl", "cat")]


@pytest.mark.parametrize("hidden_layers", [0, 1])
@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(st.sampled_from(SOME_PAIRS), max_size=8))
def test_pair_distribution_over_a_list_stacks_single_pair_calls(hidden_layers, pairs):
    table, _, _, params = tiny_setup(hidden_layers=hidden_layers)
    index = make_index()
    batch = pair_distribution(params, table, index, pairs)
    assert batch.shape == (len(pairs), len(LABELS))
    for row, pair in zip(batch, pairs):
        assert np.array_equal(row, pair_distribution(params, table, index, [pair])[0])


P3 = DependencyPath((
    PathEdge("X", "NOUN", "nsubj", "up"),
    PathEdge("hunt", "VERB", "root", "root"),
    PathEdge("Y", "NOUN", "dobj", "down"),
))


@pytest.mark.parametrize("hidden_layers", [0, 1])
def test_a_pair_scores_the_same_bits_whatever_pairs_share_the_call(hidden_layers):
    # Pairs that share paths and path lengths: P1 and P3 have 3 steps, P2 has 2.
    index = PathIndex()
    for x, y, path, count in [("cat", "mouse", P1, 2), ("cat", "mouse", P3, 1),
                              ("cat", "mouse", P2, 1), ("dog", "cat", P3, 2),
                              ("dog", "cat", P1, 1), ("mouse", "dog", P1, 3),
                              ("owl", "cat", P2, 1), ("owl", "cat", P3, 4)]:
        index.add(x, y, path, count)
    table = random_table(["cat", "mouse", "dog", "owl"], 3, seed=1)
    config = TrainConfig(hidden_layers=hidden_layers, hidden_dim=4, mlp_hidden_dim=3,
                         lemma_dim=2, pos_dim=2, deprel_dim=2, dir_dim=1, seed=7, epochs=2)
    keys = index.pair_keys()
    records = [PairRecord(x, y, label) for (x, y), label in zip(keys, ["HYPER", "SYN", "ANT", "SYN"])]
    params = train(records, [], config, index, table, LABELS)
    pairs = keys + [("mouse", "cat"), ("dog", "cat")]
    batch = pair_distribution(params, table, index, pairs)
    for k, pair in enumerate(pairs):
        assert np.array_equal(batch[k], pair_distribution(params, table, index, [pair])[0])


# ------------------------------------------------------------- gradients


@pytest.mark.parametrize("hidden_layers", [0, 1])
def test_gradients_match_finite_differences(hidden_layers):
    table, _, examples, params = tiny_setup(hidden_layers=hidden_layers)
    for ex in examples:
        _, grads = loss_and_gradients(ex, params, table)

        def loss():
            return loss_and_gradients(ex, params, table)[0]

        assert list(vars(grads)) == list(trainable_arrays(params))
        for (name, param), (gname, grad) in zip(trainable_arrays(params).items(),
                                                dense_gradients(params, grads).items()):
            assert name == gname
            flat_p = param.reshape(-1)
            flat_g = grad.reshape(-1)
            for i in range(flat_p.size):
                fd = central_difference(loss, flat_p, i)
                assert rel_error(fd, flat_g[i]) < 1e-4, (ex.x, ex.y, name)


def test_loss_is_mean_negative_log_probability():
    table, _, examples, params = tiny_setup()
    index = make_index()
    per_example = []
    for ex in examples:
        loss, _ = loss_and_gradients(ex, params, table)
        [dist] = pair_distribution(params, table, index, [(ex.x, ex.y)])
        assert loss == pytest.approx(-math.log(dist[ex.gold]), rel=1e-12)
        per_example.append(loss)
    assert training_loss_from(params, table, examples) == pytest.approx(
        sum(per_example) / len(per_example), rel=1e-12)


def test_unlabelled_example_rejected():
    _, _, _, params = tiny_setup()
    with pytest.raises(ValueError):
        compile_example(params, "cat", "mouse", {}, None)


def test_apply_gradients_moves_against_gradient():
    table, _, examples, params = tiny_setup()
    for ex in examples:
        before, grads = loss_and_gradients(ex, params, table)
        apply_gradients(params, grads, 0.5)
        after, _ = loss_and_gradients(ex, params, table)
        assert after < before, (ex.x, ex.y)


def training_loss_from(params, table, examples):
    """The mean of the examples' losses."""
    return sum(loss_and_gradients(ex, params, table)[0] for ex in examples) / len(examples)


@pytest.mark.parametrize("hidden_layers", [0, 1])
@pytest.mark.parametrize("train_word_vectors", [False, True])
def test_apply_gradients_steps_every_trainable_array(hidden_layers, train_word_vectors):
    table, _, examples, params = tiny_setup(hidden_layers=hidden_layers,
                                            train_word_vectors=train_word_vectors)
    # (cat, mouse) has paths of two lengths, so every array gets a gradient.
    _, grads = loss_and_gradients(examples[0], params, table)
    assert list(vars(grads)) == list(trainable_arrays(params))
    before = {name: arr.copy() for name, arr in trainable_arrays(params).items()}
    apply_gradients(params, grads, 0.3)
    for name, grad in dense_gradients(params, grads).items():
        arr = trainable_arrays(params)[name]
        assert grad.any(), name
        assert np.array_equal(arr, before[name] - 0.3 * grad), name


# -------------------------------------------------------------- training


def oracle_world():
    """Pairs with paths of two lengths, with one path, with two paths of one
    length, with only an edgeless path, and with none."""
    index = make_index()
    for x, y, path, count in [("owl", "cat", P1, 1), ("owl", "cat", P3, 2),
                              ("owl", "dog", DependencyPath(()), 1)]:
        index.add(x, y, path, count)
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN"),
               PairRecord("owl", "cat", "HYPER"), PairRecord("owl", "dog", "ANT"),
               PairRecord("mouse", "dog", "ANT")]
    return index, records, random_table(["cat", "mouse", "dog", "owl"], 3, seed=1)


@pytest.mark.parametrize("overrides", [
    {}, dict(hidden_layers=1), dict(train_word_vectors=True), dict(word_dropout_rate=0.3),
    dict(path_average="uniform"),
], ids=["default", "hidden_layer", "word_vectors", "word_dropout", "uniform"])
def test_training_gives_the_bytes_of_the_dense_reference_step(overrides):
    index, records, table = oracle_world()
    config = TrainConfig(epochs=4, seed=5, hidden_dim=4, mlp_hidden_dim=3, lemma_dim=2,
                         pos_dim=2, deprel_dim=2, dir_dim=1, **overrides)
    got = trainable_arrays(train(records, [], config, index, table, LABELS))
    expected = trainable_arrays(reference_train(records, config, index, table, LABELS))
    assert list(got) == list(expected)
    for name, array in got.items():
        assert array.tobytes() == expected[name].tobytes(), name


def test_a_step_on_a_large_lemma_matrix_writes_only_its_rows():
    """A step on a 50,000 x 50 lemma matrix (20 MB) traces well under 1 MB,
    where a dense gradient and its update would take 40 MB, and it leaves the
    bytes that the dense reference step leaves."""
    params = model_with_lemma_rows(50_000, 50)
    config = TrainConfig(learning_rate=0.5)
    path = DependencyPath((PathEdge("lemma7", "NOUN", "nsubj", "up"),
                           PathEdge("lemma49999", "VERB", "root", "root"),
                           PathEdge("lemma7", "NOUN", "dobj", "down")))
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    expected = copy.deepcopy(params)
    reference_sgd_step(expected, table, "cat", "mouse", {path: 2, P2: 1}, "HYPER", config, None)
    example = compile_example(params, "cat", "mouse", {path: 2, P2: 1}, "HYPER")
    assert example.lemma_rows.tolist() == [0, 7, 49999]
    tracemalloc.start()
    try:
        _, grads = loss_and_gradients(example, params, table)
        apply_gradients(params, grads, config.learning_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert np.array_equal(grads.lemma.rows, example.lemma_rows)
    for name, array in trainable_arrays(params).items():
        assert array.tobytes() == trainable_arrays(expected)[name].tobytes(), name


def test_a_step_without_a_path_step_leaves_the_encoder_alone():
    table, _, _, params = tiny_setup(hidden_layers=1, train_word_vectors=True)
    encoder = ("lemma", "pos", "deprel", "direction", "w_in", "w_rec", "bias")
    before = {name: trainable_arrays(params)[name].tobytes() for name in encoder}
    for paths in ({}, {DependencyPath(()): 2}):
        example = compile_example(params, "mouse", "dog", paths, "ANT")
        assert example.lemma_rows is None
        _, grads = loss_and_gradients(example, params, table)
        assert all(getattr(grads, name) is None for name in encoder)
        apply_gradients(params, grads, 0.5)
        assert {name: trainable_arrays(params)[name].tobytes() for name in encoder} == before
        assert grads.w1.any() and grads.word_vectors.values.any()


@pytest.mark.parametrize("overrides", [
    {}, dict(hidden_layers=1), dict(train_word_vectors=True), dict(word_dropout_rate=0.3),
    dict(path_average="uniform"),
], ids=["default", "hidden_layer", "word_vectors", "word_dropout", "uniform"])
def test_training_is_deterministic_given_seed(overrides):
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    index = make_index()
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN"),
               PairRecord("mouse", "dog", "ANT")]
    shape = dict(epochs=3, hidden_dim=4, lemma_dim=2, pos_dim=2, deprel_dim=2, dir_dim=1,
                 **overrides)
    config = TrainConfig(seed=11, **shape)
    a = train(records, [], config, index, table)
    b = train(records, [], config, index, table)
    for (_, pa), (_, pb) in zip(trainable_arrays(a).items(), trainable_arrays(b).items()):
        assert np.array_equal(pa, pb)
    c = train(records, [], TrainConfig(seed=12, **shape), index, table)
    assert not np.array_equal(a.w1, c.w1)


def test_training_reduces_loss():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    index = make_index()
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN"),
               PairRecord("mouse", "dog", "ANT")]
    short = TrainConfig(epochs=1, seed=5, hidden_dim=4, lemma_dim=2, pos_dim=2,
                        deprel_dim=2, dir_dim=1)
    long = TrainConfig(epochs=25, seed=5, hidden_dim=4, lemma_dim=2, pos_dim=2,
                       deprel_dim=2, dir_dim=1)
    short_model = train(records, [], short, index, table)
    long_model = train(records, [], long, index, table)
    loss_short = training_loss_from(short_model, table, compile_examples(short_model, index, records))
    loss_long = training_loss_from(long_model, table, compile_examples(long_model, index, records))
    assert loss_long < loss_short


def test_default_label_set_is_sorted():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    records = [PairRecord("cat", "mouse", "SYN"), PairRecord("dog", "cat", "ANT")]
    config = TrainConfig(epochs=1, seed=5, hidden_dim=2, lemma_dim=2, pos_dim=1,
                         deprel_dim=1, dir_dim=1)
    model = train(records, [], config, make_index(), table)
    assert model.label_set == ("ANT", "SYN")


def test_training_rejects_stray_labels_and_empty_sets():
    table = random_table(["cat", "mouse"], 3, seed=1)
    config = TrainConfig(epochs=1, seed=5)
    with pytest.raises(DataError):
        train([], [], config, PathIndex(), table)
    with pytest.raises(DataError, match="BOGUS"):
        train([PairRecord("cat", "mouse", "BOGUS")], [], config, PathIndex(), table,
              label_set=("ANT", "SYN"))


def test_word_dropout_changes_training_but_keeps_determinism():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    index = make_index()
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN")]
    base = dict(epochs=2, seed=9, hidden_dim=4, lemma_dim=2, pos_dim=2, deprel_dim=2, dir_dim=1)
    plain = train(records, [], TrainConfig(**base), index, table)
    dropped_a = train(records, [], TrainConfig(word_dropout_rate=0.5, **base), index, table)
    dropped_b = train(records, [], TrainConfig(word_dropout_rate=0.5, **base), index, table)
    assert np.array_equal(dropped_a.w1, dropped_b.w1)
    assert not np.array_equal(plain.w1, dropped_a.w1)


def test_add_order_changes_neither_the_path_order_nor_the_model_bytes():
    """Two indexes that add the same paths in opposite orders give each pair's
    paths in the same order, that of their text, and train the same model
    bytes, word dropout included."""
    p3 = DependencyPath((PathEdge("X", "NOUN", "nmod", "up"), PathEdge("by", "ADP", "case", "root"),
                         PathEdge("Y", "NOUN", "obl", "down")))
    rows = [("cat", "mouse", P1, 2), ("cat", "mouse", P2, 1), ("cat", "mouse", p3, 1),
            ("dog", "cat", P2, 3), ("dog", "cat", p3, 2)]
    indexes = PathIndex(), PathIndex()
    for row in rows:
        indexes[0].add(*row)
    for row in reversed(rows):
        indexes[1].add(*row)
    for x, y in indexes[0].pair_keys():
        order = list(indexes[0].get(x, y))
        assert order == list(indexes[1].get(x, y)) == sorted(order, key=path_to_text)
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    config = TrainConfig(epochs=2, seed=9, hidden_dim=4, lemma_dim=2, pos_dim=2, deprel_dim=2,
                         dir_dim=1, word_dropout_rate=0.3)
    saved = []
    for index in indexes:
        buf = io.StringIO()
        save_model(train(TINY_RECORDS, [], config, index, table), buf)
        saved.append(buf.getvalue())
    assert saved[0] == saved[1]


# -------------------------------------------------- trainable word vectors


def test_trainable_word_vectors_update_and_fall_back():
    table = random_table(["cat", "mouse", "dog", "bird"], 3, seed=1)
    index = make_index()
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN")]
    config = TrainConfig(epochs=3, seed=9, hidden_dim=4, lemma_dim=2, pos_dim=2,
                         deprel_dim=2, dir_dim=1, train_word_vectors=True)
    model = train(records, [], config, index, table)
    assert model.word_vectors is not None
    assert sorted(model.word_vectors.index) == ["cat", "dog", "mouse"]
    # training moved the copies away from the frozen table rows
    assert not np.array_equal(model.word_vector("cat", table), table.lookup("cat"))
    # tokens outside the trainable set still read the table
    assert np.array_equal(model.word_vector("bird", table), table.lookup("bird"))


def test_frozen_table_never_changes_during_training():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    snapshot = {w: table.lookup(w).copy() for w in ("cat", "mouse", "dog")}
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN")]
    config = TrainConfig(epochs=2, seed=9, hidden_dim=4, lemma_dim=2, pos_dim=2,
                         deprel_dim=2, dir_dim=1, train_word_vectors=True)
    train(records, [], config, make_index(), table)
    for w, vec in snapshot.items():
        assert np.array_equal(table.lookup(w), vec)


# ----------------------------------------------------------- persistence


@pytest.mark.parametrize("hidden_layers", [0, 1])
def test_save_load_round_trip_is_bit_exact(hidden_layers):
    table, _, examples, params = tiny_setup(hidden_layers=hidden_layers)
    index = make_index()
    buf = io.StringIO()
    save_model(params, buf)
    buf.seek(0)
    loaded = load_model(buf)
    assert loaded.label_set == params.label_set
    assert loaded.hidden_layers == params.hidden_layers
    for (_, pa), (_, pb) in zip(trainable_arrays(params).items(), trainable_arrays(loaded).items()):
        assert np.array_equal(pa, pb)
    pairs = [("cat", "mouse"), ("dog", "cat"), ("mouse", "dog")]
    a = pair_distribution(params, table, index, pairs)
    b = pair_distribution(loaded, table, index, pairs)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("hidden_layers", [0, 1])
def test_indented_model_file_scores_like_the_compact_one(hidden_layers):
    """Model files used to be written with indent=1; they still load, to the same bits."""
    table, _, _, params = tiny_setup(hidden_layers=hidden_layers, train_word_vectors=True)
    buf = io.StringIO()
    save_model(params, buf)
    compact = buf.getvalue()
    assert compact.count("\n") == 1 and compact.endswith("}\n")
    indented = json.dumps(json.loads(compact), indent=1) + "\n"
    pairs = [("cat", "mouse"), ("dog", "cat"), ("mouse", "dog"), ("bird", "cat")]
    index = make_index()
    a = pair_distribution(load_model(io.StringIO(compact)), table, index, pairs)
    b = pair_distribution(load_model(io.StringIO(indented)), table, index, pairs)
    assert a.tobytes() == b.tobytes()


def test_validation_accuracy_reaches_on_epoch_and_leaves_training_alone():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN"),
               PairRecord("mouse", "dog", "ANT")]
    config = TrainConfig(epochs=3, seed=9, hidden_dim=4, lemma_dim=2, pos_dim=2,
                         deprel_dim=2, dir_dim=1)
    seen = []
    watched = train(records, records, config, make_index(), table,
                    on_epoch=lambda epoch, accuracy: seen.append((epoch, accuracy)))
    plain = train(records, records, config, make_index(), table)
    assert [epoch for epoch, _ in seen] == [1, 2, 3]
    dist = pair_distribution(watched, table, make_index(), [(r.x, r.y) for r in records])
    hits = sum(watched.label_set[k] == r.label for k, r in zip(dist.argmax(axis=1), records))
    assert seen[-1][1] == hits / len(records)
    for (_, a), (_, b) in zip(trainable_arrays(watched).items(), trainable_arrays(plain).items()):
        assert a.tobytes() == b.tobytes()


def test_save_load_keeps_trainable_word_vectors():
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN")]
    config = TrainConfig(epochs=1, seed=9, hidden_dim=4, lemma_dim=2, pos_dim=2,
                         deprel_dim=2, dir_dim=1, train_word_vectors=True)
    model = train(records, [], config, make_index(), table)
    buf = io.StringIO()
    save_model(model, buf)
    buf.seek(0)
    loaded = load_model(buf)
    assert np.array_equal(loaded.word_vectors.matrix, model.word_vectors.matrix)
    assert loaded.word_vectors.index == model.word_vectors.index


@pytest.mark.parametrize("hidden_layers", [0, 1])
def test_the_step_components_keep_their_names_and_order(hidden_layers):
    """lemma, pos, deprel, direction: the columns of a step input, the keys of
    a model file's edge vocabulary, and the first arrays of the encoder and of
    a gradient record."""
    table, _, examples, params = tiny_setup(hidden_layers=hidden_layers, train_word_vectors=True)
    components = ["lemma", "pos", "deprel", "direction"]
    buf = io.StringIO()
    save_model(params, buf)
    assert list(json.loads(buf.getvalue())["edge_vocab"]) == components
    encoder = params.encoder.arrays()
    assert list(encoder) == [*components, "w_in", "w_rec", "bias"]
    assert all(encoder[name] is getattr(params.encoder, name).matrix for name in components)
    assert params.encoder.components() == tuple(getattr(params.encoder, name) for name in components)
    _, grads = loss_and_gradients(examples[0], params, table)
    assert list(vars(grads)) == [*encoder, "w1", "b1", *(["w2", "b2"] * hidden_layers),
                                 "word_vectors"]


def test_a_path_step_names_the_components_of_the_encoder_the_file_and_the_gradients():
    """The step's fields are the encoder's first fields, the model file's
    edge vocabulary and the first arrays of a gradient record, in one order."""
    table, _, examples, params = tiny_setup()
    components = ("lemma", "pos", "deprel", "direction")
    assert PathEdge._fields == STEP_COMPONENTS == components
    assert tuple(f.name for f in fields(PathEncoder))[:4] == components
    buf = io.StringIO()
    save_model(params, buf)
    assert tuple(json.loads(buf.getvalue())["edge_vocab"]) == components
    _, grads = loss_and_gradients(examples[0], params, table)
    assert tuple(vars(grads))[:4] == components


def test_load_rejects_wrong_format_and_version():
    with pytest.raises(DataError):
        load_model(io.StringIO('{"format": "something-else"}'))
    _, _, _, params = tiny_setup()
    buf = io.StringIO()
    save_model(params, buf)
    doc = buf.getvalue().replace('"version": 1', '"version": 99')
    with pytest.raises(DataError, match="version"):
        load_model(io.StringIO(doc))


def test_load_rejects_a_header_without_fields():
    with pytest.raises(DataError, match="edge_vocab"):
        load_model(io.StringIO('{"format": "%s", "version": %d}' % (MODEL_FORMAT, MODEL_VERSION)))


def full_model_doc():
    """A saved model with a hidden layer and trainable word vectors, as a dict."""
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN")]
    config = TrainConfig(epochs=1, seed=9, hidden_layers=1, hidden_dim=4, mlp_hidden_dim=3,
                         lemma_dim=2, pos_dim=2, deprel_dim=2, dir_dim=1,
                         train_word_vectors=True)
    buf = io.StringIO()
    save_model(train(records, [], config, make_index(), table), buf)
    return json.loads(buf.getvalue())


def drop_row(matrix):
    return matrix[:-1]


def drop_column(matrix):
    return [row[:-1] for row in matrix]


def one_value(_):
    return [0.0]


# Each edit leaves valid JSON of the right type that numpy would broadcast or
# multiply without complaint until some later forward pass, or never.
@pytest.mark.parametrize("section, field, edit", [
    ("classifier", "w1", drop_column),
    ("classifier", "b1", one_value),
    ("classifier", "w2", drop_row),
    ("classifier", "b2", one_value),
    ("recurrent", "w_in", drop_column),
    ("recurrent", "w_rec", drop_row),
    ("recurrent", "bias", one_value),
    ("word_vectors", "matrix", drop_column),
    ("word_vectors", "matrix", drop_row),
])
def test_load_rejects_a_misshapen_matrix(section, field, edit):
    doc = full_model_doc()
    load_model(io.StringIO(json.dumps(doc)))  # the unedited document loads
    doc[section][field] = edit(doc[section][field])
    with pytest.raises(DataError, match=rf"{section}\.{field} has shape"):
        load_model(io.StringIO(json.dumps(doc)))


def test_load_rejects_a_one_element_bias_without_hidden_layer():
    _, _, _, params = tiny_setup(hidden_layers=0)
    buf = io.StringIO()
    save_model(params, buf)
    doc = json.loads(buf.getvalue())
    doc["classifier"]["b1"] = [0.0]
    with pytest.raises(DataError, match=r"classifier\.b1 has shape \(1,\), expected \(3\)"):
        load_model(io.StringIO(json.dumps(doc)))


def test_load_names_the_file_and_field_of_a_non_integer_width(tmp_path):
    doc = full_model_doc()
    doc["word_dim"] = "abc"
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="word_dim") as caught:
        load_model(target)
    assert str(caught.value).startswith(f"{target}: ")


# A field of another JSON type is refused even where its value would do: an
# integer field that holds a string, a float or a boolean, a label set that
# is a string or repeats a label, or an object field that holds a list, a
# string, a number or null.
@pytest.mark.parametrize("field, value, message", [
    ("word_dim", "3", "is not an integer: '3'"),
    ("word_dim", 3.9, "is not an integer: 3.9"),
    ("hidden_dim", 4.0, "is not an integer: 4.0"),
    ("hidden_layers", True, "is not an integer: True"),
    ("seed", "9", "is not an integer: '9'"),
    ("edge_vocab.pos.width", 2.0, "is not an integer: 2.0"),
    ("label_set", "HS", "is not a list of distinct strings"),
    ("label_set", ["SYN", "SYN"], "is not a list of distinct strings"),
    ("label_set", ["HYPER", 1], "is not a list of distinct strings"),
    ("edge_vocab", [], "is not an object"),
    ("edge_vocab.lemma", "x", "is not an object"),
    ("edge_vocab.pos", None, "is not an object"),
    ("edge_vocab.deprel", 1, "is not an object"),
    ("edge_vocab.direction", [{}], "is not an object"),
    ("recurrent", "x", "is not an object"),
    ("classifier", None, "is not an object"),
    ("word_vectors", [1], "is not an object"),
])
def test_load_names_the_file_and_field_of_a_value_of_another_json_type(tmp_path, field, value,
                                                                       message):
    doc = full_model_doc()
    *parents, last = field.split(".")
    section = doc
    for key in parents:
        section = section[key]
    section[last] = value
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(target)
    assert str(caught.value) == f"{target}: model field {field} {message}"


# A size that TrainConfig would refuse is refused where it is read, not
# blamed on a matrix whose expected shape it sets.
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["word_dim", "hidden_dim", "edge_vocab.pos.width"])
def test_load_names_a_size_field_that_is_not_positive(tmp_path, field, value):
    doc = full_model_doc()
    *parents, last = field.split(".")
    section = doc
    for key in parents:
        section = section[key]
    section[last] = value
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(target)
    assert str(caught.value) == f"{target}: model field {field} must be positive: {value}"


@pytest.mark.parametrize("field", ["path_average", "seed", "word_vectors"])
def test_load_names_a_missing_field_that_every_saved_model_holds(tmp_path, field):
    doc = full_model_doc()
    del doc[field]
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(target)
    assert str(caught.value) == f"{target}: relation model file lacks the {field!r} field"


@pytest.mark.parametrize("field", ["seed", "hidden_dim"])
def test_load_quotes_an_integer_of_too_many_digits(tmp_path, field):
    doc = full_model_doc()
    doc[field] = "\0hole"
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc).replace('"\\u0000hole"', "9" * 5000), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(target)
    assert str(caught.value) == (
        f"{target}: invalid JSON: integer {repr('9' * 40 + '…')} has too many digits")


@pytest.mark.parametrize("field, value, message", [
    ("word_dim", int("9" * 4000), r"classifier\.w1 has shape \(3, 10\), expected \(any, 20{39}…\)$"),
    ("hidden_dim", int("9" * 4000), r"recurrent\.w_in has shape \(16, 7\), expected \(39{39}…, 7\)$"),
    ("word_dim", "x" * 5000, r"word_dim is not an integer: 'x{39}…$"),
])
def test_load_quotes_a_long_value_in_a_shape_or_type_error(field, value, message):
    doc = full_model_doc()
    doc[field] = value
    with pytest.raises(DataError, match=message):
        load_model(io.StringIO(json.dumps(doc)))


def test_load_rejects_a_non_finite_number():
    doc = full_model_doc()
    doc["recurrent"]["w_rec"][0][0] = float("inf")
    with pytest.raises(DataError, match=r"recurrent\.w_rec holds a non-finite number"):
        load_model(io.StringIO(json.dumps(doc)))


# Each edit keeps the number of tokens, so the matrix still has the shape
# they give it; only the token rule can refuse the file.
@pytest.mark.parametrize("field", ["edge_vocab.lemma", "word_vectors"])
@pytest.mark.parametrize("edit", [
    lambda tokens: [tokens[0], *tokens[:-1]],  # the first token twice
    lambda tokens: "abcdefghij"[:len(tokens)],  # a string, not a list
    lambda tokens: list(range(len(tokens))),  # integers
], ids=["repeated", "string", "integers"])
def test_load_requires_a_list_of_distinct_string_tokens(tmp_path, field, edit):
    doc = full_model_doc()
    section = doc
    for key in field.split("."):
        section = section[key]
    section["tokens"] = edit(section["tokens"])
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(target)
    assert str(caught.value) == (
        f"{target}: model field {field}.tokens is not a list of distinct strings")


def test_load_refuses_a_word_vector_token_that_no_lookup_reaches(tmp_path):
    """Lookups fold case, so an uppercase token's row would never be read:
    the table's vector would silently stand in for the trained one."""
    doc = full_model_doc()
    doc["word_vectors"]["tokens"][-1] = doc["word_vectors"]["tokens"][-1].upper()
    target = tmp_path / "model.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_model(target)
    token = doc["word_vectors"]["tokens"][-1]
    assert str(caught.value) == (
        f"{target}: model field word_vectors.tokens holds a token that is not lowercase: {token!r}")


def train_to_divergence():
    """Train on vectors scaled by 1e150 at learning rate 1e10, which overflows."""
    table = random_table(["cat", "mouse", "dog"], 3, seed=1)
    huge = make_table({w: table.matrix[row] * 1e150 for w, row in table.rows.items()})
    records = [PairRecord("cat", "mouse", "HYPER"), PairRecord("dog", "cat", "SYN"),
               PairRecord("mouse", "dog", "ANT")]
    config = TrainConfig(epochs=3, seed=5, learning_rate=1e10, hidden_dim=4, lemma_dim=2,
                         pos_dim=2, deprel_dim=2, dir_dim=1)
    return train(records, [], config, make_index(), huge)


def test_training_stops_at_the_first_non_finite_loss():
    with pytest.raises(DataError, match="non-finite loss in epoch 1"):
        train_to_divergence()


def test_diverging_training_raises_no_numpy_warning():
    # The non-finite-loss check is the guard; numpy's overflow and invalid-value
    # warnings would print lines ahead of the CLI's one-line error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite loss in epoch 1"):
            train_to_divergence()


def model_with_lemma_rows(rows, width):
    """The tiny model with a hidden layer and trainable word vectors, its
    lemma matrix grown to ``rows`` tokens of ``width`` random values."""
    _, _, _, params = tiny_setup(hidden_layers=1, train_word_vectors=True)
    rng = np.random.default_rng(3)
    params.encoder = replace(params.encoder, lemma=ComponentEmbeddings(
        {f"lemma{i}": i for i in range(1, rows + 1)}, rng.normal(size=(rows + 1, width))))
    params.encoder = replace(params.encoder, w_in=rng.normal(
        size=(params.encoder.w_in.shape[0], input_width(params.encoder.components()))))
    return params


def test_save_refuses_a_non_finite_value(tmp_path):
    _, _, _, params = tiny_setup()
    params.b1[0] = np.nan
    target = tmp_path / "model.json"
    with pytest.raises(DataError, match="non-finite"):
        save_model(params, target)
    assert not target.exists()
    # The writer encodes a matrix in blocks of rows; a NaN in the last block
    # of the lemma matrix, or an inf in the word vectors, still stops the
    # save before anything reaches a file or a stream.
    existing = tmp_path / "existing.json"
    for fault in ("lemma", "word_vectors"):
        params = model_with_lemma_rows(5000, 2)
        if fault == "lemma":
            params.encoder.lemma.matrix[-1, -1] = np.nan
        else:
            params.word_vectors.matrix[-1, 0] = np.inf
        existing.write_bytes(b"an earlier model\n")
        stream = io.StringIO()
        for destination in (target, existing, stream):
            with pytest.raises(DataError, match="non-finite"):
                save_model(params, destination)
        assert not target.exists()
        assert existing.read_bytes() == b"an earlier model\n"
        assert stream.getvalue() == ""


@pytest.mark.parametrize("destination", ["path", "stream"])
def test_save_load_reproduces_every_array_bit_for_bit(tmp_path, destination):
    params = model_with_lemma_rows(5000, 2)  # ten blocks of the writer
    params.encoder.lemma.matrix[-1] = [-0.0, 5e-324]
    params.w1.flat[:3] = [1.7976931348623157e308, -0.0, -5e-324]
    params.word_vectors.matrix[0, 0] = -1.7976931348623157e308
    if destination == "path":
        save_model(params, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
    else:
        buf = io.StringIO()
        save_model(params, buf)
        buf.seek(0)
        loaded = load_model(buf)
    expected = trainable_arrays(params)
    assert list(trainable_arrays(loaded)) == list(expected)
    for name, array in trainable_arrays(loaded).items():
        assert array.tobytes() == expected[name].tobytes(), name


def test_save_holds_no_copy_of_the_model_in_memory(tmp_path):
    """Saving a 4,000 x 50 lemma matrix (1.6 MB) traces well under 1 MB:
    the writer never turns the whole matrix into lists or one string."""
    params = model_with_lemma_rows(4000, 50)
    tracemalloc.start()
    try:
        save_model(params, tmp_path / "model.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
