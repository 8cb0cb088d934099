import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conll_text, random_table
from oracles import central_difference, reference_lstm, rel_error
from semrel.corpus import DependencyPath, PathEdge, extract_paths, parse_conll
from semrel.embeddings import load_table
from semrel.path_encoder import (
    UNIFORM,
    WEIGHTED,
    average_paths_with_cache,
    backprop_average,
    init_component,
    init_encoder,
    input_width,
)

P_LONG = DependencyPath((
    PathEdge("X", "NOUN", "nsubj", "up"),
    PathEdge("chase", "VERB", "root", "root"),
    PathEdge("Y", "NOUN", "dobj", "down"),
))
# Same step count as P_LONG, other inner lemma: the two run as one group.
P_LONG2 = DependencyPath((
    PathEdge("X", "NOUN", "nsubj", "up"),
    PathEdge("hunt", "VERB", "root", "root"),
    PathEdge("Y", "NOUN", "dobj", "down"),
))
P_SHORT = DependencyPath((
    PathEdge("X", "NOUN", "nmod", "up"),
    PathEdge("Y", "NOUN", "root", "root"),
))


def small_setup(seed=3, lemma_dim=3, hidden=4, table=None):
    rng = np.random.default_rng(seed)
    return init_encoder([P_LONG, P_LONG2, P_SHORT], lemma_dim=lemma_dim, pos_dim=2, deprel_dim=2,
                        dir_dim=1, hidden_size=hidden, rng=rng, table=table)


# ------------------------------------------------------------ components


def test_init_component_is_deterministic():
    a = init_component(["b", "a"], 3, np.random.default_rng(1))
    b = init_component(["a", "b"], 3, np.random.default_rng(1))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.index == {"a": 1, "b": 2}  # row 0 is the unknown row


def test_init_component_rows_within_scale():
    comp = init_component(list("abcdef"), 4, np.random.default_rng(2))
    assert np.all(np.abs(comp.matrix) <= 0.1)


def test_unseen_token_gets_row_zero():
    comp = init_component(["a"], 3, np.random.default_rng(0))
    assert comp.row("a") == 1
    assert comp.row("never-seen") == 0


def test_build_vocab_always_has_placeholders_and_directions():
    encoder = small_setup()
    assert encoder.lemma.row("X") > 0 and encoder.lemma.row("Y") > 0
    for d in ("up", "down", "root"):
        assert encoder.direction.row(d) > 0
    assert input_width(encoder.components()) == 3 + 2 + 2 + 1


def test_lemma_rows_seeded_from_table():
    table = random_table(["chase"], 3, seed=9)
    encoder = small_setup(table=table)
    assert np.array_equal(encoder.lemma.matrix[encoder.lemma.row("chase")], table.lookup("chase"))
    # seeding must not disturb the rng stream for other rows
    plain = small_setup(table=None)
    row = encoder.lemma.row("X")
    assert np.array_equal(encoder.lemma.matrix[row], plain.lemma.matrix[plain.lemma.row("X")])


def encode(path, encoder):
    """The path's encoding: the average of a multiset that holds only it."""
    return average_paths_with_cache({path: 1}, encoder)[0]


def test_corpus_lemma_takes_the_table_row_of_its_lowercase_form():
    sentence = parse_conll(conll_text([("cat", "cat", "NOUN", 2, "nsubj"),
                                       ("Chased", "Chase", "VERB", 0, "root"),
                                       ("mouse", "mouse", "NOUN", 2, "dobj")]))[0]
    paths = extract_paths(sentence, "cat", "mouse")
    assert [e.lemma for path in paths for e in path.edges] == ["X", "chase", "Y"]
    table = load_table(["chase 0.5 -0.25 0.125\n"])
    encoder = init_encoder(paths, lemma_dim=3, pos_dim=2, deprel_dim=2, dir_dim=1, hidden_size=2,
                           rng=np.random.default_rng(0), table=table)
    assert encoder.lemma.row("Chase") == 0
    assert np.array_equal(encoder.lemma.matrix[encoder.lemma.row("chase")], [0.5, -0.25, 0.125])


def step_inputs(path, encoder, dropped=()):
    """Each step's input: its lemma, POS, deprel and direction rows, concatenated.
    The lemma of a step whose position is in ``dropped`` takes the unknown row."""
    return [
        np.concatenate([encoder.lemma.matrix[0 if k in dropped else encoder.lemma.row(e.lemma)],
                        encoder.pos.matrix[encoder.pos.row(e.pos)],
                        encoder.deprel.matrix[encoder.deprel.row(e.deprel)],
                        encoder.direction.matrix[encoder.direction.row(e.direction)]])
        for k, e in enumerate(path.edges)
    ]


def test_step_input_concatenates_components():
    encoder = small_setup()
    _, cache = average_paths_with_cache({P_LONG: 1}, encoder)
    xs = cache[0].xs
    assert xs.shape == (len(P_LONG.edges), 1, input_width(encoder.components()))
    assert np.array_equal(xs[:, 0], step_inputs(P_LONG, encoder))
    assert np.array_equal(xs[1, 0, :3], encoder.lemma.matrix[encoder.lemma.row("chase")])


def test_paths_of_one_step_count_share_a_time_major_group():
    encoder = small_setup()
    _, cache = average_paths_with_cache({P_LONG: 3, P_SHORT: 1, P_LONG2: 1}, encoder)
    assert [group.rows.shape for group in cache] == [(3, 2, 4), (2, 1, 4)]
    longs = cache[0]
    assert np.array_equal(longs.xs[:, 0], step_inputs(P_LONG, encoder))
    assert np.array_equal(longs.xs[:, 1], step_inputs(P_LONG2, encoder))
    assert np.array_equal(longs.weights, [3 / 5, 1 / 5])
    assert np.array_equal(cache[1].weights, [1 / 5])


# --------------------------------------------------------------- forward


def test_zero_parameters_give_zero_encoding():
    encoder = small_setup()
    encoder.w_in[:] = 0.0
    encoder.w_rec[:] = 0.0
    encoder.bias[:] = 0.0
    assert np.allclose(encode(P_LONG, encoder), 0.0)


def test_bias_only_closed_form_two_steps():
    # With zero weight matrices the state after two steps has the closed form
    #   c2 = (1 + sig(bf)) * sig(bi) * tanh(bg),  h2 = sig(bo) * tanh(c2).
    encoder = small_setup(hidden=2)
    encoder.w_in[:] = 0.0
    encoder.w_rec[:] = 0.0
    encoder.bias[:] = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.25, 0.7, -0.6])
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))
    expected = []
    for j in range(2):
        bi, bf, bg, bo = encoder.bias[j], encoder.bias[2 + j], encoder.bias[4 + j], encoder.bias[6 + j]
        c2 = (1.0 + sig(bf)) * sig(bi) * math.tanh(bg)
        expected.append(sig(bo) * math.tanh(c2))
    h = encode(P_SHORT, encoder)
    assert np.allclose(h, expected, atol=1e-12)


def reference_encoding(path, encoder, dropped=()):
    inputs = [x.tolist() for x in step_inputs(path, encoder, dropped)]
    return np.array(reference_lstm(encoder.w_in.tolist(), encoder.w_rec.tolist(),
                                   encoder.bias.tolist(), inputs))


def test_forward_matches_scalar_reference():
    # The multisets hold one path, or the two 3-step paths as one group of two.
    rng = np.random.default_rng(11)
    for _ in range(20):
        encoder = small_setup(seed=int(rng.integers(1 << 30)),
                                 hidden=int(rng.integers(2, 5)))
        paths = [[P_LONG], [P_SHORT], [P_LONG, P_LONG2]][int(rng.integers(3))]
        got, cache = average_paths_with_cache({path: 1 for path in paths}, encoder, UNIFORM)
        encodings = [reference_encoding(path, encoder) for path in paths]
        assert np.allclose(cache[0].hs[-1], encodings, rtol=1e-12, atol=1e-12)
        assert np.allclose(got, np.mean(encodings, axis=0), rtol=1e-12, atol=1e-12)


def test_edgeless_path_averages_in_as_zero():
    encoder = small_setup()
    vec, cache = average_paths_with_cache({DependencyPath(()): 1, P_SHORT: 1}, encoder, UNIFORM)
    assert np.array_equal(vec, 0.5 * encode(P_SHORT, encoder))
    empty = cache[0]
    assert empty.rows.shape == (0, 1, 4) and empty.xs.shape == (0, 1, input_width(encoder.components()))
    assert np.array_equal(empty.hs, np.zeros((1, 1, encoder.hidden_size)))


# ------------------------------------------------------------- averaging


def test_weighted_average_uses_counts():
    encoder = small_setup()
    h_long = encode(P_LONG, encoder)
    h_short = encode(P_SHORT, encoder)
    got = average_paths_with_cache({P_LONG: 3, P_SHORT: 1}, encoder, WEIGHTED)[0]
    assert np.allclose(got, (3 * h_long + h_short) / 4)


def test_uniform_average_ignores_counts():
    encoder = small_setup()
    h_long = encode(P_LONG, encoder)
    h_short = encode(P_SHORT, encoder)
    got = average_paths_with_cache({P_LONG: 3, P_SHORT: 1}, encoder, UNIFORM)[0]
    assert np.allclose(got, (h_long + h_short) / 2)


def test_empty_multiset_averages_to_zero():
    encoder = small_setup()
    vec, cache = average_paths_with_cache({}, encoder)
    assert np.array_equal(vec, np.zeros(encoder.hidden_size))
    assert cache == []


def test_single_path_average_equals_encoding():
    encoder = small_setup()
    single = average_paths_with_cache({P_LONG: 7}, encoder)[0]
    assert np.allclose(single, encode(P_LONG, encoder))


def test_unknown_average_mode_rejected():
    encoder = small_setup()
    with pytest.raises(ValueError):
        average_paths_with_cache({P_LONG: 1}, encoder, "median")[0]


# --------------------------------------------------------------- dropout


def test_zero_dropout_matches_plain_encoding():
    encoder = small_setup()
    plain = average_paths_with_cache({P_LONG: 2, P_SHORT: 1}, encoder)[0]
    with_rng, _ = average_paths_with_cache({P_LONG: 2, P_SHORT: 1}, encoder,
                                           dropout_rate=0.0, rng=np.random.default_rng(0))
    assert np.array_equal(plain, with_rng)


def test_dropout_is_reproducible_and_changes_the_encoding():
    encoder = small_setup()
    paths = {P_LONG: 2, P_SHORT: 1}
    a, _ = average_paths_with_cache(paths, encoder, dropout_rate=0.5,
                                    rng=np.random.default_rng(21))
    b, _ = average_paths_with_cache(paths, encoder, dropout_rate=0.5,
                                    rng=np.random.default_rng(21))
    plain = average_paths_with_cache(paths, encoder)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, plain)


def test_dropout_matches_reference_with_the_same_lemmas_dropped():
    # The encoder draws one uniform per step, path by path in the multiset's
    # order; a twin generator replays those draws to find the dropped lemmas.
    for seed in range(5):
        encoder = small_setup(seed=seed)
        paths = {P_LONG: 2, P_SHORT: 1, P_LONG2: 1}
        got, _ = average_paths_with_cache(paths, encoder, dropout_rate=0.4,
                                          rng=np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        expected = np.zeros(encoder.hidden_size)
        for path, count in paths.items():
            dropped = np.flatnonzero(twin.random(len(path.edges)) < 0.4).tolist()
            expected += count / 4 * reference_encoding(path, encoder, dropped)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


# -------------------------------------------------------------- backward


def zero_grads(encoder):
    return SimpleNamespace(**{n: np.zeros(a.shape) for n, a in encoder.arrays().items()})


def backprop_into(grads, d_out, cache, encoder):
    """Add what ``backprop_average`` returns over every lemma row into the
    dense record ``grads``, once it has checked the returned names and shapes."""
    lemma_rows = np.arange(len(encoder.lemma.matrix))
    got = backprop_average(d_out, cache, encoder, lemma_rows)
    assert list(got) == list(encoder.arrays())
    assert np.array_equal(got["lemma"].rows, lemma_rows)
    got["lemma"] = got["lemma"].values
    for name, array in encoder.arrays().items():
        assert isinstance(got[name], np.ndarray) and got[name].shape == array.shape, name
        getattr(grads, name)[...] += got[name]


def _grad_arrays(encoder, grads):
    return [
        (encoder.lemma.matrix, grads.lemma),
        (encoder.pos.matrix, grads.pos),
        (encoder.deprel.matrix, grads.deprel),
        (encoder.direction.matrix, grads.direction),
        (encoder.w_in, grads.w_in),
        (encoder.w_rec, grads.w_rec),
        (encoder.bias, grads.bias),
    ]


def test_backprop_average_matches_finite_differences():
    rng = np.random.default_rng(17)
    encoder = small_setup(seed=23, hidden=3)
    paths = {P_LONG: 2, P_SHORT: 1, P_LONG2: 1}
    probe = rng.normal(size=encoder.hidden_size)

    def loss():
        return float(probe @ average_paths_with_cache(paths, encoder)[0])

    vec, cache = average_paths_with_cache(paths, encoder)
    grads = zero_grads(encoder)
    backprop_into(grads, probe, cache, encoder)
    for param, grad in _grad_arrays(encoder, grads):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_p.size):
            fd = central_difference(loss, flat_p, i)
            assert rel_error(fd, flat_g[i]) < 1e-5


# Paths of zero to three steps over tokens the vocabulary holds, plus a lemma
# it lacks, which falls back to the unknown row.
EDGES = st.builds(PathEdge, st.sampled_from(["X", "Y", "chase", "hunt", "unseen"]),
                  st.sampled_from(["NOUN", "VERB"]), st.sampled_from(["nsubj", "dobj", "root"]),
                  st.sampled_from(["up", "down", "root"]))
MULTISETS = st.dictionaries(st.lists(EDGES, max_size=3).map(lambda e: DependencyPath(tuple(e))),
                            st.integers(1, 3), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(paths=MULTISETS, mode=st.sampled_from([WEIGHTED, UNIFORM]),
       rate=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**16))
def test_grouped_paths_match_a_per_path_reference(paths, mode, rate, seed):
    encoder = small_setup(seed=seed % 7)
    total = sum(paths.values()) if mode == WEIGHTED else len(paths)
    weights = [(count if mode == WEIGHTED else 1) / total for count in paths.values()]
    probe = np.random.default_rng(seed).normal(size=encoder.hidden_size)
    got, cache = average_paths_with_cache(paths, encoder, mode, rate, np.random.default_rng(seed))
    grads = zero_grads(encoder)
    backprop_into(grads, probe, cache, encoder)

    # The same draws, path by path: each path alone as a group of one.
    twin, solo = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.zeros(encoder.hidden_size)
    expected_grads = zero_grads(encoder)
    for path, weight in zip(paths, weights):
        dropped = np.flatnonzero(twin.random(len(path.edges)) < rate).tolist() if rate else ()
        expected += weight * reference_encoding(path, encoder, dropped)
        _, one = average_paths_with_cache({path: 1}, encoder, mode, rate, solo)
        backprop_into(expected_grads, weight * probe, one, encoder)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    for name in encoder.arrays():
        assert np.allclose(getattr(grads, name), getattr(expected_grads, name), rtol=0, atol=1e-12)
