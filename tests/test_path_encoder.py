import math
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conll_text, random_table
from oracles import central_difference, reference_lstm, rel_error
from semrel._random import Generator
from semrel.corpus import DependencyPath, PathEdge, extract_paths, parse_conll
from semrel.embeddings import load_table
from semrel.path_encoder import (
    UNIFORM,
    WEIGHTED,
    BufferPool,
    _own_layout,
    _passing_widths,
    _sigmoid,
    average_paths_with_cache,
    backprop_average,
    compile_paths,
    group_shapes,
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
# A third path of P_LONG's step count.
P_LONG3 = DependencyPath((
    PathEdge("X", "NOUN", "nsubj", "up"),
    PathEdge("chase", "VERB", "root", "root"),
    PathEdge("Y", "NOUN", "nmod", "down"),
))


def small_setup(seed=3, lemma_dim=3, hidden=4, table=None):
    rng = Generator(seed)
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


class SpyGenerator:
    """A ``Generator`` that counts the values it draws and skips."""

    def __init__(self, seed):
        self.rng, self.drawn, self.advanced = Generator(seed), 0, 0

    def uniform(self, low, high, size):
        values = self.rng.uniform(low, high, size)
        self.drawn += values.size
        return values

    def advance(self, n):
        self.rng.advance(n)
        self.advanced += n


def test_a_row_taken_from_the_table_is_skipped_not_drawn():
    """Seeding k of n lemma rows from the table draws the (n + 1 - k) other
    rows, the unknown row among them, and advances past the k taken ones,
    runs of taken and drawn rows alternating; the matrix is the full draw's
    with the taken rows replaced, and the stream ends where the full draw's
    does. A draw of the whole matrix gives the same bytes but draws the
    taken rows too, which on a large lemma table is most of ``init_params``."""
    tokens = [f"t{n:02d}" for n in range(12)]
    taken = ["t00", "t01", "t04", "t05", "t06", "t09", "t11"]
    table = random_table(taken + ["elsewhere"], 3, seed=2)
    spy = SpyGenerator(8)
    comp = init_component(tokens, 3, spy, table)
    n, k = len(tokens), len(taken)
    assert (spy.drawn, spy.advanced) == ((n + 1 - k) * 3, k * 3)
    full = Generator(8)
    expected = full.uniform(-0.1, 0.1, size=(n + 1, 3))
    for token in taken:
        expected[comp.row(token)] = table.lookup(token)
    assert comp.matrix.tobytes() == expected.tobytes()
    assert spy.rng.random(4).tobytes() == full.random(4).tobytes()


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
                           rng=Generator(0), table=table)
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
    """Add what ``backprop_average`` returns over every lemma row, given
    zeroed ``out`` and ``products``, into the dense record ``grads``, once it
    has checked the returned names and shapes."""
    lemma_rows = np.arange(len(encoder.lemma.matrix))
    out = {name: np.zeros(array.shape) for name, array in encoder.arrays().items()
           if name != "lemma"}
    products = [np.zeros(array.shape) for array in (encoder.w_in, encoder.w_rec, encoder.bias)]
    got = backprop_average(d_out, cache, encoder, lemma_rows, out=out, products=products)
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


# ---------------------------------------------------------- buffer pool


def test_sigmoid_gives_the_bits_of_the_where_form():
    """max(z >= 0, ez) / (1 + ez) against where(z >= 0, 1, ez) / (1 + ez),
    ez = exp(-|z|), on signed zeros, subnormals, tiny, large and overflowing
    values and a million normal draws."""
    edges = [0.0, 5e-324, 1e-300, 40.0, 800.0]
    z = np.concatenate([edges, np.negative(edges),
                        np.random.default_rng(5).normal(scale=4.0, size=1_000_000)])
    ez = np.exp(np.copysign(z, -1.0))
    expected = np.where(z >= 0, 1.0, ez) / (1.0 + ez)
    got = _sigmoid(z, np.empty_like(z), np.empty_like(z))
    assert np.signbit(z[5])  # -0.0 is among the values
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_a_group_starts_from_the_zero_state_after_more_and_fewer_paths():
    """One pool runs groups of one step count with 1, 2, 3, 1 and 2 paths: each
    starts from a zero state and gives the bits of a pool of its own, though
    a group of P paths works in the leading rows that the others wrote."""
    encoder = small_setup()
    longs = [P_LONG, P_LONG2, P_LONG3]
    pool = BufferPool(encoder, group_shapes(longs))
    for count in (1, 2, 3, 1, 2):
        paths = {path: n + 1 for n, path in enumerate(longs[:count])}
        got, (cache,) = average_paths_with_cache(paths, encoder, pool=pool)
        assert not cache.hs[0].any() and not cache.cs[0].any()
        expected, (alone,) = average_paths_with_cache(paths, encoder)
        assert got.tobytes() == expected.tobytes()
        for name in ("xs", "hs", "cs", "gates", "tanh_c"):
            assert getattr(cache, name).tobytes() == getattr(alone, name).tobytes(), name


def test_a_pooled_call_returns_groups_that_record_its_rows_and_weights():
    """One pool runs three paths of three steps and one of two, then a call
    with word dropout whose paths span the same two step counts. Each group
    that the second call returns holds that call's rows, the dropout copies,
    and weights; the walk back through them gives the bits of a fresh pool's;
    and the groups kept from the first call have been overwritten."""
    encoder = small_setup()
    other_short = DependencyPath((PathEdge("X", "NOUN", "nsubj", "up"),
                                  PathEdge("Y", "NOUN", "root", "root")))
    pool = BufferPool(encoder, group_shapes([P_LONG, P_LONG2, P_LONG3, other_short]))
    _, kept = average_paths_with_cache({P_LONG: 1, P_LONG2: 1, P_LONG3: 1, other_short: 1},
                                       encoder, pool=pool)
    kept_hs = kept[0].hs.copy()
    compiled = compile_paths({P_LONG: 2, P_SHORT: 1, P_LONG2: 1}, encoder)
    dropped = [rows.copy() for rows, _ in compiled.groups]
    twin = np.random.default_rng(4)
    for g, p in compiled.slots:
        dropped[g][twin.random(len(dropped[g])) < 0.5, p, 0] = 0
    assert not all(np.array_equal(d, rows) for d, (rows, _) in zip(dropped, compiled.groups))
    got, groups = average_paths_with_cache(compiled, encoder, dropout_rate=0.5,
                                           rng=np.random.default_rng(4), pool=pool)
    assert [group.rows.shape for group in groups] == [(3, 2, 4), (2, 1, 4)]
    for group, rows, (_, weights) in zip(groups, dropped, compiled.groups):
        assert np.array_equal(group.rows, rows) and group.weights is weights

    expected, fresh = average_paths_with_cache(compiled, encoder, dropout_rate=0.5,
                                               rng=np.random.default_rng(4))
    probe = np.random.default_rng(5).normal(size=encoder.hidden_size)
    pooled_grads, fresh_grads = zero_grads(encoder), zero_grads(encoder)
    backprop_into(pooled_grads, probe, groups, encoder)
    backprop_into(fresh_grads, probe, fresh, encoder)
    assert got.tobytes() == expected.tobytes()
    for name in encoder.arrays():
        assert getattr(pooled_grads, name).tobytes() == getattr(fresh_grads, name).tobytes(), name
    assert np.shares_memory(kept[0].hs, groups[0].hs) and not np.array_equal(kept[0].hs, kept_hs)
    assert kept[1] is groups[1]  # one (T, P) shape, one record: the second call's


def test_calls_without_a_pool_share_no_array():
    encoder = small_setup()
    _, first = average_paths_with_cache({P_LONG: 1, P_SHORT: 1}, encoder)
    _, second = average_paths_with_cache({P_LONG: 1, P_SHORT: 1}, encoder)
    for a, b in zip(first, second):
        for name in ("xs", "hs", "cs", "gates", "tanh_c"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name)), name


def chain(steps, n):
    """The n-th distinct path of ``steps`` steps, at least two."""
    inner = [PathEdge("w", "VERB", "dep", "up") for _ in range(steps - 2)]
    return DependencyPath((PathEdge("X", "NOUN", f"d{n}", "up"), *inner,
                           PathEdge("Y", "NOUN", "dobj", "down")))


@contextmanager
def numpy_bytes():
    """A function that gives the bytes of numpy array data allocated inside
    the block and still held, as tracemalloc traces them."""
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        yield lambda: sum(trace.size for trace in
                          tracemalloc.take_snapshot().filter_traces(only_numpy).traces)
    finally:
        tracemalloc.stop()


def pool_bytes(encoder, most):
    """The bytes of one record set per step count, for ``most[steps]`` paths,
    and of one one-pass set for the most path steps of a group."""
    width, hidden = input_width(encoder.components()), encoder.hidden_size
    records = sum(paths * rows * w for steps, paths in most.items()
                  for rows, w in _own_layout(steps, width, hidden))
    passing = max(steps * paths for steps, paths in most.items()) * sum(_passing_widths(width,
                                                                                        hidden))
    return 8 * (records + passing)


def test_a_pool_for_groups_of_1_to_n_paths_holds_one_record_set_sized_for_n():
    """Sized for groups of 1 to 12 three-step paths, a pool holds the buffers
    of one group of 12, where buffers per (T, P) would hold 78 paths'
    records; running each group adds no buffer, only the average."""
    encoder = small_setup(lemma_dim=40, hidden=30)
    paths = [chain(3, n) for n in range(12)]
    compiled = [compile_paths(dict.fromkeys(paths[:count], 1), encoder) for count in range(1, 13)]
    with numpy_bytes() as held:
        pool = BufferPool(encoder, [shape for c in compiled for shape in c.shapes])
        built = held()
        assert built == pool_bytes(encoder, {3: 12})
        for count, paths_of_count in enumerate(compiled, start=1):
            got, _ = average_paths_with_cache(paths_of_count, encoder, pool=pool)
            assert held() - built <= got.nbytes, count
    expected, _ = average_paths_with_cache(compiled[-1], encoder)
    assert got.tobytes() == expected.tobytes()


def test_groups_of_several_step_counts_share_one_one_pass_set():
    """Groups of 6 two-step, 4 three-step, 3 five-step and 2 four-step paths:
    one record set per step count, and one one-pass set for 15 path steps,
    where a set per step count would add sets for 12, 12 and 8."""
    encoder = small_setup(lemma_dim=40, hidden=30)
    multisets = [dict.fromkeys([chain(steps, n) for n in range(count)], 1)
                 for steps, count in ((2, 6), (3, 4), (5, 3), (4, 2))]
    multisets.append({**multisets[0], **multisets[2]})
    compiled = [compile_paths(paths, encoder) for paths in multisets]
    with numpy_bytes() as held:
        pool = BufferPool(encoder, [shape for paths in multisets for shape in group_shapes(paths)])
        built = held()
        assert built == pool_bytes(encoder, {2: 6, 3: 4, 5: 3, 4: 2})
        for paths in compiled:
            got, _ = average_paths_with_cache(paths, encoder, pool=pool)
            assert held() - built <= got.nbytes


def test_a_built_pool_allocates_no_buffer_for_a_group():
    """``group`` of every shape that a pool holds, the smaller groups of
    each step count too, builds views and allocates no array data."""
    encoder = small_setup(lemma_dim=40, hidden=30)
    pool = BufferPool(encoder, [(2, 5), (4, 3), (2, 1)])
    with numpy_bytes() as held:
        for steps, most in ((2, 5), (4, 3)):
            for count in range(1, most + 1):
                views = pool.group(steps, count)
                assert views.hs.shape == (steps + 1, count, encoder.hidden_size)
        assert held() == 0


def test_a_group_the_pool_was_not_sized_for_raises_and_writes_nothing():
    """A pool sized for two three-step paths refuses a two-step group and a
    group of three three-step paths, allocating nothing, and the record of
    the group it ran keeps its bytes."""
    encoder = small_setup()
    pool = BufferPool(encoder, group_shapes([P_LONG, P_LONG2]))
    _, (kept,) = average_paths_with_cache({P_LONG: 1, P_LONG2: 2}, encoder, pool=pool)
    names = ("xs", "hs", "cs", "gates", "tanh_c")
    before = [getattr(kept, name).tobytes() for name in names]
    with numpy_bytes() as held:
        with pytest.raises(KeyError):
            average_paths_with_cache({P_SHORT: 1}, encoder, pool=pool)
        with pytest.raises(ValueError):
            average_paths_with_cache({P_LONG: 1, P_LONG2: 1, P_LONG3: 1}, encoder, pool=pool)
        assert held() == 0
    assert [getattr(kept, name).tobytes() for name in names] == before
