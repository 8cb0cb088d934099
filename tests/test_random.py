"""semrel's seeded stream against numpy.random.default_rng, its reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_table
from semrel._random import _LANES, Generator
from semrel.path_encoder import init_component

SEEDS = (0, 1, 2**32, 2**64 + 3, 2**200)

CALLS = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-5, 5), st.floats(0, 5),
              st.one_of(st.integers(0, 40), st.tuples(st.integers(0, 6), st.integers(0, 6)))),
    st.tuples(st.just("random"), st.integers(0, 40)),
    st.tuples(st.just("permutation"), st.integers(0, 300)),
    st.tuples(st.just("advance"), st.integers(0, 300)),
)


def _call(rng, call):
    """Make ``call`` on ``rng``; numpy's ``advance`` is drawing and dropping doubles."""
    name, *args = call
    if name == "uniform":
        low, span, size = args
        return rng.uniform(low, low + span, size)
    if name == "random":
        return rng.random(args[0])
    if name == "permutation":
        return rng.permutation(args[0])
    if isinstance(rng, Generator):
        return rng.advance(args[0])
    rng.random(args[0])
    return None


@settings(max_examples=150, deadline=None)
@given(seed=st.sampled_from(SEEDS), calls=st.lists(CALLS, max_size=12))
def test_interleaved_calls_draw_numpys_stream(seed, calls):
    ours, reference = Generator(seed), np.random.default_rng(seed)
    for call in calls:
        got, want = _call(ours, call), _call(reference, call)
        assert type(got) is type(want)
        if want is not None:
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), call


@settings(max_examples=50, deadline=None)
@given(seed=st.sampled_from(SEEDS), n=st.integers(0, 2000), later=st.integers(1, 20))
def test_advance_equals_drawing_and_dropping_doubles(seed, n, later):
    skipped, drawn = Generator(seed), Generator(seed)
    skipped.advance(n)
    drawn.random(n)
    assert np.array_equal(skipped.random(later), drawn.random(later))


@pytest.mark.parametrize("n", [2**40 + 7, 10**30])
def test_a_long_advance_jumps_as_numpys_bit_generator(n):
    ours, reference = Generator(5), np.random.default_rng(5)
    ours.advance(n)
    reference.bit_generator.advance(n)
    assert np.array_equal(ours.uniform(-1, 1, 9), reference.uniform(-1, 1, 9))


def test_a_uniform_leaves_the_half_a_permutation_buffered():
    """A permutation draws 32 bits at a time and keeps the unused upper half
    of a 64-bit output; a double takes a whole output and leaves that half
    for the next permutation."""
    ours, reference = Generator(3), np.random.default_rng(3)
    assert np.array_equal(ours.permutation(2), reference.permutation(2))  # one 32-bit draw
    assert np.array_equal(ours.uniform(-0.1, 0.1, 3), reference.uniform(-0.1, 0.1, 3))
    ours.advance(4)
    reference.random(4)
    assert np.array_equal(ours.permutation(50), reference.permutation(50))


@pytest.mark.parametrize("size", [_LANES - 1, _LANES, _LANES + 1, 2 * _LANES, (3, 5000)])
def test_a_long_draw_steps_its_lanes_as_one_stream(size):
    """From _LANES doubles on, the LCG runs as _LANES lanes of numpy arrays;
    the draw and the stream after it are numpy's."""
    ours, reference = Generator(9), np.random.default_rng(9)
    assert np.array_equal(ours.uniform(-0.1, 0.1, size), reference.uniform(-0.1, 0.1, size))
    assert np.array_equal(ours.permutation(9), reference.permutation(9))
    assert np.array_equal(ours.random(3), reference.random(3))


def test_a_size_too_large_for_memory_fails_before_anything_is_drawn():
    """2 EiB is more than any address space maps, so the allocation fails
    at once, with numpy's message, and the stream has not moved."""
    ours = Generator(4)
    with pytest.raises(MemoryError, match="^Unable to allocate 2.00 EiB for an array"):
        ours.uniform(-0.1, 0.1, (2**29, 2**29))
    assert np.array_equal(ours.random(3), np.random.default_rng(4).random(3))


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


def test_seeded_rows_advance_the_stream_past_their_draws():
    """A component whose table rows are taken, not drawn, has numpy's full
    draw in its other rows, and leaves the stream where the full draw does."""
    tokens = [f"w{i}" for i in range(12)]
    table = random_table(tokens[2:5] + tokens[8:9] + tokens[11:], 4, seed=2)
    ours, reference = Generator(7), np.random.default_rng(7)
    comp = init_component(tokens, 4, ours, table)
    full = reference.uniform(-0.1, 0.1, (len(tokens) + 1, 4))
    for token, row in comp.index.items():
        want = table.lookup(token) if token in table.rows else full[row]
        assert np.array_equal(comp.matrix[row], want), token
    assert np.array_equal(comp.matrix[0], full[0])
    assert np.array_equal(ours.random(5), reference.random(5))
