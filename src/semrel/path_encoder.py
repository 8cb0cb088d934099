"""Encoding dependency paths into fixed-width vectors.

Each path step is embedded as the concatenation of four component embeddings
(lemma, POS, dependency label, direction), each component keeping an unknown
row at index 0. A single-layer recurrent unit with input, forget, candidate,
and output gates consumes the step vectors in order; the final hidden state
represents the path. A pair's path multiset is reduced to a single vector by
a count-weighted (or uniform) average, with the empty multiset mapping to the
zero vector.

The *_with_cache functions retain everything the backward pass needs;
``backprop_average`` accumulates exact gradients for all encoder parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import DOWN, ROOT, UP, DependencyPath, PathEdge, X_PLACEHOLDER, Y_PLACEHOLDER
from .embeddings import EmbeddingTable

INIT_SCALE = 0.1
DIRECTION_TOKENS = (UP, DOWN, ROOT)

WEIGHTED = "weighted"
UNIFORM = "uniform"
AVERAGE_MODES = (WEIGHTED, UNIFORM)


@dataclass
class ComponentEmbeddings:
    """Embedding rows for one step component; row 0 is the unknown row."""

    index: dict[str, int]
    matrix: np.ndarray

    @property
    def width(self) -> int:
        return self.matrix.shape[1]

    def row(self, token: str) -> int:
        return self.index.get(token, 0)

    def tokens(self) -> list[str]:
        """Tokens ordered by their row number."""
        return [tok for tok, _ in sorted(self.index.items(), key=lambda kv: kv[1])]


@dataclass
class EdgeVocab:
    lemma: ComponentEmbeddings
    pos: ComponentEmbeddings
    deprel: ComponentEmbeddings
    direction: ComponentEmbeddings

    def components(self) -> tuple[ComponentEmbeddings, ...]:
        return (self.lemma, self.pos, self.deprel, self.direction)

    @property
    def input_width(self) -> int:
        return sum(c.width for c in self.components())


@dataclass
class RecurrentParams:
    """Weights of the recurrent unit; gate rows stacked input, forget, candidate, output."""

    w_in: np.ndarray  # (4H, D)
    w_rec: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w_rec.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_in.shape[1]


def init_component(
    tokens: Iterable[str],
    width: int,
    rng: np.random.Generator,
    seed_vectors: Mapping[str, np.ndarray] | None = None,
) -> ComponentEmbeddings:
    """Rows drawn uniformly from [-0.1, 0.1]; known tokens may be overwritten
    with vectors from ``seed_vectors`` when the widths agree."""
    ordered = sorted(set(tokens))
    matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(ordered) + 1, width))
    index = {}
    for row, token in enumerate(ordered, start=1):
        index[token] = row
        if seed_vectors is not None:
            vec = seed_vectors.get(token)
            if vec is not None and len(vec) == width:
                matrix[row] = vec
    return ComponentEmbeddings(index, matrix)


def build_edge_vocab(
    paths: Iterable[DependencyPath],
    *,
    lemma_dim: int,
    pos_dim: int,
    deprel_dim: int,
    dir_dim: int,
    rng: np.random.Generator,
    table: EmbeddingTable | None = None,
) -> EdgeVocab:
    """Collect component vocabularies from paths and initialize their rows.

    Lemma rows are seeded from the embedding table where tokens match (only
    possible when ``lemma_dim`` equals the table width); the X/Y placeholders
    are always present.
    """
    lemmas, poses, deprels = set(), set(), set()
    for path in paths:
        for edge in path.edges:
            lemmas.add(edge.lemma)
            poses.add(edge.pos)
            deprels.add(edge.deprel)
    lemmas.update((X_PLACEHOLDER, Y_PLACEHOLDER))
    seeds = table.entries if table is not None else None
    return EdgeVocab(
        lemma=init_component(lemmas, lemma_dim, rng, seeds),
        pos=init_component(poses, pos_dim, rng),
        deprel=init_component(deprels, deprel_dim, rng),
        direction=init_component(DIRECTION_TOKENS, dir_dim, rng),
    )


def init_recurrent(input_size: int, hidden_size: int, rng: np.random.Generator) -> RecurrentParams:
    rows = 4 * hidden_size
    return RecurrentParams(
        w_in=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, input_size)),
        w_rec=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, hidden_size)),
        bias=rng.uniform(-INIT_SCALE, INIT_SCALE, size=rows),
    )


def edge_rows(edge: PathEdge, vocab: EdgeVocab) -> tuple[int, int, int, int]:
    """Component row numbers for one step; unseen tokens fall back to row 0."""
    return (
        vocab.lemma.row(edge.lemma),
        vocab.pos.row(edge.pos),
        vocab.deprel.row(edge.deprel),
        vocab.direction.row(edge.direction),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    ez = np.exp(z[~positive])
    out[~positive] = ez / (1.0 + ez)
    return out


@dataclass
class _StepCache:
    rows: tuple[int, int, int, int]
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gate_i: np.ndarray
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    tanh_c: np.ndarray


@dataclass
class PathCache:
    steps: list[_StepCache]
    h_final: np.ndarray


@dataclass
class AverageCache:
    paths: list[tuple[PathCache, float]]
    hidden_size: int


def _path_rows(
    path: DependencyPath, vocab: EdgeVocab, dropped: Sequence[bool] | None = None
) -> list[tuple[int, int, int, int]]:
    rows_seq = []
    for position, edge in enumerate(path.edges):
        lemma_row, pos_row, deprel_row, dir_row = edge_rows(edge, vocab)
        if dropped is not None and dropped[position]:
            lemma_row = 0
        rows_seq.append((lemma_row, pos_row, deprel_row, dir_row))
    return rows_seq


def _run_path(rows_seq, vocab: EdgeVocab, rec: RecurrentParams) -> PathCache:
    hidden = rec.hidden_size
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    steps = []
    for rows in rows_seq:
        x = np.concatenate([comp.matrix[r] for comp, r in zip(vocab.components(), rows)])
        z = rec.w_in @ x + rec.w_rec @ h + rec.bias
        gate_i = _sigmoid(z[:hidden])
        gate_f = _sigmoid(z[hidden : 2 * hidden])
        gate_g = np.tanh(z[2 * hidden : 3 * hidden])
        gate_o = _sigmoid(z[3 * hidden :])
        c_new = gate_f * c + gate_i * gate_g
        tanh_c = np.tanh(c_new)
        steps.append(_StepCache(rows, x, h, c, gate_i, gate_f, gate_g, gate_o, tanh_c))
        h = gate_o * tanh_c
        c = c_new
    return PathCache(steps, h)


def encode_path(path: DependencyPath, vocab: EdgeVocab, rec: RecurrentParams) -> np.ndarray:
    """Final hidden state after consuming the path's step vectors in order."""
    if not path.edges:
        raise ValueError("cannot encode an empty path")
    return _run_path(_path_rows(path, vocab), vocab, rec).h_final


def average_paths_with_cache(
    paths: Mapping[DependencyPath, int],
    vocab: EdgeVocab,
    rec: RecurrentParams,
    mode: str = WEIGHTED,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, AverageCache]:
    """Average of the encoded paths, and what the backward pass needs.

    The empty multiset gives the zero vector. "weighted" weights each distinct
    path by its count; "uniform" ignores counts. When ``dropout_rate`` > 0 and
    an rng is given, each step's lemma component is replaced by the unknown
    row with that probability, independently.
    """
    if mode not in AVERAGE_MODES:
        raise ValueError(f"unknown average mode {mode!r}")
    hidden = rec.hidden_size
    items = list(paths.items())
    if not items:
        return np.zeros(hidden), AverageCache([], hidden)
    if mode == WEIGHTED:
        total = sum(count for _, count in items)
        weights = [count / total for _, count in items]
    else:
        weights = [1.0 / len(items)] * len(items)
    pooled = np.zeros(hidden)
    caches = []
    for (path, _), weight in zip(items, weights):
        dropped = None
        if dropout_rate > 0.0 and rng is not None:
            dropped = rng.random(len(path.edges)) < dropout_rate
        cache = _run_path(_path_rows(path, vocab, dropped), vocab, rec)
        pooled += weight * cache.h_final
        caches.append((cache, weight))
    return pooled, AverageCache(caches, hidden)


# The encoder's trainable arrays in a fixed order, each named by where it sits
# on an object whose ``vocab`` is an EdgeVocab and whose ``rec`` is its
# RecurrentParams.
ENCODER_ARRAYS = (
    "vocab.lemma", "vocab.pos", "vocab.deprel", "vocab.direction",
    "rec.w_in", "rec.w_rec", "rec.bias",
)


@functools.cache
def _layout(names: tuple[str, ...]) -> tuple[attrgetter, tuple[str, ...]]:
    """One getter of the values at all ``names``, and each name's gradient
    attribute: "rec.w_in" accumulates in ``w_in``."""
    return attrgetter(*names), tuple(name.rpartition(".")[2] for name in names)


def named_arrays(owner, names: tuple[str, ...]) -> list[tuple[str, np.ndarray]]:
    """(name, array) for each name that is set on ``owner``, in order.

    "rec.w_in" is ``owner.rec.w_in``. A value that is not an array (an
    embedding component, a word-vector set) stands for its ``matrix``.
    """
    get, _ = _layout(names)
    return [(name, value if isinstance(value, np.ndarray) else value.matrix)
            for name, value in zip(names, get(owner)) if value is not None]


class EncoderGrads:
    """Zeroed gradient accumulators for the arrays named in NAMES.

    The gradient of the array named "rec.w_in" is the attribute ``w_in``; a
    name whose array is not set has None.
    """

    NAMES: tuple[str, ...] = ENCODER_ARRAYS

    def __init__(self, owner):
        _, attributes = _layout(self.NAMES)
        arrays = dict(named_arrays(owner, self.NAMES))
        # np.zeros rather than zeros_like: this runs on every SGD step, and
        # zeros_like costs several times more per call.
        for name, attribute in zip(self.NAMES, attributes):
            array = arrays.get(name)
            setattr(self, attribute, None if array is None else np.zeros(array.shape, array.dtype))

    @classmethod
    def zeros(cls, vocab: EdgeVocab, rec: RecurrentParams) -> "EncoderGrads":
        return cls(SimpleNamespace(vocab=vocab, rec=rec))

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, gradient) for each set gradient, in the order of NAMES."""
        _, attributes = _layout(self.NAMES)
        held = vars(self)
        return [(name, held[attribute]) for name, attribute in zip(self.NAMES, attributes)
                if held[attribute] is not None]


def backprop_average(
    d_out: np.ndarray,
    cache: AverageCache,
    vocab: EdgeVocab,
    rec: RecurrentParams,
    grads: EncoderGrads,
) -> None:
    """Accumulate d(loss)/d(params) given d(loss)/d(averaged vector)."""
    for path_cache, weight in cache.paths:
        _backprop_path(weight * d_out, path_cache, vocab, rec, grads)


def _backprop_path(
    d_h: np.ndarray,
    cache: PathCache,
    vocab: EdgeVocab,
    rec: RecurrentParams,
    grads: EncoderGrads,
) -> None:
    dh = d_h.copy()
    dc = np.zeros_like(dh)
    component_grads = (grads.lemma, grads.pos, grads.deprel, grads.direction)
    for step in reversed(cache.steps):
        d_o = dh * step.tanh_c
        d_ct = dh * step.gate_o * (1.0 - step.tanh_c**2) + dc
        d_i = d_ct * step.gate_g
        d_f = d_ct * step.c_prev
        d_g = d_ct * step.gate_i
        dc = d_ct * step.gate_f
        dz = np.concatenate(
            [
                d_i * step.gate_i * (1.0 - step.gate_i),
                d_f * step.gate_f * (1.0 - step.gate_f),
                d_g * (1.0 - step.gate_g**2),
                d_o * step.gate_o * (1.0 - step.gate_o),
            ]
        )
        grads.w_in += np.outer(dz, step.x)
        grads.w_rec += np.outer(dz, step.h_prev)
        grads.bias += dz
        dx = rec.w_in.T @ dz
        dh = rec.w_rec.T @ dz
        offset = 0
        for comp_grad, comp, row in zip(component_grads, vocab.components(), step.rows):
            comp_grad[row] += dx[offset : offset + comp.width]
            offset += comp.width
