"""Encoding dependency paths into fixed-width vectors.

Each path step is embedded as the concatenation of four component embeddings
(lemma, POS, dependency label, direction), each component keeping an unknown
row at index 0. A single-layer recurrent unit with input, forget, candidate,
and output gates consumes the step vectors in order; the final hidden state
represents the path. A pair's path multiset is reduced to a single vector by
a count-weighted (or uniform) average, with the empty multiset mapping to the
zero vector.

``average_paths_with_cache`` keeps one record of arrays per path, which
``backprop_average`` walks back to accumulate exact gradients for all encoder
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import DOWN, ROOT, UP, DependencyPath, X_PLACEHOLDER, Y_PLACEHOLDER
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


def init_component(
    tokens: Iterable[str],
    width: int,
    rng: np.random.Generator,
    seed_table: EmbeddingTable | None = None,
) -> ComponentEmbeddings:
    """Rows drawn uniformly from [-0.1, 0.1]; a token that ``seed_table``
    holds takes its table row instead when the widths agree."""
    ordered = sorted(set(tokens))
    matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(ordered) + 1, width))
    index = {token: row for row, token in enumerate(ordered, start=1)}
    if seed_table is not None and seed_table.dimension == width:
        for token, row in index.items():
            seed_row = seed_table.rows.get(token)
            if seed_row is not None:
                matrix[row] = seed_table.matrix[seed_row]
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
    return EdgeVocab(
        lemma=init_component(lemmas, lemma_dim, rng, table),
        pos=init_component(poses, pos_dim, rng),
        deprel=init_component(deprels, deprel_dim, rng),
        direction=init_component(DIRECTION_TOKENS, dir_dim, rng),
    )


def init_recurrent(input_width: int, hidden_size: int, rng: np.random.Generator) -> RecurrentParams:
    rows = 4 * hidden_size
    return RecurrentParams(
        w_in=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, input_width)),
        w_rec=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, hidden_size)),
        bias=rng.uniform(-INIT_SCALE, INIT_SCALE, size=rows),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    ez = np.exp(z[~positive])
    out[~positive] = ez / (1.0 + ez)
    return out


@dataclass
class PathCache:
    """One path's forward pass, a row per step; T steps, input width D, hidden size H."""

    rows: np.ndarray  # (T, 4) lemma, POS, deprel and direction row numbers
    xs: np.ndarray  # (T, D) step inputs
    hs: np.ndarray  # (T+1, H) row t is the state step t starts from; hs[-1] encodes the path
    cs: np.ndarray  # (T+1, H) cell states, in the same rows
    gates: np.ndarray  # (T, 4H) input, forget, candidate and output gates
    tanh_c: np.ndarray  # (T, H) tanh of the cell state that step t leaves


def _run_path(
    path: DependencyPath,
    vocab: EdgeVocab,
    rec: RecurrentParams,
    dropped: np.ndarray | None = None,
) -> PathCache:
    """Run the unit over the path's steps, where a dropped step's lemma takes
    row 0. An edgeless path keeps the zero state: it encodes to zeros."""
    components = vocab.components()
    steps = [(e.lemma, e.pos, e.deprel, e.direction) for e in path.edges]
    rows = np.array([[comp.row(token) for comp, token in zip(components, step)] for step in steps],
                    dtype=np.intp).reshape(-1, 4)
    if dropped is not None:
        rows[dropped, 0] = 0
    xs = np.concatenate([comp.matrix[rows[:, k]] for k, comp in enumerate(components)], axis=1)
    hidden = rec.hidden_size
    i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    hs = np.zeros((len(rows) + 1, hidden))
    cs = np.zeros((len(rows) + 1, hidden))
    gates = np.empty((len(rows), 4 * hidden))
    tanh_c = np.empty((len(rows), hidden))
    for t in range(len(rows)):
        z = rec.w_in @ xs[t] + rec.w_rec @ hs[t] + rec.bias
        gate = gates[t]
        gate[:] = _sigmoid(z)
        gate[g] = np.tanh(z[g])
        cs[t + 1] = gate[f] * cs[t] + gate[i] * gate[g]
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = gate[o] * tanh_c[t]
    return PathCache(rows, xs, hs, cs, gates, tanh_c)


def average_paths_with_cache(
    paths: Mapping[DependencyPath, int],
    vocab: EdgeVocab,
    rec: RecurrentParams,
    mode: str = WEIGHTED,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[tuple[PathCache, float]]]:
    """Average of the encoded paths, and each path's cache with its weight.

    The empty multiset gives the zero vector. "weighted" weights each distinct
    path by its count; "uniform" ignores counts. When ``dropout_rate`` > 0 and
    an rng is given, each step's lemma component is replaced by the unknown
    row with that probability, independently.
    """
    if mode not in AVERAGE_MODES:
        raise ValueError(f"unknown average mode {mode!r}")
    pooled = np.zeros(rec.hidden_size)
    items = list(paths.items())
    if not items:
        return pooled, []
    if mode == WEIGHTED:
        total = sum(count for _, count in items)
        weights = [count / total for _, count in items]
    else:
        weights = [1.0 / len(items)] * len(items)
    caches = []
    for (path, _), weight in zip(items, weights):
        dropped = None
        if dropout_rate > 0.0 and rng is not None:
            dropped = rng.random(len(path.edges)) < dropout_rate
        cache = _run_path(path, vocab, rec, dropped)
        pooled += weight * cache.hs[-1]
        caches.append((cache, weight))
    return pooled, caches


def encoder_arrays(vocab: EdgeVocab, rec: RecurrentParams) -> dict[str, np.ndarray]:
    """The encoder's trainable arrays by name, in a fixed order; a gradient
    accumulator for ``backprop_average`` has an attribute of each name."""
    return {"lemma": vocab.lemma.matrix, "pos": vocab.pos.matrix, "deprel": vocab.deprel.matrix,
            "direction": vocab.direction.matrix, "w_in": rec.w_in, "w_rec": rec.w_rec,
            "bias": rec.bias}


def backprop_average(
    d_out: np.ndarray,
    cache: Sequence[tuple[PathCache, float]],
    vocab: EdgeVocab,
    rec: RecurrentParams,
    grads,
) -> None:
    """Accumulate d(loss)/d(params) given d(loss)/d(averaged vector), into
    the ``grads`` attribute named as in ``encoder_arrays``."""
    for path_cache, weight in cache:
        _backprop_path(weight * d_out, path_cache, vocab, rec, grads)


def _backprop_path(
    dh: np.ndarray,
    cache: PathCache,
    vocab: EdgeVocab,
    rec: RecurrentParams,
    grads,
) -> None:
    hidden = rec.hidden_size
    i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    ends = np.cumsum([comp.width for comp in vocab.components()]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    component_grads = (grads.lemma, grads.pos, grads.deprel, grads.direction)
    rows = cache.rows.tolist()
    dc = np.zeros(hidden)
    dz = np.empty(4 * hidden)
    for t in reversed(range(len(rows))):
        gate, tanh_c = cache.gates[t], cache.tanh_c[t]
        d_ct = dh * gate[o] * (1.0 - tanh_c**2) + dc
        dz[i] = d_ct * gate[g] * gate[i] * (1.0 - gate[i])
        dz[f] = d_ct * cache.cs[t] * gate[f] * (1.0 - gate[f])
        dz[g] = d_ct * gate[i] * (1.0 - gate[g] ** 2)
        dz[o] = dh * tanh_c * gate[o] * (1.0 - gate[o])
        dc = d_ct * gate[f]
        grads.w_in += dz[:, None] * cache.xs[t]
        grads.w_rec += dz[:, None] * cache.hs[t]
        grads.bias += dz
        dx = rec.w_in.T @ dz
        dh = rec.w_rec.T @ dz
        for comp_grad, row, (start, end) in zip(component_grads, rows[t], spans):
            comp_grad[row] += dx[start:end]
