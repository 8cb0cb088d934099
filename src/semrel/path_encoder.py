"""Encoding dependency paths into fixed-width vectors.

Each path step is embedded as the concatenation of four component embeddings
(lemma, POS, dependency label, direction), each component keeping an unknown
row at index 0. A single-layer recurrent unit with input, forget, candidate,
and output gates consumes the step vectors in order; the final hidden state
represents the path. A pair's path multiset is reduced to a single vector by
a count-weighted (or uniform) average, with the empty multiset mapping to the
zero vector.

``average_paths_with_cache`` runs a pair's paths in groups of equal step
count, each group time-major as one (P, D) matrix per step, and keeps one
record of arrays per group, which ``backprop_average`` walks back to
accumulate exact gradients for all encoder parameters.
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
    """The forward pass of a group of P paths of T steps each, time-major;
    input width D, hidden size H."""

    rows: np.ndarray  # (T, P, 4) lemma, POS, deprel and direction row numbers
    xs: np.ndarray  # (T, P, D) step inputs
    hs: np.ndarray  # (T+1, P, H) row t is the state step t starts from; hs[-1] encodes the paths
    cs: np.ndarray  # (T+1, P, H) cell states, in the same rows
    gates: np.ndarray  # (T, P, 4H) input, forget, candidate and output gates
    tanh_c: np.ndarray  # (T, P, H) tanh of the cell state that step t leaves
    weights: np.ndarray  # (P,) each path's weight in the average


def _run_group(rows: np.ndarray, weights: np.ndarray, vocab: EdgeVocab,
               rec: RecurrentParams) -> PathCache:
    """Run the unit over a group of same-length paths given their (T, P, 4)
    component rows. Only the recurrent product stays inside the step loop.
    Edgeless paths keep the zero state: they encode to zeros."""
    steps, count = rows.shape[:2]
    xs = np.concatenate([comp.matrix[rows[..., k]] for k, comp in enumerate(vocab.components())],
                        axis=2)
    hidden = rec.hidden_size
    i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    z_in = xs.reshape(steps * count, xs.shape[2]) @ rec.w_in.T + rec.bias
    z_in = z_in.reshape(steps, count, 4 * hidden)
    hs = np.zeros((steps + 1, count, hidden))
    cs = np.zeros((steps + 1, count, hidden))
    gates = np.empty((steps, count, 4 * hidden))
    tanh_c = np.empty((steps, count, hidden))
    for t in range(steps):
        z = z_in[t] + hs[t] @ rec.w_rec.T
        gate = gates[t]
        gate[:] = _sigmoid(z)
        gate[:, g] = np.tanh(z[:, g])
        cs[t + 1] = gate[:, f] * cs[t] + gate[:, i] * gate[:, g]
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = gate[:, o] * tanh_c[t]
    return PathCache(rows, xs, hs, cs, gates, tanh_c, weights)


def average_paths_with_cache(
    paths: Mapping[DependencyPath, int],
    vocab: EdgeVocab,
    rec: RecurrentParams,
    mode: str = WEIGHTED,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[PathCache]]:
    """Average of the encoded paths, and one cache per group of paths that
    share a step count.

    The empty multiset gives the zero vector. "weighted" weights each distinct
    path by its count; "uniform" ignores counts. When ``dropout_rate`` > 0 and
    an rng is given, each step's lemma component is replaced by the unknown
    row with that probability, independently, drawn path by path in the
    multiset's order.
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
    components = vocab.components()
    groups: dict[int, list[int]] = {}
    path_rows = []
    for n, (path, _) in enumerate(items):
        rows = np.array([[comp.row(token) for comp, token in
                          zip(components, (e.lemma, e.pos, e.deprel, e.direction))]
                         for e in path.edges], dtype=np.intp).reshape(-1, 4)
        if dropout_rate > 0.0 and rng is not None:
            rows[rng.random(len(path.edges)) < dropout_rate, 0] = 0
        path_rows.append(rows)
        groups.setdefault(len(rows), []).append(n)
    caches = []
    final = [None] * len(items)
    for members in groups.values():
        cache = _run_group(np.stack([path_rows[n] for n in members], axis=1),
                           np.array([weights[n] for n in members]), vocab, rec)
        caches.append(cache)
        for p, n in enumerate(members):
            final[n] = cache.hs[-1, p]
    for weight, h in zip(weights, final):
        pooled += weight * h
    return pooled, caches


def encoder_arrays(vocab: EdgeVocab, rec: RecurrentParams) -> dict[str, np.ndarray]:
    """The encoder's trainable arrays by name, in a fixed order; a gradient
    accumulator for ``backprop_average`` has an attribute of each name."""
    return {"lemma": vocab.lemma.matrix, "pos": vocab.pos.matrix, "deprel": vocab.deprel.matrix,
            "direction": vocab.direction.matrix, "w_in": rec.w_in, "w_rec": rec.w_rec,
            "bias": rec.bias}


def backprop_average(
    d_out: np.ndarray,
    cache: Sequence[PathCache],
    vocab: EdgeVocab,
    rec: RecurrentParams,
    grads,
) -> None:
    """Accumulate d(loss)/d(params) given d(loss)/d(averaged vector), into
    the ``grads`` attribute named as in ``encoder_arrays``. Each group walks
    its steps back with only the recurrent product in the loop, then adds
    its weight, bias and component-row gradients in one pass."""
    hidden = rec.hidden_size
    i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    ends = np.cumsum([comp.width for comp in vocab.components()]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    component_grads = (grads.lemma, grads.pos, grads.deprel, grads.direction)
    for group in cache:
        steps, count = group.rows.shape[:2]
        if steps == 0:
            continue
        dh = group.weights[:, None] * d_out
        dc = np.zeros((count, hidden))
        dzs = np.empty((steps, count, 4 * hidden))
        for t in reversed(range(steps)):
            gate, tanh_c, dz = group.gates[t], group.tanh_c[t], dzs[t]
            gi, gf, gg, go = gate[:, i], gate[:, f], gate[:, g], gate[:, o]
            d_ct = dh * go * (1.0 - tanh_c**2) + dc
            dz[:, i] = d_ct * gg * gi * (1.0 - gi)
            dz[:, f] = d_ct * group.cs[t] * gf * (1.0 - gf)
            dz[:, g] = d_ct * gi * (1.0 - gg**2)
            dz[:, o] = dh * tanh_c * go * (1.0 - go)
            dc = d_ct * gf
            dh = dz @ rec.w_rec
        dz_all = dzs.reshape(steps * count, -1)
        grads.w_in += dz_all.T @ group.xs.reshape(steps * count, -1)
        grads.w_rec += dz_all.T @ group.hs[:-1].reshape(steps * count, -1)
        grads.bias += dz_all.sum(axis=0)
        dx = dz_all @ rec.w_in
        rows = group.rows.reshape(steps * count, 4)
        for k, (comp_grad, (start, end)) in enumerate(zip(component_grads, spans)):
            np.add.at(comp_grad, rows[:, k], dx[:, start:end])
