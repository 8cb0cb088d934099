"""Encoding dependency paths into fixed-width vectors.

Each path step is embedded as the concatenation of four component embeddings
(lemma, POS, dependency label, direction), each component keeping an unknown
row at index 0. A single-layer recurrent unit with input, forget, candidate,
and output gates consumes the step vectors in order; the final hidden state
represents the path. A pair's path multiset is reduced to a single vector by
a count-weighted (or uniform) average, with the empty multiset mapping to the
zero vector.

A ``PathEncoder`` holds the four component embeddings and the unit's weights;
``init_encoder`` draws it, and the encoding functions take it as one argument.
``compile_paths`` stacks a multiset's row numbers in groups of equal step
count.
``average_paths_with_cache`` runs each group time-major as one (P, D) matrix
per step and keeps one record of arrays per group, which ``backprop_average``
walks back to accumulate exact gradients for all encoder parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
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


# The step components, in step-input and model-file order; PathEncoder's first fields.
STEP_COMPONENTS = PathEdge._fields
_in_step_order = attrgetter(*STEP_COMPONENTS)  # a PathEncoder's components


@dataclass(frozen=True)
class PathEncoder:
    """The four step components, whose tokens and widths are fixed once
    built, and the recurrent unit's weights, gate rows stacked input, forget,
    candidate, output."""

    lemma: ComponentEmbeddings
    pos: ComponentEmbeddings
    deprel: ComponentEmbeddings
    direction: ComponentEmbeddings
    w_in: np.ndarray  # (4H, D)
    w_rec: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    def components(self) -> tuple[ComponentEmbeddings, ...]:
        return _in_step_order(self)

    @property
    def input_width(self) -> int:
        return sum(c.width for c in self.components())

    @property
    def hidden_size(self) -> int:
        return self.w_rec.shape[1]

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Each component's (start, end) columns in a step input."""
        ends = np.cumsum([c.width for c in self.components()]).tolist()
        return tuple(zip([0] + ends[:-1], ends))

    def path_rows(self, path: DependencyPath) -> np.ndarray:
        """The path's (T, 4) row numbers, one column per step component."""
        return np.array([[comp.row(token) for comp, token in zip(self.components(), edge)]
                         for edge in path.edges], dtype=np.intp).reshape(-1, 4)

    def arrays(self) -> dict[str, np.ndarray]:
        """The trainable arrays by name, in a fixed order; a gradient
        accumulator for ``backprop_average`` has an attribute of each name."""
        arrays = {name: comp.matrix for name, comp in zip(STEP_COMPONENTS, self.components())}
        return {**arrays, "w_in": self.w_in, "w_rec": self.w_rec, "bias": self.bias}


def init_uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A new array of ``shape``, drawn uniformly from [-INIT_SCALE, INIT_SCALE]."""
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


def init_component(
    tokens: Iterable[str],
    width: int,
    rng: np.random.Generator,
    seed_table: EmbeddingTable | None = None,
) -> ComponentEmbeddings:
    """Rows drawn uniformly from [-0.1, 0.1]; a token that ``seed_table``
    holds takes its table row instead when the widths agree."""
    ordered = sorted(set(tokens))
    matrix = init_uniform(rng, len(ordered) + 1, width)
    index = {token: row for row, token in enumerate(ordered, start=1)}
    if seed_table is not None and seed_table.dimension == width:
        for token, row in index.items():
            seed_row = seed_table.rows.get(token)
            if seed_row is not None:
                matrix[row] = seed_table.matrix[seed_row]
    return ComponentEmbeddings(index, matrix)


def init_encoder(
    paths: Iterable[DependencyPath],
    *,
    lemma_dim: int,
    pos_dim: int,
    deprel_dim: int,
    dir_dim: int,
    hidden_size: int,
    rng: np.random.Generator,
    table: EmbeddingTable | None = None,
) -> PathEncoder:
    """An encoder for the components of ``paths``: their rows are drawn
    first, in step order, then ``w_in``, ``w_rec`` and ``bias``.

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
    components = (init_component(lemmas, lemma_dim, rng, table),
                  init_component(poses, pos_dim, rng),
                  init_component(deprels, deprel_dim, rng),
                  init_component(DIRECTION_TOKENS, dir_dim, rng))
    rows = 4 * hidden_size
    return PathEncoder(*components,
                       w_in=init_uniform(rng, rows, sum(c.width for c in components)),
                       w_rec=init_uniform(rng, rows, hidden_size),
                       bias=init_uniform(rng, rows))


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: 1 / (1 + ez) where z >= 0, ez / (1 + ez) below.
    ez = np.exp(np.copysign(z, -1.0))
    return np.divide(np.where(z >= 0, 1.0, ez), 1.0 + ez, out=out)


@dataclass(slots=True)
class CompiledPaths:
    """A path multiset as row numbers of one encoder, for one average mode."""

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]  # per step count: (T, P, 4) rows, (P,) weights
    slots: tuple[tuple[int, int], ...]  # each path's group and position, in the multiset's order

    def lemma_rows(self) -> np.ndarray | None:
        """The sorted lemma rows that the paths' steps read, with the unknown
        row 0, which word dropout puts in their place; None without a step."""
        if not any(len(rows) for rows, _ in self.groups):
            return None
        rows = {0}.union(*(rows[..., 0].ravel().tolist() for rows, _ in self.groups))
        return np.array(sorted(rows), dtype=np.intp)


def compile_paths(paths: Mapping[DependencyPath, int], encoder: PathEncoder,
                  mode: str = WEIGHTED) -> CompiledPaths:
    """Each path's rows and weight, grouped by step count. "weighted" weights
    each distinct path by its count; "uniform" ignores counts."""
    if mode not in AVERAGE_MODES:
        raise ValueError(f"unknown average mode {mode!r}")
    items = list(paths.items())
    if not items:
        return CompiledPaths((), ())
    if mode == WEIGHTED:
        total = sum(count for _, count in items)
        weights = [count / total for _, count in items]
    else:
        weights = [1.0 / len(items)] * len(items)
    path_rows = [encoder.path_rows(path) for path, _ in items]
    members: dict[int, list[int]] = {}
    for n, rows in enumerate(path_rows):
        members.setdefault(len(rows), []).append(n)
    groups, slots = [], [(0, 0)] * len(items)
    for g, ns in enumerate(members.values()):
        groups.append((np.stack([path_rows[n] for n in ns], axis=1),
                       np.array([weights[n] for n in ns])))
        for p, n in enumerate(ns):
            slots[n] = (g, p)
    return CompiledPaths(tuple(groups), tuple(slots))


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


def _run_group(rows: np.ndarray, weights: np.ndarray, encoder: PathEncoder) -> PathCache:
    """Run the unit over a group of same-length paths given their (T, P, 4)
    component rows. Only the recurrent product stays inside the step loop.
    Edgeless paths keep the zero state: they encode to zeros."""
    steps, count = rows.shape[:2]
    xs = np.concatenate([comp.matrix[rows[..., k]] for k, comp in enumerate(encoder.components())],
                        axis=2)
    hidden = encoder.hidden_size
    i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    z_in = xs.reshape(steps * count, xs.shape[2]) @ encoder.w_in.T + encoder.bias
    z_in = z_in.reshape(steps, count, 4 * hidden)
    hs = np.zeros((steps + 1, count, hidden))
    cs = np.zeros((steps + 1, count, hidden))
    gates = np.empty((steps, count, 4 * hidden))
    tanh_c = np.empty((steps, count, hidden))
    w_rec_t = encoder.w_rec.T
    for t in range(steps):
        z = z_in[t] + hs[t] @ w_rec_t
        gate, c = gates[t], cs[t + 1]
        _sigmoid(z, gate)
        np.tanh(z[:, g], out=gate[:, g])
        np.multiply(gate[:, f], cs[t], out=c)
        c += gate[:, i] * gate[:, g]
        np.tanh(c, out=tanh_c[t])
        np.multiply(gate[:, o], tanh_c[t], out=hs[t + 1])
    return PathCache(rows, xs, hs, cs, gates, tanh_c, weights)


def average_paths_with_cache(
    paths: Mapping[DependencyPath, int] | CompiledPaths,
    encoder: PathEncoder,
    mode: str = WEIGHTED,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[PathCache]]:
    """Average of the encoded paths, and one cache per group of paths that
    share a step count.

    ``paths`` is a multiset, or one that ``compile_paths`` compiled with this
    encoder, in which case its weights stand and ``mode`` is not read.
    The empty multiset gives the zero vector. When ``dropout_rate`` > 0 and
    an rng is given, each step's lemma component is replaced by the unknown
    row with that probability, independently, drawn path by path in the
    multiset's order.
    """
    if not isinstance(paths, CompiledPaths):
        paths = compile_paths(paths, encoder, mode)
    groups = paths.groups
    if dropout_rate > 0.0 and rng is not None:
        groups = [(rows.copy(), weights) for rows, weights in groups]
        for g, p in paths.slots:
            rows = groups[g][0]
            rows[rng.random(len(rows)) < dropout_rate, p, 0] = 0
    caches = [_run_group(rows, weights, encoder) for rows, weights in groups]
    pooled = np.zeros(encoder.hidden_size)
    for g, p in paths.slots:
        pooled += caches[g].weights[p] * caches[g].hs[-1, p]
    return pooled, caches


@dataclass
class RowGradient:
    """The gradient of a matrix on some of its rows; every other row's is zero."""

    rows: np.ndarray  # sorted distinct row numbers
    values: np.ndarray  # (len(rows), width) the gradient of those rows

    def add_at(self, rows, values: np.ndarray) -> None:
        """Add ``values`` to the gradient of ``rows``, each of which it holds."""
        np.add.at(self.values, np.searchsorted(self.rows, rows), values)


def backprop_average(
    d_out: np.ndarray,
    cache: Sequence[PathCache],
    encoder: PathEncoder,
    grads,
) -> None:
    """Accumulate d(loss)/d(params) given d(loss)/d(averaged vector), into
    the ``grads`` attribute named as in ``PathEncoder.arrays``, which for a
    component may be a ``RowGradient`` holding every row the paths read."""
    hidden = encoder.hidden_size
    component_grads = [getattr(grads, name) for name in STEP_COMPONENTS]
    for group in cache:
        steps, count = group.rows.shape[:2]
        if steps == 0:
            continue
        # Each gate's dz is ((d * a) * b) * c, d being d_ct or, for the output
        # gate, dh: the products of its formula in their order. Input
        # d_ct·g_g·g_i·(1-g_i), forget d_ct·c_prev·g_f·(1-g_f), candidate
        # d_ct·g_i·(1-g_g²)·1, output dh·tanh(c)·g_o·(1-g_o). a, b and c do
        # not depend on the step before, so they are built once per group.
        gates = group.gates.reshape(steps, count, 4, hidden)
        gi, gf, gg, go = (gates[:, :, k] for k in range(4))
        a = np.empty_like(gates)
        a[:, :, 0], a[:, :, 1], a[:, :, 2], a[:, :, 3] = gg, group.cs[:-1], gi, group.tanh_c
        b = gates.copy()
        b[:, :, 2] = 1.0 - gg**2
        c = 1.0 - gates
        c[:, :, 2] = 1.0
        d_tanh_c = 1.0 - group.tanh_c**2
        dh = group.weights[:, None] * d_out
        dc = np.zeros((count, hidden))
        dzs = np.empty((steps, count, 4 * hidden))
        for t in reversed(range(steps)):
            d_ct = dh * go[t] * d_tanh_c[t] + dc
            dz = dzs[t].reshape(count, 4, hidden)
            np.multiply(d_ct[:, None], a[t, :, :3], out=dz[:, :3])
            np.multiply(dh, a[t, :, 3], out=dz[:, 3])
            dz *= b[t]
            dz *= c[t]
            dc = d_ct * gf[t]
            dh = dzs[t] @ encoder.w_rec
        dz_all = dzs.reshape(steps * count, -1)
        grads.w_in += dz_all.T @ group.xs.reshape(steps * count, -1)
        grads.w_rec += dz_all.T @ group.hs[:-1].reshape(steps * count, -1)
        grads.bias += dz_all.sum(axis=0)
        dx = dz_all @ encoder.w_in
        rows = group.rows.reshape(steps * count, 4)
        for k, (comp_grad, (start, end)) in enumerate(zip(component_grads, encoder.spans)):
            if isinstance(comp_grad, RowGradient):
                comp_grad.add_at(rows[:, k], dx[:, start:end])
            else:
                np.add.at(comp_grad, rows[:, k], dx[:, start:end])
