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
per step and returns each group's ``GroupViews``, which ``backprop_average``
walks back; it returns exact gradients for all encoder parameters.

Both passes write every array with ``out=`` into a ``BufferPool``, made for
one encoder: flat buffers kept from call to call, each group working in their
leading rows through views built once per group shape. So a training step
that reuses a pool allocates no array of a group's size, and a call given no
pool makes its own, so that no caller gets arrays that another call writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from ._io import np
from ._random import Generator
from .corpus import DOWN, ROOT, UP, DependencyPath, PathEdge, X_PLACEHOLDER, Y_PLACEHOLDER
from .embeddings import EmbeddingTable

INIT_SCALE = 0.1
DIRECTION_TOKENS = (UP, DOWN, ROOT)

WEIGHTED = "weighted"
UNIFORM = "uniform"
AVERAGE_MODES = (WEIGHTED, UNIFORM)


@dataclass(frozen=True)
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
        """The trainable arrays by name, in a fixed order, which the
        gradients that ``backprop_average`` returns follow."""
        arrays = {name: comp.matrix for name, comp in zip(STEP_COMPONENTS, self.components())}
        return {**arrays, "w_in": self.w_in, "w_rec": self.w_rec, "bias": self.bias}


def input_width(components: Iterable[ComponentEmbeddings]) -> int:
    """The width of a step input: the components' widths summed, as ``w_in``
    has columns."""
    return sum(c.width for c in components)


def init_uniform(rng: Generator, *shape: int) -> np.ndarray:
    """A new array of ``shape``, drawn uniformly from [-INIT_SCALE, INIT_SCALE]."""
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


def init_component(
    tokens: Iterable[str],
    width: int,
    rng: Generator,
    seed_table: EmbeddingTable | None = None,
) -> ComponentEmbeddings:
    """Rows drawn uniformly from [-0.1, 0.1]; a token that ``seed_table``
    holds takes its table row instead when the widths agree.

    A taken row is not drawn: the stream advances past the values it would
    have had, so every drawn row keeps the value a full draw gives it.
    """
    ordered = sorted(set(tokens))
    index = {token: row for row, token in enumerate(ordered, start=1)}
    table_rows = {}
    if seed_table is not None and seed_table.dimension == width:
        table_rows = {row: seed_table.rows[token] for token, row in index.items()
                      if token in seed_table.rows}
    matrix = np.empty((len(ordered) + 1, width))
    start = 0
    for taken, run in groupby(range(len(matrix)), table_rows.__contains__):
        end = start + len(list(run))
        if taken:
            rng.advance((end - start) * width)
        else:
            matrix[start:end] = init_uniform(rng, end - start, width)
        start = end
    if table_rows:
        matrix[list(table_rows)] = seed_table.matrix[list(table_rows.values())]
    return ComponentEmbeddings(index, matrix)


def init_encoder(
    paths: Iterable[DependencyPath],
    *,
    lemma_dim: int,
    pos_dim: int,
    deprel_dim: int,
    dir_dim: int,
    hidden_size: int,
    rng: Generator,
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
                       w_in=init_uniform(rng, rows, input_width(components)),
                       w_rec=init_uniform(rng, rows, hidden_size),
                       bias=init_uniform(rng, rows))


def _sigmoid(z: np.ndarray, out: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """The logistic function of ``z``, written into ``out``, with ``ez`` (of
    z's shape) as scratch. exp(-|z|) never overflows: 1 / (1 + ez) where
    z >= 0, ez / (1 + ez) below. As ez <= 1, the numerator max(z >= 0, ez) is
    where(z >= 0, 1, ez)."""
    np.exp(np.copysign(z, -1.0, out=ez), out=ez)
    np.maximum(np.greater_equal(z, 0.0, out=out), ez, out=out)
    ez += 1.0
    return np.divide(out, ez, out=out)


def _own_layout(steps: int, width: int, hidden: int) -> list[tuple[int, int]]:
    """Rows per path and width of the arrays that a group of ``steps`` steps
    keeps from its forward pass to its backward pass, xs, hs, cs, gates and
    tanh_c, then of one step's scratch: z, ez and ig forward, dh, dc and d_ct
    backward."""
    gates = 4 * hidden
    return [(steps, width), (steps + 1, hidden), (steps + 1, hidden), (steps, gates),
            (steps, hidden), (1, gates), (1, gates), (1, hidden), (1, hidden), (1, hidden),
            (1, hidden)]


def _passing_widths(width: int, hidden: int) -> list[int]:
    """The width of each array that lives through one pass of one group, one
    row per path step: z_in forward; a, b, c, d_tanh_c, dz and dx backward."""
    gates = 4 * hidden
    return [gates, 3 * hidden, gates, gates, hidden, gates, width]


class GroupViews:
    """The arrays of a group of ``count`` paths of ``steps`` steps, and the
    views that each step of its forward and backward pass reads and writes:
    views of the leading rows of its step count's ``own`` buffers, laid out
    by ``_own_layout``, and of the ``passing`` buffers that every step count
    shares, laid out by ``_passing_widths``.

    After a forward pass it records that pass, time-major, input width D and
    hidden size H: ``rows`` (T, P, 4), the lemma, POS, deprel and direction
    row numbers it read; ``weights`` (P,), each path's weight in the average;
    ``xs`` (T, P, D), the step inputs; ``hs`` and ``cs`` (T+1, P, H), where
    row t is the state step t starts from and ``hs[-1]`` encodes the paths;
    ``gates`` (T, P, 4H); and ``tanh_c`` (T, P, H), tanh of the cell state
    that step t leaves."""

    rows: np.ndarray
    weights: np.ndarray

    def __init__(self, steps: int, spans: tuple[tuple[int, int], ...], hidden: int, count: int,
                 own: list[np.ndarray], passing: list[np.ndarray]):
        width = spans[-1][1]
        self.passing = passing
        xs, hs, cs, gates, tanh_c, z, ez, ig, dh, dc, d_ct = (
            region[:rows * count * w].reshape(rows, count, w)
            for region, (rows, w) in zip(own, _own_layout(steps, width, hidden)))
        z_in, a, b, c, d_tanh_c, dz, dx = (
            region[:steps * count * w].reshape(steps, count, w)
            for region, w in zip(passing, _passing_widths(width, hidden)))
        self.xs, self.hs, self.cs, self.gates, self.tanh_c = xs, hs, cs, gates, tanh_c
        self.inputs = [xs[..., start:end] for start, end in spans]
        self.xs_all, self.z_in_all = (x.reshape(steps * count, x.shape[2]) for x in (xs, z_in))
        self.z, self.ez, self.ig, self.zg = z[0], ez[0], ig[0], z[0][:, 2 * hidden:3 * hidden]
        gate = gates.reshape(steps, count, 4, hidden)  # input, forget, candidate, output
        hs_t, cs_t = list(hs), list(cs)
        slots = [[gate[t, :, k] for k in range(4)] for t in range(steps)]
        self.forward_steps = [(z_in[t], hs_t[t], hs_t[t + 1], cs_t[t], cs_t[t + 1], gates[t],
                               *slots[t], tanh_c[t]) for t in range(steps)]
        # The backward pass: see backprop_average.
        a = a.reshape(steps, count, 3, hidden)
        b4, c4, dz4 = (x.reshape(steps, count, 4, hidden) for x in (b, c, dz))
        self.a = list(zip((a[:, :, k] for k in range(3)), (gate[:, :, 2], cs[:-1], gate[:, :, 0])))
        self.b, self.b_g, self.c, self.c_g = b, b4[:, :, 2], c, c4[:, :, 2]
        self.gate_g = gate[:, :, 2]
        self.d_tanh_c, self.dh, self.dc, self.d_ct = d_tanh_c, dh[0], dc[0], d_ct[0]
        self.d_ct_col = self.d_ct[:, None]
        self.dz_all = dz.reshape(steps * count, 4 * hidden)
        self.hs_all = hs[:-1].reshape(steps * count, hidden)
        self.dx = dx.reshape(steps * count, width)
        self.dx_parts = [self.dx[:, start:end] for start, end in spans]
        self.backward_steps = [(t, slots[t][3], slots[t][1], d_tanh_c[t], a[t], tanh_c[t],
                                dz[t], dz4[t, :, :3], dz4[t, :, 3], b[t], c[t])
                               for t in reversed(range(steps))]


class BufferPool:
    """Working memory for running groups of paths through one encoder,
    reused from call to call.

    What a group keeps from its forward pass to its backward pass is held
    in one set of flat buffers per step count, grown to the most paths that
    a group of that step count has held; a group of P paths works in their
    leading rows. What lives through one pass of one group (the input
    projection, and the backward pass's factors and products) is held in
    one set that all step counts share, grown to the most path steps of a
    group. A group's views of both are built once per (T, P) and again when
    a set grows. So the next group of the same step count overwrites a
    group's record, and a caller that keeps one must give each call its own
    pool. Sharing the one-pass buffers, and ``reserve``, which sizes them all
    before the first group, keep a training run's peak memory near what
    allocating each group's arrays afresh would take.
    """

    def __init__(self, encoder: PathEncoder):
        self.encoder = encoder
        # steps -> [capacity in paths, regions, views by path count]
        self._own: dict[int, list] = {}
        # [capacity in path steps, regions]; a group of 0-step paths allocates it empty
        self._passing: list | None = None

    def group(self, steps: int, count: int) -> GroupViews:
        spans, hidden = self.encoder.spans, self.encoder.hidden_size
        width = spans[-1][1]
        passing = self._passing
        if passing is None or steps * count > passing[0]:
            passing = self._passing = [
                steps * count,
                [np.empty(steps * count * w) for w in _passing_widths(width, hidden)]]
        own = self._own.get(steps)
        if own is None or count > own[0]:
            own = self._own[steps] = [count, [np.empty(count * rows * w) for rows, w in
                                              _own_layout(steps, width, hidden)], {}]
        views = own[2].get(count)
        if views is None or views.passing is not passing[1]:
            views = own[2][count] = GroupViews(steps, spans, hidden, count, own[1], passing[1])
        return views

    def reserve(self, compiled: Iterable[CompiledPaths]) -> None:
        """Grow the buffers at once to what the groups of ``compiled`` need,
        so that running them allocates nothing more."""
        most: dict[int, int] = {}
        for paths in compiled:
            for rows, _ in paths.groups:
                steps, count = rows.shape[:2]
                most[steps] = max(most.get(steps, 0), count)
        for steps, count in sorted(most.items(), key=lambda shape: -shape[0] * shape[1]):
            self.group(steps, count)


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


def _run_group(rows: np.ndarray, weights: np.ndarray, encoder: PathEncoder,
               views: GroupViews) -> GroupViews:
    """Run the unit over a group of same-length paths given their (T, P, 4)
    component rows and (P,) weights, in ``views``, which record the pass.
    Only the recurrent product stays inside the step loop. Edgeless paths
    keep the zero state: they encode to zeros."""
    for k, (comp, inputs) in enumerate(zip(encoder.components(), views.inputs)):
        comp.matrix.take(rows[..., k], axis=0, out=inputs)
    np.matmul(views.xs_all, encoder.w_in.T, out=views.z_in_all)
    views.z_in_all += encoder.bias
    for start in (views.hs[0], views.cs[0]):  # a smaller group may follow a larger one
        start.fill(0.0)
    z, ez, ig, zg, w_rec_t = views.z, views.ez, views.ig, views.zg, encoder.w_rec.T
    for z_in, h, h_next, c, c_next, gate, gi, gf, gg, go, tanh_c in views.forward_steps:
        np.add(z_in, np.matmul(h, w_rec_t, out=z), out=z)
        _sigmoid(z, gate, ez)
        np.tanh(zg, out=gg)
        np.multiply(gf, c, out=c_next)
        c_next += np.multiply(gi, gg, out=ig)
        np.tanh(c_next, out=tanh_c)
        np.multiply(go, tanh_c, out=h_next)
    views.rows, views.weights = rows, weights
    return views


def average_paths_with_cache(
    paths: Mapping[DependencyPath, int] | CompiledPaths,
    encoder: PathEncoder,
    mode: str = WEIGHTED,
    dropout_rate: float = 0.0,
    rng: Generator | None = None,
    *,
    pool: BufferPool | None = None,
) -> tuple[np.ndarray, list[GroupViews]]:
    """Average of the encoded paths, and the record of each group of paths
    that share a step count.

    ``paths`` is a multiset, or one that ``compile_paths`` compiled with this
    encoder, in which case its weights stand and ``mode`` is not read.
    The empty multiset gives the zero vector. When ``dropout_rate`` > 0 and
    an rng is given, each step's lemma component is replaced by the unknown
    row with that probability, independently, drawn path by path in the
    multiset's order. The records are views of ``pool``, made for
    ``encoder``, which the next call with that pool overwrites; without one,
    the call makes its own.
    """
    if not isinstance(paths, CompiledPaths):
        paths = compile_paths(paths, encoder, mode)
    pool = BufferPool(encoder) if pool is None else pool
    groups = paths.groups
    if dropout_rate > 0.0 and rng is not None:
        groups = [(rows.copy(), weights) for rows, weights in groups]
        for g, p in paths.slots:
            rows = groups[g][0]
            rows[rng.random(len(rows)) < dropout_rate, p, 0] = 0
    records = [_run_group(rows, weights, encoder, pool.group(*rows.shape[:2]))
               for rows, weights in groups]
    pooled = np.zeros(encoder.hidden_size)
    for g, p in paths.slots:
        pooled += records[g].weights[p] * records[g].hs[-1, p]
    return pooled, records


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
    groups: Sequence[GroupViews],
    encoder: PathEncoder,
    lemma_rows: np.ndarray,
    *,
    out: Mapping[str, np.ndarray],
    products: Sequence[np.ndarray],
) -> dict[str, np.ndarray | RowGradient]:
    """d(loss)/d(params) given d(loss)/d(averaged vector), by name in
    ``PathEncoder.arrays`` order: the lemma gradient is a ``RowGradient``
    over ``lemma_rows``, which must hold every lemma row the paths read, and
    the others are ``out``'s arrays, one per other name, of their
    parameter's shape.

    The dense gradients are added into ``out``'s arrays, which must start at
    zero: each is a sum over the groups, or over repeated rows. The walk back
    writes in the groups' buffers, and each group's products for ``w_in``,
    ``w_rec`` and ``bias`` go into ``products``, three arrays of their
    shapes, before they are added.
    """
    lemma = RowGradient(lemma_rows, np.zeros((len(lemma_rows), encoder.lemma.width)))
    for views in groups:
        if len(views.rows) == 0:
            continue
        # Each gate's dz is ((d * a) * b) * c, d being d_ct or, for the output
        # gate, dh: the products of its formula in their order. Input
        # d_ct·g_g·g_i·(1-g_i), forget d_ct·c_prev·g_f·(1-g_f), candidate
        # d_ct·g_i·(1-g_g²)·1, output dh·tanh(c)·g_o·(1-g_o). a (but the
        # output gate's, tanh(c)), b and c do not depend on the step before,
        # so they are built once per group.
        for slot, factor in views.a:
            np.copyto(slot, factor)
        np.copyto(views.b, views.gates)
        np.subtract(1.0, np.square(views.gate_g, out=views.b_g), out=views.b_g)
        np.subtract(1.0, views.gates, out=views.c)
        views.c_g.fill(1.0)
        np.subtract(1.0, np.square(views.tanh_c, out=views.d_tanh_c), out=views.d_tanh_c)
        dh, dc, d_ct, d_ct_col = views.dh, views.dc, views.d_ct, views.d_ct_col
        np.multiply(views.weights[:, None], d_out, out=dh)
        dc.fill(0.0)
        for t, go, gf, d_tanh_c, a_in, a_out, dz, dz_in, dz_out, b, c in views.backward_steps:
            np.multiply(dh, go, out=d_ct)
            d_ct *= d_tanh_c
            d_ct += dc
            np.multiply(d_ct_col, a_in, out=dz_in)
            np.multiply(dh, a_out, out=dz_out)
            dz *= b
            dz *= c
            if t:  # step 0 hands nothing on
                np.multiply(d_ct, gf, out=dc)
                np.matmul(dz, encoder.w_rec, out=dh)
        dz_all = views.dz_all
        for name, product, operand in zip(("w_in", "w_rec"), products,
                                          (views.xs_all, views.hs_all)):
            out[name] += np.matmul(dz_all.T, operand, out=product)
        out["bias"] += dz_all.sum(axis=0, out=products[2])
        np.matmul(dz_all, encoder.w_in, out=views.dx)
        rows = views.rows.reshape(-1, 4)
        lemma.add_at(rows[:, 0], views.dx_parts[0])
        for k, name in enumerate(STEP_COMPONENTS[1:], start=1):
            np.add.at(out[name], rows[:, k], views.dx_parts[k])
    return {"lemma": lemma, **out}
