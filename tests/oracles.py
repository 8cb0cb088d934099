"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the library
code (breadth-first search instead of ancestor chains, scalar loops instead of
vectorized numpy) so that agreement between the two is meaningful.
"""

import json
import math
from collections import deque


def bfs_path(heads, start, goal):
    """Shortest path between tokens in the undirected tree, by BFS.

    ``heads`` maps token index (1-based) to head index, 0 for the root.
    Returns the list of token indices from start to goal inclusive.
    """
    n = len(heads)
    adjacency = {i: set() for i in range(1, n + 1)}
    for child in range(1, n + 1):
        head = heads[child - 1]
        if head != 0:
            adjacency[child].add(head)
            adjacency[head].add(child)
    previous = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for neighbour in adjacency[node]:
            if neighbour not in previous:
                previous[neighbour] = node
                queue.append(neighbour)
    assert goal in previous, "tree is connected, so this cannot happen"
    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = previous[node]
    return path[::-1]


def depth_directions(heads, walk):
    """Directions along a tree walk, derived from node depths.

    The apex is the unique shallowest node; everything before it moves toward
    the root ("up"), everything after moves away ("down"). This is a different
    formulation from the one in the library, which takes the apex's position
    from the walk that meets the two head chains and reads no depths.
    """
    def depth(node):
        d = 0
        while heads[node - 1] != 0:
            node = heads[node - 1]
            d += 1
        return d

    depths = [depth(node) for node in walk]
    apex = depths.index(min(depths))
    return ["up"] * apex + ["root"] + ["down"] * (len(walk) - apex - 1)


def random_tree(rng, n):
    """Uniformly attach each node to an earlier one, then relabel randomly.

    Returns a heads list: heads[i] is the head of token i+1, with 0 for the
    single root.
    """
    order = [int(v) + 1 for v in rng.permutation(n)]
    parent_of = {order[0]: 0}
    for i in range(1, n):
        parent_of[order[i]] = order[int(rng.integers(0, i))]
    return [parent_of[i] for i in range(1, n + 1)]


def brute_force_path_index(corpus, pairs, max_edges):
    """Every wanted pair tested against every sentence, as a semrel PathIndex.

    This is the quadratic loop that the library's pair lookup replaces; it
    trusts ``extract_paths``, which the BFS oracle above checks on its own.
    semrel is imported here, not at the top, so that the benchmark's checker
    can import this module without the package.
    """
    from semrel.corpus import PathIndex, extract_paths

    index = PathIndex()
    wanted = {(x.lower(), y.lower()) for x, y in pairs}
    for sentence in corpus:
        present = set(sentence.lemmas[1:])
        for x, y in wanted:
            if x in present and y in present:
                for path, count in extract_paths(sentence, x, y, max_edges).items():
                    index.add(x, y, path, count)
    return index


def reference_lstm(w_in, w_rec, bias, inputs):
    """Scalar-loop recurrent forward pass; returns the final hidden state."""
    hidden = len(w_rec[0])
    h = [0.0] * hidden
    c = [0.0] * hidden
    for x in inputs:
        z = []
        for r in range(4 * hidden):
            total = bias[r]
            for d in range(len(x)):
                total += w_in[r][d] * x[d]
            for j in range(hidden):
                total += w_rec[r][j] * h[j]
            z.append(total)
        new_c = []
        new_h = []
        for j in range(hidden):
            gate_i = 1.0 / (1.0 + math.exp(-z[j]))
            gate_f = 1.0 / (1.0 + math.exp(-z[hidden + j]))
            gate_g = math.tanh(z[2 * hidden + j])
            gate_o = 1.0 / (1.0 + math.exp(-z[3 * hidden + j]))
            cj = gate_f * c[j] + gate_i * gate_g
            new_c.append(cj)
            new_h.append(gate_o * math.tanh(cj))
        c = new_c
        h = new_h
    return h


def _reference_sigmoid(z):
    import numpy as np

    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    ez = np.exp(z[~positive])
    out[~positive] = ez / (1.0 + ez)
    return out


def _reference_encode(paths, encoder, mode, rate, rng):
    """The averaged path vector and one (rows, xs, hs, cs, gates, tanh_c,
    weights) tuple per group of paths of equal step count: each path's rows
    looked up token by token on every call, with word dropout drawn path by
    path in the multiset's order."""
    import numpy as np

    hidden = encoder.hidden_size
    items = list(paths.items())
    if not items:
        return np.zeros(hidden), []
    if mode == "weighted":
        total = sum(count for _, count in items)
        weights = [count / total for _, count in items]
    else:
        weights = [1.0 / len(items)] * len(items)
    groups, path_rows = {}, []
    for n, (path, _) in enumerate(items):
        rows = np.array([[comp.index.get(token, 0) for comp, token in
                          zip(encoder.components(), (e.lemma, e.pos, e.deprel, e.direction))]
                         for e in path.edges], dtype=np.intp).reshape(-1, 4)
        if rate > 0.0 and rng is not None:
            rows[rng.random(len(path.edges)) < rate, 0] = 0
        path_rows.append(rows)
        groups.setdefault(len(rows), []).append(n)
    caches, final = [], [None] * len(items)
    for members in groups.values():
        rows = np.stack([path_rows[n] for n in members], axis=1)
        steps, count = rows.shape[:2]
        xs = np.concatenate([comp.matrix[rows[..., k]] for k, comp in enumerate(encoder.components())],
                            axis=2)
        z_in = (xs.reshape(steps * count, xs.shape[2]) @ encoder.w_in.T + encoder.bias)
        z_in = z_in.reshape(steps, count, 4 * hidden)
        hs = np.zeros((steps + 1, count, hidden))
        cs = np.zeros((steps + 1, count, hidden))
        gates = np.empty((steps, count, 4 * hidden))
        tanh_c = np.empty((steps, count, hidden))
        for t in range(steps):
            z = z_in[t] + hs[t] @ encoder.w_rec.T
            gates[t] = _reference_sigmoid(z)
            gates[t, :, 2 * hidden:3 * hidden] = np.tanh(z[:, 2 * hidden:3 * hidden])
            g_i, g_f, g_g, g_o = (gates[t, :, k * hidden:(k + 1) * hidden] for k in range(4))
            cs[t + 1] = g_f * cs[t] + g_i * g_g
            tanh_c[t] = np.tanh(cs[t + 1])
            hs[t + 1] = g_o * tanh_c[t]
        caches.append((rows, xs, hs, cs, gates, tanh_c, np.array([weights[n] for n in members])))
        for p, n in enumerate(members):
            final[n] = hs[-1, p]
    pooled = np.zeros(hidden)
    for weight, h in zip(weights, final):
        pooled += weight * h
    return pooled, caches


def _reference_backprop(d_out, caches, encoder, grads):
    """Dense gradients of every encoder array, one gate at a time."""
    import numpy as np

    hidden = encoder.hidden_size
    i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    ends = np.cumsum([comp.width for comp in encoder.components()]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    for rows, xs, hs, cs, gates, tanh_cs, weights in caches:
        steps, count = rows.shape[:2]
        if steps == 0:
            continue
        dh = weights[:, None] * d_out
        dc = np.zeros((count, hidden))
        dzs = np.empty((steps, count, 4 * hidden))
        for t in reversed(range(steps)):
            gate, tanh_c, dz = gates[t], tanh_cs[t], dzs[t]
            gi, gf, gg, go = gate[:, i], gate[:, f], gate[:, g], gate[:, o]
            d_ct = dh * go * (1.0 - tanh_c**2) + dc
            dz[:, i] = d_ct * gg * gi * (1.0 - gi)
            dz[:, f] = d_ct * cs[t] * gf * (1.0 - gf)
            dz[:, g] = d_ct * gi * (1.0 - gg**2)
            dz[:, o] = dh * tanh_c * go * (1.0 - go)
            dc = d_ct * gf
            dh = dz @ encoder.w_rec
        dz_all = dzs.reshape(steps * count, -1)
        grads["w_in"] += dz_all.T @ xs.reshape(steps * count, -1)
        grads["w_rec"] += dz_all.T @ hs[:-1].reshape(steps * count, -1)
        grads["bias"] += dz_all.sum(axis=0)
        dx = dz_all @ encoder.w_in
        flat = rows.reshape(steps * count, 4)
        for k, (name, (start, end)) in enumerate(zip(("lemma", "pos", "deprel", "direction"),
                                                     spans)):
            np.add.at(grads[name], flat[:, k], dx[:, start:end])


def reference_sgd_step(params, table, x, y, paths, label, config, rng):
    """One per-example SGD step as it was taken before steps were compiled:
    the pair's paths encoded from its multiset, and a full gradient of every
    trainable array allocated and subtracted. Returns the loss."""
    import numpy as np

    from semrel.relation_model import trainable_arrays

    arrays = trainable_arrays(params)
    grads = {name: np.zeros(array.shape) for name, array in arrays.items()}
    d, hidden = params.word_dim, params.encoder.hidden_size
    v_paths, caches = _reference_encode(paths, params.encoder, params.path_average,
                                        config.word_dropout_rate, rng)
    v = np.concatenate([params.word_vector(x, table), v_paths, params.word_vector(y, table)])
    a = params.w1 @ v + params.b1
    hval = None if params.w2 is None else np.tanh(a)
    logits = a if hval is None else params.w2 @ hval + params.b2
    gold = params.label_set.index(label)
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    dlogits = np.exp(shifted - log_z)
    dlogits[gold] -= 1.0
    if hval is not None:
        grads["w2"] += np.outer(dlogits, hval)
        grads["b2"] += dlogits
        d_a = (params.w2.T @ dlogits) * (1.0 - hval**2)
    else:
        d_a = dlogits
    grads["w1"] += np.outer(d_a, v)
    grads["b1"] += d_a
    d_v = params.w1.T @ d_a
    _reference_backprop(d_v[d:d + hidden], caches, params.encoder, grads)
    if params.word_vectors is not None:
        for token, part in ((x, d_v[:d]), (y, d_v[d + hidden:])):
            row = params.word_vectors.row(token)
            if row is not None:
                grads["word_vectors"][row] += part
    for name, array in arrays.items():
        array -= config.learning_rate * grads[name]
    return float(log_z - shifted[gold])


def reference_train(records, config, index, table, label_set):
    """``relation_model.train`` as a loop over ``reference_sgd_step``: the
    same initialization, example order and dropout draws from one seed."""
    import numpy as np

    from semrel.relation_model import init_params

    rng = np.random.default_rng(config.seed)
    params = init_params(config, [(r.x, r.y) for r in records], index, table, label_set, rng)
    for _ in range(config.epochs):
        for position in rng.permutation(len(records)):
            r = records[int(position)]
            reference_sgd_step(params, table, r.x, r.y, index.get(r.x, r.y), r.label, config, rng)
    return params


def rel_error(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


def central_difference(loss, array, index, eps=1e-5):
    """d loss / d array[index] by central differences, restoring the array."""
    original = array[index]
    array[index] = original + eps
    up = loss()
    array[index] = original - eps
    down = loss()
    array[index] = original
    return (up - down) / (2.0 * eps)


def reference_binary_f1(gold, pred):
    """F1 of the True class over two equal-length sequences of flags, by
    counting pairs one at a time."""
    tp = sum(1 for g, p in zip(gold, pred) if g and p)
    fp = sum(1 for g, p in zip(gold, pred) if not g and p)
    fn = sum(1 for g, p in zip(gold, pred) if g and not p)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def reference_relatedness_score(combiner, table, index, x, y, relatedness_params=None):
    """w_C * cosine_norm + w_L * P(RELATED) for one pair, the classifier term
    from a one-pair call to ``pair_distribution`` and only when w_L is not 0."""
    from semrel.pairs import RELATED
    from semrel.relatedness import cosine_norm
    from semrel.relation_model import pair_distribution

    score = combiner.w_c * cosine_norm(table.lookup(x), table.lookup(y))
    if combiner.w_l != 0.0:
        probs = pair_distribution(relatedness_params, table, index, [(x, y)])[0]
        score += combiner.w_l * probs[relatedness_params.label_set.index(RELATED)]
    return score


def reference_predict_pairs(combiner, relation_params, table, index, pairs,
                            relatedness_params=None, syn_margin=0.2, syn_max_paths=3,
                            path_count_mode="total"):
    """Labels for (x, y) pairs by the per-pair gate-then-classify rule.

    A pair is RANDOM when its ``reference_relatedness_score`` falls below t.
    Otherwise it takes the relation model's top label, except that a SYN win
    by less than ``syn_margin`` goes to the runner-up when the pair has at
    least ``syn_max_paths`` paths. Each pair is scored on its own, through a
    one-pair call to ``pair_distribution``; exact ties keep label order.
    """
    from semrel.pairs import NEGATIVE_LABEL, SYN_LABEL
    from semrel.relation_model import pair_distribution

    labels = []
    for x, y in pairs:
        if reference_relatedness_score(combiner, table, index, x, y, relatedness_params) < combiner.t:
            labels.append(NEGATIVE_LABEL)
            continue
        names = relation_params.label_set
        probs = list(pair_distribution(relation_params, table, index, [(x, y)])[0])
        ranked = sorted(range(len(names)), key=lambda k: -probs[k])
        paths = index.get(x, y)
        n_paths = sum(paths.values()) if path_count_mode == "total" else len(paths)
        best = ranked[0]
        if (names[best] == SYN_LABEL and len(names) > 1 and n_paths >= syn_max_paths
                and probs[best] - probs[ranked[1]] < syn_margin):
            best = ranked[1]
        labels.append(names[best])
    return labels


def reference_load_table(source):
    """The line-by-line table loader that ``load_table`` is checked against.

    Each line is split in Python and each value parsed with ``float``; the
    checks run in this order on every line: values present, width, duplicate
    token, parse, and one sum for nan, inf and overflow. Returns ``(entries,
    unk)``: entries maps each lowercased token to its read-only vector, in
    file order.
    """
    import numpy as np

    from semrel._io import excerpt, open_lines
    from semrel.embeddings import UNK_TOKEN
    from semrel.errors import ParseError

    entries: dict[str, np.ndarray] = {}
    dimension = None
    with open_lines(source) as lines:
        for line_no, raw in enumerate(lines, start=1):
            parts = raw.split()
            if not parts:
                continue
            token, values = parts[0].lower(), parts[1:]
            if not values:
                raise ParseError(f"no vector values at line {line_no}")
            if dimension is None:
                dimension = len(values)
            elif len(values) != dimension:
                raise ParseError(f"dimension mismatch at line {line_no}")
            if token in entries:
                raise ParseError(f"duplicate token {excerpt(parts[0])!r} at line {line_no}")
            try:
                row = [float(v) for v in values]
            except ValueError:
                raise ParseError(f"unparsable value at line {line_no}") from None
            # One sum catches nan, inf and overflow ("1e999") in a single test.
            if not math.isfinite(sum(row)):
                raise ParseError(f"non-finite or overflowing value at line {line_no}")
            vector = np.array(row)
            vector.flags.writeable = False
            entries[token] = vector
    if dimension is None:
        raise ParseError("embedding file contains no vectors")
    unk = entries.get(UNK_TOKEN)
    if unk is None:
        unk = np.zeros(dimension)
        unk.flags.writeable = False
    return entries, unk


def reference_document_text(doc):
    """The one-shot encoding of a model or combiner document: every ndarray
    as nested lists, the whole document in one ``json.dumps`` call."""
    def as_lists(value):
        if isinstance(value, dict):
            return {key: as_lists(item) for key, item in value.items()}
        return value.tolist() if hasattr(value, "tolist") else value

    return json.dumps(as_lists(doc), allow_nan=False) + "\n"
