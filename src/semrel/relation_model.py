"""The integrated pair classifier.

A word pair is represented as the concatenation [vector of x ; averaged path
vector ; vector of y]. A softmax output layer, optionally preceded by one tanh
hidden layer, turns that into a distribution over the label set. Training is
per-example stochastic gradient descent on the mean cross-entropy, with
gradients backpropagated through the classifier, the path average and the
``PathEncoder``: its recurrent unit and edge-component embeddings. Word
vectors for x and y are frozen table lookups unless ``train_word_vectors`` is
switched on, in which case the model keeps its own trainable copies for the
training-set terms. ``trainable_arrays`` is the one list of trainable arrays: gradients
and updates follow its names and order. A step updates only the arrays, and
the lemma and word-vector rows, that its compiled example used. The dense
arrays are views of one flat buffer, and ``train`` keeps a step's working
memory in ``StepBuffers``, so a step allocates nothing of a parameter's size.

All randomness (initialization, example order, word dropout) flows from the
single seed in TrainConfig, so a fixed seed reproduces parameters bit for bit.
It is drawn by ``_random.Generator``, which gives the stream of
``numpy.random.default_rng(seed)`` without loading ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

from ._io import excerpt, np, read_document, write_document
from ._random import Generator
from .corpus import DependencyPath, PathIndex
from .embeddings import EmbeddingTable
from .errors import DataError
from .pairs import PairRecord, checked_label_set
from .path_encoder import (
    AVERAGE_MODES,
    STEP_COMPONENTS,
    WEIGHTED,
    BufferPool,
    CompiledPaths,
    ComponentEmbeddings,
    PathEncoder,
    RowGradient,
    average_paths_with_cache,
    backprop_average,
    compile_paths,
    init_encoder,
    init_uniform,
    input_width,
)

MODEL_FORMAT = "semrel-relation-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; everything trainable is reproducible from ``seed``."""

    hidden_layers: int = 0
    word_dropout_rate: float = 0.0
    epochs: int = 1
    learning_rate: float = 0.1
    seed: int = 13
    hidden_dim: int = 60
    mlp_hidden_dim: int = 60
    lemma_dim: int | None = None
    pos_dim: int = 4
    deprel_dim: int = 5
    dir_dim: int = 1
    path_average: str = WEIGHTED
    train_word_vectors: bool = False

    def __post_init__(self):
        if self.hidden_layers not in (0, 1):
            raise ValueError("hidden_layers must be 0 or 1")
        if not 0.0 <= self.word_dropout_rate < 1.0:
            raise ValueError("word_dropout_rate must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be a positive finite number")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.path_average not in AVERAGE_MODES:
            raise ValueError(f"unknown path_average mode {self.path_average!r}")
        for name in ("hidden_dim", "mlp_hidden_dim", "pos_dim", "deprel_dim", "dir_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lemma_dim is not None and self.lemma_dim < 1:
            raise ValueError("lemma_dim must be positive")


# Epoch presets for the two tasks; other fields keep their defaults.
RELATEDNESS_PRESET = TrainConfig(epochs=3)
RELATIONS_PRESET = TrainConfig(epochs=5)


@dataclass
class TrainableWordVectors:
    """Model-owned word vectors, used instead of the table when present."""

    index: dict[str, int]
    matrix: np.ndarray

    def row(self, token: str) -> int | None:
        return self.index.get(token.lower())


# The trainable arrays that a step updates row by row; the others are dense.
ROW_UPDATED = ("lemma", "word_vectors")


@dataclass(frozen=True)
class ModelParams:
    """A relation model. Its dense arrays, the ``trainable_arrays`` other
    than the lemma matrix and the word vectors, are views of ``flat``, laid
    end to end in ``trainable_arrays`` order: the encoder's POS, deprel and
    direction tables, ``w_in``, ``w_rec`` and ``bias``, then ``w1``, ``b1``,
    ``w2`` and ``b2``. The model holds copies of the arrays it is given."""

    encoder: PathEncoder
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray | None
    b2: np.ndarray | None
    label_set: tuple[str, ...]
    word_dim: int
    path_average: str = WEIGHTED
    word_vectors: TrainableWordVectors | None = None
    seed: int | None = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dense = _dense(trainable_arrays(self))
        flat = np.concatenate([np.ravel(array) for array in dense.values()], dtype=float)
        views = _carve(flat, dense)
        encoder = self.encoder
        tables = {name: ComponentEmbeddings(getattr(encoder, name).index, views.pop(name))
                  for name in STEP_COMPONENTS[1:]}
        unit = {name: views.pop(name) for name in ("w_in", "w_rec", "bias")}
        for name, value in dict(encoder=replace(encoder, **tables, **unit), flat=flat,
                                **views).items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # A copy or an unpickled model is built anew, so that it views a flat buffer of its own.
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def hidden_layers(self) -> int:
        return 0 if self.w2 is None else 1

    def label_index(self, label: str) -> int:
        try:
            return self.label_set.index(label)
        except ValueError:
            raise DataError(f"label {label!r} not in model label set {self.label_set}") from None

    def word_vector(self, token: str, table: EmbeddingTable) -> np.ndarray:
        if self.word_vectors is not None:
            row = self.word_vectors.row(token)
            if row is not None:
                return self.word_vectors.matrix[row]
        return table.lookup(token)


@dataclass(slots=True)
class Example:
    """A labelled pair compiled against a model for training; see
    ``compile_example``."""

    x: str
    y: str
    gold: int  # the label's position in the model's label set
    paths: CompiledPaths
    lemma_rows: np.ndarray | None  # the lemma rows a step reads; None without a path step
    word_rows: np.ndarray | None  # the pair's rows in the trainable word vectors, if any


def compile_example(params: ModelParams, x: str, y: str, paths: Mapping[DependencyPath, int],
                    label: str) -> Example:
    """The pair, its paths and its label in the row numbers of ``params``.
    A label outside the set, None too, raises DataError."""
    compiled = compile_paths(paths, params.encoder, params.path_average)
    word_rows = None
    if params.word_vectors is not None:
        held = {params.word_vectors.row(x), params.word_vectors.row(y)} - {None}
        word_rows = np.array(sorted(held), dtype=np.intp)
    return Example(x, y, params.label_index(label), compiled, compiled.lemma_rows(), word_rows)


def forward(v_xy: np.ndarray, params: ModelParams) -> np.ndarray:
    """Softmax scores over ``params.label_set`` for one feature vector.

    Softmax is computed after subtracting the maximum logit, so adding any
    constant to the logits leaves the distribution unchanged.
    """
    v = np.asarray(v_xy, dtype=float)
    if v.shape != (params.w1.shape[1],):
        raise ValueError(f"feature vector has shape {v.shape}, expected ({params.w1.shape[1]},)")
    _, z = _classify(v, params)
    e = np.exp(z - z.max())
    return e / e.sum()


def pair_distribution(
    params: ModelParams, table: EmbeddingTable, index: PathIndex, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    """Softmax rows, one per (x, y) pair and aligned with ``params.label_set``,
    each from the pair's paths in the index and the two word vectors."""
    out = np.empty((len(pairs), len(params.label_set)))
    pool = BufferPool(params.encoder)
    for row, (x, y) in enumerate(pairs):
        v, _ = _features(params, table, x, y, index.get(x, y), 0.0, None, pool)
        out[row] = forward(v, params)
    return out


def _features(params: ModelParams, table: EmbeddingTable, x: str, y: str,
              paths: Mapping[DependencyPath, int] | CompiledPaths, dropout_rate: float,
              rng: Generator | None, pool: BufferPool) -> tuple[np.ndarray, list]:
    """The feature vector [x ; averaged paths ; y] and the path groups that
    ``backprop_average`` walks, views of ``pool``."""
    v_paths, groups = average_paths_with_cache(paths, params.encoder, params.path_average,
                                               dropout_rate, rng, pool=pool)
    v = np.concatenate([params.word_vector(x, table), v_paths, params.word_vector(y, table)])
    return v, groups


def _classify(v: np.ndarray, params: ModelParams) -> tuple[np.ndarray | None, np.ndarray]:
    """The tanh hidden layer's output (None without one) and the logits."""
    a = params.w1 @ v + params.b1
    if params.w2 is None:
        return None, a
    hidden = np.tanh(a)
    return hidden, params.w2 @ hidden + params.b2


def trainable_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Every trainable array by name, in a fixed order: the encoder's, then
    ``w1`` and ``b1``, then ``w2``, ``b2`` and ``word_vectors`` when set."""
    arrays = params.encoder.arrays()
    arrays.update(w1=params.w1, b1=params.b1)
    if params.w2 is not None:
        arrays.update(w2=params.w2, b2=params.b2)
    if params.word_vectors is not None:
        arrays["word_vectors"] = params.word_vectors.matrix
    return arrays


def _dense(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: array for name, array in arrays.items() if name not in ROW_UPDATED}


def _carve(buffer: np.ndarray, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of the flat ``buffer`` by name, of the shapes of ``arrays``, laid
    end to end from its start."""
    views, start = {}, 0
    for name, array in arrays.items():
        views[name] = buffer[start:start + array.size].reshape(array.shape)
        start += array.size
    return views


class StepBuffers:
    """The working memory of a training step on one model, kept from step to
    step: the dense gradients in ``grad``, laid out as ``ModelParams.flat``
    and viewed by name, the encoder's first; ``tail``, where the
    classifier's start; ``scaled``, of the same layout, which holds the
    encoder's per-group products in ``backprop_average`` and then the
    gradients times the learning rate; and ``paths``, the encoder's pool."""

    def __init__(self, params: ModelParams):
        dense = _dense(trainable_arrays(params))
        self.grad, self.scaled = np.empty(params.flat.size), np.empty(params.flat.size)
        views = _carve(self.grad, dense)
        self.encoder = {name: views.pop(name) for name in _dense(params.encoder.arrays())}
        self.classifier = views
        scaled = _carve(self.scaled, dense)
        self.products = [scaled[name] for name in ("w_in", "w_rec", "bias")]
        self.tail = self.grad.size - sum(view.size for view in views.values())
        self.paths = BufferPool(params.encoder)


class Gradients(SimpleNamespace):
    """A step's gradients: one attribute per ``trainable_arrays`` name, and
    ``vars`` lists no other. The dense ones are views of ``buffers.grad``, of
    which the step wrote the values from ``start`` on."""

    __slots__ = ("buffers", "start")

    def __init__(self, buffers: StepBuffers, start: int, /, **grads):
        super().__init__(**grads)
        self.buffers, self.start = buffers, start


def loss_and_gradients(
    example: Example,
    params: ModelParams,
    table: EmbeddingTable,
    config: TrainConfig | None = None,
    rng: Generator | None = None,
    *,
    buffers: StepBuffers | None = None,
) -> tuple[float, Gradients]:
    """The example's negative log-likelihood, with exact gradients: one
    attribute per ``trainable_arrays`` entry, under the same name.

    The encoder's are None when the example has no path step, and the lemma
    and word-vector gradients are ``RowGradient``s over the example's rows.
    The dense gradients are views of ``buffers``, made for ``params``, which
    the next call with them overwrites; without them, the call makes its own.
    Word dropout (config.word_dropout_rate > 0 with an rng supplied) replaces
    step lemmas by the unknown row, independently per step; with rate 0 the
    result is deterministic.
    """
    buffers = StepBuffers(params) if buffers is None else buffers
    rate = config.word_dropout_rate if config is not None else 0.0
    hidden = params.encoder.hidden_size
    d = params.word_dim
    v, groups = _features(params, table, example.x, example.y, example.paths, rate, rng,
                         buffers.paths)
    hval, logits = _classify(v, params)
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    loss = float(log_z - shifted[example.gold])

    dlogits = np.exp(shifted - log_z)  # the softmax, less one at the gold label
    dlogits[example.gold] -= 1.0
    d_a = dlogits if hval is None else (params.w2.T @ dlogits) * (1.0 - hval**2)
    d_v = params.w1.T @ d_a
    if example.lemma_rows is None:
        grads, start = dict.fromkeys(params.encoder.arrays()), buffers.tail
    else:
        buffers.grad[:buffers.tail].fill(0.0)  # the encoder's gradients are sums
        grads, start = backprop_average(d_v[d : d + hidden], groups, params.encoder,
                                        example.lemma_rows, out=buffers.encoder,
                                        products=buffers.products), 0
    classifier = buffers.classifier
    np.multiply(d_a[:, None], v, out=classifier["w1"])
    np.copyto(classifier["b1"], d_a)
    if hval is not None:
        np.multiply(dlogits[:, None], hval, out=classifier["w2"])
        np.copyto(classifier["b2"], dlogits)
    grads.update(classifier)
    if params.word_vectors is not None:
        words = RowGradient(example.word_rows, np.zeros((len(example.word_rows), d)))
        for word, d_word in ((example.x, d_v[:d]), (example.y, d_v[d + hidden :])):
            row = params.word_vectors.row(word)
            if row is not None:
                words.add_at(row, d_word)
        grads["word_vectors"] = words
    return loss, Gradients(buffers, start, **grads)


def apply_gradients(params: ModelParams, grads: Gradients, learning_rate: float) -> None:
    """Step each trainable array against its gradient in ``grads``, which
    ``loss_and_gradients`` gave for ``params``: the dense values that the
    step wrote in one subtraction, and a ``RowGradient``'s rows. A None
    gradient, or a row a ``RowGradient`` lacks, leaves its array as a zero
    gradient would."""
    start, buffers = grads.start, grads.buffers
    params.flat[start:] -= np.multiply(buffers.grad[start:], learning_rate,
                                       out=buffers.scaled[start:])
    rows = [(grads.lemma, params.encoder.lemma.matrix)]
    if params.word_vectors is not None:
        rows.append((grads.word_vectors, params.word_vectors.matrix))
    for grad, array in rows:
        if grad is not None:
            array[grad.rows] -= learning_rate * grad.values


def init_params(
    config: TrainConfig,
    pairs: Sequence[tuple[str, str]],
    index: PathIndex,
    table: EmbeddingTable,
    label_set: Sequence[str],
    rng: Generator,
) -> ModelParams:
    """A new model for the (x, y) training pairs: a path encoder for their
    paths in ``index``, and word vectors for their terms when trained."""
    word_dim = table.dimension
    lemma_dim = config.lemma_dim if config.lemma_dim is not None else word_dim
    all_paths = (path for x, y in pairs for path in index.get(x, y))
    encoder = init_encoder(
        all_paths,
        lemma_dim=lemma_dim,
        pos_dim=config.pos_dim,
        deprel_dim=config.deprel_dim,
        dir_dim=config.dir_dim,
        hidden_size=config.hidden_dim,
        rng=rng,
        table=table,
    )
    n_features = 2 * word_dim + config.hidden_dim
    n_labels = len(label_set)
    width = config.mlp_hidden_dim if config.hidden_layers == 1 else n_labels
    w1 = init_uniform(rng, width, n_features)
    b1 = init_uniform(rng, width)
    w2 = b2 = None
    if config.hidden_layers == 1:
        w2 = init_uniform(rng, n_labels, width)
        b2 = init_uniform(rng, n_labels)
    word_vectors = None
    if config.train_word_vectors:
        tokens = sorted({t.lower() for pair in pairs for t in pair})
        matrix = np.stack([np.array(table.lookup(t)) for t in tokens])
        word_vectors = TrainableWordVectors({t: i for i, t in enumerate(tokens)}, matrix)
    return ModelParams(
        encoder=encoder,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
        label_set=tuple(label_set),
        word_dim=word_dim,
        path_average=config.path_average,
        word_vectors=word_vectors,
        seed=config.seed,
    )


def train(
    trainset: Sequence[PairRecord],
    val: Sequence[PairRecord],
    config: TrainConfig,
    index: PathIndex,
    table: EmbeddingTable,
    label_set: Sequence[str] | None = None,
    on_epoch: Callable[[int, float], None] | None = None,
) -> ModelParams:
    """Seeded per-example SGD; the same seed and data give identical parameters.

    ``label_set`` fixes the output order; it defaults to the sorted labels of
    the training set. Labels outside the set raise DataError. When ``val`` is
    not empty, the model scores it after each epoch and ``on_epoch`` receives
    the epoch number and the validation accuracy.
    """
    labels = checked_label_set(trainset, label_set, "training set")
    rng = Generator(config.seed)
    params = init_params(config, [(r.x, r.y) for r in trainset], index, table, labels, rng)
    examples = [compile_example(params, r.x, r.y, index.get(r.x, r.y), r.label)
                for r in trainset]
    buffers = StepBuffers(params)
    buffers.paths.reserve(ex.paths for ex in examples)
    # A diverging run overflows before its loss turns non-finite; the loss check
    # below is the guard, so numpy's warnings would only add lines to stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for position in rng.permutation(len(examples)):
                ex = examples[int(position)]
                loss, grads = loss_and_gradients(ex, params, table, config=config, rng=rng,
                                                 buffers=buffers)
                if not math.isfinite(loss):
                    raise DataError(f"training diverged: non-finite loss in epoch {epoch + 1}")
                apply_gradients(params, grads, config.learning_rate)
            if val and on_epoch is not None:
                dist = pair_distribution(params, table, index, [(r.x, r.y) for r in val])
                hits = sum(params.label_set[k] == r.label for k, r in zip(dist.argmax(axis=1), val))
                on_epoch(epoch + 1, hits / len(val))
    return params


def _array(value, field: str, *shape: int | None) -> np.ndarray:
    """``value`` as a finite float array of the given shape, where None
    matches any length; otherwise a DataError that names the field."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"model field {field} is not a numeric array") from None
    except OverflowError:  # an integer beyond the float range
        raise DataError(f"model field {field} holds a non-finite number") from None
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        expected = ", ".join("any" if n is None else excerpt(str(n)) for n in shape)
        raise DataError(f"model field {field} has shape {array.shape}, expected ({expected})")
    if not np.isfinite(array).all():
        raise DataError(f"model field {field} holds a non-finite number")
    return array


def _int(value, field: str) -> int:
    if type(value) is not int:  # a JSON integer: not a string, a float or a boolean
        raise DataError(f"model field {field} is not an integer: {excerpt(repr(value))}")
    return value


def _size(value, field: str) -> int:
    """``value`` if it is a positive JSON integer, as a width or a hidden size must be."""
    if _int(value, field) < 1:
        raise DataError(f"model field {field} must be positive: {excerpt(str(value))}")
    return value


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise DataError(f"model field {field} is not an object")
    return value


def _distinct_strings(value, field: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)
            and len(set(value)) == len(value)):
        raise DataError(f"model field {field} is not a list of distinct strings")
    return value


def _vocabulary(doc: dict, field: str, first_row: int, width) -> tuple[dict[str, int], np.ndarray]:
    """The index and matrix of a ``tokens``/``matrix`` pair whose distinct
    string tokens own the rows from ``first_row`` on, else a DataError."""
    tokens = _distinct_strings(doc["tokens"], f"{field}.tokens")
    matrix = _array(doc["matrix"], f"{field}.matrix", first_row + len(tokens), width)
    return {tok: row for row, tok in enumerate(tokens, start=first_row)}, matrix


def _vocabulary_doc(index: dict[str, int], matrix: np.ndarray, **fields) -> dict:
    """``fields``, then the ``tokens``/``matrix`` pair that ``_vocabulary``
    reads back: the tokens in the order of their rows."""
    return {**fields, "tokens": sorted(index, key=index.get), "matrix": matrix}


def save_model(params: ModelParams, destination) -> None:
    """Write the model as a versioned JSON document.

    Decimal values round-trip exactly, so a saved and reloaded model produces
    bit-identical forward passes. A non-finite value raises DataError and
    nothing is written.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "label_set": list(params.label_set),
        "hidden_layers": params.hidden_layers,
        "hidden_dim": params.encoder.hidden_size,
        "word_dim": params.word_dim,
        "path_average": params.path_average,
        "seed": params.seed,
        "edge_vocab": {name: _vocabulary_doc(comp.index, comp.matrix, width=comp.width)
                       for name, comp in zip(STEP_COMPONENTS, params.encoder.components())},
        "recurrent": {
            "w_in": params.encoder.w_in,
            "w_rec": params.encoder.w_rec,
            "bias": params.encoder.bias,
        },
        "classifier": {
            "w1": params.w1,
            "b1": params.b1,
            "w2": params.w2,
            "b2": params.b2,
        },
        "word_vectors": None
        if params.word_vectors is None
        else _vocabulary_doc(params.word_vectors.index, params.word_vectors.matrix),
    }
    write_document(destination, doc)


def load_model(source) -> ModelParams:
    """Read a model written by ``save_model``.

    ``word_dim``, ``hidden_dim`` and each edge component's ``width`` must be
    positive integers, every matrix must have the shape that they and the
    label set give it, and tokens must be distinct strings; a missing,
    mistyped or non-finite field raises DataError.
    """
    with read_document(source, MODEL_FORMAT, MODEL_VERSION, "relation model") as doc:
        return _params_from_doc(doc)


def _params_from_doc(doc: dict) -> ModelParams:
    vocab_doc = _object(doc["edge_vocab"], "edge_vocab")
    components = {}
    for name in STEP_COMPONENTS:
        field = f"edge_vocab.{name}"
        comp_doc = _object(vocab_doc[name], field)
        components[name] = ComponentEmbeddings(
            *_vocabulary(comp_doc, field, 1, _size(comp_doc["width"], f"{field}.width")))
    label_set = tuple(_distinct_strings(doc["label_set"], "label_set"))
    word_dim = _size(doc["word_dim"], "word_dim")
    hidden = _size(doc["hidden_dim"], "hidden_dim")
    rec_doc = _object(doc["recurrent"], "recurrent")
    encoder = PathEncoder(
        **components,
        w_in=_array(rec_doc["w_in"], "recurrent.w_in", 4 * hidden, input_width(components.values())),
        w_rec=_array(rec_doc["w_rec"], "recurrent.w_rec", 4 * hidden, hidden),
        bias=_array(rec_doc["bias"], "recurrent.bias", 4 * hidden),
    )
    cls_doc = _object(doc["classifier"], "classifier")
    w2_doc, b2_doc = cls_doc["w2"], cls_doc["b2"]
    hidden_layers = _int(doc["hidden_layers"], "hidden_layers")
    if hidden_layers != (0 if w2_doc is None else 1) or (w2_doc is None) != (b2_doc is None):
        raise DataError("hidden_layers field disagrees with the stored matrices")
    n_labels = len(label_set)
    w1 = _array(cls_doc["w1"], "classifier.w1", n_labels if w2_doc is None else None,
                2 * word_dim + hidden)
    width = w1.shape[0]
    wv_doc = doc["word_vectors"]
    word_vectors = None
    if wv_doc is not None:
        wv_index, wv_matrix = _vocabulary(_object(wv_doc, "word_vectors"), "word_vectors", 0, word_dim)
        for token in wv_index:  # TrainableWordVectors.row folds its query; no lookup reaches another
            if token != token.lower():
                raise DataError("model field word_vectors.tokens holds a token that is not "
                                f"lowercase: {excerpt(repr(token))}")
        word_vectors = TrainableWordVectors(wv_index, wv_matrix)
    params = ModelParams(
        encoder=encoder,
        w1=w1,
        b1=_array(cls_doc["b1"], "classifier.b1", width),
        w2=None if w2_doc is None else _array(w2_doc, "classifier.w2", n_labels, width),
        b2=None if b2_doc is None else _array(b2_doc, "classifier.b2", n_labels),
        label_set=label_set,
        word_dim=word_dim,
        path_average=doc["path_average"],
        word_vectors=word_vectors,
        seed=None if doc["seed"] is None else _int(doc["seed"], "seed"),
    )
    if params.path_average not in AVERAGE_MODES:
        raise DataError(f"unknown path_average mode {excerpt(repr(params.path_average))} in model file")
    return params
