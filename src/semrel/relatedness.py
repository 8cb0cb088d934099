"""Combining distributional similarity with the path classifier.

Relatedness of a pair is scored as

    Rel(x, y) = w_C * cosine_norm(x, y) + w_L * P(RELATED | x, y)

where cosine_norm maps cosine similarity from [-1, 1] onto [0, 1] and the
second term is the path classifier's probability for the RELATED class. The
weights satisfy w_C + w_L = 1, and the pair counts as related when the score
reaches a threshold t. Both weights and the threshold are tuned on validation
data by grid search over F1 of the related class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import excerpt, read_document, write_document
from .corpus import PathIndex
from .embeddings import EmbeddingTable
from .errors import DataError
from .evaluation import binary_f1
from .pairs import PairRecord, RELATED, RELATEDNESS_LABELS, checked_label_set
from .relation_model import ModelParams, pair_distribution

COMBINER_FORMAT = "semrel-combiner"
COMBINER_VERSION = 1

# Grid searched during tuning: weights in steps of 0.05, thresholds of 0.01.
W_GRID = tuple(i / 20 for i in range(21))
T_GRID = tuple(j / 100 for j in range(101))


@dataclass(frozen=True)
class CombinerConfig:
    w_c: float
    w_l: float
    t: float

    def __post_init__(self):
        for name in ("w_c", "w_l", "t"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if abs(self.w_c + self.w_l - 1.0) > 1e-12:
            raise ValueError(f"w_c + w_l must equal 1, got {self.w_c + self.w_l}")


def _scaled(w) -> np.ndarray:
    """``w`` times the power of two that brings its largest entry into [0.5, 1).

    The scaling is exact, so the cosine keeps its bits, and the products
    below neither underflow nor overflow on tiny or huge vectors.
    """
    w = np.asarray(w, dtype=float)
    return np.ldexp(w, -np.frexp(np.abs(w).max(initial=0.0))[1])


def cosine_norm(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity rescaled to [0, 1]; 0.5 if either vector is zero.

    Rounding can put the cosine of (anti)parallel vectors a bit past +-1; the
    result is clamped into [0, 1].
    """
    u = _scaled(u)
    v = _scaled(v)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.5
    return min(1.0, max(0.0, (float(u @ v) / (nu * nv) + 1.0) / 2.0))


def _cosines(table: EmbeddingTable, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    return np.array([cosine_norm(table.lookup(x), table.lookup(y)) for x, y in pairs])


def _related_probabilities(
    params: ModelParams, table: EmbeddingTable, index: PathIndex, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    return pair_distribution(params, table, index, pairs)[:, params.label_index(RELATED)]


def relatedness_scores(
    config: CombinerConfig,
    table: EmbeddingTable,
    pairs: Sequence[tuple[str, str]],
    params: ModelParams | None = None,
    index: PathIndex | None = None,
) -> np.ndarray:
    """The combined relatedness score of each (x, y) pair.

    The classifier term is skipped entirely when w_l is zero, so a pure-cosine
    combiner needs no model at all.
    """
    probs = None
    if config.w_l != 0.0:
        if params is None or index is None:
            raise ValueError("w_l > 0 requires a trained model and a path index")
        probs = _related_probabilities(params, table, index, pairs)
    return _blend(config.w_c, config.w_l, _cosines(table, pairs), probs)


def _blend(w_c: float, w_l: float, cosines: np.ndarray, probs) -> np.ndarray:
    """The one score expression of tuning and prediction; no classifier term at w_l = 0."""
    return w_c * cosines if w_l == 0.0 else w_c * cosines + w_l * probs


def predict_related(
    config: CombinerConfig,
    table: EmbeddingTable,
    pairs: Sequence[tuple[str, str]],
    params: ModelParams | None = None,
    index: PathIndex | None = None,
) -> np.ndarray:
    """True for each pair whose score reaches the threshold; a score exactly
    at t counts as related."""
    return relatedness_scores(config, table, pairs, params, index) >= config.t


def tune_combiner(
    val: Sequence[PairRecord],
    table: EmbeddingTable,
    params: ModelParams | None = None,
    index: PathIndex | None = None,
) -> tuple[CombinerConfig, float]:
    """Grid-search w_C and t (w_L = 1 - w_C) for the best related-class F1.

    Without a model only w_C = 1 is searched, which tunes a pure-cosine
    threshold. Ties prefer the smaller w_L, then the smaller threshold. Each
    grid point is scored with the w_L it would save, as ``predict_related``
    scores it. Returns the winning configuration with its validation F1.
    """
    checked_label_set(val, RELATEDNESS_LABELS, "validation set")
    gold = np.array([r.label == RELATED for r in val])
    if gold.all() or not gold.any():
        raise DataError("validation set must contain both RELATED and UNRELATED pairs")
    pairs = [(r.x, r.y) for r in val]
    cosines = _cosines(table, pairs)
    if params is None:
        w_grid, probs = W_GRID[-1:], None
    elif index is None:
        raise ValueError("tuning with a model requires a path index")
    else:
        w_grid, probs = W_GRID, _related_probabilities(params, table, index, pairs)
    best = None
    best_key = None
    for w_c in w_grid:
        w_l = round(1.0 - w_c, 10)
        scores = _blend(w_c, w_l, cosines, probs)
        for t in T_GRID:
            f1 = binary_f1(gold, scores >= t, True)
            key = (f1, -w_l, -t)
            if best_key is None or key > best_key:
                best_key = key
                best = (CombinerConfig(w_c=w_c, w_l=w_l, t=t), f1)
    return best


def save_combiner(config: CombinerConfig, destination, validation_f1: float | None = None) -> None:
    doc = {
        "format": COMBINER_FORMAT,
        "version": COMBINER_VERSION,
        "w_C": config.w_c,
        "w_L": config.w_l,
        "t": config.t,
    }
    if validation_f1 is not None:
        doc["validation_f1"] = validation_f1
    write_document(destination, doc)


def load_combiner(source) -> CombinerConfig:
    with read_document(source, COMBINER_FORMAT, COMBINER_VERSION, "combiner") as doc:
        try:
            return CombinerConfig(*(_number(doc, key) for key in ("w_C", "w_L", "t")))
        except ValueError as exc:
            raise DataError(f"combiner file has a bad value: {exc}") from None


def _number(doc: dict, key: str) -> float:
    try:
        return float(doc[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} {excerpt(repr(doc[key]))} is not a number") from None
