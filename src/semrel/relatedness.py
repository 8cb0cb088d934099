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

from ._io import read_document, write_document
from .corpus import PathIndex
from .embeddings import EmbeddingTable
from .errors import DataError
from .evaluation import binary_f1
from .pairs import PairRecord, RELATED, RELATEDNESS_LABELS, UNRELATED
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


def cosine_norm(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity rescaled to [0, 1]; 0.5 if either vector is zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.5
    return (float(u @ v) / (nu * nv) + 1.0) / 2.0


def related_probability(params: ModelParams, table: EmbeddingTable, index: PathIndex, x: str, y: str) -> float:
    return pair_distribution(params, table, index, x, y).score(RELATED)


def rel_score(
    config: CombinerConfig,
    table: EmbeddingTable,
    x: str,
    y: str,
    params: ModelParams | None = None,
    index: PathIndex | None = None,
) -> float:
    """The combined relatedness score.

    The classifier term is skipped entirely when w_l is zero, so a pure-cosine
    combiner needs no model at all.
    """
    score = config.w_c * cosine_norm(table.lookup(x), table.lookup(y))
    if config.w_l != 0.0:
        if params is None or index is None:
            raise ValueError("w_l > 0 requires a trained model and a path index")
        score += config.w_l * related_probability(params, table, index, x, y)
    return score


def classify_related(score: float, t: float) -> bool:
    """Threshold decision; a score exactly at t counts as related."""
    return score >= t


def tune_combiner(
    val: Sequence[PairRecord],
    params: ModelParams,
    table: EmbeddingTable,
    index: PathIndex,
) -> tuple[CombinerConfig, float]:
    """Grid-search w_C and t (w_L = 1 - w_C) for the best related-class F1.

    Ties prefer the smaller w_L, then the smaller threshold. Returns the
    winning configuration together with its validation F1.
    """
    if not val:
        raise DataError("validation set is empty")
    stray = sorted({r.label for r in val} - set(RELATEDNESS_LABELS))
    if stray:
        raise DataError(f"unexpected relatedness labels: {', '.join(stray)}")
    gold = np.array([r.label == RELATED for r in val])
    if gold.all() or not gold.any():
        raise DataError("validation set must contain both RELATED and UNRELATED pairs")
    cosines = np.array([cosine_norm(table.lookup(r.x), table.lookup(r.y)) for r in val])
    probs = np.array([related_probability(params, table, index, r.x, r.y) for r in val])
    best = None
    best_key = None
    for w_c in W_GRID:
        scores = w_c * cosines + (1.0 - w_c) * probs
        for t in T_GRID:
            f1 = binary_f1(gold, scores >= t, True)
            key = (f1, -(1.0 - w_c), -t)
            if best_key is None or key > best_key:
                best_key = key
                best = (CombinerConfig(w_c=w_c, w_l=round(1.0 - w_c, 10), t=t), f1)
    return best


def predict_related(
    config: CombinerConfig,
    table: EmbeddingTable,
    x: str,
    y: str,
    params: ModelParams | None = None,
    index: PathIndex | None = None,
) -> str:
    score = rel_score(config, table, x, y, params, index)
    return RELATED if classify_related(score, config.t) else UNRELATED


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
            return CombinerConfig(w_c=float(doc["w_C"]), w_l=float(doc["w_L"]), t=float(doc["t"]))
        except (KeyError, TypeError) as exc:
            raise DataError(f"combiner file is missing fields: {exc}") from None
