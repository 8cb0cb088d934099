"""Distributional baselines: linear classifiers over word-vector pairs.

Three feature schemes are supported for a pair (x, y) with vectors vx, vy:

  concat  [vx ; vy]
  diff    vy is subtracted from vx
  asym    [d ; d*d] where d = vx - vy, squaring elementwise

A one-vs-rest linear classifier with hinge loss is trained by seeded
subgradient descent. The baseline counterpart of the full pipeline gates
pairs on raw cosine similarity (a threshold tuned for related-class F1 by
``relatedness.tune_combiner`` without a model) before applying the linear
model. Linear models live in memory only; nothing saves or loads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semrel.embeddings import EmbeddingTable
from semrel.pairs import PairRecord, checked_label_set
from semrel.relatedness import CombinerConfig, predict_related

VECTOR_COMBINATIONS = ("concat", "diff", "asym")


def combine_vectors(vx: np.ndarray, vy: np.ndarray, method: str = "concat") -> np.ndarray:
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    if method == "concat":
        return np.concatenate([vx, vy])
    if method == "diff":
        return vx - vy
    if method == "asym":
        d = vx - vy
        return np.concatenate([d, d * d])
    raise ValueError(f"method must be one of {VECTOR_COMBINATIONS}")


@dataclass
class LinearModel:
    labels: tuple[str, ...]
    weights: np.ndarray  # one row per label
    bias: np.ndarray
    method: str = "concat"

    def decision_values(self, features: np.ndarray) -> np.ndarray:
        return self.weights @ np.asarray(features, dtype=float) + self.bias


def features_for_pairs(
    records: Sequence[PairRecord], table: EmbeddingTable, method: str = "concat"
) -> np.ndarray:
    return np.stack(
        [combine_vectors(table.lookup(r.x), table.lookup(r.y), method) for r in records]
    )


def train_linear(
    records: Sequence[PairRecord],
    table: EmbeddingTable,
    method: str = "concat",
    epochs: int = 10,
    learning_rate: float = 0.1,
    seed: int = 13,
    label_set: Sequence[str] | None = None,
) -> LinearModel:
    """One-vs-rest hinge loss by per-example subgradient descent."""
    labels = checked_label_set(records, label_set, "training set")
    if method not in VECTOR_COMBINATIONS:
        raise ValueError(f"method must be one of {VECTOR_COMBINATIONS}")
    features = features_for_pairs(records, table, method)
    gold = np.array([labels.index(r.label) for r in records])
    n_labels = len(labels)
    dim = features.shape[1]
    weights = np.zeros((n_labels, dim))
    bias = np.zeros(n_labels)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(records)):
            f = features[i]
            targets = np.where(np.arange(n_labels) == gold[i], 1.0, -1.0)
            margins = targets * (weights @ f + bias)
            active = margins < 1.0
            if active.any():
                step = learning_rate * (targets * active)
                weights += np.outer(step, f)
                bias += step
    return LinearModel(labels=labels, weights=weights, bias=bias, method=method)


def predict_linear(model: LinearModel, table: EmbeddingTable, x: str, y: str) -> str:
    features = combine_vectors(table.lookup(x), table.lookup(y), model.method)
    return model.labels[int(np.argmax(model.decision_values(features)))]


def baseline_classify(
    model: LinearModel,
    table: EmbeddingTable,
    threshold: float,
    x: str,
    y: str,
    negative_label: str,
) -> str:
    """The pipeline's gate with the cosine alone (its ``t`` in [0, 1]), then the linear classifier."""
    if not predict_related(CombinerConfig(1.0, 0.0, threshold), table, [(x, y)])[0]:
        return negative_label
    return predict_linear(model, table, x, y)
