"""End-to-end relation prediction for raw pairs.

The pipeline first gates each pair on the relatedness score: below threshold
it answers RANDOM outright. Related pairs go to a classifier trained only on
the four specific relations. Because synonyms rarely co-occur in sentences,
their path evidence is thin and they are easily over-predicted; a corrective
step therefore demotes a narrow SYN win (a lead below ``syn_margin``) to the
runner-up class when the pair has at least ``syn_max_paths`` attested paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import PathIndex
from .embeddings import EmbeddingTable
from .pairs import NEGATIVE_LABEL, PairRecord, SYN_LABEL
from .relatedness import CombinerConfig, predict_related
from .relation_model import ModelParams, pair_distribution

PATH_COUNT_MODES = ("total", "distinct")


@dataclass(frozen=True)
class PipelineConfig:
    combiner: CombinerConfig
    syn_margin: float = 0.2
    syn_max_paths: int = 3
    path_count_mode: str = "total"

    def __post_init__(self):
        if not (math.isfinite(self.syn_margin) and self.syn_margin >= 0.0):
            raise ValueError("syn_margin must be a nonnegative finite number")
        if self.syn_max_paths < 0:
            raise ValueError("syn_max_paths must be nonnegative")
        if self.path_count_mode not in PATH_COUNT_MODES:
            raise ValueError(f"path_count_mode must be one of {PATH_COUNT_MODES}")


def path_count(index: PathIndex, x: str, y: str, mode: str = PipelineConfig.path_count_mode) -> int:
    """Attested paths for a pair: occurrences by default, types if 'distinct'."""
    paths = index.get(x, y)
    if mode == "total":
        return sum(paths.values())
    if mode == "distinct":
        return len(paths)
    raise ValueError(f"path_count mode must be one of {PATH_COUNT_MODES}")


def syn_heuristic(labels: Sequence[str], scores: np.ndarray, n_paths: int,
                  margin: float = PipelineConfig.syn_margin,
                  max_paths: int = PipelineConfig.syn_max_paths) -> str:
    """Demote a weak SYN prediction when path evidence is thin.

    ``scores`` is aligned with ``labels``. If SYN wins but leads the runner-up
    by less than ``margin`` while the pair has at least ``max_paths`` attested
    paths, the runner-up is returned instead; in every other case the argmax
    stands, with exact ties going to the earlier label.
    """
    order = np.argsort(-scores, kind="stable")
    top = labels[int(order[0])]
    if top != SYN_LABEL or len(labels) < 2:
        return top
    lead = float(scores[order[0]] - scores[order[1]])
    if lead < margin and n_paths >= max_paths:
        return labels[int(order[1])]
    return top


def predict_pairs(
    config: PipelineConfig,
    relation_params: ModelParams,
    table: EmbeddingTable,
    index: PathIndex,
    pairs: Sequence[PairRecord],
    relatedness_params: ModelParams | None = None,
) -> list[str]:
    """RANDOM below the relatedness threshold, otherwise the corrected argmax."""
    xy = [(r.x, r.y) for r in pairs]
    gated = np.flatnonzero(predict_related(config.combiner, table, xy, relatedness_params, index))
    dists = pair_distribution(relation_params, table, index, [xy[i] for i in gated])
    labels = [NEGATIVE_LABEL] * len(xy)
    for i, dist in zip(gated, dists):
        n_paths = path_count(index, *xy[i], config.path_count_mode)
        labels[i] = syn_heuristic(relation_params.label_set, dist, n_paths,
                                  config.syn_margin, config.syn_max_paths)
    return labels
