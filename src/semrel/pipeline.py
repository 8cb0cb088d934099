"""End-to-end relation prediction for raw pairs.

The pipeline first gates each pair on the relatedness score: below threshold
it answers RANDOM outright. Related pairs go to a classifier trained only on
the four specific relations. Because synonyms rarely co-occur in sentences,
their path evidence is thin and they are easily over-predicted; a corrective
step therefore demotes a narrow SYN win (a lead below ``syn_margin``) to the
runner-up class when the pair has at least ``syn_max_paths`` attested paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PathIndex
from .embeddings import EmbeddingTable
from .pairs import NEGATIVE_LABEL, PairRecord, SYN_LABEL
from .relatedness import CombinerConfig, rel_score
from .relation_model import ClassDistribution, ModelParams, pair_distribution

PATH_COUNT_MODES = ("total", "distinct")


@dataclass(frozen=True)
class PipelineConfig:
    combiner: CombinerConfig
    syn_margin: float = 0.2
    syn_max_paths: int = 3
    path_count_mode: str = "total"

    def __post_init__(self):
        if self.syn_margin < 0.0:
            raise ValueError("syn_margin must be nonnegative")
        if self.syn_max_paths < 0:
            raise ValueError("syn_max_paths must be nonnegative")
        if self.path_count_mode not in PATH_COUNT_MODES:
            raise ValueError(f"path_count_mode must be one of {PATH_COUNT_MODES}")


def path_count(index: PathIndex, x: str, y: str, mode: str = "total") -> int:
    """Attested paths for a pair: occurrences by default, types if 'distinct'."""
    paths = index.get(x, y)
    if mode == "total":
        return sum(paths.values())
    if mode == "distinct":
        return len(paths)
    raise ValueError(f"path_count mode must be one of {PATH_COUNT_MODES}")


def syn_heuristic(dist: ClassDistribution, n_paths: int, margin: float = 0.2, max_paths: int = 3) -> str:
    """Demote a weak SYN prediction when path evidence is thin.

    If SYN wins but leads the runner-up by less than ``margin`` while the pair
    has at least ``max_paths`` attested paths, the runner-up is returned
    instead; in every other case the argmax stands.
    """
    order = np.argsort(-dist.scores, kind="stable")
    top = dist.labels[int(order[0])]
    if top != SYN_LABEL or len(dist.labels) < 2:
        return top
    lead = float(dist.scores[order[0]] - dist.scores[order[1]])
    if lead < margin and n_paths >= max_paths:
        return dist.labels[int(order[1])]
    return top


def classify_relation(
    config: PipelineConfig,
    relation_params: ModelParams,
    table: EmbeddingTable,
    index: PathIndex,
    x: str,
    y: str,
    relatedness_params: ModelParams | None = None,
) -> str:
    """RANDOM below the relatedness threshold, otherwise the corrected argmax."""
    score = rel_score(config.combiner, table, x, y, relatedness_params, index)
    if score < config.combiner.t:
        return NEGATIVE_LABEL
    dist = pair_distribution(relation_params, table, index, x, y)
    n_paths = path_count(index, x, y, config.path_count_mode)
    return syn_heuristic(dist, n_paths, config.syn_margin, config.syn_max_paths)


def predict_pairs(
    config: PipelineConfig,
    relation_params: ModelParams,
    table: EmbeddingTable,
    index: PathIndex,
    pairs: list[PairRecord],
    relatedness_params: ModelParams | None = None,
) -> list[str]:
    return [
        classify_relation(config, relation_params, table, index, r.x, r.y, relatedness_params)
        for r in pairs
    ]
