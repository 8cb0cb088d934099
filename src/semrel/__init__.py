"""Semantic relation classification from dependency paths and word embeddings."""

from .corpus import (
    DependencyPath,
    PathEdge,
    PathIndex,
    SentenceGraph,
    build_path_index,
    extract_paths,
    iter_conll,
    load_index,
    parse_conll,
    path_from_text,
    path_to_text,
    save_index,
)
from .embeddings import EmbeddingTable, load_table
from .errors import DataError, ParseError
from .evaluation import binary_f1, confusion, lexical_split, scores
from .pairs import (
    NEGATIVE_LABEL,
    RELATED_LABELS,
    RELATION_LABELS,
    PairRecord,
    read_pairs,
    write_pairs,
)
from .pipeline import PipelineConfig, predict_pairs
from .relatedness import (
    CombinerConfig,
    load_combiner,
    predict_related,
    relatedness_scores,
    save_combiner,
    tune_combiner,
)
from .relation_model import (
    RELATEDNESS_PRESET,
    RELATIONS_PRESET,
    ModelParams,
    TrainConfig,
    load_model,
    pair_distribution,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CombinerConfig",
    "DataError",
    "DependencyPath",
    "EmbeddingTable",
    "ModelParams",
    "NEGATIVE_LABEL",
    "PairRecord",
    "ParseError",
    "PathEdge",
    "PathIndex",
    "PipelineConfig",
    "RELATEDNESS_PRESET",
    "RELATED_LABELS",
    "RELATIONS_PRESET",
    "RELATION_LABELS",
    "SentenceGraph",
    "TrainConfig",
    "binary_f1",
    "build_path_index",
    "confusion",
    "extract_paths",
    "iter_conll",
    "lexical_split",
    "load_combiner",
    "load_index",
    "load_model",
    "load_table",
    "pair_distribution",
    "parse_conll",
    "path_from_text",
    "path_to_text",
    "predict_pairs",
    "predict_related",
    "read_pairs",
    "relatedness_scores",
    "save_combiner",
    "save_index",
    "save_model",
    "scores",
    "train",
    "tune_combiner",
    "write_pairs",
]
