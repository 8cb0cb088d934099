"""Semantic relation classification from dependency paths and word embeddings."""

from types import ModuleType as _ModuleType

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

# Every name imported above that is not a module, so that each public name is written once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
