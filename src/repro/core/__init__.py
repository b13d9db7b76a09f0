"""PathRank core: the paper's model, trainer, and ranking API."""

from repro.core.batching import (
    encode_path_buckets,
    encode_paths,
    length_buckets,
)
from repro.core.model import PathRank
from repro.core.ranker import (
    PathRankRanker,
    RankerConfig,
    generate_candidates,
    rank_paths,
)
from repro.core.trainer import Trainer, TrainerConfig, TrainingHistory, flatten_queries
from repro.core.variants import (
    NUM_AUX_TARGETS,
    PathRankMultiTask,
    Variant,
    build_pathrank,
)

__all__ = [
    "encode_paths",
    "encode_path_buckets",
    "length_buckets",
    "rank_paths",
    "PathRank",
    "PathRankMultiTask",
    "Variant",
    "build_pathrank",
    "NUM_AUX_TARGETS",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "flatten_queries",
    "PathRankRanker",
    "RankerConfig",
    "generate_candidates",
]
