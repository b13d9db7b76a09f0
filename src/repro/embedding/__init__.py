"""Spatial-network embedding: node2vec implemented from scratch."""

from repro.embedding.alias import AliasSampler
from repro.embedding.node2vec import Node2Vec, Node2VecConfig
from repro.embedding.skipgram import SkipGramConfig, SkipGramModel, build_training_pairs
from repro.embedding.walks import BiasedWalkGenerator

__all__ = [
    "AliasSampler",
    "BiasedWalkGenerator",
    "SkipGramConfig",
    "SkipGramModel",
    "build_training_pairs",
    "Node2Vec",
    "Node2VecConfig",
]
