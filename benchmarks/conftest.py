"""Shared fixtures for the benchmark suite.

The benchmarks regenerate every table and figure of the paper's
evaluation at the ``quick`` preset scale (small region, short training)
so the whole suite finishes in minutes.  Heavy shared artifacts —
network, fleet, labelled queries, node2vec matrices — are produced once
per session through :class:`ExperimentPipeline`'s cache.

Scale can be raised with ``REPRO_BENCH_PRESET=paper`` to regenerate the
EXPERIMENTS.md headline numbers.
"""

import os

import pytest

from repro.experiments import ExperimentConfig, ExperimentPipeline


def _preset() -> ExperimentConfig:
    name = os.environ.get("REPRO_BENCH_PRESET", "quick")
    if name == "paper":
        return ExperimentConfig.paper()
    if name == "smoke":
        return ExperimentConfig.smoke()
    return ExperimentConfig.quick()


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return _preset()


@pytest.fixture(scope="session")
def pipeline(bench_config) -> ExperimentPipeline:
    return ExperimentPipeline(bench_config)


@pytest.fixture(scope="session")
def bench_embedding_sizes(bench_config):
    """Embedding sizes for the table benches: the paper's (64, 128) at
    paper scale, halved at quick scale to bound wall-clock."""
    if bench_config.name == "paper":
        return (64, 128)
    return (32, 64)
