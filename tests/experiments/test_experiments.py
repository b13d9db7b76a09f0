"""Integration tests for the experiment harness (smoke preset).

These run the full paper pipeline end to end — network, fleet, node2vec,
candidate generation, training, evaluation — at the tiny ``smoke`` scale
so the suite stays fast.  Headline-scale results live in benchmarks/.
"""

from dataclasses import replace

import pytest

from repro.core.variants import Variant
from repro.experiments import (
    ExperimentConfig,
    ExperimentPipeline,
    render_strategy_table,
    render_table,
    strategy_table,
)
from repro.ranking import Strategy, training_data
from repro.ranking.training_data import generate_queries


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(ExperimentConfig.smoke())


class TestPresets:
    def test_paper_preset_shape(self):
        config = ExperimentConfig.paper()
        assert config.embedding_dim == 64
        assert config.training_data.strategy is Strategy.D_TKDI

    def test_quick_smaller_than_paper(self):
        paper, quick = ExperimentConfig.paper(), ExperimentConfig.quick()
        assert quick.fleet.num_drivers < paper.fleet.num_drivers
        assert quick.embedding_dim <= paper.embedding_dim

    def test_axis_helpers(self):
        config = ExperimentConfig.smoke()
        assert config.with_embedding_dim(8).embedding_dim == 8
        assert config.with_k(7).training_data.k == 7
        assert config.with_strategy(Strategy.TKDI).training_data.strategy \
            is Strategy.TKDI
        assert config.with_variant(Variant.PR_A1).variant is Variant.PR_A1
        assert config.with_diversity_threshold(0.5).training_data \
            .diversity_threshold == 0.5


class TestPipeline:
    def test_network_cached(self, pipeline):
        assert pipeline.network is pipeline.network

    def test_split_deterministic_and_cached(self, pipeline):
        split = pipeline.split
        assert split is pipeline.split
        assert split.sizes[0] > 0 and split.sizes[2] > 0

    def test_embedding_cached_per_dim(self, pipeline):
        a = pipeline.embedding(8)
        assert a is pipeline.embedding(8)
        assert a.shape == (pipeline.network.num_vertices, 8)
        assert pipeline.embedding(4).shape[1] == 4

    def test_queries_cached_per_config(self, pipeline):
        base = pipeline.base.training_data
        first = pipeline.queries(base)
        assert first is pipeline.queries(base)
        train, test = first
        assert train and test

    def test_queries_label_each_od_once_across_the_split(self, pipeline,
                                                          monkeypatch):
        """One labelling pass over both halves: the same queries as one
        ``generate_queries`` call per half, with each distinct OD's
        candidates enumerated once even when both halves ask it."""
        base = pipeline.base.training_data
        config = replace(base, k=base.k + 1)  # a key nothing cached yet
        split = pipeline.split
        expected = (generate_queries(split.train, config),
                    generate_queries(split.test, config))
        enumerated = []
        candidates_for = training_data._candidates_for
        monkeypatch.setattr(
            training_data, "_candidates_for",
            lambda trip, *args: enumerated.append((trip.source, trip.target))
            or candidates_for(trip, *args))
        assert pipeline.queries(config) == expected
        trips = split.train + split.test
        assert len(enumerated) == len(set(enumerated)) \
            == len({(trip.source, trip.target) for trip in trips})

    def test_eval_queries_fixed_across_cells(self, pipeline):
        eval_set = pipeline.eval_queries()
        assert eval_set is pipeline.queries(pipeline.base.training_data)[1]

    def test_run_cell_end_to_end(self, pipeline):
        result = pipeline.run_cell(pipeline.base)
        assert result.history.epochs_run >= 1
        assert 0.0 <= result.metrics.mae <= 1.0
        assert -1.0 <= result.metrics.tau <= 1.0
        assert "PR-A2" in result.label

    def test_strategy_table_rows(self, pipeline):
        rows = strategy_table(pipeline, Variant.PR_A2, embedding_sizes=(8,))
        assert len(rows) == 2  # two strategies x one M
        strategies = {row.strategy for row in rows}
        assert strategies == {"TkDI", "D-TkDI"}


class TestReporting:
    def test_render_table_layout(self):
        text = render_table("T", ["a", "bb"], [[1.0, "x"], [2.5, "yy"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "1.0000" in text and "yy" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table("T", ["a"], [[1.0, 2.0]])

    def test_render_strategy_table(self, pipeline):
        rows = strategy_table(pipeline, Variant.PR_A1, embedding_sizes=(8,))
        text = render_strategy_table("Table X", rows)
        assert "Strategies" in text
        assert "TkDI" in text
