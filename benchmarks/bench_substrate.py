"""Benchmarks E9/E10 — substrate micro-benchmarks.

E9 measures the routing kernels behind candidate generation (one
shortest path, Yen, diversified top-k); E10 measures node2vec.  The
``substrate-training`` group times one GRU direction's forward +
backward at T=40, B=64, H=32 two ways: the per-step composite of
primitive ops over ``GRUCell.step``, and the single hand-derived
``F.gru_sequence`` node that ``GRU`` runs.  These are genuine
pytest-benchmark timings (multiple rounds), unlike the table benches
which time one full pipeline run.
"""

import numpy as np
import pytest

from repro.embedding import BiasedWalkGenerator, Node2Vec, Node2VecConfig
from repro.graph import (
    diversified_top_k,
    shortest_path,
    yen_k_shortest_paths,
)
from repro.nn import GRUCell, Tensor
from repro.nn import functional as F
from repro.trajectories import MapMatcher, TrajectoryGenerator, generate_fleet


@pytest.fixture(scope="module")
def od_pair(pipeline):
    network = pipeline.network
    ids = network.vertex_ids()
    return network, ids[0], ids[-1]


@pytest.mark.benchmark(group="substrate-routing")
def test_bench_dijkstra(benchmark, od_pair):
    network, source, target = od_pair
    path = benchmark(shortest_path, network, source, target)
    assert path.source == source


@pytest.mark.benchmark(group="substrate-routing")
def test_bench_yen_top5(benchmark, od_pair):
    network, source, target = od_pair
    paths = benchmark(yen_k_shortest_paths, network, source, target, 5)
    assert 1 <= len(paths) <= 5


@pytest.mark.benchmark(group="substrate-routing")
def test_bench_diversified_top5(benchmark, od_pair):
    network, source, target = od_pair
    result = benchmark(diversified_top_k, network, source, target, 5,
                       threshold=0.8, examine_limit=100)
    assert len(result) >= 1
    # Diversification inspects more of the enumeration than it keeps.
    assert result.examined >= len(result)


@pytest.mark.benchmark(group="substrate-embedding")
def test_bench_node2vec_walks(benchmark, pipeline):
    network = pipeline.network
    walker = BiasedWalkGenerator(network)
    walks = benchmark(walker.generate, 2, 20, 0)
    assert len(walks) == 2 * network.num_vertices


@pytest.mark.benchmark(group="substrate-embedding")
def test_bench_node2vec_full(benchmark, pipeline):
    network = pipeline.network
    config = Node2VecConfig(dim=16, num_walks=2, walk_length=15, epochs=1)

    def fit():
        return Node2Vec(network, config).fit(rng=0)

    matrix = benchmark.pedantic(fit, rounds=1, iterations=1)
    assert matrix.shape == (network.num_vertices, 16)


@pytest.mark.benchmark(group="substrate-matching")
def test_bench_map_matching(benchmark, pipeline):
    network = pipeline.network
    population, trips = generate_fleet(network, num_drivers=2,
                                       trips_per_driver=2, rng=5)
    generator = TrajectoryGenerator(network, population)
    trajectory = generator.render_gps(trips[:1], rng=0)[0]
    matcher = MapMatcher(network)
    result = benchmark(matcher.match, trajectory)
    assert result.path.num_vertices >= 2


def _composite_recurrence(cell, gates, mask):
    """One ``GRUCell.step`` and one masked blend per step, then a stack."""
    hidden = cell.initial_state(gates.shape[1])
    states = []
    for t in range(gates.shape[0]):
        step_mask = Tensor(mask[t][:, None])
        hidden = step_mask * cell.step(gates[t], hidden) + (1.0 - step_mask) * hidden
        states.append(hidden)
    return F.stack(states, axis=0)


def _fused_recurrence(cell, gates, mask):
    return F.gru_sequence(gates, cell.weight_hh, cell.bias_hh, mask=mask)


def _recurrence_grads(recurrence, cell, gates, mask, weights):
    leaves = (gates, cell.weight_hh, cell.bias_hh)
    for leaf in leaves:
        leaf.zero_grad()
    (recurrence(cell, gates, mask) * weights).sum().backward()
    return [leaf.grad for leaf in leaves]


@pytest.fixture(scope="module")
def recurrence_case():
    rng = np.random.default_rng(0)
    steps, batch, hidden = 40, 64, 32
    cell = GRUCell(hidden, hidden, rng=0)
    gates = Tensor(rng.normal(size=(steps, batch, 3 * hidden)), requires_grad=True)
    lengths = rng.integers(steps // 2, steps + 1, size=batch)
    mask = (np.arange(steps)[:, None] < lengths[None, :]).astype(float)
    weights = Tensor(rng.normal(size=(steps, batch, hidden)))
    reference = _recurrence_grads(_composite_recurrence, cell, gates, mask, weights)
    return cell, gates, mask, weights, reference


@pytest.mark.benchmark(group="substrate-training")
@pytest.mark.parametrize("recurrence", [_composite_recurrence, _fused_recurrence],
                         ids=["composite", "gru_sequence"])
def test_bench_gru_forward_backward(benchmark, recurrence_case, recurrence):
    cell, gates, mask, weights, reference = recurrence_case
    grads = benchmark(_recurrence_grads, recurrence, cell, gates, mask, weights)
    for grad, expected in zip(grads, reference):
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-10)
