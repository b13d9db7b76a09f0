"""Serving-layer fixtures: small networks with untrained (random) models.

Serving behaviour — caching, batching, hot-swap, fallback — does not
depend on the quality of the weights, so these fixtures skip training
entirely and publish randomly initialised models, which keeps the suite
fast.

Failures are raised at the real seams (a patched forward pass, candidate
generator or stage method), never by a separate injection layer; the
``gate`` fixture holds a patched callable until the test releases it.
"""

import threading
import time

import pytest

from repro.core import PathRankRanker, RankerConfig, build_pathrank
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import ModelRegistry, RankingService, ServingConfig

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)


def _make_ranker(network, seed: int) -> PathRankRanker:
    ranker = PathRankRanker(network, RankerConfig(
        embedding_dim=8, hidden_size=8, fc_hidden=4,
        training_data=CANDIDATES))
    ranker.model = build_pathrank(
        "PR-A2", num_vertices=network.num_vertices, embedding_dim=8,
        hidden_size=8, fc_hidden=4, rng=seed)
    return ranker


@pytest.fixture(scope="session")
def candidates_config() -> TrainingDataConfig:
    return CANDIDATES


@pytest.fixture(scope="session")
def make_ranker():
    """Factory: a PathRankRanker carrying a randomly initialised model."""
    return _make_ranker


@pytest.fixture
def registry(tmp_path, tiny_network) -> ModelRegistry:
    return ModelRegistry(tmp_path / "models", tiny_network)


@pytest.fixture
def service(tiny_network, registry, make_ranker) -> RankingService:
    """A service over ``tiny_network`` with version ``v0001`` active."""
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    return RankingService(tiny_network, registry,
                          ServingConfig(candidates=CANDIDATES))


class Gate:
    """Holds every call of the callables it patches until released.

    ``hold(owner, name)`` replaces ``owner.name`` through the test's
    ``monkeypatch``; a held call runs the real callable once the gate
    opens.  ``waiting`` counts the threads blocked right now.
    """

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch
        self._open = threading.Event()
        self._lock = threading.Lock()
        self.waiting = 0

    def hold(self, owner, name: str) -> None:
        real = getattr(owner, name)

        def held(*args, **kwargs):
            with self._lock:
                self.waiting += 1
            try:
                self._open.wait()
            finally:
                with self._lock:
                    self.waiting -= 1
            return real(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, held)

    def wait_for(self, count: int = 1, timeout: float = 5.0) -> None:
        """Block until ``count`` threads are held."""
        give_up_at = time.perf_counter() + timeout
        while self.waiting < count:
            assert time.perf_counter() < give_up_at, \
                f"{self.waiting} of {count} calls reached the gate"
            time.sleep(0.002)

    def release(self) -> None:
        self._open.set()


@pytest.fixture
def gate(monkeypatch):
    """A :class:`Gate`; it is released at teardown whatever happened."""
    held = Gate(monkeypatch)
    yield held
    held.release()
