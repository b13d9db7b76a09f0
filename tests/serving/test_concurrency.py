"""Thread-safety of the serving shared state under parallel traffic."""

import threading

import pytest

from repro.serving import (
    CandidateCache,
    LRUCache,
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
)

PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]


def _hammer(threads: int, work) -> list:
    """Run ``work(index)`` on many threads; re-raise the first failure."""
    errors: list[BaseException] = []
    results: list = []
    lock = threading.Lock()

    def runner(index: int) -> None:
        try:
            result = work(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)
        else:
            with lock:
                results.append(result)

    pool = [threading.Thread(target=runner, args=(i,))
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestLRUCacheUnderContention:
    def test_parallel_get_put_stays_bounded(self):
        cache = LRUCache(capacity=32)

        def work(index: int) -> None:
            for i in range(200):
                cache.put((index, i % 50), i)
                cache.get((index, (i + 7) % 50))

        _hammer(8, work)
        assert len(cache) <= 32
        stats = cache.stats
        assert stats.hits + stats.misses == 8 * 200

    def test_one_make_per_key_in_flight(self):
        cache = LRUCache(capacity=8)
        calls = []
        release = threading.Event()

        def make():
            calls.append(1)
            release.wait(timeout=5.0)
            return "value"

        started = []

        def work(index: int):
            started.append(index)
            if len(started) == 8:
                release.set()
            return cache.get_or_make("key", make)

        results = _hammer(8, work)
        assert sorted(hit for _, hit in results) == [False] + [True] * 7
        assert all(value == "value" for value, _ in results)
        assert len(calls) == 1
        assert (cache.stats.misses, cache.stats.hits) == (1, 7)


class TestServingCachesUnderParallelRank:
    def test_parallel_rank_calls_consistent(self, tiny_network, registry,
                                            make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry,
                                 ServingConfig(candidates=candidates_config))
        reference = {
            pair: service.rank(RankRequest(source=pair[0], target=pair[1]))
            for pair in PAIRS
        }

        def work(index: int):
            pair = PAIRS[index % len(PAIRS)]
            response = service.rank(RankRequest(source=pair[0],
                                                target=pair[1]))
            assert response.served_by == "model"
            assert [r.path.vertices for r in response.results] == \
                [r.path.vertices for r in reference[pair].results]
            assert [r.score for r in response.results] == pytest.approx(
                [r.score for r in reference[pair].results], abs=1e-6)
            return pair

        results = _hammer(16, work)
        assert len(results) == 16
        assert service.counters["requests"].value == len(PAIRS) + 16
        assert service.counters["failed"].value == 0

    def test_candidate_cache_thread_safety(self, tiny_network,
                                           candidates_config):
        cache = CandidateCache(capacity=8)
        from repro.core.ranker import generate_candidates

        def work(index: int) -> None:
            source, target = PAIRS[index % 6]
            for _ in range(50):
                cached = cache.lookup(source, target, candidates_config)
                if cached is None:
                    paths = generate_candidates(tiny_network, source, target,
                                                candidates_config)
                    cache.store(source, target, candidates_config, paths)
                else:
                    assert all(p.source == source for p in cached)

        _hammer(8, work)
        assert len(cache) <= 8


class TestRegistryUnderParallelResolve:
    def test_hot_swap_during_parallel_rank(self, tiny_network, tmp_path,
                                           make_ranker, candidates_config):
        registry = ModelRegistry(tmp_path / "models", tiny_network)
        registry.publish(make_ranker(tiny_network, seed=1), version="v0001",
                         activate=True)
        registry.publish(make_ranker(tiny_network, seed=2), version="v0002")
        service = RankingService(tiny_network, registry,
                                 ServingConfig(candidates=candidates_config))

        def work(index: int):
            if index == 7:
                service.activate("v0002")
                return None
            pair = PAIRS[index % len(PAIRS)]
            return service.rank(RankRequest(source=pair[0], target=pair[1]))

        responses = [r for r in _hammer(16, work) if r is not None]
        # Every request was answered by exactly one complete snapshot.
        assert all(r.served_by == "model" for r in responses)
        assert {r.model_version for r in responses} <= {"v0001", "v0002"}
