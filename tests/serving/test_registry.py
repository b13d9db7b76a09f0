"""Model registry: versioning, atomic publish, hot-swap under load."""

import threading

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import ModelRegistry, RankingService, RankRequest, ServingConfig


class TestVersioning:
    def test_empty_registry(self, registry):
        assert registry.versions() == []
        assert registry.snapshot() is None
        with pytest.raises(ServingError):
            registry.require_snapshot()

    def test_publish_assigns_sequential_versions(self, tiny_network, registry, make_ranker):
        assert registry.publish(make_ranker(tiny_network, 1)) == "v0001"
        assert registry.publish(make_ranker(tiny_network, 2)) == "v0002"
        assert registry.versions() == ["v0001", "v0002"]

    def test_publish_explicit_version(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="golden")
        assert registry.has_version("golden")
        loaded = registry.load("golden")
        assert loaded.num_vertices == tiny_network.num_vertices

    def test_duplicate_version_rejected(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="dup")
        with pytest.raises(ServingError, match="already exists"):
            registry.publish(make_ranker(tiny_network, 2), version="dup")

    def test_invalid_version_names_rejected(self, registry):
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(ServingError):
                registry.load(bad)

    def test_unknown_version_lists_published(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="v0001")
        with pytest.raises(ServingError, match="v0001"):
            registry.load("v9999")

    def test_publish_leaves_no_temp_files(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1))
        leftovers = [p for p in registry.root.iterdir()
                     if p.name.startswith(".publish")]
        assert leftovers == []


class TestActivation:
    def test_activate_returns_increasing_generations(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="a")
        registry.publish(make_ranker(tiny_network, 2), version="b")
        first = registry.activate("a")
        second = registry.activate("b")
        third = registry.activate("a")
        assert (first.generation, second.generation, third.generation) == (1, 2, 3)
        assert registry.snapshot() is third

    def test_snapshot_is_stable_across_swap(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="a")
        registry.publish(make_ranker(tiny_network, 2), version="b")
        registry.activate("a")
        held = registry.snapshot()
        registry.activate("b")
        # The old snapshot object is untouched by the swap.
        assert held.version == "a"
        assert registry.snapshot().version == "b"

    def test_metadata_travels_with_activation(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="a")
        active = registry.activate("a")
        assert active.metadata["num_vertices"] == tiny_network.num_vertices

    def test_deactivate(self, tiny_network, registry, make_ranker):
        registry.publish(make_ranker(tiny_network, 1), version="a")
        registry.activate("a")
        registry.deactivate()
        assert registry.snapshot() is None


class TestHotSwapAtomicity:
    def test_interleaved_requests_never_mix_versions(self, tiny_network, tmp_path,
                                                    make_ranker, candidates_config):
        """Every response must be fully served by exactly one version."""
        registry = ModelRegistry(tmp_path / "models", tiny_network)
        rankers = {"v1": make_ranker(tiny_network, 1),
                   "v2": make_ranker(tiny_network, 2)}
        for version, ranker in rankers.items():
            registry.publish(ranker, version=version)
        registry.activate("v1")
        service = RankingService(tiny_network, registry,
                                 ServingConfig(candidates=candidates_config))

        # Ground truth: each version's scores for the query's candidates.
        request = RankRequest(source=0, target=5)
        paths = service._candidates(service.admit(request))[0]
        expected = {
            version: np.sort(ranker.model.score_paths(paths))[::-1]
            for version, ranker in rankers.items()
        }

        failures: list[str] = []
        stop = threading.Event()

        def swapper():
            for i in range(40):
                service.activate("v2" if i % 2 == 0 else "v1")
            stop.set()

        def requester():
            while not stop.is_set():
                response = service.rank(request)
                if not response.ok or response.served_by != "model":
                    failures.append(f"unexpected outcome: {response}")
                    return
                got = np.array([r.score for r in response.results])
                want = expected[response.model_version]
                if not np.allclose(got, want, atol=1e-12):
                    failures.append(
                        f"scores from a different version than claimed "
                        f"({response.model_version}): {got} vs {want}"
                    )
                    return

        threads = [threading.Thread(target=requester) for _ in range(3)]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[0]
        assert service.counters["failed"].value == 0
        assert registry.snapshot().generation == 41  # fixture activation + 40


class TestFusedKernelAcrossSwaps:
    def test_hot_swap_never_serves_stale_compiled_scores(
            self, tiny_network, registry, make_ranker):
        """After each activation the fused backend must score with the
        *new* weights — a stale ``CompiledPathRank`` snapshot would
        reproduce the previous version's scores exactly."""
        from repro.graph.ksp import yen_k_shortest_paths

        registry.publish(make_ranker(tiny_network, seed=1), version="v1")
        registry.publish(make_ranker(tiny_network, seed=2), version="v2")
        paths = yen_k_shortest_paths(tiny_network, 0, 5, 3)

        scores = {}
        for version in ("v1", "v2"):
            active = registry.activate(version)
            fused = active.model.score_paths(paths)
            module = active.model.score_paths(paths, backend="module")
            np.testing.assert_allclose(fused, module, atol=1e-6, rtol=0)
            scores[version] = fused
        assert not np.allclose(scores["v1"], scores["v2"])

    def test_in_place_reload_rebuilds_kernel(self, tiny_network, registry,
                                             make_ranker):
        """Loading new weights into an existing model object (the
        in-place variant of a swap) must invalidate its kernel."""
        from repro.graph.ksp import yen_k_shortest_paths
        from repro.nn.fused import compiled_for

        model = make_ranker(tiny_network, seed=1).model
        paths = yen_k_shortest_paths(tiny_network, 0, 5, 3)
        model.score_paths(paths)  # populate the compiled cache
        stale = compiled_for(model)
        model.load_state_dict(make_ranker(tiny_network, seed=2)
                              .model.state_dict())
        fused = model.score_paths(paths)
        module = model.score_paths(paths, backend="module")
        assert compiled_for(model) is not stale
        np.testing.assert_allclose(fused, module, atol=1e-6, rtol=0)


class TestPinAccounting:
    """Balanced pin/release residency (the PR-5 accounting fix)."""

    def _two_versions(self, network, registry, make_ranker):
        registry.publish(make_ranker(network, seed=1), version="v1")
        registry.publish(make_ranker(network, seed=2), version="v2")

    def test_pin_of_active_version_reuses_live_snapshot(
            self, tiny_network, registry, make_ranker):
        """Pinning the active version must not load a duplicate model
        (previously two copies of the same weights — and two compiled
        kernels — ended up resident)."""
        self._two_versions(tiny_network, registry, make_ranker)
        active = registry.activate("v1")
        assert registry.pin("v1") is active
        registry.release("v1")

    def test_release_of_last_pin_frees_superseded_model(
            self, tiny_network, registry, make_ranker):
        """activate -> pin -> activate -> release: the superseded
        version's model (and with it its compiled fused kernel, held in
        a weakly-keyed cache) must become garbage at the last release."""
        import gc
        import weakref

        self._two_versions(tiny_network, registry, make_ranker)
        registry.activate("v1")
        pinned = registry.pin("v1")
        model_ref = weakref.ref(pinned.model)
        registry.activate("v2")  # v1 superseded, but still pinned
        assert registry.resolve("v1").model is model_ref()
        registry.release("v1")
        del pinned
        gc.collect()
        assert model_ref() is None, \
            "superseded model survived its last release"

    def test_pins_are_counted(self, tiny_network, registry, make_ranker):
        self._two_versions(tiny_network, registry, make_ranker)
        registry.activate("v1")
        registry.pin("v2")
        registry.pin("v2")
        registry.release("v2")
        assert registry.pinned_versions() == {"v2": 1}  # still resident
        assert registry.resolve("v2").version == "v2"
        registry.release("v2")
        assert registry.pinned_versions() == {}

    def test_unbalanced_release_rejected(self, tiny_network, registry,
                                         make_ranker):
        self._two_versions(tiny_network, registry, make_ranker)
        with pytest.raises(ServingError):
            registry.release("v1")
        registry.activate("v1")
        registry.resolve("v2")  # implicit residency holds no pins
        with pytest.raises(ServingError):
            registry.release("v2")

    def test_resolve_keeps_residency_without_pins(self, tiny_network,
                                                  registry, make_ranker):
        """Split targets stay resident across requests (no reload per
        request) yet never accumulate pin counts."""
        self._two_versions(tiny_network, registry, make_ranker)
        registry.activate("v1")
        first = registry.resolve("v2")
        assert registry.resolve("v2") is first
        assert registry.pinned_versions() == {"v2": 0}
        registry.unpin("v2")  # the operator hammer still evicts
        assert registry.pinned_versions() == {}

    def test_activate_refresh_preserves_pin_count(self, tiny_network,
                                                  registry, make_ranker):
        self._two_versions(tiny_network, registry, make_ranker)
        registry.activate("v1")
        registry.pin("v2")
        registry.activate("v2")  # refreshes the resident snapshot
        assert registry.pinned_versions() == {"v2": 1}
        assert registry.resolve("v2") is registry.snapshot()
        registry.release("v2")
        assert registry.pinned_versions() == {}


class TestLifecycleListeners:
    def test_activate_and_deactivate_notify_in_order(self, tiny_network,
                                                     registry, make_ranker):
        events = []
        registry.subscribe(lambda event, version: events.append(
            (event, version)))
        registry.publish(make_ranker(tiny_network, 1), version="v1")
        registry.activate("v1")
        registry.deactivate()
        registry.deactivate()  # already clear: no second notification
        assert events == [("activate", "v1"), ("deactivate", "v1")]

    def test_unsubscribe_stops_notifications(self, tiny_network, registry,
                                             make_ranker):
        events = []
        listener = lambda event, version: events.append(event)  # noqa: E731
        registry.subscribe(listener)
        registry.unsubscribe(listener)
        registry.unsubscribe(listener)  # idempotent
        registry.publish(make_ranker(tiny_network, 1), activate=True)
        assert events == []

    def test_sick_listener_cannot_break_a_swap(self, tiny_network, registry,
                                               make_ranker):
        def broken(event, version):
            raise RuntimeError("observer crashed")

        seen = []
        registry.subscribe(broken)
        registry.subscribe(lambda event, version: seen.append(version))
        registry.publish(make_ranker(tiny_network, 1), version="v1")
        registry.activate("v1")  # must not raise
        assert seen == ["v1"]
