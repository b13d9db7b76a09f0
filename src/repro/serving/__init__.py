"""Online serving: turn a trained PathRank model into a query service.

The paper motivates PathRank with commercial navigation backends that
must answer live "which path to put on top?" queries.  This package is
that layer.  Where :class:`~repro.core.ranker.PathRankRanker` is the
offline training API, ``repro.serving`` adds the machinery a production
deployment needs around it:

* :class:`ModelRegistry` — versioned ``.npz`` model artifacts on disk,
  with atomic hot-swap: activation replaces a single snapshot reference,
  so in-flight requests finish on the version they started with.
* :class:`CandidateCache` / :class:`ScoreCache` — bounded LRU caches for
  the two expensive steps.  Candidate sets are keyed on
  ``(source, target, strategy, k)`` and survive model swaps; per-path
  scores are keyed on the model version so a swap can never serve a
  stale score.
* :class:`BatchingScorer` — coalesces the candidate lists of many
  requests into padded batches and runs one forward pass per batch.
  The masked recurrence makes batched scores identical to sequential
  per-query scores.
* :class:`RankingService` — the synchronous facade: request/response
  dataclasses, per-request latency and outcome counts recorded into its
  metrics registry, and graceful degradation to the shortest path when
  no model is available.
  Internally a **staged pipeline** (admission → candidate generation →
  scoring → assembly) over :class:`~repro.serving.pipeline.QueryState`
  records.
* :class:`ServingEngine` — the concurrent front door over the same
  pipeline: worker threads prepare requests, a deadline flusher
  coalesces *concurrent* queries into fused scoring batches (flush on
  ``ServingConfig.max_batch_size`` paths or the engine's fixed
  ``flush_deadline_ms``, whichever first), and an optional warm-up replays a recorded hotspot mix through the
  caches before the engine reports ready.  Responses are element-wise
  identical to the synchronous path.
* **A/B serving** — ``ServingConfig.traffic_split`` routes each request
  deterministically to one of several published model versions (and
  ``RankRequest.model_version`` pins one explicitly); the registry
  keeps every split target resident (balanced ``pin``/``release``
  accounting frees a superseded version's model and compiled kernel at
  the last release), each variant gets its own latency histogram and
  outcome counters (``stats()["splits"]``), and the score cache carves a
  per-split quota for each variant so a low-traffic arm's entries are
  never evicted by the majority split's churn.
* **Telemetry** (:mod:`repro.obs`) — the service records its request,
  latency and resilience counts straight into the instruments of its
  central :class:`~repro.obs.metrics.MetricsRegistry`; the caches, the
  scorer, the breaker and the per-split books publish through
  callbacks under canonical dotted names, and ``stats()`` reads the
  same objects.  ``ServingConfig.trace_sample`` arms per-request stage
  tracing (spans on :class:`~repro.serving.pipeline.QueryState`,
  per-stage latency histograms, top-K slow-request exemplars; dormant
  by default), and a :class:`~repro.obs.export.SnapshotExporter` can
  stream JSONL metric timelines during a run.  Tracing is read-only:
  traced responses equal untraced ones element-wise (see
  ``docs/observability.md``).
* **Resilience plane** (:mod:`repro.serving.resilience` /
  :mod:`repro.serving.faults`) — per-request deadline budgets checked
  at every pipeline stage, bounded admission queues with an explicit
  shed policy (reject-with-retry-after or degrade-to-shortest-path),
  one circuit breaker per service that routes scoring groups to the
  shortest-path fallback while it is open, deterministic jittered retry for transient scoring
  failures, and a seedable fault-injection layer (latency spikes,
  errors, hangs at named points) for reproducible chaos testing — all
  dormant by default with exact response parity (see
  ``docs/robustness.md``).

Usage::

    from repro.serving import (ModelRegistry, RankingService, RankRequest,
                               ServingConfig)

    # Offline: train once, publish into a registry directory.
    ranker = PathRankRanker(network, config).fit(trips, rng=0)
    registry = ModelRegistry("artifacts/models", network)
    version = registry.publish(ranker, activate=True)

    # Online: answer queries; repeats hit the caches, batches share one
    # forward pass, and a later ``service.activate("v0002")`` hot-swaps
    # without dropping requests.
    service = RankingService(network, registry, ServingConfig())
    response = service.rank(RankRequest(source=3, target=47))
    for suggestion in response.results:
        print(suggestion.position, suggestion.score, suggestion.path)
    print(service.stats())

    # Concurrent traffic: the engine coalesces independent requests.
    with ServingEngine(service, concurrency=8,
                       warmup=recorded_hotspot_mix) as engine:
        responses = engine.rank_batch(live_requests)

Load is generated and measured outside the package, by the benchmark
in ``bench/`` (``python3 bench/run.py``).

Scoring backends
----------------

``PathRank.score_paths`` — and with it the :class:`BatchingScorer`, the
:class:`RankingService`, and the evaluation harness — scores through
one of two implementations:

* fused (the default) — the graph-free numpy kernel of
  :mod:`repro.nn.fused`: weights snapshotted into a
  :class:`~repro.nn.fused.CompiledPathRank` (flat float32 arrays, input
  projections hoisted out of the GRU recurrence, preallocated per-thread
  buffers), running the forward direction over a batch's prefix trie
  and the backward direction over its suffix trie — both in one loop
  over depth, no padding — so each shared prefix or suffix runs once.
  ``ModelRegistry.activate`` pre-compiles the kernel so a hot-swap
  never pays compile latency on the first request, and the snapshot is
  keyed by the model's ``weight_version`` counter, so stale weights can
  never serve.
* ``module`` — the reference autograd forward, the parity oracle,
  selected per call with ``score_paths(paths, backend="module")``.

Scores agree across the two to float32 roundoff
(``tests/nn/test_fused.py`` pins parity; the ``serve_rescore`` workload
of ``bench/run.py`` measures the fused lane).
"""

from repro.serving.batching import BatchingScorer
from repro.serving.cache import CacheStats, CandidateCache, LRUCache, ScoreCache
from repro.serving.engine import EngineTicket, ServingEngine
from repro.serving.faults import (
    FaultInjector,
    FaultRule,
    format_fault_spec,
    parse_fault_spec,
)
from repro.serving.pipeline import QueryState, assign_split, normalise_split
from repro.serving.registry import ActiveModel, ModelRegistry
from repro.serving.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    retry_backoff,
)
from repro.serving.service import (
    RankedPath,
    RankingService,
    RankRequest,
    RankResponse,
    ServingConfig,
)

__all__ = [
    "ActiveModel",
    "BatchingScorer",
    "CacheStats",
    "CandidateCache",
    "CircuitBreaker",
    "EngineTicket",
    "FaultInjector",
    "FaultRule",
    "LRUCache",
    "ModelRegistry",
    "QueryState",
    "RankedPath",
    "RankingService",
    "RankRequest",
    "RankResponse",
    "ResilienceConfig",
    "ScoreCache",
    "ServingConfig",
    "ServingEngine",
    "assign_split",
    "format_fault_spec",
    "normalise_split",
    "parse_fault_spec",
    "retry_backoff",
]
