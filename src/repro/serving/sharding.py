"""The serving shard plane: route, cache, and score per region shard.

Every layer below PR 5 silently assumed one :class:`RoadNetwork` and one
model.  This module is the seam that removes that assumption without
rewriting the pipeline: a :class:`GraphPartition` (see
:mod:`repro.graph.partition`) splits the network into region shards, and
the serving stack hangs one *lane* of resources off each shard —

* :class:`ShardRouter` — maps an OD query to its owning shard.
  Same-shard queries route *locally*: the **source** shard's lane owns
  them (cache, model, scorer), and with ``local_candidates=True``
  candidate generation additionally runs on the shard's subnetwork.
  Cross-shard queries route through the boundary-stitched **corridor**
  subgraph of the two endpoint shards, or straight to the full network
  under the ``"fallback"`` policy.
* :class:`ShardedRegistry` — one :class:`ModelRegistry` per shard.
  Per-shard registries let each region serve its own weights (the
  paper trains PathRank per region); :meth:`ShardedRegistry.shared`
  instead backs every shard with one registry when a single model
  should serve everywhere.
* :class:`ShardLane` — the per-shard resource bundle
  (registry/caches/scorer) the :class:`~repro.serving.service.
  RankingService` pipeline stages index by ``QueryState.shard``; the
  unsharded service is simply the one-lane degenerate case.  The
  service carves each lane's :class:`CandidateCache` /
  :class:`ScoreCache` out of its own cache budget (proportional to
  shard size, see :func:`split_budget`), so a hot region cannot evict a
  quiet region's working set.

Shard subnetworks preserve global vertex ids, so shard-local paths are
valid paths of the full network and are scored by models trained on the
global vertex space — no id remapping crosses this seam.

Exactness: with the default ``local_candidates=False``, same-shard
queries enumerate on the full network, so their rankings are
element-wise identical to the unsharded service — the shard plane then
scopes *models, caches, and scoring batches*, not reachability.
``local_candidates=True`` trades that guarantee for subnetwork-sized
searches: exact whenever a query's alternatives stay inside its region
(the case geography-aligned partitioning optimises for), approximate
for paths that would detour across the boundary.  Either way a
shard-restricted search that finds **no** path retries on the full
network, so reachability never regresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path as FilePath

from repro.errors import ConfigError, ServingError
from repro.graph.network import RoadNetwork
from repro.graph.partition import GraphPartition
from repro.serving.batching import BatchingScorer
from repro.serving.cache import CandidateCache, ScoreCache, carve_budget
from repro.serving.registry import ActiveModel, ModelRegistry

__all__ = ["ShardRoute", "ShardRouter", "ShardedRegistry", "ShardLane",
           "CROSS_SHARD_POLICIES", "shard_label", "split_budget"]


def shard_label(shard_id: int) -> str:
    """Canonical stats label for one shard.

    Every per-shard stats section (registry caches, request counts,
    lane scorers, engine occupancy groups) joins on this exact string,
    so nothing formats it by hand.
    """
    return f"shard-{shard_id:02d}"

#: How a cross-shard query picks its candidate-generation graph:
#: ``"corridor"`` stitches the two endpoint shards' subnetworks together
#: through their boundary edges; ``"fallback"`` goes straight to the
#: full network.
CROSS_SHARD_POLICIES = ("corridor", "fallback")


@dataclass(frozen=True)
class ShardRoute:
    """Where one OD query lives on the shard plane.

    ``shard`` is the owning (source) shard — the lane whose caches,
    registry, and scorer serve the request.  ``graph`` is the network
    candidate generation runs on; ``local`` says whether that graph is a
    shard-restricted view (subnetwork or corridor) rather than the full
    network, i.e. whether a no-path result still warrants a full-network
    retry.
    """

    shard: int
    target_shard: int
    graph: RoadNetwork
    local: bool

    @property
    def cross(self) -> bool:
        return self.shard != self.target_shard


class ShardRouter:
    """Maps OD queries onto the shard plane.

    Pure policy over a :class:`GraphPartition`: no caches or models
    live here, so one router can be shared by any number of services.
    """

    def __init__(self, network: RoadNetwork, partition: GraphPartition, *,
                 cross_policy: str = "corridor",
                 local_candidates: bool = False,
                 certify_corridors: bool = False) -> None:
        if cross_policy not in CROSS_SHARD_POLICIES:
            raise ConfigError(
                f"cross_policy must be one of {CROSS_SHARD_POLICIES}, "
                f"got {cross_policy!r}")
        if partition.network is not network:
            raise ConfigError(
                "partition was built for a different network object")
        if partition.fingerprint != network.fingerprint:
            raise ConfigError(
                "partition is stale: the network changed since it was "
                "built; re-partition before serving")
        self.network = network
        self.partition = partition
        self.cross_policy = cross_policy
        #: When true, same-shard candidate generation runs on the shard
        #: subnetwork (faster, boundary-approximate); the default keeps
        #: it on the full network so same-shard rankings are exactly the
        #: unsharded service's.
        self.local_candidates = local_candidates
        #: When true, every corridor route first runs the shard pair's
        #: :class:`~repro.graph.partition.CorridorCertificate`: queries
        #: whose shortest path provably stays inside the corridor keep
        #: the small graph, the rest widen to the full network — turning
        #: the corridor policy from "approximate by construction" into
        #: "exact, small where provably safe".  Costs one corridor
        #: point-to-point query per cross-shard route.
        self.certify_corridors = certify_corridors
        #: Cumulative certificate outcomes, surfaced through
        #: ``RankingService.stats()["sharding"]["routing"]``.
        self.route_counters = {"same_shard": 0, "corridor_routes": 0,
                               "certified": 0, "widened": 0,
                               "unreachable": 0}
        #: Chaos seam (``route`` injection point): armed by
        #: :meth:`RankingService.arm_faults`, ``None`` keeps routing at
        #: a single attribute check.
        self.faults = None

    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    def shard_of(self, vertex_id: int) -> int:
        return self.partition.shard_of(vertex_id)

    def route(self, source: int, target: int) -> ShardRoute:
        """The shard, graph, and policy one OD query is served under.

        Raises :class:`ServingError` once the live network's fingerprint
        diverges from the partition's: the memoised subnetwork/corridor
        snapshots can no longer reflect the graph (a closed road would
        keep serving), so every request fails loudly until the operator
        re-partitions — unlike full-network routing, shard-restricted
        graphs cannot invalidate implicitly.  O(1) per route on an
        unmutated network (the fingerprint is cached by version).
        """
        if self.partition.fingerprint != self.network.fingerprint:
            raise ServingError(
                "shard partition is stale: the network changed since it "
                "was built; re-partition before serving")
        shard = self.partition.shard_of(source)
        if self.faults is not None:
            self.faults.fire("route", shard=shard)
        target_shard = self.partition.shard_of(target)
        if shard == target_shard:
            self.route_counters["same_shard"] += 1
            if self.local_candidates:
                return ShardRoute(shard, target_shard,
                                  self.partition.subnetwork(shard), True)
            return ShardRoute(shard, target_shard, self.network, False)
        if self.cross_policy == "corridor":
            self.route_counters["corridor_routes"] += 1
            if self.certify_corridors:
                certificate = self.partition.corridor_certificate(
                    shard, target_shard)
                verdict = certificate.decide(source, target)
                self.route_counters[verdict] += 1
                if verdict != "certified":
                    # The corridor either provably misses a cheaper
                    # exterior path ("widened") or cannot connect the
                    # endpoints at all ("unreachable"): serve from the
                    # full network instead of a wrong small graph.
                    return ShardRoute(shard, target_shard, self.network,
                                      False)
            return ShardRoute(shard, target_shard,
                              self.partition.corridor(shard, target_shard),
                              True)
        return ShardRoute(shard, target_shard, self.network, False)


def split_budget(total: int, weights: list[int]) -> list[int]:
    """Split a global cache budget proportionally (each share >= 1).

    Used for both candidate- and score-cache budgets: a shard gets
    capacity proportional to its node count, so doubling the number of
    regions does not double serving memory.  Shares are carved from the
    remaining budget (see :func:`repro.serving.cache.carve_budget`, the
    same rule sizing the score cache's quota segments), so
    ``sum(shares) <= total`` whenever the budget covers the minimum of
    one entry per shard.
    """
    return carve_budget(total, weights)


class ShardedRegistry:
    """Per-shard model registries over one partition.

    The per-shard :class:`ModelRegistry` instances are rooted at
    ``<root>/shard-<id>`` and constructed over the **full** network:
    models live in the global vertex space (shard subgraphs preserve
    ids), so a checkpoint published for one shard can score any path the
    shard's routing graphs produce.  Caches are not kept here: each
    :class:`~repro.serving.service.RankingService` carves its own
    ``ServingConfig`` budgets over the shards.
    """

    def __init__(self, root: str | FilePath, network: RoadNetwork,
                 partition: GraphPartition, *,
                 registries: dict[int, ModelRegistry] | None = None) -> None:
        if partition.num_shards < 1:
            raise ConfigError("partition has no shards")
        self.network = network
        self.partition = partition
        root = FilePath(root)
        if registries is None:
            registries = {
                shard.shard_id: ModelRegistry(
                    root / shard_label(shard.shard_id), network)
                for shard in partition.shards
            }
        else:
            missing = [shard.shard_id for shard in partition.shards
                       if shard.shard_id not in registries]
            if missing:
                raise ConfigError(f"registries missing shards {missing}")
        self._registries = registries

    @classmethod
    def shared(cls, registry: ModelRegistry,
               partition: GraphPartition) -> "ShardedRegistry":
        """Back every shard with one shared :class:`ModelRegistry`.

        The deployment shape where a single model serves all regions
        (the CLI's ``--shards`` flag): publishing/activating once serves
        everywhere, while caches and scoring batches stay shard-local.
        """
        registries = {shard.shard_id: registry for shard in partition.shards}
        return cls(registry.root, registry.network, partition,
                   registries=registries)

    # ------------------------------------------------------------------
    # Per-shard access
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    def shard_ids(self) -> list[int]:
        return [shard.shard_id for shard in self.partition.shards]

    def registry(self, shard_id: int) -> ModelRegistry:
        try:
            return self._registries[shard_id]
        except KeyError:
            raise ServingError(
                f"no shard {shard_id}; registry holds "
                f"{sorted(self._registries)}") from None

    # ------------------------------------------------------------------
    # Fleet-wide model management
    # ------------------------------------------------------------------
    def publish(self, ranker, version: str | None = None,
                shards: list[int] | None = None,
                activate: bool = False) -> str:
        """Publish one trained ranker to some (default: all) shards.

        With per-shard registries this writes one checkpoint per shard;
        region-specialised deployments instead call
        ``registry(shard).publish`` per shard with per-region rankers.
        Returns the version name (allocated by the first shard when not
        given, then reused so every shard agrees on the name).
        """
        targets = self.shard_ids() if shards is None else list(shards)
        if not targets:
            raise ServingError("publish() needs at least one shard")
        seen: set[int] = set()
        for shard_id in targets:
            registry = self.registry(shard_id)
            if id(registry) in seen:  # shared-registry mode: publish once
                continue
            seen.add(id(registry))
            version = registry.publish(ranker, version=version)
        if activate:
            self.activate(version, shards=targets)
        return version

    def activate(self, version: str,
                 shards: list[int] | None = None) -> dict[int, ActiveModel]:
        """Hot-swap ``version`` live on some (default: all) shards.

        Shards backed by the same underlying registry (the
        :meth:`shared` arrangement) activate once and share the
        snapshot, so a fleet-wide swap loads the checkpoint one time.
        """
        targets = self.shard_ids() if shards is None else list(shards)
        activated: dict[int, ActiveModel] = {}
        result: dict[int, ActiveModel] = {}
        for shard_id in targets:
            registry = self.registry(shard_id)
            snapshot = activated.get(id(registry))
            if snapshot is None:
                snapshot = registry.activate(version)
                activated[id(registry)] = snapshot
            result[shard_id] = snapshot
        return result

    def deactivate(self, shards: list[int] | None = None) -> None:
        targets = self.shard_ids() if shards is None else list(shards)
        for shard_id in targets:
            self.registry(shard_id).deactivate()

    def subscribe(self, listener) -> None:
        """Register a lifecycle listener on every shard's registry.

        Shards backed by one shared underlying registry subscribe it
        once, so a fleet-wide deactivate fires the listener per distinct
        registry rather than per shard alias.
        """
        seen: set[int] = set()
        for shard_id in self.shard_ids():
            registry = self.registry(shard_id)
            if id(registry) in seen:
                continue
            seen.add(id(registry))
            registry.subscribe(listener)

    def snapshot(self, shard_id: int) -> ActiveModel | None:
        return self.registry(shard_id).snapshot()

    def active_versions(self) -> dict[int, str | None]:
        versions: dict[int, str | None] = {}
        for shard_id in self.shard_ids():
            active = self.registry(shard_id).snapshot()
            versions[shard_id] = active.version if active else None
        return versions

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """The partition summary plus each shard's size."""
        per_shard = {
            shard_label(shard.shard_id): {
                "nodes": shard.size,
                "boundary_nodes": len(shard.boundary),
            }
            for shard in self.partition.shards
        }
        return {"partition": self.partition.as_dict(),
                "per_shard": per_shard}


@dataclass
class ShardLane:
    """One shard's serving resources, as indexed by the pipeline stages.

    The :class:`~repro.serving.service.RankingService` keeps one lane
    per shard (or a single lane 0 when unsharded) and threads every
    stage through the lane named by ``QueryState.shard`` — which is what
    makes scoring flushes coalesce *per (shard, snapshot) group* rather
    than per snapshot alone.
    """

    shard_id: int
    registry: ModelRegistry
    candidate_cache: CandidateCache
    score_cache: ScoreCache | None
    scorer: BatchingScorer

    def register_into(self, metrics) -> None:
        """Publish this lane's trackers into a metrics registry.

        Canonical names are keyed by the lane's shard label —
        ``cache.candidate.shard-00.hits``, ``cache.score.shard-00.*``,
        ``scoring.shard-00.batches_run`` — so a sharded service's export
        breaks every cache and scorer down per shard; the service layer
        adds the unsuffixed aggregate names on top.
        """
        label = shard_label(self.shard_id)
        metrics.register_callback(f"cache.candidate.{label}",
                                  self.candidate_cache.stats.as_dict)
        if self.score_cache is not None:
            metrics.register_callback(f"cache.score.{label}",
                                      self.score_cache.stats.as_dict)
        metrics.register_callback(f"scoring.{label}", self.scorer.as_dict)
