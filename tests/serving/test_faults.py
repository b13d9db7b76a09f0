"""The deterministic fault-injection layer and its spec grammar."""

import threading
import time

import pytest

from repro.errors import ConfigError, FaultInjected, ServingError
from repro.serving import (
    FaultInjector,
    FaultRule,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
    format_fault_spec,
    parse_fault_spec,
)

from repro.ranking import Strategy, TrainingDataConfig

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
def test_parse_single_rule():
    (rule,) = parse_fault_spec("score:error")
    assert rule.point == "score"
    assert rule.kind == "error"
    assert rule.rate == 1.0


def test_parse_delay_shorthand():
    (rule,) = parse_fault_spec("prepare:delay=20")
    assert rule.kind == "delay"
    assert rule.delay_ms == 20.0
    (longform,) = parse_fault_spec("prepare:delay:delay_ms=20")
    assert longform == rule


def test_parse_options_and_multiple_rules():
    rules = parse_fault_spec(
        "score:error:rate=0.25,count=10,after=5; engine.flush:hang")
    assert len(rules) == 2
    assert rules[0].rate == 0.25
    assert rules[0].count == 10
    assert rules[0].after == 5
    assert rules[1].point == "engine.flush"
    assert rules[1].kind == "hang"


def test_format_round_trips():
    spec = "score:error;prepare:delay:delay_ms=20,rate=0.5;admit:error:count=3"
    rules = parse_fault_spec(spec)
    assert parse_fault_spec(format_fault_spec(rules)) == rules


@pytest.mark.parametrize("spec", [
    "",                          # no rules at all
    ";;",                        # only empty chunks
    "score",                     # missing kind
    "nowhere:error",             # unknown injection point
    "score:explode",             # unknown kind
    "score@one:error",           # unknown injection point
    "score@1:error",             # no per-shard scope
    "score:error:rate=banana",   # malformed value
    "score:error:volume=11",     # unknown option
    "score:error:rate",          # option without value
    "prepare:hang=20",           # shorthand only for delay
    "prepare:delay",             # delay without delay_ms
    "score:error:rate=0",        # rate outside (0, 1]
    "score:error:count=0",       # count below 1
])
def test_malformed_specs_fail_fast(spec):
    with pytest.raises(ConfigError):
        parse_fault_spec(spec)


def test_rule_validation_direct():
    with pytest.raises(ConfigError):
        FaultRule(point="score", kind="delay")  # delay_ms missing
    with pytest.raises(ConfigError):
        FaultRule(point="score", kind="error", after=-1)


# ----------------------------------------------------------------------
# Injector semantics
# ----------------------------------------------------------------------
def test_error_fault_raises_fault_injected():
    injector = FaultInjector.from_spec("score:error")
    with pytest.raises(FaultInjected) as excinfo:
        injector.fire("score")
    # FaultInjected is a ServingError: the stack degrades it like any
    # real transient failure instead of needing a special case.
    assert isinstance(excinfo.value, ServingError)
    assert str(excinfo.value) == "injected fault at 'score'"


def test_rules_only_fire_at_their_point():
    injector = FaultInjector.from_spec("score:error")
    injector.fire("prepare")
    injector.fire("admit")
    assert injector.stats()["rules"][0]["hits"] == 0
    with pytest.raises(FaultInjected):
        injector.fire("score")


def test_count_caps_total_firings():
    injector = FaultInjector.from_spec("score:error:count=2")
    for _ in range(2):
        with pytest.raises(FaultInjected):
            injector.fire("score")
    injector.fire("score")  # budget spent: silent
    stats = injector.stats()["rules"][0]
    assert stats["fired"] == 2
    assert stats["hits"] == 3


def test_after_skips_warmup_hits():
    injector = FaultInjector.from_spec("score:error:after=2")
    injector.fire("score")
    injector.fire("score")
    with pytest.raises(FaultInjected):
        injector.fire("score")


def test_rate_draws_are_deterministic_per_seed():
    def firings(seed: int) -> list[bool]:
        injector = FaultInjector.from_spec("score:error:rate=0.3", seed=seed)
        outcomes = []
        for _ in range(64):
            try:
                injector.fire("score")
                outcomes.append(False)
            except FaultInjected:
                outcomes.append(True)
        return outcomes

    first = firings(seed=7)
    assert first == firings(seed=7)  # same seed: identical chaos
    assert first != firings(seed=8)  # different seed: different draws
    assert 4 <= sum(first) <= 40     # roughly the asked-for 30%


def test_delay_fault_sleeps():
    injector = FaultInjector.from_spec("prepare:delay=30")
    began = time.perf_counter()
    injector.fire("prepare")
    assert time.perf_counter() - began >= 0.025


def test_hang_blocks_until_disarm():
    injector = FaultInjector.from_spec("engine.flush:hang")
    released = threading.Event()

    def victim():
        injector.fire("engine.flush")
        released.set()

    thread = threading.Thread(target=victim)
    thread.start()
    deadline = time.time() + 5.0
    while injector.hanging == 0 and time.time() < deadline:
        time.sleep(0.001)
    assert injector.hanging == 1
    assert not released.is_set()
    injector.disarm()
    thread.join(timeout=5.0)
    assert released.is_set()
    assert injector.hanging == 0
    assert not injector.armed  # disarm is permanent for this injector


def test_from_spec_accepts_rules_and_injectors():
    rules = parse_fault_spec("score:error")
    from_rules = FaultInjector.from_spec(rules, seed=3)
    assert from_rules.rules == rules
    assert from_rules.seed == 3
    rearmed = FaultInjector.from_spec(from_rules, seed=9)
    assert rearmed.rules == rules
    assert rearmed.seed == 9
    assert rearmed.armed


def test_stats_shape():
    injector = FaultInjector.from_spec("score:error;prepare:delay=5")
    stats = injector.stats()
    assert stats["armed"] is True
    assert stats["hanging"] == 0
    assert [r["point"] for r in stats["rules"]] == ["score", "prepare"]
    assert set(stats["rules"][0]) == {"point", "kind", "hits", "fired"}


# ----------------------------------------------------------------------
# Service wiring
# ----------------------------------------------------------------------
def test_service_is_dormant_by_default(service):
    assert service.faults is None
    assert "faults" not in service.stats()["resilience"]


def test_arm_and_disarm_through_the_service(tiny_network, registry,
                                            make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry,
                             ServingConfig(candidates=CANDIDATES))
    service.arm_faults("admit:error", seed=5)
    response = service.rank(RankRequest(source=0, target=5))
    assert response.served_by == "error"
    assert service.stats()["resilience"]["faults"]["fired"] == 1
    service.disarm_faults()
    assert service.faults is None
    assert service.rank(RankRequest(source=0, target=5)).ok


def test_arm_faults_rejects_a_malformed_spec(service):
    with pytest.raises(ConfigError):
        service.arm_faults("nowhere:error")
    assert service.faults is None
    assert service.arm_faults("score:error").rules[0].point == "score"


def test_arm_faults_seed_and_count(tiny_network, registry, make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry,
                             ServingConfig(candidates=CANDIDATES))
    service.arm_faults("admit:error:count=1", seed=11)
    assert service.faults is not None
    assert service.faults.seed == 11
    assert service.rank(RankRequest(source=0, target=5)).served_by == "error"
    assert service.rank(RankRequest(source=0, target=5)).ok


def test_hung_flush_spares_cache_answers(service):
    """``engine.flush`` fires per flush only: a request whose scores
    are all cached is model-served while a flush hangs."""
    service.rank(RankRequest(source=0, target=5))  # warm both caches
    service.arm_faults("engine.flush:hang")
    engine = ServingEngine(service, concurrency=2, flush_deadline_ms=1.0)
    try:
        uncached = engine.submit(RankRequest(source=3, target=2))
        cached = engine.rank(RankRequest(source=0, target=5), timeout=5.0)
        assert cached.served_by == "model"
        time.sleep(0.1)
        assert not uncached.done
        assert service.faults.hanging == 1
        service.disarm_faults()
        assert uncached.wait(timeout=5.0).served_by == "model"
    finally:
        service.disarm_faults()
        engine.close()
