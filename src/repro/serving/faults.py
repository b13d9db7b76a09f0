"""Deterministic, seedable fault injection for the serving stack.

Chaos testing is only useful when a failing scenario can be replayed
exactly, so this layer is deterministic end to end: whether a rule
fires on a given hit is a hash draw over ``(seed, rule, hit_counter)``
— no RNG state, no wall clock — and every firing is counted so a test
or bench can assert precisely how much chaos it caused.

A :class:`FaultInjector` holds a list of :class:`FaultRule` records and
is consulted at *named injection points* threaded through the serving
stack (``service.py``, ``engine.py``, ``batching.py``, ``exec/pool.py``):

===================  =====================================================
point                fires
===================  =====================================================
``admit``            per request, during admission
``prepare``          per request, during candidate generation
``score``            per scoring group, inside the scoring attempt
                     (so retries re-draw and breakers see the failure)
``assemble``         per request, during response assembly
``engine.submit``    per request, at the engine front door
``engine.flush``     per flush batch, in the engine's scoring step;
                     never for a request the engine answers from the
                     score cache, which skips the flush
``scorer.flush``     per call, inside :meth:`BatchingScorer.score_many`
``exec.worker``      per pool dispatch, in :class:`WorkerPool.submit` —
                     an ``error`` firing is translated into a real
                     ``SIGKILL`` of a live worker process, so the
                     genuine death-detection/respawn path runs
===================  =====================================================

Rules support three kinds: ``delay`` (latency spike of ``delay_ms``),
``error`` (raise :class:`~repro.errors.FaultInjected` — a
:class:`ServingError`, so the stack retries / trips breakers / degrades
exactly as for a real transient failure), and ``hang`` (block on an
event until :meth:`FaultInjector.disarm` releases it — how tests prove
nothing waits forever).  Rules can be rate-limited (``rate``),
warmup-skipped (``after``) and budget-capped (``count``).

The whole layer is **dormant by default**: a service without an armed
injector (``service.faults is None``) pays only an attribute check per
stage, and ``tests/serving/test_resilience.py`` pins exact response
parity for that state.

Specs are written ``point:kind[:key=value,...]`` joined by
semicolons, e.g.::

    score:error                      # kill the service's scorer
    prepare:delay:delay_ms=20        # 20 ms latency spike on prepare
    score:error:rate=0.25,count=10   # 25% failures, at most 10
    engine.flush:hang                # hang a flush until disarm()

and parse via :func:`parse_fault_spec` (used by ``--fault-spec``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from hashlib import blake2b

from repro.errors import ConfigError, FaultInjected

__all__ = ["FAULT_KINDS", "INJECTION_POINTS", "FaultRule", "FaultInjector",
           "parse_fault_spec", "format_fault_spec"]

#: Supported fault behaviours.
FAULT_KINDS = ("delay", "error", "hang")

#: Named injection points wired through the serving stack.
INJECTION_POINTS = ("admit", "prepare", "score", "assemble",
                    "engine.submit", "engine.flush", "scorer.flush",
                    "exec.worker")


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: where, what, and how often.

    ``rate`` is the per-hit firing probability (decided by a
    deterministic hash draw, see :meth:`FaultInjector.fire`);
    ``after`` skips the first N hits entirely (warmup); ``count``
    caps total firings (``None`` = unlimited).
    """

    point: str
    kind: str
    delay_ms: float = 0.0
    rate: float = 1.0
    count: int | None = None
    after: int = 0

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ConfigError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {INJECTION_POINTS}")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}")
        if self.kind == "delay" and self.delay_ms <= 0.0:
            raise ConfigError(
                f"delay fault needs delay_ms > 0, got {self.delay_ms}")
        if self.delay_ms < 0.0:
            raise ConfigError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError(f"rate must be in (0, 1], got {self.rate}")
        if self.count is not None and self.count < 1:
            raise ConfigError(f"count must be >= 1 (or None), got {self.count}")
        if self.after < 0:
            raise ConfigError(f"after must be >= 0, got {self.after}")


class FaultInjector:
    """Evaluates armed :class:`FaultRule` records at injection points.

    Thread-safe; one injector is shared by the whole serving stack.
    Each rule keeps a *hit* counter (times a matching point was
    reached) and a *fired* counter (times it actually acted), and the
    fire decision for hit ``n`` is the hash draw
    ``blake2b((seed, rule_index, n)) / 2**64 < rate`` — replays with
    the same seed and request order inject identical chaos.
    """

    def __init__(self, rules, seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        #: Set by :meth:`disarm`; hang faults wait on it.
        self._released = threading.Event()
        self._hanging = 0

    @classmethod
    def from_spec(cls, spec, seed: int = 0) -> "FaultInjector":
        """Build from a spec string, an iterable of rules, or another
        injector (re-armed fresh with the given seed)."""
        if isinstance(spec, FaultInjector):
            return cls(spec.rules, seed=seed)
        if isinstance(spec, str):
            return cls(parse_fault_spec(spec), seed=seed)
        return cls(spec, seed=seed)

    @property
    def armed(self) -> bool:
        return bool(self.rules) and not self._released.is_set()

    def _draw(self, index: int, hit: int) -> float:
        digest = blake2b(repr((self.seed, index, hit)).encode("utf-8"),
                         digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def fire(self, point: str) -> None:
        """Evaluate all rules matching ``point``.

        Called from the serving hot path; returns immediately when
        disarmed or when no rule matches.  May sleep (``delay``),
        raise :class:`FaultInjected` (``error``) or block until
        :meth:`disarm` (``hang``).
        """
        if not self.armed:
            return
        actions: list[FaultRule] = []
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                hit = self._hits[index]
                self._hits[index] += 1
                if hit < rule.after:
                    continue
                if rule.count is not None and self._fired[index] >= rule.count:
                    continue
                if self._draw(index, hit) >= rule.rate:
                    continue
                self._fired[index] += 1
                actions.append(rule)
        # Act outside the lock so a hang/delay never blocks other rules.
        for rule in actions:
            if rule.kind == "delay":
                time.sleep(rule.delay_ms / 1000.0)
            elif rule.kind == "hang":
                with self._lock:
                    self._hanging += 1
                try:
                    self._released.wait()
                finally:
                    with self._lock:
                        self._hanging -= 1
        for rule in actions:
            if rule.kind == "error":
                raise FaultInjected(f"injected fault at {point!r}")

    def disarm(self) -> None:
        """Stop all future firings and release every hanging thread."""
        self._released.set()

    @property
    def hanging(self) -> int:
        """Threads currently blocked inside a ``hang`` fault."""
        with self._lock:
            return self._hanging

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "armed": self.armed,
                "hanging": self._hanging,
                "rules": [
                    {"point": rule.point, "kind": rule.kind,
                     "hits": self._hits[index],
                     "fired": self._fired[index]}
                    for index, rule in enumerate(self.rules)
                ],
            }


def _parse_value(key: str, raw: str):
    if key in ("delay_ms", "rate"):
        return float(raw)
    if key in ("count", "after"):
        return int(raw)
    raise ConfigError(f"unknown fault rule option {key!r}")


def parse_fault_spec(text: str) -> tuple[FaultRule, ...]:
    """Parse ``point:kind[:key=value,...]`` rules joined by ``;``.

    ``delay`` accepts the shorthand ``point:delay=<ms>`` in place of
    ``point:delay:delay_ms=<ms>``.  Raises :class:`ConfigError` on any
    malformed rule so a bad ``--fault-spec`` fails fast at the CLI.
    """
    rules: list[FaultRule] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2:
            raise ConfigError(
                f"fault rule {chunk!r} must look like point:kind[:options]")
        point, kind = parts[0].strip(), parts[1].strip()
        options = ":".join(parts[2:]).strip()
        kwargs: dict[str, object] = {}
        if "=" in kind:  # shorthand: point:delay=20
            kind, _, raw = kind.partition("=")
            if kind != "delay":
                raise ConfigError(
                    f"fault rule {chunk!r}: only delay supports the "
                    f"kind=value shorthand")
            kwargs["delay_ms"] = float(raw)
        for option in filter(None, (o.strip() for o in options.split(","))):
            if "=" not in option:
                raise ConfigError(
                    f"fault rule {chunk!r} option {option!r} must be "
                    f"key=value")
            key, _, raw = option.partition("=")
            try:
                kwargs[key.strip()] = _parse_value(key.strip(), raw.strip())
            except ValueError:
                raise ConfigError(
                    f"fault rule {chunk!r} option {option!r} has a "
                    f"malformed value") from None
        try:
            rules.append(FaultRule(point=point, kind=kind, **kwargs))
        except TypeError:
            raise ConfigError(
                f"fault rule {chunk!r} repeats or misuses an option") from None
    if not rules:
        raise ConfigError(f"fault spec {text!r} contains no rules")
    return tuple(rules)


def format_fault_spec(rules) -> str:
    """Render rules back to the spec grammar (inverse of the parser)."""
    chunks = []
    for rule in rules:
        options = []
        if rule.kind == "delay":
            options.append(f"delay_ms={rule.delay_ms:g}")
        if rule.rate != 1.0:
            options.append(f"rate={rule.rate:g}")
        if rule.count is not None:
            options.append(f"count={rule.count}")
        if rule.after:
            options.append(f"after={rule.after}")
        chunk = f"{rule.point}:{rule.kind}"
        if options:
            chunk += ":" + ",".join(options)
        chunks.append(chunk)
    return ";".join(chunks)
