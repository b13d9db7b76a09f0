"""Run protocol shared by every workload.

One run = set-up (timed) -> one discarded warm-up round -> short timed
rounds until ``--seconds`` have been measured, a pass of the host-speed
yardstick between them -> untimed correctness checks.  Times and rates
are reported as the median over rounds with the quartiles beside them;
shares are pooled over the rounds.  A traced run traces every other
round, adds the layer replay, and reports the per-layer metrics instead
of the end-to-end ones.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.graph.builders import north_jutland_like
from repro.graph.csr import csr_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_SPANS = 50_000
SETUP_PASSES = 4        # yardstick passes before and after a set-up


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail_percentile(values, q: float) -> float:
    """Percentile ``q``, or 0 when fewer than ten samples lie beyond it."""
    if len(values) * (100.0 - q) / 100.0 < 10.0:
        return 0.0
    return percentile(values, q)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
_YARD = np.random.default_rng(0).random((96, 96)).astype(np.float32)


def slowdown(reference: list[float], passes: int = 1) -> float:
    """How much slower than the reference host this host runs right now.

    The 2-core sandbox this was calibrated on does not hold its speed:
    the same work takes 1.3x, at times 1.9x, longer, and the factor
    moves from one tenth of a second to the next as well as over minutes
    (busy neighbours by the look of it; no steal is reported).  A fixed
    yardstick — interpreter work on a dict and a heap, then small numpy
    matmuls, ~21 ms a pass — is timed between rounds that are themselves
    a fraction of a second long, so that each round has a reading taken
    right before it and one right after.  Its time over the frozen
    ``yardstick_ref_s`` is the index by which that round's
    computing-bound values are corrected (see ``_end_to_end``).
    """
    clock = time.perf_counter
    total = 0.0
    for _ in range(passes):
        began = clock()
        heap: list = []
        table: dict = {}
        acc = 0
        for i in range(20_000):
            acc += i * i
            table[i & 1023] = acc
            heapq.heappush(heap, (acc % 977, i))
            if i & 3 == 3:
                heapq.heappop(heap)
        interpreter = clock() - began
        began = clock()
        x = _YARD
        for _ in range(500):
            x = np.tanh(_YARD @ x * 0.04)     # gain ~2: stays O(1)
        numeric = clock() - began
        total += 0.5 * (interpreter / reference[0] + numeric / reference[1])
    return total / passes


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log of the calls the benchmark makes into the
    program: ``(id, name, start, end, parent, op)``; written at exit."""

    def __init__(self) -> None:
        self.enabled = False
        self.rows: list[tuple] = []
        self.dropped = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        if not self.enabled:
            yield
            return
        ident = len(self.rows)
        self.rows.append(())
        parent = self._stack[-1] if self._stack else None
        self._stack.append(ident)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[ident] = (ident, name, start, end, parent, op)

    def add(self, name: str, start: float, end: float, op=None) -> None:
        """A span observed after the fact (engine ticket timestamps)."""
        if not self.enabled:
            return
        if len(self.rows) >= MAX_SPANS:
            self.dropped += 1
            return
        self.rows.append((len(self.rows), name, start, end, None, op))

    def durations(self, name: str) -> list[float]:
        return [row[3] - row[2] for row in self.rows if row and row[1] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per name: span time minus the time of its child spans."""
        children: dict[int, float] = {}
        for row in self.rows:
            if row and row[4] is not None:
                children[row[4]] = children.get(row[4], 0.0) + row[3] - row[2]
        out: dict[str, float] = {}
        for row in self.rows:
            if row:
                own = row[3] - row[2] - children.get(row[0], 0.0)
                out[row[1]] = out.get(row[1], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for row in self.rows:
                if row:
                    ident, name, start, end, parent, op = row
                    out.write(json.dumps({
                        "id": ident, "name": name, "start": start,
                        "end": end, "parent": parent, "op": op}) + "\n")


# ----------------------------------------------------------------------
# Workload interface
# ----------------------------------------------------------------------
@dataclass
class Round:
    """What one timed round observed.

    ``throughput`` counts correct ops per second of the closed-loop
    phase; ``latencies_ms`` holds the per-op latency sample (open-loop
    phase where the workload has one, else per-op service time), of
    which ``lat_attempted`` were attempted and ``within`` finished
    correctly inside the workload's limit.  ``cpu_s`` is the process CPU
    spent on ``cpu_ops`` ops (every attempted one when left at 0).
    """

    attempted: int
    ok: int
    throughput: float
    latencies_ms: list[float]
    lat_attempted: int
    within: int
    cpu_s: float
    cpu_ops: int = 0
    lateness_ms: list[float] = field(default_factory=list)
    outcomes: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    slowdown: float = 1.0       # host-speed index, set by the harness

    @property
    def cpu_ms_per_op(self) -> float:
        return ratio(self.cpu_s * 1000.0, self.cpu_ops or self.attempted)


@dataclass
class Check:
    """Untimed oracle checks: how many were made, how many missed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, passed: bool, note: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(note)


class Workload:
    """One workload.  ``build`` and ``warm`` are the program's set-up and
    are timed; ``make_inputs`` is the benchmark's own work and is not."""

    name = ""

    def __init__(self, consts: dict, shared: dict, seed: int, spans: Spans,
                 trace: bool, inject: str | None, workdir: Path) -> None:
        self.consts = consts
        self.shared = shared
        self.seed = seed
        self.spans = spans
        self.trace = trace
        self.inject = inject
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])

    def build(self) -> None: ...
    def make_inputs(self) -> None: ...
    def warm(self) -> None: ...
    def round(self, seconds: float, traced: bool) -> Round: ...
    def verify(self) -> Check: ...
    def layers(self, rounds: list[Round]) -> dict[str, float]: ...
    def teardown(self) -> None: ...

    def build_graph(self, builder) -> None:
        """Network, CSR kernel and ALT tables, each under its span."""
        with self.spans.span("graph.builders.network_build"):
            self.network = builder()
        with self.spans.span("graph.csr.build"):
            self.kernel = csr_for(self.network)
        with self.spans.span("graph.csr.alt_build"):
            self.kernel.ensure_alt()

    def graph_layers(self) -> dict[str, float]:
        total = self.spans.total
        return {
            "graph.builders.network_build_s":
                total("graph.builders.network_build"),
            "graph.csr.build_s": total("graph.csr.build"),
            "graph.csr.alt_build_s": total("graph.csr.alt_build"),
        }

    def pins(self) -> dict[str, str]:
        """Network fingerprint and op-list digest (``pinned_ops``)."""
        return {"network": self.network.fingerprint[2],
                "ops": self.pinned_ops}


def region(net: dict):
    """The ``north_jutland_like`` network a constants entry describes."""
    return north_jutland_like(
        num_towns=net["num_towns"],
        town_size_range=tuple(net["town_size_range"]),
        region_extent=net["region_extent"], seed=net["seed"])


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
def _blas_name() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')}-{info.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` (no subprocess; the
    driver's checkout is not a repository and then this is "none")."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text(
                encoding="ascii").strip()
        return text
    except OSError:
        return "none"


def host_fingerprint(seed: int) -> dict:
    load = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "load_1m_at_start": load,
        "noisy": load > 1.0,
        "seed": seed,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Constants, contract, pins
# ----------------------------------------------------------------------
def load_constants() -> dict:
    return json.loads((HERE / "constants.json").read_text(encoding="utf-8"))


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class InputsDrifted(Exception):
    pass


def check_pins(preset: str, name: str, seed: int, default_seed: int,
               actual: dict[str, str], update: bool = False) -> None:
    """Abort when the default seed's inputs are not the pinned ones.

    The network pins hold for every seed (networks are built from fixed
    seeds); the op-list pin only for the default one.  ``update``
    records the actual values instead (``--update-pins``, for a change
    that means to alter the inputs).
    """
    path = HERE / "pins.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    if update and seed == default_seed:
        pinned.setdefault(preset, {})[name] = actual
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        return
    expected = pinned.get(preset, {}).get(name)
    if expected is None:
        raise InputsDrifted(f"no pins recorded for {preset}/{name}")
    for key, value in actual.items():
        if key == "ops" and seed != default_seed:
            continue
        if expected.get(key) != value:
            raise InputsDrifted(
                f"inputs drifted: {preset}/{name} {key} is {value}, "
                f"pinned {expected.get(key)}")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _metric(value: float, unit: str, per_round=None, raw=None) -> dict:
    entry = {"value": float(value), "unit": unit}
    if per_round is not None:
        q1, _, q3 = quartiles(per_round)
        entry.update(q1=q1, q3=q3, rounds=[float(v) for v in per_round])
    if raw is not None:
        entry["as_measured"] = float(raw)
    return entry


def _on_time(rounds: list[Round], limit_ms: float) -> list[Round]:
    """The rounds whose open-loop generator kept its schedule: lateness
    p99 under a tenth of the latency limit.  A late round says more
    about the generator than about the engine, so it is left out of the
    latency statistics (all are kept when none qualifies)."""
    kept = [r for r in rounds if not r.lateness_ms
            or percentile(r.lateness_ms, 99.0) <= 0.10 * limit_ms]
    return kept or rounds


def _end_to_end(rounds: list[Round], check: Check,
                setups: list[tuple[float, float]], units: dict[str, str],
                consts: dict) -> dict[str, dict]:
    """The end-to-end metrics of a run.

    Times and rates are medians over rounds.  Where the time is spent
    computing, each round's value is first brought to the reference
    host's speed with that round's ``slowdown`` index (a time is divided
    by it, a rate multiplied); the uncorrected median is kept beside it
    as ``as_measured``.  A workload names in ``as_measured`` the metrics
    that are set by waiting rather than computing (``serve_hot``'s
    throughput and latency are the engine's 2 ms flush timer) and those
    are left alone.
    """
    exempt = set(consts.get("as_measured", ()))
    timely = _on_time(rounds, consts["limit_ms"])

    def corrected(name, values, slow, rate=False):
        if name in exempt:
            return median(values), values, None
        fixed = [v * s if rate else v / s for v, s in zip(values, slow)]
        return median(fixed), fixed, median(values)

    attempted = sum(r.attempted for r in rounds) + check.attempted
    missed = sum(r.attempted - r.ok for r in rounds) + check.failed
    values = {
        "throughput_ops_s": corrected(
            "throughput_ops_s", [r.throughput for r in rounds],
            [r.slowdown for r in rounds], rate=True),
        "latency_p50_ms": corrected(
            "latency_p50_ms", [median(r.latencies_ms) for r in timely],
            [r.slowdown for r in timely]),
        "within_limit_share": (
            ratio(sum(r.within for r in timely),
                  sum(r.lat_attempted for r in timely)),
            [ratio(r.within, r.lat_attempted) for r in timely], None),
        "failed_share": (ratio(missed, attempted), None, None),
        "cpu_ms_per_op": corrected(
            "cpu_ms_per_op", [r.cpu_ms_per_op for r in rounds],
            [r.slowdown for r in rounds]),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            None, None),
        "setup_s": corrected("setup_s", [t for t, _ in setups],
                             [s for _, s in setups]),
    }
    return {name: _metric(value, units.get(name, "share"), per_round, raw)
            for name, (value, per_round, raw) in values.items()}


def _diagnostics(rounds: list[Round], limit_ms: float) -> dict[str, float]:
    timely = _on_time(rounds, limit_ms)
    latencies = [v for r in timely for v in r.latencies_ms]
    lateness = [percentile(r.lateness_ms, 99.0) for r in rounds
                if r.lateness_ms]
    throughput = [r.throughput for r in rounds]
    q1, mid, q3 = quartiles(throughput)
    return {
        "bench.cpu_ms_per_op": median([r.cpu_ms_per_op for r in rounds]),
        "bench.latency_p95_ms": tail_percentile(latencies, 95.0),
        "bench.latency_p99_ms": tail_percentile(latencies, 99.0),
        "bench.generator_lateness_p99_ms": max(lateness, default=0.0),
        "bench.round_spread": ratio(q3 - q1, mid),
        "bench.samples": float(len(latencies)),
        "bench.invalid_rounds": float(len(rounds) - len(timely)),
        "bench.rounds": float(len(rounds)),
        "bench.host_slowdown": median([r.slowdown for r in rounds]),
    }


def run_workload(cls, *, preset: str, seed: int, seconds: float,
                 trace: bool, inject: str | None = None,
                 update_pins: bool = False) -> dict:
    """Run one workload under the protocol; returns the result record."""
    constants = load_constants()
    contract = load_contract()
    shared = constants[preset]
    consts = shared[cls.name]
    host = host_fingerprint(seed)
    shm_before = _shm_segments()
    spans = Spans()
    workdir = OUT / f"tmp-{cls.name}-{os.getpid()}"
    failures: list[str] = []

    setups: list[tuple[float, float]] = []  # (seconds, slowdown index)
    yard = constants["yardstick_ref_s"]
    workload = None
    try:
        repeats = consts["setup_repeats"]
        for attempt in range(repeats):
            if workload is not None:
                workload.teardown()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            workload = cls(consts, shared, seed, spans, trace, inject,
                           workdir)
            spans.enabled = recorded = trace and attempt == repeats - 1
            index = slowdown(yard, SETUP_PASSES)
            began = time.perf_counter()
            workload.build()
            built = time.perf_counter()
            spans.enabled = False
            workload.make_inputs()          # the benchmark's own work
            spans.enabled = recorded
            warm_began = time.perf_counter()
            workload.warm()
            elapsed = time.perf_counter() - warm_began + built - began
            spans.enabled = False
            index = (index + slowdown(yard, SETUP_PASSES)) / 2.0
            setups.append((elapsed, index))
        pins = workload.pins()
        check_pins(preset, cls.name, seed, constants["default_seed"], pins,
                   update=update_pins)

        # Rounds of ``round_s`` (or of one op, where an op is longer)
        # until ``seconds`` have been measured.  The yardstick pass after
        # a round is also the one before the next.
        rounds: list[Round] = []
        traced_rounds: list[Round] = []
        length = consts["round_s"]
        measured = 0.0
        workload.round(length, traced=False)        # warm-up, discarded
        reading = slowdown(yard)
        while measured < seconds or (trace and not traced_rounds):
            traced = trace and len(traced_rounds) < len(rounds)
            gc.collect()
            spans.enabled = traced
            began = time.perf_counter()
            try:
                result = workload.round(length, traced=traced)
            finally:
                spans.enabled = False
            measured += time.perf_counter() - began
            before, reading = reading, slowdown(yard)
            result.slowdown = (before + reading) / 2.0
            (traced_rounds if traced else rounds).append(result)
        check = workload.verify()
        layers: dict[str, float] = {}
        if trace:
            spans.enabled = True
            layers = workload.layers(traced_rounds)
            spans.enabled = False
            layers["obs.trace_overhead_share"] = 1.0 - ratio(
                median([r.throughput * r.slowdown for r in traced_rounds]),
                median([r.throughput * r.slowdown for r in rounds]))
            layers.update(_diagnostics(traced_rounds, consts["limit_ms"]))
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    end_to_end = _end_to_end(rounds, check, setups, units, consts)
    diagnostics = _diagnostics(rounds, consts["limit_ms"])
    for r in rounds + traced_rounds:
        failures.extend(r.notes)
    failures.extend(check.notes)
    every = rounds + traced_rounds
    attempted = sum(r.attempted for r in every) + check.attempted
    failed = sum(r.attempted - r.ok for r in every) + check.failed
    stray_threads = [t.name for t in threading.enumerate()
                     if t is not threading.main_thread()]
    stray_shm = sorted(_shm_segments() - shm_before)
    if stray_threads or stray_shm:
        failed += 1
        failures.append(f"left behind threads={stray_threads} "
                        f"shm={stray_shm}")
    per_layer = {
        m["name"]: _metric(layers.get(m["name"], 0.0), m["unit"])
        for m in contract["per_layer"]} if trace else {}
    result = {
        "workload": cls.name, "preset": preset, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "noisy": host["noisy"], "limit_ms": consts["limit_ms"],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "diagnostics": diagnostics, "host": host, "pins": pins,
        "failures": failures,
    }
    if trace:
        result["self_times_s"] = spans.self_times()
        result["spans_dropped"] = spans.dropped
        spans.write(OUT / f"{cls.name}.trace.jsonl")
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = ".trace.json" if trace else ".json"
    (OUT / f"{cls.name}{suffix}").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_line(result: dict, contract: dict) -> str:
    """The one-line JSON object the driver reads."""
    if result["trace"]:
        source, names = result["per_layer"], contract["per_layer"]
    else:
        source, names = result["end_to_end"], contract["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"],
                           "unit": m["unit"]} for m in names}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report(result: dict, out=sys.stdout) -> None:
    host = result["host"]
    print(f"== {result['workload']}  seed={result['seed']} "
          f"seconds={result['seconds']:g} preset={result['preset']} "
          f"trace={result['trace']}", file=out)
    print(f"   host: nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} blas={host['blas']} "
          f"blas_threads={host['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"load={host['load_1m_at_start']:.2f} "
          f"commit={host['git_commit'][:12]}", file=out)
    if result["noisy"]:
        print("   WARNING: load average > 1 at start; run marked noisy",
              file=out)
    section = result["per_layer"] if result["trace"] \
        else result["end_to_end"]
    for name, entry in section.items():
        spread = ""
        if "q1" in entry:
            spread = f"   [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}]"
        if "as_measured" in entry:
            spread += f"  (as measured {entry['as_measured']:.6g})"
        print(f"   {name:<42} {entry['value']:>14.6g} {entry['unit']:<8}"
              f"{spread}", file=out)
    if not result["trace"]:
        for name, value in result["diagnostics"].items():
            print(f"   {name:<42} {value:>14.6g}", file=out)
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}", file=out)
    for note in result["failures"]:
        print(f"   FAIL: {note}", file=out)
