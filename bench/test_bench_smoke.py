"""Tier-1 smoke test of the benchmark (``--smoke`` preset, a few seconds).

Runs ``bench/run.py`` the way the driver does — as a subprocess from the
repository root — and checks the contract: the output schema, the name
alphabet and counts, that every ``BENCHMARK.json`` metric is printed
with its unit, that a failing operation and a wrong answer both reach
``failed`` and the exit code, and that nothing outlives a run.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str) -> tuple[int, list[dict], str]:
    """(exit code, the JSON result lines, full stdout) of one invocation."""
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= shm_before, \
            "a run left a /dev/shm segment behind"
    assert "left behind" not in done.stdout, done.stdout
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    return done.returncode, results, done.stdout


def check_line(result: dict, metrics: list[dict], stdout: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        # ... and by name with its unit in the human-readable part.
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                         rf"{re.escape(metric['unit'])}\b", stdout, re.M), \
            metric["name"]


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in CONTRACT["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])


def test_all_workloads_run_clean_and_print_every_end_to_end_metric():
    code, results, stdout = run_bench("--all")
    assert code == 0, stdout
    assert len(results) == len(CONTRACT["workloads"])
    for workload in CONTRACT["workloads"]:
        assert f"== {workload['name']} " in stdout
    for result in results:
        assert result["correct"] is True and result["failed"] == 0
        check_line(result, CONTRACT["end_to_end"], stdout)
        assert all(entry["value"] > 0.0
                   for entry in result["metrics"].values())
    assert "failed_share" in stdout


def test_traced_run_prints_every_per_layer_metric_and_writes_spans():
    code, results, stdout = run_bench("--workload", "serve_rescore",
                                      "--trace", "1")
    assert code == 0, stdout
    check_line(results[-1], CONTRACT["per_layer"], stdout)
    spans = (ROOT / "bench" / "out" / "serve_rescore.trace.jsonl")
    rows = [json.loads(line) for line in
            spans.read_text(encoding="utf-8").splitlines()]
    assert rows and set(rows[0]) == {"id", "name", "start", "end",
                                     "parent", "op"}
    assert any(row["parent"] is not None for row in rows)


@pytest.mark.parametrize("workload, inject", [
    ("serve_cold", "unknown_vertex"),      # an operation that fails
    ("batch_routes", "oracle_mismatch"),   # an answer the oracle rejects
])
def test_a_miss_reaches_failed_and_the_exit_code(workload, inject):
    code, results, stdout = run_bench("--workload", workload,
                                      "--inject", inject)
    assert code != 0
    assert results[-1]["correct"] is False and results[-1]["failed"] > 0
    share = re.search(r"failed_share\s+(\S+)", stdout)
    assert share and float(share.group(1)) > 0.0
    assert "FAIL:" in stdout
