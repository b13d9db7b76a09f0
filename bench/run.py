#!/usr/bin/env python3
"""The repository's benchmark.

    python3 bench/run.py --list
    python3 bench/run.py --workload serve_cold [--seed N] [--seconds S]
    python3 bench/run.py --workload serve_cold --trace 1
    python3 bench/run.py --all [--trace 1] [--out runs.jsonl]

Prints every metric by name with its unit, checks the program's outputs
against the reference lanes, and exits non-zero on any miss.  The last
line of standard output is the JSON object ``BENCHMARK.json``'s driver
reads.  See ``bench/README.md``.
"""

import os
import sys

# Before numpy is imported anywhere: one BLAS thread, so that the load
# the benchmark generates is the only parallelism on the host.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: no program source under src/repro; the benchmark "
              "measures the checkout it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    from batch import BatchRoutes
    from serve import ServeCold, ServeHot, ServeRescore
    from train import TrainEpochs

    workloads = {cls.name: cls for cls in (
        ServeHot, ServeRescore, ServeCold, TrainEpochs, BatchRoutes)}
    contract = harness.load_contract()
    constants = harness.load_constants()

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--all", action="store_true",
                        help="run every workload")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and metrics, then exit")
    parser.add_argument("--seed", type=int, default=constants["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny preset for the tier-1 smoke test")
    parser.add_argument("--out", help="append each result record (one JSON "
                                      "line) to this file, for compare.py")
    parser.add_argument("--update-pins", action="store_true",
                        help="record this run's inputs in pins.json "
                             "(default seed only)")
    parser.add_argument("--inject", choices=("unknown_vertex",
                                             "oracle_mismatch"),
                        help="testing seam: force a failure")
    args = parser.parse_args(argv)

    if args.list:
        for entry in contract["workloads"]:
            print(f"{entry['name']:<16} {entry['why']}")
        for kind in ("end_to_end", "per_layer"):
            for metric in contract[kind]:
                print(f"{kind:<11} {metric['name']:<44} {metric['unit']:<8} "
                      f"better={metric['better']}")
        return 0
    names = [w["name"] for w in contract["workloads"]] if args.all \
        else [args.workload]
    if names == [None]:
        parser.error("one of --workload, --all, --list is required")

    preset = "smoke" if args.smoke else "full"
    seconds = min(args.seconds, 0.2) if args.smoke else args.seconds
    status = 0
    for name in names:
        try:
            result = harness.run_workload(
                workloads[name], preset=preset, seed=args.seed,
                seconds=seconds, trace=bool(args.trace), inject=args.inject,
                update_pins=args.update_pins)
        except harness.InputsDrifted as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 3
        harness.report(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps(result) + "\n")
        print(harness.contract_line(result, contract), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
