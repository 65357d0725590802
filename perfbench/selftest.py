#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (about a minute on 2 CPUs).

    python3 perfbench/selftest.py          # from the root of a checkout

1. Runs every workload with its ``tiny_argv`` in both trace modes and checks
   that the runs pass, that each mode reports exactly the metrics
   ``BENCHMARK.json`` lists, and that the layer split holds: event-engine
   captures only on fig6-routed, bootstrap calls only on ci-replay, no store
   writes on ci-replay.
2. Doctors real outputs — a stored detection rate of 1.5, a replay summary
   that simulated a cell, a cold summary with a cache hit, a report that
   changed by one character, a failed exit — and checks that every one of
   them fails the correctness checks, because a check that cannot fail
   protects nothing.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and checks that it exits non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

from checks import parse_summary, report_body, run_problems, store_rate_problems
from run import HERE, WORK_DIR, Checkout, _fill, load_workloads, measure

SEED = 11


def _expect(condition: bool, message: str, failures: List[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_workloads(checkout: Checkout, failures: List[str]) -> None:
    benchmark = json.loads((checkout.root / "BENCHMARK.json").read_text())
    expected = {
        False: [m["name"] for m in benchmark["end_to_end"]],
        True: [m["name"] for m in benchmark["per_layer"]],
    }
    for name in load_workloads()["workloads"]:
        for trace in (False, True):
            result = measure(checkout, name, SEED, seconds=0.0, trace=trace, tiny=True)
            metrics = result["metrics"]
            what = f"{name} trace={int(trace)}"
            _expect(result["correct"] and result["failed"] == 0, f"{what}: every run correct", failures)
            _expect(list(metrics) == expected[trace], f"{what}: reports exactly the listed metrics", failures)
            _expect(all(math.isfinite(v) for v in metrics.values()), f"{what}: finite values", failures)
            if not trace:
                continue
            events = metrics["capture.event_calls"]
            bootstraps = metrics["stats.bootstrap_calls"]
            if name == "fig6-routed":
                _expect(events > 0, f"{what}: event-engine captures > 0", failures)
            else:
                _expect(events == 0, f"{what}: no event-engine captures", failures)
            if name == "ci-replay":
                _expect(bootstraps > 0, f"{what}: bootstrap calls > 0", failures)
                _expect(metrics["runner.store.put_calls"] == 0, f"{what}: no store writes", failures)
            else:
                _expect(bootstraps == 0, f"{what}: no bootstrap calls", failures)


def check_doctored(checkout: Checkout, failures: List[str]) -> None:
    work = checkout.root / WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    store = work / "store"
    spec = load_workloads()["workloads"]["paper-cold"]
    argv = _fill(spec["tiny_argv"], SEED, store)
    _, _, status, report = checkout.launch([sys.executable, "-m", "repro", *argv], work / "cold")
    _expect(status == 0 and not run_problems("cold", status, report), "tiny cold run passes", failures)
    _expect(not store_rate_problems(store), "tiny cold store passes", failures)

    shard = next(
        path
        for path in sorted(store.glob("??/*.jsonl"))
        if '"empirical_detection_rate"' in path.read_text()
    )
    record = json.loads(shard.read_text().splitlines()[-1])
    rates = record["result"]["empirical_detection_rate"]
    feature = sorted(rates)[0]
    rates[feature][sorted(rates[feature])[0]] = 1.5
    shard.write_text(json.dumps(record, sort_keys=True) + "\n")
    _expect(bool(store_rate_problems(store)), "doctored: detection rate 1.5 is caught", failures)

    cells = parse_summary(report)["cells"]
    doctored_warm = report.replace(
        f"{cells} simulated, 0 cache hits", f"1 simulated, {cells - 1} cache hits"
    )
    _expect(bool(run_problems("warm", 0, doctored_warm, cells)), "doctored: replay that simulated a cell is caught", failures)
    doctored_cold = report.replace(
        f"{cells} simulated, 0 cache hits", f"{cells - 1} simulated, 1 cache hits"
    )
    _expect(bool(run_problems("cold", 0, doctored_cold)), "doctored: cold run with a cache hit is caught", failures)
    _expect(bool(run_problems("cold", 0, report_body(report))), "doctored: missing summary is caught", failures)
    _expect(bool(run_problems("any", 1, report)), "doctored: non-zero exit is caught", failures)
    changed = report.replace("0.", "1.", 1)
    _expect(report_body(changed) != report_body(report), "doctored: a one-character report change is caught", failures)
    shutil.rmtree(work, ignore_errors=True)


def check_bare_directory(checkout: Checkout, failures: List[str]) -> None:
    bare = checkout.root / WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(checkout.root / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    _expect(proc.returncode != 0, "bare directory: exits non-zero", failures)
    _expect(not lines or '"correct"' not in lines[-1], "bare directory: prints no result", failures)
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    checkout = Checkout(Path.cwd())
    failures: List[str] = []
    check_doctored(checkout, failures)
    check_bare_directory(checkout, failures)
    check_workloads(checkout, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
