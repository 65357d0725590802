#!/usr/bin/env python3
"""Out-of-process benchmark of the ``repro`` CLI.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1      # every metric of every workload

One invocation prepares the workload's store if it needs one (untimed),
then launches the workload's CLI command again and again for ``--seconds``
seconds, checking every run's outputs (``checks.py``).  Before each launch
it times one bare ``import repro.cli`` launch; their median is
``setup_s`` (interpreter launch to ``repro.cli`` imported).  With ``--trace 0`` it reports the end-to-end metrics
(medians over the untraced runs); with ``--trace 1`` it alternates untraced
runs with runs under ``traced_cli.py`` and reports the per-layer metrics
(``layers.py``, medians over the traced runs).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The spans of every traced run are written to
``.perfbench-work/<workload>-seed<seed>.trace.jsonl`` when the benchmark
ends.

Workload argv templates and their reasons live in ``workloads.json``; units
and bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from checks import parse_summary, report_body, run_problems, store_rate_problems
from layers import METRICS as LAYER_METRICS
from layers import layer_metrics
from spans import read_spans

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
#: Minimum runs per mode (untraced, and traced with ``--trace 1``).
MIN_REPS = 3
#: A single CLI run taking longer than this is killed and counted as failed.
REP_TIMEOUT_S = 60.0
#: No new run starts once it would likely end past this many seconds.
RUN_BUDGET_S = 165.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Rep:
    """One launch of the workload's CLI command."""

    traced: bool
    wall_s: float
    rss_mb: float
    store_mb: float
    layers: Optional[Dict[str, float]] = None


def load_workloads() -> Dict[str, Any]:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def tree_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


class Checkout:
    """Launches Python processes against the checkout's ``src/``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.tmp = root / WORK_DIR / "tmp"
        self.env = dict(os.environ, PYTHONPATH=str(self.src), TMPDIR=str(self.tmp))
        # Launches read the bytecode ``verify`` compiles, as they would in an
        # installed or already-run checkout, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def launch(self, cmd: Sequence[str], log_stem: Path) -> tuple:
        """Run ``cmd``; returns (wall seconds, peak RSS MB, exit code, stdout)."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                list(cmd), cwd=self.root, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(REP_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the run left behind in its session
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()

    def verify(self, work: Path) -> None:
        """Byte-compile ``src/repro``; fail unless ``repro.cli`` imports from it."""
        if not (self.src / "repro" / "cli.py").is_file():
            raise BenchmarkError(f"no program to measure: {self.src / 'repro'} is missing")
        compile_cmd = [sys.executable, "-m", "compileall", "-q", str(self.src / "repro")]
        if self.launch(compile_cmd, work / "compile")[2] != 0:
            raise BenchmarkError(f"cannot byte-compile {self.src / 'repro'}")
        code = "import repro.cli, sys; sys.stdout.write(repro.cli.__file__)"
        _, _, status, out = self.launch([sys.executable, "-c", code], work / "verify")
        if status != 0 or Path(out).resolve() != (self.src / "repro" / "cli.py").resolve():
            raise BenchmarkError(f"repro.cli does not import from {self.src} (got {out!r})")

    def time_import(self, work: Path) -> float:
        wall, _, status, _ = self.launch([sys.executable, "-c", "import repro.cli"], work / "setup")
        if status != 0:
            raise BenchmarkError("import repro.cli failed")
        return wall


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _fill(argv: Sequence[str], seed: int, store: Path) -> List[str]:
    return [a.replace("{seed}", str(seed)).replace("{store}", str(store)) for a in argv]


def measure(
    checkout: Checkout,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
) -> Dict[str, Any]:
    """Run one workload for ``seconds``; returns the benchmark's result object."""
    begin = perf_counter()
    spec = load_workloads()["workloads"][name]
    work = checkout.root / WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checkout.verify(work)
    setup: List[float] = []

    prefix = "tiny_" if tiny else ""
    store = work / "store"
    all_spans: List[Dict[str, Any]] = []
    reference: Optional[str] = None
    expected_cells: Optional[int] = None
    attempted = failed = 0

    if spec["store"] == "prepared":
        cmd = [sys.executable, "-m", "repro", *_fill(spec[prefix + "prepare_argv"], seed, store)]
        _, _, status, report = checkout.launch(cmd, work / "prepare")
        problems = run_problems("cold", status, report)
        problems += store_rate_problems(store) if status == 0 else []
        attempted += 1
        if problems:
            failed += 1
            _warn(name, "prepare", problems)
        else:
            reference = report_body(report)
            expected_cells = parse_summary(report)["cells"]

    reps: List[Rep] = []
    loop_start = perf_counter()
    while True:
        index = len(reps)
        traced = trace and index % 2 == 1
        # One setup probe per run, so the probes spread over the whole
        # measurement instead of sharing a few seconds of host noise.
        setup.append(checkout.time_import(work))
        if spec["store"] == "fresh":
            shutil.rmtree(store, ignore_errors=True)
        argv = _fill(spec[prefix + "argv"], seed, store)
        trace_file = work / f"rep{index}.trace.jsonl"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        wall, rss, status, report = checkout.launch(cmd, work / f"rep{index}")
        problems = run_problems(spec["expect"], status, report, expected_cells)
        if status == 0 and spec["store"] == "fresh":
            problems += store_rate_problems(store)
        body = report_body(report)
        if reference is None and not problems:
            reference = body
        elif reference is not None and body != reference:
            problems.append("report differs from the first report at this seed")
        rep = Rep(traced, wall, rss, tree_mb(store) if store.exists() else 0.0)
        if traced and trace_file.exists():
            spans = read_spans(trace_file)
            for span in spans:
                span["rep"] = index
            all_spans.extend(spans)
            rep.layers = layer_metrics(spans, main_pid=_main_pid(spans))
            problems.extend(_tracer_problems(spec["expect"], report, rep.layers))
        reps.append(rep)
        attempted += 1
        if problems:
            failed += 1
            _warn(name, f"run {index}", problems)

        done = [r for r in reps if r.traced == traced]
        others = [r for r in reps if r.traced != traced]
        enough = len(done) >= MIN_REPS and (not trace or len(others) >= MIN_REPS)
        now = perf_counter()
        if now - loop_start >= seconds and enough:
            break
        if now - begin + 1.5 * wall > RUN_BUDGET_S:
            break

    trace_out = checkout.root / WORK_DIR / f"{name}-seed{seed}.trace.jsonl"
    if all_spans:
        with trace_out.open("w", encoding="utf-8") as handle:
            for span in all_spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in reps if not r.traced]
    traced_reps = [r for r in reps if r.layers is not None]
    if trace:
        metrics = {
            metric: _median([r.layers[metric] for r in traced_reps])
            for metric in LAYER_METRICS
            if metric != "trace.overhead_frac"
        }
        base = _median([r.wall_s for r in untraced])
        traced_wall = _median([r.wall_s for r in reps if r.traced])
        metrics["trace.overhead_frac"] = (traced_wall - base) / base if base > 0 else 0.0
    else:
        metrics = {
            "wall_s": _median([r.wall_s for r in untraced]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": _median([r.rss_mb for r in untraced]),
            "store_mb": _median([r.store_mb for r in untraced]),
            "ok_frac": (attempted - failed) / attempted,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": len(traced_reps) if trace else len(untraced),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _main_pid(spans: List[Dict[str, Any]]) -> int:
    return next(s["pid"] for s in spans if s["name"] == "cli.main")


def _tracer_problems(expect: str, report: str, layers: Dict[str, float]) -> List[str]:
    """The trace must account for every simulated cell, or its figures mislead."""
    summary = parse_summary(report)
    simulated = summary["simulated"] if summary is not None else None
    cells = layers["runner.cells.count"]
    if simulated is not None and cells != simulated:
        return [f"trace recorded {cells} cell runs, the report says {simulated} simulated"]
    if expect == "any" and cells < 1:
        return ["trace recorded no cell runs"]
    return []


def _warn(name: str, what: str, problems: List[str]) -> None:
    for problem in problems:
        print(f"perfbench: {name} {what}: {problem}", file=sys.stderr)


def _units(root: Path) -> Dict[str, str]:
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def _print_table(rows: List[List[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(load_workloads()["workloads"]))
    parser.add_argument("--all", action="store_true", help="every workload, both trace modes")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME and --all")

    root = Path.cwd()
    try:
        units = _units(root)
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
        checkout = Checkout(root)
        if args.all:
            return _run_all(checkout, args.seed, seconds, units)
        result = measure(checkout, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchmarkError, FileNotFoundError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    samples = result.pop("samples")
    rows = [["metric", "value", "unit", "runs"]]
    for metric, value in result["metrics"].items():
        rows.append([metric, f"{value:.6g}", units[metric], str(samples)])
    _print_table(rows)
    result["metrics"] = {
        metric: {"value": value, "unit": units[metric]}
        for metric, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


def _run_all(checkout: Checkout, seed: int, seconds: float, units: Dict[str, str]) -> int:
    rows = [["workload", "metric", "value", "unit", "runs", "correct"]]
    all_correct = True
    for name in load_workloads()["workloads"]:
        for trace in (False, True):
            result = measure(checkout, name, seed, seconds, trace)
            all_correct = all_correct and result["correct"]
            for metric, value in result["metrics"].items():
                rows.append([
                    name, metric, f"{value:.6g}", units[metric], str(result["samples"]),
                    str(result["correct"]),
                ])
    _print_table(rows)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
