"""Correctness checks on the outputs of one benchmark CLI run.

No report digest is committed, so a change that legitimately alters report
text keeps passing; what is checked instead holds for any correct program:

* the run exits 0;
* a cold sweep simulates every cell and hits the cache for none, a replay
  against a filled store hits it for every cell and simulates none;
* every detection rate stored for a cell lies in [0, 1];
* reports are byte-identical across runs at one seed, ignoring the
  ``sweep summary:`` line (checked by ``run.py`` with :func:`report_body`).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

SUMMARY_PREFIX = "sweep summary:"
_SUMMARY_RE = re.compile(r"sweep summary: (\d+) cells, (\d+) simulated, (\d+) cache hits")


def report_body(report: str) -> str:
    """The report without its ``sweep summary:`` line (which varies with jobs)."""
    return "\n".join(
        line for line in report.splitlines() if not line.startswith(SUMMARY_PREFIX)
    )


def parse_summary(report: str) -> Optional[Dict[str, int]]:
    """``cells``/``simulated``/``hits`` from the sweep summary line, if any."""
    match = _SUMMARY_RE.search(report)
    if match is None:
        return None
    cells, simulated, hits = (int(group) for group in match.groups())
    return {"cells": cells, "simulated": simulated, "hits": hits}


def _rates(node: Any) -> Iterator[Any]:
    if isinstance(node, dict):
        for value in node.values():
            yield from _rates(value)
    else:
        yield node


def store_rate_problems(store: Path) -> List[str]:
    """Problems with the detection rates of every cell record in ``store``."""
    problems: List[str] = []
    cells = 0
    for shard in sorted(store.glob("??/*.jsonl")):
        for line in shard.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") != "cell":
                continue
            cells += 1
            for rate in _rates(record["result"].get("empirical_detection_rate", {})):
                if not isinstance(rate, (int, float)) or not (
                    math.isfinite(rate) and 0.0 <= rate <= 1.0
                ):
                    problems.append(f"{shard.name}: detection rate {rate!r} outside [0, 1]")
    if cells == 0:
        problems.append(f"no cell records in store {store}")
    return problems


def run_problems(
    expect: str,
    returncode: int,
    report: str,
    expected_cells: Optional[int] = None,
) -> List[str]:
    """Problems with one run's exit code and cache accounting.

    ``expect`` is ``cold`` (every cell simulated), ``warm`` (every cell a
    cache hit; ``expected_cells`` is the count of the run that filled the
    store) or ``any`` (no sweep summary to check).
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if expect == "any":
        return []
    summary = parse_summary(report)
    if summary is None:
        return ["no sweep summary line in the report"]
    problems = []
    cells, simulated, hits = summary["cells"], summary["simulated"], summary["hits"]
    if cells < 1:
        problems.append("the sweep ran no cells")
    if expect == "cold" and (simulated != cells or hits != 0):
        problems.append(f"cold run: {simulated} simulated and {hits} hits of {cells} cells")
    if expect == "warm":
        if hits != cells or simulated != 0:
            problems.append(f"replay: {simulated} simulated and {hits} hits of {cells} cells")
        if expected_cells is not None and cells != expected_cells:
            problems.append(f"replay saw {cells} cells, the filled store holds {expected_cells}")
    return problems
