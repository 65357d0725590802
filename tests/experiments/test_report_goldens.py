"""Golden files for every registered experiment's cells and report bytes.

Two contracts are pinned against fixtures under
``tests/fixtures/report_goldens/``:

* ``cells.json`` — the ``(cell key, fingerprint)`` list of every registered
  experiment at every preset and master seed 2003.  Fingerprints are the
  results store's content addresses; a drift here colds every cache and
  orphans the committed ``sweep_cache`` fixture.  Building cells runs no
  simulation, so even the paper presets are cheap.
* ``<experiment>-<case>.txt`` — the rendered ``to_text()`` report of every
  experiment at every preset, and at ``smoke`` over two and over three seeds
  with 95 % bootstrap intervals.

A mismatch fails with a unified diff of golden against actual.  Regenerate
the fixtures only after an intentional change to what the experiments
compute, with the snippet in ``docs/determinism.md``.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import PRESETS, get_experiment, list_experiments
from repro.runner import SweepRunner

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "report_goldens"

SEED = 2003
MULTI_SEEDS = (2003, 2004)
#: An odd seed count: bootstrap resamples over three values, not just two.
ODD_SEEDS = (2003, 2004, 2005)
CONFIDENCE = 0.95

#: (fixture stem, experiment, preset, seeds, confidence) per golden report.
Case = Tuple[str, str, str, Optional[Tuple[int, ...]], Optional[float]]


def report_cases() -> List[Case]:
    """Every golden report case, in a stable order."""
    cases: List[Case] = []
    for name in list_experiments():
        for preset in ("smoke", "quick", "fast", "paper"):
            cases.append((f"{name}-{preset}", name, preset, None, None))
        cases.append(
            (f"{name}-smoke-seeds2003-2004-ci95", name, "smoke", MULTI_SEEDS, CONFIDENCE)
        )
        cases.append(
            (f"{name}-smoke-seeds2003-2005-ci95", name, "smoke", ODD_SEEDS, CONFIDENCE)
        )
    return cases


def render_report(
    name: str, preset: str, seeds: Optional[Tuple[int, ...]], confidence: Optional[float]
) -> str:
    """One experiment's report, run in-process on the serial backend."""
    experiment = get_experiment(name, preset=preset, seed=SEED)
    result = experiment.run(SweepRunner(backend="serial"), seeds=seeds, confidence=confidence)
    return result.to_text()


def cell_identities() -> Dict[str, Dict[str, List[List[str]]]]:
    """``{experiment: {preset: [[cell key, fingerprint], ...]}}`` at seed 2003."""
    return {
        name: {
            preset: [
                [cell.key, cell.fingerprint()]
                for cell in get_experiment(name, preset=preset, seed=SEED).cells()
            ]
            for preset in PRESETS
        }
        for name in list_experiments()
    }


def _cells_text(identities) -> str:
    return json.dumps(identities, indent=1) + "\n"


def write_goldens() -> None:
    """Rewrite every fixture from the current code (see docs/determinism.md)."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    (GOLDEN_DIR / "cells.json").write_text(_cells_text(cell_identities()))
    for stem, name, preset, seeds, confidence in report_cases():
        text = render_report(name, preset, seeds, confidence)
        (GOLDEN_DIR / f"{stem}.txt").write_text(text)


def _assert_golden(path: Path, actual: str) -> None:
    expected = path.read_text()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{path.name}",
                tofile=f"actual/{path.name}",
            )
        )
        pytest.fail(f"{path.name} drifted from its golden file:\n{diff}", pytrace=False)


def test_cell_keys_and_fingerprints_match_the_golden():
    _assert_golden(GOLDEN_DIR / "cells.json", _cells_text(cell_identities()))


@pytest.mark.parametrize(
    "stem, name, preset, seeds, confidence",
    report_cases(),
    ids=[case[0] for case in report_cases()],
)
def test_report_matches_the_golden(stem, name, preset, seeds, confidence):
    _assert_golden(GOLDEN_DIR / f"{stem}.txt", render_report(name, preset, seeds, confidence))
