"""The CLI runs without scipy and networkx.

scipy is a test-only dependency (the oracle for the closed-form statistics)
and networkx backs only the graph views used for inspection, so no CLI path
may import either.  Each test runs the CLI in a fresh interpreter whose
``sys.meta_path`` refuses both packages, the way an install without them
would.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.api import list_experiments

SRC = Path(__file__).resolve().parents[1] / "src"

#: Installed ahead of every other finder: importing a blocked package fails.
BLOCKER = """
import sys

class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _Blocked())
"""

RUN_CLI = """
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def without_summary(report: str) -> str:
    return "\n".join(line for line in report.splitlines() if "sweep summary:" not in line)


def test_importing_the_cli_loads_neither_package(tmp_path):
    code = BLOCKER + (
        "import repro.cli\n"
        "assert 'scipy' not in sys.modules and 'networkx' not in sys.modules\n"
    )
    result = run_python(code, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_smoke_sweep_of_every_experiment_runs_blocked_with_identical_reports(tmp_path):
    argv = ["sweep", "--preset", "smoke", "--backend", "serial", "--experiments"]
    argv += list_experiments()
    blocked = run_python(BLOCKER + RUN_CLI, *argv, cwd=tmp_path)
    assert blocked.returncode == 0, blocked.stderr
    unblocked = run_python("import sys\n" + RUN_CLI, *argv, cwd=tmp_path)
    assert unblocked.returncode == 0, unblocked.stderr
    assert "sweep summary:" in blocked.stdout
    assert without_summary(blocked.stdout) == without_summary(unblocked.stdout)
