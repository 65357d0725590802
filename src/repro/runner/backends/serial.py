"""The serial backend: every task runs inline in the parent process.

No pool, no pickling, no worker startup — for warm sweeps and small grids
the dominant cost of the process backend is forking and tearing down its
pool, which since the vectorized capture kernel (PR 6) routinely exceeds the
simulation time itself.  The serial loop is also the reference
implementation for the bit-identical-at-any-backend guarantee: one task at a
time, in submission order, with the same bounded-retry semantics as every
other backend.

A per-attempt ``timeout`` cannot be enforced in-process (a stuck cell cannot
be reclaimed from inside its own interpreter), so the runner rejects
``--timeout`` with this backend and points at ``process``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List

from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    TaskFailure,
    TaskOutcome,
    execute_task,
    validate_retries,
)
from repro.runner.cells import SweepCell


class SerialBackend(ExecutionBackend):
    """In-process execution with bounded retries, one task at a time."""

    name = "serial"

    def __init__(self, retries: int = 0, progress: ProgressFn = None) -> None:
        self.retries = validate_retries(retries)
        self._progress = progress

    def execute(self, tasks: List[SweepCell]) -> Iterator[TaskOutcome]:
        if not tasks:
            return
        attempts = {i: 1 for i in range(len(tasks))}
        queue: deque = deque(enumerate(tasks))
        max_attempts = self.retries + 1
        while queue:
            index, task = queue.popleft()
            outcome = execute_task(task)
            if isinstance(outcome, TaskFailure) and attempts[index] < max_attempts:
                attempts[index] += 1
                self._report(
                    f"cell {outcome.key}: failed, retrying "
                    f"(attempt {attempts[index]}/{max_attempts})"
                )
                queue.append((index, task))
                continue
            yield outcome


__all__ = ["SerialBackend"]
