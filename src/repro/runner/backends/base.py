"""The execution-backend contract shared by every sweep execution strategy.

:class:`~repro.runner.runner.SweepRunner` owns *what* to run — cache
partitioning, accounting, the single-writer store — and delegates *how* to
run it to an :class:`ExecutionBackend`.  A backend receives a list of cells
(two-level cells resolve their own gateway capture where they run, see
:mod:`repro.runner.capture`) and yields exactly one terminal outcome per
cell: the computed :class:`~repro.runner.cells.CellResult`, or a
:class:`TaskFailure` marker naming the cell that kept failing.  Outcomes may
arrive in any order; the runner re-orders results by cell key, which is what
makes every backend byte-identical at any worker count.

Three backends ship with the package:

* ``serial`` (:mod:`repro.runner.backends.serial`) — in-process, zero
  pool/pickle overhead; the fast path for warm sweeps and small grids.
* ``process`` (:mod:`repro.runner.backends.process`) — the historical
  :mod:`multiprocessing` pool with per-attempt timeouts, bounded retries and
  pool recycling.
* ``queue`` (:mod:`repro.runner.backends.queue`) — a filesystem work queue at
  the store root, drained by pull-based ``repro worker`` processes on any
  host sharing the store (see ``docs/distributed.md``).
"""

from __future__ import annotations

import os
import traceback
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.runner.cells import CellResult, SweepCell


@dataclass(frozen=True)
class TaskFailure:
    """Picklable failure marker returned by a worker instead of raising.

    Raising inside a pool would surface the exception without the cell
    identity (and an unpicklable exception would deadlock the pool), so
    workers catch everything and let the parent raise a
    :class:`~repro.exceptions.SweepError`.
    """

    key: str
    error: str
    worker_traceback: str


#: What a backend yields, one per cell.
TaskOutcome = Union[CellResult, TaskFailure]


def execute_task(cell: SweepCell) -> TaskOutcome:
    """Run one cell, converting any exception to a :class:`TaskFailure`.

    The entry point every backend funnels work through — pool workers,
    queue workers and the in-process serial loop alike.  ``run_cell`` is
    resolved through :mod:`repro.runner.runner` at call time (not import
    time) so a patched ``repro.runner.runner.run_cell`` — the seam the
    fault-injection tests use — is honoured by every backend, including
    fork-started workers that inherit the patch.
    """
    import repro.runner.runner as _runner

    try:
        return _runner.run_cell(cell)
    except Exception as exc:
        return TaskFailure(
            key=cell.key,
            error=f"{type(exc).__name__}: {exc}",
            worker_traceback=traceback.format_exc(),
        )


def available_cpu_count() -> int:
    """CPUs actually available to this process, honouring affinity masks.

    ``os.cpu_count()`` reports the machine's CPUs regardless of how few the
    scheduler lets this process use — in a containerised CI runner pinned to
    one core it happily claims 16, and a ``--jobs auto`` sized from it would
    oversubscribe the pool.  Prefer ``os.process_cpu_count()`` (Python
    3.13+), then the Linux affinity mask, then fall back to the raw count.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return int(count)
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = os.sched_getaffinity(0)
        except OSError:  # pragma: no cover - affinity query denied
            affinity = None
        if affinity:
            return len(affinity)
    return os.cpu_count() or 1


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Normalise a ``--jobs`` value: ``"auto"`` means the available CPUs."""
    if jobs == "auto":
        return available_cpu_count()
    try:
        return int(jobs)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"jobs={jobs!r} must be a positive integer or 'auto'"
        ) from None


class ExecutionBackend(ABC):
    """How a list of sweep cells gets executed.

    The contract:

    * :meth:`execute` yields exactly one terminal outcome per cell, in any
      order.  A cell that keeps failing yields a :class:`TaskFailure` rather
      than raising, so the caller can name the cell in its error.
    * Execution goes through :func:`execute_task`: cells are pure functions
      of their configuration, so *where* they run never changes the numbers
      — the determinism contract every backend inherits.
    * Backends never write the results store; the parent process is the
      single writer.
    """

    #: CLI name of the backend (``--backend <name>``).
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def execute(self, tasks: List[SweepCell]) -> Iterator[TaskOutcome]:
        """Run every cell, yielding one terminal outcome per cell."""

    # Shared retry bookkeeping -------------------------------------------------
    def _report(self, line: str) -> None:
        progress = getattr(self, "_progress", None)
        if progress is not None:
            progress(line)


def validate_retries(retries: int) -> int:
    if retries < 0:
        raise ConfigurationError(f"retries={retries!r} must be >= 0")
    return retries


ProgressFn = Optional[Callable[[str], None]]

__all__ = [
    "ExecutionBackend",
    "ProgressFn",
    "TaskFailure",
    "TaskOutcome",
    "available_cpu_count",
    "execute_task",
    "resolve_jobs",
    "validate_retries",
]
