"""The process backend: a multiprocessing pool with timeouts and recycling.

This is the historical ``SweepRunner`` fan-out, moved verbatim onto the
:class:`~repro.runner.backends.base.ExecutionBackend` contract so its
behaviour stays pinned by the existing runner tests:

* at most ``jobs`` tasks in flight, submitted via ``apply_async`` so a
  per-attempt clock starts the moment a task is handed to a worker;
* the loop wakes as soon as a task finishes: each submission's completion
  callback puts the task's index on the pool's queue, and the loop blocks on
  that queue for at most one poll interval, the cadence of the timeout scan;
* a task still running past ``timeout`` is charged an attempt; because a
  stuck worker cannot be reclaimed cooperatively, the whole pool is
  recycled — innocent in-flight tasks are requeued *at no retry cost* and
  restart in a fresh pool;
* a failing task retries up to ``retries`` extra times before its
  :class:`~repro.runner.backends.base.TaskFailure` is yielded.

When there is nothing to parallelise and no timeout to enforce (``jobs == 1``
or a single task), the backend runs the serial loop instead of paying for a
one-worker pool — the same inline path the runner always took.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import sys
import time
from collections import deque
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    Task,
    TaskFailure,
    TaskOutcome,
    execute_task,
    task_key,
    task_unit,
    validate_retries,
)
from repro.runner.backends.serial import SerialBackend


def default_mp_context() -> str:
    """The trusted multiprocessing start method for this platform.

    ``fork`` is only trusted on Linux; macOS lists it as available but
    forking a parent with initialized BLAS/ObjC state is unsafe (CPython
    itself switched the macOS default to spawn in 3.8).
    """
    return "fork" if sys.platform == "linux" else "spawn"


def _put_index(finished: queue_module.SimpleQueue, index: int, _result: object) -> None:
    """Completion callback (success or error): wake the loop with the task's index."""
    finished.put(index)


class ProcessBackend(ExecutionBackend):
    """Pool-based execution with per-attempt timeouts and pool recycling."""

    name = "process"

    #: Longest wait for a task to finish between two timeout scans.
    _POLL_INTERVAL = 0.02

    def __init__(
        self,
        jobs: int = 1,
        mp_context: Optional[str] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        progress: ProgressFn = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs={jobs!r} must be >= 1")
        if timeout is not None and not timeout > 0.0:
            raise ConfigurationError(f"timeout={timeout!r} must be positive seconds")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = validate_retries(retries)
        self._mp_context = mp_context if mp_context is not None else default_mp_context()
        self._progress = progress

    def execute(self, tasks: List[Task]) -> Iterator[TaskOutcome]:
        if not tasks:
            return
        use_pool = self.timeout is not None or (self.jobs > 1 and len(tasks) > 1)
        if not use_pool:
            # Nothing to parallelise and no timeout to enforce: the serial
            # loop is behaviourally identical and skips the pool startup.
            yield from SerialBackend(
                retries=self.retries, progress=self._progress
            ).execute(tasks)
            return

        attempts: Dict[int, int] = {i: 1 for i in range(len(tasks))}
        queue: deque = deque(enumerate(tasks))
        max_attempts = self.retries + 1
        context = multiprocessing.get_context(self._mp_context)
        while queue:
            workers = min(self.jobs, len(queue))
            pool = context.Pool(processes=workers)
            # One queue per pool, so a recycled pool leaves no stale wake-ups:
            # every index on it is a task in flight in this pool.
            finished: queue_module.SimpleQueue = queue_module.SimpleQueue()
            recycle_pool = False
            try:
                in_flight: Dict[int, Tuple] = {}  # index -> (async result, started, task)
                while queue or in_flight:
                    while queue and len(in_flight) < workers:
                        index, task = queue.popleft()
                        wake = partial(_put_index, finished, index)
                        in_flight[index] = (
                            pool.apply_async(
                                execute_task, (task,), callback=wake, error_callback=wake
                            ),
                            time.monotonic(),
                            task,
                        )
                    try:
                        done = finished.get(timeout=self._POLL_INTERVAL)
                    except queue_module.Empty:
                        pass
                    else:
                        async_result, _, task = in_flight.pop(done)
                        outcome = async_result.get()
                        if (
                            isinstance(outcome, TaskFailure)
                            and attempts[done] < max_attempts
                        ):
                            attempts[done] += 1
                            self._report(
                                f"{outcome.unit} {outcome.key}: failed, retrying "
                                f"(attempt {attempts[done]}/{max_attempts})"
                            )
                            queue.append((done, task))
                        else:
                            yield outcome
                    if self.timeout is not None:
                        now = time.monotonic()
                        expired = [
                            i
                            for i, (a, started, _) in in_flight.items()
                            if now - started > self.timeout
                        ]
                        if expired:
                            # The stuck workers cannot be reclaimed: recycle
                            # the whole pool.  Expired tasks are charged an
                            # attempt; innocent in-flight tasks are requeued
                            # free and restart in the fresh pool.
                            for index in expired:
                                _, _, task = in_flight.pop(index)
                                unit = task_unit(task)
                                if attempts[index] < max_attempts:
                                    attempts[index] += 1
                                    self._report(
                                        f"{unit} {task_key(task)}: timed out after "
                                        f"{self.timeout:g}s, retrying "
                                        f"(attempt {attempts[index]}/{max_attempts})"
                                    )
                                    queue.append((index, task))
                                else:
                                    yield TaskFailure(
                                        key=task_key(task),
                                        error=(
                                            f"timed out after {self.timeout:g}s "
                                            f"({max_attempts} attempt(s))"
                                        ),
                                        worker_traceback="(worker terminated on timeout)",
                                        unit=unit,
                                    )
                            for index, (_, _, task) in in_flight.items():
                                queue.append((index, task))
                            in_flight.clear()
                            recycle_pool = True
                            break
                if not recycle_pool:
                    return
            finally:
                pool.terminate()
                pool.join()


__all__ = ["ProcessBackend", "default_mp_context"]
