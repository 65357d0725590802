"""Pluggable sweep execution backends.

One contract (:class:`~repro.runner.backends.base.ExecutionBackend`), three
strategies: ``serial`` (in-process fast path), ``process`` (the historical
multiprocessing pool with timeouts and recycling) and ``queue`` (a
filesystem work queue drained by pull-based workers — see
``docs/distributed.md``).  :func:`create_backend` is the single factory the
runner and CLI go through.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigurationError
from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    TaskFailure,
    TaskOutcome,
    available_cpu_count,
    execute_task,
    resolve_jobs,
)
from repro.runner.backends.process import ProcessBackend, default_mp_context
from repro.runner.backends.queue import (
    DrainReport,
    QueueBackend,
    WorkQueue,
    default_worker_id,
    drain_pending,
    run_worker,
)
from repro.runner.backends.serial import SerialBackend
from repro.runner.store import ResultsStore

#: The ``--backend`` vocabulary, in documentation order.
BACKEND_NAMES = ("serial", "process", "queue")


def create_backend(
    name: str,
    jobs: int = 1,
    store: Optional[ResultsStore] = None,
    mp_context: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    progress: ProgressFn = None,
    **options: object,
) -> ExecutionBackend:
    """Build the named backend from the runner's configuration.

    Extra keyword ``options`` are forwarded to backends that understand them
    (the queue backend's ``lease_timeout`` / ``poll_interval`` /
    ``wait_timeout`` / ``spawn_workers``); naming an option the selected
    backend does not take is a configuration error.
    """
    if name == "serial":
        if timeout is not None:
            raise ConfigurationError(
                f"timeout={timeout!r} cannot be enforced by the serial backend "
                f"(a stuck cell cannot be reclaimed in-process); use "
                f"--backend process"
            )
        _reject_options("serial", options)
        return SerialBackend(retries=retries, progress=progress)
    if name == "process":
        _reject_options("process", options)
        return ProcessBackend(
            jobs=jobs,
            mp_context=mp_context,
            timeout=timeout,
            retries=retries,
            progress=progress,
        )
    if name == "queue":
        if timeout is not None:
            raise ConfigurationError(
                f"timeout={timeout!r} is not supported by the queue backend; "
                f"stuck workers are handled by lease expiry (lease_timeout) "
                f"instead"
            )
        try:
            return QueueBackend(
                store,
                workers=jobs,
                retries=retries,
                progress=progress,
                mp_context=mp_context,
                **options,  # type: ignore[arg-type]
            )
        except TypeError as exc:
            raise ConfigurationError(f"queue backend: {exc}") from None
    raise ConfigurationError(
        f"backend={name!r} must be one of {', '.join(BACKEND_NAMES)}"
    )


def _reject_options(name: str, options: dict) -> None:
    if options:
        raise ConfigurationError(
            f"the {name} backend does not take option(s) "
            f"{', '.join(sorted(options))}"
        )


__all__ = [
    "BACKEND_NAMES",
    "DrainReport",
    "ExecutionBackend",
    "ProcessBackend",
    "ProgressFn",
    "QueueBackend",
    "SerialBackend",
    "TaskFailure",
    "TaskOutcome",
    "WorkQueue",
    "available_cpu_count",
    "create_backend",
    "default_mp_context",
    "default_worker_id",
    "drain_pending",
    "execute_task",
    "resolve_jobs",
    "run_worker",
]
