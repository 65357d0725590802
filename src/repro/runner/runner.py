"""The sweep runner: cache partitioning, execution, accounting.

:class:`SweepRunner` executes a grid of :class:`~repro.runner.cells.SweepCell`
objects, delegating *how* cache misses run to a pluggable
:class:`~repro.runner.backends.base.ExecutionBackend` — ``serial`` (inline,
zero pool overhead), ``process`` (a :mod:`multiprocessing` pool with
per-attempt timeouts and recycling) or ``queue`` (a filesystem work queue
drained by ``repro worker`` processes) — and streaming every computed result
into an optional :class:`~repro.runner.store.ResultsStore` so that repeated
sweeps skip the simulation entirely.  Two-level cells (a shared gateway
capture feeding per-scenario children, :mod:`repro.runner.capture`) are
ordinary tasks: each process that runs a child resolves its capture through
a per-process memo, so the store only ever holds cell results.

Guarantees:

* **Determinism** — a cell is a pure function of its configuration (per-cell
  seeding via :class:`repro.sim.random.RandomStreams`), so the same grid and
  seeds produce bit-identical results on any backend at any ``jobs`` count,
  warm or cold.
* **Loud failure** — a cell that keeps failing (or times out) aborts the
  sweep with a :class:`~repro.exceptions.SweepError` naming the cell and
  carrying the worker traceback; the pool is torn down rather than left to
  hang.
* **Bounded retries** — ``retries=N`` re-runs a failing or timed-out cell up
  to ``N`` extra times before aborting; ``timeout=T`` bounds each attempt's
  wall clock (process backend only — the serial loop cannot reclaim a stuck
  cell in-process, and the queue backend handles stuck workers by lease
  expiry).
* **Single-writer cache** — only the parent process appends to the store, so
  workers never contend for the results file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Optional

from repro.exceptions import ConfigurationError, SweepError
from repro.runner.backends import create_backend
from repro.runner.backends.base import TaskFailure
from repro.runner.cells import CellResult, SweepCell, run_cell
from repro.runner.store import ResultsStore


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call.

    ``hits`` counts cells served from the persistent store, ``misses`` cells
    actually simulated, and ``deduplicated`` cells that shared a fingerprint
    with another cell in the same sweep and rode along with its result.
    """

    results: Dict[str, CellResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    deduplicated: int = 0
    elapsed_seconds: float = 0.0

    def __getitem__(self, key: str) -> CellResult:
        return self.results[key]

    def summary(self) -> str:
        """One line of cache accounting, e.g. ``"6 cells, 2 simulated, 4 cache hits"``."""
        line = f"{len(self.results)} cells, {self.misses} simulated, {self.hits} cache hits"
        if self.deduplicated:
            line += f", {self.deduplicated} deduplicated"
        return line


class SweepRunner:
    """Runs sweep cells through an execution backend, with caching.

    Parameters
    ----------
    jobs:
        Worker processes (``process`` backend) or local queue workers
        (``queue`` backend).  ``1`` (the default) runs every cell inline in
        the parent process — no pool, easiest to debug, and the reference
        for the bit-identical-at-any-jobs guarantee.
    store:
        Optional persistent cache.  Cells whose fingerprint is already stored
        are returned from the cache without simulating.  Required by the
        ``queue`` backend (its work queue lives under the store root).
    mp_context:
        :mod:`multiprocessing` start method.  Defaults to ``"fork"`` on Linux
        (cheap worker startup, and no re-import of ``__main__`` — ``spawn``
        cannot start workers from a parent run off stdin or a REPL) and
        ``"spawn"`` everywhere else, where forking past BLAS/framework
        initialisation is unsafe.
    progress:
        Optional callable invoked with one line per completed cell.
    timeout:
        Optional per-attempt wall-clock bound in seconds (``process`` backend
        only).  A cell still running past it counts as a failed attempt.
        Because a stuck worker cannot be reclaimed, enforcing a
        timeout always uses a worker pool, even at ``jobs=1``.
    retries:
        Extra attempts granted to a failing or timed-out cell before the
        sweep aborts with a :class:`~repro.exceptions.SweepError`.
    backend:
        Execution strategy: ``"process"`` (default, the historical pool),
        ``"serial"`` (inline fast path) or ``"queue"`` (filesystem work
        queue; see ``docs/distributed.md``).
    backend_options:
        Extra keyword options forwarded to the backend factory — the queue
        backend's ``lease_timeout``, ``poll_interval``, ``wait_timeout`` and
        ``spawn_workers``.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultsStore] = None,
        mp_context: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backend: str = "process",
        backend_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs={jobs!r} must be >= 1")
        if timeout is not None and not timeout > 0.0:
            raise ConfigurationError(f"timeout={timeout!r} must be positive seconds")
        if retries < 0:
            raise ConfigurationError(f"retries={retries!r} must be >= 0")
        self.jobs = jobs
        self.store = store
        self._progress = progress
        self.timeout = timeout
        self.retries = retries
        self.backend_name = backend
        # Built eagerly so a misconfiguration (unknown backend, serial with a
        # timeout, queue without a store) fails at construction, not mid-sweep.
        self._backend = create_backend(
            backend,
            jobs=jobs,
            store=store,
            mp_context=mp_context,
            timeout=timeout,
            retries=retries,
            progress=progress,
            **(backend_options or {}),
        )
        # Accumulated across run() calls so a multi-figure sweep can print one
        # overall summary (the CLI's ``sweep summary:`` line).
        self.cells_seen = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cells_deduplicated = 0

    # ------------------------------------------------------------------- api
    def run(self, cells: Iterable[SweepCell]) -> SweepReport:
        """Execute every cell and return their results keyed by cell key.

        Results come back in the order the cells were given, regardless of
        the order workers finish in.
        """
        start = time.perf_counter()
        cell_list = list(cells)
        seen_keys = set()
        for cell in cell_list:
            if cell.key in seen_keys:
                raise ConfigurationError(f"duplicate cell key {cell.key!r} in sweep grid")
            seen_keys.add(cell.key)

        # Partition into cache hits and pending work, de-duplicating cells
        # whose configs hash identically (they would produce the same result).
        assignments: Dict[str, str] = {}  # cell key -> fingerprint
        resolved: Dict[str, CellResult] = {}  # fingerprint -> result from store
        pending: Dict[str, SweepCell] = {}  # fingerprint -> first such cell
        for cell in cell_list:
            fingerprint = cell.fingerprint()
            assignments[cell.key] = fingerprint
            if fingerprint in resolved or fingerprint in pending:
                continue
            record = self.store.get(fingerprint) if self.store is not None else None
            if record is not None:
                resolved[fingerprint] = CellResult.from_json_dict(
                    cell.key, fingerprint, record["result"], from_cache=True
                )
                self._report(f"cell {cell.key}: cache hit")
            else:
                pending[fingerprint] = cell
        store_fingerprints = set(resolved)

        for outcome in self._backend.execute(list(pending.values())):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"sweep cell {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            resolved[outcome.fingerprint] = outcome
            if self.store is not None:
                self.store.put(
                    outcome.fingerprint,
                    pending[outcome.fingerprint].config_dict(),
                    outcome.to_json_dict(),
                )
            self._report(f"cell {outcome.key}: simulated in {outcome.elapsed_seconds:.2f}s")

        hits = misses = deduplicated = 0
        for cell in cell_list:
            fingerprint = assignments[cell.key]
            if fingerprint in store_fingerprints:
                hits += 1
            elif cell is pending.get(fingerprint):
                misses += 1
            else:
                deduplicated += 1
        self.cells_seen += len(cell_list)
        self.cache_hits += hits
        self.cache_misses += misses
        self.cells_deduplicated += deduplicated

        results = {
            cell.key: replace(resolved[assignments[cell.key]], key=cell.key)
            for cell in cell_list
        }
        return SweepReport(
            results=results,
            hits=hits,
            misses=misses,
            deduplicated=deduplicated,
            elapsed_seconds=time.perf_counter() - start,
        )

    def summary(self) -> str:
        """Accumulated accounting across every sweep this runner has run."""
        line = (
            f"sweep summary: {self.cells_seen} cells, {self.cache_misses} simulated, "
            f"{self.cache_hits} cache hits"
        )
        if self.cells_deduplicated:
            line += f", {self.cells_deduplicated} deduplicated"
        return line + f", jobs={self.jobs}, backend={self.backend_name}"

    # -------------------------------------------------------------- internals
    def _report(self, line: str) -> None:
        if self._progress is not None:
            self._progress(line)


# ``run_cell`` is re-exported here on purpose: backends resolve it through
# this module's namespace at call time, which is the seam the
# fault-injection tests monkeypatch.
__all__ = ["SweepRunner", "SweepReport", "run_cell"]
