"""Pluggable shard executors: serial, thread pool, process pool.

All three run the same pure function (:func:`repro.parallel.engine.evaluate_shard`)
over a list of :class:`~repro.parallel.shards.Shard` and return per-shard
results *in shard order*, so the choice of executor can never change the
merged report — only the wall clock.

Selection heuristic (:func:`choose_executor`, tunable via the module
constants and documented in ``docs/PERFORMANCE.md``):

* **serial** when there is nothing to parallelize (one shard, one core) or
  the estimated work is below ``SERIAL_CUTOFF`` — pool startup would cost
  more than it saves;
* **process** for large workloads on platforms with ``fork`` — CPython's
  GIL serializes pure-Python evaluation, so real speedup needs separate
  interpreters; ``fork`` inherits the loaded store without pickling it,
  and only the (small) per-unit reports travel back;
* **thread** as the middle tier and the fallback where ``fork`` is
  unavailable — threads start ~100× faster than processes and still
  overlap the regex/IO portions of evaluation that release the GIL.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ShardResult, WorkerState
    from .shards import Shard

__all__ = [
    "SerialExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "choose_executor",
    "resolve_executor",
    "SERIAL_CUTOFF",
    "PROCESS_CUTOFF",
]

#: below this many estimated instance checks, pool startup dominates
SERIAL_CUTOFF = 20_000
#: above this many estimated instance checks, fork+merge overhead amortizes
PROCESS_CUTOFF = 200_000


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


class SerialExecutor:
    """Evaluate shards one after another in the calling thread."""

    name = "serial"

    def run(
        self, state: "WorkerState", shards: Sequence["Shard"]
    ) -> list["ShardResult"]:
        from .engine import evaluate_shard

        return [evaluate_shard(state, shard) for shard in shards]


class ThreadShardExecutor:
    """Evaluate shards on a thread pool.

    Shard evaluators never mutate the shared store (queries are read-only
    and the store's query counter is the only write — a benign counter),
    so shards can share one store across threads.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers or _default_workers()

    def run(
        self, state: "WorkerState", shards: Sequence["Shard"]
    ) -> list["ShardResult"]:
        from concurrent.futures import ThreadPoolExecutor

        from .engine import evaluate_shard

        workers = min(self.max_workers, max(1, len(shards)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda shard: evaluate_shard(state, shard), shards))


# ---------------------------------------------------------------------------
# Process executor (fork)
# ---------------------------------------------------------------------------

#: worker payload published immediately before fork; children inherit it
#: through copy-on-write memory, so the store is never pickled
_FORK_PAYLOAD: Optional[tuple] = None


def _evaluate_forked(shard_index: int):
    from .engine import evaluate_shard

    state, shards = _FORK_PAYLOAD  # type: ignore[misc]
    return evaluate_shard(state, shards[shard_index])


class ProcessShardExecutor:
    """Evaluate shards on a fork-based process pool.

    Each worker inherits the parent's store through ``fork`` (no pickling
    of configuration data); only the per-unit :class:`ValidationReport`
    objects are pickled on the way back.  Unavailable on platforms without
    the ``fork`` start method — use :func:`choose_executor`, which falls
    back to threads there.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers or _default_workers()

    @staticmethod
    def available() -> bool:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def run(
        self, state: "WorkerState", shards: Sequence["Shard"]
    ) -> list["ShardResult"]:
        import multiprocessing

        global _FORK_PAYLOAD
        if not self.available():
            raise RuntimeError("process executor requires the 'fork' start method")
        workers = min(self.max_workers, max(1, len(shards)))
        context = multiprocessing.get_context("fork")
        _FORK_PAYLOAD = (state, tuple(shards))
        try:
            with context.Pool(processes=workers) as pool:
                return pool.map(_evaluate_forked, range(len(shards)))
        finally:
            _FORK_PAYLOAD = None


ExecutorLike = Union[SerialExecutor, ThreadShardExecutor, ProcessShardExecutor]


def choose_executor(
    shard_count: int,
    estimated_work: int,
    cpu_count: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> ExecutorLike:
    """Pick an executor from the workload-size heuristic.

    ``estimated_work`` is the number of statements × store instances — a
    proxy for instance checks.  The cutoffs are module constants so
    deployments can tune them.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if shard_count < 2 or cpus < 2 or estimated_work < SERIAL_CUTOFF:
        return SerialExecutor()
    if estimated_work >= PROCESS_CUTOFF and ProcessShardExecutor.available():
        return ProcessShardExecutor(max_workers)
    return ThreadShardExecutor(max_workers)


def resolve_executor(
    executor: Union[str, ExecutorLike],
    shard_count: int,
    estimated_work: int,
    max_workers: Optional[int] = None,
) -> ExecutorLike:
    """Turn an executor name (``auto``/``serial``/``thread``/``process``)
    or a ready-made executor object into an executor instance."""
    if not isinstance(executor, str):
        return executor
    if executor == "auto":
        return choose_executor(shard_count, estimated_work, max_workers=max_workers)
    if executor == "serial":
        return SerialExecutor()
    if executor == "thread":
        return ThreadShardExecutor(max_workers)
    if executor == "process":
        if not ProcessShardExecutor.available():
            return ThreadShardExecutor(max_workers)
        return ProcessShardExecutor(max_workers)
    raise ValueError(
        f"unknown executor {executor!r} (expected auto/serial/thread/process)"
    )
