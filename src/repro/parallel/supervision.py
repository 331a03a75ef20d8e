"""Shard supervision: wall-clock timeouts, crash detection, fallback ladder.

PR 1's executors assume workers are well behaved — a wedged thread or a
crashing fork worker takes the whole scan down with it.  This module wraps
shard execution in a supervisor so that can never happen:

* every shard gets a **wall-clock wait budget** (``timeout`` seconds from
  the moment the supervisor starts waiting on it — workers run concurrently,
  so in the steady state later shards have already finished by the time
  their wait begins);
* a shard that times out or crashes goes down a documented **fallback
  ladder**: (1) retry on the same executor, up to ``retries`` times;
  (2) re-run the shard serially in the supervising thread (no timeout —
  this rung assumes transient wedges such as pool contention); (3) mark the
  shard failed in the report's health block and keep going.

Because rung (2) re-evaluates the *same* units with the same deterministic
evaluator, a scan that recovered a hung shard serially produces a report
byte-identical to a fully serial run — asserted in ``tests/test_resilience.py``.

Abandoned workers: a timed-out *thread* cannot be killed and keeps running
detached (its result is discarded); a timed-out *process pool* is terminated
when the supervisor exits its pool context, so wedged fork workers die with
the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..observability import get_logger, get_metrics
from .executors import (
    ExecutorLike,
    ProcessShardExecutor,
    SerialExecutor,
    ThreadShardExecutor,
)

_log = get_logger("parallel.supervision")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ShardResult, WorkerState
    from .shards import Shard

__all__ = ["ShardFailure", "run_supervised"]


@dataclass
class ShardFailure:
    """One shard's trip down the fallback ladder."""

    label: str
    kind: str        # "timeout" | "crash"
    error: str       # message of the triggering failure
    recovered: str   # "retry" | "serial" | "failed"
    attempts: int    # dispatch attempts before the outcome

    def to_dict(self) -> dict:
        return {
            "shard": self.label,
            "kind": self.kind,
            "error": self.error,
            "recovered": self.recovered,
            "attempts": self.attempts,
        }


def _serial_rerun(
    state: "WorkerState", shard: "Shard"
) -> Optional["ShardResult"]:
    """Ladder rung 2: evaluate the shard inline; None when even that fails."""
    from .engine import evaluate_shard

    try:
        return evaluate_shard(state, shard)
    except Exception:
        return None


def run_supervised(
    executor: ExecutorLike,
    state: "WorkerState",
    shards: Sequence["Shard"],
    timeout: float,
    retries: int = 1,
) -> tuple[list["ShardResult"], list[ShardFailure]]:
    """Evaluate ``shards`` on ``executor`` under per-shard supervision.

    Returns the recovered shard results (in shard order, failed shards
    omitted) and the list of :class:`ShardFailure` records describing every
    timeout/crash and which ladder rung resolved it.
    """
    if not shards:
        return [], []
    if isinstance(executor, SerialExecutor):
        results, failures = _serial_dispatch(state, shards, retries)
    elif isinstance(executor, ProcessShardExecutor):
        results, failures = _process_dispatch(executor, state, shards, timeout, retries)
    else:
        results, failures = _thread_dispatch(executor, state, shards, timeout, retries)
    if failures:
        metrics = get_metrics()
        for failure in failures:
            metrics.counter(
                "confvalley_shard_failures_total",
                "Shard timeouts/crashes, by kind and ladder outcome.",
            ).inc(kind=failure.kind, recovered=failure.recovered)
            retry_count = max(0, failure.attempts - 1)
            if retry_count:
                metrics.counter(
                    "confvalley_shard_retries_total",
                    "Shard dispatch retries spent by the fallback ladder.",
                ).inc(retry_count)
            _log.warning(
                "shard failure",
                extra={
                    "shard": failure.label,
                    "kind": failure.kind,
                    "recovered": failure.recovered,
                    "attempts": failure.attempts,
                    "error": failure.error,
                },
            )
    return results, failures


# ---------------------------------------------------------------------------
# Dispatch strategies
# ---------------------------------------------------------------------------


def _serial_dispatch(
    state: "WorkerState", shards: Sequence["Shard"], retries: int
) -> tuple[list["ShardResult"], list[ShardFailure]]:
    """Serial executor: the calling thread cannot time itself out, so
    supervision reduces to crash isolation + retry."""
    from .engine import evaluate_shard

    results: list["ShardResult"] = []
    failures: list[ShardFailure] = []
    for shard in shards:
        attempts = 0
        error = ""
        result = None
        while attempts <= retries:
            attempts += 1
            try:
                result = evaluate_shard(state, shard)
                break
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if result is not None:
            if attempts > 1:
                failures.append(
                    ShardFailure(shard.label, "crash", error, "retry", attempts)
                )
            results.append(result)
        else:
            failures.append(
                ShardFailure(shard.label, "crash", error, "failed", attempts)
            )
    return results, failures


def _thread_dispatch(
    executor: ExecutorLike,
    state: "WorkerState",
    shards: Sequence["Shard"],
    timeout: float,
    retries: int,
) -> tuple[list["ShardResult"], list[ShardFailure]]:
    """Thread executor (and any custom executor object): per-shard futures.

    Every shard is dispatched immediately on its own watchdog thread, so the
    per-shard wait budget measures execution, not queueing.  A custom
    executor is exercised one shard at a time (``executor.run(state,
    [shard])``) so its own failure modes stay observable to the supervisor.
    """
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout

    from .engine import evaluate_shard

    def task(shard: "Shard") -> "ShardResult":
        if isinstance(executor, ThreadShardExecutor):
            return evaluate_shard(state, shard)
        return executor.run(state, [shard])[0]

    results_by_shard: dict[int, "ShardResult"] = {}
    failures: list[ShardFailure] = []
    pool = ThreadPoolExecutor(
        max_workers=len(shards), thread_name_prefix="confvalley-supervised"
    )
    try:
        futures = {index: pool.submit(task, shard) for index, shard in enumerate(shards)}
        for index, shard in enumerate(shards):
            attempts = 0
            future = futures[index]
            outcome: Optional["ShardResult"] = None
            kind = ""
            error = ""
            while attempts <= retries:
                attempts += 1
                try:
                    outcome = future.result(timeout=timeout)
                    break
                except FutureTimeout:
                    kind, error = "timeout", f"no result within {timeout:g}s"
                except Exception as exc:
                    kind, error = "crash", f"{type(exc).__name__}: {exc}"
                if attempts <= retries:
                    future = pool.submit(task, shard)
            if outcome is None:
                outcome = _serial_rerun(state, shard)
                recovered = "serial" if outcome is not None else "failed"
                failures.append(
                    ShardFailure(shard.label, kind, error, recovered, attempts)
                )
            elif attempts > 1:
                failures.append(
                    ShardFailure(shard.label, kind, error, "retry", attempts)
                )
            if outcome is not None:
                results_by_shard[index] = outcome
    finally:
        # do not block on abandoned (hung) workers; let them run detached
        pool.shutdown(wait=False)
    ordered = [results_by_shard[i] for i in sorted(results_by_shard)]
    return ordered, failures


def _process_dispatch(
    executor: ProcessShardExecutor,
    state: "WorkerState",
    shards: Sequence["Shard"],
    timeout: float,
    retries: int,
) -> tuple[list["ShardResult"], list[ShardFailure]]:
    """Fork pool with per-shard async results.

    Mirrors :class:`ProcessShardExecutor` (fork inheritance of the store via
    the module-level payload) but dispatches one async task per shard so
    each can be awaited — and given up on — independently.  Exiting the pool
    context terminates it, so wedged workers die with the scan instead of
    leaking.
    """
    import multiprocessing

    from . import executors as _executors
    from .executors import _evaluate_forked

    if not executor.available():  # pragma: no cover - platform dependent
        return _thread_dispatch(
            ThreadShardExecutor(executor.max_workers), state, shards, timeout, retries
        )
    workers = min(executor.max_workers, max(1, len(shards)))
    context = multiprocessing.get_context("fork")
    results_by_shard: dict[int, "ShardResult"] = {}
    failures: list[ShardFailure] = []
    _executors._FORK_PAYLOAD = (state, tuple(shards))
    try:
        with context.Pool(processes=workers) as pool:
            pending = {
                index: pool.apply_async(_evaluate_forked, (index,))
                for index in range(len(shards))
            }
            for index, shard in enumerate(shards):
                attempts = 0
                handle = pending[index]
                outcome: Optional["ShardResult"] = None
                kind = ""
                error = ""
                while attempts <= retries:
                    attempts += 1
                    try:
                        outcome = handle.get(timeout=timeout)
                        break
                    except multiprocessing.TimeoutError:
                        kind, error = "timeout", f"no result within {timeout:g}s"
                    except Exception as exc:
                        kind, error = "crash", f"{type(exc).__name__}: {exc}"
                    if attempts <= retries:
                        handle = pool.apply_async(_evaluate_forked, (index,))
                if outcome is None:
                    outcome = _serial_rerun(state, shard)
                    recovered = "serial" if outcome is not None else "failed"
                    failures.append(
                        ShardFailure(shard.label, kind, error, recovered, attempts)
                    )
                elif attempts > 1:
                    failures.append(
                        ShardFailure(shard.label, kind, error, "retry", attempts)
                    )
                if outcome is not None:
                    results_by_shard[index] = outcome
    finally:
        _executors._FORK_PAYLOAD = None
    ordered = [results_by_shard[i] for i in sorted(results_by_shard)]
    return ordered, failures
