"""Traced-run instrumentation: timing shims around each layer's public calls.

:func:`install` wraps the public functions each layer exposes with shims
that record spans into a :class:`Recorder`.  The shims live only in this
file and are installed only for the traced phase of a ``--trace 1`` run;
:meth:`Installation.restore` puts the originals back.  Spans are kept in memory and
written once when the run ends.

A span's *self time* is its duration minus the durations of the spans
opened directly inside it on the same thread.  Each op's root span gets
what no layer span covers: the unattributed remainder.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

clock = time.perf_counter


class Recorder:
    """In-memory span store shared by every shim of one traced phase."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.aliases: dict[str, str] = {}   # job id → op id
        self.program_spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread state ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> str:
        return getattr(self._local, "op", "")

    @op.setter
    def op(self, value: str) -> None:
        self._local.op = value

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> dict:
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else 0,
            "parent_name": stack[-1]["name"] if stack else "",
            "name": name,
            "op": self.op,
            "thread": threading.get_ident(),
            "start": clock(),
            "end": 0.0,
            "attrs": {},
        }
        stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["end"] = clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount


# ---------------------------------------------------------------------------
# Shims
# ---------------------------------------------------------------------------


def _span_shim(recorder: Recorder, name: str, original: Callable,
               attrs: Optional[Callable] = None) -> Callable:
    """Wrap ``original`` in a span; ``attrs(args, result)`` adds counts,
    only on the outermost span of its layer so nested calls count once."""

    @functools.wraps(original)
    def shim(*args, **kwargs):
        record = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(record)
        if attrs is not None and record["parent_name"] != name:
            record["attrs"] = attrs(args, result)
        return result

    return shim


def _text_bytes(args, result) -> dict:
    text = args[1]
    size = len(text) if isinstance(text, bytes) else len(text.encode("utf-8"))
    return {"bytes": size, "instances": len(result)}


def _probe_bytes(args, result) -> dict:
    return {"bytes": result[1] if result else 0}


class Installation:
    """The set of patched attributes, so they can be restored."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        self.patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_function(self, module_name: str, attribute: str, replacement) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(sys.modules[module_name], attribute)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    module.__dict__.get(attribute) is original:
                self.patch(module, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched.clear()


def install(recorder: Recorder) -> Installation:
    """Install every layer shim; the returned handle restores them."""
    from repro.core.evaluator import Evaluator
    from repro.core.incremental import DependencyIndex
    from repro.core.session import ValidationSession
    from repro.drivers import driver_names, get_driver
    from repro.drivers.base import Driver
    from repro.jobs.journal import JobJournal
    from repro.jobs.service import JobService
    from repro.jobs.worker import JobExecutor
    from repro.parallel.cache import SpecCache
    from repro.repository.store import ConfigStore
    from repro.runtime.info import RuntimeProvider
    from repro.workflows.crosscheck import CrossStoreChecker

    done = Installation()

    def method(owner, attribute, name, attrs=None):
        done.patch(owner, attribute, _span_shim(
            recorder, name, owner.__dict__[attribute], attrs))

    method(Driver, "parse_bytes", "drivers.parse", _text_bytes)
    for driver_class in {type(get_driver(name)) for name in driver_names()}:
        if "parse" in driver_class.__dict__:
            method(driver_class, "parse", "drivers.parse", _text_bytes)
    method(ConfigStore, "add_all", "repository.store_build")
    method(ConfigStore, "query", "repository.query")
    method(ValidationSession, "compile", "compiler.compile")
    method(Evaluator, "run", "evaluator.run")
    method(Evaluator, "scope_instances", "evaluator.scope_discovery")
    method(Evaluator, "resolve_domain", "evaluator.domain_resolve")
    method(Evaluator, "check_items", "evaluator.predicate")
    method(DependencyIndex, "affected", "delta.affected")
    method(RuntimeProvider, "probe", "runtime.probe", _probe_bytes)
    method(JobService, "submit", "jobs.submit")
    method(CrossStoreChecker, "check", "crosscheck.check")
    from repro.parallel import engine
    from repro.repository import versioned

    done.patch_function(versioned.__name__, "diff_stores", _span_shim(
        recorder, "delta.diff", versioned.diff_stores))
    done.patch_function(engine.__name__, "evaluate_shard", _span_shim(
        recorder, "parallel.evaluate_shard", engine.evaluate_shard))

    lookup = SpecCache.__dict__["lookup"]

    @functools.wraps(lookup)
    def counted_lookup(self, *args, **kwargs):
        result = lookup(self, *args, **kwargs)
        recorder.count("compiler.lookups")
        if result is not None:
            recorder.count("compiler.hits")
        return result

    done.patch(SpecCache, "lookup", counted_lookup)

    append = JobJournal.__dict__["append"]

    @functools.wraps(append)
    def counted_append(self, event):
        # the journal writes one compact sorted-key JSON line per event
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        recorder.count("jobs.journal_bytes", len(line) + 1)
        return append(self, event)

    done.patch(JobJournal, "append", counted_append)

    validate = JobExecutor.__dict__["validate"]

    @functools.wraps(validate)
    def attributed_validate(self, job, *args, **kwargs):
        # spans on the job's runner thread belong to the op that submitted it
        recorder.op = job.id
        try:
            return validate(self, job, *args, **kwargs)
        finally:
            recorder.op = ""

    done.patch(JobExecutor, "validate", attributed_validate)
    return done


def keep_program_spans(recorder: Recorder, tracer) -> Callable[[], None]:
    """Copy spans the program's tracer discards (the service drops each
    scan's subtree once published) into ``recorder.program_spans``.
    Returns a function that drains what is left and detaches the hook."""
    discard = tracer.discard

    def keeping_discard(span_ids):
        span_ids = set(span_ids)
        recorder.program_spans.extend(
            span for span in tracer.finished_spans() if span["span_id"] in span_ids
        )
        return discard(span_ids)

    tracer.discard = keeping_discard

    def drain() -> None:
        recorder.program_spans.extend(tracer.finished_spans())
        tracer.clear()
        del tracer.discard

    return drain


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    result = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in result:
            result[span["parent"]] -= span["end"] - span["start"]
    return result


def layer_table(recorder: Recorder) -> dict:
    """Per-layer self time and counts of the spans inside traced ops.

    Returns ``{"ops": n, "op_s": mean op seconds, "layers": {name:
    {"self_s", "calls", "bytes", "instances"}}, "unattributed_s": …}`` with
    every figure a per-op mean.
    """
    spans = recorder.spans
    own = self_times(spans)
    op_spans = [span for span in spans if span["name"] == "op"]
    op_ids = {span["attrs"]["op"] for span in op_spans}
    ops = max(1, len(op_spans))
    layers: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "bytes": 0, "instances": 0}
    )
    attributed: dict[str, float] = defaultdict(float)
    for span in spans:
        op = recorder.aliases.get(span["op"], span["op"])
        if span["name"] == "op" or op not in op_ids:
            continue  # untimed work, such as the harness's parity scans
        row = layers[span["name"]]
        row["self_s"] += own[span["id"]]
        row["calls"] += 1
        row["bytes"] += span["attrs"].get("bytes", 0)
        row["instances"] += span["attrs"].get("instances", 0)
        attributed[op] += own[span["id"]]
    for row in layers.values():
        for field in row:
            row[field] /= ops
    op_total = sum(span["end"] - span["start"] for span in op_spans)
    unattributed = sum(
        (span["end"] - span["start"]) - attributed[span["attrs"]["op"]]
        for span in op_spans
    )
    return {
        "ops": len(op_spans),
        "op_s": op_total / ops,
        "layers": dict(layers),
        "unattributed_s": unattributed / ops,
    }


def program_span_summary(recorder: Recorder, ops: int) -> dict:
    """Per span name of the program's own tracer: count and inclusive
    seconds, both per op (context for the layer table)."""
    summary: dict[str, dict] = defaultdict(lambda: {"count": 0.0, "seconds": 0.0})
    for span in recorder.program_spans:
        if span.get("end") is None:
            continue
        name = span["name"].split("[", 1)[0]
        summary[name]["count"] += 1 / max(1, ops)
        summary[name]["seconds"] += (span["end"] - span["start"]) / max(1, ops)
    return dict(summary)


def write_trace(path: str, recorder: Recorder) -> None:
    """Write every recorded span once, at the end of the run."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "layer_spans": recorder.spans,
                "program_spans": recorder.program_spans,
                "counters": dict(recorder.counters),
                "aliases": recorder.aliases,
            },
            handle,
            default=str,
        )
