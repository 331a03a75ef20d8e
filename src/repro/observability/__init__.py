"""Observability for the validation pipeline (``repro.observability``).

The third pillar after sharded performance (``repro.parallel``) and fault
tolerance (``repro.resilience``): a continuously-running validation fleet
is only operable if you can see *where time goes* and *what degraded* —
the paper's own evaluation (§6, Tables 8–9) is a sequence of exactly these
questions.  Four parts:

* **tracing** (:mod:`.tracing`) — hierarchical timestamped spans
  (``scan → compile → discover → shard[i] → evaluate(stmt)``) whose
  contexts pickle across the thread/fork executor boundary and re-parent
  on merge; exports JSON and Chrome ``trace_event`` format;
* **metrics** (:mod:`.metrics`) — a process-wide registry of counters,
  gauges and fixed-bucket histograms fed by hooks throughout the pipeline;
  exports Prometheus text and JSON;
* **snapshots** (:mod:`.snapshot`) — the atomically-rewritten exposition
  file behind ``confvalley service --metrics-file`` / ``confvalley stats``;
* **structured logging** (:mod:`.logging`) — a ``repro``-rooted JSON-lines
  logging integration, silent by default.

The cardinal rule is **nil cost by default**: the process-wide tracer and
registry are no-op singletons until :func:`enable` swaps real ones in, so
the instrumentation sprinkled through hot paths costs one attribute lookup
and a no-op call when observability is off — and validation output is
*never* affected either way (``ValidationReport.fingerprint()`` is
byte-identical with observability on or off; asserted in
``tests/test_observability.py`` and measured in
``benchmarks/bench_observability.py``).

Usage::

    from repro import observability

    obs = observability.enable()
    ... run scans ...
    print(obs.metrics.to_prometheus())
    print(obs.tracer.to_json())
    observability.disable()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .analytics import SpecAnalytics, format_drift, format_hot_specs
from .federation import (
    FleetView,
    TraceSegmentStore,
    TraceSegmentWriter,
    export_metrics_snapshot,
    fleet_meta_families,
    merge_metrics,
    read_metrics_snapshots,
    read_trace_segments,
    render_families,
    stitch_trace,
    trace_payload,
)
from .logging import JsonFormatter, configure_logging, get_logger, reset_logging
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    parse_prometheus,
)
from .snapshot import load_snapshot, render_stats, write_snapshot
from .tracing import (
    NULL_TRACER,
    NullTracer,
    SpanContext,
    Tracer,
    render_chrome_trace,
)

__all__ = [
    "FleetView",
    "TraceSegmentStore",
    "TraceSegmentWriter",
    "export_metrics_snapshot",
    "fleet_meta_families",
    "merge_metrics",
    "read_metrics_snapshots",
    "read_trace_segments",
    "render_families",
    "render_chrome_trace",
    "stitch_trace",
    "trace_payload",
    "Observability",
    "enable",
    "disable",
    "enabled",
    "get_tracer",
    "get_metrics",
    "Tracer",
    "NullTracer",
    "SpanContext",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "parse_prometheus",
    "SpecAnalytics",
    "format_hot_specs",
    "format_drift",
    "ObservabilityServer",
    "parse_http_address",
    "JsonFormatter",
    "configure_logging",
    "reset_logging",
    "get_logger",
    "write_snapshot",
    "load_snapshot",
    "render_stats",
]


def __getattr__(name: str):
    # the operator endpoint pulls in http.server, http.client and ssl;
    # load it on first use, not with every validation import
    if name in ("ObservabilityServer", "parse_http_address"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class Observability:
    """One enabled observability configuration (tracer + registry pair)."""

    tracer: Union[Tracer, NullTracer] = field(default_factory=Tracer)
    metrics: Union[MetricsRegistry, NullRegistry] = field(
        default_factory=MetricsRegistry
    )


# process-wide installed instances; fork workers inherit them, thread
# workers share them — see the worker-side tracer protocol in .tracing
_tracer: Union[Tracer, NullTracer] = NULL_TRACER
_metrics: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY


def enable(
    tracing: bool = True,
    metrics: bool = True,
    observability: Optional[Observability] = None,
) -> Observability:
    """Install a live tracer and/or metrics registry process-wide.

    Returns the :class:`Observability` handle holding whichever live
    instances were installed (no-op singletons fill disabled slots).  Pass
    a prebuilt ``observability`` to share instances across services.
    """
    global _tracer, _metrics
    if observability is None:
        observability = Observability(
            tracer=Tracer() if tracing else NULL_TRACER,
            metrics=MetricsRegistry() if metrics else NULL_REGISTRY,
        )
    _tracer = observability.tracer
    _metrics = observability.metrics
    return observability


def disable() -> None:
    """Restore the no-op tracer and registry (the default state)."""
    global _tracer, _metrics
    _tracer = NULL_TRACER
    _metrics = NULL_REGISTRY


def enabled() -> bool:
    return _tracer.enabled or _metrics.enabled


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide tracer (no-op unless :func:`enable` ran)."""
    return _tracer


def get_metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The process-wide metrics registry (no-op unless :func:`enable` ran)."""
    return _metrics
