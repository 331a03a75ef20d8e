"""Continuous validation service (paper §3.2, §5.1).

"[validation scenarios] require different tools such as … a validation
service that runs continuously on the configuration repository"; the batch
mode "(re)validates … continuously as configuration specifications or data
are updated."

:class:`ValidationService` watches a specification file and a set of
configuration sources by modification time.  Each :meth:`scan` call checks
for changes, revalidates when anything changed, records the run in an
in-memory history, and reports transitions (pass→fail is the page-the-
operator moment).  The service is poll-driven — the caller owns the
schedule (cron, a loop, a test) — and each scan's *evaluation* can fan out
across a thread or process pool via the ``executor`` option
(:mod:`repro.parallel`); the sharded engine merges per-shard reports back
into the exact order serial evaluation would produce, so reports, history
and pass/fail transitions stay deterministic regardless of executor.

Steady-state scans also skip recompilation: the service owns a
:class:`~repro.parallel.SpecCache`, so when only configuration *data*
changed, the spec file's parse + compiler rewrites are reused from cache
(see ``docs/PERFORMANCE.md`` for the invalidation semantics).

Services built with ``delta=True`` go one step further and skip
re-*evaluation* too: a :class:`DeltaScanner` reparses each changed
source, works out what changed against its last-seen snapshot, asks the
spec's dependency index (:class:`~repro.core.incremental.DependencyIndex`)
for the affected statements, re-runs only those, and splices the fresh
per-unit reports over the retained ones — producing a report whose
``fingerprint()`` is byte-identical to a full scan's.  For the common
check-in, where the changed sources keep the same keys in the same order
and only values differ, the scanner *patches* the store it kept from the
last scan in place (:meth:`~repro.repository.store.ConfigStore.replace`)
and the swapped values are the change set.  That is exact because key
disambiguation and load order depend only on the key sequence, never on
values.  Anything else — bootstrap, a spec change, keys added, removed or
reordered, a changed source list — rebuilds the store and diffs it.
``docs/INCREMENTAL.md`` documents the selection rules, the soundness
argument, and the watch-mode runbook.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core.incremental import KeptStore, SpliceLane, compile_for_splice
from .core.policy import ValidationPolicy
from .core.report import HealthBlock, ValidationReport
from .core.session import ValidationSession, resolve_driver
from .drivers import get_driver
from .errors import DriverError
from .observability import get_logger, get_metrics, get_tracer, write_snapshot
from .observability.analytics import SpecAnalytics, merge_spec_profiles
from .parallel.cache import SpecCache, SpecCacheStats
from .parallel.engine import evaluate_shard
from .repository.store import ConfigStore
from .resilience import ResiliencePolicy, SourceSupervisor, SpecCircuitBreaker
from .runtime import RuntimeProvider
from .runtime import clock as _clock

__all__ = ["SourceSpec", "ScanResult", "DeltaScanner", "ValidationService"]

_log = get_logger("service")

#: probe fallback when the service has no runtime provider of its own
_PROBE_RUNTIME = RuntimeProvider()

#: "never probed" sentinel — distinct from None, which is a valid probe
#: token for a path that does not exist (and must register as changed on
#: the first poll so missing sources surface immediately)
_NEVER_PROBED = object()


@dataclass(frozen=True)
class SourceSpec:
    """One watched configuration source."""

    format_name: str
    path: str
    scope: str = ""


@dataclass
class ScanResult:
    """Outcome of one service scan that actually revalidated."""

    sequence: int
    report: ValidationReport
    changed_paths: list[str]
    transitioned: bool    # pass/fail status differs from the previous run
    #: the report's health block, surfaced for resilient-mode scans
    #: (None in strict mode, where any fault raises instead)
    health: Optional[HealthBlock] = None
    #: delta-scan record when this scan was spliced incrementally (None for
    #: full scans): mode ("bootstrap"/"delta"), statements selected vs
    #: skipped, splice time, and the change summary that drove selection
    delta: Optional[dict] = None
    #: lifecycle record when the service runs a
    #: :class:`~repro.lifecycle.SpecLifecycleManager` (None otherwise):
    #: shadow/enforced lane summaries, transitions this scan, re-inference
    shadow: Optional[dict] = None
    #: workflow record when this scan ran a composed workflow instead of a
    #: plain validation (None otherwise): workflow name plus per-step
    #: statuses, timings and splice flags (see repro.workflows)
    workflow: Optional[dict] = None

    @property
    def passed(self) -> bool:
        # a FAILED scan (spec unreadable, every source quarantined) never
        # counts as passing, no matter how empty its violation list is
        if self.health is not None and self.health.status == HealthBlock.FAILED:
            return False
        return self.report.passed


class DeltaScanner:
    """Incremental scan engine: re-validate only what a change can affect.

    Owned by a :class:`ValidationService` constructed with ``delta=True``.
    It composes the two halves of the shared patch-and-splice path in
    :mod:`repro.core.incremental`: a :class:`~repro.core.incremental.KeptStore`
    (the last validated store plus every source's raw parse and placed
    instances) and a :class:`~repro.core.incremental.SpliceLane` (the
    per-unit reports of the last scan).  A delta scan then:

    1. reparses only the sources whose probe token changed, and hands the
       parses to the kept store, which *patches* itself in place when
       every reparsed source kept its ``(key, source)`` sequence (the
       change set is the swapped values) and *rebuilds* otherwise — as
       does every bootstrap scan (first scan or spec change);
    2. asks the spec's :class:`~repro.core.incremental.DependencyIndex` —
       cached as an :meth:`~repro.parallel.cache.SpecCache.attachment` of
       the compiled entry — for the affected statement indices;
    3. evaluates just those units via the parallel engine's
       :func:`~repro.parallel.engine.evaluate_shard` (the same per-unit
       reports a sharded run produces) and splices them over the retained
       unit reports in original statement order, so the merged report's
       :meth:`~repro.core.report.ValidationReport.fingerprint` is
       byte-identical to a full scan's.

    :meth:`scan` returns ``None`` whenever incremental validation cannot
    be proven equivalent to a full scan — programs with ``load`` or
    ``include`` commands (inputs outside the spec text) and programs that
    fail :func:`~repro.parallel.shards.is_parallel_safe` (cross-statement
    ordering semantics) — and the caller runs the full path instead.
    State commits atomically at the *end* of a successful scan, so an
    exception mid-scan leaves the previous snapshot intact: a patched
    scan swaps every applied value back before re-raising.
    """

    def __init__(self, service: "ValidationService"):
        self._service = service
        self._kept = KeptStore()
        self._lane = SpliceLane()
        self.scans = 0
        self.fallbacks = 0
        self.selected_total = 0
        self.skipped_total = 0
        self.store_patched = 0
        self.store_rebuilt = 0

    @property
    def store(self) -> Optional[ConfigStore]:
        """The last validated store (feeds coverage analytics)."""
        return self._kept.store

    def reset(self) -> None:
        """Drop all retained state; the next delta scan bootstraps.

        The resilient path calls this whenever a scan takes the full
        route: retained unit reports must only ever originate from the
        service's *latest* scan, or stale health records (a spec error
        that has since recovered) would be spliced back in and diverge
        from what a full scan observes.
        """
        self._kept = KeptStore()
        self._lane = SpliceLane()

    def stats(self) -> dict:
        """JSON-safe lifetime counters for ``stats()`` / the snapshot."""
        return {
            "scans": self.scans,
            "fallbacks": self.fallbacks,
            "statements_selected": self.selected_total,
            "statements_skipped": self.skipped_total,
            "store_patched": self.store_patched,
            "store_rebuilt": self.store_rebuilt,
        }

    # ------------------------------------------------------------------

    def scan(self, changed: list[str], guard=None):
        """One incremental scan; ``(report, info)``, or ``None`` to fall back."""
        service = self._service
        started = _clock.now()
        session = ValidationSession(
            runtime=service.runtime,
            policy=service.policy,
            base_dir=os.path.dirname(service.spec_path) or ".",
            spec_cache=service.spec_cache,
            spec_guard=guard,
            analytics=service.analytics is not None,
        )
        spec_path = service.spec_path
        if not os.path.isabs(spec_path):
            spec_path = os.path.join(session.base_dir, spec_path)
        spec_text = session.runtime.read_bytes(spec_path).decode("utf-8")
        statements = compile_for_splice(session, spec_text)
        if statements is None:
            return None
        spec_key = (spec_text, session._options_fingerprint())

        changed_set = set(changed)
        sources = tuple(service.sources)
        retained = self._kept.raws()
        raws = []
        for source in sources:
            driver_name = resolve_driver(source.format_name, source.path)
            raw = retained.get(source)
            if raw is None or driver_name == "rest" or source.path in changed_set:
                # rest sources have no probe token, so they reparse every
                # scan — exactly what the full path does
                raw = list(self._parse(session, driver_name, source))
            raws.append(raw)

        bootstrap = self._kept.store is None or spec_key != self._lane.spec_key
        update = self._kept.update(sources, raws, fresh=bootstrap)
        try:
            update.apply()
            run = self._lane.run(
                session, spec_key, statements, update.store, update.change,
                evaluate=evaluate_shard,
            )
        except BaseException:
            # the kept store must still be the last committed snapshot
            update.undo()
            raise
        report = run.report
        report.elapsed_seconds = _clock.now() - started

        # atomic state commit: apart from the swaps (undone on failure
        # above) nothing mutated self, so an exception anywhere earlier
        # leaves the previous snapshot intact
        self._kept.commit(update)
        self._lane = run.lane
        selected = run.selected
        skipped = run.statements - selected
        self.scans += 1
        self.selected_total += selected
        self.skipped_total += skipped
        if update.mode == "patched":
            self.store_patched += 1
        else:
            self.store_rebuilt += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_delta_statements_selected_total",
                "Statements re-evaluated by delta scans.",
            ).inc(selected)
            metrics.counter(
                "confvalley_delta_statements_skipped_total",
                "Statements spliced from the previous scan unchanged.",
            ).inc(skipped)
            patched = metrics.counter(
                "confvalley_delta_store_patched_total",
                "Delta scans that patched the kept store in place.",
            )
            if update.mode == "patched":
                patched.inc()
            metrics.histogram(
                "confvalley_delta_splice_seconds",
                "Wall-clock time merging retained and fresh unit reports.",
            ).observe(run.splice_seconds)
        info = {
            "mode": run.mode,
            "store": update.mode,
            "statements_total": run.statements,
            "selected": selected,
            "skipped": skipped,
            "splice_seconds": round(run.splice_seconds, 6),
            "change": update.change.summary() if update.change is not None else None,
        }
        return report, info

    @staticmethod
    def _parse(session: ValidationSession, driver_name: str, source: "SourceSpec"):
        """Raw driver parse of one source — ``load_source`` minus the store."""
        driver = get_driver(driver_name)
        if driver_name == "rest":
            return driver.parse(source.path, source=source.path, scope=source.scope)
        path = source.path
        if not os.path.isabs(path):
            path = os.path.join(session.base_dir, path)
        raw = session.runtime.read_bytes(path)
        return driver.parse_bytes(raw, source=path, scope=source.scope)


class ValidationService:
    """Revalidates a spec file against sources whenever either changes."""

    def __init__(
        self,
        spec_path: str,
        sources: list[SourceSpec],
        runtime: Optional[RuntimeProvider] = None,
        policy: Optional[ValidationPolicy] = None,
        on_transition: Optional[Callable[[ScanResult], None]] = None,
        history_limit: int = 100,
        executor: Optional[str] = None,
        spec_cache: Optional[SpecCache] = None,
        resilience: Optional[ResiliencePolicy] = None,
        metrics_file: Optional[str] = None,
        analytics: bool = True,
        delta: bool = False,
        lifecycle=None,
        workflow=None,
    ):
        self.spec_path = spec_path
        self.sources = list(sources)
        self.runtime = runtime
        self.policy = policy
        self.on_transition = on_transition
        self.history: list[ScanResult] = []
        self.history_limit = history_limit
        #: evaluation strategy per scan: None = serial, or
        #: "auto"/"serial"/"thread"/"process" via repro.parallel
        self.executor = executor
        #: compiled-spec cache shared across scans (hits when only data changed)
        self.spec_cache = spec_cache if spec_cache is not None else SpecCache()
        #: None = strict mode (PR-1 behavior: any fault raises);
        #: a ResiliencePolicy switches scans to supervised mode — source
        #: quarantine, spec circuit breakers, shard supervision, health
        #: blocks (see repro.resilience)
        self.resilience = resilience
        if resilience is not None:
            self.source_supervisor = SourceSupervisor(resilience)
            self.breaker = SpecCircuitBreaker(
                threshold=resilience.quarantine_threshold,
                probe_interval=resilience.probe_interval,
            )
        else:
            self.source_supervisor = None
            self.breaker = None
        #: observability snapshot target: atomically rewritten after every
        #: scan that validated (see repro.observability.snapshot)
        self.metrics_file = metrics_file
        #: bounded ring of per-scan summary records (plain dicts, JSON-safe)
        #: — the queryable scan history behind `confvalley stats`
        self.scan_records: "deque[dict]" = deque(maxlen=history_limit)
        self.scans = 0
        #: last probe token per watched path (opaque change-detection
        #: tokens; the source supervisor compares them by equality only)
        self._mtimes: dict[str, object] = {}
        self._sequence = 0
        #: scan-over-scan per-spec analytics (hot specs, dead specs, drift);
        #: None turns per-statement attribution off entirely, and
        #: report fingerprints are byte-identical either way
        self.analytics: Optional[SpecAnalytics] = (
            SpecAnalytics() if analytics else None
        )
        #: guards the published trace/coverage state: the scan loop is the
        #: only writer, endpoint readers copy under the lock — so a reader
        #: never blocks a scan for longer than a dict swap
        self._obs_lock = threading.Lock()
        self._last_trace: Optional[dict] = None
        #: coverage summary of the last scan, cached on
        #: (spec text, instance count) so steady-state scans skip reanalysis
        self._coverage: Optional[dict] = None
        self._coverage_key: Optional[tuple] = None
        #: live operator endpoint (started via start_http / CLI --http)
        self._http = None
        #: attached asynchronous job service (repro.jobs) — enables the
        #: POST /jobs submission API on the operator endpoint and the
        #: "jobs" block in stats(); see attach_jobs()
        self.jobs = None
        #: incremental delta-validation engine (None = every scan is a full
        #: scan); selection rules and the full-scan equivalence argument
        #: live in docs/INCREMENTAL.md
        self._delta: Optional[DeltaScanner] = DeltaScanner(self) if delta else None
        #: inferred-spec lifecycle manager (repro.lifecycle): shadow lane +
        #: drift-driven promotion, run against every scan's store.  Shares
        #: this service's compiled-spec cache so lane programs compile once.
        self.lifecycle = lifecycle
        if lifecycle is not None and lifecycle.spec_cache is None:
            lifecycle.spec_cache = self.spec_cache
        #: composed validation workflow (repro.workflows): when set, every
        #: scan runs the workflow — parse/validate/cross_check/… steps with
        #: gates — instead of the plain load-and-validate pipeline.  Accepts
        #: a Workflow object or the path to a YAML/TOML definition; a path
        #: is watched like any source, and edits rebuild the engine.
        self.workflow_path: Optional[str] = None
        self.workflow_engine = None
        if workflow is not None:
            self._build_workflow_engine(workflow)

    def _build_workflow_engine(self, workflow) -> None:
        from .workflows import WorkflowEngine, load_workflow

        if isinstance(workflow, str):
            self.workflow_path = workflow
            workflow = load_workflow(workflow)
        base_dir = (
            os.path.dirname(self.workflow_path)
            if self.workflow_path
            else os.path.dirname(self.spec_path)
        ) or "."
        self.workflow_engine = WorkflowEngine(
            workflow,
            base_dir=base_dir,
            runtime=self.runtime,
            policy=self.policy,
            spec_cache=self.spec_cache,
            executor=self.executor,
            sources=[
                {
                    "format": source.format_name,
                    "path": source.path,
                    "scope": source.scope,
                }
                for source in self.sources
            ],
            spec_path=self.spec_path,
            shadow_provider=(
                self.lifecycle.shadow_cpl if self.lifecycle is not None else None
            ),
            analytics=self.analytics is not None,
        )

    # ------------------------------------------------------------------

    def watched_paths(self) -> list[str]:
        paths = [self.spec_path] + [source.path for source in self.sources]
        if self.workflow_path:
            paths.append(self.workflow_path)
        return paths

    def _changed_paths(self) -> list[str]:
        """Watched paths whose probe token changed since the last poll.

        The token is :meth:`RuntimeProvider.probe`'s ``(mtime_ns, size,
        content digest)`` triple, so rewrites that preserve the mtime —
        same-second writes, ``cp -p``, archive extraction — are still
        detected; the old mtime-only comparison silently missed them.
        A missing file probes as ``None``, which is itself a valid token:
        deletion registers as a change, steady absence does not.
        """
        runtime = self.runtime if self.runtime is not None else _PROBE_RUNTIME
        changed = []
        for path in self.watched_paths():
            token = runtime.probe(path)
            if self._mtimes.get(path, _NEVER_PROBED) != token:
                self._mtimes[path] = token
                changed.append(path)
        return changed

    # ------------------------------------------------------------------

    def scan(self, force: bool = False) -> Optional[ScanResult]:
        """Check for changes; revalidate when needed.

        Returns the :class:`ScanResult` when a validation ran, ``None`` when
        nothing changed (the common steady-state case).
        """
        self.scans += 1
        changed = self._changed_paths()
        # resilient mode fires scheduled scans of its own: quarantined-source
        # retries and half-open breaker probes must run even when no watched
        # file changed, or recovery would never be attempted
        probe_due = self.resilience is not None and (
            self.source_supervisor.retry_due() or self.breaker.probe_due()
        )
        if not changed and not force and not probe_due:
            return None
        if not changed and probe_due:
            changed = ["<probe>"]
        return self._run(changed)

    def run_once(self) -> ScanResult:
        """Unconditional validation (service start-up, manual trigger)."""
        changed = self._changed_paths()
        return self._run(changed or ["<manual>"])

    # ------------------------------------------------------------------

    def _run(self, changed: list[str]) -> ScanResult:
        tracer = get_tracer()
        with tracer.span(
            "scan", scan=self.scans, changed=len(changed)
        ) as span:
            try:
                if self.workflow_engine is not None:
                    result = self._run_workflow(changed)
                elif self.resilience is not None:
                    result = self._run_resilient(changed)
                else:
                    result = self._run_strict(changed)
            except BaseException:
                # these changes were never validated: forget their probe
                # tokens so the next poll reports them again (a delta scan
                # would otherwise keep its stale parse of them)
                for path in changed:
                    self._mtimes.pop(path, None)
                raise
            span.set(
                passed=result.passed,
                violations=len(result.report.violations),
                health=result.health.status if result.health else "",
            )
            scan_span_id = span.span_id
        if tracer.enabled and scan_span_id:
            self._capture_trace(tracer, scan_span_id)
        return result

    def _capture_trace(self, tracer, scan_span_id: str) -> None:
        """Publish the finished scan's span tree for ``GET /traces/latest``
        and discard the consumed spans so tracer memory stays bounded."""
        spans = tracer.subtree(scan_span_id)
        if not spans:
            return
        trace = tracer.to_chrome_trace(spans)
        with self._obs_lock:
            self._last_trace = trace
        tracer.discard(span["span_id"] for span in spans)

    def _run_workflow(self, changed: list[str]) -> ScanResult:
        """One composed-workflow scan (service built with ``workflow=``).

        The engine owns supervision: step crashes and timeouts degrade the
        merged report's health instead of raising, and unchanged steps
        splice from the previous run (the workflow analogue of delta
        scanning).  Editing a file-backed workflow definition rebuilds the
        engine — and deliberately drops its splice cache, since retained
        outputs belong to the old step graph.
        """
        if self.workflow_path and self.workflow_path in changed:
            self._build_workflow_engine(self.workflow_path)
        outcome = self.workflow_engine.run()
        return self._record(
            outcome.report,
            changed,
            health=outcome.health,
            store=outcome.store,
            workflow={
                "name": outcome.workflow,
                "passed": outcome.passed,
                "steps": outcome.step_payload(),
                "elapsed_seconds": round(outcome.elapsed_seconds, 6),
            },
        )

    def _run_strict(self, changed: list[str]) -> ScanResult:
        if self._delta is not None:
            outcome = self._delta.scan(changed)
            if outcome is not None:
                report, info = outcome
                return self._record(
                    report, changed, health=None, store=self._delta.store,
                    delta=info,
                )
            # load/include commands or serial-only policy semantics: every
            # scan of this program takes the full path
            self._delta.fallbacks += 1
        session = ValidationSession(
            runtime=self.runtime,
            policy=self.policy,
            base_dir=os.path.dirname(self.spec_path) or ".",
            executor=self.executor,
            spec_cache=self.spec_cache,
            analytics=self.analytics is not None,
        )
        tracer = get_tracer()
        with tracer.span("discover", sources=len(self.sources)):
            for source in self.sources:
                with tracer.span("load[source]", path=source.path):
                    session.load_source(
                        source.format_name, source.path, source.scope
                    )
        report = session.validate_file(self.spec_path)
        return self._record(report, changed, health=None, store=session.store)

    def _run_resilient(self, changed: list[str]) -> ScanResult:
        """One supervised scan: quarantine faults, always produce a result.

        The supervised pipeline, per ISSUE layers 1–4: attempt each
        non-quarantined source and convert failures into structured records
        (layer 1); evaluate under a breaker guard with shard supervision
        (layers 2–3); and ship the evidence in the report's health block
        (layer 4).  This method never raises on source/spec faults — the
        worst outcome is a ``FAILED`` health status.
        """
        policy = self.resilience
        self.source_supervisor.begin_scan()
        guard = self.breaker.begin_scan()
        if self._delta is not None:
            outcome = None
            if self._delta_eligible(guard):
                try:
                    outcome = self._delta.scan(changed, guard=guard)
                except Exception:
                    # any delta-path fault (unreadable source or spec,
                    # driver error): the full supervised path below owns
                    # fault classification and quarantine bookkeeping
                    outcome = None
            if outcome is not None:
                report, info = outcome
                self.breaker.observe(report)
                report.health.finalize()
                return self._record(
                    report, changed, health=report.health,
                    store=self._delta.store, delta=info,
                )
            self._delta.fallbacks += 1
            # full-path scans don't refresh the scanner's retained unit
            # reports; drop them so the next delta scan bootstraps instead
            # of splicing stale (possibly recovered-error) state back in
            self._delta.reset()
        session = ValidationSession(
            runtime=self.runtime,
            policy=self.policy,
            base_dir=os.path.dirname(self.spec_path) or ".",
            executor=self.executor,
            spec_cache=self.spec_cache,
            spec_guard=guard,
            shard_timeout=policy.shard_timeout,
            shard_retries=policy.shard_retries,
            analytics=self.analytics is not None,
        )
        source_failures: list[dict] = []
        retries_this_scan = 0
        loaded = 0
        tracer = get_tracer()
        with tracer.span("discover", sources=len(self.sources)):
            for source in self.sources:
                mtime = self._mtimes.get(source.path)
                if not self.source_supervisor.should_attempt(source.path, mtime):
                    continue
                retrying = self.source_supervisor.is_quarantined(source.path)
                try:
                    with tracer.span("load[source]", path=source.path):
                        session.load_source(
                            source.format_name, source.path, source.scope
                        )
                except DriverError as exc:
                    kind, error = "parse", str(exc)
                except FileNotFoundError as exc:
                    # the file can vanish between the mtime check and the read
                    kind, error = "missing", str(exc)
                except OSError as exc:
                    kind, error = "io", str(exc)
                else:
                    loaded += 1
                    self.source_supervisor.record_success(source.path)
                    continue
                if retrying:
                    retries_this_scan += 1
                failure = self.source_supervisor.record_failure(
                    source.path,
                    source.format_name,
                    source.scope,
                    kind,
                    error,
                    mtime,
                )
                source_failures.append(failure.to_dict())
        try:
            report = session.validate_file(self.spec_path)
        except Exception as exc:
            # the spec file itself is broken (unreadable, unparsable): no
            # meaningful report is possible, but the scan still completes
            report = ValidationReport()
            report.health.fatal = (
                f"spec validation failed: {type(exc).__name__}: {exc}"
            )
        health = report.health
        health.source_failures.extend(source_failures)
        health.quarantined_sources.extend(self.source_supervisor.quarantined())
        health.retries += retries_this_scan
        if self.sources and loaded == 0 and not health.fatal:
            health.fatal = "every configuration source is quarantined"
        if not health.fatal:
            # advance the breaker state machines on the statement outcomes
            # this scan observed (a fatal scan ran no statements — treating
            # it as "all clean" would wrongly close every breaker)
            self.breaker.observe(report)
        health.finalize()
        return self._record(report, changed, health=health, store=session.store)

    def _delta_eligible(self, guard) -> bool:
        """Only a fully healthy service may scan incrementally.

        Quarantine retries, breaker probes, and degraded-scan recovery
        all change which statements run and how failures are classified;
        the full-scan equivalence argument (docs/INCREMENTAL.md) only
        covers clean steady state, so anything else — open breakers,
        quarantined sources, a previous scan that was not ``OK`` — takes
        the full supervised path until the service is clean again.
        """
        if guard.quarantined:
            return False
        if self.breaker.snapshot():
            return False
        if self.source_supervisor.quarantined():
            return False
        last = self.history[-1] if self.history else None
        if last is not None and (
            last.health is None or last.health.status != HealthBlock.OK
        ):
            return False
        return True

    # ------------------------------------------------------------------

    def watch(
        self,
        interval: float = 1.0,
        max_scans: Optional[int] = None,
        on_result: Optional[Callable[[ScanResult], None]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> list[ScanResult]:
        """Continuous poll loop: scan, sleep, repeat.

        Polls the watched paths every ``interval`` seconds (probe tokens,
        see :meth:`_changed_paths`) and validates whenever something
        changed — incrementally when the service was built with
        ``delta=True``.  ``on_result`` fires after every scan that
        validated; ``max_scans`` bounds the number of *validations* (not
        polls) and makes the loop return its results, which is how tests
        and the delta-smoke harness drive it deterministically.  ``sleep``
        is injectable for tests; the default is :func:`time.sleep`.

        The first validation is forced (a service that has never
        validated has nothing to compare against).  Stop an unbounded
        loop with ``KeyboardInterrupt`` — the CLI's ``service --watch``
        turns that into a clean exit.
        """
        sleeper = sleep if sleep is not None else time.sleep
        results: list[ScanResult] = []
        while True:
            result = self.scan(force=self._sequence == 0)
            if result is not None:
                results.append(result)
                if on_result is not None:
                    on_result(result)
                if max_scans is not None and len(results) >= max_scans:
                    return results
            sleeper(interval)

    # ------------------------------------------------------------------

    def _record(
        self,
        report: ValidationReport,
        changed: list[str],
        health: Optional[HealthBlock],
        store=None,
        delta: Optional[dict] = None,
        workflow: Optional[dict] = None,
    ) -> ScanResult:
        # lifecycle first: the enforced lane's violations belong in the
        # verdict, so they must land on the report before pass/fail,
        # analytics and the ring-buffer summary are computed
        shadow_summary = None
        if self.lifecycle is not None:
            shadow_summary = self._run_lifecycle(report, store, health)
        if self.analytics is not None:
            coverage = self._analyze_coverage(store)
            self.analytics.record_scan(
                report,
                coverage_dead=coverage["dead_specs"] if coverage else None,
            )
        previous = self.history[-1] if self.history else None
        self._sequence += 1
        result = ScanResult(
            sequence=self._sequence,
            report=report,
            changed_paths=changed,
            transitioned=False,
            health=health,
            delta=delta,
            shadow=shadow_summary,
            workflow=workflow,
        )
        result.transitioned = (
            previous is not None and previous.passed != result.passed
        )
        self.history.append(result)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]
        self.scan_records.append(self._summarize(result))
        self._observe_scan(result)
        if result.transitioned and self.on_transition is not None:
            self.on_transition(result)
        if self.metrics_file:
            write_snapshot(self.metrics_file, self.stats(), get_metrics())
        return result

    def _run_lifecycle(
        self,
        report: ValidationReport,
        store,
        health: Optional[HealthBlock],
    ) -> dict:
        """Drive the lifecycle manager for one scan; returns its summary.

        The enforced lane's report is merged into the scan's verdict (an
        enforced inferred spec fails scans exactly like a hand-written
        one); the shadow lane contributes *only* its analytics profile —
        never violations, counters, or health — which is what keeps
        ``fingerprint()`` byte-identical with the shadow lane on or off
        (docs/LIFECYCLE.md).  Drift observation is frozen on degraded
        scans: evidence gathered while sources are quarantined or shards
        failed would punish healthy specs for infrastructure faults.  A
        FAILED scan ran no meaningful statements, so the lanes are
        skipped outright.
        """
        if store is None:
            return {"enabled": True, "skipped": "no store on this scan"}
        if health is not None and health.status == HealthBlock.FAILED:
            return {"enabled": True, "skipped": "scan FAILED"}
        observe = health is None or health.status == HealthBlock.OK
        try:
            outcome = self.lifecycle.run_scan(store, observe=observe)
        except Exception as exc:  # lifecycle faults must never sink a scan
            _log.warning(
                "lifecycle scan failed",
                extra={"error": f"{type(exc).__name__}: {exc}"},
            )
            return {"enabled": True, "error": f"{type(exc).__name__}: {exc}"}
        enforced_report = outcome["enforced_report"]
        if enforced_report is not None:
            report.merge(enforced_report)
        if self.analytics is not None and outcome["shadow_profile"]:
            # spec_profile surfaces only through the analytics block,
            # which fingerprint() excludes — shadow activity is visible
            # to operators without perturbing the verdict identity
            merge_spec_profiles(report.spec_profile, outcome["shadow_profile"])
        return outcome["summary"]

    def _summarize(self, result: ScanResult) -> dict:
        """One JSON-safe ring-buffer record: outcome, perf and health deltas."""
        report = result.report
        previous = self.scan_records[-1] if self.scan_records else None
        record = {
            "sequence": result.sequence,
            "passed": result.passed,
            "transitioned": result.transitioned,
            "violations": len(report.violations),
            "violations_delta": len(report.violations)
            - (previous["violations"] if previous else 0),
            "specs_evaluated": report.specs_evaluated,
            "specs_skipped": report.specs_skipped,
            "instances_checked": report.instances_checked,
            "elapsed_seconds": round(report.elapsed_seconds, 6),
            "executor": report.executor,
            "shards_run": report.shards_run,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "changed_paths": list(result.changed_paths),
            "health": result.health.status if result.health else None,
        }
        if result.health is not None:
            record["quarantined_sources"] = len(result.health.quarantined_sources)
            record["quarantined_specs"] = len(result.health.quarantined_specs)
            record["shard_failures"] = len(result.health.shard_failures)
            record["retries"] = result.health.retries
        if result.delta is not None:
            record["delta"] = {
                "mode": result.delta["mode"],
                "store": result.delta["store"],
                "selected": result.delta["selected"],
                "skipped": result.delta["skipped"],
            }
        if result.shadow is not None:
            shadow = result.shadow.get("shadow") or {}
            record["shadow"] = {
                "specs": shadow.get("specs", 0),
                "violations": shadow.get("violations", 0),
                "transitions": len(result.shadow.get("transitions") or []),
            }
        if result.workflow is not None:
            steps = result.workflow.get("steps") or []
            record["workflow"] = {
                "name": result.workflow.get("name"),
                "statuses": {step["name"]: step["status"] for step in steps},
                "spliced": sum(1 for step in steps if step.get("spliced")),
            }
        return record

    def _observe_scan(self, result: ScanResult) -> None:
        metrics = get_metrics()
        metrics.counter(
            "confvalley_scans_total",
            "Service scans that revalidated, by outcome.",
        ).inc(outcome="pass" if result.passed else "fail")
        if result.health is not None:
            metrics.counter(
                "confvalley_scan_health_total",
                "Resilient-mode scans, by health status.",
            ).inc(status=result.health.status)
        log = _log.warning if result.transitioned else _log.info
        log(
            "scan completed",
            extra={
                "sequence": result.sequence,
                "passed": result.passed,
                "transitioned": result.transitioned,
                "violations": len(result.report.violations),
                "health": result.health.status if result.health else None,
                "elapsed_seconds": round(result.report.elapsed_seconds, 6),
            },
        )

    def _analyze_coverage(self, store) -> Optional[dict]:
        """Coverage summary of the current (spec text, store) pair.

        Cached on (spec text, instance count): steady-state scans where
        neither the spec nor the store shape changed reuse the previous
        analysis.  Returns the last known summary when the spec file is
        unreadable (a FAILED scan should not erase coverage history), and
        feeds the coverage gauges.
        """
        if store is None:
            return self._coverage
        try:
            if self.runtime is not None:
                spec_text = self.runtime.read_bytes(self.spec_path).decode("utf-8")
            else:
                with open(self.spec_path, "r", encoding="utf-8") as handle:
                    spec_text = handle.read()
        except Exception:
            return self._coverage
        key = (spec_text, store.instance_count)
        with self._obs_lock:
            if key == self._coverage_key and self._coverage is not None:
                return self._coverage
        try:
            from .core.coverage import analyze_coverage

            coverage = analyze_coverage(spec_text, store)
        except Exception:
            # an unparsable spec yields no coverage view, not a failed scan
            return self._coverage
        summary = {
            "covered_classes": len(coverage.covered),
            "uncovered_classes": len(coverage.uncovered),
            "total_classes": coverage.total_classes,
            "coverage_ratio": round(coverage.coverage_ratio, 4),
            "spec_count": coverage.spec_count,
            "dead_specs": sorted(coverage.dead_specs),
        }
        with self._obs_lock:
            self._coverage_key = key
            self._coverage = summary
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge(
                "confvalley_coverage_covered_classes",
                "Configuration classes matched by at least one specification.",
            ).set(summary["covered_classes"])
            metrics.gauge(
                "confvalley_coverage_uncovered_classes",
                "Configuration classes no specification can reach.",
            ).set(summary["uncovered_classes"])
            metrics.gauge(
                "confvalley_coverage_dead_specs",
                "Specifications whose notations match no instance at all.",
            ).set(len(summary["dead_specs"]))
        return summary

    # ------------------------------------------------------------------
    # Operator endpoint surface (repro.observability.server)
    # ------------------------------------------------------------------

    def health_payload(self) -> dict:
        """The ``GET /health`` body: 503-worthy iff ``status == "FAILED"``.

        ``status`` is the last scan's health verdict (``OK`` / ``DEGRADED``
        / ``FAILED``; strict-mode scans have no health block and report
        ``OK``), or ``never-validated`` before the first scan — a service
        that has not scanned yet is *up*, not broken.
        """
        last = self.history[-1] if self.history else None
        if last is None:
            return {
                "status": "never-validated",
                "passed": None,
                "scans": self.scans,
                "validations": self._sequence,
            }
        return {
            "status": last.health.status if last.health else HealthBlock.OK,
            "passed": last.passed,
            "sequence": last.sequence,
            "scans": self.scans,
            "validations": self._sequence,
        }

    def latest_trace(self) -> Optional[dict]:
        """The most recent scan's span tree as Chrome ``trace_event`` JSON
        (None until a scan ran with tracing enabled)."""
        with self._obs_lock:
            return self._last_trace

    def start_http(self, host: str = "127.0.0.1", port: int = 0):
        """Start the live operator endpoint; returns the running server."""
        from .observability.server import ObservabilityServer

        if self._http is None:
            self._http = ObservabilityServer(self, host=host, port=port).start()
        return self._http

    def stop_http(self) -> None:
        """Stop the operator endpoint (idempotent; part of clean shutdown)."""
        http, self._http = self._http, None
        if http is not None:
            http.stop()

    def attach_jobs(self, job_service) -> None:
        """Attach a :class:`~repro.jobs.service.JobService`.

        The job service shares this service's compiled-spec cache (same
        spec hash → one compile across scans *and* jobs) and gets the
        watched spec registered under the name ``"service"`` so remote
        submitters can validate against it without shipping the text.
        """
        self.jobs = job_service
        job_service.spec_cache = self.spec_cache
        job_service.executor.spec_cache = self.spec_cache
        if self.lifecycle is not None:
            # job verdicts carry a shadow block evaluated against the
            # job's own store (see JobExecutor._attach_shadow)
            job_service.executor.shadow_provider = self.lifecycle.shadow_cpl
        try:
            if self.runtime is not None:
                spec_text = self.runtime.read_bytes(self.spec_path).decode("utf-8")
            else:
                with open(self.spec_path, "r", encoding="utf-8") as handle:
                    spec_text = handle.read()
        except Exception:
            return  # an unreadable spec just skips the registration
        job_service.register_spec("service", spec_text)

    @property
    def http(self):
        """The running operator endpoint, or None."""
        return self._http

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe service status: health, cache, and scan history.

        This is the payload behind ``confvalley stats`` and the
        ``--metrics-file`` snapshot — everything an operator needs to read
        a degraded scan without attaching a debugger.
        """
        status = self.current_status
        with self._obs_lock:
            coverage = dict(self._coverage) if self._coverage else None
        return {
            "scans": self.scans,
            "validations": self._sequence,
            "analytics": (
                self.analytics.to_dict() if self.analytics is not None else None
            ),
            "drift": (
                self.analytics.drift() if self.analytics is not None else None
            ),
            "coverage": coverage,
            "status": (
                "never-validated"
                if status is None
                else ("passing" if status else "failing")
            ),
            "cache": self.spec_cache.stats.as_dict(),
            "delta": self._delta.stats() if self._delta is not None else None,
            "workflow": (
                self.workflow_engine.stats()
                if self.workflow_engine is not None
                else None
            ),
            "quarantined_sources": (
                self.source_supervisor.quarantined()
                if self.source_supervisor is not None
                else []
            ),
            "breakers": (
                self.breaker.snapshot() if self.breaker is not None else []
            ),
            "jobs": self.jobs.stats() if self.jobs is not None else None,
            "lifecycle": (
                self.lifecycle.stats() if self.lifecycle is not None else None
            ),
            "history": list(self.scan_records),
        }

    @property
    def current_status(self) -> Optional[bool]:
        """True = passing, False = failing, None = never validated."""
        if not self.history:
            return None
        return self.history[-1].passed

    @property
    def cache_stats(self) -> SpecCacheStats:
        """Compiled-spec cache counters across this service's scans."""
        return self.spec_cache.stats
