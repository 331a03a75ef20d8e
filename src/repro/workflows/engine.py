"""Workflow execution: gates, timeouts, splicing, spans and metrics.

The :class:`WorkflowEngine` runs one :class:`~repro.workflows.model.Workflow`
to a :class:`~repro.workflows.model.WorkflowReport`.  Steps execute in
declaration order (the workflow's deterministic topological order); before
each step the engine

1. **cascades skips** — a step whose dependency was skipped, failed or
   timed out is skipped itself, unless its gate is ``always``;
2. **evaluates the gate** against the violations accumulated so far;
3. **tries the splice cache** — a spliceable step whose input digest
   (options + upstream digests + source/spec probe tokens, the shadow
   text's hash) matches the previous run reuses that run's outputs
   without re-executing;
4. **supervises the run** — a step with a ``timeout`` executes on a
   runner thread that is *abandoned* when the budget expires (the same
   abandonment contract as the job worker: Python cannot safely interrupt
   arbitrary evaluation).  An abandoned or crashed step records evidence
   in the merged report's health block — the run completes ``DEGRADED``,
   never crashes — and its outputs are discarded, which is safe because
   step runners return outputs instead of mutating shared state
   (:mod:`repro.workflows.steps`).

Steps that do run re-derive only what changed.  The engine keeps one
:class:`~repro.core.incremental.KeptStore` per store name across runs:
parse outputs feed it on the engine thread, and it is brought up to date
before the first non-parse step (and before ``outcome.store``), patching
values in place when the keys are unchanged.  ``validate`` and ``shadow``
steps evaluate through the :class:`~repro.core.incremental.SpliceLane`
they kept last time, which re-runs only the statements the kept store's
change can affect — the delta scanner's patch-and-splice path.  A lane
is kept only when its step finished ``ok``.  A timed-out runner may still
be reading a kept store, so any ``timeout`` drops every kept store and
lane, as does :meth:`WorkflowEngine.reset`; ``outcome.store`` is the kept
store and stays valid until the next run.  With ``splice=False`` every
run builds fresh stores and evaluates every statement.

Every run opens a ``workflow[name]`` span with one ``step[name]`` child
per step — including skipped steps, whose span carries
``status=skipped`` — and feeds the ``confvalley_workflow_*`` metric
family.  Both observe only: the merged report, and hence its
``fingerprint()``, is identical with observability on or off.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Callable, Optional

from ..core.incremental import KeptStore
from ..observability import get_metrics, get_tracer
from ..repository.store import ConfigStore
from ..runtime import clock as _clock
from .model import (
    Gate,
    StepResult,
    StepStatus,
    Workflow,
    WorkflowReport,
    WorkflowStep,
)
from .steps import StepOutput, WorkflowContext, get_step_kind, normalize_source

__all__ = ["WorkflowEngine", "SUPERVISE_TICK"]

#: how often a supervised step re-checks its timeout budget (seconds)
SUPERVISE_TICK = 0.02


class WorkflowEngine:
    """Runs a workflow repeatedly, splicing unchanged steps between runs."""

    def __init__(
        self,
        workflow: Workflow,
        base_dir: str = ".",
        runtime=None,
        policy=None,
        spec_cache=None,
        executor: Optional[str] = None,
        sources: Optional[list] = None,
        spec_path: str = "",
        spec_text: str = "",
        shadow_provider: Optional[Callable[[], str]] = None,
        post_fn: Optional[Callable] = None,
        splice: bool = True,
        analytics: bool = False,
    ):
        self.workflow = workflow
        self.base_dir = base_dir
        self.runtime = runtime
        self.policy = policy
        self.spec_cache = spec_cache
        self.executor = executor
        self.sources = [normalize_source(source) for source in sources or []]
        self.spec_path = spec_path
        self.spec_text = spec_text
        self.shadow_provider = shadow_provider
        self.post_fn = post_fn
        #: False disables the unchanged-step splice (every run is fresh)
        self.splice = splice
        self.analytics = analytics
        # kinds resolve eagerly so an unknown kind fails at build time,
        # not five steps into a run
        for step in workflow:
            get_step_kind(step.kind)
        #: splice cache: step name → {digest, detail, output}
        self._retained: dict[str, dict] = {}
        #: kept store per store name, and kept splice lane per step name
        self._kept: dict[str, KeptStore] = {}
        self._lanes: dict = {}
        #: the most recent run's report (service stats, ``GET /stats``)
        self.last: Optional[WorkflowReport] = None
        self.runs = 0
        self.steps_run = 0
        self.steps_spliced = 0
        self.gate_skips = 0
        self.store_patched = 0
        self.store_rebuilt = 0
        self.statements_selected = 0
        self.statements_skipped = 0

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop the splice cache, kept stores and lanes; the next run
        executes every step over fresh stores."""
        self._retained.clear()
        self._drop_kept()

    def _drop_kept(self, ctx: Optional[WorkflowContext] = None) -> None:
        self._kept.clear()
        self._lanes.clear()
        if ctx is not None:
            ctx.kept.clear()

    def stats(self) -> dict:
        """JSON-safe lifetime counters plus the last run's step statuses."""
        return {
            "workflow": self.workflow.name,
            "steps": len(self.workflow),
            "runs": self.runs,
            "steps_run": self.steps_run,
            "steps_spliced": self.steps_spliced,
            "gate_skips": self.gate_skips,
            "store_patched": self.store_patched,
            "store_rebuilt": self.store_rebuilt,
            "statements_selected": self.statements_selected,
            "statements_skipped": self.statements_skipped,
            "last": (
                {
                    "passed": self.last.passed,
                    "statuses": self.last.statuses(),
                    "elapsed_seconds": round(self.last.elapsed_seconds, 6),
                }
                if self.last is not None
                else None
            ),
        }

    # ------------------------------------------------------------------

    def run(self, progress: Optional[Callable] = None, tracer=None) -> WorkflowReport:
        """Execute the workflow once.

        ``progress`` (optional) receives the per-step status list after
        every step settles — the live view job records publish while a
        workflow job runs.  ``tracer`` overrides the ambient tracer (job
        execution passes its distributed-trace continuation).
        """
        tracer = tracer if tracer is not None else get_tracer()
        metrics = get_metrics()
        started = _clock.now()
        ctx = WorkflowContext(
            workflow=self.workflow.name,
            base_dir=self.base_dir,
            runtime=self.runtime,
            policy=self.policy,
            spec_cache=self.spec_cache,
            executor=self.executor,
            sources=self.sources,
            spec_path=self.spec_path,
            spec_text=self.spec_text,
            shadow_provider=self.shadow_provider,
            post_fn=self.post_fn,
            analytics=self.analytics,
        )
        ctx.lanes = self._lanes
        outcomes: dict[str, StepResult] = {}
        digests: dict[str, Optional[str]] = {}
        with tracer.span(
            f"workflow[{self.workflow.name}]",
            workflow=self.workflow.name,
            steps=len(self.workflow),
        ):
            for step in self.workflow:
                result = StepResult(
                    name=step.name, kind=step.kind, gate=step.gate.render()
                )
                with tracer.span(
                    f"step[{step.name}]", kind=step.kind, gate=result.gate
                ) as span:
                    self._settle(ctx, step, result, outcomes, digests)
                    span.set(
                        status=result.status,
                        spliced=result.spliced,
                        violations=len(ctx.merged.violations),
                    )
                outcomes[step.name] = result
                ctx.results.append(result)
                self._observe_step(metrics, step, result)
                if progress is not None:
                    progress(ctx.step_payload())
            self._build_stores(ctx)
        report = ctx.merged
        report.health.finalize()
        outcome = WorkflowReport(
            workflow=self.workflow.name,
            steps=list(ctx.results),
            report=report,
            elapsed_seconds=_clock.now() - started,
        )
        self.runs += 1
        self.last = outcome
        if metrics.enabled:
            metrics.counter(
                "confvalley_workflow_runs_total",
                "Workflow runs, by workflow and outcome.",
            ).inc(
                workflow=self.workflow.name,
                outcome="pass" if outcome.passed else "fail",
            )
        # expose the primary store for consumers that want the scanned
        # data (service coverage analytics, lifecycle)
        outcome.store = ctx.primary_store()
        return outcome

    # ------------------------------------------------------------------

    def _settle(
        self,
        ctx: WorkflowContext,
        step: WorkflowStep,
        result: StepResult,
        outcomes: dict,
        digests: dict,
    ) -> None:
        """Decide skip/splice/run for one step and record its outcome."""
        if step.kind != "parse":
            self._build_stores(ctx)
        blocked = [
            name
            for name in step.after
            if outcomes[name].status in StepStatus.BLOCKING
        ]
        if blocked and step.gate.kind != Gate.ALWAYS:
            upstream = outcomes[blocked[0]]
            result.status = StepStatus.SKIPPED
            result.reason = f"upstream step {upstream.name!r} {upstream.status}"
            return
        if not step.gate.should_run(ctx.merged.violations):
            result.status = StepStatus.SKIPPED
            result.reason = step.gate.skip_reason(ctx.merged.violations)
            self.gate_skips += 1
            return
        digest = self._digest(ctx, step, digests) if self.splice else None
        digests[step.name] = digest
        retained = self._retained.get(step.name)
        if (
            digest is not None
            and retained is not None
            and retained["digest"] == digest
        ):
            splice_started = _clock.now()
            self._apply(ctx, step, retained["output"], spliced=True)
            result.status = StepStatus.OK
            result.spliced = True
            result.detail = dict(retained["detail"])
            result.seconds = _clock.now() - splice_started
            self.steps_spliced += 1
            return
        output = self._execute(ctx, step, result)
        if result.status == StepStatus.OK and output.lane is not None:
            self._lanes[step.name] = output.lane
            self.statements_selected += output.detail["selected"]
            self.statements_skipped += (
                output.detail["statements"] - output.detail["selected"]
            )
        else:
            # a failed run leaves no lane behind; a full run makes it stale
            self._lanes.pop(step.name, None)
        if result.status == StepStatus.OK and digest is not None:
            self._retained[step.name] = {
                "digest": digest,
                "detail": dict(result.detail),
                "output": output,
            }
        elif step.name in self._retained:
            # never splice forward from a failed/timed-out attempt
            del self._retained[step.name]

    def _execute(
        self, ctx: WorkflowContext, step: WorkflowStep, result: StepResult
    ) -> Optional[StepOutput]:
        """Run one step, supervised by its timeout budget."""
        kind = get_step_kind(step.kind)
        box: dict = {}

        def run():
            try:
                box["output"] = kind.runner(ctx, step)
            except Exception as exc:
                box["error"] = f"{type(exc).__name__}: {exc}"

        started = _clock.now()
        if step.timeout is None:
            run()
        else:
            runner = threading.Thread(
                target=run,
                name=f"confvalley-step-{self.workflow.name}-{step.name}",
                daemon=True,
            )
            runner.start()
            while runner.is_alive():
                runner.join(SUPERVISE_TICK)
                if not runner.is_alive():
                    break
                if _clock.now() - started > step.timeout:
                    message = (
                        f"step exceeded its {step.timeout:g}s timeout "
                        f"and was abandoned"
                    )
                    result.status = StepStatus.TIMEOUT
                    result.reason = message
                    result.seconds = _clock.now() - started
                    self._record_health(ctx, step, "timeout", message)
                    self.steps_run += 1
                    # the abandoned runner may still read a kept store
                    self._drop_kept(ctx)
                    return None
        result.seconds = _clock.now() - started
        self.steps_run += 1
        if "error" in box:
            result.status = StepStatus.FAILED
            result.reason = box["error"]
            self._record_health(ctx, step, "error", box["error"])
            return None
        output: StepOutput = box["output"]
        self._apply(ctx, step, output)
        result.status = StepStatus.OK
        result.detail = dict(output.detail)
        return output

    @staticmethod
    def _apply(
        ctx: WorkflowContext,
        step: WorkflowStep,
        output: StepOutput,
        spliced: bool = False,
    ) -> None:
        """Publish a finished step's outputs (engine thread only)."""
        if output.stores:
            for position, (name, instances) in enumerate(output.stores):
                ctx.feeds.setdefault(name, []).append(
                    ((step.name, position), instances, spliced)
                )
                ctx.unbuilt.add(name)
        if output.store_meta:
            for name, flags in output.store_meta.items():
                ctx.store_meta.setdefault(name, {}).update(flags)
        if output.report is not None:
            ctx.merged.merge(output.report)

    def _build_stores(self, ctx: WorkflowContext) -> None:
        """Bring every store fed since the last build up to date.

        A kept store patches itself when its sources kept their keys.  A
        spliced parse output feeds the parse the kept store already holds
        for it, which is not compared at all.  Each feeding parse step's
        detail records the path.
        """
        for name in sorted(ctx.unbuilt):
            feeds = ctx.feeds[name]
            if self.splice:
                kept = self._kept.setdefault(name, KeptStore())
                held = kept.raws()
                update = kept.update(
                    tuple(source for source, __, __ in feeds),
                    [
                        held.get(source, raw) if spliced else raw
                        for source, raw, spliced in feeds
                    ],
                )
                update.apply()
                kept.commit(update)
                ctx.stores[name] = kept.store
                ctx.kept[name] = kept
                mode = update.mode
                if mode == "patched":
                    self.store_patched += 1
                else:
                    self.store_rebuilt += 1
            else:
                store = ctx.stores[name] = ConfigStore()
                for __, raw, __ in feeds:
                    store.add_all(raw)
                mode = "rebuilt"
            fed = {step for (step, __), __, __ in feeds}
            for result in ctx.results:
                if result.name in fed:
                    result.detail.setdefault("store", {})[name] = mode
        ctx.unbuilt.clear()

    def _record_health(
        self, ctx: WorkflowContext, step: WorkflowStep, kind: str, message: str
    ) -> None:
        """Step faults are degraded operation, not scan findings — they
        land in the health block, which the fingerprint excludes."""
        ctx.merged.health.shard_failures.append(
            {
                "kind": "workflow-step",
                "step": step.name,
                "failure": kind,
                "error": message,
                "resolution": "abandoned",
            }
        )

    # ------------------------------------------------------------------
    # Splice digests
    # ------------------------------------------------------------------

    def _digest(
        self, ctx: WorkflowContext, step: WorkflowStep, digests: dict
    ) -> Optional[str]:
        """Merkle-style input digest, or None when the step must run.

        A step's digest covers its kind, its options, the digests of its
        dependencies, and the probe tokens of every external input it
        reads (source files, the spec file, the rule-pack file).  Any
        undigestible input — a REST source, an unreadable file, a
        non-spliceable dependency — disqualifies the step for this run.
        """
        kind = get_step_kind(step.kind)
        if not kind.spliceable:
            return None
        entries = [step.kind, json.dumps(step.options, sort_keys=True, default=str)]
        for dep in step.after:
            upstream = digests.get(dep)
            if upstream is None:
                return None
            entries.append(f"{dep}={upstream}")
        try:
            if step.kind == "parse":
                raw_sources = step.options.get("sources")
                descriptors = (
                    list(ctx.sources)
                    if raw_sources is None
                    else [normalize_source(source) for source in raw_sources]
                )
                for descriptor in descriptors:
                    if "text" in descriptor:
                        entries.append("text:" + descriptor["text"])
                        continue
                    from ..core.session import resolve_driver

                    if resolve_driver(
                        descriptor.get("format", ""), descriptor["path"]
                    ) == "rest":
                        return None  # network sources reparse every run
                    token = ctx.probe(descriptor["path"])
                    if token is None:
                        return None
                    entries.append(f"{descriptor['path']}:{token}")
            elif step.kind == "validate":
                entries.append("spec:" + ctx.resolve_spec(step))
            elif step.kind == "shadow":
                text = ctx.shadow_text()
                entries.append(
                    "shadow:-" if text is None else
                    "shadow:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
                )
            elif step.kind == "cross_check":
                if step.options.get("rulepack"):
                    token = ctx.probe(step.options["rulepack"])
                    if token is None:
                        return None
                    entries.append(f"rulepack:{token}")
            # custom spliceable kinds digest options + dependencies only —
            # registering spliceable=True asserts that is the whole input
        except Exception:
            return None
        hasher = hashlib.sha256()
        for entry in entries:
            hasher.update(entry.encode("utf-8", "replace"))
            hasher.update(b"\x00")
        return hasher.hexdigest()

    # ------------------------------------------------------------------

    def _observe_step(self, metrics, step: WorkflowStep, result: StepResult) -> None:
        if not metrics.enabled:
            return
        metrics.counter(
            "confvalley_workflow_steps_total",
            "Workflow steps settled, by kind and status.",
        ).inc(kind=step.kind, status=result.status)
        if result.status == StepStatus.SKIPPED:
            metrics.counter(
                "confvalley_workflow_gate_skips_total",
                "Steps skipped by their gate or a blocked dependency.",
            ).inc(gate=result.gate)
        elif result.spliced:
            metrics.counter(
                "confvalley_workflow_steps_spliced_total",
                "Steps spliced unchanged from the previous run.",
            ).inc(kind=step.kind)
        else:
            metrics.histogram(
                "confvalley_workflow_step_seconds",
                "Per-step wall clock for executed workflow steps.",
            ).observe(result.seconds, kind=step.kind)
