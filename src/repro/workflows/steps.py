"""Built-in step kinds and the custom-step registry.

A step implementation is a *pure* callable ``runner(ctx, step) ->
StepOutput``: it reads the shared :class:`WorkflowContext` and returns its
outputs — a JSON-safe ``detail`` summary, optionally a
:class:`~repro.core.report.ValidationReport` to merge into the workflow
verdict, optionally parsed stores, and optionally the splice lane to keep
for its next run — without mutating shared state.  The engine applies
outputs on its own thread only after the step finished inside its
timeout, which is what makes per-step timeouts safe: an abandoned
runner's outputs are simply discarded
(:meth:`~repro.workflows.engine.WorkflowEngine._execute`).

``validate`` and ``shadow`` evaluate through a
:class:`~repro.core.incremental.SpliceLane` over the engine's kept store
(:meth:`WorkflowContext.evaluate`): only the statements the store's last
change can affect re-run, and the rest splice from the lane the step
kept last time — the delta scanner's path, shared.

Built-in kinds::

    parse        load sources into named stores
    validate     run a CPL spec against a store (merges into the verdict)
    shadow       evaluate the serving validator's candidate specs (advisory)
    cross_check  evaluate a cross-store rule pack (merges into the verdict)
    report       render the merged verdict (optionally write it to a file)
    webhook      POST the workflow outcome to a URL

Custom kinds register through :func:`register_step_kind`; only kinds
declared ``spliceable`` participate in the engine's unchanged-step splice.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.incremental import SpliceLane, compile_for_splice
from ..core.policy import ValidationPolicy
from ..core.report import ValidationReport
from ..core.session import ValidationSession, resolve_driver
from ..drivers import get_driver
from ..parallel.shards import select_units
from ..repository.store import ConfigStore
from ..runtime import RuntimeProvider
from .model import StepResult, WorkflowError, WorkflowStep

__all__ = [
    "StepOutput",
    "WorkflowContext",
    "get_step_kind",
    "register_step_kind",
    "step_kinds",
]

#: workflow-level I/O fallback when no runtime provider was supplied
_DEFAULT_RUNTIME = RuntimeProvider()


@dataclass
class StepOutput:
    """What a step runner hands back to the engine."""

    #: JSON-safe outcome summary, recorded on the step result
    detail: dict = field(default_factory=dict)
    #: validation outcome to merge into the workflow verdict (None = the
    #: step is advisory / side-effect-only and never touches the verdict)
    report: Optional[ValidationReport] = None
    #: parsed stores to publish: ``[(store name, instance tuple), …]``
    stores: Optional[list] = None
    #: per-store flags to publish (``{"web": {"world_readable": True}}``)
    store_meta: Optional[dict] = None
    #: the splice lane to keep for the step's next run; the engine keeps
    #: it only when the step finished ``ok``
    lane: Optional[SpliceLane] = None


class WorkflowContext:
    """Shared state one workflow run threads through its steps."""

    def __init__(
        self,
        workflow: str,
        base_dir: str = ".",
        runtime=None,
        policy: Optional[ValidationPolicy] = None,
        spec_cache=None,
        executor: Optional[str] = None,
        sources: Optional[list] = None,
        spec_path: str = "",
        spec_text: str = "",
        shadow_provider: Optional[Callable[[], str]] = None,
        post_fn: Optional[Callable] = None,
        analytics: bool = False,
    ):
        self.workflow = workflow
        self.base_dir = base_dir
        self.runtime = runtime
        self.policy = policy
        self.spec_cache = spec_cache
        self.executor = executor
        #: default source descriptors for ``parse`` steps without their own
        self.sources = [normalize_source(source) for source in sources or []]
        self.spec_path = spec_path
        self.spec_text = spec_text
        self.shadow_provider = shadow_provider
        #: injectable ``post(url, payload, timeout) -> int`` for webhooks
        self.post_fn = post_fn
        self.analytics = analytics
        #: named configuration stores built by ``parse`` steps
        self.stores: dict[str, ConfigStore] = {}
        #: the engine's kept store behind each name in ``stores`` (empty
        #: with splicing off), and each step's kept splice lane
        self.kept: dict = {}
        self.lanes: dict[str, SpliceLane] = {}
        #: parse outputs per store name, in order:
        #: ``[((step name, output position), instance tuple, spliced), …]``
        self.feeds: dict[str, list] = {}
        self.unbuilt: set[str] = set()
        self._shadow_text: Optional[tuple] = None
        #: per-store flags rule packs can condition on (world_readable, …)
        self.store_meta: dict[str, dict] = {}
        #: the merged validation verdict, in step-execution order
        self.merged = ValidationReport()
        #: results of the steps executed so far, in order
        self.results: list[StepResult] = []

    def peek_store(self, name: str = "default") -> ConfigStore:
        """The named store, or an empty placeholder (never registered)."""
        store = self.stores.get(name)
        return store if store is not None else ConfigStore()

    def primary_store(self) -> Optional[ConfigStore]:
        """The store a single-store consumer should see (lifecycle etc.)."""
        if "default" in self.stores:
            return self.stores["default"]
        for name in sorted(self.stores):
            return self.stores[name]
        return None

    def read_text(self, path: str) -> str:
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        runtime = self.runtime if self.runtime is not None else _DEFAULT_RUNTIME
        return runtime.read_bytes(path).decode("utf-8")

    def probe(self, path: str):
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        runtime = self.runtime if self.runtime is not None else _DEFAULT_RUNTIME
        return runtime.probe(path)

    def resolve_spec(self, step: WorkflowStep) -> str:
        """Spec text for a ``validate`` step: step options win, then the
        workflow-level spec."""
        options = step.options
        if options.get("spec_text"):
            return options["spec_text"]
        if options.get("spec"):
            return self.read_text(options["spec"])
        if self.spec_text:
            return self.spec_text
        if self.spec_path:
            return self.read_text(self.spec_path)
        raise WorkflowError(
            f"step {step.name!r} has no spec: set 'spec' (path) or "
            f"'spec_text', or run the workflow with one"
        )

    def shadow_text(self) -> Optional[str]:
        """The shadow provider's text, fetched once per run (``None``
        without a provider), so the splice digest and the step agree."""
        if self.shadow_provider is None:
            return None
        if self._shadow_text is None:
            self._shadow_text = (self.shadow_provider(),)
        return self._shadow_text[0]

    def evaluate(
        self, step: WorkflowStep, spec_text: str, executor=None, **options
    ) -> tuple[ValidationReport, dict, Optional[SpliceLane]]:
        """Validate ``spec_text`` against the step's store, splicing if it can.

        ``options`` configure the :class:`ValidationSession`.  Over a kept
        store, the step's lane re-evaluates only what the store's change
        since the lane's last run can affect.  Otherwise — splicing off, a
        placeholder store, or a program a splice cannot reproduce — the
        whole spec runs on ``executor``.  Returns the report, the
        selection detail and the lane to keep (``None`` on the full path).
        """
        name = step.options.get("store", "default")
        kept = self.kept.get(name)
        if kept is not None:
            session = ValidationSession(
                runtime=self.runtime, spec_cache=self.spec_cache, **options
            )
            statements = compile_for_splice(session, spec_text)
            if statements is not None:
                lane = self.lanes.get(step.name) or SpliceLane()
                run = lane.run(
                    session,
                    (spec_text, session._options_fingerprint()),
                    statements,
                    kept.store,
                    kept.change_since(lane.stamp),
                    stamp=kept.stamp,
                )
                return run.report, {
                    "lane": "delta" if run.mode == "delta" else "full",
                    "statements": run.statements,
                    "selected": run.selected,
                }, run.lane
        store = self.peek_store(name)
        if kept is not None:
            # load commands add to the store: never to the kept one
            store = ConfigStore()
            store.add_all(kept.store.instances())
        session = ValidationSession(
            store=store, runtime=self.runtime, spec_cache=self.spec_cache,
            executor=executor, **options,
        )
        statements = session.compile(spec_text)
        report = session._run_validation(statements, None)
        units = len(select_units(statements)[1])
        return report, {"lane": "full", "statements": units, "selected": units}, None

    def step_payload(self) -> list:
        return [result.to_dict() for result in self.results]


def normalize_source(source) -> dict:
    """Descriptor dicts pass through; ``FMT:PATH[:SCOPE]`` strings parse."""
    if isinstance(source, dict):
        if not source.get("format"):
            raise WorkflowError(f"source needs a 'format': {source!r}")
        if "text" not in source and not source.get("path"):
            raise WorkflowError(f"source needs 'path' or inline 'text': {source!r}")
        return dict(source)
    if isinstance(source, str):
        parts = source.split(":", 2)
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise WorkflowError(
                f"source reference must look like 'FMT:PATH[:SCOPE]': {source!r}"
            )
        descriptor = {"format": parts[0], "path": parts[1]}
        if len(parts) == 3 and parts[2]:
            descriptor["scope"] = parts[2]
        return descriptor
    raise WorkflowError(f"unsupported source entry: {source!r}")


# ---------------------------------------------------------------------------
# Step-kind registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepKind:
    name: str
    runner: Callable
    #: True = deterministic given its digestible inputs, so unchanged runs
    #: may be spliced from the previous execution
    spliceable: bool = False


_STEP_KINDS: dict[str, StepKind] = {}


def register_step_kind(
    name: str, runner: Callable, spliceable: bool = False
) -> StepKind:
    """Register (or replace) a step implementation under ``name``."""
    if not name:
        raise WorkflowError("step kind needs a name")
    kind = StepKind(name, runner, spliceable)
    _STEP_KINDS[name] = kind
    return kind


def get_step_kind(name: str) -> StepKind:
    try:
        return _STEP_KINDS[name]
    except KeyError:
        raise WorkflowError(
            f"unknown step kind {name!r}; known kinds: "
            f"{', '.join(sorted(_STEP_KINDS))}"
        ) from None


def step_kinds() -> list[str]:
    return sorted(_STEP_KINDS)


# ---------------------------------------------------------------------------
# Built-in steps
# ---------------------------------------------------------------------------


def _parse_source(ctx: WorkflowContext, descriptor: dict) -> tuple[str, tuple]:
    """One source descriptor → (store name, parsed instance tuple)."""
    fmt = descriptor.get("format", "")
    scope = descriptor.get("scope", "")
    if "text" in descriptor:
        instances = get_driver(fmt).parse(
            descriptor["text"],
            source=descriptor.get("source", "<inline>"),
            scope=scope,
        )
    else:
        driver_name = resolve_driver(fmt, descriptor["path"])
        driver = get_driver(driver_name)
        if driver_name == "rest":
            instances = driver.parse(
                descriptor["path"], source=descriptor["path"], scope=scope
            )
        else:
            path = descriptor["path"]
            if not os.path.isabs(path):
                path = os.path.join(ctx.base_dir, path)
            runtime = ctx.runtime if ctx.runtime is not None else _DEFAULT_RUNTIME
            raw = runtime.read_bytes(path)
            instances = driver.parse_bytes(raw, source=path, scope=scope)
    return descriptor.get("store", "default"), tuple(instances)


def run_parse(ctx: WorkflowContext, step: WorkflowStep) -> StepOutput:
    raw_sources = step.options.get("sources")
    if raw_sources is None:
        descriptors = list(ctx.sources)
    else:
        descriptors = [normalize_source(source) for source in raw_sources]
    stores: list[tuple[str, tuple]] = []
    counts: dict[str, int] = {}
    meta: dict[str, dict] = {}
    for descriptor in descriptors:
        name, instances = _parse_source(ctx, descriptor)
        stores.append((name, instances))
        counts[name] = counts.get(name, 0) + len(instances)
        if descriptor.get("world_readable"):
            meta.setdefault(name, {})["world_readable"] = True
    return StepOutput(
        detail={
            "sources": len(descriptors),
            "instances": sum(counts.values()),
            "stores": {name: counts[name] for name in sorted(counts)},
        },
        stores=stores,
        store_meta=meta or None,
    )


def run_validate(ctx: WorkflowContext, step: WorkflowStep) -> StepOutput:
    spec_text = ctx.resolve_spec(step)
    executor = step.options.get("executor", ctx.executor)
    if executor in ("", "none"):
        executor = None
    report, selection, lane = ctx.evaluate(
        step,
        spec_text,
        executor=executor,
        policy=ctx.policy,
        base_dir=ctx.base_dir,
        analytics=ctx.analytics,
    )
    return StepOutput(
        detail={
            "specs_evaluated": report.specs_evaluated,
            "violations": len(report.violations),
            "instances_checked": report.instances_checked,
            "passed": report.passed,
            **selection,
        },
        report=report,
        lane=lane,
    )


def run_shadow(ctx: WorkflowContext, step: WorkflowStep) -> StepOutput:
    """Advisory lane: candidate specs never touch the workflow verdict."""
    text = ctx.shadow_text()
    if text is None:
        return StepOutput(detail={"enabled": False})
    if not text:
        return StepOutput(detail={"enabled": True, "specs": 0, "clean": True})
    # optimize=False matches the lifecycle's shadow lane, so the composed
    # program shares one spec-cache entry with it
    shadow_report, selection, lane = ctx.evaluate(step, text, optimize=False)
    return StepOutput(
        detail={
            "enabled": True,
            "specs": shadow_report.specs_evaluated,
            "violations": len(shadow_report.violations),
            "instances_checked": shadow_report.instances_checked,
            "clean": not shadow_report.violations,
            **selection,
        },
        lane=lane,
    )


def run_cross_check(ctx: WorkflowContext, step: WorkflowStep) -> StepOutput:
    from .crosscheck import CrossStoreChecker
    from .rulepack import load_rulepack, parse_rulepack

    options = step.options
    if options.get("rulepack"):
        path = options["rulepack"]
        if not os.path.isabs(path):
            path = os.path.join(ctx.base_dir, path)
        pack = load_rulepack(path)
    elif options.get("rules") is not None:
        pack = parse_rulepack(
            {"rulepack": {"name": options.get("pack", step.name)},
             "rules": options["rules"]}
        )
    else:
        raise WorkflowError(
            f"step {step.name!r} needs a 'rulepack' path or inline 'rules'"
        )
    names = options.get("stores")
    if names is None:
        names = sorted(ctx.stores)
    stores = {name: ctx.peek_store(name) for name in names}
    checker = CrossStoreChecker(
        pack, stores, store_meta=ctx.store_meta, spec_cache=ctx.spec_cache
    )
    report = checker.check()
    return StepOutput(
        detail={
            "rulepack": pack.name,
            "rules": len(pack.rules),
            "stores": sorted(stores),
            "violations": len(report.violations),
            "passed": report.passed,
        },
        report=report,
    )


def run_report(ctx: WorkflowContext, step: WorkflowStep) -> StepOutput:
    merged = ctx.merged
    digest = hashlib.sha256(merged.fingerprint().encode("utf-8")).hexdigest()
    detail = {
        "passed": merged.passed,
        "violations": len(merged.violations),
        "specs_evaluated": merged.specs_evaluated,
        "instances_checked": merged.instances_checked,
        "fingerprint": digest,
    }
    out_path = step.options.get("out")
    if out_path:
        if not os.path.isabs(out_path):
            out_path = os.path.join(ctx.base_dir, out_path)
        payload = {
            "workflow": ctx.workflow,
            "verdict": "admit" if merged.passed else "reject",
            "fingerprint": digest,
            "steps": ctx.step_payload(),
            "report": merged.to_dict(),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        detail["out"] = out_path
    return StepOutput(detail=detail)


def _default_post(url: str, payload: dict, timeout: float) -> int:
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status


def run_webhook(ctx: WorkflowContext, step: WorkflowStep) -> StepOutput:
    url = step.options.get("url", "")
    if not url:
        raise WorkflowError(f"step {step.name!r} needs a 'url'")
    payload = {
        "workflow": ctx.workflow,
        "passed": ctx.merged.passed,
        "violations": len(ctx.merged.violations),
        "steps": ctx.step_payload(),
    }
    post = ctx.post_fn if ctx.post_fn is not None else _default_post
    status = post(url, payload, float(step.options.get("request_timeout", 5.0)))
    if not (200 <= int(status) < 300):
        raise WorkflowError(f"webhook {url} answered HTTP {status}")
    return StepOutput(detail={"url": url, "http_status": int(status)})


register_step_kind("parse", run_parse, spliceable=True)
register_step_kind("validate", run_validate, spliceable=True)
register_step_kind("shadow", run_shadow, spliceable=True)
register_step_kind("cross_check", run_cross_check, spliceable=True)
register_step_kind("report", run_report)
register_step_kind("webhook", run_webhook)
