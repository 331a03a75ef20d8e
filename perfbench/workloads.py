"""The four check-in workloads, driven through the public entry points.

Each workload writes its seeded inputs into a work directory, sets the
program up (``start``), and then runs ops.  An op is one check-in: it
produces a verdict that is later compared with the fault ledger state it
was produced under.  Op timings cover only the path from the trigger to the
verdict; ground-truth checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import SpecCache, ValidationSession
from repro.core.report import ValidationReport
from repro.drivers import get_driver
from repro.inference import InferenceEngine
from repro.jobs.model import JobState, report_fingerprint_digest
from repro.jobs.service import JobService
from repro.repository.store import ConfigStore
from repro.service import SourceSpec, ValidationService
from repro.workflows import CrossStoreChecker, Workflow, WorkflowEngine, load_rulepack
from repro.workflows.model import StepStatus

from .corpus import EXPERT_SPEC, ServiceStores, TypeACorpus, toggle_script
from .verdicts import verdict_problems

#: the rule pack the workflow-gate cross-check step evaluates
RULEPACK = os.path.join("examples", "rulepacks", "security.yaml")

clock = time.perf_counter


class OpTimer:
    """Times ops from trigger to verdict; in a traced phase it also opens
    the op's root span, so layer spans attribute to the op."""

    def __init__(self):
        self.recorder = None
        self._local = threading.local()
        self._ids = itertools.count()

    def begin(self) -> float:
        if self.recorder is not None:
            op = f"op{next(self._ids)}"
            self.recorder.op = op
            record = self.recorder.open("op")
            record["attrs"]["op"] = op
            self._local.record = record
        self._local.started = clock()
        return self._local.started

    def end(self) -> float:
        seconds = clock() - self._local.started
        if self.recorder is not None:
            self.recorder.close(self._local.record)
            self.recorder.op = ""
        return seconds

    def alias(self, job_id: str) -> None:
        """Attribute spans of ``job_id`` (on worker threads) to this op."""
        if self.recorder is not None:
            self.recorder.aliases[job_id] = self._local.record["attrs"]["op"]


@dataclass
class OpRecord:
    """One timed check-in and what is needed to judge its verdict."""

    seconds: float
    keys: list = field(default_factory=list)      # violation keys reported
    active: tuple = ()                            # faults present in the input
    error: str = ""                               # raised / wrong state
    info: dict = field(default_factory=dict)      # per-layer inputs
    started: float = 0.0                          # perf_counter at trigger
    must_catch: Optional[tuple] = None            # None = every active fault

    def problems(self) -> list[str]:
        if self.error:
            return [self.error]
        return verdict_problems(self.keys, self.active, self.must_catch)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _keys(report: ValidationReport) -> list[str]:
    return [violation.key for violation in report.violations]


def _without_sources(report: ValidationReport) -> str:
    """Fingerprint with each violation's source path blanked, for
    comparing scans of the same content laid out in different files."""
    data = json.loads(report.fingerprint())
    for violation in data["violations"]:
        violation["source"] = ""
    return json.dumps(data, sort_keys=True)


class Workload:
    """Shared shape: inputs in ``workdir``, a program, sequential ops."""

    name = ""
    #: True when ops run on one client thread, one after another
    sequential = True
    #: idle checks measured after every ``IDLE_EVERY``-th op, so they
    #: sample the same stretch of time as the ops
    IDLE_PER_OP = 1
    IDLE_EVERY = 1

    def __init__(self, workdir: str, seed: int, repo_root: str, scale: float):
        self.workdir = workdir
        self.repo_root = repo_root
        self.scale = scale
        self.timer = OpTimer()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- lifecycle -------------------------------------------------------

    def write_inputs(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Construct the long-lived program objects (part of setup_s)."""

    def warm_up(self) -> None:
        """Untimed ops that fill caches before the timed phase."""
        self.op()

    def op(self) -> OpRecord:
        raise NotImplementedError

    def idle(self) -> float:
        """Cost of one check whose inputs did not change."""
        raise NotImplementedError

    def fingerprint_problems(self, record: OpRecord) -> list[str]:
        """Untimed parity check of ``record`` against a direct scan."""
        return []

    def close(self) -> None:
        pass

    def context(self) -> dict:
        """Corpus size facts for the run record."""
        return {}


class _TypeAFiles(Workload):
    """Helpers for workloads that keep a Type A corpus on disk."""

    def _corpus_context(self, files: list[str]) -> dict:
        return {
            "scale": self.scale,
            "instances": self.corpus.instances,
            "bytes": sum(os.path.getsize(self.path(name)) for name in files),
            "files": len(files),
            "faults_initial": len(self.corpus.initial),
        }

    def _direct(self, files: list[str]) -> ValidationReport:
        session = ValidationSession(base_dir=self.workdir)
        for name in files:
            session.load_source("xml", name)
        return session.validate(EXPERT_SPEC)


class ColdGate(_TypeAFiles):
    """A pre-commit gate: every op is a fresh session over sources on disk."""

    name = "cold-gate"

    def __init__(self, workdir, seed, repo_root, scale):
        super().__init__(workdir, seed, repo_root, scale)
        self.corpus = TypeACorpus(scale, seed)
        self.last_report: Optional[ValidationReport] = None
        self.watcher: Optional[ValidationService] = None

    def write_inputs(self) -> None:
        _write(self.path("typea.xml"), self.corpus.document.text())
        _write(self.path("typea.cpl"), EXPERT_SPEC)

    def op(self) -> OpRecord:
        started = self.timer.begin()
        session = ValidationSession(base_dir=self.workdir)
        session.load_source("xml", "typea.xml")
        report = session.validate_file("typea.cpl")
        seconds = self.timer.end()
        self.last_report = report
        return OpRecord(seconds, _keys(report), tuple(self.corpus.document.active),
                        started=started)

    def fingerprint_problems(self, record: OpRecord) -> list[str]:
        direct = self._direct(["typea.xml"])
        if direct.fingerprint() != self.last_report.fingerprint():
            return ["cold-gate verdict differs from a direct scan"]
        return []

    def idle(self) -> Optional[float]:
        """An idle poll of the same corpus watched as one file: what an
        idle ``service --watch`` costs over this gate's sources."""
        if self.watcher is None:
            self.watcher = ValidationService(
                self.path("typea.cpl"), [SourceSpec("xml", self.path("typea.xml"))],
                delta=True,
            )
            self.watcher.run_once()
            return None  # the bootstrap scan is not an idle poll
        started = clock()
        result = self.watcher.scan()
        seconds = clock() - started
        if result is not None:
            raise RuntimeError("idle scan over unchanged sources revalidated")
        return seconds

    def context(self) -> dict:
        return self._corpus_context(["typea.xml"])


class WatchCheckin(_TypeAFiles):
    """A long-lived delta service over a corpus split per datacenter."""

    name = "watch-checkin"
    IDLE_PER_OP = 2

    def __init__(self, workdir, seed, repo_root, scale):
        super().__init__(workdir, seed, repo_root, scale)
        self.corpus = TypeACorpus(scale, seed)
        self.ranges = self.corpus.datacenter_ranges()
        self.files = [f"dc{index:02d}.xml" for index in range(len(self.ranges))]
        self.script = toggle_script(
            random.Random(f"watch-edits:{seed}").sample(
                self.corpus.pool, len(self.corpus.pool)
            )
        )
        self.service: Optional[ValidationService] = None
        self.last_report: Optional[ValidationReport] = None

    def _file_of(self, line: int) -> int:
        return next(
            index for index, (start, end) in enumerate(self.ranges)
            if start <= line < end
        )

    def _write_file(self, index: int) -> None:
        start, end = self.ranges[index]
        _write(self.path(self.files[index]), self.corpus.document.text(start, end))

    def write_inputs(self) -> None:
        for index in range(len(self.files)):
            self._write_file(index)
        _write(self.path("typea.cpl"), EXPERT_SPEC)

    def start(self) -> None:
        self.service = ValidationService(
            self.path("typea.cpl"),
            [SourceSpec("xml", self.path(name)) for name in self.files],
            delta=True,
        )
        result = self.service.run_once()
        self.last_report = result.report

    def warm_up(self) -> None:
        self.op()
        self.op()
        self.idle()

    def op(self) -> OpRecord:
        fault = next(self.script)
        self.corpus.document.toggle(fault)
        self._write_file(self._file_of(fault.line))
        started = self.timer.begin()
        result = self.service.scan()
        seconds = self.timer.end()
        active = tuple(self.corpus.document.active)
        if result is None:
            return OpRecord(seconds, [], active, error="edit went unnoticed",
                            started=started)
        self.last_report = result.report
        return OpRecord(seconds, _keys(result.report), active,
                        info={"delta": result.delta}, started=started)

    def idle(self) -> float:
        started = clock()
        result = self.service.scan()
        seconds = clock() - started
        if result is not None:
            raise RuntimeError("idle scan over unchanged sources revalidated")
        return seconds

    def fingerprint_problems(self, record: OpRecord) -> list[str]:
        problems = []
        direct = self._direct(self.files)
        if direct.fingerprint() != self.last_report.fingerprint():
            problems.append("delta verdict differs from a full scan of the same files")
        _write(self.path("combined.xml"), self.corpus.document.text())
        single = self._direct(["combined.xml"])
        if _without_sources(single) != _without_sources(direct):
            problems.append("split corpus verdict differs from the single-file scan")
        return problems

    def context(self) -> dict:
        return self._corpus_context(self.files)


class JobStream(Workload):
    """Two closed-loop clients submitting small payloads to a job service."""

    name = "job-stream"
    sequential = False
    CLIENTS = 2
    WORKERS = 2
    PAYLOADS = 8
    #: finished jobs the service keeps; small enough that memory reaches
    #: its steady state early in every run, whatever the throughput
    RETENTION = 128

    def __init__(self, workdir, seed, repo_root, scale):
        super().__init__(workdir, seed, repo_root, scale)
        rng = random.Random(f"job-payloads:{seed}")
        self.payloads = [
            TypeACorpus(scale, rng.randrange(1 << 30), catalog_seed=index)
            for index in range(self.PAYLOADS)
        ]
        self.texts = [payload.document.text() for payload in self.payloads]
        self._counter = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self.service: Optional[JobService] = None

    def write_inputs(self) -> None:
        pass  # payloads travel inline with each job

    def start(self) -> None:
        self.service = JobService(
            journal_path=self.path("jobs.jsonl"), workers=self.WORKERS,
            retention_count=self.RETENTION,
        )
        self.service.register_spec("type_a", EXPERT_SPEC)

    def warm_up(self) -> None:
        for __ in range(4):
            self.op()

    def _next(self) -> int:
        with self._lock:
            index = self._counter
            self._counter += 1
            return index

    def _request(self, index: int) -> tuple[dict, tuple, Optional[tuple]]:
        payload_index = index % self.PAYLOADS
        payload = self.payloads[payload_index]
        source = f"payload-{payload_index}.xml"
        request = {
            "spec_name": "type_a",
            "idempotency_key": f"op-{index}",
            "sources": [{"format": "xml", "text": self.texts[payload_index],
                         "source": source}],
        }
        active, must_catch = tuple(payload.initial), None
        if index % 4 == 3:
            fault = payload.pool[(index // 4) % len(payload.pool)]
            lines = list(payload.document.lines)
            lines[fault.line] = fault.new
            request["mode"] = "delta"
            request["baseline_sources"] = request["sources"]
            request["sources"] = [{"format": "xml", "text": "\n".join(lines) + "\n",
                                   "source": source}]
            active, must_catch = active + (fault,), (fault,)
        return request, active, must_catch

    def op(self) -> OpRecord:
        index = self._next()
        request, active, must_catch = self._request(index)
        self._local.request = request
        started = self.timer.begin()
        try:
            job, __ = self.service.submit(**request)
            self.timer.alias(job.id)
            job = self.service.wait(job.id, timeout=120)
        except Exception as exc:  # admission rejections and timeouts fail the op
            return OpRecord(self.timer.end(), [], active, started=started,
                            error=f"{type(exc).__name__}: {exc}")
        returned = time.time()
        record = OpRecord(self.timer.end(), [], active, started=started,
                          must_catch=must_catch)
        record.info = {
            "index": index,
            "mode": job.mode,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "returned_at": returned,
        }
        if job.state != JobState.DONE:
            record.error = f"job ended {job.state}: {job.error}"
            return record
        result = job.result
        if result["violations"] != result["violations_shown"]:
            record.error = "verdict truncated its violation list"
            return record
        record.info["fingerprint"] = result["fingerprint"]
        record.keys = [violation["key"] for violation in result["violation_details"]]
        return record

    def idle(self) -> float:
        """Re-submit this client's last check-in (an idempotency hit)."""
        request = self._local.request
        started = clock()
        __, created = self.service.submit(**request)
        seconds = clock() - started
        if created:
            raise RuntimeError("duplicate submission created a new job")
        return seconds

    def fingerprint_problems(self, record: OpRecord) -> list[str]:
        if record.error or record.info.get("mode") != "full":
            return []
        index = record.info["index"] % self.PAYLOADS
        session = ValidationSession()
        session.load_text("xml", self.texts[index], source=f"payload-{index}.xml")
        direct = session.validate(EXPERT_SPEC)
        if report_fingerprint_digest(direct) != record.info["fingerprint"]:
            return ["job verdict differs from a direct scan of its payload"]
        return []

    def close(self) -> None:
        if self.service is not None:
            self.service.close(drain=True, timeout=60)
            self.service = None

    def context(self) -> dict:
        return {
            "scale": self.scale,
            "instances": sum(p.instances for p in self.payloads) // self.PAYLOADS,
            "bytes": sum(len(text.encode()) for text in self.texts) // self.PAYLOADS,
            "files": 1,
            "payloads": self.PAYLOADS,
            "clients": self.CLIENTS,
            "workers": self.WORKERS,
            "retention": self.RETENTION,
            "faults_initial": len(self.payloads[0].initial),
        }


class WorkflowGate(_TypeAFiles):
    """A long-lived workflow engine with a shadow lane and a cross-check."""

    name = "workflow-gate"
    IDLE_EVERY = 4

    def __init__(self, workdir, seed, repo_root, scale):
        super().__init__(workdir, seed, repo_root, scale)
        self.corpus = TypeACorpus(scale, seed)
        self.stores = ServiceStores(seed)
        rng = random.Random(f"workflow-edits:{seed}")
        self.typea_script = toggle_script(
            rng.sample(self.corpus.pool, len(self.corpus.pool))
        )
        self.env_script = toggle_script(
            rng.sample(self.stores.pool, len(self.stores.pool))
        )
        self.edits = 0
        self.shadow_cpl = ""
        self.engine: Optional[WorkflowEngine] = None
        self.last = None

    def write_inputs(self) -> None:
        _write(self.path("typea.xml"), self.corpus.document.text())
        _write(self.path(ServiceStores.ENV_FILE), self.stores.document.text())
        _write(self.path(ServiceStores.INI_FILE), self.stores.ini_text)
        _write(self.path("typea.cpl"), EXPERT_SPEC)
        session = ValidationSession(base_dir=self.workdir)
        session.load_source("xml", "typea.xml")
        self.shadow_cpl = InferenceEngine().infer(session.store).to_cpl()

    def definition(self) -> dict:
        rulepack = os.path.join(self.repo_root, RULEPACK)
        return {
            "workflow": {"name": "check-in"},
            "steps": [
                {"name": "parse_typea", "kind": "parse",
                 "sources": [{"format": "xml", "path": "typea.xml",
                              "store": "typea"}]},
                {"name": "parse_services", "kind": "parse", "after": [],
                 "sources": [
                     {"format": "env", "path": ServiceStores.ENV_FILE,
                      "store": "frontend", "world_readable": True},
                     {"format": "ini", "path": ServiceStores.INI_FILE,
                      "store": "backend"},
                 ]},
                {"name": "validate", "kind": "validate", "after": "parse_typea",
                 "store": "typea", "spec": "typea.cpl"},
                {"name": "shadow", "kind": "shadow", "after": "parse_typea",
                 "store": "typea"},
                {"name": "cross_check", "kind": "cross_check",
                 "after": "parse_services", "rulepack": rulepack,
                 "stores": ["frontend", "backend"]},
                {"name": "report", "kind": "report",
                 "after": ["validate", "shadow", "cross_check"]},
            ],
        }

    def start(self) -> None:
        self.engine = WorkflowEngine(
            Workflow.from_dict(self.definition()),
            base_dir=self.workdir,
            spec_cache=SpecCache(),
            shadow_provider=lambda: self.shadow_cpl,
        )
        self.last = self.engine.run()

    def warm_up(self) -> None:
        self.op()
        self.op()

    def _active(self) -> tuple:
        return tuple(self.corpus.document.active | self.stores.document.active)

    def op(self) -> OpRecord:
        # one .env edit, then three Type A edits: an even split would put
        # the median between the two cost modes, where it is least steady
        if self.edits % 4 == 0:
            document, fault = self.stores.document, next(self.env_script)
            name = ServiceStores.ENV_FILE
        else:
            document, fault = self.corpus.document, next(self.typea_script)
            name = "typea.xml"
        self.edits += 1
        document.toggle(fault)
        _write(self.path(name), document.text())
        started = self.timer.begin()
        run = self.engine.run()
        seconds = self.timer.end()
        self.last = run
        steps = [
            (step.kind, step.seconds, step.spliced, step.status)
            for step in run.steps
        ]
        record = OpRecord(seconds, _keys(run.report), self._active(),
                          info={"steps": steps}, started=started)
        not_ok = [step.name for step in run.steps if step.status != StepStatus.OK]
        if not_ok:
            record.error = f"workflow steps did not finish ok: {not_ok}"
        return record

    def idle(self) -> float:
        started = clock()
        run = self.engine.run()
        seconds = clock() - started
        if run.fingerprint() != self.last.fingerprint():
            raise RuntimeError("no-change workflow run changed the verdict")
        return seconds

    def fingerprint_problems(self, record: OpRecord) -> list[str]:
        direct = self._direct(["typea.xml"])
        stores = {}
        for store, fmt, name in (("frontend", "env", ServiceStores.ENV_FILE),
                                 ("backend", "ini", ServiceStores.INI_FILE)):
            path = self.path(name)
            with open(path, "rb") as handle:
                raw = handle.read()
            stores[store] = ConfigStore()
            stores[store].add_all(get_driver(fmt).parse_bytes(raw, source=path))
        checker = CrossStoreChecker(
            load_rulepack(os.path.join(self.repo_root, RULEPACK)), stores,
            store_meta={"frontend": {"world_readable": True}},
        )
        direct.merge(checker.check())
        if direct.fingerprint() != self.last.fingerprint():
            return ["workflow verdict differs from a direct scan plus cross-check"]
        return []

    def context(self) -> dict:
        context = self._corpus_context(["typea.xml"])
        context["bytes"] += sum(
            os.path.getsize(self.path(name))
            for name in (ServiceStores.ENV_FILE, ServiceStores.INI_FILE)
        )
        context["files"] += 2
        context["faults_initial"] += len(self.stores.initial)
        context["shadow_specs"] = sum(
            1 for line in self.shadow_cpl.splitlines()
            if line.strip() and not line.lstrip().startswith("//")
        )
        return context


WORKLOADS = {
    cls.name: cls for cls in (ColdGate, WatchCheckin, JobStream, WorkflowGate)
}
