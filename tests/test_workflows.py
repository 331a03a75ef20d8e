"""Composable validation workflows: gates, determinism, cross-store rules.

The determinism anchor under test: a pure-validation workflow
(parse → validate → report) produces a merged report whose
``fingerprint()`` is byte-identical to a direct single-pass
:class:`~repro.core.session.ValidationSession` scan of the same spec and
sources — across every executor, with splicing on or off, and across the
asynchronous job API.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro import observability
from repro.core.session import ValidationSession
from repro.jobs.model import report_fingerprint_digest
from repro.jobs.service import JobService
from repro.parallel.cache import SpecCache
from repro.service import SourceSpec, ValidationService
from repro.workflows import (
    CrossStoreChecker,
    Gate,
    StepOutput,
    StepStatus,
    Workflow,
    WorkflowEngine,
    WorkflowError,
    extract_port,
    load_rulepack,
    load_workflow,
    parse_rulepack,
    register_step_kind,
)

APP_JSON = json.dumps(
    {
        "database": {"host": "db.internal:5432", "pool_size": "10"},
        "debug": "false",
        "environment": "production",
    }
)

PROD_ENV = """\
# production environment
DATABASE_URL="postgres://db.internal:5432/app"
export API_TOKEN='s3cr3t'
debug=false
"""

SPEC = """\
$database.pool_size -> int & [1, 64]
$debug -> in('true', 'false')
"""


@pytest.fixture(autouse=True)
def pristine_observability():
    observability.disable()
    yield
    observability.disable()


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "app.json").write_text(APP_JSON)
    (tmp_path / "prod.env").write_text(PROD_ENV)
    (tmp_path / "app.cpl").write_text(SPEC)
    return tmp_path


def pure_workflow(corpus) -> Workflow:
    return Workflow.from_dict(
        {
            "workflow": {"name": "pure"},
            "steps": [
                {
                    "name": "parse",
                    "sources": [{"format": "json", "path": "app.json"}],
                },
                {"name": "validate", "spec": "app.cpl"},
                {"name": "report", "gate": "always"},
            ],
        }
    )


def direct_report(corpus):
    session = ValidationSession(base_dir=str(corpus))
    session.load_source("json", "app.json")
    return session.validate((corpus / "app.cpl").read_text())


# ---------------------------------------------------------------------------
# Model and loader validation
# ---------------------------------------------------------------------------


class TestModel:
    def test_gate_parsing(self):
        assert Gate.parse("always").kind == Gate.ALWAYS
        gate = Gate.parse("on_violation:error")
        assert (gate.kind, gate.severity) == ("on_violation", "error")
        assert gate.render() == "on_violation:error"

    @pytest.mark.parametrize(
        "text", ["sometimes", "always:error", "on_pass:fatal"]
    )
    def test_bad_gates_rejected(self, text):
        with pytest.raises(WorkflowError):
            Gate.parse(text)

    def test_severity_threshold_counts_only_at_or_above(self):
        class V:
            def __init__(self, severity):
                self.severity = severity

        gate = Gate.parse("on_violation:error")
        assert not gate.should_run([V("warning"), V("info")])
        assert gate.should_run([V("critical")])

    def test_duplicate_step_names_rejected(self):
        with pytest.raises(WorkflowError, match="duplicate"):
            Workflow.from_dict(
                {"steps": [{"name": "a", "kind": "report"},
                           {"name": "a", "kind": "report"}]}
            )

    def test_forward_references_rejected_so_cycles_are_unrepresentable(self):
        with pytest.raises(WorkflowError, match="not an earlier step"):
            Workflow.from_dict(
                {"steps": [{"name": "a", "kind": "report", "after": "b"},
                           {"name": "b", "kind": "report"}]}
            )

    def test_default_after_is_the_previous_step(self):
        workflow = Workflow.from_dict(
            {"steps": [{"name": "a", "kind": "report"},
                       {"name": "b", "kind": "report"}]}
        )
        assert workflow.step("b").after == ("a",)

    def test_unknown_top_level_fields_rejected(self):
        with pytest.raises(WorkflowError, match="unknown workflow field"):
            Workflow.from_dict(
                {"steps": [{"name": "report"}], "stepz": []}
            )

    def test_unknown_step_kind_fails_at_engine_build(self):
        workflow = Workflow.from_dict({"steps": [{"name": "no-such-kind"}]})
        with pytest.raises(WorkflowError, match="unknown step kind"):
            WorkflowEngine(workflow)

    def test_to_dict_round_trips(self, corpus):
        workflow = pure_workflow(corpus)
        again = Workflow.from_dict(workflow.to_dict())
        assert again.to_dict() == workflow.to_dict()


class TestLoader:
    def test_yaml_file(self, corpus):
        path = corpus / "flow.yaml"
        path.write_text(
            "workflow:\n  name: y\nsteps:\n  - name: report\n"
        )
        assert load_workflow(str(path)).name == "y"

    def test_toml_file(self, corpus):
        path = corpus / "flow.toml"
        path.write_text(
            '[workflow]\nname = "t"\n\n[[steps]]\nname = "report"\n'
        )
        workflow = load_workflow(str(path))
        assert workflow.name == "t"
        assert workflow.step("report").kind == "report"

    def test_malformed_and_missing_files(self, corpus):
        bad = corpus / "bad.yaml"
        bad.write_text("steps: [")
        with pytest.raises(WorkflowError, match="malformed"):
            load_workflow(str(bad))
        with pytest.raises(WorkflowError, match="cannot read"):
            load_workflow(str(corpus / "missing.yaml"))


# ---------------------------------------------------------------------------
# Determinism: fingerprint parity with a single-pass scan
# ---------------------------------------------------------------------------


class TestFingerprintParity:
    @pytest.mark.parametrize("executor", [None, "serial", "thread", "process"])
    def test_pure_workflow_matches_direct_scan(self, corpus, executor):
        engine = WorkflowEngine(
            pure_workflow(corpus), base_dir=str(corpus), executor=executor
        )
        outcome = engine.run()
        assert outcome.passed
        assert outcome.fingerprint() == direct_report(corpus).fingerprint()

    def test_splice_preserves_the_fingerprint(self, corpus):
        engine = WorkflowEngine(pure_workflow(corpus), base_dir=str(corpus))
        first = engine.run()
        second = engine.run()
        assert second.step("parse").spliced
        assert second.step("validate").spliced
        assert not second.step("report").spliced  # report is never spliced
        assert second.fingerprint() == first.fingerprint()

    def test_splice_disabled_runs_every_step(self, corpus):
        engine = WorkflowEngine(
            pure_workflow(corpus), base_dir=str(corpus), splice=False
        )
        engine.run()
        outcome = engine.run()
        assert not any(result.spliced for result in outcome.steps)

    def test_changed_source_invalidates_the_splice(self, corpus):
        engine = WorkflowEngine(pure_workflow(corpus), base_dir=str(corpus))
        engine.run()
        (corpus / "app.json").write_text(
            APP_JSON.replace('"10"', '"99"')
        )
        outcome = engine.run()
        assert not outcome.step("parse").spliced
        assert not outcome.step("validate").spliced
        assert not outcome.passed  # pool_size 99 breaks [1, 64]

    def test_health_records_do_not_perturb_the_fingerprint(self, corpus):
        register_step_kind("explode", _explode)
        workflow = Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "validate", "spec": "app.cpl"},
                    {"name": "explode", "gate": "always"},
                    {"name": "report", "gate": "always", "after": "validate"},
                ]
            }
        )
        outcome = WorkflowEngine(workflow, base_dir=str(corpus)).run()
        assert outcome.step("explode").status == StepStatus.FAILED
        assert outcome.health.status == "DEGRADED"
        assert outcome.fingerprint() == direct_report(corpus).fingerprint()


def _explode(ctx, step):
    raise RuntimeError("boom")


# ---------------------------------------------------------------------------
# Gates, cascade skips, and supervision
# ---------------------------------------------------------------------------


class TestGatesAndSupervision:
    def test_failing_gate_skips_downstream_steps(self, corpus):
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"99"'))
        calls = []
        workflow = Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "validate", "spec": "app.cpl"},
                    {"name": "deploy", "kind": "report", "gate": "on_pass"},
                    {"name": "notify", "kind": "webhook",
                     "gate": "on_violation", "after": "validate",
                     "url": "http://example.invalid/hook"},
                ]
            }
        )
        engine = WorkflowEngine(
            workflow, base_dir=str(corpus),
            post_fn=lambda url, payload, timeout: calls.append(payload) or 200,
        )
        outcome = engine.run()
        assert outcome.statuses() == {
            "parse": "ok", "validate": "ok",
            "deploy": "skipped", "notify": "ok",
        }
        assert "on_pass" in outcome.step("deploy").reason
        assert calls and calls[0]["passed"] is False

    def test_skipped_upstream_cascades_unless_gate_is_always(self, corpus):
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"99"'))
        workflow = Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "validate", "spec": "app.cpl"},
                    {"name": "deploy", "kind": "report", "gate": "on_pass"},
                    # on_violation would run here (violations exist), so a
                    # skip proves the cascade, not the gate
                    {"name": "downstream", "kind": "report",
                     "gate": "on_violation"},
                    {"name": "cleanup", "kind": "report", "gate": "always"},
                ]
            }
        )
        outcome = WorkflowEngine(workflow, base_dir=str(corpus)).run()
        assert outcome.step("downstream").status == StepStatus.SKIPPED
        assert "upstream step 'deploy' skipped" in outcome.step("downstream").reason
        assert outcome.step("cleanup").status == StepStatus.OK

    def test_skips_are_visible_in_the_trace(self, corpus):
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"99"'))
        obs = observability.enable(metrics=False)
        workflow = Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "validate", "spec": "app.cpl"},
                    {"name": "deploy", "kind": "report", "gate": "on_pass"},
                ]
            }
        )
        WorkflowEngine(workflow, base_dir=str(corpus)).run()
        spans = {s["name"]: s for s in obs.tracer.finished_spans()}
        assert "workflow[workflow]" in spans
        assert spans["step[deploy]"]["attrs"]["status"] == "skipped"
        assert spans["step[validate]"]["attrs"]["status"] == "ok"

    def test_step_timeout_degrades_instead_of_crashing(self, corpus):
        register_step_kind("stall", _stall)
        workflow = Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "stall", "timeout": 0.05},
                    {"name": "validate", "spec": "app.cpl", "gate": "always",
                     "after": "parse"},
                ]
            }
        )
        outcome = WorkflowEngine(workflow, base_dir=str(corpus)).run()
        assert outcome.step("stall").status == StepStatus.TIMEOUT
        assert outcome.health.status == "DEGRADED"
        failures = outcome.health.shard_failures
        assert failures and failures[0]["kind"] == "workflow-step"
        assert failures[0]["step"] == "stall"
        # the run completed: validate still produced its verdict
        assert outcome.step("validate").status == StepStatus.OK

    def test_failed_attempt_is_never_spliced_forward(self, corpus):
        flag = {"fail": True}

        def flaky(ctx, step):
            if flag["fail"]:
                raise RuntimeError("transient")
            return StepOutput(detail={"ok": True})

        register_step_kind("flaky", flaky, spliceable=True)
        workflow = Workflow.from_dict(
            {"steps": [{"name": "flaky", "gate": "always"}]}
        )
        engine = WorkflowEngine(workflow, base_dir=str(corpus))
        assert engine.run().step("flaky").status == StepStatus.FAILED
        flag["fail"] = False
        recovered = engine.run()
        assert recovered.step("flaky").status == StepStatus.OK
        assert not recovered.step("flaky").spliced


def _stall(ctx, step):
    time.sleep(2.0)
    return StepOutput(detail={"ok": True})


# ---------------------------------------------------------------------------
# Cross-store checking and the bundled rule pack
# ---------------------------------------------------------------------------


def build_stores(session_pairs):
    stores = {}
    for name, fmt, text in session_pairs:
        session = ValidationSession()
        session.load_text(fmt, text, source=f"{name}.{fmt}")
        stores[name] = session.store
    return stores


CLEAN_FRONTEND = json.dumps(
    {
        "database": {"host": "db.internal"},
        "backend": {"url": "http://api.internal:8080/v1"},
        "upstream": {"name": "billing"},
        "environment": "production",
        "debug": "false",
    }
)

CLEAN_BACKEND = json.dumps(
    {
        "database": {"host": "db.internal"},
        "listen": {"address": "0.0.0.0:8080"},
        "service": {"name": "billing"},
        "environment": "production",
        "debug": "false",
        "log": {"level": "info"},
    }
)


class TestCrossStoreChecker:
    def test_extract_port(self):
        assert extract_port("0.0.0.0:8080") == 8080
        assert extract_port("http://x:9090/v1") == 9090
        assert extract_port("5432") == 5432
        assert extract_port("no-port-here") is None
        assert extract_port("x:99999") is None

    def test_clean_corpus_is_quiet(self):
        pack = load_rulepack("examples/rulepacks/security.yaml")
        stores = build_stores(
            [("frontend", "json", CLEAN_FRONTEND),
             ("backend", "json", CLEAN_BACKEND)]
        )
        report = CrossStoreChecker(pack, stores).check()
        assert report.passed, [v.message for v in report.violations]
        assert report.specs_evaluated == len(pack.rules)

    def test_injected_faults_fire_distinct_rules(self):
        """≥3 distinct misconfigurations, each caught by a different rule."""
        pack = load_rulepack("examples/rulepacks/security.yaml")
        frontend = json.loads(CLEAN_FRONTEND)
        backend = json.loads(CLEAN_BACKEND)
        frontend["database"]["host"] = "db-old.internal"   # hosts disagree
        frontend["backend"]["url"] = "http://api.internal:9090/v1"  # port skew
        frontend["upstream"]["name"] = "billling"          # dangling reference
        backend["debug"] = "true"                          # debug in prod
        stores = build_stores(
            [("frontend", "json", json.dumps(frontend)),
             ("backend", "json", json.dumps(backend)),
             ("env", "env", 'API_TOKEN="leaked"\n')]
        )
        checker = CrossStoreChecker(
            pack, stores, store_meta={"env": {"world_readable": True}}
        )
        report = checker.check()
        fired = {violation.constraint for violation in report.violations}
        assert {
            "database-hosts-agree",
            "service-ports-agree",
            "upstream-references-resolve",
            "no-debug-in-prod",
            "no-world-readable-secrets",
        } <= fired

    def test_world_readable_gating(self):
        pack = parse_rulepack(
            {
                "rulepack": {"name": "t"},
                "rules": [
                    {"id": "no-secrets", "kind": "forbid",
                     "severity": "critical", "name_match": "secret"}
                ],
            }
        )
        pack_gated = parse_rulepack(
            {
                "rulepack": {"name": "t"},
                "rules": [
                    {"id": "no-secrets", "kind": "forbid",
                     "severity": "critical", "name_match": "secret",
                     "world_readable_only": True}
                ],
            }
        )
        stores = build_stores([("env", "env", "db_secret=x\n")])
        assert not CrossStoreChecker(pack, stores).check().passed
        # without the world_readable flag the gated rule stays quiet …
        assert CrossStoreChecker(pack_gated, stores).check().passed
        # … and fires once the store is marked
        meta = {"env": {"world_readable": True}}
        assert not CrossStoreChecker(pack_gated, stores, meta).check().passed

    def test_cpl_rule_spans_stores(self):
        pack = parse_rulepack(
            {
                "rulepack": {"name": "t"},
                "rules": [
                    {"id": "replicas-bound", "kind": "cpl",
                     "severity": "warning",
                     "spec": "$frontend.replicas -> int & [1, 5]"}
                ],
            }
        )
        stores = build_stores(
            [("frontend", "json", json.dumps({"replicas": "9"}))]
        )
        report = CrossStoreChecker(pack, stores).check()
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.constraint == "replicas-bound"
        assert violation.severity == "warning"  # the rule owns severity

    def test_rulepack_validation_errors(self):
        with pytest.raises(WorkflowError, match="unknown kind"):
            parse_rulepack(
                {"rules": [{"id": "x", "kind": "telepathy"}]}
            )
        with pytest.raises(WorkflowError, match="needs a 'keys'"):
            parse_rulepack(
                {"rules": [{"id": "x", "kind": "must_agree"}]}
            )
        with pytest.raises(WorkflowError, match="duplicate rule id"):
            parse_rulepack(
                {
                    "rules": [
                        {"id": "x", "kind": "forbid", "key": "a"},
                        {"id": "x", "kind": "forbid", "key": "b"},
                    ]
                }
            )

    def test_cross_check_step_merges_into_the_workflow_verdict(self, corpus):
        (corpus / "rules.yaml").write_text(
            "rulepack:\n  name: t\nrules:\n"
            "  - id: no-debug\n    kind: forbid\n    severity: error\n"
            "    key: debug\n    equals: 'false'\n"
        )
        workflow = Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "cross_check", "rulepack": "rules.yaml"},
                ]
            }
        )
        outcome = WorkflowEngine(workflow, base_dir=str(corpus)).run()
        assert not outcome.passed
        assert outcome.report.violations[0].constraint == "no-debug"


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


class TestServiceWorkflowMode:
    def write_flow(self, corpus) -> str:
        path = corpus / "flow.yaml"
        path.write_text(
            "workflow:\n  name: svc\n"
            "steps:\n"
            "  - name: parse\n"
            "    sources:\n"
            "      - {format: json, path: app.json}\n"
            "  - name: validate\n"
            "    spec: app.cpl\n"
            "  - name: report\n"
            "    gate: always\n"
        )
        return str(path)

    def make_service(self, corpus, **kwargs):
        return ValidationService(
            spec_path=str(corpus / "app.cpl"),
            sources=[SourceSpec("json", str(corpus / "app.json"))],
            workflow=self.write_flow(corpus),
            **kwargs,
        )

    def test_scan_runs_the_workflow(self, corpus):
        service = self.make_service(corpus)
        result = service.run_once()
        assert result.passed
        assert result.workflow["name"] == "svc"
        statuses = {s["name"]: s["status"] for s in result.workflow["steps"]}
        assert statuses == {"parse": "ok", "validate": "ok", "report": "ok"}
        assert result.report.fingerprint() == direct_report(corpus).fingerprint()
        assert service.stats()["workflow"]["runs"] == 1
        assert service.scan_records[-1]["workflow"]["name"] == "svc"

    def test_steady_state_scan_is_skipped_and_data_change_splices(self, corpus):
        service = self.make_service(corpus)
        service.run_once()
        assert service.scan() is None  # nothing changed
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"11"'))
        result = service.scan()
        assert result is not None and result.passed
        assert not result.workflow["steps"][0]["spliced"]  # source changed

    def test_editing_the_workflow_file_rebuilds_the_engine(self, corpus):
        service = self.make_service(corpus)
        service.run_once()
        flow = corpus / "flow.yaml"
        flow.write_text(
            flow.read_text().replace("name: svc", "name: svc-v2")
        )
        result = service.scan()
        assert result is not None
        assert result.workflow["name"] == "svc-v2"


# ---------------------------------------------------------------------------
# Job integration
# ---------------------------------------------------------------------------


class TestWorkflowJobs:
    def workflow_dict(self, corpus) -> dict:
        return {
            "workflow": {"name": "job-flow"},
            "steps": [
                {"name": "parse",
                 "sources": [
                     {"format": "json", "path": str(corpus / "app.json")}
                 ]},
                {"name": "validate", "spec": str(corpus / "app.cpl")},
                {"name": "report", "gate": "always"},
            ],
        }

    def test_workflow_job_round_trip(self, corpus):
        service = JobService(workers=1)
        try:
            job, created = service.submit(
                mode="workflow", workflow=self.workflow_dict(corpus)
            )
            assert created
            job = service.wait(job.id, timeout=30)
            assert job.state == "DONE", job.error
            assert job.result["verdict"] == "admit"
            statuses = {
                s["name"]: s["status"]
                for s in job.result["workflow"]["steps"]
            }
            assert statuses == {
                "parse": "ok", "validate": "ok", "report": "ok"
            }
            # per-step statuses also live on the job record itself
            assert [s["status"] for s in job.workflow_steps] == ["ok"] * 3
            assert job.spec_reference() == "workflow:job-flow"
            # determinism across the job API boundary
            assert job.result["fingerprint"] == report_fingerprint_digest(
                direct_report(corpus)
            )
        finally:
            service.close(timeout=5)

    def test_submit_payload_accepts_workflow_jobs(self, corpus):
        service = JobService(workers=1)
        try:
            job, __ = service.submit_payload(
                {"mode": "workflow", "workflow": self.workflow_dict(corpus)}
            )
            job = service.wait(job.id, timeout=30)
            assert job.state == "DONE", job.error
            assert "workflow" in job.to_dict()
        finally:
            service.close(timeout=5)

    def test_malformed_submissions_rejected_eagerly(self, corpus):
        service = JobService(workers=0)
        with pytest.raises(ValueError, match="requires a workflow mapping"):
            service.submit(mode="workflow")
        with pytest.raises(ValueError, match="invalid workflow"):
            service.submit(mode="workflow", workflow={"steps": []})
        with pytest.raises(ValueError, match="requires mode='workflow'"):
            service.submit(spec=SPEC, workflow=self.workflow_dict(corpus))
        with pytest.raises(ValueError, match="must be 'full', 'delta'"):
            service.submit_payload({"mode": "workflowz"})

    def test_gate_skips_surface_in_the_job_record(self, corpus):
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"99"'))
        definition = self.workflow_dict(corpus)
        definition["steps"].append(
            {"name": "deploy", "kind": "report", "gate": "on_pass"}
        )
        service = JobService(workers=1)
        try:
            job, __ = service.submit(mode="workflow", workflow=definition)
            job = service.wait(job.id, timeout=30)
            assert job.state == "DONE", job.error
            assert job.result["verdict"] == "reject"
            steps = {s["name"]: s for s in job.result["workflow"]["steps"]}
            assert steps["deploy"]["status"] == "skipped"
            assert "on_pass" in steps["deploy"]["reason"]
        finally:
            service.close(timeout=5)


# ---------------------------------------------------------------------------
# Kept stores and splice lanes: differential test against fresh runs
# ---------------------------------------------------------------------------

LANE_VALUES = {
    "Timeout": ["30", "45", "999", "x"],
    "Mode": ["fast", "safe", "slow"],
    "Port": ["8080", "443", "70000"],
    "HttpPort": ["80", "8443", "-1"],
    "Replicas": ["1", "3"],
}
LANE_SECTIONS = ["Cluster", "shared", "node"]
#: both files feed store "main", and share key names, so the store must
#: disambiguate cross-source duplicates by ordinal
LANE_CORPUS = {
    "a.ini": [("Cluster", "Timeout", "30"), ("Cluster", "Mode", "fast"),
              ("shared", "Port", "8080"), ("node", "Replicas", "1")],
    "b.ini": [("Cluster", "Timeout", "45"), ("shared", "Port", "443"),
              ("node", "HttpPort", "80"), ("Cluster", "Mode", "safe")],
}
LANE_SPECS = [
    "$Cluster.Timeout -> int & [1, 60]\n"
    "$Cluster.Mode -> {'fast', 'safe'}\n"
    "$*Port -> port\n"
    "$shared.Port -> unique\n"
    "$node.Replicas -> count -> == 1\n",
    "$Cluster.Timeout -> int & [1, 40]\n"
    "$Cluster.Mode -> {'fast', 'safe'}\n"
    "$*Port -> port\n"
    "$node.HttpPort -> nonempty\n",
]
LANE_SHADOWS = [
    "$Cluster.Timeout -> int\n$node.HttpPort -> port\n$Cluster.Mode -> nonempty\n",
    "$Cluster.Timeout -> int\n$shared.Port -> unique\n$node.Replicas -> int\n",
]
LANE_RULES = [
    "rulepack:\n  name: lanes\nrules:\n"
    "  - id: no-debug-in-prod\n    kind: forbid\n    severity: error\n"
    "    key: debug\n    equals: 'true'\n"
    "    when: {key: environment, equals: production}\n",
    "rulepack:\n  name: lanes\nrules:\n"
    "  - id: timeout-bound\n    kind: cpl\n    severity: warning\n"
    "    spec: '$main.Cluster.Timeout -> int & [1, 50]'\n",
]
SIDE_VALUES = {"debug": ["false", "true"], "environment": ["production", "staging"]}
#: edit kind -> (main store path, validate lane, shadow lane), where
#: "spliced" means the step did not run at all
LANE_PATHS = {
    "value": ("patched", "delta", "delta"),
    "comment": ("patched", "delta", "delta"),
    "add": ("rebuilt", "delta", "delta"),
    "remove": ("rebuilt", "delta", "delta"),
    "reorder": ("rebuilt", "delta", "delta"),
    # the delete run validated a placeholder store, which keeps no lane
    "restore": ("patched", "full", "full"),
    "spec": ("spliced", "full", "spliced"),
    "shadow": ("spliced", "spliced", "full"),
    "rulepack": ("spliced", "spliced", "spliced"),
    "side": ("spliced", "spliced", "spliced"),
    "none": ("spliced", "spliced", "spliced"),
}


def rewrite(path, text):
    path.write_text(text)
    # strictly newer mtime even on coarse-granularity filesystems
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns + 1_000_000, stat.st_mtime_ns + 1_000_000))


def store_rows(store):
    return [(i.key, i.value, i.source) for i in store.instances()]


class LaneCorpus:
    """Seeded edits to a two-parse-step workflow, run alike by a splicing
    engine and a ``splice=False`` twin."""

    def __init__(self, tmp_path, seed):
        self.rng = random.Random(seed)
        self.dir = tmp_path
        self.rows = {name: list(rows) for name, rows in LANE_CORPUS.items()}
        self.comments = dict.fromkeys(LANE_CORPUS, 0)
        self.side = {"debug": "false", "environment": "production"}
        self.variant = {"spec": 0, "shadow": 0, "rulepack": 0}
        self.deleted = None
        for name in LANE_CORPUS:
            self.write(name)
        rewrite(tmp_path / "side.env", self.render_side())
        rewrite(tmp_path / "spec.cpl", LANE_SPECS[0])
        rewrite(tmp_path / "rules.yaml", LANE_RULES[0])
        workflow = Workflow.from_dict(
            {
                "workflow": {"name": "lanes"},
                "steps": [
                    {"name": "parse_main", "kind": "parse", "sources": [
                        {"format": "ini", "path": name, "store": "main"}
                        for name in LANE_CORPUS
                    ]},
                    {"name": "parse_side", "kind": "parse", "after": [],
                     "sources": [{"format": "env", "path": "side.env",
                                  "store": "side", "world_readable": True}]},
                    {"name": "validate", "after": "parse_main",
                     "store": "main", "spec": "spec.cpl"},
                    {"name": "shadow", "after": "parse_main", "store": "main"},
                    {"name": "cross_check",
                     "after": ["parse_main", "parse_side"],
                     "rulepack": "rules.yaml", "stores": ["main", "side"]},
                    {"name": "report", "gate": "always",
                     "after": ["validate", "shadow", "cross_check"]},
                ],
            }
        )
        self.engine, self.fresh = (
            WorkflowEngine(
                workflow, base_dir=str(tmp_path), spec_cache=SpecCache(),
                shadow_provider=self.shadow_text, splice=splice,
            )
            for splice in (True, False)
        )

    def shadow_text(self):
        return LANE_SHADOWS[self.variant["shadow"]]

    def render_side(self):
        return "".join(f"{key}={value}\n" for key, value in self.side.items())

    def write(self, name):
        lines = [f"# revision {n}" for n in range(self.comments[name])]
        for section, key, value in self.rows[name]:
            lines += [f"[{section}]", f"{key} = {value}"]
        rewrite(self.dir / name, "\n".join(lines) + "\n")

    def edit(self):
        """Apply one random applicable edit; returns its kind."""
        rng = self.rng
        if self.deleted is not None:
            self.write(self.deleted)
            self.deleted = None
            return "restore"
        while True:
            kind = rng.choices(
                ["value", "comment", "add", "remove", "reorder", "delete",
                 "spec", "shadow", "rulepack", "side", "none"],
                weights=[30, 8, 10, 10, 8, 5, 6, 6, 5, 6, 6],
            )[0]
            name = rng.choice(list(LANE_CORPUS))
            rows = self.rows[name]
            if kind == "value" and rows:
                for index in rng.sample(range(len(rows)), min(len(rows), 2)):
                    section, key, value = rows[index]
                    other = [v for v in LANE_VALUES[key] if v != value]
                    rows[index] = (section, key, rng.choice(other))
            elif kind == "comment":
                self.comments[name] += 1
            elif kind == "add":
                key = rng.choice(list(LANE_VALUES))
                rows.insert(
                    rng.randrange(len(rows) + 1),
                    (rng.choice(LANE_SECTIONS), key, rng.choice(LANE_VALUES[key])),
                )
            elif kind == "remove" and rows:
                rows.pop(rng.randrange(len(rows)))
            elif kind == "reorder" and len({r[:2] for r in rows}) > 1:
                first, second = rng.sample(range(len(rows)), 2)
                while rows[first][:2] == rows[second][:2]:
                    first, second = rng.sample(range(len(rows)), 2)
                rows[first], rows[second] = rows[second], rows[first]
            elif kind == "delete":
                (self.dir / name).unlink()
                self.deleted = name
                return kind
            elif kind in ("spec", "shadow", "rulepack"):
                self.variant[kind] = 1 - self.variant[kind]
                if kind == "spec":
                    rewrite(self.dir / "spec.cpl", LANE_SPECS[self.variant[kind]])
                elif kind == "rulepack":
                    rewrite(self.dir / "rules.yaml", LANE_RULES[self.variant[kind]])
                return kind
            elif kind == "side":
                key = rng.choice(list(SIDE_VALUES))
                self.side[key] = next(
                    v for v in SIDE_VALUES[key] if v != self.side[key]
                )
                rewrite(self.dir / "side.env", self.render_side())
                return kind
            elif kind == "none":
                return kind
            else:
                continue
            self.write(name)
            return kind

    def step(self, label=""):
        """Run both engines; the splicing one must match the fresh one."""
        outcome, reference = self.engine.run(), self.fresh.run()
        assert outcome.fingerprint() == reference.fingerprint(), label
        assert outcome.statuses() == reference.statuses(), label
        for result in outcome.steps:
            expected = reference.step(result.name).detail
            for field in ("violations", "specs", "instances_checked"):
                assert result.detail.get(field) == expected.get(field), (
                    label, result.name, field
                )
        if outcome.step("parse_main").status == StepStatus.OK:
            assert store_rows(outcome.store) == store_rows(reference.store), label
        return outcome


def lane_path(outcome):
    """(main store path, validate lane, shadow lane) of one run."""
    parse = outcome.step("parse_main")
    return (
        "spliced" if parse.spliced else parse.detail["store"]["main"],
        *(
            "spliced" if outcome.step(name).spliced
            else outcome.step(name).detail["lane"]
            for name in ("validate", "shadow")
        ),
    )


class TestKeptStoreDifferential:
    @pytest.mark.parametrize("seed", [5, 23, 61, 97])
    def test_seeded_edits_match_fresh_runs(self, tmp_path, seed):
        corpus = LaneCorpus(tmp_path, seed)
        first = corpus.step("bootstrap")
        assert lane_path(first) == ("rebuilt", "full", "full")
        taken = set()
        for __ in range(55):
            kind = corpus.edit()
            outcome = corpus.step(kind)
            if kind == "delete":
                assert outcome.step("parse_main").status == StepStatus.FAILED
                # default gates run anyway, over a placeholder store
                assert outcome.step("validate").detail["lane"] == "full"
                continue
            path = lane_path(outcome)
            assert path == LANE_PATHS[kind], (kind, path)
            taken.update(path)
            if path[1] == "delta" and kind in ("value", "comment"):
                validate = outcome.step("validate").detail
                assert validate["selected"] < validate["statements"], kind
        assert {"patched", "rebuilt", "delta", "full"} <= taken
        stats = corpus.engine.stats()
        assert stats["store_patched"] > 0 and stats["store_rebuilt"] > 0
        assert stats["statements_skipped"] > 0


class TestKeptStoreFailures:
    def timed_workflow(self):
        return Workflow.from_dict(
            {
                "steps": [
                    {"name": "parse",
                     "sources": [{"format": "json", "path": "app.json"}]},
                    {"name": "validate", "spec": "app.cpl"},
                    {"name": "slow", "timeout": 0.05, "after": "parse"},
                ]
            }
        )

    def test_timeout_drops_kept_stores_and_lanes(self, corpus):
        import threading

        release = threading.Event()
        calls = []

        def slow(ctx, step):
            calls.append(step.name)
            if len(calls) == 1:  # only the first run stalls
                release.wait(5.0)
            return StepOutput(detail={"ok": True})

        register_step_kind("slow", slow)
        engine = WorkflowEngine(self.timed_workflow(), base_dir=str(corpus))
        try:
            first = engine.run()
            assert first.step("slow").status == StepStatus.TIMEOUT
            abandoned = first.store
            (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"20"'))
            second = engine.run()
        finally:
            release.set()
        reference = WorkflowEngine(
            self.timed_workflow(), base_dir=str(corpus), splice=False
        ).run()
        assert second.fingerprint() == reference.fingerprint()
        assert second.statuses() == reference.statuses()
        # nothing was kept: a new store, built from scratch, evaluated whole
        assert second.store is not abandoned
        assert second.step("parse").detail["store"] == {"default": "rebuilt"}
        assert second.step("validate").detail["lane"] == "full"

    def test_raising_validate_drops_its_lane(self, corpus, monkeypatch):
        from repro.core import incremental

        engine = WorkflowEngine(pure_workflow(corpus), base_dir=str(corpus))
        engine.run()

        def explode(state, shard):
            raise RuntimeError("shard crashed")

        monkeypatch.setattr(incremental, "evaluate_shard", explode)
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"20"'))
        assert "validate" in engine._lanes
        failed = engine.run()
        assert failed.step("validate").status == StepStatus.FAILED
        assert "validate" not in engine._lanes
        monkeypatch.undo()

        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"99"'))
        recovered = engine.run()
        assert recovered.step("parse").detail["store"] == {"default": "patched"}
        assert recovered.step("validate").detail["lane"] == "full"
        assert not recovered.passed
        assert recovered.fingerprint() == direct_report(corpus).fingerprint()

    def test_reset_clears_everything(self, corpus):
        engine = WorkflowEngine(pure_workflow(corpus), base_dir=str(corpus))
        first = engine.run()
        engine.reset()
        again = engine.run()
        assert not any(result.spliced for result in again.steps)
        assert again.store is not first.store
        assert again.step("parse").detail["store"] == {"default": "rebuilt"}
        assert again.step("validate").detail["lane"] == "full"
        assert again.fingerprint() == first.fingerprint()

    def test_one_key_edit_patches_and_selects(self, corpus):
        engine = WorkflowEngine(pure_workflow(corpus), base_dir=str(corpus))
        engine.run()
        kept = engine.run().store
        (corpus / "app.json").write_text(APP_JSON.replace('"10"', '"99"'))
        outcome = engine.run()
        assert outcome.store is kept
        assert outcome.step("parse").detail["store"] == {"default": "patched"}
        validate = outcome.step("validate").detail
        assert (validate["lane"], validate["selected"], validate["statements"]) == (
            "delta", 1, 2
        )
        assert outcome.fingerprint() == direct_report(corpus).fingerprint()
        stats = engine.stats()
        assert (stats["store_patched"], stats["store_rebuilt"]) == (2, 1)
        assert (stats["statements_selected"], stats["statements_skipped"]) == (3, 1)
