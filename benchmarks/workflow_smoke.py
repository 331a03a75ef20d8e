"""End-to-end smoke test of composable validation workflows.

Drives the whole surface the way an operator would:

1. ``confvalley workflow validate`` checks the definition and prints the
   step graph;
2. ``confvalley workflow run`` on a clean corpus passes (exit 0) with the
   violation-gated webhook step skipped;
3. an injected fault (``debug = true`` in a production store) flips the
   run to exit 1: the cross-store rule pack fires, the ``on_pass`` deploy
   gate skips, and the webhook step POSTs the failure to a real local
   HTTP receiver;
4. a long-lived engine given a one-key edit patches its kept store,
   re-evaluates fewer statements than the spec has, and still matches a
   direct scan's fingerprint;
5. the same pure-validation pipeline submitted as a ``mode=workflow`` job
   against a live ``service --http --jobs`` subprocess finishes DONE with
   per-step statuses in the job record and a verdict fingerprint
   **byte-identical** to a direct in-process scan;
6. SIGTERM shuts the service down cleanly.

Run directly (``make workflow-smoke``)::

    PYTHONPATH=src python benchmarks/workflow_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.session import ValidationSession  # noqa: E402
from repro.jobs.model import report_fingerprint_digest  # noqa: E402
from repro.parallel.cache import SpecCache  # noqa: E402
from repro.workflows import Workflow, WorkflowEngine  # noqa: E402

ANNOUNCEMENT = re.compile(r"operator endpoint: (http://\S+)")
STARTUP_DEADLINE = 30.0
SHUTDOWN_DEADLINE = 15.0

APP_JSON = json.dumps(
    {
        "database": {"host": "db.internal", "pool_size": "10"},
        "environment": "production",
        "debug": "false",
    },
    indent=2,
)
SPEC = (
    "$database.pool_size -> int & [1, 64]\n"
    "$debug -> in('true', 'false')\n"
)
RULES = """\
rulepack:
  name: smoke-rules
rules:
  - id: no-debug-in-prod
    kind: forbid
    severity: error
    key: debug
    equals: "true"
    when: {key: environment, equals: production}
"""


def cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from repro.console.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            *args,
        ],
        env=env, capture_output=True, text=True, timeout=120, **kwargs,
    )


class _Receiver(BaseHTTPRequestHandler):
    payloads: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _Receiver.payloads.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


def wait_for_announcement(stderr) -> str:
    deadline = time.monotonic() + STARTUP_DEADLINE
    while time.monotonic() < deadline:
        line = stderr.readline()
        if not line:
            raise AssertionError("service exited before announcing its URL")
        sys.stderr.write(line)
        match = ANNOUNCEMENT.search(line)
        if match:
            return match.group(1)
    raise AssertionError("no endpoint announcement within deadline")


def statuses(record: dict) -> dict:
    return {step["name"]: step["status"] for step in record["steps"]}


def main() -> int:
    workspace = Path(tempfile.mkdtemp(prefix="confvalley-workflow-smoke-"))
    (workspace / "app.json").write_text(APP_JSON)
    (workspace / "app.cpl").write_text(SPEC)
    (workspace / "rules.yaml").write_text(RULES)

    receiver = HTTPServer(("127.0.0.1", 0), _Receiver)
    threading.Thread(target=receiver.serve_forever, daemon=True).start()
    hook = f"http://127.0.0.1:{receiver.server_port}/hook"

    flow = workspace / "flow.yaml"
    flow.write_text(
        "workflow:\n  name: smoke\n"
        "steps:\n"
        "  - name: parse\n"
        "    sources:\n"
        "      - {format: json, path: app.json}\n"
        "  - name: validate\n"
        "    spec: app.cpl\n"
        "  - name: cross_check\n"
        "    rulepack: rules.yaml\n"
        "  - name: deploy_gate\n"
        "    kind: report\n"
        "    gate: on_pass\n"
        "  - name: webhook\n"
        "    gate: on_violation\n"
        "    after: cross_check\n"
        f"    url: {hook}\n"
    )

    # 1. the definition validates and the step graph prints
    result = cli(["workflow", "validate", str(flow)])
    assert result.returncode == 0, result.stderr
    assert "5 step(s) OK" in result.stdout, result.stdout
    assert "gate=on_pass" in result.stdout
    print("ok workflow validate -> step graph")

    # 2. clean corpus: pass, webhook (violation-gated) skipped
    result = cli(["workflow", "run", str(flow), "--json"])
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["passed"] is True, record
    assert statuses(record) == {
        "parse": "ok", "validate": "ok", "cross_check": "ok",
        "deploy_gate": "ok", "webhook": "skipped",
    }, statuses(record)
    assert not _Receiver.payloads
    print("ok clean run -> exit 0, webhook gated off")

    # 3. injected fault: rule pack fires, deploy gate skips, webhook posts
    (workspace / "app.json").write_text(APP_JSON.replace('"false"', '"true"'))
    result = cli(["workflow", "run", str(flow), "--json"])
    assert result.returncode == 1, (result.returncode, result.stderr)
    record = json.loads(result.stdout)
    assert record["passed"] is False
    assert statuses(record) == {
        "parse": "ok", "validate": "ok", "cross_check": "ok",
        "deploy_gate": "skipped", "webhook": "ok",
    }, statuses(record)
    violations = record["report"]["violations"]
    assert any(v["constraint"] == "no-debug-in-prod" for v in violations), (
        violations
    )
    assert _Receiver.payloads and _Receiver.payloads[0]["passed"] is False
    assert _Receiver.payloads[0]["workflow"] == "smoke"
    print("ok injected fault -> exit 1, gate skip, webhook delivered")

    # 4. a long-lived engine: a one-key edit patches the kept store and
    # re-evaluates only the statements it can affect
    (workspace / "app.json").write_text(APP_JSON)
    engine = WorkflowEngine(
        Workflow.from_dict({"steps": [
            {"name": "parse", "sources": [{"format": "json", "path": "app.json"}]},
            {"name": "validate", "spec": "app.cpl"},
            {"name": "report", "gate": "always"},
        ]}),
        base_dir=str(workspace),
        spec_cache=SpecCache(),
    )
    engine.run()
    (workspace / "app.json").write_text(APP_JSON.replace('"10"', '"20"'))
    outcome = engine.run()
    parse, validate = outcome.step("parse").detail, outcome.step("validate").detail
    assert parse["store"] == {"default": "patched"}, parse
    assert validate["lane"] == "delta", validate
    assert validate["selected"] < validate["statements"], validate
    session = ValidationSession()
    session.load_source("json", str(workspace / "app.json"))
    assert outcome.fingerprint() == session.validate(SPEC).fingerprint()
    print(
        f"ok one-key edit -> store patched, "
        f"{validate['selected']}/{validate['statements']} statements re-run"
    )

    # 5. the pure pipeline as an asynchronous job: per-step statuses in
    # the job record, fingerprint parity with a direct in-process scan
    (workspace / "app.json").write_text(APP_JSON)
    pure = workspace / "pure.yaml"
    pure.write_text(
        "workflow:\n  name: pure\n"
        "steps:\n"
        "  - name: parse\n"
        "    sources:\n"
        f"      - {{format: json, path: {workspace / 'app.json'}}}\n"
        "  - name: validate\n"
        f"    spec: {workspace / 'app.cpl'}\n"
        "  - name: report\n"
        "    gate: always\n"
    )
    session = ValidationSession()
    session.load_source("json", str(workspace / "app.json"))
    expected = report_fingerprint_digest(session.validate(SPEC))

    spec = workspace / "service.cpl"
    spec.write_text(SPEC)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    process = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.console.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "service", str(spec),
            "--source", f"json:{workspace / 'app.json'}",
            "--http", "127.0.0.1:0",
            "--jobs", "--workers", "2",
            "--interval", "0.2",
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        base = wait_for_announcement(process.stderr).rstrip("/")

        result = cli([
            "submit", "--workflow", str(pure), "--url", base,
            "--wait", "--poll", "0.1", "--json",
        ])
        assert result.returncode == 0, result.stderr
        job = json.loads(result.stdout)
        assert job["state"] == "DONE", job
        assert job["result"]["verdict"] == "admit", job
        assert statuses(job["result"]["workflow"]) == {
            "parse": "ok", "validate": "ok", "report": "ok",
        }
        assert job["result"]["fingerprint"] == expected, (
            "workflow job verdict diverged from the direct scan"
        )
        print(f"ok workflow job -> DONE, fingerprint parity ({job['id']})")

        # the job record itself carries the per-step statuses
        with urllib.request.urlopen(f"{base}/jobs/{job['id']}") as response:
            fetched = json.loads(response.read())
        assert fetched["workflow_steps"], fetched
        assert {s["name"] for s in fetched["workflow_steps"]} == {
            "parse", "validate", "report",
        }
        print("ok GET /jobs/<id> -> per-step statuses")

        # 6. clean SIGTERM shutdown
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=SHUTDOWN_DEADLINE) == 0
        print("ok SIGTERM -> clean shutdown")
    finally:
        if process.poll() is None:
            process.kill()
        receiver.shutdown()

    print("workflow smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
