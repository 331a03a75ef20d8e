"""Batch-mode command line interface (paper §5.1, scenario 3).

"The main usage scenario is a batch validation mode where ConfValley takes
an input specification file and (re)validates it continuously as
configuration specifications or data are updated."

Subcommands::

    confvalley validate SPEC.cpl [--source FMT:PATH[:SCOPE] …] [--partitions N]
    confvalley infer    [--source FMT:PATH[:SCOPE] …] [--out SPECS.cpl]
    confvalley console  [--source FMT:PATH[:SCOPE] …]
    confvalley service  SPEC.cpl [--http HOST:PORT] [--jobs] [--workers N] …
    confvalley worker   --journal DIR [--id NAME] [--lease-ttl S]
    confvalley stats    SNAPSHOT_OR_URL [--format text|json|prometheus]
    confvalley top      SNAPSHOT_OR_URL [--count N]
    confvalley submit   SPEC.cpl --url URL [--source …] [--wait]
    confvalley jobs     URL [--state S] [--tenant T]
    confvalley cancel   URL JOB_ID
    confvalley trace    URL_OR_DIR JOB_ID [--out FILE]

``stats`` and ``top`` read either a snapshot file written by
``service --metrics-file`` or a running service's operator endpoint
(``http://HOST:PORT``, see ``service --http``); ``coverage`` also accepts
a live URL in place of the spec file.  ``submit``/``jobs``/``cancel``
talk to the asynchronous job API of a service started with ``--jobs``.

Exit-code contract for CI (``gate``, ``submit --wait``): **0** the change
is admitted, **1** the verdict rejects it, **2** the validation itself
could not run (bad input, unreachable service, crash).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Optional, Sequence

from ..core.policy import ValidationPolicy
from ..core.session import ValidationSession
from ..inference import InferenceEngine
from ..observability import get_logger
from .repl import Console

__all__ = ["main", "build_parser"]

_log = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="confvalley",
        description="ConfValley — systematic configuration validation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate sources against a spec file")
    validate.add_argument("spec", help="CPL specification file")
    validate.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="FMT:PATH[:SCOPE]",
        help="configuration source to load (repeatable)",
    )
    validate.add_argument(
        "--partitions", type=int, default=0,
        help="split specs into N partitions and report per-partition times",
    )
    validate.add_argument(
        "--executor", choices=("auto", "serial", "thread", "process"),
        default=None,
        help="evaluate via the sharded parallel engine (default: in-process "
             "serial; reports are identical either way)",
    )
    validate.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock budget when an --executor is set; "
             "timed-out shards are retried, then re-run serially",
    )
    validate.add_argument(
        "--stop-on-first", action="store_true",
        help="stop at the first violation (validation policy)",
    )
    validate.add_argument(
        "--no-optimize", action="store_true", help="disable compiler rewrites"
    )
    validate.add_argument("--limit", type=int, default=None, help="max violations shown")
    validate.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    validate.add_argument(
        "--waivers", default=None,
        help="waiver file: 'key_glob [constraint_glob]' per line",
    )
    validate.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable pipeline tracing and write the merged span tree as a "
             "Chrome trace_event JSON file (load in chrome://tracing)",
    )
    validate.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="append structured JSON-lines logs to PATH (one JSON object "
             "per line; see docs/OBSERVABILITY.md for the line schema)",
    )

    infer = sub.add_parser("infer", help="infer CPL specs from good data")
    infer.add_argument(
        "--source", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="configuration source to learn from (repeatable)",
    )
    infer.add_argument("--out", default="-", help="output spec file ('-' = stdout)")

    console = sub.add_parser("console", help="interactive validation console")
    console.add_argument(
        "--source", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="configuration source to preload (repeatable)",
    )

    service = sub.add_parser(
        "service",
        help="continuous validation: revalidate whenever spec or data change",
    )
    service.add_argument("spec", help="CPL specification file to watch")
    service.add_argument(
        "--source", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="configuration source to watch (repeatable)",
    )
    service.add_argument(
        "--interval", type=float, default=2.0, help="poll interval in seconds"
    )
    service.add_argument(
        "--max-scans", type=int, default=0,
        help="stop after N scans (0 = run until interrupted)",
    )
    service.add_argument(
        "--executor", choices=("auto", "serial", "thread", "process"),
        default=None,
        help="evaluate each scan via the sharded parallel engine",
    )
    service.add_argument(
        "--delta", action="store_true",
        help="incremental scans: diff changed sources against their last "
             "snapshot and re-evaluate only the affected statements, "
             "splicing the rest from the previous scan (fingerprint-"
             "identical to a full scan; see docs/INCREMENTAL.md)",
    )
    service.add_argument(
        "--watch", action="store_true",
        help="watch mode: poll/validate via ValidationService.watch() and "
             "print one line per validation (mode, selection counts, report "
             "fingerprint digest); --max-scans counts validations, not polls",
    )
    service.add_argument(
        "--resilient", action="store_true",
        help="supervised mode: quarantine failing sources/specs and keep "
             "scanning instead of aborting (repro.resilience)",
    )
    service.add_argument(
        "--max-source-retries", type=int, default=None,
        help="backoff-scheduled retries before a failing source is only "
             "re-probed on edit (default 3; implies --resilient)",
    )
    service.add_argument(
        "--quarantine-threshold", type=int, default=None,
        help="consecutive error scans before a spec statement's circuit "
             "breaker trips (default 3; implies --resilient)",
    )
    service.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock budget; timed-out shards are retried, "
             "then re-run serially (implies --resilient)",
    )
    service.add_argument(
        "--metrics-file", default=None, metavar="PATH",
        help="enable observability and atomically rewrite this exposition "
             "snapshot after every scan (.prom/.txt = Prometheus text, "
             "anything else = JSON readable by `confvalley stats`)",
    )
    service.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="enable observability and serve the live operator endpoint "
             "(GET /metrics, /metrics.json, /health, /stats, /traces/latest); "
             "PORT 0 binds an ephemeral port, announced on stderr",
    )
    service.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="append structured JSON-lines logs to PATH (one JSON object "
             "per line; see docs/OBSERVABILITY.md for the line schema)",
    )
    service.add_argument(
        "--jobs", action="store_true",
        help="enable the asynchronous job service: POST /jobs submission "
             "API on the operator endpoint, durable queue, worker pool "
             "(repro.jobs; implied by any --workers/--jobs-* knob)",
    )
    service.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="job worker threads (default 2; implies --jobs)",
    )
    service.add_argument(
        "--jobs-journal", default=None, metavar="PATH",
        help="durable job journal: accepted jobs survive restarts and "
             "crashes; QUEUED work resumes on the next start (implies --jobs)",
    )
    service.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="admission control: max QUEUED jobs before submissions get "
             "429 backpressure (default 256; implies --jobs)",
    )
    service.add_argument(
        "--tenant-limit", type=int, default=None, metavar="N",
        help="admission control: max in-flight jobs per tenant label "
             "(default unlimited; implies --jobs)",
    )
    service.add_argument(
        "--job-rate", type=float, default=None, metavar="PER_SECOND",
        help="admission control: token-bucket submission rate limit "
             "(default unlimited; implies --jobs)",
    )
    service.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job execution timeout (implies --jobs)",
    )
    service.add_argument(
        "--jobs-dir", default=None, metavar="DIR",
        help="multi-process job execution over a shared journal directory: "
             "external `confvalley worker` processes claim jobs under "
             "leases; mutually exclusive with --jobs-journal (implies --jobs)",
    )
    service.add_argument(
        "--worker-procs", type=int, default=None, metavar="N",
        help="spawn and supervise N external worker processes over "
             "--jobs-dir, restarting crashed ones with backoff "
             "(implies --jobs; requires --jobs-dir)",
    )
    service.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="job lease time-to-live: a worker whose lease goes this long "
             "unrenewed is presumed dead and its job re-queued (default "
             "10; implies --jobs)",
    )
    service.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease renewal cadence for workers (default: lease TTL / 3)",
    )
    service.add_argument(
        "--max-requeues", type=int, default=None, metavar="N",
        help="lease-expiry re-queues tolerated per job before it is "
             "parked as EXPIRED (default 2; implies --jobs)",
    )
    service.add_argument(
        "--shadow", action="store_true",
        help="inferred-spec lifecycle: infer candidate specs from the "
             "scanned corpus and run them in a shadow lane alongside every "
             "scan — violations recorded, never in the verdict; stable "
             "specs auto-promote to enforced (repro.lifecycle, implied by "
             "any --promote-after/--demote-drift/--reinfer-growth/"
             "--lifecycle-journal knob; see docs/LIFECYCLE.md)",
    )
    service.add_argument(
        "--promote-after", type=int, default=None, metavar="N",
        help="consecutive clean scans before a shadow spec is promoted "
             "into the enforced set (default 3; implies --shadow)",
    )
    service.add_argument(
        "--demote-drift", type=float, default=None, metavar="RATE",
        help="per-scan misfire rate (violations/instances) above which a "
             "scan counts against a spec; enforced specs demote on it "
             "(default 0.05; implies --shadow)",
    )
    service.add_argument(
        "--reinfer-growth", type=float, default=None, metavar="FRACTION",
        help="re-run inference when the corpus grew by this fraction "
             "since the last run, with adaptive early-stopping "
             "(default 0.25; implies --shadow)",
    )
    service.add_argument(
        "--lifecycle-journal", default=None, metavar="PATH",
        help="durable lifecycle journal: promotions/demotions survive "
             "restarts (JSON-lines + atomic compaction; implies --shadow)",
    )

    worker = sub.add_parser(
        "worker",
        help="standalone job worker process over a shared --jobs-dir "
             "journal directory (lease claiming + heartbeats)",
    )
    worker.add_argument(
        "--journal", required=True, metavar="DIR",
        help="the shared job directory of a `service --jobs --jobs-dir DIR`",
    )
    worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="stable worker identity; owns workers/<id>.jsonl (default: "
             "w-<pid>)",
    )
    worker.add_argument(
        "--base-dir", default=".", metavar="DIR",
        help="directory server-side source/spec paths resolve against",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease time-to-live (must match the coordinator; default 10)",
    )
    worker.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease renewal cadence (default: lease TTL / 3)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="journal poll interval while idle (default 0.2)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after completing N jobs (default: run until signalled)",
    )
    worker.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job execution timeout",
    )
    worker.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="append structured JSON-lines logs to PATH",
    )

    stats = sub.add_parser(
        "stats",
        help="read a service metrics snapshot or a live operator endpoint",
    )
    stats.add_argument(
        "snapshot", metavar="SNAPSHOT_OR_URL",
        help="snapshot file written by the service, or a running service's "
             "base URL (http://HOST:PORT, see `service --http`)",
    )
    stats.add_argument(
        "--format", choices=("text", "json", "prometheus"), default="text",
        help="text = operator summary, json = raw snapshot, "
             "prometheus = exposition text (default: text)",
    )
    stats.add_argument(
        "--history", type=int, default=10, metavar="N",
        help="recent scans shown in text format (default: 10)",
    )

    top = sub.add_parser(
        "top",
        help="hot-spec table: costliest specifications by cumulative latency",
    )
    top.add_argument(
        "snapshot", metavar="SNAPSHOT_OR_URL",
        help="snapshot file written by the service, or a running service's "
             "base URL (http://HOST:PORT, see `service --http`)",
    )
    top.add_argument(
        "--count", type=int, default=10, metavar="N",
        help="rows shown (default: 10; capped by the service's recorded "
             "hot-spec table size)",
    )

    coverage = sub.add_parser(
        "coverage", help="report which configuration classes no spec reaches"
    )
    coverage.add_argument(
        "spec",
        help="CPL specification file, or a running service's base URL "
             "(http://HOST:PORT) to read its live coverage summary",
    )
    coverage.add_argument(
        "--source", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="configuration source to analyze (repeatable)",
    )
    coverage.add_argument("--limit", type=int, default=20)

    submit = sub.add_parser(
        "submit",
        help="submit a validation job to a running service (POST /jobs)",
    )
    submit.add_argument(
        "spec", nargs="?", default=None,
        help="local CPL spec file uploaded with the job "
             "(omit when using --spec-name)",
    )
    submit.add_argument(
        "--url", required=True, metavar="URL",
        help="service base URL (see `service --http --jobs`)",
    )
    submit.add_argument(
        "--source", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="source reference resolved on the service host (repeatable)",
    )
    submit.add_argument(
        "--inline-source", action="append", default=[],
        metavar="FMT:PATH[:SCOPE]",
        help="local source file read here and uploaded inline with the "
             "job (repeatable; for submitting from another host)",
    )
    submit.add_argument(
        "--spec-name", default=None, metavar="NAME",
        help="validate a spec registered on the service (the watched spec "
             "is registered as 'service') instead of uploading one",
    )
    submit.add_argument(
        "--idempotency-key", default="", metavar="KEY",
        help="duplicate-suppression key: resubmitting with the same key "
             "returns the original job id",
    )
    submit.add_argument("--priority", type=int, default=0,
                        help="larger runs first (default 0)")
    submit.add_argument("--tenant", default="default",
                        help="tenant label for per-tenant admission limits")
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job execution timeout on the service",
    )
    submit.add_argument(
        "--executor", choices=("auto", "serial", "thread", "process"),
        default=None, help="evaluation strategy for this job",
    )
    submit.add_argument(
        "--delta", action="store_true",
        help="delta job: validate only the statements affected by the "
             "change between --baseline sources and --source/--inline-source",
    )
    submit.add_argument(
        "--baseline", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="before-the-change source reference resolved on the service "
             "host (repeatable; requires --delta)",
    )
    submit.add_argument(
        "--workflow", default=None, metavar="FILE",
        help="workflow job: read a local workflow definition (YAML/TOML) "
             "and submit it as a mode=workflow job; SPEC becomes optional "
             "(validate steps may carry their own specs)",
    )
    submit.add_argument(
        "--callback", default="", metavar="URL",
        help="completion webhook: the service POSTs the terminal job "
             "record (verdict included) to this http(s) URL",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes; exit 0 admit / 1 reject / 2 error",
    )
    submit.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                        help="poll interval with --wait (default 0.2)")
    submit.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up waiting after this long (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the job record / verdict as machine-readable JSON",
    )

    jobs = sub.add_parser(
        "jobs", help="list jobs on a running service (GET /jobs)"
    )
    jobs.add_argument("url", metavar="URL", help="service base URL")
    jobs.add_argument(
        "--state", default=None,
        choices=("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED",
                 "INTERRUPTED", "EXPIRED"),
        help="only jobs in this state",
    )
    jobs.add_argument("--tenant", default=None, help="only this tenant's jobs")
    jobs.add_argument("--limit", type=int, default=20, metavar="N",
                      help="rows shown (default 20)")
    jobs.add_argument("--json", action="store_true",
                      help="print the raw listing JSON")

    cancel = sub.add_parser(
        "cancel", help="cancel a job on a running service (POST /jobs/<id>/cancel)"
    )
    cancel.add_argument("url", metavar="URL", help="service base URL")
    cancel.add_argument("job_id", metavar="JOB_ID", help="the job to cancel")

    trace = sub.add_parser(
        "trace",
        help="fetch a job's distributed trace as Chrome trace_event JSON "
             "(GET /jobs/<id>/trace, or stitch offline from a --jobs-dir)",
    )
    trace.add_argument(
        "target", metavar="URL_OR_DIR",
        help="running service base URL (http://HOST:PORT), or the shared "
             "job directory of a `service --jobs --jobs-dir DIR` to stitch "
             "the trace offline from its partition files",
    )
    trace.add_argument("job_id", metavar="JOB_ID", help="the job to trace")
    trace.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the Chrome trace_event JSON to FILE (load it in "
             "chrome://tracing or Perfetto; default: stdout)",
    )

    specs = sub.add_parser(
        "specs",
        help="inspect and steer a running service's inferred-spec "
             "lifecycle (GET/POST /specs, see `service --shadow`)",
    )
    specs.add_argument("url", metavar="URL", help="service base URL")
    specs.add_argument(
        "action", choices=("list", "promote", "demote", "retire", "history"),
        help="list all tracked specs, show one spec's transition history, "
             "or manually promote/demote/retire one (overrides are "
             "journalled with an `operator` actor)",
    )
    specs.add_argument(
        "spec_id", nargs="?", default=None, metavar="SPEC_ID",
        help="the spec to act on (required for everything except list)",
    )
    specs.add_argument(
        "--state", default=None, choices=("shadow", "enforced", "retired"),
        help="filter `list` to one lifecycle state",
    )
    specs.add_argument(
        "--json", action="store_true",
        help="print the raw endpoint JSON instead of the table",
    )

    gate = sub.add_parser(
        "gate",
        help="pre-check-in gate: diff old vs new sources, validate the change "
             "(exit 0 admit / 1 reject / 2 error)",
    )
    gate.add_argument("spec", help="CPL specification file")
    gate.add_argument(
        "--old", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="baseline source (repeatable); omit to treat everything as new",
    )
    gate.add_argument(
        "--new", action="append", required=True, metavar="FMT:PATH[:SCOPE]",
        help="candidate source (repeatable)",
    )
    gate.add_argument(
        "--full", action="store_true",
        help="run the whole corpus instead of change-affected specs only",
    )
    gate.add_argument(
        "--json", action="store_true",
        help="print the machine-readable verdict JSON (the same schema job "
             "results carry) instead of the human-readable report",
    )

    workflow = sub.add_parser(
        "workflow",
        help="run or validate a composed validation workflow "
             "(multi-step pipeline with gates; see docs/WORKFLOWS.md)",
    )
    workflow.add_argument(
        "action", choices=("run", "validate"),
        help="'run' executes the workflow; 'validate' only checks the "
             "definition and prints the step graph",
    )
    workflow.add_argument("file", help="workflow definition file (YAML or TOML)")
    workflow.add_argument(
        "--source", action="append", default=[], metavar="FMT:PATH[:SCOPE]",
        help="default source for parse steps that declare none (repeatable)",
    )
    workflow.add_argument(
        "--spec", default=None, metavar="PATH",
        help="default CPL spec file for validate steps that declare none",
    )
    workflow.add_argument(
        "--executor", choices=("auto", "serial", "thread", "process"),
        default=None,
        help="evaluation strategy for validate steps (default: serial; "
             "workflow reports are identical either way)",
    )
    workflow.add_argument(
        "--limit", type=int, default=None, help="max violations shown"
    )
    workflow.add_argument(
        "--json", action="store_true",
        help="print the full workflow report as machine-readable JSON",
    )
    workflow.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable tracing and write the run's span tree (workflow + "
             "per-step spans, skips included) as Chrome trace_event JSON",
    )

    fmt = sub.add_parser(
        "fmt", help="reformat a CPL specification file canonically"
    )
    fmt.add_argument("spec", help="CPL file to format")
    fmt.add_argument(
        "--write", action="store_true",
        help="rewrite the file in place (default prints to stdout)",
    )
    fmt.add_argument(
        "--optimize", action="store_true",
        help="apply the compiler rewrites (Figure 4) before printing",
    )
    return parser


def _load_sources(session: ValidationSession, sources: Sequence[str]) -> None:
    for entry in sources:
        parts = entry.split(":", 2)
        if len(parts) == 1:
            raise SystemExit(f"--source needs FMT:PATH, got {entry!r}")
        fmt, path = parts[0], parts[1]
        scope = parts[2] if len(parts) > 2 else ""
        count = session.load_source(fmt, path, scope)
        print(f"loaded {count} instance(s) from {path}", file=sys.stderr)
        _log.info(
            "source loaded",
            extra={"path": path, "format": fmt, "instances": count},
        )


def _configure_log_file(path: str) -> None:
    """Route the structured JSON-lines logs to ``path`` (append mode)."""
    from ..observability import configure_logging

    handle = open(path, "a", encoding="utf-8")
    configure_logging(stream=handle)


def _is_url(target: str) -> bool:
    return target.startswith(("http://", "https://"))


#: everything a live-endpoint call can throw: refused/reset connections and
#: timeouts (OSError covers URLError and socket.timeout), a non-HTTP server
#: on the port (HTTPException, e.g. BadStatusLine), and a reachable server
#: answering with something that is not the expected JSON (ValueError)
def _live_endpoint_errors() -> tuple:
    import http.client

    return (OSError, ValueError, http.client.HTTPException)


def _unreachable_message(target: str, exc: Exception) -> str:
    """One actionable line for any failed live-endpoint interaction."""
    detail = str(exc) or type(exc).__name__
    if isinstance(exc, ValueError):
        return (f"{target} did not return ConfValley JSON ({detail}) — "
                f"is this really a `confvalley service --http` endpoint?")
    return (f"cannot reach {target} ({detail}) — is the service running "
            f"with --http (and --jobs for job commands)?")


def _http_json(url: str, payload: Optional[dict] = None,
               timeout: float = 10.0) -> tuple[int, dict]:
    """GET (or POST ``payload`` as JSON) → ``(status, parsed body)``.

    4xx/5xx responses are returned, not raised — the callers branch on
    status codes (202/429/409…).  Connection-level failures raise the
    :func:`_live_endpoint_errors` family for uniform handling.
    """
    import json as _json
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = _json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = Request(url, data=data, headers=headers)
    try:
        with urlopen(request, timeout=timeout) as response:
            body = response.read().decode("utf-8")
            return response.status, (_json.loads(body) if body.strip() else {})
    except HTTPError as error:
        body = error.read().decode("utf-8", "replace")
        try:
            return error.code, _json.loads(body)
        except ValueError:
            return error.code, {"error": body.strip() or error.reason}


def _fetch_live_snapshot(url: str, want_prometheus: bool = False) -> dict:
    """Scrape a running service's operator endpoint into snapshot shape.

    Produces the same document shape :func:`repro.observability.load_snapshot`
    returns for a ``--metrics-file`` snapshot, so the rendering path is
    shared between files and live services.
    """
    import json as _json
    from urllib.request import urlopen

    base = url.rstrip("/")

    def get(path: str) -> str:
        with urlopen(base + path, timeout=10) as response:
            return response.read().decode("utf-8")

    snapshot = {"snapshot_version": 1, "stats": {}, "metrics": {}, "prometheus": ""}
    if want_prometheus:
        snapshot["prometheus"] = get("/metrics")
        return snapshot
    snapshot["stats"] = _json.loads(get("/stats"))
    try:
        snapshot["metrics"] = _json.loads(get("/metrics.json"))
    except Exception:
        # stats alone still renders; a metrics hiccup shouldn't kill it
        pass
    return snapshot


def _load_stats_snapshot(target: str, want_prometheus: bool = False) -> Optional[dict]:
    """Snapshot file or live URL → snapshot dict (None + message on failure)."""
    from ..observability import load_snapshot

    if _is_url(target):
        try:
            return _fetch_live_snapshot(target, want_prometheus=want_prometheus)
        except _live_endpoint_errors() as exc:
            print(_unreachable_message(target, exc), file=sys.stderr)
            return None
    try:
        return load_snapshot(target)
    except FileNotFoundError:
        print(f"no snapshot at {target!r} — is the service running "
              f"with --metrics-file?", file=sys.stderr)
        return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        if args.log_file:
            _configure_log_file(args.log_file)
        policy = ValidationPolicy(stop_on_first_violation=args.stop_on_first)
        if args.waivers:
            count = policy.load_waivers(args.waivers)
            print(f"loaded {count} waiver(s)", file=sys.stderr)
        tracer = None
        if args.trace_out:
            from .. import observability

            tracer = observability.enable(metrics=False).tracer
        session = ValidationSession(
            policy=policy, optimize=not args.no_optimize, executor=args.executor,
            shard_timeout=args.shard_timeout,
        )
        _load_sources(session, args.source)
        if args.partitions and args.partitions > 1:
            with open(args.spec, "r", encoding="utf-8") as handle:
                results = session.validate_partitioned(handle.read(), args.partitions)
            times = [elapsed for __, elapsed in results]
            violations = sum(len(report.violations) for report, __ in results)
            print(
                f"{len(results)} partitions: min {min(times):.3f}s "
                f"median {statistics.median(times):.3f}s max {max(times):.3f}s; "
                f"{violations} violation(s)"
            )
            return 0 if violations == 0 else 1
        report = session.validate_file(args.spec)
        if tracer is not None:
            import json as _json

            with open(args.trace_out, "w", encoding="utf-8") as handle:
                _json.dump(tracer.to_chrome_trace(), handle, indent=1)
            print(
                f"wrote {len(tracer.finished_spans())} span(s) to "
                f"{args.trace_out}",
                file=sys.stderr,
            )
        _log.info(
            "validation completed",
            extra={
                "spec": args.spec,
                "passed": report.passed,
                "violations": len(report.violations),
                "specs_evaluated": report.specs_evaluated,
                "instances_checked": report.instances_checked,
                "elapsed_seconds": round(report.elapsed_seconds, 6),
            },
        )
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.render(limit=args.limit))
        return 0 if report.passed else 1
    if args.command == "infer":
        session = ValidationSession()
        _load_sources(session, args.source)
        result = InferenceEngine().infer(session.store)
        text = result.to_cpl()
        if args.out == "-":
            print(text, end="")
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(
                f"wrote {len(result.constraints)} constraint(s) to {args.out}",
                file=sys.stderr,
            )
        return 0
    if args.command == "service":
        return _run_service(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "top":
        return _run_top(args)
    if args.command == "workflow":
        return _run_workflow_cmd(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "jobs":
        return _run_jobs(args)
    if args.command == "cancel":
        return _run_cancel(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "specs":
        return _run_specs(args)
    if args.command == "fmt":
        return _run_fmt(args)
    if args.command == "gate":
        return _run_gate(args)
    if args.command == "coverage":
        return _run_coverage(args)
    # console
    session = ValidationSession()
    _load_sources(session, args.source)
    Console(session).run()
    return 0


def _run_fmt(args) -> int:
    from ..core.compiler import optimize_statements
    from ..cpl import parse
    from ..cpl.printer import print_statement

    with open(args.spec, "r", encoding="utf-8") as handle:
        program = parse(handle.read())
    statements = list(program.statements)
    if args.optimize:
        statements = optimize_statements(statements)
    text = "\n".join(print_statement(s) for s in statements) + "\n"
    if args.write:
        with open(args.spec, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"formatted {args.spec}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _run_coverage(args) -> int:
    import json as _json

    if _is_url(args.spec):
        # live mode: read the last scan's coverage summary off the
        # operator endpoint instead of analyzing local files
        base = args.spec.rstrip("/")
        try:
            status, stats = _http_json(base + "/stats")
        except _live_endpoint_errors() as exc:
            print(_unreachable_message(base, exc), file=sys.stderr)
            return 1
        if status != 200 or not isinstance(stats, dict):
            print(f"{base}/stats returned HTTP {status}", file=sys.stderr)
            return 1
        coverage = stats.get("coverage")
        if not coverage:
            print("no coverage summary on this service yet — it reports "
                  "after the first scan with analytics enabled",
                  file=sys.stderr)
            return 1
        print(_json.dumps(coverage, indent=2, sort_keys=True))
        return 0 if not coverage.get("uncovered_classes") else 1
    from ..core.coverage import analyze_coverage

    session = ValidationSession()
    _load_sources(session, args.source)
    with open(args.spec, "r", encoding="utf-8") as handle:
        report = analyze_coverage(handle.read(), session.store)
    print(report.render(limit=args.limit))
    return 0 if not report.uncovered else 1


def _run_gate(args) -> int:
    """The pre-check-in gate; exit 0 admit / 1 reject / 2 error.

    With ``--json`` the verdict is the same machine-readable schema job
    results carry (:func:`repro.jobs.model.verdict_payload`), so CI
    pipelines parse one format whether they gate synchronously or submit
    asynchronously.
    """
    import json as _json

    from ..jobs.model import (
        EXIT_ADMIT,
        EXIT_ERROR,
        EXIT_REJECT,
        error_verdict,
        verdict_payload,
    )

    try:
        return _run_gate_checked(args, _json, verdict_payload,
                                 EXIT_ADMIT, EXIT_REJECT)
    except SystemExit:
        raise
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        if args.json:
            print(_json.dumps(error_verdict(message), indent=2, sort_keys=True))
        else:
            print(f"gate error: {message}", file=sys.stderr)
        return EXIT_ERROR


def _run_gate_checked(args, _json, verdict_payload, exit_admit, exit_reject) -> int:
    from ..core.incremental import IncrementalValidator
    from ..repository.versioned import diff_stores

    quiet = args.json  # --json: nothing but the verdict object on stdout
    old_session = ValidationSession()
    if args.old:
        _load_sources(old_session, args.old)
    new_session = ValidationSession()
    _load_sources(new_session, args.new)
    change = diff_stores(old_session.store if args.old else None, new_session.store)
    if not quiet:
        print(f"change: {change.summary()}")
    if change.is_empty and not args.full:
        if quiet:
            from ..core.report import ValidationReport

            verdict = verdict_payload(ValidationReport())
            verdict["change"] = change.summary()
            verdict["statements_run"] = 0
            print(_json.dumps(verdict, indent=2, sort_keys=True))
        else:
            print("nothing changed — ACCEPT")
        return exit_admit
    with open(args.spec, "r", encoding="utf-8") as handle:
        validator = IncrementalValidator(handle.read())
    if args.full:
        report = validator.validate_full(new_session.store)
        selected = validator.statement_count
        if not quiet:
            print(f"full corpus: {validator.statement_count} statement(s)")
    else:
        report = validator.validate_change(new_session.store, change)
        selected = validator.last_selected
        if not quiet:
            print(
                f"incremental: {validator.last_selected} of "
                f"{validator.statement_count} statement(s) run"
            )
    if quiet:
        verdict = verdict_payload(report)
        verdict["change"] = change.summary()
        verdict["statements_run"] = selected
        verdict["statements_total"] = validator.statement_count
        print(_json.dumps(verdict, indent=2, sort_keys=True))
        return exit_admit if report.passed else exit_reject
    print(report.render(limit=20))
    if not report.passed:
        from ..core.repair import suggest_repairs

        repairs = suggest_repairs(report, new_session.store)
        if repairs:
            print("suggested repairs:")
            for repair in repairs:
                print("  " + repair.render())
    print("ACCEPT" if report.passed else "REJECT")
    return exit_admit if report.passed else exit_reject


def _run_stats(args) -> int:
    import json as _json

    from ..observability import render_stats

    snapshot = _load_stats_snapshot(
        args.snapshot, want_prometheus=args.format == "prometheus"
    )
    if snapshot is None:
        return 1
    if args.format == "json":
        print(_json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prometheus":
        print(snapshot.get("prometheus", ""), end="")
    else:
        print(render_stats(snapshot, history_limit=args.history))
    return 0


def _run_top(args) -> int:
    from ..observability import format_hot_specs

    snapshot = _load_stats_snapshot(args.snapshot)
    if snapshot is None:
        return 1
    stats = snapshot.get("stats") or {}
    analytics = stats.get("analytics") or {}
    if not analytics:
        print("no per-spec analytics in this snapshot — run the service "
              "with analytics enabled (the default)", file=sys.stderr)
        return 1
    print(format_hot_specs(analytics.get("hot_specs") or [], args.count))
    dead = analytics.get("dead_specs") or []
    if dead:
        print(f"dead specs matching no instance this scan ({len(dead)}):")
        for row in dead:
            confirmed = " [coverage-confirmed]" if row.get("coverage_confirmed") else ""
            print(f"  L{row['line']}: {row['spec']}{confirmed}")
    return 0


def _render_job_row(row: dict) -> str:
    verdict = row.get("verdict") or "-"
    return (
        f"  {row.get('id', '?'):<18} {row.get('state', '?'):<11} "
        f"verdict={verdict:<7} tenant={row.get('tenant', '?'):<10} "
        f"prio={row.get('priority', 0):<3} spec={row.get('spec', '?')}"
    )


def _run_workflow_cmd(args) -> int:
    """Run (or just validate) a workflow file; exit 0 pass / 1 fail / 2 error."""
    import json as _json
    import os as _os

    from ..workflows import WorkflowEngine, WorkflowError, load_workflow

    try:
        workflow = load_workflow(args.file)
    except WorkflowError as exc:
        print(f"invalid workflow: {exc}", file=sys.stderr)
        return 2
    if args.action == "validate":
        print(f"workflow {workflow.name!r}: {len(workflow)} step(s) OK")
        for step in workflow:
            after = ", ".join(step.after) or "-"
            timeout = f" timeout={step.timeout:g}s" if step.timeout else ""
            print(
                f"  {step.name:<16} kind={step.kind:<12} "
                f"gate={step.gate.render():<20} after={after}{timeout}"
            )
        return 0
    sources = []
    for entry in args.source:
        parts = entry.split(":", 2)
        if len(parts) < 2:
            print(f"--source needs FMT:PATH, got {entry!r}", file=sys.stderr)
            return 2
        sources.append({
            "format": parts[0],
            "path": _os.path.abspath(parts[1]),
            "scope": parts[2] if len(parts) > 2 else "",
        })
    tracer = None
    if args.trace_out:
        from .. import observability

        tracer = observability.enable(metrics=False).tracer
    engine = WorkflowEngine(
        workflow,
        base_dir=_os.path.dirname(_os.path.abspath(args.file)) or ".",
        executor=args.executor,
        sources=sources,
        spec_path=_os.path.abspath(args.spec) if args.spec else "",
    )
    try:
        outcome = engine.run(tracer=tracer)
    except WorkflowError as exc:
        print(f"workflow failed: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            _json.dump(tracer.to_chrome_trace(), handle, indent=1)
        print(
            f"wrote {len(tracer.finished_spans())} span(s) to {args.trace_out}",
            file=sys.stderr,
        )
    if args.json:
        print(_json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    else:
        print(outcome.render(limit=args.limit))
    return 0 if outcome.passed else 1


def _run_submit(args) -> int:
    """Submit one job; with --wait, poll to the verdict (exit 0/1/2)."""
    import json as _json
    import time as _time

    from ..jobs.model import EXIT_ADMIT, EXIT_ERROR, EXIT_REJECT, JobState

    if args.workflow is not None:
        if args.spec is not None and args.spec_name is not None:
            print("submit takes at most one of SPEC or --spec-name with "
                  "--workflow", file=sys.stderr)
            return EXIT_ERROR
    elif (args.spec is None) == (args.spec_name is None):
        print("submit needs a local SPEC file or --spec-name (not both)",
              file=sys.stderr)
        return EXIT_ERROR
    payload: dict = {
        "sources": list(args.source),
        "priority": args.priority,
        "tenant": args.tenant,
    }
    if args.workflow is not None:
        from ..workflows import WorkflowError, load_workflow

        try:
            payload["mode"] = "workflow"
            payload["workflow"] = load_workflow(args.workflow).to_dict()
        except WorkflowError as exc:
            print(f"invalid workflow: {exc}", file=sys.stderr)
            return EXIT_ERROR
    if args.delta:
        payload["mode"] = "delta"
        payload["baseline_sources"] = list(args.baseline)
    elif args.baseline:
        print("--baseline requires --delta", file=sys.stderr)
        return EXIT_ERROR
    if args.idempotency_key:
        payload["idempotency_key"] = args.idempotency_key
    if args.callback:
        payload["callback_url"] = args.callback
    if args.timeout is not None:
        payload["timeout"] = args.timeout
    if args.executor is not None:
        payload["executor"] = args.executor
    try:
        if args.spec_name is not None:
            payload["spec_name"] = args.spec_name
        elif args.spec is not None:
            with open(args.spec, "r", encoding="utf-8") as handle:
                payload["spec"] = handle.read()
        for entry in args.inline_source:
            parts = entry.split(":", 2)
            if len(parts) < 2:
                print(f"--inline-source needs FMT:PATH, got {entry!r}",
                      file=sys.stderr)
                return EXIT_ERROR
            with open(parts[1], "r", encoding="utf-8") as handle:
                payload["sources"].append({
                    "format": parts[0],
                    "text": handle.read(),
                    "source": parts[1],
                    "scope": parts[2] if len(parts) > 2 else "",
                })
    except OSError as exc:
        print(f"cannot read submission input: {exc}", file=sys.stderr)
        return EXIT_ERROR

    base = args.url.rstrip("/")
    try:
        status, body = _http_json(base + "/jobs", payload=payload)
    except _live_endpoint_errors() as exc:
        print(_unreachable_message(base, exc), file=sys.stderr)
        return EXIT_ERROR
    if status == 429:
        print(f"rejected (backpressure): {body.get('message', body)}",
              file=sys.stderr)
        return EXIT_ERROR
    if status != 202:
        print(f"submission failed (HTTP {status}): "
              f"{body.get('error', body)}", file=sys.stderr)
        return EXIT_ERROR
    job_id = body["id"]
    dedup = " (deduplicated)" if body.get("deduplicated") else ""
    print(f"submitted {job_id}{dedup}", file=sys.stderr)
    if not args.wait:
        if args.json:
            print(_json.dumps(body, indent=2, sort_keys=True))
        else:
            print(job_id)
        return EXIT_ADMIT

    deadline = _time.monotonic() + args.wait_timeout
    while True:
        try:
            status, job = _http_json(f"{base}/jobs/{job_id}")
        except _live_endpoint_errors() as exc:
            print(_unreachable_message(base, exc), file=sys.stderr)
            return EXIT_ERROR
        if status != 200:
            print(f"lost the job mid-wait (HTTP {status}): "
                  f"{job.get('error', job)}", file=sys.stderr)
            return EXIT_ERROR
        if job.get("state") in JobState.TERMINAL:
            break
        if _time.monotonic() > deadline:
            print(f"job {job_id} still {job.get('state')} after "
                  f"{args.wait_timeout:g}s — gave up waiting (the job keeps "
                  f"running; poll with `confvalley jobs {base}`)",
                  file=sys.stderr)
            return EXIT_ERROR
        _time.sleep(args.poll)

    result = job.get("result") or {}
    if args.json:
        print(_json.dumps(job, indent=2, sort_keys=True))
    else:
        verdict = result.get("verdict", "error")
        print(f"{job_id}: {job['state']} verdict={verdict} "
              f"violations={result.get('violations', 0)} "
              f"fingerprint={result.get('fingerprint', '')[:16]}")
        delta = result.get("delta")
        if delta:
            if delta.get("mode") == "delta":
                print(f"  delta: {delta['selected']}/{delta['statements_total']} "
                      f"statement(s) selected ({delta.get('change')})")
            else:
                print(f"  delta: {delta.get('mode')} — {delta.get('reason', '')}")
        if job.get("error"):
            print(f"  error: {job['error']}")
    if job["state"] == JobState.DONE:
        return EXIT_ADMIT if result.get("passed") else EXIT_REJECT
    return EXIT_ERROR


def _run_jobs(args) -> int:
    import json as _json
    from urllib.parse import urlencode

    params = {"limit": args.limit}
    if args.state:
        params["state"] = args.state
    if args.tenant:
        params["tenant"] = args.tenant
    base = args.url.rstrip("/")
    try:
        status, body = _http_json(f"{base}/jobs?{urlencode(params)}")
    except _live_endpoint_errors() as exc:
        print(_unreachable_message(base, exc), file=sys.stderr)
        return 1
    if status != 200:
        print(f"listing failed (HTTP {status}): {body.get('error', body)}",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(body, indent=2, sort_keys=True))
        return 0
    stats = body.get("stats") or {}
    print(f"jobs: {stats.get('jobs', 0)} tracked, "
          f"{stats.get('queued', 0)} queued, "
          f"{stats.get('running', 0)} running, "
          f"{stats.get('workers', 0)} worker(s)")
    rejections = stats.get("rejections") or {}
    if rejections:
        print("rejections: " + " ".join(
            f"{reason}={count}" for reason, count in sorted(rejections.items())
        ))
    rows = body.get("jobs") or []
    for row in rows:
        print(_render_job_row(row))
    if not rows:
        print("  (no jobs match)")
    return 0


def _run_cancel(args) -> int:
    base = args.url.rstrip("/")
    try:
        status, body = _http_json(
            f"{base}/jobs/{args.job_id}/cancel", payload={}
        )
    except _live_endpoint_errors() as exc:
        print(_unreachable_message(base, exc), file=sys.stderr)
        return 1
    if status != 200:
        print(f"cancel failed (HTTP {status}): {body.get('error', body)}",
              file=sys.stderr)
        return 1
    print(f"{body['id']}: {body['state']}")
    return 0


def _run_specs(args) -> int:
    """Inspect/steer a running service's inferred-spec lifecycle."""
    import json as _json

    base = args.url.rstrip("/")
    if args.action != "list" and not args.spec_id:
        raise SystemExit(f"specs {args.action} needs a SPEC_ID")
    try:
        if args.action == "list":
            query = f"?state={args.state}" if args.state else ""
            status, body = _http_json(f"{base}/specs{query}")
        elif args.action == "history":
            status, body = _http_json(f"{base}/specs/{args.spec_id}")
        else:
            status, body = _http_json(
                f"{base}/specs/{args.spec_id}/{args.action}", payload={}
            )
    except _live_endpoint_errors() as exc:
        print(_unreachable_message(base, exc), file=sys.stderr)
        return 1
    if status != 200:
        print(f"specs {args.action} failed (HTTP {status}): "
              f"{body.get('error', body)}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(body, indent=2, sort_keys=True))
        return 0
    if args.action == "list":
        specs = body.get("specs", [])
        if not specs:
            print("no lifecycle-tracked specs"
                  + (f" in state {args.state}" if args.state else ""))
            return 0
        width = max(len(record["id"]) for record in specs)
        print(f"{'SPEC':<{width}}  {'STATE':<8} {'DRIFT':>7} {'SCANS':>5} "
              f"{'STREAK':>6}  CPL")
        for record in specs:
            streak = (record["clean_streak"]
                      or -record["dirty_streak"])
            print(f"{record['id']:<{width}}  {record['state']:<8} "
                  f"{record['drift']:>7.4f} {record['scans_observed']:>5} "
                  f"{streak:>6}  {record['cpl']}")
        counts = body.get("stats", {}).get("specs", {})
        print(f"({counts.get('shadow', 0)} shadow, "
              f"{counts.get('enforced', 0)} enforced, "
              f"{counts.get('retired', 0)} retired)")
        return 0
    if args.action == "history":
        print(f"{body['id']}: {body['state']} (revisions {body['revisions']}, "
              f"drift {body['drift']:.4f} over {body['scans_observed']} scan(s))")
        print(f"  cpl: {body['cpl']}")
        for entry in body.get("history", []):
            print(f"  #{entry['seq']} {entry['from']} → {entry['to']} "
                  f"[{entry['action']}] by {entry['actor']}"
                  + (f": {entry['reason']}" if entry.get("reason") else ""))
        if not body.get("history"):
            print("  (no transitions yet)")
        return 0
    print(f"{body['id']}: {body['state']}")
    return 0


def _run_trace(args) -> int:
    """Fetch (or offline-stitch) one job's distributed trace."""
    import json as _json

    target = args.target.rstrip("/")
    if _is_url(target):
        try:
            status, body = _http_json(f"{target}/jobs/{args.job_id}/trace")
        except _live_endpoint_errors() as exc:
            print(_unreachable_message(target, exc), file=sys.stderr)
            return 1
        if status != 200:
            print(f"trace failed (HTTP {status}): {body.get('error', body)}",
                  file=sys.stderr)
            return 1
        payload = body
    else:
        import os

        from ..jobs.lease import JobDirectory
        from ..observability import read_trace_segments, trace_payload

        if not os.path.isdir(target):
            print(f"no job directory at {target!r} — pass a running "
                  f"service's URL or a `service --jobs-dir` directory",
                  file=sys.stderr)
            return 1
        directory = JobDirectory(target)
        segments = []
        for partition in directory.trace_partitions().values():
            segments.extend(
                segment for segment in read_trace_segments(partition)
                if segment.get("trace_id") == args.job_id
            )
        payload = trace_payload(args.job_id, segments)
    if not payload.get("spans"):
        print(f"no trace recorded for job {args.job_id!r} — was the "
              f"service running with observability enabled (--http or "
              f"--metrics-file)?", file=sys.stderr)
        return 1
    text = _json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(payload['spans'])} span(s) from "
              f"{len(payload.get('sources', []))} source(s) to {args.out}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def _run_worker(args) -> int:
    """Run one standalone worker process against a shared job directory."""
    from .. import observability
    from ..jobs.lease import DEFAULT_LEASE_TTL
    from ..jobs.worker import ExternalWorker

    if args.log_file:
        _configure_log_file(args.log_file)
    # the worker is one process of an observable fleet: enable the live
    # registry/tracer so its metrics snapshots and trace segments federate
    # into the coordinator's /metrics and /jobs/<id>/trace
    observability.enable()
    worker = ExternalWorker(
        journal_dir=args.journal,
        worker_id=args.id,
        base_dir=args.base_dir,
        poll=args.poll,
        lease_ttl=args.lease_ttl if args.lease_ttl else DEFAULT_LEASE_TTL,
        heartbeat=args.heartbeat,
        default_timeout=args.job_timeout,
        max_jobs=args.max_jobs,
    )
    worker.install_signal_handlers()
    print(f"worker {worker.worker_id}: journal {worker.directory.root}, "
          f"lease ttl {worker.lease_ttl:g}s, "
          f"heartbeat {worker.heartbeat:g}s",
          file=sys.stderr, flush=True)
    done = worker.run()
    print(f"worker {worker.worker_id}: exiting after {done} job(s)",
          file=sys.stderr, flush=True)
    return 0


def _run_service(args) -> int:
    import time as _time

    from ..service import SourceSpec, ValidationService

    sources = []
    for entry in args.source:
        parts = entry.split(":", 2)
        if len(parts) == 1:
            raise SystemExit(f"--source needs FMT:PATH, got {entry!r}")
        sources.append(
            SourceSpec(parts[0], parts[1], parts[2] if len(parts) > 2 else "")
        )

    def announce(result):
        status = "PASS" if result.passed else "FAIL"
        print(f"transition → {status} (scan #{result.sequence})")

    resilience = None
    if (
        args.resilient
        or args.max_source_retries is not None
        or args.quarantine_threshold is not None
        or args.shard_timeout is not None
    ):
        from ..resilience import ResiliencePolicy

        knobs = {"shard_timeout": args.shard_timeout}
        if args.max_source_retries is not None:
            knobs["max_source_retries"] = args.max_source_retries
        if args.quarantine_threshold is not None:
            knobs["quarantine_threshold"] = args.quarantine_threshold
        resilience = ResiliencePolicy(**knobs)

    if args.log_file:
        _configure_log_file(args.log_file)

    if args.metrics_file or args.http:
        from .. import observability

        observability.enable()

    lifecycle = None
    shadow_enabled = args.shadow or any(
        value is not None
        for value in (args.promote_after, args.demote_drift,
                      args.reinfer_growth, args.lifecycle_journal)
    )
    if shadow_enabled:
        from ..lifecycle import (
            PromotionPolicy,
            ReInferencer,
            SpecLifecycleManager,
        )

        policy_knobs = {}
        if args.promote_after is not None:
            policy_knobs["promote_after"] = args.promote_after
        if args.demote_drift is not None:
            policy_knobs["demote_drift"] = args.demote_drift
        lifecycle = SpecLifecycleManager(
            policy=PromotionPolicy(**policy_knobs),
            journal_path=args.lifecycle_journal,
            reinferencer=ReInferencer(
                growth_threshold=(
                    args.reinfer_growth
                    if args.reinfer_growth is not None else 0.25
                ),
            ),
        )
        counts = lifecycle.state_counts()
        print(f"spec lifecycle: {counts['SHADOW']} shadow, "
              f"{counts['ENFORCED']} enforced, {counts['RETIRED']} retired"
              + (f", journal {args.lifecycle_journal}"
                 if args.lifecycle_journal else ""),
              file=sys.stderr, flush=True)

    service = ValidationService(
        args.spec, sources, on_transition=announce, executor=args.executor,
        resilience=resilience, metrics_file=args.metrics_file,
        delta=args.delta, lifecycle=lifecycle,
    )

    jobs_enabled = args.jobs or any(
        value is not None
        for value in (args.workers, args.jobs_journal, args.queue_depth,
                      args.tenant_limit, args.job_rate, args.job_timeout,
                      args.jobs_dir, args.worker_procs, args.lease_ttl,
                      args.max_requeues)
    )
    if args.worker_procs and not args.jobs_dir:
        raise SystemExit("--worker-procs requires --jobs-dir")
    if jobs_enabled:
        from ..jobs import DEFAULT_LEASE_TTL, JobService

        job_service = JobService(
            journal_path=args.jobs_journal,
            journal_dir=args.jobs_dir,
            workers=args.workers if args.workers is not None else 2,
            worker_procs=args.worker_procs or 0,
            queue_depth=args.queue_depth if args.queue_depth else 256,
            per_tenant_limit=args.tenant_limit or 0,
            rate=args.job_rate or 0.0,
            default_timeout=args.job_timeout,
            lease_ttl=(
                args.lease_ttl if args.lease_ttl else DEFAULT_LEASE_TTL
            ),
            heartbeat=args.heartbeat,
            **(
                {"max_requeues": args.max_requeues}
                if args.max_requeues is not None
                else {}
            ),
        )
        service.attach_jobs(job_service)
        extras = ""
        if args.jobs_journal:
            extras = f", journal {args.jobs_journal}"
        elif args.jobs_dir:
            extras = f", shared dir {args.jobs_dir}"
            if args.worker_procs:
                extras += f", {args.worker_procs} worker process(es)"
        print(f"job service: {job_service.pool.workers} worker(s), "
              f"queue depth {job_service.admission.max_depth}" + extras,
              file=sys.stderr, flush=True)

    if args.http:
        from ..observability import parse_http_address

        host, port = parse_http_address(args.http)
        server = service.start_http(host, port)
        # parseable announcement: tooling (and the http-smoke harness)
        # reads the resolved address of a PORT-0 ephemeral bind from here
        print(f"operator endpoint: {server.url}", file=sys.stderr, flush=True)

    # SIGTERM (systemd stop, docker stop, kill) exits the loop the same
    # way Ctrl-C does, so the finally-block shutdown always runs
    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        import signal

        previous_sigterm = signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:  # pragma: no cover - not on the main thread
        pass

    scans = 0
    last_status = None

    def watch_line(result):
        """One parseable line per validation for --watch consumers
        (the delta-smoke harness greps mode=, store= and fingerprint=)."""
        nonlocal last_status
        from ..jobs.model import report_fingerprint_digest

        status = "PASS" if result.passed else "FAIL"
        if result.delta is not None:
            mode = (f"mode={result.delta['mode']} "
                    f"selected={result.delta['selected']}"
                    f"/{result.delta['statements_total']} "
                    f"store={result.delta['store']}")
        else:
            mode = "mode=full"
        digest = report_fingerprint_digest(result.report)
        print(f"[{result.sequence}] {status} "
              f"({len(result.report.violations)} violation(s); {mode}; "
              f"fingerprint={digest}; "
              f"changed: {', '.join(result.changed_paths)})",
              flush=True)
        if result.health is not None and result.health.status != "OK":
            print(f"    {result.health.summary()}", flush=True)
        last_status = result.passed

    try:
        if args.watch:
            service.watch(
                interval=args.interval,
                max_scans=args.max_scans or None,
                on_result=watch_line,
            )
        else:
            while True:
                result = service.scan()
                scans += 1
                if result is not None:
                    status = "PASS" if result.passed else "FAIL"
                    changed = ", ".join(result.changed_paths)
                    print(f"[{result.sequence}] {status} "
                          f"({len(result.report.violations)} violation(s); "
                          f"changed: {changed})")
                    if result.health is not None and result.health.status != "OK":
                        print(f"    {result.health.summary()}")
                    last_status = result.passed
                if args.max_scans and scans >= args.max_scans:
                    break
                _time.sleep(args.interval)
    except KeyboardInterrupt:  # interactive ^C or SIGTERM
        pass
    finally:
        service.stop_http()
        if service.jobs is not None:
            # graceful drain: running jobs finish and journal their
            # terminal states; QUEUED jobs stay journalled for restart
            service.jobs.close(drain=True)
        if service.lifecycle is not None:
            service.lifecycle.close()
        if previous_sigterm is not None:
            import signal

            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except ValueError:  # pragma: no cover
                pass
    if last_status is None:
        last_status = service.current_status
    return 0 if last_status else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
