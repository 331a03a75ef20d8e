"""End-to-end smoke test of watch-mode incremental validation.

Starts ``confvalley service --delta --watch`` as a *subprocess* (exactly
as the runbook in docs/INCREMENTAL.md describes), waits for the
bootstrap validation line, edits one key in the watched config, and
asserts that:

* exactly ONE delta scan fires for the edit (no scan storms, no missed
  change), scoped to a strict subset of the statements, and it patches
  the kept store in place (``store=patched``) instead of rebuilding it;
* the fingerprint digest the watch line prints is byte-identical to the
  digest a full, in-process scan of the same files produces — the
  delta/full equivalence guarantee across a real process boundary;
* an idle quiet period produces no further validations;
* SIGTERM shuts the loop down cleanly with the last verdict as the exit
  code.

Run directly (``make delta-smoke``)::

    PYTHONPATH=src python benchmarks/delta_smoke.py
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SourceSpec, ValidationService  # noqa: E402
from repro.jobs.model import report_fingerprint_digest  # noqa: E402

SPEC = (
    "$fabric.Timeout -> int & [1, 60]\n"
    "$fabric.RecoveryAttempts -> int & [1, 10]\n"
    "$fabric.Name -> nonempty\n"
)
BASE_INI = "[fabric]\nTimeout = 30\nRecoveryAttempts = 3\nName = web\n"
EDIT_INI = "[fabric]\nTimeout = 45\nRecoveryAttempts = 3\nName = web\n"

WATCH_LINE = re.compile(
    r"\[(?P<seq>\d+)\] (?P<status>PASS|FAIL) .*"
    r"mode=(?P<mode>[a-z-]+)(?: selected=(?P<sel>\d+)/(?P<total>\d+))?"
    r"(?: store=(?P<store>[a-z]+))?.*"
    r"fingerprint=(?P<digest>[0-9a-f]{64})"
)
STARTUP_DEADLINE = 30.0
QUIET_PERIOD = 1.0  # seconds of idle polling that must produce no scans
SHUTDOWN_DEADLINE = 10.0


def reader(stream, lines: "queue.Queue[str]") -> None:
    for line in stream:
        sys.stderr.write("service| " + line)
        lines.put(line)


def next_watch_line(lines: "queue.Queue[str]", deadline: float) -> re.Match:
    while True:
        remaining = deadline - time.monotonic()
        assert remaining > 0, "no watch line within deadline"
        try:
            line = lines.get(timeout=remaining)
        except queue.Empty:
            raise AssertionError("no watch line within deadline") from None
        # non-validation output (diagnostics, health continuations) is skipped
        match = WATCH_LINE.search(line)
        if match:
            return match


def expect_digest(spec: Path, config: Path) -> str:
    """What a full, in-process scan of the current files fingerprints to."""
    service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
    return report_fingerprint_digest(service.run_once().report)


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="confvalley-delta-smoke-"))
    spec = workdir / "spec.cpl"
    config = workdir / "conf.ini"
    spec.write_text(SPEC)
    config.write_text(BASE_INI)

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.console.cli", "service",
            str(spec), "--source", f"ini:{config}",
            "--delta", "--watch", "--interval", "0.1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines: "queue.Queue[str]" = queue.Queue()
    threading.Thread(
        target=reader, args=(process.stdout, lines), daemon=True
    ).start()

    try:
        # 1. bootstrap validation: everything runs once
        first = next_watch_line(lines, time.monotonic() + STARTUP_DEADLINE)
        assert first.group("status") == "PASS", first.group(0)
        assert first.group("mode") == "bootstrap", first.group(0)
        assert first.group("sel") == first.group("total") == "3", first.group(0)
        assert first.group("store") == "rebuilt", first.group(0)
        assert first.group("digest") == expect_digest(spec, config)

        # 2. one edit → exactly one delta scan, scoped to the one statement
        config.write_text(EDIT_INI)
        second = next_watch_line(lines, time.monotonic() + STARTUP_DEADLINE)
        assert second.group("status") == "PASS", second.group(0)
        assert second.group("mode") == "delta", second.group(0)
        assert second.group("sel") == "1", second.group(0)
        assert second.group("total") == "3", second.group(0)
        # a value-only edit patches the kept store instead of rebuilding it
        assert second.group("store") == "patched", second.group(0)
        # the equivalence guarantee, across the process boundary
        assert second.group("digest") == expect_digest(spec, config)

        # 3. idle polls must not validate
        quiet_until = time.monotonic() + QUIET_PERIOD
        while time.monotonic() < quiet_until:
            try:
                stray = lines.get(timeout=quiet_until - time.monotonic())
            except queue.Empty:
                break
            assert not WATCH_LINE.search(stray), f"stray scan: {stray!r}"

        # 4. clean SIGTERM shutdown, exit code = last verdict (PASS → 0)
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=SHUTDOWN_DEADLINE)
        assert code == 0, f"expected exit 0 after passing scans, got {code}"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=5)

    print("delta smoke: OK (bootstrap 3/3, delta 1/3 patched, fingerprint parity, "
          "quiet idle, clean shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
