"""Run one workload, check every verdict, and report the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table and the run's context record.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics of a separately traced phase.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

clock = time.perf_counter

#: per-workload default corpus scale (``--scale`` overrides it)
DEFAULT_SCALES = {
    "cold-gate": 0.25,
    "watch-checkin": 0.25,
    "job-stream": 0.1,
    "workflow-gate": 0.1,
}
#: setup samples taken in fresh child processes, besides the run's own
SETUP_CHILDREN = 2
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10
#: iterations of the pure-Python calibration loop
CALIBRATION_LOOPS = 2_000_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "verdicts_per_s": "1/s",
    "idle_poll_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric → unit; every one is reported for every workload
#: (0 where the workload never calls into that layer)
PER_LAYER_UNITS = {
    "drivers.parse_s": "s/op",
    "drivers.bytes": "B/op",
    "drivers.instances": "count/op",
    "repository.store_build_s": "s/op",
    "repository.query_s": "s/op",
    "repository.queries": "count/op",
    "compiler.compile_s": "s/op",
    "compiler.cache_hit_ratio": "ratio",
    "evaluator.run_s": "s/op",
    "evaluator.scope_discovery_s": "s/op",
    "evaluator.scope_calls": "count/op",
    "evaluator.domain_resolve_s": "s/op",
    "evaluator.predicate_s": "s/op",
    "delta.diff_s": "s/op",
    "delta.affected_s": "s/op",
    "parallel.evaluate_shard_s": "s/op",
    "delta.selected_ratio": "ratio",
    "delta.splice_s": "s/op",
    "runtime.probe_s": "s/op",
    "runtime.probes": "count/op",
    "runtime.probe_bytes": "B/op",
    "jobs.submit_s": "s/op",
    "jobs.queue_wait_s": "s/op",
    "jobs.run_s": "s/op",
    "jobs.notify_s": "s/op",
    "jobs.journal_bytes_per_job": "B/op",
    "jobs.rejected": "count",
    "workflows.step_s.parse": "s/op",
    "workflows.step_s.validate": "s/op",
    "workflows.step_s.shadow": "s/op",
    "workflows.step_s.cross_check": "s/op",
    "workflows.step_s.report": "s/op",
    "workflows.spliced_ratio": "ratio",
    "crosscheck.check_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "trace.op_s": "s/op",
    "trace.unattributed_s": "s/op",
}

#: layer span name → (busy-time metric, call-count metric)
LAYER_SPANS = {
    "drivers.parse": ("drivers.parse_s", None),
    "repository.store_build": ("repository.store_build_s", None),
    "repository.query": ("repository.query_s", "repository.queries"),
    "compiler.compile": ("compiler.compile_s", None),
    "evaluator.run": ("evaluator.run_s", None),
    "evaluator.scope_discovery": ("evaluator.scope_discovery_s", "evaluator.scope_calls"),
    "evaluator.domain_resolve": ("evaluator.domain_resolve_s", None),
    "evaluator.predicate": ("evaluator.predicate_s", None),
    "delta.diff": ("delta.diff_s", None),
    "delta.affected": ("delta.affected_s", None),
    "parallel.evaluate_shard": ("parallel.evaluate_shard_s", None),
    "runtime.probe": ("runtime.probe_s", "runtime.probes"),
    "jobs.submit": ("jobs.submit_s", None),
    "crosscheck.check": ("crosscheck.check_s", None),
}

STEP_KINDS = ("parse", "validate", "shadow", "cross_check", "report")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host-noise context only."""
    started = clock()
    total = 0
    for index in range(CALIBRATION_LOOPS):
        total += index & 7
    return clock() - started


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ``TAIL_BEYOND`` samples
    beyond it, by nearest rank: ``(value, percentile, samples beyond)``."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = max(1, -(-percentile * count // 100))   # ceil
        if count - rank >= TAIL_BEYOND:
            return ordered[rank - 1], percentile, count - rank
    return ordered[-1], 100, 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------


class Phase:
    """The ops, idle checks and wall time of one timed phase."""

    def __init__(self):
        self.records: list = []
        self.idle: list[float] = []
        self.idle_errors: list[str] = []
        #: direct-scan parity of the first and last op (sequential
        #: workloads check them while the inputs are still in that state)
        self.first_problems: list[str] = []
        self.last_problems: list[str] = []
        self.wall = 0.0


def _idle(workload, phase: Phase, ops: int) -> None:
    """Idle checks after ops 1, 1 + IDLE_EVERY, 1 + 2 * IDLE_EVERY, …"""
    if (ops - 1) % workload.IDLE_EVERY:
        return
    for __ in range(workload.IDLE_PER_OP):
        try:
            seconds = workload.idle()
        except Exception as exc:  # a failed idle check fails the run
            phase.idle_errors.append(f"{type(exc).__name__}: {exc}")
        else:
            if seconds is not None:
                phase.idle.append(seconds)


def run_phase(workload, seconds: float) -> Phase:
    """Closed-loop ops until ``seconds`` of wall time have passed."""
    phase = Phase()
    started = clock()
    deadline = started + seconds
    if workload.sequential:
        while not phase.records or clock() < deadline:
            record = workload.op()
            phase.records.append(record)
            if len(phase.records) == 1:
                phase.first_problems = _fingerprint(workload, record)
            _idle(workload, phase, len(phase.records))
        phase.last_problems = _fingerprint(workload, phase.records[-1])
    else:
        lock = threading.Lock()

        def client():
            ops = 0
            while clock() < deadline:
                record = workload.op()
                ops += 1
                with lock:
                    phase.records.append(record)
                _idle(workload, phase, ops)

        threads = [threading.Thread(target=client) for __ in range(workload.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.records.sort(key=lambda record: record.started)
    phase.wall = clock() - started
    return phase


def _fingerprint(workload, record) -> list[str]:
    try:
        return workload.fingerprint_problems(record)
    except Exception as exc:
        return [f"fingerprint check raised {type(exc).__name__}: {exc}"]


def judge(workload, phases: list[Phase], corrupt: bool) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every op and idle check.

    Every op's verdict is compared with the ledger; the first and last op
    of each phase are also compared with a direct scan (for job-stream:
    the first and last full-mode job, since delta verdicts are partial).
    """
    from .corpus import Fault
    from .verdicts import verdict_problems

    phantom = Fault("phantom", 0, "", "", "Phantom::none.Key",
                    frozenset({"Phantom::none.Key"}))
    attempted = failed = 0
    problems: list[str] = []
    for phase in phases:
        records = phase.records
        checks = {id(record): record.problems() for record in records}
        if workload.sequential:
            if records:
                checks[id(records[0])] += phase.first_problems
                checks[id(records[-1])] += phase.last_problems
        else:
            full = [r for r in records if r.info.get("mode") == "full"]
            for record in {id(r): r for r in full[:1] + full[-1:]}.values():
                checks[id(record)] += _fingerprint(workload, record)
        for record in records:
            found = checks[id(record)]
            if corrupt:
                found = found + verdict_problems(
                    record.keys, record.active + (phantom,), (phantom,)
                )
            attempted += 1
            if found:
                failed += 1
                problems.extend(found)
        attempted += len(phase.idle) + len(phase.idle_errors)
        failed += len(phase.idle_errors)
        problems.extend(phase.idle_errors)
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(sequential: bool, phase: Phase,
               setup_samples: list[float]) -> tuple[dict, dict]:
    latencies = [record.seconds for record in phase.records]
    tail_value, percentile, beyond = tail(latencies)
    if sequential:
        throughput = len(latencies) / sum(latencies)
    else:
        throughput = len(latencies) / phase.wall
    values = {
        "setup_s": statistics.median(setup_samples),
        "verdict_p50_s": statistics.median(latencies),
        "verdict_tail_s": tail_value,
        "verdicts_per_s": throughput,
        "idle_poll_p50_s": statistics.median(phase.idle),
        "peak_rss_mb": peak_rss_mb(),
    }
    context = {
        "ops": len(latencies),
        "verdict_tail_percentile": percentile,
        "verdict_tail_beyond": beyond,
        "idle_samples": len(phase.idle),
        "setup_samples": [round(sample, 6) for sample in setup_samples],
        "phase_wall_s": round(phase.wall, 6),
    }
    return values, context


def per_layer(traced: Phase, untraced: Phase, recorder) -> tuple[dict, dict]:
    from .tracing import layer_table, program_span_summary

    table = layer_table(recorder)
    ops = max(1, len(traced.records))
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, (busy, calls) in LAYER_SPANS.items():
        row = table["layers"].get(span)
        if row is None:
            continue
        values[busy] = row["self_s"]
        if calls is not None:
            values[calls] = row["calls"]
        if span == "drivers.parse":
            values["drivers.bytes"] = row["bytes"]
            values["drivers.instances"] = row["instances"]
        if span == "runtime.probe":
            values["runtime.probe_bytes"] = row["bytes"]
    counters = recorder.counters
    if counters.get("compiler.lookups"):
        values["compiler.cache_hit_ratio"] = (
            counters["compiler.hits"] / counters["compiler.lookups"]
        )
    deltas = [r.info["delta"] for r in traced.records if r.info.get("delta")]
    if deltas:
        total = sum(delta["statements_total"] for delta in deltas)
        values["delta.selected_ratio"] = (
            sum(delta["selected"] for delta in deltas) / total if total else 0.0
        )
        values["delta.splice_s"] = sum(d["splice_seconds"] for d in deltas) / ops
    jobs = [r.info for r in traced.records if r.info.get("finished_at")]
    if jobs:
        values["jobs.queue_wait_s"] = sum(j["started_at"] - j["submitted_at"] for j in jobs) / len(jobs)
        values["jobs.run_s"] = sum(j["finished_at"] - j["started_at"] for j in jobs) / len(jobs)
        values["jobs.notify_s"] = sum(j["returned_at"] - j["finished_at"] for j in jobs) / len(jobs)
        values["jobs.journal_bytes_per_job"] = counters.get("jobs.journal_bytes", 0) / len(jobs)
    values["jobs.rejected"] = sum(
        1 for r in traced.records if r.error.startswith("AdmissionError")
    )
    steps = [step for r in traced.records for step in r.info.get("steps", ())]
    if steps:
        for kind in STEP_KINDS:
            values[f"workflows.step_s.{kind}"] = sum(
                seconds for k, seconds, __, __ in steps if k == kind
            ) / ops
        values["workflows.spliced_ratio"] = (
            sum(1 for __, __, spliced, __ in steps if spliced) / len(steps)
        )
    untraced_p50 = statistics.median(r.seconds for r in untraced.records)
    traced_p50 = statistics.median(r.seconds for r in traced.records)
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    values["trace.op_s"] = table["op_s"]
    values["trace.unattributed_s"] = table["unattributed_s"]
    context = {
        "traced_ops": len(traced.records),
        "untraced_ops": len(untraced.records),
        "untraced_verdict_p50_s": untraced_p50,
        "traced_verdict_p50_s": traced_p50,
        "layer_table": table,
        "program_spans": program_span_summary(recorder, ops),
    }
    return values, context


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _import_program(root: str) -> float:
    started = clock()
    sys.path.insert(0, os.path.join(root, "src"))
    import repro  # noqa: F401
    from . import workloads  # noqa: F401
    return clock() - started


def setup_once(args, root: str, workdir: str):
    """Import the program, write inputs, set up and warm up.

    Returns ``(workload, setup seconds)``; input generation is not set-up
    and is left out of the figure.
    """
    import_s = _import_program(root)
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload](workdir, args.seed, root, args.scale)
    workload.write_inputs()
    started = clock()
    workload.start()
    workload.warm_up()
    return workload, import_s + (clock() - started)


def _setup_child(args, root: str) -> float:
    command = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(args.scale), "--seconds", "0", "--setup-probe",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _workdir(root: str, args, label: str) -> str:
    path = os.path.join(root, ".perfbench", "work",
                        f"{args.workload}-{args.seed}-{label}-{os.getpid()}")
    os.makedirs(path)
    return path


def run(args, root: str) -> int:
    calibration_start = 0.0 if args.setup_probe else calibrate()
    workdir = _workdir(root, args, "setup" if args.setup_probe else "run")
    workload = None
    try:
        workload, setup_s = setup_once(args, root, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            untraced = run_phase(workload, args.seconds / 2)
            traced, recorder = _traced_phase(workload, args.seconds / 2, root, args)
            phases = [untraced, traced]
        else:
            phases = [run_phase(workload, args.seconds)]
        attempted, failed, problems = judge(workload, phases, args.corrupt_ledger)
        corpus = workload.context()
        sequential = workload.sequential
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values, context = per_layer(phases[1], phases[0], recorder)
        units = PER_LAYER_UNITS
    else:
        setup_samples = [setup_s] + [
            _setup_child(args, root) for __ in range(SETUP_CHILDREN)
        ]
        values, context = end_to_end(sequential, phases[0], setup_samples)
        units = END_TO_END_UNITS
        context["failed_ratio"] = failed / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "corpus": corpus,
        "calibration_s": {"start": calibration_start, "end": calibrate()},
        **context,
        "problems": problems[:20],
    }
    _report(args, root, values, units, record, attempted, failed)
    return 0 if failed == 0 else 1


def _traced_phase(workload, seconds: float, root: str, args):
    from repro import observability

    from .tracing import Recorder, install, keep_program_spans, write_trace

    recorder = Recorder()
    obs = observability.enable()
    drain = keep_program_spans(recorder, obs.tracer)
    installation = install(recorder)
    workload.timer.recorder = recorder
    try:
        phase = run_phase(workload, seconds)
    finally:
        workload.timer.recorder = None
        installation.restore()
        drain()
        observability.disable()
    out = os.path.join(root, ".perfbench", "traces")
    os.makedirs(out, exist_ok=True)
    write_trace(os.path.join(out, f"{args.workload}-seed{args.seed}.json"), recorder)
    return phase, recorder


def _report(args, root, values, units, record, attempted, failed) -> None:
    title = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} {title}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"  {'failed_ratio':32s} {record['failed_ratio']:14.6f} ratio")
        print(f"  verdict_tail_s is p{record['verdict_tail_percentile']} "
              f"of {record['ops']} ops ({record['verdict_tail_beyond']} beyond)")
    else:
        table = record["layer_table"]
        print(f"  layer self time per op over {table['ops']} traced ops:")
        for name, row in sorted(table["layers"].items(),
                                key=lambda item: -item[1]["self_s"]):
            print(f"    {name:28s} {row['self_s']:12.6f} s  {row['calls']:10.1f} calls")
        print(f"    {'(unattributed)':28s} {table['unattributed_s']:12.6f} s")
        print(f"    {'(traced op)':28s} {table['op_s']:12.6f} s")
    for problem in record["problems"]:
        print(f"  WRONG: {problem}")
    out = os.path.join(root, ".perfbench", "results")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w", encoding="utf-8") as handle:
        json.dump({**record, "metrics": values}, handle, indent=2, default=str)
    print("context: " + json.dumps(
        {key: record[key] for key in ("nproc", "python", "corpus", "calibration_s")},
        default=str,
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Check-in latency benchmark for the ConfValley reproduction.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report the per-layer metrics of a traced run")
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale (default: the workload's own)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up once and print the set-up time")
    parser.add_argument("--corrupt-ledger", action="store_true",
                        help="self-test: expect a fault that was never "
                             "injected, so every verdict must be judged wrong")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = DEFAULT_SCALES[args.workload]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {root}/src", file=sys.stderr)
        return 2
    return run(args, root)
