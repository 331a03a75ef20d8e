"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``.

Every workload runs end to end at a tiny scale, once untraced and once
traced, and must report exactly the metrics ``BENCHMARK.json`` names.  A
corrupted fault ledger must be judged wrong, so the checker cannot pass
vacuously.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.corpus import ServiceStores, TypeACorpus, index_settings  # noqa: E402
from perfbench.harness import tail  # noqa: E402
from perfbench.tracing import Recorder, layer_table  # noqa: E402
from perfbench.verdicts import verdict_problems  # noqa: E402

TINY = {"cold-gate": 0.05, "watch-checkin": 0.25, "job-stream": 0.05,
        "workflow-gate": 0.05}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONFIG = json.load(handle)


def bench(workload, *extra, seed=3, cwd=ROOT, script=None):
    command = [
        sys.executable, script or os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--scale", str(TINY[workload]), *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_reported(workload, trace):
    done = bench(workload, "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert metric["value"] > 0, entry["name"]
    if trace == "1":
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_cold_gate_layers_add_up_to_the_traced_op():
    done = bench("cold-gate", "--trace", "1", seed=4)
    assert done.returncode == 0, done.stderr
    path = os.path.join(ROOT, ".perfbench", "results", "cold-gate-seed4-trace1.json")
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)["layer_table"]
    layers = sum(row["self_s"] for row in table["layers"].values())
    assert layers + table["unattributed_s"] == pytest.approx(table["op_s"], rel=1e-6)
    for layer in ("drivers.parse", "repository.store_build",
                  "evaluator.scope_discovery", "evaluator.predicate"):
        assert table["layers"][layer]["self_s"] > 0


@pytest.mark.parametrize("workload", ["cold-gate", "watch-checkin"])
def test_corrupted_ledger_fails_the_run(workload):
    done = bench(workload, "--trace", "0", "--corrupt-ledger")
    assert done.returncode != 0
    result = last_json(done)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("cold-gate", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert "correct" not in done.stdout


# ---------------------------------------------------------------------------
# Unit checks of the ground truth and the statistics
# ---------------------------------------------------------------------------


def test_ledger_keys_are_the_keys_the_driver_produces():
    from repro.drivers import get_driver

    corpus = TypeACorpus(0.1, seed=9)
    parsed = get_driver("xml").parse(corpus.document.text(), source="t.xml")
    assert {setting.key for setting in index_settings(corpus.document.clean)} == {
        instance.key.render() for instance in parsed
    }
    families = {fault.family for fault in corpus.initial}
    assert len(families) == len(corpus.initial) == len(corpus.pool)


def test_same_seed_same_inputs():
    assert TypeACorpus(0.1, 5).document.lines == TypeACorpus(0.1, 5).document.lines
    assert TypeACorpus(0.1, 5).document.lines != TypeACorpus(0.1, 6).document.lines
    assert ServiceStores(5).document.lines == ServiceStores(5).document.lines


def test_verdict_checker_flags_misses_and_strays():
    corpus = TypeACorpus(0.1, seed=2)
    active = corpus.initial
    caught = [sorted(fault.blame)[0] for fault in active]
    assert verdict_problems(caught, active) == []
    missed = verdict_problems(caught[1:], active)
    assert missed and missed[0].startswith("missed")
    family = "machine_pool_typo"
    stray = next(fault.key for fault in corpus.pool if fault.family == family)
    # a violation in a class no active fault covers is unexpected
    others = [fault for fault in active if fault.family != family]
    problems = verdict_problems([sorted(f.blame)[0] for f in others] + [stray], others)
    assert problems == [f"unexpected violation at {stray}"]


def test_tail_keeps_ten_samples_beyond():
    samples = [float(index) for index in range(1, 101)]
    value, percentile, beyond = tail(samples)
    assert percentile == 90 and value == 90.0 and beyond == 10
    assert sum(1 for sample in samples if sample > value) == 10


def test_self_time_subtracts_direct_children():
    recorder = Recorder()
    recorder.op = "op0"
    root = recorder.open("op")
    root["attrs"]["op"] = "op0"
    outer = recorder.open("drivers.parse")
    inner = recorder.open("repository.query")
    recorder.close(inner)
    recorder.close(outer)
    recorder.close(root)
    table = layer_table(recorder)
    total = sum(row["self_s"] for row in table["layers"].values())
    assert total + table["unattributed_s"] == pytest.approx(table["op_s"])
    assert table["layers"]["repository.query"]["calls"] == 1
