"""Incremental delta-validation: equivalence with full scans (ISSUE-6).

The central acceptance criterion is *byte-identical reports*: a service
running with ``delta=True`` must produce, for every scan, a report whose
``fingerprint()`` equals the one a full-scan twin produces from the same
files.  The twin harness below drives both services through adversarial
change sequences — ``$var``-widened foreach targets, free-variable pool
patterns, aggregate predicates, emptied and deleted sources, and changes
landing while a spec circuit breaker is open — asserting parity at every
step.

Also covered here: the probe-token change detector (same-mtime rewrites
must be seen), watch mode, delta jobs (including the full-fallback arm
and submission validation), and the module doctests the documentation
satellites added.
"""

from __future__ import annotations

import doctest
import os
import random

import pytest

from repro import (
    ResiliencePolicy,
    SourceSpec,
    ValidationService,
    observability,
)
from repro.core.report import HealthBlock
from repro.drivers import get_driver
from repro.jobs import JobService, JobState
from repro.predicates import register_predicate
from repro.repository import ConfigStore

# ---------------------------------------------------------------------------
# Twin harness
# ---------------------------------------------------------------------------

RICH_SPEC = (
    "let SmallInt := int & [1, 60]\n"
    "$Cluster.Timeout -> @SmallInt\n"
    "$Cluster.Mode -> {'fast', 'safe'}\n"
    "$*Port* -> port\n"
    "$PoolName -> foreach($Pool::$_.Vip) -> ip\n"
    "$node.Replicas -> count -> == 1\n"
)

CLUSTER_INI = "[Cluster]\nTimeout = 30\nMode = fast\n"
POOLS_INI = (
    "[PoolName::1]\nPoolName = p1\n"
    "[Pool::p1]\nVip = 10.0.0.1\n"
    "[Pool::p2]\nVip = 10.0.0.2\n"
)
NODES_INI = "[node]\nReplicas = 3\nHttpPort = 8080\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def rewrite(path, text):
    path.write_text(text)
    # strictly newer mtime even on coarse-granularity filesystems
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns + 1_000_000, stat.st_mtime_ns + 1_000_000))


class Twins:
    """A full-scan service and a delta service watching the same files."""

    def __init__(self, tmp_path, spec_text=RICH_SPEC, resilience=None):
        self.tmp_path = tmp_path
        self.spec = tmp_path / "spec.cpl"
        write(self.spec, spec_text)
        self.files = {}
        for name, text in (
            ("cluster.ini", CLUSTER_INI),
            ("pools.ini", POOLS_INI),
            ("nodes.ini", NODES_INI),
        ):
            self.files[name] = tmp_path / name
            write(self.files[name], text)
        sources = [SourceSpec("ini", str(p)) for p in self.files.values()]

        def policy():
            return None if resilience is None else ResiliencePolicy(**resilience)

        self.full = ValidationService(str(self.spec), sources, resilience=policy())
        self.delta = ValidationService(
            str(self.spec), sources, resilience=policy(), delta=True
        )

    def step(self, expect_mode=...):
        """Run both services once; assert fingerprint parity; return the
        delta twin's result.  ``expect_mode`` checks the scoping decision:
        "bootstrap"/"delta" for an incremental scan, ``None`` for a
        full-path fallback, ``...`` for "don't care"."""
        full = self.full.run_once()
        incr = self.delta.run_once()
        assert incr.report.fingerprint() == full.report.fingerprint()
        assert incr.passed == full.passed
        if full.health is not None or incr.health is not None:
            assert incr.health.status == full.health.status
        if expect_mode is None:
            assert incr.delta is None
        elif expect_mode is not ...:
            assert incr.delta is not None
            assert incr.delta["mode"] == expect_mode
        return incr

    def change(self, name, text):
        rewrite(self.files[name], text)


# ---------------------------------------------------------------------------
# Strict-mode equivalence under adversarial change sets
# ---------------------------------------------------------------------------


class TestStrictEquivalence:
    def test_bootstrap_then_single_key_change_is_scoped(self, tmp_path):
        twins = Twins(tmp_path)
        first = twins.step(expect_mode="bootstrap")
        assert first.passed
        twins.change("cluster.ini", "[Cluster]\nTimeout = 45\nMode = fast\n")
        second = twins.step(expect_mode="delta")
        assert second.passed
        # the point of delta: a one-key change re-runs a strict subset
        assert 0 < second.delta["selected"] < second.delta["statements_total"]

    def test_unchanged_rescan_selects_nothing(self, tmp_path):
        twins = Twins(tmp_path)
        twins.step(expect_mode="bootstrap")
        result = twins.step(expect_mode="delta")  # forced, nothing changed
        assert result.delta["selected"] == 0

    def test_violation_introduced_by_delta_scan(self, tmp_path):
        twins = Twins(tmp_path)
        twins.step()
        twins.change("cluster.ini", "[Cluster]\nTimeout = 999\nMode = fast\n")
        result = twins.step(expect_mode="delta")
        assert not result.passed

    def test_foreach_target_change_is_selected(self, tmp_path):
        # $PoolName -> foreach($Pool::$_.Vip) -> ip: the foreach requeries
        # $Pool::<value>.Vip, so the index must widen the $var qualifier
        # and re-run the statement when ANY Pool instance moves.
        twins = Twins(tmp_path)
        twins.step()
        twins.change(
            "pools.ini",
            "[PoolName::1]\nPoolName = p1\n"
            "[Pool::p1]\nVip = oops\n"
            "[Pool::p2]\nVip = 10.0.0.2\n",
        )
        result = twins.step(expect_mode="delta")
        assert not result.passed

    def test_var_widened_unreferenced_pool_change(self, tmp_path):
        # Changing the pool the foreach does NOT reference must still keep
        # parity (conservative selection may re-run it; the verdict and
        # fingerprint must match the full twin either way).
        twins = Twins(tmp_path)
        twins.step()
        twins.change(
            "pools.ini",
            "[PoolName::1]\nPoolName = p1\n"
            "[Pool::p1]\nVip = 10.0.0.1\n"
            "[Pool::p2]\nVip = not-an-ip\n",
        )
        result = twins.step(expect_mode="delta")
        assert result.passed  # p2 is never dereferenced

    def test_free_variable_pool_retarget(self, tmp_path):
        # Repointing PoolName at the now-bad pool flips the verdict.
        twins = Twins(tmp_path)
        twins.step()
        twins.change(
            "pools.ini",
            "[PoolName::1]\nPoolName = p2\n"
            "[Pool::p1]\nVip = 10.0.0.1\n"
            "[Pool::p2]\nVip = not-an-ip\n",
        )
        result = twins.step(expect_mode="delta")
        assert not result.passed

    def test_aggregate_predicate_sees_cardinality_change(self, tmp_path):
        # count aggregates over every matching instance: a duplicate key
        # (second node.Replicas instance) must re-run the aggregate.
        twins = Twins(tmp_path)
        assert twins.step().passed
        twins.change(
            "nodes.ini",
            "[node]\nReplicas = 3\nReplicas = 5\nHttpPort = 8080\n",
        )
        result = twins.step(expect_mode="delta")
        assert not result.passed  # count == 1 now fails (two instances)

    def test_wildcard_pattern_change(self, tmp_path):
        twins = Twins(tmp_path)
        twins.step()
        twins.change("nodes.ini", "[node]\nReplicas = 3\nHttpPort = 99999\n")
        result = twins.step(expect_mode="delta")
        assert not result.passed  # $*Port* -> port

    def test_emptied_source(self, tmp_path):
        twins = Twins(tmp_path)
        twins.step()
        twins.change("pools.ini", "")
        result = twins.step(expect_mode="delta")
        # removals flow through the index like additions; both twins now
        # simply have no pool instances to check
        assert result.passed == twins.full.history[-1].passed

    def test_spec_change_forces_bootstrap(self, tmp_path):
        twins = Twins(tmp_path)
        twins.step(expect_mode="bootstrap")
        rewrite(twins.spec, RICH_SPEC + "$Cluster.Timeout -> <= 50\n")
        twins.step(expect_mode="bootstrap")
        twins.change("cluster.ini", "[Cluster]\nTimeout = 55\nMode = fast\n")
        result = twins.step(expect_mode="delta")
        assert not result.passed

    def test_many_scan_soak_stays_in_lockstep(self, tmp_path):
        twins = Twins(tmp_path)
        timeouts = [30, 2, 61, 59, 1, 30]
        for index, timeout in enumerate(timeouts):
            twins.change(
                "cluster.ini", f"[Cluster]\nTimeout = {timeout}\nMode = fast\n"
            )
            result = twins.step()
            assert result.passed == (1 <= timeout <= 60)
        stats = twins.delta.stats()["delta"]
        assert stats["scans"] == len(timeouts)
        assert stats["fallbacks"] == 0


# ---------------------------------------------------------------------------
# Resilient-mode equivalence: faults while delta is active
# ---------------------------------------------------------------------------

BOMB = {"armed": False}


def _denotate(value, *args):
    if BOMB["armed"]:
        raise RuntimeError("injected spec fault")
    return True


register_predicate("denotate", _denotate)

RESILIENT_SPEC = (
    "$Cluster.Timeout -> denotate\n"
    "$Cluster.Timeout -> int & [1, 60]\n"
    "$node.Replicas -> int\n"
)


class TestResilientEquivalence:
    RESILIENCE = {"quarantine_threshold": 1, "probe_interval": 2}

    def twins(self, tmp_path, **overrides):
        options = dict(self.RESILIENCE)
        options.update(overrides)
        return Twins(tmp_path, spec_text=RESILIENT_SPEC, resilience=options)

    def test_source_deletion_falls_back_and_recovers(self, tmp_path):
        twins = self.twins(tmp_path)
        twins.step(expect_mode="bootstrap")
        os.remove(twins.files["nodes.ini"])
        degraded = twins.step(expect_mode=None)  # full path, never raises
        assert degraded.health.status == HealthBlock.DEGRADED
        assert degraded.health.source_failures[0]["kind"] == "missing"
        # restored file: quarantine lifts, then delta mode resumes
        rewrite(twins.files["nodes.ini"], NODES_INI)
        recovered = twins.step()
        assert recovered.health.status == HealthBlock.OK
        twins.change("cluster.ini", "[Cluster]\nTimeout = 31\nMode = fast\n")
        resumed = twins.step()
        assert resumed.delta is not None  # incremental path is active again
        assert twins.delta.stats()["delta"]["fallbacks"] >= 1

    def test_change_during_open_breaker(self, tmp_path):
        twins = self.twins(tmp_path)
        twins.step(expect_mode="bootstrap")
        BOMB["armed"] = True
        try:
            # the fault arrives WITH a change to its input, so the delta
            # scan selects the statement, errors, and trips the breaker
            # (threshold=1) in lockstep with the full twin
            twins.change("cluster.ini", "[Cluster]\nTimeout = 31\nMode = fast\n")
            tripped = twins.step(expect_mode="delta")
            assert tripped.health.status == HealthBlock.DEGRADED
            assert tripped.health.spec_errors
            # breaker now open: a change landing while it is open must take
            # the full path (a delta scan skipping the broken statement
            # would otherwise close the breaker without re-running it)
            twins.change("cluster.ini", "[Cluster]\nTimeout = 32\nMode = fast\n")
            skipped = twins.step(expect_mode=None)
            assert skipped.health.quarantined_specs
        finally:
            BOMB["armed"] = False
        # cause fixed: scans stay on the full path (and in parity) until the
        # half-open probe closes the breaker and health returns to OK
        for __ in range(4):
            result = twins.step(expect_mode=None)
            if result.health.status == HealthBlock.OK:
                break
        assert result.health.status == HealthBlock.OK
        # healthy again: the next change goes back through the delta path
        twins.change("cluster.ini", "[Cluster]\nTimeout = 33\nMode = fast\n")
        resumed = twins.step(expect_mode="bootstrap")  # state was reset
        assert resumed.passed
        twins.change("cluster.ini", "[Cluster]\nTimeout = 34\nMode = fast\n")
        twins.step(expect_mode="delta")


# ---------------------------------------------------------------------------
# Probe-token change detection (same-mtime rewrites)
# ---------------------------------------------------------------------------


class TestProbeTokens:
    def test_same_mtime_same_size_rewrite_is_detected(self, tmp_path):
        spec = write(tmp_path / "spec.cpl", "$fabric.Timeout -> int & [1, 60]\n")
        config = tmp_path / "prod.ini"
        write(config, "[fabric]\nTimeout = 30\n")
        service = ValidationService(spec, [SourceSpec("ini", str(config))])
        assert service.scan().passed
        stat = os.stat(config)
        # adversarial rewrite: same byte length, mtime pinned back — only
        # the content hash in the probe token can catch this
        config.write_text("[fabric]\nTimeout = 99\n")
        os.utime(config, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        result = service.scan()
        assert result is not None, "same-mtime rewrite was missed"
        assert not result.passed

    def test_deletion_and_steady_absence(self, tmp_path):
        spec = write(tmp_path / "spec.cpl", "$fabric.Timeout -> int\n")
        config = tmp_path / "prod.ini"
        write(config, "[fabric]\nTimeout = 30\n")
        service = ValidationService(spec, [SourceSpec("ini", str(config))])
        service._changed_paths()               # prime the probe tokens
        os.remove(config)
        assert str(config) in service._changed_paths()  # deletion = change
        # the None token is itself stable: steady absence must NOT keep
        # registering as a change scan over scan
        assert service._changed_paths() == []


# ---------------------------------------------------------------------------
# Watch mode
# ---------------------------------------------------------------------------


class TestWatch:
    def test_watch_validates_then_stops_at_max_scans(self, tmp_path):
        spec = write(tmp_path / "spec.cpl", "$fabric.Timeout -> int & [1, 60]\n")
        config = tmp_path / "prod.ini"
        write(config, "[fabric]\nTimeout = 30\n")
        service = ValidationService(
            spec, [SourceSpec("ini", str(config))], delta=True
        )
        seen = []
        ticks = {"count": 0}

        def sleeper(interval):
            # between polls, an editor rewrites the config
            ticks["count"] += 1
            rewrite(config, f"[fabric]\nTimeout = {30 + ticks['count']}\n")

        results = service.watch(
            interval=0.01, max_scans=3, on_result=seen.append, sleep=sleeper
        )
        # max_scans counts VALIDATIONS, not polls
        assert len(results) == 3
        assert seen == results
        assert results[0].delta["mode"] == "bootstrap"
        assert all(r.delta["mode"] == "delta" for r in results[1:])

    def test_watch_idle_polls_do_not_validate(self, tmp_path):
        spec = write(tmp_path / "spec.cpl", "$fabric.Timeout -> int\n")
        config = tmp_path / "prod.ini"
        write(config, "[fabric]\nTimeout = 30\n")
        service = ValidationService(spec, [SourceSpec("ini", str(config))])
        polls = {"count": 0}

        def sleeper(interval):
            polls["count"] += 1
            if polls["count"] == 5:
                rewrite(config, "[fabric]\nTimeout = 31\n")

        results = service.watch(max_scans=2, sleep=sleeper)
        assert len(results) == 2               # bootstrap + the one change
        assert polls["count"] >= 5             # idle polls in between
        assert len(service.history) == 2


# ---------------------------------------------------------------------------
# Delta jobs
# ---------------------------------------------------------------------------

JOB_SPEC = "$s.Timeout -> int & [1, 60]\n$s.Flag -> bool\n$s.Name -> nonempty\n"
BASELINE_INI = "[s]\nTimeout = 30\nFlag = true\nName = web\n"
CHANGED_INI = "[s]\nTimeout = 999\nFlag = true\nName = web\n"


def inline(text):
    return [{"format": "ini", "text": text, "source": "inline.ini"}]


class TestDeltaJobs:
    def run_job(self, tmp_path, **submission):
        service = JobService(workers=1, journal_path=str(tmp_path / "j.jsonl"))
        try:
            job, __ = service.submit(**submission)
            return service.wait(job.id, timeout=30)
        finally:
            service.close()

    def test_delta_job_scopes_to_the_change(self, tmp_path):
        done = self.run_job(
            tmp_path,
            spec=JOB_SPEC,
            sources=inline(CHANGED_INI),
            baseline_sources=inline(BASELINE_INI),
            mode="delta",
        )
        assert done.state == JobState.DONE
        assert done.result["verdict"] == "reject"
        delta = done.result["delta"]
        assert delta["mode"] == "delta"
        assert delta["statements_total"] == 3
        assert delta["selected"] == 1          # only the Timeout statement
        assert delta["skipped"] == 2
        assert done.result["violations"] == 1

    def test_delta_job_with_identical_sources_selects_nothing(self, tmp_path):
        done = self.run_job(
            tmp_path,
            spec=JOB_SPEC,
            sources=inline(BASELINE_INI),
            baseline_sources=inline(BASELINE_INI),
            mode="delta",
        )
        assert done.state == JobState.DONE
        assert done.result["verdict"] == "admit"
        assert done.result["delta"]["selected"] == 0

    def test_unsound_program_takes_full_fallback(self, tmp_path):
        # a let nested in a block defeats sharded (and therefore delta)
        # evaluation: the job must fall back to a full run and say so
        spec = (
            "compartment s {\n"
            "let T := int & [1, 60]\n"
            "$Timeout -> @T\n"
            "}\n"
        )
        done = self.run_job(
            tmp_path,
            spec=spec,
            sources=inline(CHANGED_INI),
            baseline_sources=inline(BASELINE_INI),
            mode="delta",
        )
        assert done.state == JobState.DONE
        assert done.result["verdict"] == "reject"
        assert done.result["delta"]["mode"] == "full-fallback"
        assert "soundly" in done.result["delta"]["reason"]

    def test_submit_rejects_malformed_delta_requests(self):
        service = JobService(workers=0)
        try:
            with pytest.raises(ValueError):
                service.submit(spec=JOB_SPEC, mode="sideways")
            with pytest.raises(ValueError):
                # baseline without delta mode is a contradiction
                service.submit(
                    spec=JOB_SPEC, baseline_sources=inline(BASELINE_INI)
                )
            with pytest.raises(ValueError):
                service.submit_payload(
                    {"spec": JOB_SPEC, "mode": "delta",
                     "baseline_sources": "not-a-list"}
                )
            with pytest.raises(ValueError):
                service.submit_payload({"spec": JOB_SPEC, "mode": 7})
        finally:
            service.close()

    def test_payload_round_trip(self):
        service = JobService(workers=0)
        try:
            job, created = service.submit_payload(
                {
                    "spec": JOB_SPEC,
                    "mode": "delta",
                    "sources": [
                        {"format": "ini", "text": CHANGED_INI,
                         "source": "inline.ini"}
                    ],
                    "baseline_sources": [
                        {"format": "ini", "text": BASELINE_INI,
                         "source": "inline.ini"}
                    ],
                }
            )
            assert created
            assert job.mode == "delta"
            assert job.summary()["mode"] == "delta"
            assert job.to_dict()["baseline_sources"]
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Patched vs rebuilt store: differential test against fresh builds
# ---------------------------------------------------------------------------

DIFF_SPEC = (
    "$Cluster.Timeout -> int & [1, 60]\n"
    "$Cluster.Mode -> {'fast', 'safe'}\n"
    "$*Port -> port\n"
    "$shared.Port -> unique\n"
    "$node.Replicas -> count -> == 1\n"
)
#: value pools per key name; every source draws on the same names, so the
#: store is full of cross-source duplicates it must disambiguate by ordinal
DIFF_VALUES = {
    "Timeout": ["30", "45", "999", "x"],
    "Mode": ["fast", "safe", "slow"],
    "Port": ["8080", "443", "70000"],
    "HttpPort": ["80", "8443", "-1"],
    "Replicas": ["1", "3"],
}
DIFF_SECTIONS = ["Cluster", "shared", "node"]
#: exact, ordinal and wildcard patterns, queried before every edit (which
#: fills the trie memo) and compared after it
DIFF_PATTERNS = [
    "Timeout", "Cluster.Timeout", "Cluster.Timeout[2]", "shared.Port",
    "Port[3]", "*Port", "*.Mode", "node.*", "Replicas",
]
DIFF_CORPUS = {
    "a.ini": [("Cluster", "Timeout", "30"), ("Cluster", "Mode", "fast"),
              ("shared", "Port", "8080")],
    "b.ini": [("Cluster", "Timeout", "45"), ("shared", "Port", "443"),
              ("node", "HttpPort", "80")],
    "c.ini": [("shared", "Port", "8080"), ("node", "Replicas", "1"),
              ("Cluster", "Mode", "safe")],
    "d.ini": [("node", "HttpPort", "8443"), ("shared", "Port", "443")],
}
#: edit kind -> the store path the delta scan must take for it
DIFF_PATHS = {
    "value": "patched", "comment": "patched", "add": "rebuilt",
    "remove": "rebuilt", "reorder": "rebuilt", "delete": "rebuilt",
    "restore": "rebuilt", "shuffle": "rebuilt",
}


def store_rows(store):
    return [(i.key, i.value, i.source) for i in store.instances()]


def class_rows(store):
    return [
        (cls.class_key, [(i.key, i.value, i.source) for i in cls.instances])
        for cls in store.classes()
    ]


def query_rows(store):
    return {
        pattern: [(i.key, i.value) for i in store.query(pattern)]
        for pattern in DIFF_PATTERNS
    }


class DiffCorpus:
    """Seeded edits to four INI sources and to the source list, applied
    alike to a delta service and a full-scan twin."""

    def __init__(self, tmp_path, seed):
        self.rng = random.Random(seed)
        self.spec = write(tmp_path / "spec.cpl", DIFF_SPEC)
        self.entries = {name: list(rows) for name, rows in DIFF_CORPUS.items()}
        self.comments = dict.fromkeys(DIFF_CORPUS, 0)
        self.paths = {name: tmp_path / name for name in DIFF_CORPUS}
        self.active = list(DIFF_CORPUS)
        for name in DIFF_CORPUS:
            write(self.paths[name], self.render(name))
        self.full = ValidationService(self.spec, self.sources())
        self.delta = ValidationService(self.spec, self.sources(), delta=True)

    def render(self, name):
        lines = [f"# revision {n}" for n in range(self.comments[name])]
        for section, key, value in self.entries[name]:
            lines += [f"[{section}]", f"{key} = {value}"]
        return "\n".join(lines) + "\n"

    def sources(self):
        return [SourceSpec("ini", str(self.paths[name])) for name in self.active]

    def edit(self):
        """Apply one random applicable edit; returns its kind."""
        rng = self.rng
        while True:
            kind = rng.choices(
                list(DIFF_PATHS), weights=[40, 10, 12, 12, 10, 6, 6, 4]
            )[0]
            name = rng.choice(self.active)
            rows = self.entries[name]
            if kind == "value" and rows:
                for index in rng.sample(range(len(rows)), min(len(rows), 2)):
                    section, key, value = rows[index]
                    other = [v for v in DIFF_VALUES[key] if v != value]
                    rows[index] = (section, key, rng.choice(other))
            elif kind == "comment":
                self.comments[name] += 1
            elif kind == "add":
                key = rng.choice(list(DIFF_VALUES))
                rows.insert(
                    rng.randrange(len(rows) + 1),
                    (rng.choice(DIFF_SECTIONS), key, rng.choice(DIFF_VALUES[key])),
                )
            elif kind == "remove" and rows:
                rows.pop(rng.randrange(len(rows)))
            elif kind == "reorder" and len({r[:2] for r in rows}) > 1:
                first, second = rng.sample(range(len(rows)), 2)
                while rows[first][:2] == rows[second][:2]:
                    first, second = rng.sample(range(len(rows)), 2)
                rows[first], rows[second] = rows[second], rows[first]
            elif kind == "delete" and len(self.active) > 1:
                self.active.remove(name)
            elif kind == "restore" and len(self.active) < len(DIFF_CORPUS):
                missing = [n for n in DIFF_CORPUS if n not in self.active]
                self.active.insert(
                    rng.randrange(len(self.active) + 1), rng.choice(missing)
                )
            elif kind == "shuffle" and len(self.active) > 1:
                # same files, new load order: duplicate keys change source
                first, second = rng.sample(range(len(self.active)), 2)
                active = self.active
                active[first], active[second] = active[second], active[first]
            else:
                continue
            if kind in ("delete", "restore", "shuffle"):
                self.set_active(self.active)
            else:
                self.set_rows(name, rows)
            return kind

    def set_rows(self, name, rows):
        self.entries[name] = list(rows)
        rewrite(self.paths[name], self.render(name))

    def set_active(self, names):
        self.active = list(names)
        self.full.sources[:] = self.sources()
        self.delta.sources[:] = self.sources()

    def step(self, label=""):
        """Scan both twins; assert parity with a full scan and a fresh store."""
        result = self.delta.run_once()
        full = self.full.run_once()
        assert result.report.fingerprint() == full.report.fingerprint(), label
        store, reference = self.delta._delta.store, self.fresh_store()
        assert store_rows(store) == store_rows(reference), label
        assert class_rows(store) == class_rows(reference), label
        assert query_rows(store) == query_rows(reference), label
        return result

    def fresh_store(self):
        store = ConfigStore()
        driver = get_driver("ini")
        for name in self.active:
            path = self.paths[name]
            store.add_all(driver.parse_bytes(path.read_bytes(), source=str(path)))
        return store


class TestPatchedStoreDifferential:
    @pytest.mark.parametrize("seed", [3, 17, 42, 101])
    def test_seeded_edits_match_fresh_builds(self, tmp_path, seed):
        corpus = DiffCorpus(tmp_path, seed)
        first = corpus.step()
        assert (first.delta["mode"], first.delta["store"]) == ("bootstrap", "rebuilt")
        taken = {"patched": 0, "rebuilt": 0}
        for __ in range(60):
            kept = corpus.delta._delta.store
            query_rows(kept)  # fill the trie memo before the edit
            kind = corpus.edit()
            result = corpus.step(kind)
            assert result.delta["mode"] == "delta"
            assert result.delta["store"] == DIFF_PATHS[kind], kind
            if DIFF_PATHS[kind] == "patched":
                assert corpus.delta._delta.store is kept
            taken[result.delta["store"]] += 1
        assert taken["patched"] > 0 and taken["rebuilt"] > 0
        stats = corpus.delta.stats()["delta"]
        assert stats["store_patched"] == taken["patched"]
        assert stats["store_rebuilt"] == taken["rebuilt"] + 1  # + bootstrap

    def test_duplicate_keys_patch_at_their_disambiguated_keys(self, tmp_path):
        corpus = DiffCorpus(tmp_path, 0)
        corpus.step()
        rows = corpus.entries["c.ini"]
        corpus.set_rows("c.ini", [("shared", "Port", "70000")] + rows[1:])
        result = corpus.step()
        assert result.delta["store"] == "patched"
        assert result.delta["change"].startswith("+0 -0 ~1 ")
        ports = corpus.delta._delta.store.query("shared.Port")
        assert [i.key.render() for i in ports] == [
            "shared.Port", "shared.Port[2]", "shared.Port[3]", "shared.Port[4]",
        ]
        assert [i.value for i in ports] == ["8080", "443", "70000", "443"]
        assert not result.passed


    def test_reordered_keys_reorder_the_report(self, tmp_path):
        # two violations of one statement swap places in load order while
        # every key keeps its value, so the plain store diff is empty
        corpus = DiffCorpus(tmp_path, 0)
        corpus.set_rows("d.ini", [("node", "HttpPort", "-1"), ("shared", "Port", "70000")])
        corpus.step()
        corpus.set_rows("d.ini", corpus.entries["d.ini"][::-1])
        result = corpus.step()
        assert result.delta["store"] == "rebuilt"
        assert result.delta["selected"] > 0

    def test_source_order_change_moves_duplicate_keys_across_sources(self, tmp_path):
        # shared.Port[3] keeps its value but now comes from a.ini, so the
        # unique() offender it reports must name the new source
        corpus = DiffCorpus(tmp_path, 0)
        for name, port in (("a.ini", "8080"), ("b.ini", "443"), ("c.ini", "8080")):
            corpus.set_rows(name, [("shared", "Port", port)])
        corpus.set_active(["a.ini", "b.ini", "c.ini"])
        first = corpus.step()
        assert not first.passed
        corpus.set_active(["c.ini", "b.ini", "a.ini"])
        result = corpus.step()
        assert result.delta["store"] == "rebuilt"
        offenders = [
            v.source for v in result.report.violations if v.constraint == "unique"
        ]
        assert offenders == [str(corpus.paths["a.ini"])]


class TestPatchedStoreAtomicity:
    def test_failed_evaluation_restores_the_kept_store(self, tmp_path, monkeypatch):
        corpus = DiffCorpus(tmp_path, 0)
        corpus.delta.run_once()
        scanner = corpus.delta._delta
        before = store_rows(scanner.store)
        query_rows(scanner.store)
        corpus.entries["a.ini"][0] = ("Cluster", "Timeout", "999")
        rewrite(corpus.paths["a.ini"], corpus.render("a.ini"))

        import repro.service as service_module

        def explode(state, shard):
            # the swap has been applied by now: the store holds the new value
            assert any(i.value == "999" for i in state.store.instances())
            raise RuntimeError("shard crashed")

        monkeypatch.setattr(service_module, "evaluate_shard", explode)
        with pytest.raises(RuntimeError, match="shard crashed"):
            corpus.delta.run_once()
        assert store_rows(scanner.store) == before
        assert scanner.stats()["store_patched"] == 0
        monkeypatch.undo()

        # the failed scan must not have consumed the change: the next
        # poll reports a.ini again and patches it in
        result = corpus.delta.scan()
        assert result is not None and result.changed_paths == [str(corpus.paths["a.ini"])]
        full = corpus.full.run_once()
        assert result.delta["store"] == "patched"
        assert result.report.fingerprint() == full.report.fingerprint()
        assert not result.passed
        assert store_rows(scanner.store) == store_rows(corpus.fresh_store())
        assert query_rows(scanner.store) == query_rows(corpus.fresh_store())


class TestStorePathReporting:
    def test_scan_result_stats_and_counter_record_the_path(self, tmp_path):
        obs = observability.enable(tracing=False)
        try:
            corpus = DiffCorpus(tmp_path, 0)
            assert corpus.delta.run_once().delta["store"] == "rebuilt"
            corpus.entries["b.ini"][0] = ("Cluster", "Timeout", "10")
            rewrite(corpus.paths["b.ini"], corpus.render("b.ini"))
            assert corpus.delta.scan().delta["store"] == "patched"
            corpus.entries["b.ini"].append(("node", "Replicas", "1"))
            rewrite(corpus.paths["b.ini"], corpus.render("b.ini"))
            assert corpus.delta.scan().delta["store"] == "rebuilt"
            stats = corpus.delta.stats()["delta"]
            assert (stats["store_patched"], stats["store_rebuilt"]) == (1, 2)
            counter = obs.metrics.counter("confvalley_delta_store_patched_total")
            assert counter.value() == 1
        finally:
            observability.disable()


# ---------------------------------------------------------------------------
# Documentation satellites: module doctests must actually run
# ---------------------------------------------------------------------------


class TestModuleDoctests:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.core.incremental", "repro.repository.versioned"],
    )
    def test_doctests_pass_and_exist(self, module_name):
        module = __import__(module_name, fromlist=["__name__"])
        results = doctest.testmod(module)
        assert results.failed == 0
        assert results.attempted > 0, f"{module_name} carries no doctests"

    @pytest.mark.parametrize(
        "module_name",
        ["repro.core.incremental", "repro.repository.versioned"],
    )
    def test_all_exports_resolve(self, module_name):
        module = __import__(module_name, fromlist=["__name__"])
        assert module.__all__, f"{module_name} must declare __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"
