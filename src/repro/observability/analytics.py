"""Per-spec evaluation analytics: hot specs, dead specs, scan drift.

The paper's operators run ConfValley continuously over a changing
repository (§6), so the interesting questions are longitudinal: *which
specifications are slow, which stopped matching anything, what changed
between this scan and the last one*.  This module turns the per-statement
attribution the evaluator records (``ValidationReport.spec_profile``: eval
count, matched-instance count, violation count, cumulative latency via the
injectable clock) into the three operator views:

* **hot-spec table** — top-N statements by cumulative wall clock across
  every scan so far, the live version of the paper's Table-8 skew
  observation ("some specifications are more complex than others");
* **dead-spec detection** — statements whose notations matched zero
  instances this scan; they validate vacuously, which usually means a
  stale or misspelled scope path.  Each entry is cross-checked against
  :func:`repro.core.coverage.analyze_coverage` (pattern-level matching)
  so a transiently-empty domain is distinguishable from a spec no
  instance can ever satisfy;
* **drift report** — failing statements classified between consecutive
  scans as *new* (failing now, passing before), *persisting* (failing in
  both), or *fixed* (passing now, failing before) — the page-the-operator
  summary of what a repository change actually did.

Determinism: every ranking sorts on the measured quantity first and the
``(line, spec text)`` key second, and the per-shard merge in
:mod:`repro.parallel.engine` folds profiles in original statement order —
so under a :class:`~repro.runtime.clock.FakeClock` the rendered hot-spec
table is byte-identical across the serial, thread, and fork executors
(asserted in ``tests/test_operator_endpoint.py``).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

__all__ = [
    "SpecAnalytics",
    "empty_profile_row",
    "merge_spec_profiles",
    "profile_rows",
    "format_hot_specs",
    "format_drift",
]


def empty_profile_row() -> dict:
    """One per-spec attribution record, all counters zero."""
    return {"evals": 0, "instances": 0, "violations": 0, "seconds": 0.0}


def merge_spec_profiles(target: dict, source: dict) -> None:
    """Fold one ``spec_profile`` dict into another (commutative sums)."""
    for key, row in source.items():
        into = target.get(key)
        if into is None:
            target[key] = dict(row)
            continue
        into["evals"] += row["evals"]
        into["instances"] += row["instances"]
        into["violations"] += row["violations"]
        into["seconds"] += row["seconds"]


def profile_rows(profile: dict) -> list[dict]:
    """A ``spec_profile`` dict as JSON-safe rows, ordered by (line, text)."""
    return [
        {
            "line": line,
            "spec": text,
            "evals": row["evals"],
            "instances": row["instances"],
            "violations": row["violations"],
            "seconds": round(row["seconds"], 6),
        }
        for (line, text), row in sorted(profile.items())
    ]


class SpecAnalytics:
    """Scan-over-scan aggregation of per-spec attribution.

    Owned by the :class:`~repro.service.ValidationService`; fed one
    :class:`~repro.core.report.ValidationReport` per scan that revalidated.
    All reads return plain JSON-safe structures, and a lock makes the
    record/read pair safe against the operator endpoint reading ``stats()``
    while a scan records — readers never block a scan for longer than a
    dict copy.
    """

    def __init__(self, hot_limit: int = 10):
        self.hot_limit = hot_limit
        self.scans = 0
        self._lock = threading.Lock()
        #: (line, text) → cumulative counters across every recorded scan
        self._totals: dict[tuple, dict] = {}
        #: the most recent scan's own profile (dead-spec + drift input)
        self._last: dict[tuple, dict] = {}
        #: failing spec keys of the previous / current scan, with counts
        self._previous_failing: dict[tuple, int] = {}
        self._current_failing: dict[tuple, int] = {}
        #: spec texts coverage analysis called dead (pattern-level check)
        self._coverage_dead: frozenset = frozenset()

    # -- recording -----------------------------------------------------

    def record_scan(
        self, report, coverage_dead: Optional[Iterable[str]] = None
    ) -> None:
        """Fold one scan's ``report.spec_profile`` into the aggregates."""
        profile = getattr(report, "spec_profile", None) or {}
        failing = {
            key: row["violations"]
            for key, row in profile.items()
            if row["violations"]
        }
        with self._lock:
            self.scans += 1
            merge_spec_profiles(self._totals, profile)
            self._last = {key: dict(row) for key, row in profile.items()}
            self._previous_failing = self._current_failing
            self._current_failing = failing
            if coverage_dead is not None:
                self._coverage_dead = frozenset(coverage_dead)

    # -- reading -------------------------------------------------------

    def hot_specs(self, count: Optional[int] = None) -> list[dict]:
        """Top-N statements by cumulative latency (ties by line, text).

        Rows rank on the same 6-place seconds they display: sums of
        float durations taken at different clock readings differ in the
        last bits, so ranking on the raw sums would order displayed ties
        differently from host to host.
        """
        limit = count if count is not None else self.hot_limit
        with self._lock:
            ranked = sorted(
                self._totals.items(),
                key=lambda kv: (-round(kv[1]["seconds"], 6), kv[0]),
            )
        return [
            {
                "line": line,
                "spec": text,
                "evals": row["evals"],
                "instances": row["instances"],
                "violations": row["violations"],
                "seconds": round(row["seconds"], 6),
            }
            for (line, text), row in ranked[:limit]
        ]

    def dead_specs(self) -> list[dict]:
        """Statements whose notations matched zero instances this scan.

        ``coverage_confirmed`` is True when pattern-level coverage analysis
        agrees no instance can match — i.e. the domain is not just empty
        right now, the notation is structurally wrong for this store.
        """
        with self._lock:
            dead = [
                (key, row)
                for key, row in sorted(self._last.items())
                if row["instances"] == 0 and row["evals"] > 0
            ]
            confirmed = self._coverage_dead
        return [
            {
                "line": line,
                "spec": text,
                "evals": row["evals"],
                "coverage_confirmed": text in confirmed,
            }
            for (line, text), row in dead
        ]

    def drift(self) -> dict:
        """Failure drift between the two most recent scans."""

        def rows(keys: Iterable[tuple], counts: dict) -> list[dict]:
            return [
                {"line": line, "spec": text, "violations": counts.get((line, text), 0)}
                for line, text in sorted(keys)
            ]

        with self._lock:
            current = dict(self._current_failing)
            previous = dict(self._previous_failing)
            scans = self.scans
        new = set(current) - set(previous)
        persisting = set(current) & set(previous)
        fixed = set(previous) - set(current)
        return {
            "scan": scans,
            "comparable": scans >= 2,
            "new": rows(new, current),
            "persisting": rows(persisting, current),
            "fixed": rows(fixed, previous),
        }

    def to_dict(self) -> dict:
        """The JSON-safe ``stats()`` payload block."""
        return {
            "scans": self.scans,
            "hot_specs": self.hot_specs(),
            "dead_specs": self.dead_specs(),
        }


# ---------------------------------------------------------------------------
# Rendering (``confvalley top``, ``confvalley stats``)
# ---------------------------------------------------------------------------


def _clip(text: str, width: int = 56) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 1] + "…"


def format_hot_specs(rows: list[dict], count: Optional[int] = None) -> str:
    """The hot-spec table as fixed-width text (deterministic)."""
    shown = rows if count is None else rows[:count]
    if not shown:
        return "no per-spec analytics recorded yet"
    lines = [
        f"{'#':>3}  {'seconds':>10}  {'evals':>7}  {'instances':>9}  "
        f"{'violations':>10}  spec"
    ]
    for rank, row in enumerate(shown, start=1):
        lines.append(
            f"{rank:>3}  {row['seconds']:>10.6f}  {row['evals']:>7}  "
            f"{row['instances']:>9}  {row['violations']:>10}  "
            f"L{row['line']}: {_clip(row['spec'])}"
        )
    return "\n".join(lines)


def format_drift(drift: dict) -> str:
    """One drift report as text (``confvalley stats`` text format)."""
    if not drift.get("comparable"):
        return "drift: needs two scans to compare"
    parts = []
    for kind in ("new", "persisting", "fixed"):
        rows = drift.get(kind) or []
        if rows:
            parts.append(f"{kind} ({len(rows)}):")
            parts.extend(
                f"  L{row['line']}: {_clip(row['spec'])} "
                f"[{row['violations']} violation(s)]"
                for row in rows
            )
    if not parts:
        return "drift: no failing specs in the last two scans"
    return "\n".join(["drift vs previous scan:"] + parts)
