"""Ground-truth verdict checks against the benchmark's own fault ledger."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.repository.keys import parse_instance_key

from .corpus import Fault


def class_of(key: str) -> tuple:
    """Configuration class of a rendered key — the matching rule of
    ``repro.synthetic.faults.score_report``."""
    try:
        return parse_instance_key(key).class_key
    except Exception:
        return ()


def verdict_problems(
    violation_keys: Iterable[str],
    active: Iterable[Fault],
    must_catch: Optional[Iterable[Fault]] = None,
) -> list[str]:
    """Why a verdict disagrees with the ledger; empty when it is correct.

    Every fault in ``must_catch`` (default: every active fault) must be
    reported on one of the keys it may blame, and no violation may fall
    outside the classes of the active faults' keys.  A delta verdict
    re-evaluates only the statements its change affects, so it passes just
    the changed fault as ``must_catch``.
    """
    keys = list(violation_keys)
    reported = set(keys)
    active = list(active)
    problems = [
        f"missed {fault.describe()}"
        for fault in (active if must_catch is None else must_catch)
        if not fault.blame & reported
    ]
    allowed = {class_of(key) for fault in active for key in fault.blame}
    unexpected = sorted({key for key in keys if class_of(key) not in allowed})
    problems.extend(f"unexpected violation at {key}" for key in unexpected)
    return problems
