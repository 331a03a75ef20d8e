"""Incremental validation: change-driven spec selection + soundness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigRepository, IncrementalValidator, ValidationSession
from repro.repository.keys import parse_instance_key
from repro.repository.model import ConfigInstance


def inst(key_text, value):
    return ConfigInstance(parse_instance_key(key_text), value, "test")


SPECS = """
let SmallInt := int & [1, 60]
$Cluster.Timeout -> @SmallInt
$Cluster.Mode -> {'fast', 'safe'}
$Node.IP -> ip & unique
$*Port* -> port
compartment Cluster {
  $Floor <= $Ceiling
}
"""

BASE = [
    inst("Cluster::C1.Timeout", "30"),
    inst("Cluster::C1.Mode", "fast"),
    inst("Cluster::C1.Floor", "1"),
    inst("Cluster::C1.Ceiling", "9"),
    inst("Node::N1.IP", "10.0.0.1"),
    inst("Node::N2.IP", "10.0.0.2"),
    inst("Fabric.AgentPort", "8080"),
]


def commit_pair(new_instances):
    repo = ConfigRepository()
    old = repo.commit(BASE)
    new = repo.commit(new_instances)
    return repo, old, new


class TestSelection:
    def test_only_touched_specs_selected(self):
        validator = IncrementalValidator(SPECS)
        repo, old, new = commit_pair(
            [inst("Cluster::C1.Timeout", "45")] + BASE[1:]
        )
        change = repo.diff(old, new)
        selected = validator.affected_statements(change)
        # the let (always) + the Timeout spec
        assert len(selected) == 2

    def test_wildcard_specs_selected_when_matching(self):
        validator = IncrementalValidator(SPECS)
        repo, old, new = commit_pair(
            BASE[:-1] + [inst("Fabric.AgentPort", "9090")]
        )
        change = repo.diff(old, new)
        report = validator.validate_change(repo.store_for(new), change)
        assert report.passed
        assert validator.last_selected == 2  # let + $*Port*

    def test_compartment_spec_selected_by_member_change(self):
        validator = IncrementalValidator(SPECS)
        changed = [
            i if i.key.render() != "Cluster::C1.Ceiling" else inst("Cluster::C1.Ceiling", "0")
            for i in BASE
        ]
        repo, old, new = commit_pair(changed)
        change = repo.diff(old, new)
        report = validator.validate_change(repo.store_for(new), change)
        assert len(report.violations) == 1  # Floor 1 > Ceiling 0

    def test_empty_change_selects_nothing(self):
        validator = IncrementalValidator(SPECS)
        repo, old, new = commit_pair(list(BASE))
        change = repo.diff(old, new)
        report = validator.validate_change(repo.store_for(new), change)
        assert report.specs_evaluated == 0
        assert validator.last_skipped == validator.statement_count - 1  # let kept

    def test_lets_always_retained(self):
        validator = IncrementalValidator(SPECS)
        repo, old, new = commit_pair(
            [inst("Cluster::C1.Timeout", "999")] + BASE[1:]
        )
        change = repo.diff(old, new)
        report = validator.validate_change(repo.store_for(new), change)
        assert len(report.violations) == 1  # @SmallInt resolved fine

    def test_aggregate_rerun_over_full_domain(self):
        validator = IncrementalValidator(SPECS)
        # change one Node IP to collide with the *unchanged* other one
        changed = [
            i if i.key.render() != "Node::N2.IP" else inst("Node::N2.IP", "10.0.0.1")
            for i in BASE
        ]
        repo, old, new = commit_pair(changed)
        change = repo.diff(old, new)
        report = validator.validate_change(repo.store_for(new), change)
        assert len(report.violations) == 1
        assert report.violations[0].constraint == "unique"

    def test_load_commands_rejected(self):
        with pytest.raises(ValueError):
            IncrementalValidator("load 'ini' 'x.ini'\n$K -> int")

    def test_validate_full_baseline(self):
        validator = IncrementalValidator(SPECS)
        repo = ConfigRepository()
        snapshot = repo.commit(BASE)
        assert validator.validate_full(repo.store_for(snapshot)).passed


# ---------------------------------------------------------------------------
# Soundness property: incremental == full, restricted to affected statements
# ---------------------------------------------------------------------------

_MUTATIONS = {
    "Cluster::C1.Timeout": ["45", "999", "x"],
    "Cluster::C1.Mode": ["safe", "fsat"],
    "Cluster::C1.Ceiling": ["0", "100"],
    "Node::N2.IP": ["10.0.0.1", "oops", "10.0.0.9"],
    "Fabric.AgentPort": ["9090", "70000", "abc"],
}


@given(
    st.dictionaries(
        keys=st.sampled_from(sorted(_MUTATIONS)),
        values=st.integers(min_value=0, max_value=2),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_incremental_matches_full(mutations):
    new_instances = []
    for instance in BASE:
        key = instance.key.render()
        if key in mutations:
            options = _MUTATIONS[key]
            value = options[mutations[key] % len(options)]
            new_instances.append(inst(key, value))
        else:
            new_instances.append(instance)
    repo, old, new = commit_pair(new_instances)
    change = repo.diff(old, new)

    validator = IncrementalValidator(SPECS)
    incremental = validator.validate_change(repo.store_for(new), change)
    full = ValidationSession(store=repo.store_for(new)).validate(SPECS)

    def signature(report):
        return sorted({(v.key, v.value, v.constraint) for v in report.violations})

    # every incremental violation appears in the full run …
    assert set(signature(incremental)) <= set(signature(full))
    # … and every full-run violation on a *touched class* is found
    touched = change.touched_classes()
    missed = [
        entry
        for entry in signature(full)
        if entry not in set(signature(incremental))
        and parse_instance_key(entry[0]).class_key in touched
    ]
    assert not missed


class TestCompileForSplice:
    """Programs whose inputs reach beyond the spec text are never spliced."""

    @pytest.mark.parametrize(
        "program, spliceable",
        [
            ("$A.X -> int", True),
            ("include 'extra.cpl'\n$A.X -> int", False),
            ("load 'ini' 'app.ini'\n$A.X -> int", False),
        ],
    )
    def test_commands_disqualify_the_program(self, tmp_path, program, spliceable):
        from repro.core.incremental import compile_for_splice
        from repro.parallel.cache import SpecCache

        (tmp_path / "extra.cpl").write_text("$A.Y -> int\n")
        (tmp_path / "app.ini").write_text("[A]\nX = 1\n")
        cache = SpecCache()
        for __ in range(2):  # a cache hit must agree with the miss
            session = ValidationSession(base_dir=str(tmp_path), spec_cache=cache)
            statements = compile_for_splice(session, program)
            assert (statements is not None) == spliceable
