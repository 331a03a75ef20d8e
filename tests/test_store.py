"""ConfigStore: uniqueness, class grouping, queries (paper §4.2.2)."""

from __future__ import annotations

import pytest

from repro.errors import ConfValleyError
from repro.repository import ConfigStore, InstanceKey, NaiveIndex, TrieIndex
from repro.repository.model import ConfigInstance


def inst(key_text, value):
    from repro.repository.keys import parse_instance_key

    return ConfigInstance(parse_instance_key(key_text), value, "test")


class TestAdd:
    def test_simple_add_and_get(self):
        store = ConfigStore()
        store.add(inst("Fabric.RecoveryAttempts", "3"))
        found = store.get("Fabric.RecoveryAttempts")
        assert found is not None
        assert found.value == "3"

    def test_duplicate_keys_get_fresh_ordinals(self):
        store = ConfigStore()
        store.add(inst("ProxyIPs", "10.0.0.1"))
        store.add(inst("ProxyIPs", "10.0.0.2"))
        store.add(inst("ProxyIPs", "10.0.0.3"))
        values = {i.value for i in store.query("ProxyIPs")}
        assert values == {"10.0.0.1", "10.0.0.2", "10.0.0.3"}
        assert store.instance_count == 3

    def test_duplicates_stay_in_one_class(self):
        store = ConfigStore()
        store.add(inst("ProxyIPs", "a"))
        store.add(inst("ProxyIPs", "b"))
        assert store.class_count == 1
        cls = store.get_class(("ProxyIPs",))
        assert len(cls) == 2

    def test_class_grouping_across_scopes(self, listing1_store):
        cls = listing1_store.get_class(("CloudGroup", "MonitorNodeHealth"))
        assert len(cls) == 2


class TestQuery:
    def test_query_string_pattern(self, cluster_store):
        assert len(cluster_store.query("StartIP")) == 2

    def test_query_named_scope(self, cluster_store):
        results = cluster_store.query("Cluster::C1.ProxyIP")
        assert len(results) == 1
        assert results[0].value == "10.0.0.50"

    def test_query_counts_queries(self, cluster_store):
        before = cluster_store.query_count
        cluster_store.query("StartIP")
        cluster_store.query("EndIP")
        assert cluster_store.query_count == before + 2

    def test_get_ambiguous_raises(self, cluster_store):
        with pytest.raises(ConfValleyError):
            cluster_store.get("StartIP")

    def test_get_missing_returns_none(self, cluster_store):
        assert cluster_store.get("NoSuchKey") is None

    def test_contains(self, cluster_store):
        assert "StartIP" in cluster_store
        assert "Nope" not in cluster_store

    def test_wildcard_query(self, cluster_store):
        assert len(cluster_store.query("*IP")) == 6

    def test_instances_iteration(self, cluster_store):
        assert len(list(cluster_store.instances())) == 6
        assert len(cluster_store) == 6


@pytest.fixture(params=[TrieIndex, NaiveIndex], ids=["trie", "naive"])
def replace_store(request):
    store = ConfigStore(index=request.param())
    for text, value in (
        ("Cluster::C1.Timeout", "30"),
        ("ProxyIPs", "10.0.0.1"),
        ("Cluster::C2.Timeout", "40"),
        ("ProxyIPs", "10.0.0.2"),
        ("ProxyIPs", "10.0.0.3"),
    ):
        store.add(inst(text, value))
    return store


def stored(store, key_text):
    from repro.repository.keys import parse_instance_key

    return store.get(parse_instance_key(key_text))


class TestReplace:
    def test_query_memo_is_invalidated(self, replace_store):
        assert [i.value for i in replace_store.query("Timeout")] == ["30", "40"]
        old = stored(replace_store, "Cluster::C2.Timeout")
        replace_store.replace(old, ConfigInstance(old.key, "45", "test"))
        assert [i.value for i in replace_store.query("Timeout")] == ["30", "45"]
        assert [i.value for i in replace_store.query("*.Time*")] == ["30", "45"]

    def test_class_list_position_and_load_order_are_kept(self, replace_store):
        old = stored(replace_store, "ProxyIPs[2]")
        new = ConfigInstance(old.key, "10.0.0.9", "test")
        replace_store.replace(old, new)
        members = replace_store.get_class(("ProxyIPs",)).instances
        assert [i.value for i in members] == ["10.0.0.1", "10.0.0.9", "10.0.0.3"]
        assert members[1] is new
        assert [i.value for i in replace_store.instances()] == [
            "30", "10.0.0.1", "40", "10.0.0.9", "10.0.0.3",
        ]
        assert [i.value for i in replace_store.query("ProxyIPs")] == [
            "10.0.0.1", "10.0.0.9", "10.0.0.3",
        ]
        assert stored(replace_store, "ProxyIPs[2]") is new

    def test_swap_is_its_own_inverse(self, replace_store):
        before = [(i.key, i.value) for i in replace_store.instances()]
        old = stored(replace_store, "Cluster::C1.Timeout")
        new = ConfigInstance(old.key, "1", "test")
        replace_store.replace(old, new)
        replace_store.replace(new, old)
        assert [(i.key, i.value) for i in replace_store.instances()] == before
        assert replace_store.query("Cluster::C1.Timeout") == [old]

    def test_key_mismatch_raises(self, replace_store):
        old = stored(replace_store, "Cluster::C1.Timeout")
        with pytest.raises(ConfValleyError):
            replace_store.replace(old, inst("Cluster::C2.Timeout", "1"))
        assert stored(replace_store, "Cluster::C1.Timeout") is old

    def test_non_stored_old_raises(self, replace_store):
        old = stored(replace_store, "Cluster::C1.Timeout")
        lookalike = ConfigInstance(old.key, old.value, old.source)
        with pytest.raises(ConfValleyError):
            replace_store.replace(lookalike, ConfigInstance(old.key, "1", "test"))
        with pytest.raises(ConfValleyError):
            replace_store.replace(inst("Missing", "1"), inst("Missing", "2"))
        assert [i.value for i in replace_store.query("Timeout")] == ["30", "40"]


class TestListing1:
    def test_instance_counts(self, listing1_store):
        # raw (definition-site) parse: 2 group-level MonitorNodeHealth,
        # 1 tenant override, 2 group ControllerReplicas, 1 tenant override
        assert listing1_store.instance_count == 6

    def test_expanded_instance_counts(self, listing1_expanded_store):
        # paper: MonitorNodeHealth has instances in each of the 4 Tenant scopes
        results = listing1_expanded_store.query("Tenant.MonitorNodeHealth")
        assert len(results) == 4
        overridden = [i for i in results if i.value == "False"]
        assert len(overridden) == 1

    def test_expanded_override_scope(self, listing1_expanded_store):
        results = listing1_expanded_store.query(
            "Cloud::East1Storage1.Tenant::A.MonitorNodeHealth"
        )
        assert [i.value for i in results] == ["False"]
