"""The configuration store: the unified repository validated by CPL.

A :class:`ConfigStore` aggregates instances produced by format drivers,
guarantees key uniqueness (auto-disambiguating colliding keys by bumping the
leaf ordinal, since the paper assigns "a unique fully qualified key for each
configuration instance"), groups instances into configuration classes, and
answers discovery queries through a pluggable index (trie by default, naive
baseline for the §5.2 comparison).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Union

from ..errors import ConfValleyError
from .keys import InstanceKey, InstanceSegment, KeyPattern, parse_pattern
from .model import ConfigClass, ConfigInstance
from .naive import NaiveIndex
from .trie import TrieIndex

__all__ = ["ConfigStore"]


class ConfigStore:
    """Holds the unified representation of one or more configuration sources."""

    def __init__(self, index: Union[TrieIndex, NaiveIndex, None] = None) -> None:
        self._index = index if index is not None else TrieIndex()
        self._by_key: dict[InstanceKey, ConfigInstance] = {}
        self._classes: dict[tuple[str, ...], ConfigClass] = {}
        self._order: dict[InstanceKey, int] = {}
        self.query_count = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def add(self, instance: ConfigInstance) -> ConfigInstance:
        """Register one instance, disambiguating duplicate keys by ordinal."""
        key = instance.key
        if key in self._by_key:
            key = self._next_free_key(key)
            instance = ConfigInstance(key, instance.value, instance.source)
        self._by_key[key] = instance
        self._order[key] = len(self._order)
        self._index.add(instance)
        cls = self._classes.get(instance.class_key)
        if cls is None:
            cls = ConfigClass(instance.class_key)
            self._classes[instance.class_key] = cls
        cls.instances.append(instance)
        return instance

    def add_all(self, instances: Iterable[ConfigInstance]) -> list[ConfigInstance]:
        """Register instances in order; returns what :meth:`add` placed."""
        return [self.add(instance) for instance in instances]

    def replace(self, old: ConfigInstance, new: ConfigInstance) -> None:
        """Swap the stored instance ``old`` for ``new`` at the same key.

        Load order, class membership and every other instance stay put, so
        a store patched value by value equals one rebuilt from the patched
        sources.  A swap is its own inverse: ``replace(new, old)`` undoes it.
        """
        key = old.key
        if self._by_key.get(key) is not old:
            raise ConfValleyError(f"{key.render()} does not hold this instance")
        if new.key != key:
            raise ConfValleyError(
                f"cannot replace {key.render()} with {new.key.render()}"
            )
        self._by_key[key] = new
        self._index.replace(old, new)
        # class lists are in load order, so bisect on it: list.index would
        # compare instances field by field across the whole class
        members = self._classes[key.class_key].instances
        order = self._order
        position = bisect_left(members, order[key], key=lambda i: order[i.key])
        members[position] = new

    def _next_free_key(self, key: InstanceKey) -> InstanceKey:
        leaf = key.segments[-1]
        ordinal = leaf.ordinal + 1
        while True:
            candidate = InstanceKey(
                key.segments[:-1]
                + (InstanceSegment(leaf.name, leaf.qualifier, ordinal),)
            )
            if candidate not in self._by_key:
                return candidate
            ordinal += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, pattern: Union[str, KeyPattern]) -> list[ConfigInstance]:
        """Find every instance whose key matches ``pattern`` (suffix match).

        Results come back in load order so aggregate predicates (unique,
        order) blame instances deterministically.
        """
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        self.query_count += 1
        results = self._index.query(pattern)
        return sorted(results, key=lambda i: self._order[i.key])

    def get(self, key: Union[str, InstanceKey]) -> Optional[ConfigInstance]:
        if isinstance(key, str):
            matches = self.query(key)
            if len(matches) > 1:
                raise ConfValleyError(f"{key!r} is ambiguous ({len(matches)} matches)")
            return matches[0] if matches else None
        return self._by_key.get(key)

    def classes(self) -> Iterator[ConfigClass]:
        yield from self._classes.values()

    def get_class(self, class_key: tuple[str, ...]) -> Optional[ConfigClass]:
        return self._classes.get(class_key)

    def instances(self) -> Iterator[ConfigInstance]:
        yield from self._by_key.values()

    @property
    def instance_count(self) -> int:
        return len(self._by_key)

    @property
    def class_count(self) -> int:
        return len(self._classes)

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, pattern: Union[str, KeyPattern]) -> bool:
        return bool(self.query(pattern))

    # ------------------------------------------------------------------
    # Cross-source analysis
    # ------------------------------------------------------------------

    def cross_source_conflicts(self) -> list[tuple[str, list[ConfigInstance]]]:
        """Instances of one logical key defined by *different sources* with
        *different values*.

        The paper motivates cross-validating configuration sources (§2.1:
        "account configurations need to be consistent across controller and
        authentication components").  Duplicate keys from different sources
        are disambiguated by leaf ordinal at load time; this groups them
        back (ordinal stripped) and reports groups spanning several sources
        whose values disagree.  Returns ``(logical key, instances)`` pairs.
        """
        groups: dict[str, list[ConfigInstance]] = {}
        for instance in self._by_key.values():
            leaf = instance.key.segments[-1]
            logical = InstanceKey(
                instance.key.segments[:-1]
                + (InstanceSegment(leaf.name, leaf.qualifier, 1),)
            ).render()
            groups.setdefault(logical, []).append(instance)
        conflicts = []
        for logical, members in groups.items():
            if len(members) < 2:
                continue
            sources = {m.source for m in members}
            values = {m.value for m in members}
            if len(sources) > 1 and len(values) > 1:
                conflicts.append(
                    (logical, sorted(members, key=lambda m: self._order[m.key]))
                )
        return sorted(conflicts)
