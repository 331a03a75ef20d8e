"""Versioned configuration repository: branches, snapshots, change sets.

The paper's evaluation runs specifications on the "latest configuration
data branches" (Trunk, Branch 1, Branch 2 — Tables 6/7) and motivates
validation "before checking-in to the repository" (§3.2).  This module
provides the minimal repository substrate those workflows need:

* :class:`Snapshot` — an immutable, content-addressed set of configuration
  instances with a commit message;
* :class:`ConfigRepository` — named branches of snapshots with ``commit``,
  ``head``, branching, and ``diff`` producing a :class:`ChangeSet`;
* :class:`ChangeSet` — added / removed / modified instances between two
  snapshots, the input to incremental validation
  (:mod:`repro.core.incremental`).

Stores built from snapshots are cached per snapshot id, so validating the
same head repeatedly (the continuous-service case) re-uses the parsed
unified representation.

The check-in workflow end to end — commit a baseline, commit the change,
diff the two heads, hand the change set to incremental validation::

    >>> from repro.repository.keys import InstanceKey
    >>> from repro.repository.model import ConfigInstance
    >>> def inst(key, value):
    ...     return ConfigInstance(InstanceKey.build(*key.split(".")), value)
    >>> repo = ConfigRepository()
    >>> base = repo.commit([inst("fabric.Timeout", "30")], message="baseline")
    >>> head = repo.commit([inst("fabric.Timeout", "45")], message="bump")
    >>> change = repo.diff(base, head)
    >>> change.summary()
    '+0 -0 ~1 instance(s), 1 class(es) touched'
    >>> [key.render() for key in change.touched_keys()]
    ['fabric.Timeout']

:func:`diff_stores` is the repository-free variant the delta path uses
(:meth:`repro.core.incremental.KeptStore.rebuilt_change` diffs the kept
store against the one it rebuilt, no commits involved):

    >>> from repro.repository.store import ConfigStore
    >>> old, new = ConfigStore(), ConfigStore()
    >>> placed = old.add_all([inst("fabric.Timeout", "30")])
    >>> placed = new.add_all([inst("fabric.Timeout", "30"), inst("fabric.Mode", "fast")])
    >>> diff_stores(old, new).summary()
    '+1 -0 ~0 instance(s), 1 class(es) touched'
    >>> diff_stores(None, old).summary()     # no baseline: everything added
    '+1 -0 ~0 instance(s), 1 class(es) touched'
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import ConfValleyError
from .keys import InstanceKey
from .model import ConfigInstance
from .store import ConfigStore

__all__ = ["Snapshot", "ChangeSet", "ConfigRepository", "diff_stores"]


@dataclass(frozen=True)
class Snapshot:
    """One immutable configuration state."""

    id: str
    branch: str
    sequence: int           # 1-based position on its branch
    message: str
    instances: tuple[ConfigInstance, ...]
    parent_id: Optional[str] = None

    def __len__(self) -> int:
        return len(self.instances)


@dataclass
class ChangeSet:
    """Difference between two snapshots (old → new)."""

    added: list[ConfigInstance] = field(default_factory=list)
    removed: list[ConfigInstance] = field(default_factory=list)
    modified: list[tuple[ConfigInstance, ConfigInstance]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.modified)

    def touched_keys(self) -> list[InstanceKey]:
        """Every instance key involved in this change."""
        keys = [instance.key for instance in self.added]
        keys += [instance.key for instance in self.removed]
        keys += [new.key for __, new in self.modified]
        return keys

    def touched_classes(self) -> set[tuple[str, ...]]:
        return {key.class_key for key in self.touched_keys()}

    def summary(self) -> str:
        return (
            f"+{len(self.added)} -{len(self.removed)} "
            f"~{len(self.modified)} instance(s), "
            f"{len(self.touched_classes())} class(es) touched"
        )


def _diff_instances(
    old: Iterable[ConfigInstance], new: Iterable[ConfigInstance]
) -> ChangeSet:
    """Change set taking one instance collection to another, by key."""
    change = ChangeSet()
    old_by_key = {i.key: i for i in old}
    new_by_key = {i.key: i for i in new}
    for key, instance in new_by_key.items():
        previous = old_by_key.get(key)
        if previous is None:
            change.added.append(instance)
        elif previous.value != instance.value:
            change.modified.append((previous, instance))
    for key, instance in old_by_key.items():
        if key not in new_by_key:
            change.removed.append(instance)
    return change


def diff_stores(old: Optional[ConfigStore], new: ConfigStore) -> ChangeSet:
    """Change set between two stores (no repository required)."""
    return _diff_instances(old.instances() if old else (), new.instances())


def _content_id(branch: str, sequence: int, instances: Iterable[ConfigInstance]) -> str:
    digest = hashlib.sha256()
    digest.update(f"{branch}@{sequence}".encode("utf-8"))
    for instance in sorted(instances, key=lambda i: i.key.render()):
        digest.update(instance.key.render().encode("utf-8"))
        digest.update(b"\0")
        digest.update(instance.value.encode("utf-8"))
        digest.update(b"\1")
    return digest.hexdigest()[:16]


class ConfigRepository:
    """Branches of configuration snapshots with diffing and store caching."""

    DEFAULT_BRANCH = "trunk"

    def __init__(self) -> None:
        self._branches: dict[str, list[Snapshot]] = {self.DEFAULT_BRANCH: []}
        self._by_id: dict[str, Snapshot] = {}
        self._store_cache: dict[str, ConfigStore] = {}

    # ------------------------------------------------------------------
    # Branch management
    # ------------------------------------------------------------------

    def branches(self) -> list[str]:
        return sorted(self._branches)

    def create_branch(self, name: str, from_branch: Optional[str] = None) -> None:
        """Create a branch, optionally seeded with another branch's head."""
        if name in self._branches:
            raise ConfValleyError(f"branch {name!r} already exists")
        self._branches[name] = []
        if from_branch is not None:
            head = self.head(from_branch)
            if head is not None:
                self.commit(
                    head.instances,
                    message=f"branched from {from_branch}@{head.sequence}",
                    branch=name,
                )

    def head(self, branch: str = DEFAULT_BRANCH) -> Optional[Snapshot]:
        history = self._history(branch)
        return history[-1] if history else None

    def log(self, branch: str = DEFAULT_BRANCH) -> list[Snapshot]:
        return list(self._history(branch))

    def get(self, snapshot_id: str) -> Snapshot:
        try:
            return self._by_id[snapshot_id]
        except KeyError:
            raise ConfValleyError(f"unknown snapshot {snapshot_id!r}") from None

    def _history(self, branch: str) -> list[Snapshot]:
        try:
            return self._branches[branch]
        except KeyError:
            raise ConfValleyError(
                f"unknown branch {branch!r}; known: {self.branches()}"
            ) from None

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------

    def commit(
        self,
        instances: Iterable[ConfigInstance],
        message: str = "",
        branch: str = DEFAULT_BRANCH,
    ) -> Snapshot:
        history = self._history(branch)
        frozen = tuple(instances)
        parent = history[-1] if history else None
        snapshot = Snapshot(
            id=_content_id(branch, len(history) + 1, frozen),
            branch=branch,
            sequence=len(history) + 1,
            message=message,
            instances=frozen,
            parent_id=parent.id if parent else None,
        )
        history.append(snapshot)
        self._by_id[snapshot.id] = snapshot
        return snapshot

    # ------------------------------------------------------------------
    # Stores and diffs
    # ------------------------------------------------------------------

    def store_for(self, snapshot: Snapshot) -> ConfigStore:
        """Unified store for a snapshot (cached per snapshot id)."""
        cached = self._store_cache.get(snapshot.id)
        if cached is None:
            cached = ConfigStore()
            cached.add_all(snapshot.instances)
            self._store_cache[snapshot.id] = cached
        return cached

    def diff(self, old: Optional[Snapshot], new: Snapshot) -> ChangeSet:
        """Change set taking ``old`` to ``new`` (old=None → everything added)."""
        return _diff_instances(old.instances if old else (), new.instances)

    def diff_heads(self, old_branch: str, new_branch: str) -> ChangeSet:
        old = self.head(old_branch)
        new = self.head(new_branch)
        if new is None:
            raise ConfValleyError(f"branch {new_branch!r} has no commits")
        return self.diff(old, new)
