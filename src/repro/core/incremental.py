"""Incremental validation: re-run only the specifications a change touches.

The paper's check-in scenario (§3.2) validates every configuration update
before it lands.  Re-running the whole corpus per update is wasteful when
an update touches a handful of parameters; this module computes, for each
specification statement, the set of configuration key patterns it depends
on, and selects the statements whose patterns can reach any key in a
:class:`~repro.repository.versioned.ChangeSet`.

Three layers:

* :class:`DependencyIndex` — a reusable statement → key-pattern index over
  an already-parsed (or compiled) statement sequence.  Lookup is
  trie-backed: patterns are filed under their trailing run of concrete
  segment names, so mapping a changed key to candidate statements walks
  the key leaf-first instead of scanning every pattern of every statement.
  The continuous service attaches one index per compiled-spec cache entry
  (:meth:`repro.parallel.cache.SpecCache.attachment`), so it is built once
  and invalidated together with the compiled statements.
* :class:`KeptStore` and :class:`SpliceLane` — the patch-and-splice path
  every long-lived caller shares (the service's
  :class:`~repro.service.DeltaScanner` and the workflow engine's
  ``validate`` and ``shadow`` steps).  A kept store carries a store across
  scans and turns the next scan's source parses into a
  :class:`~repro.repository.versioned.ChangeSet`, patching values in place
  when it can; a lane keeps one spec's per-unit reports over such a store,
  re-evaluates the units a change can affect and splices the rest.
* :class:`IncrementalValidator` — the pre-check-in gate: owns the parsed
  corpus, delegates selection to a :class:`DependencyIndex`, and validates
  the selected statements against the new store.

Selection is *conservative* — the index may select a statement the change
cannot actually affect, but never the reverse:

* every notation inside a statement counts — main domains, operand domains
  in predicates, ``foreach`` targets, and ``if``-condition domains;
* substitutable variables (``$var``) are widened to ``*`` wildcards, and a
  single-segment ``var`` pattern is added for each free variable, because
  the evaluator draws its binding pool from the instances the bare
  variable name reaches;
* statements referencing ``let`` macros inherit every notation of the
  macro bodies they can expand to (transitively, cycle-guarded);
* ``compartment`` statements additionally re-run whenever an added or
  removed key carries a scope segment matching the compartment name —
  value edits cannot create or destroy compartment instances, but
  additions and removals can;
* statements touching ambient runtime state (``exists`` / ``reachable``
  primitives, ``env.*`` pseudo-domains) are *volatile* and always re-run;
* ``let`` macro definitions are always retained (they carry no domain);
* aggregate predicates need no special casing — a changed instance matches
  its own class notation, and aggregates always re-run over the full
  current domain when their statement is selected.

Soundness property (tested in ``tests/test_incremental.py`` and the
delta/full parity suite): for any change set, a statement that is *not*
selected cannot change outcome, because none of the instances its
notations, binding pools, or compartment discovery can reach were touched.

>>> from repro.core.incremental import IncrementalValidator
>>> from repro.repository.versioned import ChangeSet
>>> from repro.repository.model import ConfigInstance
>>> from repro.repository.keys import parse_instance_key
>>> validator = IncrementalValidator(
...     "$Cluster.Timeout -> int\\n$Cluster.Mode -> {'fast', 'safe'}"
... )
>>> edit = ConfigInstance(parse_instance_key("Cluster::C1.Timeout"), "45", "doc")
>>> change = ChangeSet(modified=[(edit, edit)])
>>> [s.text for s in validator.affected_statements(change)]
['$Cluster.Timeout -> int']
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from ..cpl import ast, parse
from ..observability import get_tracer
from ..parallel.engine import ShardResult, WorkerState, _absorb, evaluate_shard
from ..parallel.shards import Shard, is_parallel_safe, select_units
from ..repository.keys import (
    InstanceKey,
    KeyPattern,
    PatternSegment,
    _name_matches,
    parse_pattern,
)
from ..repository.model import ConfigInstance
from ..repository.store import ConfigStore
from ..repository.versioned import ChangeSet, diff_stores
from ..runtime import RuntimeProvider
from ..runtime import clock as _clock
from .evaluator import _collect_notations
from .policy import ValidationPolicy
from .report import ValidationReport
from .session import ValidationSession

__all__ = [
    "DependencyIndex",
    "KeptStore",
    "StoreUpdate",
    "SpliceLane",
    "LaneRun",
    "compile_for_splice",
    "IncrementalValidator",
]

#: Predicate primitives whose verdict depends on ambient runtime state
#: (filesystem, network) rather than the configuration store alone.
_VOLATILE_PRIMITIVES = frozenset({"exists", "reachable"})


def _widen_variables(pattern: KeyPattern) -> KeyPattern:
    """Replace unresolved ``$var`` parts with wildcards.

    A variable segment name widens to ``*`` (any name); a variable
    qualifier widens to the ANY kind — the variable can bind to any
    instance, named or not, so the widened segment must accept both.
    """
    segments = []
    for segment in pattern.segments:
        name = "*" if segment.name.startswith("$") else segment.name
        kind, qualifier = segment.kind, segment.qualifier
        if isinstance(qualifier, str) and qualifier.startswith("$"):
            kind, qualifier = "any", None
        segments.append(PatternSegment(name, kind, qualifier))
    return KeyPattern(tuple(segments))


def _walk(node) -> Iterator[object]:
    """Yield every AST node in a subtree (lists/tuples flattened)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (list, tuple)):
            stack.extend(current)
            continue
        if hasattr(current, "__dataclass_fields__"):
            yield current
            for name in current.__dataclass_fields__:
                stack.append(getattr(current, name))


def _collect_macro_refs(node) -> Iterator[str]:
    for current in _walk(node):
        if isinstance(current, ast.MacroRef):
            yield current.name


def _reachable_macro_bodies(
    node, macros: Mapping[str, ast.PredExpr]
) -> Iterator[ast.PredExpr]:
    """Bodies of every macro the subtree can expand to (cycle-guarded)."""
    seen: set[str] = set()
    stack = list(_collect_macro_refs(node))
    while stack:
        name = stack.pop()
        if name in seen or name not in macros:
            continue
        seen.add(name)
        body = macros[name]
        yield body
        stack.extend(_collect_macro_refs(body))


def _is_env_notation(notation: str) -> bool:
    return notation.startswith("env.") and notation.count(".") == 1


def _is_volatile(statement, macros: Mapping[str, ast.PredExpr]) -> bool:
    """True when the statement's verdict can change without a data change."""
    subtrees = [statement, *_reachable_macro_bodies(statement, macros)]
    for subtree in subtrees:
        for node in _walk(subtree):
            if (
                isinstance(node, ast.PrimitiveCall)
                and node.name in _VOLATILE_PRIMITIVES
            ):
                return True
        for notation in _collect_notations(subtree):
            if _is_env_notation(notation):
                return True
    return False


def _compartment_patterns(statement) -> list[KeyPattern]:
    """Compartment names declared anywhere inside a statement, as patterns."""
    patterns = []
    for node in _walk(statement):
        name = None
        if isinstance(node, ast.CompartmentBlock):
            name = node.name
        elif isinstance(node, ast.CompartmentDomain):
            name = node.compartment
        if name is None:
            continue
        try:
            patterns.append(parse_pattern(name))
        except Exception:
            continue
    return patterns


def _statement_patterns(
    statement, macros: Mapping[str, ast.PredExpr]
) -> list[KeyPattern]:
    """Every widened key pattern a statement's evaluation can query.

    Includes the notations of macro bodies the statement can expand to,
    plus one single-segment pattern per free variable (the evaluator's
    binding pool for ``$var`` is whatever the bare name ``var`` reaches).
    """
    patterns: list[KeyPattern] = []
    seen_variables: set[str] = set()
    subtrees = [statement, *_reachable_macro_bodies(statement, macros)]
    for subtree in subtrees:
        for notation in _collect_notations(subtree):
            if notation == "_":
                continue
            try:
                pattern = parse_pattern(notation)
            except Exception:
                continue
            for variable in pattern.variables:
                if variable != "_" and variable not in seen_variables:
                    seen_variables.add(variable)
                    patterns.append(KeyPattern((PatternSegment(variable),)))
            patterns.append(_widen_variables(pattern))
    return patterns


class _TrieNode:
    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.entries: list[tuple[KeyPattern, int]] = []


class _PatternTrie:
    """Reverse-segment pattern index.

    Patterns are suffix-matched against instance keys, so the trie files
    each pattern under its trailing run of *concrete* segment names
    (leaf-first); the walk stops at the first wildcard or variable
    segment, bucketing the pattern at that depth.  ``candidates(key)``
    walks the key leaf-first and collects every bucket passed — a
    superset of the matching patterns, verified by ``pattern.matches``.
    """

    __slots__ = ("_root",)

    def __init__(self) -> None:
        self._root = _TrieNode()

    def insert(self, pattern: KeyPattern, index: int) -> None:
        node = self._root
        for segment in reversed(pattern.segments):
            if "*" in segment.name or segment.name.startswith("$"):
                break
            node = node.children.setdefault(segment.name, _TrieNode())
        node.entries.append((pattern, index))

    def candidates(self, key: InstanceKey) -> Iterator[tuple[KeyPattern, int]]:
        node = self._root
        yield from node.entries
        for segment in reversed(key.segments):
            node = node.children.get(segment.name)
            if node is None:
                return
            yield from node.entries


class DependencyIndex:
    """Statement → key-pattern dependency index over a statement sequence.

    Built once per compiled spec; :meth:`affected` maps a
    :class:`~repro.repository.versioned.ChangeSet` to the (sorted) indices
    of the statements that must re-run.  Raises :class:`ValueError` for
    ``load``/``include`` commands — those are session-time side effects
    that must be resolved before change-driven selection makes sense.

    >>> from repro.cpl import parse
    >>> from repro.repository.versioned import ChangeSet
    >>> from repro.repository.model import ConfigInstance
    >>> from repro.repository.keys import parse_instance_key
    >>> index = DependencyIndex(parse("$A.X -> int\\n$B.Y -> int").statements)
    >>> edit = ConfigInstance(parse_instance_key("B::B1.Y"), "2", "doc")
    >>> index.affected(ChangeSet(added=[edit]))
    [1]
    """

    def __init__(self, statements: Sequence[ast.Statement]):
        self._statements = list(statements)
        self._trie = _PatternTrie()
        self._always: list[int] = []
        self._compartments: list[tuple[int, tuple[KeyPattern, ...]]] = []
        macros: dict[str, ast.PredExpr] = {}
        for index, statement in enumerate(self._statements):
            if isinstance(statement, (ast.LoadCmd, ast.IncludeCmd)):
                raise ValueError(
                    "load/include are session commands; resolve them before "
                    "building a dependency index"
                )
            if isinstance(statement, ast.LetCmd):
                macros[statement.name] = statement.predicate
                self._always.append(index)
                continue
            patterns = _statement_patterns(statement, macros)
            if not patterns or _is_volatile(statement, macros):
                self._always.append(index)
                continue
            for pattern in patterns:
                self._trie.insert(pattern, index)
            compartments = tuple(_compartment_patterns(statement))
            if compartments:
                self._compartments.append((index, compartments))

    @classmethod
    def for_spec(
        cls, spec_cache, spec_text: str, fingerprint,
        statements: Sequence[ast.Statement],
    ) -> "DependencyIndex":
        """The index of a compiled spec, shared through the spec cache.

        Cached as an :meth:`~repro.parallel.cache.SpecCache.attachment` of
        the compiled entry, so it is built once and evicted with it; built
        uncached when there is no cache or the entry is not cached.
        """
        index = None
        if spec_cache is not None:
            index = spec_cache.attachment(
                spec_text, fingerprint, "dependency_index",
                lambda entry: cls(list(entry)),
            )
        return index if index is not None else cls(statements)

    # ------------------------------------------------------------------

    @property
    def statement_count(self) -> int:
        return len(self._statements)

    @property
    def statements(self) -> list[ast.Statement]:
        return self._statements

    @staticmethod
    def _scope_touches(pattern: KeyPattern, key: InstanceKey) -> bool:
        """Does any non-leaf window of ``key`` match the compartment name?"""
        width = len(pattern.segments)
        scope = key.segments[:-1]
        for start in range(len(scope) - width + 1):
            window = scope[start : start + width]
            if all(
                _name_matches(p.name, s.name)
                for p, s in zip(pattern.segments, window)
            ):
                return True
        return False

    def affected(self, change: ChangeSet) -> list[int]:
        """Sorted indices of the statements the change can affect."""
        selected = set(self._always)
        for key in change.touched_keys():
            for pattern, index in self._trie.candidates(key):
                if index not in selected and pattern.matches(key):
                    selected.add(index)
        if self._compartments:
            # Compartment *discovery* depends on which scope instances
            # exist; only additions and removals can change that set.
            discovery = [i.key for i in change.added]
            discovery += [i.key for i in change.removed]
            for index, patterns in self._compartments:
                if index in selected:
                    continue
                if any(
                    self._scope_touches(pattern, key)
                    for pattern in patterns
                    for key in discovery
                ):
                    selected.add(index)
        return sorted(selected)

    def affected_statements(self, change: ChangeSet) -> list[ast.Statement]:
        """The statements themselves, in original order."""
        return [self._statements[i] for i in self.affected(change)]


# ---------------------------------------------------------------------------
# Kept stores and splice lanes
# ---------------------------------------------------------------------------


class _Swap(NamedTuple):
    """One value-only change a patched update applies to the kept store."""

    position: int            # index of the source in the source list
    index: int               # index of the instance in that source's parse
    raw: ConfigInstance      # the reparsed driver instance
    old: ConfigInstance      # the instance the kept store holds
    new: ConfigInstance      # what the store holds after the swap


class StoreUpdate:
    """One planned step of a :class:`KeptStore`: a patch or a new store.

    Planning mutates nothing.  :meth:`apply` swaps a patch's values into
    the kept store, :meth:`undo` swaps back those applied so far (a swap
    is its own inverse), and :meth:`KeptStore.commit` adopts the update.
    """

    def __init__(self, mode, store, sources, parsed, swaps, change):
        #: ``"patched"`` (values swapped into the kept store) or ``"rebuilt"``
        self.mode = mode
        self.store = store
        self.sources = sources
        self.parsed = parsed
        self.swaps = swaps
        #: what changed against the kept store; ``None`` when there is
        #: nothing to compare with (first update, or planned ``fresh``)
        self.change: Optional[ChangeSet] = change
        self._applied = 0

    def apply(self) -> None:
        for swap in self.swaps[self._applied:]:
            self.store.replace(swap.old, swap.new)
            self._applied += 1

    def undo(self) -> None:
        while self._applied:
            self._applied -= 1
            swap = self.swaps[self._applied]
            self.store.replace(swap.new, swap.old)


class KeptStore:
    """A configuration store kept across scans, patched where it can be.

    Per source it keeps the raw driver parse and the instances
    ``ConfigStore.add`` placed for it — the same objects, except where
    ``add`` disambiguated a duplicate key — and a patch swaps the changed
    entries of both.  Keeping the parsed objects rather than each new
    parse keeps one generation of instances alive, not two.
    :meth:`update` plans the next scan's store from its parses:

    * when the source list is the same and every source that was reparsed
      yields the same ``(key, source)`` sequence as before, the update
      *patches* the kept store, swapping each changed value in with
      :meth:`ConfigStore.replace`, and the change set is exactly those
      swaps (``modified`` only).  This is exact because ordinal
      disambiguation and load order depend only on the key sequence in
      source order, never on values, so every store key and position is
      unchanged.  A source whose parse is the very object kept last time
      (:meth:`raws`) is not compared at all;
    * anything else *rebuilds* the store in source order, identical to the
      store a full scan builds, and the change set is the diff against
      the kept store (:meth:`rebuilt_change`).

    ``sources`` are opaque hashable identities, compared by equality.
    Every committed update that changed the store bumps :attr:`version`
    and records its change, so a :class:`SpliceLane` stamped with the
    previous version can catch up with a delta (:meth:`change_since`).
    """

    def __init__(self) -> None:
        self.sources: tuple = ()
        self.parsed: list[tuple[Sequence[ConfigInstance], list]] = []
        self.store: Optional[ConfigStore] = None
        self.version = 0
        #: the change from ``version - 1`` to ``version`` (None = unknown)
        self.change: Optional[ChangeSet] = None

    @property
    def stamp(self) -> tuple:
        """Identity of the current store state, for :meth:`change_since`."""
        return (self, self.version)

    def raws(self) -> dict:
        """The kept raw parse of each source."""
        return {source: raw for source, (raw, __) in zip(self.sources, self.parsed)}

    def change_since(self, stamp) -> Optional[ChangeSet]:
        """The change since ``stamp``, or ``None`` when it is not known."""
        if stamp is None or stamp[0] is not self or self.store is None:
            return None
        if stamp[1] == self.version:
            return ChangeSet()
        if stamp[1] == self.version - 1:
            return self.change
        return None

    def update(
        self, sources: tuple, raws: Sequence[Sequence[ConfigInstance]],
        fresh: bool = False,
    ) -> StoreUpdate:
        """Plan the store for ``raws``, one parse per source in order.

        ``fresh`` forces a rebuild without a diff, for callers about to
        re-evaluate everything anyway.
        """
        swaps = None
        if not fresh and self.store is not None and sources == self.sources:
            swaps = self._value_swaps(raws)
        if swaps is not None:
            change = ChangeSet(modified=[(swap.old, swap.new) for swap in swaps])
            return StoreUpdate(
                "patched", self.store, sources, self.parsed, swaps, change
            )
        store = ConfigStore()
        parsed = [(list(raw), store.add_all(raw)) for raw in raws]
        change = None
        if not fresh and self.store is not None:
            change = self.rebuilt_change(self.store, store)
        return StoreUpdate("rebuilt", store, sources, parsed, [], change)

    def commit(self, update: StoreUpdate) -> None:
        """Adopt an update (a patch must have been applied)."""
        for swap in update.swaps:
            raw, placed = update.parsed[swap.position]
            raw[swap.index] = swap.raw
            placed[swap.index] = swap.new
        if update.store is not self.store or update.swaps:
            self.version += 1
            self.change = update.change
        self.sources = update.sources
        self.parsed = update.parsed
        self.store = update.store

    def _value_swaps(self, raws) -> Optional[list[_Swap]]:
        """The swaps turning the kept store into ``raws``', or ``None``.

        ``None`` means some reparsed source's ``(key, source)`` sequence
        differs from its last parse, so the store must be rebuilt.
        """
        swaps = []
        for position, (raw, (before_raw, placed)) in enumerate(
            zip(raws, self.parsed)
        ):
            if raw is before_raw:
                continue  # not reparsed
            if len(raw) != len(before_raw):
                return None
            for index, (before, after) in enumerate(zip(before_raw, raw)):
                if before.key != after.key or before.source != after.source:
                    return None
                if before.value != after.value:
                    old = placed[index]
                    # add() placed the parsed object itself unless it had
                    # to disambiguate the key; keep the placed key either way
                    new = after if old is before else ConfigInstance(
                        old.key, after.value, after.source
                    )
                    swaps.append(_Swap(position, index, after, old, new))
        return swaps

    @staticmethod
    def rebuilt_change(old: ConfigStore, new: ConfigStore) -> ChangeSet:
        """:func:`diff_stores`, widened to all a spliced report depends on.

        Reports also carry each instance's source and list instances in
        load order.  So a kept key whose source changed counts as
        modified, and kept keys whose relative order changed — the span
        between the first and last position where the two load orders of
        the kept keys disagree — count as removed and re-added, which also
        re-runs compartment discovery over them.
        """
        change = diff_stores(old, new)
        new_by_key = {i.key: i for i in new.instances()}
        before = [i for i in old.instances() if i.key in new_by_key]
        kept = {i.key for i in before}
        after = [i for i in new.instances() if i.key in kept]
        moved = [
            position
            for position, (previous, current) in enumerate(zip(before, after))
            if previous.key != current.key
        ]
        span = before[moved[0]:moved[-1] + 1] if moved else []
        span_keys = {i.key for i in span}
        change.modified = [
            pair for pair in change.modified if pair[0].key not in span_keys
        ] + [
            (previous, new_by_key[previous.key])
            for previous in before
            if previous.key not in span_keys
            and previous.source != new_by_key[previous.key].source
            and previous.value == new_by_key[previous.key].value
        ]
        change.removed += span
        change.added += [new_by_key[i.key] for i in span]
        return change


def compile_for_splice(
    session: ValidationSession, spec_text: str
) -> Optional[list[ast.Statement]]:
    """Compile ``spec_text``, or ``None`` when a splice cannot match a full run.

    Programs with ``load``/``include`` commands have inputs outside the
    spec text, and programs that fail
    :func:`~repro.parallel.shards.is_parallel_safe` have cross-statement
    semantics; both must be evaluated whole.
    """
    statements = session.compile(spec_text)
    if session._last_compile_commands or not is_parallel_safe(
        statements, session.policy
    ):
        return None
    return statements


class LaneRun(NamedTuple):
    """What one :meth:`SpliceLane.run` produced."""

    report: ValidationReport
    lane: "SpliceLane"       # the lane to keep if the caller commits
    mode: str                # "bootstrap" (every unit ran) or "delta"
    statements: int          # units (non-``let`` statements) in the spec
    selected: int            # units evaluated this run
    splice_seconds: float


class SpliceLane:
    """One spec's per-unit reports over one store, kept between scans.

    A lane is immutable: :meth:`run` returns the next lane inside its
    :class:`LaneRun`, so a caller keeps the previous one until it commits,
    and a failed run leaves nothing half-updated.
    """

    __slots__ = ("spec_key", "stamp", "unit_reports")

    def __init__(self, spec_key=None, stamp=None, unit_reports=None):
        #: (spec text, compiler-options fingerprint) the reports belong to
        self.spec_key: Optional[tuple] = spec_key
        #: the :attr:`KeptStore.stamp` of the store state they describe
        self.stamp = stamp
        self.unit_reports: dict[int, ValidationReport] = unit_reports or {}

    def run(
        self,
        session: ValidationSession,
        spec_key: tuple,
        statements: Sequence[ast.Statement],
        store: ConfigStore,
        change: Optional[ChangeSet],
        stamp=None,
        evaluate: Optional[Callable[[WorkerState, Shard], ShardResult]] = None,
    ) -> LaneRun:
        """Evaluate the units ``change`` can affect and splice the rest.

        ``statements`` come from :func:`compile_for_splice` on ``session``,
        whose runtime, policy, guard and analytics settings the evaluation
        uses; ``spec_key`` is ``(spec text, session options fingerprint)``.
        A ``None`` change, or a spec other than this lane's, evaluates
        every unit.  Units are evaluated as one shard by ``evaluate``
        (:func:`~repro.parallel.engine.evaluate_shard` by default) and the
        merged report lists them in statement order, so its
        :meth:`~repro.core.report.ValidationReport.fingerprint` equals a
        full evaluation's.
        """
        started = _clock.now()
        lets, units = select_units(statements)
        if change is None or spec_key != self.spec_key:
            mode, selected = "bootstrap", units
        else:
            mode = "delta"
            index = DependencyIndex.for_spec(session.spec_cache, *spec_key, statements)
            affected = set(index.affected(change))
            selected = tuple(unit for unit in units if unit.index in affected)
        state = WorkerState(
            store=store,
            runtime=session.runtime,
            policy=session.policy,
            lets=lets,
            profile=session.evaluator.profile,
            analytics=session.evaluator.analytics,
            guard=session.spec_guard,
        )
        with get_tracer().span(
            "evaluate", mode=mode, statements=len(units), selected=len(selected)
        ):
            result = (evaluate or evaluate_shard)(state, Shard("delta", selected))
        splice_started = _clock.now()
        fresh = dict(result.unit_reports)
        merged = {
            unit.index: (
                fresh[unit.index] if unit.index in fresh
                else self.unit_reports[unit.index]
            )
            for unit in units
        }
        report = ValidationReport()
        compile_hit, session._last_compile_hit = session._last_compile_hit, None
        if compile_hit is not None:
            if compile_hit:
                report.cache_hits += 1
            else:
                report.cache_misses += 1
        for unit_report in merged.values():
            _absorb(report, unit_report)
        report.executor = "delta"
        report.shards_run += 1
        now = _clock.now()
        report.elapsed_seconds = now - started
        return LaneRun(
            report,
            SpliceLane(spec_key, stamp, merged),
            mode,
            len(units),
            len(selected),
            now - splice_started,
        )


class IncrementalValidator:
    """Pre-compiled spec corpus with change-driven statement selection.

    The check-in gate (``confvalley gate``): parse the corpus once, then
    for each candidate change validate only the affected statements
    against the new store.  ``last_selected`` / ``last_skipped`` expose
    the most recent selection split for reporting.
    """

    def __init__(
        self,
        spec_text: str,
        runtime: Optional[RuntimeProvider] = None,
        policy: Optional[ValidationPolicy] = None,
    ):
        self._runtime = runtime
        self._policy = policy
        self._index = DependencyIndex(parse(spec_text).statements)
        self.last_selected = 0
        self.last_skipped = 0

    # ------------------------------------------------------------------

    @property
    def statement_count(self) -> int:
        return self._index.statement_count

    def affected_statements(self, change: ChangeSet) -> list[ast.Statement]:
        """Statements whose notations can reach a touched key."""
        return self._index.affected_statements(change)

    # ------------------------------------------------------------------

    def validate_change(
        self, new_store: ConfigStore, change: ChangeSet
    ) -> ValidationReport:
        """Validate only the change-affected specs against the new state."""
        selected = self.affected_statements(change)
        self.last_selected = len(selected)
        self.last_skipped = self.statement_count - len(selected)
        session = ValidationSession(
            store=new_store, runtime=self._runtime, policy=self._policy
        )
        return session.validate_statements(selected)

    def validate_full(self, store: ConfigStore) -> ValidationReport:
        """Run the whole corpus (baseline / first commit)."""
        session = ValidationSession(
            store=store, runtime=self._runtime, policy=self._policy
        )
        return session.validate_statements(self._index.statements)
