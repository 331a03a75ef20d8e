"""Validation sessions: the user-facing entry point (paper §4.1, §5.1).

A :class:`ValidationSession` owns a configuration store, a runtime provider
and a policy; it processes CPL *commands* (``load``, ``include``, ``let``)
and hands the remaining statements to the :class:`~repro.core.evaluator.Evaluator`.

Three usage scenarios from paper §5.1 map onto this API:

* **batch mode** — :meth:`validate_file` / :meth:`validate` over a spec file,
  re-run whenever specifications or data change;
* **interactive console** — :meth:`validate_line` for one-liners and
  :meth:`get` for domain inspection (used by :mod:`repro.console`);
* **partitioned validation** — :meth:`validate_partitioned` splits the
  specification list into N pieces and times each, reproducing Table 8's
  P10 experiment (each job parses sources independently in the paper; here
  partitions share the already-loaded store and the per-partition wall
  clocks are reported so min/median/max match the paper's shape).

Two orthogonal performance features (see ``docs/PERFORMANCE.md``):

* ``executor`` routes evaluation through the sharded parallel engine
  (:mod:`repro.parallel`) — ``"auto"``, ``"serial"``, ``"thread"``, or
  ``"process"``; the merged report is identical to serial evaluation;
* ``spec_cache`` memoizes compiled programs keyed by (spec text hash,
  compiler options) so repeat validation of unchanged specs skips the
  parser and the Figure-4 rewrites entirely (:meth:`compile`).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from ..cpl import ast, parse
from ..drivers import driver_names, get_driver
from ..errors import ConfValleyError, DriverError
from ..observability import get_metrics, get_tracer
from ..repository.store import ConfigStore
from ..runtime import RuntimeProvider, StaticRuntime
from ..runtime import clock as _clock
from .compiler import CompilerOptions, optimize_statements
from .evaluator import Evaluator, Item
from .policy import ValidationPolicy
from .report import ValidationReport

__all__ = ["ValidationSession", "resolve_driver"]

_EXTENSION_FORMATS = {
    ".xml": "xml",
    ".ini": "ini",
    ".conf": "ini",
    ".cfg": "ini",
    ".json": "json",
    ".yaml": "yaml",
    ".yml": "yaml",
    ".csv": "csv",
    ".properties": "keyvalue",
    ".kv": "keyvalue",
    ".toml": "toml",
    ".env": "env",
}


def resolve_driver(format_or_alias: str, location: str) -> str:
    """Resolve a driver name from an explicit format or the location shape.

    A known driver name wins; URLs and host:port locations route to the
    ``rest`` driver; otherwise the location's file extension decides.
    Shared by :class:`ValidationSession` and the service's delta scanner so
    both resolve a ``SourceSpec`` to exactly the same driver.
    """
    if format_or_alias in driver_names():
        return format_or_alias
    if "://" in location or location.replace(".", "").replace(":", "").isdigit():
        return "rest"
    __, extension = os.path.splitext(location)
    if not extension:
        # dotfiles like ".env" are all extension and no stem
        basename = os.path.basename(location)
        if basename.startswith("."):
            extension = basename
    if extension.lower() in _EXTENSION_FORMATS:
        return _EXTENSION_FORMATS[extension.lower()]
    raise DriverError(
        f"cannot determine a driver for {format_or_alias!r} / {location!r}"
    )


class ValidationSession:
    """One configuration-validation session over a unified store."""

    def __init__(
        self,
        store: Optional[ConfigStore] = None,
        runtime: Optional[RuntimeProvider] = None,
        policy: Optional[ValidationPolicy] = None,
        base_dir: str = ".",
        optimize: bool = True,
        profile: bool = False,
        analytics: bool = False,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        spec_cache=None,
        compiler_options: Optional[CompilerOptions] = None,
        spec_guard=None,
        shard_timeout: Optional[float] = None,
        shard_retries: int = 1,
    ):
        self.store = store if store is not None else ConfigStore()
        self.runtime = runtime if runtime is not None else StaticRuntime()
        self.policy = policy if policy is not None else ValidationPolicy()
        self.base_dir = base_dir
        self.optimize = optimize
        #: None = classic in-process serial evaluation; otherwise routed
        #: through repro.parallel ("auto"/"serial"/"thread"/"process" or an
        #: executor object) with a deterministic, serial-identical merge
        self.executor = executor
        self.max_workers = max_workers
        #: optional repro.parallel.SpecCache shared across sessions/scans
        self.spec_cache = spec_cache
        self.compiler_options = compiler_options
        #: optional repro.resilience.SpecGuard: switches evaluation into
        #: guarded mode (statement-level fault isolation + breaker skips)
        self.spec_guard = spec_guard
        #: per-shard supervision knobs, forwarded to ParallelValidator when
        #: an executor is configured (see repro.parallel.supervision)
        self.shard_timeout = shard_timeout
        self.shard_retries = shard_retries
        self.evaluator = Evaluator(
            self.store, self.runtime, self.policy, profile=profile,
            guard=spec_guard, analytics=analytics,
        )
        self._last_compile_hit: Optional[bool] = None
        #: did the last compile run ``load``/``include`` commands?  Their
        #: side effects (loaded sources, included files) are outside the
        #: spec text, so incremental callers must not splice such programs
        self._last_compile_commands = False

    # ------------------------------------------------------------------
    # Loading configuration data
    # ------------------------------------------------------------------

    def load_source(self, format_or_alias: str, location: str, scope: str = "") -> int:
        """Load one configuration source into the unified store.

        ``format_or_alias`` is a driver name (``xml``, ``ini``, …); when it
        is not a known driver the format is guessed from the location's file
        extension (URLs route to the ``rest`` driver).  Returns the number
        of instances loaded.
        """
        driver_name = self._pick_driver(format_or_alias, location)
        driver = get_driver(driver_name)
        if driver_name == "rest":
            instances = driver.parse(location, source=location, scope=scope)
        else:
            path = location
            if not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            # file I/O routes through the runtime provider so it can be
            # virtualized (repro.resilience.FaultyRuntimeProvider injects
            # deterministic read faults here for chaos testing)
            raw = self.runtime.read_bytes(path)
            instances = driver.parse_bytes(raw, source=path, scope=scope)
        self.store.add_all(instances)
        return len(instances)

    def load_text(self, format_name: str, text: str, source: str = "", scope: str = "") -> int:
        """Load configuration data from an in-memory string."""
        instances = get_driver(format_name).parse(text, source=source, scope=scope)
        self.store.add_all(instances)
        return len(instances)

    def _pick_driver(self, format_or_alias: str, location: str) -> str:
        return resolve_driver(format_or_alias, location)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def prepare(self, text: str) -> list[ast.Statement]:
        """Parse spec text, apply commands, return evaluable statements."""
        program = parse(text)
        return self._process_commands(program.statements)

    def _process_commands(
        self, statements: Sequence[ast.Statement]
    ) -> list[ast.Statement]:
        remaining: list[ast.Statement] = []
        for statement in statements:
            if isinstance(statement, ast.LoadCmd):
                self.load_source(statement.alias, statement.location, statement.scope)
            elif isinstance(statement, ast.IncludeCmd):
                path = statement.path
                if not os.path.isabs(path):
                    path = os.path.join(self.base_dir, path)
                with open(path, "r", encoding="utf-8") as handle:
                    remaining.extend(self.prepare(handle.read()))
            else:
                remaining.append(statement)
        return remaining

    def _options_fingerprint(self) -> tuple:
        """Cache-key component: optimization flag + rewrite toggles."""
        if not self.optimize:
            return ("raw",)
        options = self.compiler_options or CompilerOptions()
        return options.fingerprint()

    def compile(self, text: str) -> list[ast.Statement]:
        """Parse + resolve commands + optimize, consulting the spec cache.

        Programs containing ``load``/``include`` commands are compiled
        fresh every time (their compilation has side effects); everything
        else is memoized on ``(spec text hash, compiler options)`` when a
        ``spec_cache`` is attached, so steady-state revalidation skips the
        parser and the Figure-4 rewrites when only data changed.
        """
        fingerprint = self._options_fingerprint()
        with get_tracer().span("compile") as span:
            if self.spec_cache is not None:
                cached = self.spec_cache.lookup(text, fingerprint)
                if cached is not None:
                    self._last_compile_hit = True
                    self._last_compile_commands = False  # never cached
                    span.set(cache="hit", statements=len(cached))
                    return list(cached)
            program = parse(text)
            has_commands = any(
                isinstance(statement, (ast.LoadCmd, ast.IncludeCmd))
                for statement in program.statements
            )
            self._last_compile_commands = has_commands
            statements = self._process_commands(program.statements)
            if self.optimize:
                statements = optimize_statements(statements, self.compiler_options)
            if self.spec_cache is not None:
                self._last_compile_hit = False
                if has_commands:
                    self.spec_cache.note_uncacheable()
                else:
                    self.spec_cache.store(text, fingerprint, tuple(statements))
            span.set(
                cache="miss" if self.spec_cache is not None else "off",
                statements=len(statements),
            )
        return statements

    def validate(
        self, text: str, report: Optional[ValidationReport] = None
    ) -> ValidationReport:
        """Validate the store against a CPL program (batch mode)."""
        statements = self.compile(text)
        return self._run_validation(statements, report)

    def validate_statements(
        self,
        statements: Sequence[ast.Statement],
        report: Optional[ValidationReport] = None,
    ) -> ValidationReport:
        if self.optimize:
            statements = optimize_statements(
                list(statements), self.compiler_options
            )
        return self._run_validation(statements, report)

    def _run_validation(
        self,
        statements: Sequence[ast.Statement],
        report: Optional[ValidationReport],
    ) -> ValidationReport:
        """Evaluate compiled statements — serially, or sharded when an
        executor is configured (output is identical either way)."""
        if report is None:
            report = ValidationReport()
        if self._last_compile_hit is not None:
            if self._last_compile_hit:
                report.cache_hits += 1
            else:
                report.cache_misses += 1
            self._last_compile_hit = None
        if self.executor is None:
            started = _clock.now()
            with get_tracer().span("evaluate", mode="serial", statements=len(statements)):
                self.evaluator.run(statements, report)
            elapsed = _clock.now() - started
            report.elapsed_seconds += elapsed
            metrics = get_metrics()
            metrics.counter(
                "confvalley_validations_total",
                "Validation runs, by evaluation mode.",
            ).inc(mode="serial")
            metrics.histogram(
                "confvalley_validation_seconds",
                "End-to-end evaluation wall clock per validation run.",
            ).observe(elapsed)
            if report.violations:
                metrics.counter(
                    "confvalley_violations_total",
                    "Violations found across all validation runs.",
                ).inc(len(report.violations))
        else:
            # the parallel engine times itself (including shard fan-out)
            from ..parallel.engine import ParallelValidator

            validator = ParallelValidator(
                self.store,
                self.runtime,
                self.policy,
                executor=self.executor,
                max_workers=self.max_workers,
                profile=self.evaluator.profile,
                analytics=self.evaluator.analytics,
                shard_timeout=self.shard_timeout,
                shard_retries=self.shard_retries,
                guard=self.spec_guard,
            )
            validator.validate_statements(
                statements, report, macros=dict(self.evaluator.macros)
            )
            # keep session macro state consistent with serial semantics:
            # top-level lets persist for later validate()/get() calls
            for statement in statements:
                if isinstance(statement, ast.LetCmd):
                    self.evaluator.macros[statement.name] = statement.predicate
        return report

    def validate_file(self, path: str) -> ValidationReport:
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        # spec-file I/O also routes through the runtime provider (chaos
        # harness coverage); specs are UTF-8 like CPL itself
        return self.validate(self.runtime.read_bytes(path).decode("utf-8"))

    def validate_line(self, line: str) -> ValidationReport:
        """Validate a single one-liner (interactive console scenario)."""
        return self.validate(line)

    # ------------------------------------------------------------------
    # Partitioned validation (Table 8)
    # ------------------------------------------------------------------

    def validate_partitioned(
        self, text: str, partitions: int = 10
    ) -> list[tuple[ValidationReport, float]]:
        """Split the specs into N partitions; validate and time each one.

        The paper demonstrates parallel speedup "by simply splitting the
        specifications into 10 partitions and running 10 validation jobs in
        parallel"; the parallel wall clock is the max partition time.  Let
        statements and blocks stay with their partition intact.
        """
        statements = self.prepare(text)
        lets = [s for s in statements if isinstance(s, ast.LetCmd)]
        work = [s for s in statements if not isinstance(s, ast.LetCmd)]
        chunks = _split(work, partitions)
        results: list[tuple[ValidationReport, float]] = []
        for chunk in chunks:
            evaluator = Evaluator(self.store, self.runtime, self.policy)
            report = ValidationReport()
            started = _clock.now()
            statements_for_chunk = lets + chunk
            if self.optimize:
                statements_for_chunk = optimize_statements(
                    statements_for_chunk, self.compiler_options
                )
            evaluator.run(statements_for_chunk, report)
            elapsed = _clock.now() - started
            report.elapsed_seconds = elapsed
            results.append((report, elapsed))
        return results

    # ------------------------------------------------------------------
    # Console helpers
    # ------------------------------------------------------------------

    def get(self, notation: str) -> list[Item]:
        """Resolve a domain notation (the ``get`` command)."""
        from .evaluator import Context

        return self.evaluator.resolve_notation(notation, Context())

    def define_macro(self, name: str, predicate_text: str) -> None:
        from ..cpl import parse_predicate

        self.evaluator.macros[name] = parse_predicate(predicate_text)

    def load_stdlib(self) -> list[str]:
        """Register the standard macro library; returns the macro names."""
        from ..cpl.stdlib import STDLIB_CPL, STDLIB_MACRO_NAMES

        self.evaluator.run(self.prepare(STDLIB_CPL))
        return list(STDLIB_MACRO_NAMES)


def _split(items: list, parts: int) -> list[list]:
    """Round-robin split preserving all items."""
    if parts <= 1:
        return [list(items)]
    chunks: list[list] = [[] for __ in range(min(parts, max(1, len(items))))]
    for index, item in enumerate(items):
        chunks[index % len(chunks)].append(item)
    return [chunk for chunk in chunks if chunk]
