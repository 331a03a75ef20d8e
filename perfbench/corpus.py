"""Seeded benchmark inputs: corpora, the fault ledger and the edit scripts.

Everything here derives from the workload seed.  Faults are injected by
rewriting lines of the generated source text, never through the program
under test, and each one records the instance keys a correct verdict may
blame for it.  The checker in :mod:`perfbench.verdicts` compares every
verdict against the faults that are active when it was produced.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.synthetic.azure import generate_type_a
from repro.synthetic.specs import TYPE_A_SPECS

EXPERT_SPEC = TYPE_A_SPECS

_SETTING = re.compile(r'^\s*<Setting Key="([^"]*)" Value="([^"]*)"/>$')
_OPEN_NAMED = re.compile(r'^\s*<(\w+) Name="([^"]*)">$')
_OPEN_PLAIN = re.compile(r"^\s*<(\w+)>$")
_CLOSE = re.compile(r"^\s*</(\w+)>$")


@dataclass(frozen=True)
class Fault:
    """One injectable misconfiguration: a single-line rewrite of one file."""

    family: str
    line: int                # line index within its document
    old: str                 # the clean line
    new: str                 # the faulty line
    key: str                 # rendered key of the rewritten instance
    blame: frozenset         # keys a correct verdict may report it on

    def describe(self) -> str:
        return f"{self.family} at {self.key}"


@dataclass(frozen=True)
class Setting:
    """One ``<Setting>`` line of a generated Type A document."""

    line: int
    key: str
    leaf: str
    value: str
    cluster: str             # key prefix of the enclosing Cluster ('' = none)


def index_settings(lines: list[str]) -> list[Setting]:
    """Every setting line with the instance key the XML driver gives it."""
    stack: list[str] = []
    out: list[Setting] = []
    for number, line in enumerate(lines):
        match = _SETTING.match(line)
        if match:
            leaf, value = match.groups()
            cluster = ""
            for depth, segment in enumerate(stack):
                if segment.startswith("Cluster::"):
                    cluster = ".".join(stack[: depth + 1])
            out.append(
                Setting(number, ".".join(stack + [leaf]), leaf, value, cluster)
            )
            continue
        match = _OPEN_NAMED.match(line)
        if match:
            stack.append(f"{match.group(1)}::{match.group(2)}")
            continue
        match = _OPEN_PLAIN.match(line)
        if match:
            stack.append(match.group(1))
            continue
        if _CLOSE.match(line):
            stack.pop()
    return out


def _sibling(key: str, leaf: str) -> str:
    return key.rsplit(".", 1)[0] + "." + leaf


def _last_octet(value: str, octet: str) -> str:
    return value.rsplit(".", 1)[0] + "." + octet


def _blame_self(setting: Setting, settings: list[Setting]) -> set[str]:
    return {setting.key}


def _blame_cluster_plumbing(setting: Setting, settings: list[Setting]) -> set[str]:
    # a start address past the end address also pushes every load
    # balancer VIP range of the cluster out of bounds
    keys = {setting.key, _sibling(setting.key, "EndIP")}
    keys.update(
        other.key for other in settings
        if other.cluster == setting.cluster and other.leaf == "VipRange"
    )
    return keys


def _blame_pool_pair(setting: Setting, settings: list[Setting]) -> set[str]:
    return {setting.key, _sibling(setting.key, "MacPoolSize")}


def _blame_rack_duplicate(setting: Setting, settings: list[Setting]) -> set[str]:
    rack = setting.key.rsplit(".", 2)[0]
    return {
        other.key for other in settings
        if other.leaf == "Location" and other.key.startswith(rack + ".")
        and other.value == "1"
    } | {setting.key}


#: one family per rule family of the expert Type A spec:
#: (family, target selector, value rewrite, blamed keys)
TYPE_A_FAMILIES: tuple[tuple[str, Callable, Callable, Callable], ...] = (
    ("vip_out_of_cluster", lambda s: s.leaf == "VipRange",
     lambda v: _last_octet(v, "250"), _blame_self),
    ("cluster_start_after_end", lambda s: s.leaf == "StartIP",
     lambda v: _last_octet(v, "250"), _blame_cluster_plumbing),
    ("pool_size_mismatch", lambda s: s.leaf == "IpPoolSize",
     lambda v: str(int(v) + 1), _blame_pool_pair),
    ("device_name_prefix", lambda s: s.leaf == "Device",
     lambda v: "lb-" + v[len("slb-"):], _blame_self),
    ("duplicate_blade_location",
     lambda s: s.leaf == "Location" and s.value != "1",
     lambda v: "1", _blame_rack_duplicate),
    ("blade_id_format", lambda s: s.leaf == "BladeID",
     lambda v: v.replace("-", "_"), _blame_self),
    ("empty_fcc_dns_name", lambda s: s.leaf == "FccDnsName",
     lambda v: "", _blame_self),
    ("low_replica_count", lambda s: s.leaf == "ReplicaCountForCreateFCC",
     lambda v: "1", _blame_self),
    ("machine_pool_typo", lambda s: s.leaf == "MachinePool",
     lambda v: v[:-1], _blame_self),
    ("timeout_not_int", lambda s: "TimeoutSeconds" in s.leaf,
     lambda v: "30s", _blame_self),
    ("endpoint_not_ip", lambda s: "EndpointIP" in s.leaf,
     lambda v: "10.0.0.999", _blame_self),
    ("subnet_not_cidr", lambda s: "Subnet" in s.leaf,
     lambda v: "10.0.0.0/99", _blame_self),
    ("url_not_https",
     lambda s: "ServiceUrl" in s.leaf and s.value.startswith("https://"),
     lambda v: "http://" + v[len("https://"):], _blame_self),
    ("account_not_guid", lambda s: "AccountId" in s.leaf,
     lambda v: "not-a-guid", _blame_self),
    ("flag_not_bool", lambda s: "Enabled" in s.leaf,
     lambda v: "maybe", _blame_self),
    ("port_out_of_range", lambda s: "Port" in s.leaf,
     lambda v: "70000", _blame_self),
)


class Document:
    """One generated source file whose lines faults rewrite in place."""

    def __init__(self, lines: list[str]):
        self.clean = list(lines)
        self.lines = list(lines)
        self.active: set[Fault] = set()

    def apply(self, fault: Fault) -> None:
        if self.lines[fault.line] != fault.old:
            raise ValueError(f"{fault.describe()}: line {fault.line} is not clean")
        self.lines[fault.line] = fault.new
        self.active.add(fault)

    def revert(self, fault: Fault) -> None:
        if self.lines[fault.line] != fault.new:
            raise ValueError(f"{fault.describe()}: line {fault.line} is not faulty")
        self.lines[fault.line] = fault.old
        self.active.discard(fault)

    def toggle(self, fault: Fault) -> None:
        if fault in self.active:
            self.revert(fault)
        else:
            self.apply(fault)

    def text(self, start: int = 0, end: Optional[int] = None) -> str:
        return "\n".join(self.lines[start:end]) + "\n"


#: generator seed of the Type A catalog.  The catalog's shape (which
#: parameters exist and of what kind) sets how much work one scan is, so it
#: stays fixed; the workload seed picks the fault targets and the edits.
CATALOG_SEED = 42


class TypeACorpus:
    """A generated Type A XML corpus plus its seeded fault ledger.

    ``initial`` holds one fault per expert-spec rule family, applied before
    the program sees the corpus; ``pool`` holds one more per family on
    other targets, which edit scripts introduce and fix.
    """

    def __init__(self, scale: float, seed: int, catalog_seed: int = CATALOG_SEED):
        rng = random.Random(f"typea-faults:{seed}")
        text = generate_type_a(scale, seed=catalog_seed).sources[0][1]
        self.document = Document(text.split("\n"))
        self.settings = index_settings(self.document.clean)
        clusters = sorted({s.cluster for s in self.settings if s.cluster})
        rng.shuffle(clusters)
        taken: set[int] = set()
        self.initial: list[Fault] = []
        self.pool: list[Fault] = []
        for position, (family, select, rewrite, blame) in enumerate(TYPE_A_FAMILIES):
            for round_, bucket in enumerate((self.initial, self.pool)):
                cluster = clusters[(2 * position + round_) % len(clusters)]
                fault = self._pick(
                    rng, family, select, rewrite, blame, cluster, taken
                )
                taken.add(fault.line)
                bucket.append(fault)
        for fault in self.initial:
            self.document.apply(fault)

    def _pick(self, rng, family, select, rewrite, blame, cluster, taken) -> Fault:
        candidates = [
            s for s in self.settings
            if select(s) and s.line not in taken and s.cluster == cluster
        ] or [s for s in self.settings if select(s) and s.line not in taken]
        if not candidates:
            raise ValueError(f"no target for fault family {family}")
        setting = rng.choice(candidates)
        old = self.document.clean[setting.line]
        new = old.replace(
            f'Value="{setting.value}"', f'Value="{rewrite(setting.value)}"'
        )
        return Fault(
            family=family,
            line=setting.line,
            old=old,
            new=new,
            key=setting.key,
            blame=frozenset(blame(setting, self.settings)),
        )

    @property
    def instances(self) -> int:
        return len(self.settings)

    def datacenter_ranges(self) -> list[tuple[int, int]]:
        """Line ranges ``[start, end)`` of each top-level ``<Datacenter>``."""
        ranges, start = [], None
        for number, line in enumerate(self.document.clean):
            if line.startswith("<Datacenter "):
                start = number
            elif line == "</Datacenter>":
                ranges.append((start, number + 1))
        return ranges


# ---------------------------------------------------------------------------
# Service stores for the cross-store rule pack
# ---------------------------------------------------------------------------

_FILLER_WORDS = (
    "cache", "retry", "queue", "render", "search", "upload", "session",
    "metrics", "feature", "locale", "thumbnail", "export",
)

SECRET_PLACEHOLDER = "# credentials are read from the secret manager"


class ServiceStores:
    """A frontend ``.env`` store and a backend INI store.

    They are shaped for ``examples/rulepacks/security.yaml``: the frontend
    file is parsed world-readable and names the backend's database host,
    port and service name.  Faults rewrite lines of the ``.env`` file.
    """

    ENV_FILE = "frontend.env"
    INI_FILE = "backend.ini"

    def __init__(self, seed: int):
        rng = random.Random(f"service-stores:{seed}")
        host = f"db-{rng.randrange(1, 9)}.internal"
        port = rng.randrange(2000, 9000)
        service = rng.choice(("billing", "catalog", "ledger", "inventory"))
        env = [
            "# frontend service configuration",
            "environment=production",
            "debug=false",
            "log.level=info",
            f"database.host={host}",
            f"backend.url=http://api.internal:{port}/v1",
            f"upstream.name={service}",
            SECRET_PLACEHOLDER,
        ]
        for index in range(24):
            word = _FILLER_WORDS[index % len(_FILLER_WORDS)]
            env.append(f"{word}.setting{index}={rng.randrange(1, 1000)}")
        ini = [
            "environment = production",
            "debug = false",
            "[database]",
            f"host = {host}",
            "[listen]",
            f"address = 0.0.0.0:{port}",
            "[service]",
            f"name = {service}",
            "[pool]",
            f"size = {rng.randrange(4, 64)}",
        ]
        self.document = Document(env)
        self.ini_text = "\n".join(ini) + "\n"

        def line_fault(family, prefix, new, blame) -> Fault:
            number = next(
                i for i, line in enumerate(env) if line.startswith(prefix)
            )
            key = "frontend." + new.split("=", 1)[0]
            return Fault(family, number, env[number], new, key, frozenset(blame))

        families = [
            line_fault("world_readable_secret", SECRET_PLACEHOLDER,
                       f"API_TOKEN=tok-{rng.getrandbits(40):010x}",
                       {"frontend.API_TOKEN"}),
            line_fault("debug_in_prod", "debug=", "debug=true",
                       {"frontend.debug"}),
            line_fault("verbose_logging_in_prod", "log.level=",
                       "log.level=debug", {"frontend.log.level"}),
            line_fault("database_hosts_disagree", "database.host=",
                       "database.host=db-0.internal",
                       {"frontend.database.host", "backend.database.host"}),
            line_fault("service_ports_disagree", "backend.url=",
                       f"backend.url=http://api.internal:{port + 1}/v1",
                       {"frontend.backend.url", "backend.listen.address"}),
            line_fault("dangling_upstream", "upstream.name=",
                       f"upstream.name={service}-old",
                       {"frontend.upstream.name"}),
        ]
        rng.shuffle(families)
        self.initial = families[:3]
        self.pool = families[3:]
        for fault in self.initial:
            self.document.apply(fault)


def toggle_script(pool: list[Fault]) -> Iterable[Fault]:
    """Endless edit script: introduce ``pool[0]``, fix it, introduce
    ``pool[1]``, fix it, … — so edits alternate introduce and fix."""
    while True:
        for fault in pool:
            yield fault
            yield fault
