"""The catalog: tables plus the access methods available on them.

The paper's query instantiation (section 2.2) creates "an AM on each access
method that can possibly be used in the query".  The catalog is where those
access methods are declared.  Access-method *specifications* are passive
descriptions (a scan at some delivery rate; an index on some bind columns
with some lookup latency); the executable access *modules* are built from
these specs by ``repro.core.modules.access``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import CatalogError, DuplicateTableError, UnknownTableError
from repro.storage.table import Table


@dataclass(frozen=True)
class AccessMethodSpec:
    """Base class for access-method specifications.

    Attributes:
        name: unique name of the access method (e.g. ``"R_scan"``).
        table: name of the table the access method reads.
    """

    name: str
    table: str

    @property
    def bind_columns(self) -> tuple[str, ...]:
        """Columns that must be bound to use this access method (empty for scans)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScanSpec(AccessMethodSpec):
    """A scan access method: delivers every row of the table.

    Attributes:
        rate: rows delivered per virtual second.
        initial_delay: virtual seconds before the first row is delivered.
        stall_at: optional offset (virtual seconds from the scan's start)
            at which the source stalls.  Scans start when their query is
            admitted, so for a query admitted mid-simulation the stall
            happens ``arrival_time + stall_at`` into the run.
        stall_duration: how long the stall lasts (virtual seconds).
        stalls: scripted outage schedule, a tuple of ``(start, duration)``
            offsets relative to the scan's start.  Unlike ``stall_at``
            (which shifts every later delivery), rows due during a scripted
            outage pile up and *burst* out at the window's end — the hostile
            bursty-source behaviour of the adversarial gauntlet.
        jitter: per-row uniform delivery jitter in virtual seconds; with a
            jitter larger than the inter-arrival gap, rows arrive
            *out of physical order* (seeded by ``jitter_seed``).
        jitter_seed: RNG seed for the delivery jitter.
        cost_per_row: CPU cost charged per delivered row (virtual seconds).
    """

    rate: float = 100.0
    initial_delay: float = 0.0
    stall_at: float | None = None
    stall_duration: float = 0.0
    stalls: tuple[tuple[float, float], ...] = ()
    jitter: float = 0.0
    jitter_seed: int = 0
    cost_per_row: float = 0.0

    @property
    def bind_columns(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class IndexSpec(AccessMethodSpec):
    """An index access method: answers lookups on its bind columns.

    The paper models remote (Web) indexes whose lookups are asynchronous and
    take a fixed amount of time ("sleeps of identical duration").

    Attributes:
        columns: the bind (key) columns of the index.
        latency: virtual seconds per index lookup (the mean, for stochastic
            latency models).
        latency_model: ``"constant"`` (the paper's "sleeps of identical
            duration") or ``"exponential"`` (a bursty remote service whose
            lookups are exponentially distributed around ``latency``).
        latency_seed: RNG seed for stochastic latency models.
        stalls: scripted outage schedule, ``(start, duration)`` pairs in
            absolute virtual time; lookups completing inside an outage are
            pushed to its end (answers burst out at recovery).
        concurrency: number of lookups the index can serve concurrently
            (1 reproduces the paper's sequential remote index).
        matches_per_probe: optional cap on matches returned per lookup.
        cache_results: unused by the AM itself (SteMs do the caching), kept
            for describing sources whose service already caches.
        failure_rate: probability each lookup *attempt* fails (a flaky
            remote source); 0 disables the fault branch entirely.
        failure_seed: RNG seed for the attempt-failure draws.
        max_retries: extra attempts after a failed or timed-out lookup
            before the AM abandons the key (its matches stay unclaimed and
            the probe's coverage never seals — degraded completion, not a
            wedge; a later probe on the same key starts over).
        retry_backoff: base of the exponential retry backoff — attempt
            ``n`` waits ``retry_backoff * 2**(n-1)`` virtual seconds before
            reissuing; 0 retries immediately.
        lookup_timeout: per-attempt deadline in virtual seconds; an attempt
            whose (latency + outage) completion would land past it is
            declared timed out *at* the deadline and retried.
    """

    columns: tuple[str, ...] = ()
    latency: float = 1.0
    latency_model: str = "constant"
    latency_seed: int = 0
    stalls: tuple[tuple[float, float], ...] = ()
    concurrency: int = 1
    matches_per_probe: int | None = None
    cache_results: bool = False
    failure_rate: float = 0.0
    failure_seed: int = 0
    max_retries: int = 3
    retry_backoff: float = 0.0
    lookup_timeout: float | None = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise CatalogError(f"index AM {self.name!r} must have bind columns")
        if self.concurrency < 1:
            raise CatalogError(f"index AM {self.name!r} concurrency must be >= 1")
        if self.latency_model not in ("constant", "exponential"):
            raise CatalogError(
                f"index AM {self.name!r} latency_model must be 'constant' or "
                f"'exponential', got {self.latency_model!r}"
            )
        if not 0.0 <= self.failure_rate <= 1.0:
            raise CatalogError(
                f"index AM {self.name!r} failure_rate must be within [0, 1], "
                f"got {self.failure_rate}"
            )
        if self.max_retries < 0:
            raise CatalogError(
                f"index AM {self.name!r} max_retries must be >= 0, "
                f"got {self.max_retries}"
            )
        if self.retry_backoff < 0:
            raise CatalogError(
                f"index AM {self.name!r} retry_backoff must be >= 0, "
                f"got {self.retry_backoff}"
            )
        if self.lookup_timeout is not None and self.lookup_timeout <= 0:
            raise CatalogError(
                f"index AM {self.name!r} lookup_timeout must be > 0, "
                f"got {self.lookup_timeout}"
            )

    @property
    def bind_columns(self) -> tuple[str, ...]:
        return tuple(self.columns)


class Catalog:
    """A collection of tables and the access methods declared on them."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._access_methods: dict[str, list[AccessMethodSpec]] = {}

    # -- tables ---------------------------------------------------------------

    def add_table(self, table: Table) -> Table:
        """Register an existing Table object."""
        if table.name in self._tables:
            raise DuplicateTableError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._access_methods[table.name] = []
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        self._require(name)
        return self._tables[name]

    @property
    def tables(self) -> dict[str, Table]:
        """All tables, keyed by name."""
        return dict(self._tables)

    def _require(self, name: str) -> None:
        if name not in self._tables:
            raise UnknownTableError(name, tuple(self._tables))

    # -- access methods -------------------------------------------------------

    def add_scan(
        self,
        table: str,
        name: str | None = None,
        rate: float = 100.0,
        initial_delay: float = 0.0,
        stall_at: float | None = None,
        stall_duration: float = 0.0,
        stalls: Sequence[tuple[float, float]] = (),
        jitter: float = 0.0,
        jitter_seed: int = 0,
        cost_per_row: float = 0.0,
    ) -> ScanSpec:
        """Declare a scan access method on a table."""
        self._require(table)
        spec = ScanSpec(
            name=name or self._default_am_name(table, "scan"),
            table=table,
            rate=rate,
            initial_delay=initial_delay,
            stall_at=stall_at,
            stall_duration=stall_duration,
            stalls=tuple((float(s), float(d)) for s, d in stalls),
            jitter=jitter,
            jitter_seed=jitter_seed,
            cost_per_row=cost_per_row,
        )
        self._register(spec)
        return spec

    def add_index(
        self,
        table: str,
        columns: Sequence[str],
        name: str | None = None,
        latency: float = 1.0,
        latency_model: str = "constant",
        latency_seed: int = 0,
        stalls: Sequence[tuple[float, float]] = (),
        concurrency: int = 1,
        matches_per_probe: int | None = None,
        failure_rate: float = 0.0,
        failure_seed: int = 0,
        max_retries: int = 3,
        retry_backoff: float = 0.0,
        lookup_timeout: float | None = None,
    ) -> IndexSpec:
        """Declare an index access method on a table."""
        self._require(table)
        table_obj = self._tables[table]
        for column in columns:
            if column not in table_obj.schema:
                raise CatalogError(
                    f"cannot declare index on unknown column {column!r} "
                    f"of table {table!r}"
                )
        spec = IndexSpec(
            name=name or self._default_am_name(table, "idx_" + "_".join(columns)),
            table=table,
            columns=tuple(columns),
            latency=latency,
            latency_model=latency_model,
            latency_seed=latency_seed,
            stalls=tuple((float(s), float(d)) for s, d in stalls),
            concurrency=concurrency,
            matches_per_probe=matches_per_probe,
            failure_rate=failure_rate,
            failure_seed=failure_seed,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            lookup_timeout=lookup_timeout,
        )
        # Make sure the underlying table can answer the lookups efficiently.
        table_obj.create_index(columns)
        self._register(spec)
        return spec

    def _register(self, spec: AccessMethodSpec) -> None:
        existing = self._access_methods[spec.table]
        if any(s.name == spec.name for s in existing):
            raise CatalogError(
                f"access method {spec.name!r} already declared on {spec.table!r}"
            )
        existing.append(spec)

    def _default_am_name(self, table: str, suffix: str) -> str:
        base = f"{table}_{suffix}"
        existing = {s.name for s in self._access_methods[table]}
        if base not in existing:
            return base
        counter = 2
        while f"{base}{counter}" in existing:
            counter += 1
        return f"{base}{counter}"

    def access_methods(self, table: str) -> list[AccessMethodSpec]:
        """All access methods declared on a table."""
        self._require(table)
        return list(self._access_methods[table])

    def scans(self, table: str) -> list[ScanSpec]:
        """The scan access methods declared on a table."""
        return [s for s in self.access_methods(table) if isinstance(s, ScanSpec)]

    def indexes(self, table: str) -> list[IndexSpec]:
        """The index access methods declared on a table."""
        return [s for s in self.access_methods(table) if isinstance(s, IndexSpec)]

    def has_scan(self, table: str) -> bool:
        """True if the table has at least one scan access method."""
        return bool(self.scans(table))

    def __repr__(self) -> str:
        parts = []
        for name, table in self._tables.items():
            am_count = len(self._access_methods[name])
            parts.append(f"{name}({len(table)} rows, {am_count} AMs)")
        return f"Catalog({', '.join(parts)})"
