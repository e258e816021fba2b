"""Synthetic data generators.

Includes the three sources of the paper's Table 3 (R, S, T) plus the
tables the extension and adversarial workloads in :mod:`repro.bench` run
over (Zipf-skewed pairs, phase shifts, edge lists, cyclic triples, string
dimensions).  All generators are seeded for reproducibility.
"""

from __future__ import annotations

import bisect
import random
import string

from repro.storage.schema import Schema
from repro.storage.table import Table


# ---------------------------------------------------------------------------
# Paper Table 3 sources
# ---------------------------------------------------------------------------

def make_source_r(
    cardinality: int = 1000,
    distinct_a: int = 250,
    seed: int = 0,
    name: str = "R",
) -> Table:
    """Source R of paper Table 3.

    ``R(key, a)`` with ``cardinality`` rows; ``key`` is the primary key and
    ``a`` has ``distinct_a`` distinct values assigned randomly — but with the
    guarantee that every one of the ``distinct_a`` values appears at least
    once when ``cardinality >= distinct_a`` (as in the paper: 1000 rows, 250
    distinct values, i.e. four rows per value on average).
    """
    rng = random.Random(seed)
    schema = Schema.of("key:int", "a:int", key=["key"])
    table = Table(name, schema)
    values = list(range(distinct_a))
    assignments: list[int] = []
    if cardinality >= distinct_a:
        assignments.extend(values)
        assignments.extend(rng.choice(values) for _ in range(cardinality - distinct_a))
    else:
        assignments.extend(rng.choice(values) for _ in range(cardinality))
    rng.shuffle(assignments)
    for key, a_value in enumerate(assignments):
        table.insert((key, a_value))
    return table


def make_source_s(
    cardinality: int = 250,
    seed: int = 1,
    name: str = "S",
) -> Table:
    """Source S of paper Table 3.

    ``S(x, y)`` where both ``x`` and ``y`` are keys and every row has
    identical values of ``x`` and ``y`` (paper: "All S tuples have identical
    values of x and y"), i.e. ``x == y`` on every row.  S is only reachable
    through asynchronous index access methods on ``x`` and on ``y``.
    """
    del seed  # deterministic by construction; kept for interface symmetry
    schema = Schema.of("x:int", "y:int", key=["x"])
    table = Table(name, schema)
    for value in range(cardinality):
        table.insert((value, value))
    return table


def make_source_t(
    cardinality: int = 1000,
    seed: int = 2,
    name: str = "T",
) -> Table:
    """Source T of paper Table 3.

    ``T(key)`` with an asynchronous index access method on its primary key
    and a scan access method.  Keys are 0..cardinality-1 in a shuffled
    physical order, so that a scan delivers them in "random" order.
    """
    rng = random.Random(seed)
    schema = Schema.of("key:int", key=["key"])
    table = Table(name, schema)
    keys = list(range(cardinality))
    rng.shuffle(keys)
    for key in keys:
        table.insert((key,))
    return table


# ---------------------------------------------------------------------------
# Generic generators
# ---------------------------------------------------------------------------

class ZipfDraw:
    """A seeded Zipf(``skew``) sampler over ``0..distinct-1``.

    The CDF is computed once at construction; each draw is a single RNG
    call plus a binary search (the previous implementation walked the CDF
    linearly on every row, turning an N-row table into O(N * distinct)
    work).  Rank 0 is the most frequent value.
    """

    def __init__(self, distinct: int, skew: float = 1.0, seed: int = 0):
        if distinct < 1:
            raise ValueError(f"distinct must be >= 1, got {distinct}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.distinct = distinct
        self.skew = skew
        self._rng = random.Random(seed)
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(distinct)]
        total = sum(weights)
        self.cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)
        self.cdf[-1] = 1.0  # guard against floating-point shortfall

    def __call__(self) -> int:
        return bisect.bisect_left(self.cdf, self._rng.random())


def make_skewed_pair(
    fact_rows: int = 600,
    dim_rows: int = 100,
    skew: float = 1.2,
    hot_range: int = 1000,
    seed: int = 0,
    fact_name: str = "F",
    dim_name: str = "D",
) -> tuple[Table, Table]:
    """A fact/dimension pair with Zipf-skewed join keys and a skewed column.

    ``F(id, fk, hot, cold)`` joins ``D(id, tag)`` on ``F.fk = D.id``.  The
    foreign key is Zipf(``skew``)-distributed over the dimension ids, so a
    handful of dimension rows receive most of the fact references (the
    hostile-locality case for SteM probes and eviction).  ``hot`` is also
    Zipf-skewed over ``0..hot_range-1`` — most of its mass sits on small
    values, so a predicate like ``F.hot > k`` is far more selective than the
    uniform ``cold`` column suggests — while ``cold`` is uniform over the
    same range.  Every dimension id exists, so the join loses no fact rows.
    """
    fk_draw = ZipfDraw(dim_rows, skew, seed=seed)
    hot_draw = ZipfDraw(hot_range, skew, seed=seed + 1)
    rng = random.Random(seed + 2)
    fact_schema = Schema.of("id:int", "fk:int", "hot:int", "cold:int", key=["id"])
    fact = Table(fact_name, fact_schema)
    for row_id in range(fact_rows):
        fact.insert((row_id, fk_draw(), hot_draw(), rng.randrange(hot_range)))
    dim_schema = Schema.of("id:int", "tag:int", key=["id"])
    dim = Table(dim_name, dim_schema)
    for row_id in range(dim_rows):
        dim.insert((row_id, row_id % 7))
    return fact, dim


def make_phase_shift_table(
    name: str,
    cardinality: int,
    phases: int = 2,
    wide_range: int = 1000,
    narrow_range: int = 60,
    seed: int = 0,
    extra_key_column: bool = True,
) -> Table:
    """A table whose column distributions *shift* across physical row order.

    ``name(id, fk, a, b)``: rows are generated in ``phases`` contiguous
    blocks.  In even-numbered blocks ``a`` is drawn from the wide range
    (so ``a < narrow_range`` is highly selective) while ``b`` is drawn from
    the narrow range (``b < narrow_range`` always passes); odd-numbered
    blocks swap the two.  Because scans deliver rows in physical order, the
    observed selectivity of predicates on ``a`` and ``b`` flips mid-run —
    the correlated-shift workload that defeats lifetime-average selectivity
    estimates.  ``fk`` cycles ``0..narrow_range-1`` so the table can join a
    dimension without losing rows.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    rng = random.Random(seed)
    columns = ["id:int", "fk:int", "a:int", "b:int"]
    schema = Schema.of(*columns, key=["id"] if extra_key_column else [])
    table = Table(name, schema)
    block = max(1, cardinality // phases)
    for row_id in range(cardinality):
        phase = min(row_id // block, phases - 1)
        if phase % 2 == 0:
            a_value = rng.randrange(wide_range)
            b_value = rng.randrange(narrow_range)
        else:
            a_value = rng.randrange(narrow_range)
            b_value = rng.randrange(wide_range)
        table.insert((row_id, row_id % narrow_range, a_value, b_value))
    return table


def make_edges_table(
    name: str,
    nodes: int = 40,
    edges: int = 160,
    seed: int = 0,
) -> Table:
    """A directed-graph edge table ``(id, src, dst)`` for self-join workloads.

    Edges are uniform random pairs over ``0..nodes-1`` (self-loops allowed),
    deduplicated so the two-hop self-join ``e1.dst = e2.src`` has a
    deterministic result set of moderate fan-out.
    """
    rng = random.Random(seed)
    schema = Schema.of("id:int", "src:int", "dst:int", key=["id"])
    table = Table(name, schema)
    seen: set[tuple[int, int]] = set()
    row_id = 0
    attempts = 0
    while row_id < edges and attempts < edges * 20:
        attempts += 1
        pair = (rng.randrange(nodes), rng.randrange(nodes))
        if pair in seen:
            continue
        seen.add(pair)
        table.insert((row_id, pair[0], pair[1]))
        row_id += 1
    return table


def make_string_dimension(
    name: str,
    cardinality: int,
    label_length: int = 8,
    seed: int = 0,
) -> Table:
    """A dimension table ``(id, label)`` with random string labels."""
    rng = random.Random(seed)
    schema = Schema.of("id:int", "label:text", key=["id"])
    table = Table(name, schema)
    alphabet = string.ascii_lowercase
    for row_id in range(cardinality):
        label = "".join(rng.choice(alphabet) for _ in range(label_length))
        table.insert((row_id, label))
    return table


def make_cyclic_triple(
    cardinality: int = 200,
    seed: int = 0,
    match_fraction: float = 0.5,
) -> tuple[Table, Table, Table]:
    """Three tables A, B, C wired for a *cyclic* three-way join.

    ``A(ab, ca)``, ``B(ab, bc)``, ``C(bc, ca)`` with join predicates
    ``A.ab = B.ab``, ``B.bc = C.bc`` and ``C.ca = A.ca`` — a triangle in the
    join graph, used by the cyclic-query / spanning-tree experiments.
    ``match_fraction`` controls how many triples actually close the cycle.
    """
    rng = random.Random(seed)
    schema_a = Schema.of("ab:int", "ca:int")
    schema_b = Schema.of("ab:int", "bc:int")
    schema_c = Schema.of("bc:int", "ca:int")
    table_a = Table("A", schema_a)
    table_b = Table("B", schema_b)
    table_c = Table("C", schema_c)
    for identifier in range(cardinality):
        closes_cycle = rng.random() < match_fraction
        ca_value = identifier if closes_cycle else cardinality + identifier
        table_a.insert((identifier, identifier))
        table_b.insert((identifier, identifier))
        table_c.insert((identifier, ca_value))
    return table_a, table_b, table_c
