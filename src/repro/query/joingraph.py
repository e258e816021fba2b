"""Join graphs: the graph whose nodes are aliases and edges are join predicates.

A traditional optimizer picks one spanning tree of this graph statically;
the SteM architecture effectively chooses among them at runtime, probing
from each alias into its neighbours.  The plan layout reads those
neighbour sets to know which SteMs a tuple may probe next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import QueryError
from repro.query.predicates import Predicate
from repro.query.query import Query


@dataclass(frozen=True)
class JoinEdge:
    """An edge of the join graph: a join predicate between two aliases."""

    left: str
    right: str
    predicate: Predicate

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def other(self, alias: str) -> str:
        """The endpoint opposite ``alias``."""
        if alias == self.left:
            return self.right
        if alias == self.right:
            return self.left
        raise QueryError(f"alias {alias!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.left}--{self.right} [{self.predicate}]"


class JoinGraph:
    """The join graph of a query."""

    def __init__(self, aliases: Iterable[str], edges: Iterable[JoinEdge]):
        self.nodes: tuple[str, ...] = tuple(aliases)
        self.edges: tuple[JoinEdge, ...] = tuple(edges)
        self._adjacency: dict[str, list[JoinEdge]] = {alias: [] for alias in self.nodes}
        for edge in self.edges:
            if edge.left not in self._adjacency or edge.right not in self._adjacency:
                raise QueryError(f"edge {edge} references unknown aliases")
            self._adjacency[edge.left].append(edge)
            self._adjacency[edge.right].append(edge)

    @classmethod
    def from_query(cls, query: Query) -> "JoinGraph":
        """Build the join graph of a query from its binary join predicates."""
        edges = []
        for predicate in query.join_predicates:
            referenced = sorted(predicate.aliases())
            if len(referenced) == 2:
                edges.append(JoinEdge(referenced[0], referenced[1], predicate))
        return cls(query.alias_order, edges)

    # -- structure queries ----------------------------------------------------

    def neighbors(self, alias: str) -> list[str]:
        """Aliases adjacent to ``alias``."""
        return sorted({edge.other(alias) for edge in self._adjacency[alias]})

    def __repr__(self) -> str:
        return (
            f"JoinGraph(nodes={list(self.nodes)}, "
            f"edges=[{', '.join(str(e) for e in self.edges)}])"
        )
