"""Join graphs: the graph whose nodes are aliases and edges are join predicates.

The join graph drives three things:

* connectivity checks (a disconnected graph implies cross products, which we
  permit but flag);
* cycle detection — cyclic queries need the ProbeCompletion constraint
  (paper section 3.4);
* spanning-tree enumeration — traditional optimizers pick one spanning tree
  statically; the SteM architecture effectively chooses among them at
  runtime, and the static baseline executor needs to pick one explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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

    def edges_between(self, left: str, right: str) -> list[JoinEdge]:
        """All edges (join predicates) between two aliases."""
        return [edge for edge in self._adjacency[left] if edge.other(left) == right]

    @property
    def connected_components(self) -> list[frozenset[str]]:
        """The connected components of the graph."""
        remaining = set(self.nodes)
        components: list[frozenset[str]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in self.neighbors(node):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            components.append(frozenset(seen))
            remaining -= seen
        return components

    @property
    def is_connected(self) -> bool:
        """True if every pair of aliases is joined (no cross products)."""
        return len(self.connected_components) <= 1

    @property
    def is_cyclic(self) -> bool:
        """True if the graph contains a cycle (counting parallel edges).

        Cyclic queries are the class needing the ProbeCompletion constraint.
        """
        distinct_pairs = {frozenset((e.left, e.right)) for e in self.edges}
        if len(self.edges) > len(distinct_pairs):
            return True
        # A forest has (nodes - components) edges; more edges means a cycle.
        return len(distinct_pairs) > len(self.nodes) - len(self.connected_components)

    # -- spanning trees -------------------------------------------------------

    def spanning_tree(self, root: str | None = None) -> list[JoinEdge]:
        """One spanning tree (forest, if disconnected), found by BFS.

        Args:
            root: preferred starting alias; defaults to the first node.
        """
        if not self.nodes:
            return []
        order = list(self.nodes)
        if root is not None:
            if root not in self._adjacency:
                raise QueryError(f"unknown alias {root!r}")
            order.remove(root)
            order.insert(0, root)
        visited: set[str] = set()
        tree: list[JoinEdge] = []
        for start in order:
            if start in visited:
                continue
            visited.add(start)
            frontier = [start]
            while frontier:
                node = frontier.pop(0)
                for edge in self._adjacency[node]:
                    neighbor = edge.other(node)
                    if neighbor not in visited:
                        visited.add(neighbor)
                        tree.append(edge)
                        frontier.append(neighbor)
        return tree

    def spanning_trees(self, limit: int | None = None) -> Iterator[list[JoinEdge]]:
        """Enumerate spanning trees of a *connected* graph.

        Uses brute-force enumeration of edge subsets of size ``n-1``; fine
        for the small query graphs of the paper (a handful of tables).

        Args:
            limit: stop after yielding this many trees.
        """
        if not self.is_connected:
            raise QueryError("spanning_trees requires a connected join graph")
        needed = len(self.nodes) - 1
        count = 0
        for subset in itertools.combinations(self.edges, needed):
            if self._is_spanning(subset):
                yield list(subset)
                count += 1
                if limit is not None and count >= limit:
                    return

    def _is_spanning(self, edges: Sequence[JoinEdge]) -> bool:
        parent = {node: node for node in self.nodes}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for edge in edges:
            left_root, right_root = find(edge.left), find(edge.right)
            if left_root == right_root:
                return False
            parent[left_root] = right_root
        roots = {find(node) for node in self.nodes}
        return len(roots) == 1

    def __repr__(self) -> str:
        return (
            f"JoinGraph(nodes={list(self.nodes)}, "
            f"edges=[{', '.join(str(e) for e in self.edges)}])"
        )
