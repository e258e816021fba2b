"""The static engine's joins: a left-deep pipeline of hash and nested-loops joins."""

from repro.joins.base import (
    BinaryJoin,
    Composite,
    EquiJoinSpec,
    extract_equi_join,
    merge,
    satisfies,
    singleton,
)
from repro.joins.hash_join import HashJoin
from repro.joins.nested_loops import NestedLoopsJoin
from repro.joins.pipeline import base_input, execute_left_deep

__all__ = [
    "BinaryJoin",
    "Composite",
    "EquiJoinSpec",
    "HashJoin",
    "NestedLoopsJoin",
    "base_input",
    "execute_left_deep",
    "extract_equi_join",
    "merge",
    "satisfies",
    "singleton",
]
