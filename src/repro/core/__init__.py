"""The paper's core contribution: SteMs, the eddy, routing constraints, policies."""

from repro.core.constraints import ConstraintChecker, Destination
from repro.core.costs import PAPER_COSTS, ZERO_CPU_COSTS, CostModel
from repro.core.eddy import Eddy, OutputRecord
from repro.core.modules import (
    IndexAMModule,
    IndexJoinModule,
    Module,
    ScanAMModule,
    SelectionModule,
    SteMModule,
    SymmetricHashJoinModule,
)
from repro.core.policies import (
    BenefitPolicy,
    LotteryPolicy,
    NaivePolicy,
    RandomPolicy,
    RoutingPolicy,
    StaticOrderPolicy,
    make_policy,
)
from repro.core.stem import BuildOutcome, ProbeOutcome, SteM
from repro.core.stem_registry import SteMRegistry
from repro.core.tuples import (
    UNBUILT,
    EOTTuple,
    QTuple,
    Result,
    TupleIdAllocator,
    install_id_allocator,
)

__all__ = [
    "BenefitPolicy",
    "BuildOutcome",
    "ConstraintChecker",
    "CostModel",
    "Destination",
    "Eddy",
    "EOTTuple",
    "IndexAMModule",
    "IndexJoinModule",
    "LotteryPolicy",
    "Module",
    "NaivePolicy",
    "OutputRecord",
    "PAPER_COSTS",
    "ProbeOutcome",
    "QTuple",
    "RandomPolicy",
    "Result",
    "RoutingPolicy",
    "ScanAMModule",
    "SelectionModule",
    "SteM",
    "SteMModule",
    "SteMRegistry",
    "StaticOrderPolicy",
    "SymmetricHashJoinModule",
    "TupleIdAllocator",
    "UNBUILT",
    "ZERO_CPU_COSTS",
    "install_id_allocator",
    "make_policy",
]
