"""Eddy-routable modules: selections, access methods, SteMs, join modules."""

from repro.core.modules.access import IndexAMModule, ScanAMModule
from repro.core.modules.base import EddyRuntime, Module, Routable
from repro.core.modules.joinmodule import IndexJoinModule, SymmetricHashJoinModule
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule

__all__ = [
    "EddyRuntime",
    "IndexAMModule",
    "IndexJoinModule",
    "Module",
    "Routable",
    "ScanAMModule",
    "SelectionModule",
    "SteMModule",
    "SymmetricHashJoinModule",
]
