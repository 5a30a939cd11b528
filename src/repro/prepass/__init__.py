"""Pre-pass (paper, §5.1): fast pointer analysis, one sparse walk for
def-use chains and register liveness, recursive-type identification,
and shape-relevance slicing."""

from repro.prepass.defuse import DefUse
from repro.prepass.rectypes import recursive_types, traversal_loads
from repro.prepass.slicing import SliceResult, slice_program
from repro.prepass.steensgaard import InferredType, PointerAnalysis

__all__ = [
    "DefUse",
    "InferredType",
    "PointerAnalysis",
    "SliceResult",
    "recursive_types",
    "slice_program",
    "traversal_loads",
]
