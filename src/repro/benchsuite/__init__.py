"""The benchmark programs of the paper's Table 4 (plus list staples):
181.mcf kernels and the Olden benchmarks treeadd, bisort, perimeter
and power, written in the textual IR.

:mod:`repro.benchsuite.runner` (imported lazily to avoid a cycle)
drives the whole suite through a crash-isolating batch runner with
per-run timeouts and structured pass/degraded/failed/crashed reports.
"""

from typing import Callable

from repro.benchsuite import (
    bisort,
    csources,
    entailstress,
    extensions,
    lemmaprogs,
    listprogs,
    mcf,
    perimeter,
    power,
    treeadd,
)
from repro.ir import Program

__all__ = [
    "TABLE4_PROGRAMS",
    "bisort",
    "csources",
    "entailstress",
    "extensions",
    "lemmaprogs",
    "listprogs",
    "mcf",
    "perimeter",
    "power",
    "table4_builders",
    "treeadd",
]


def table4_builders() -> dict[str, Callable[[], Program]]:
    """Name -> builder of each Table 4 benchmark program."""
    return {
        "181.mcf": mcf.full_program,
        "treeadd": treeadd.program,
        "bisort": bisort.program,
        "perimeter": perimeter.program,
        "power": power.program,
    }


def TABLE4_PROGRAMS() -> dict[str, Program]:
    """Fresh copies of the five Table 4 benchmark programs."""
    return {name: build() for name, build in table4_builders().items()}


def __getattr__(name: str):
    # Lazy: runner imports table4_builders from this module.
    if name == "runner":
        from repro.benchsuite import runner

        return runner
    raise AttributeError(name)
