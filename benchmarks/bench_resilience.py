"""Resilience-layer benchmarks: the cost of failure semantics.

Three claims the resilience layer makes, measured:

* **strict-mode overhead is nil** -- the budget checks (one counter
  increment + deadline poll per worklist pop) do not change the shape
  phase measurably on a passing benchmark;
* **degrade mode costs nothing on a passing program** -- it is the
  same single engine run with containment armed, so degrade mode's
  wall time equals strict's;
* **containment is cheap** -- a program with one poisoned procedure
  degrades in the same order of time a passing run takes, not the
  deadline.

Every run records its outcome, attempt count, diagnostic count and
budget accounting in ``benchmark.extra_info``, so the
``--benchmark-json`` record carries the robustness columns next to the
timing columns.
"""

from __future__ import annotations

import pytest

from repro.analysis import ShapeAnalysis
from repro.benchsuite import TABLE4_PROGRAMS
from repro.ir import parse_program

#: A healthy suite member plus one poisoned procedure (a store through
#: null that the slicer must keep): degrade mode contains ``bad`` and
#: still analyzes the builder and the walker.
POISONED_SRC = """
proc bad():
    %p = null
    [%p.next] = %p
    return %p

proc build(%n):
    %head = null
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto L
done:
    return %head

proc main():
    %a = call bad()
    %h = call build(10)
    return %h
"""


def _record(benchmark, result):
    benchmark.extra_info["outcome"] = result.outcome
    benchmark.extra_info["attempts"] = result.attempts
    benchmark.extra_info["diagnostics"] = len(result.diagnostics)
    benchmark.extra_info["recovered"] = sum(
        d.count for d in result.diagnostics if d.recovered
    )
    benchmark.extra_info["budget"] = result.budget_stats
    return result


@pytest.mark.parametrize("mode", ["strict", "degrade"])
def test_mode_overhead_on_passing_benchmark(benchmark, mode):
    """strict vs degrade on a healthy benchmark: same work, one
    attempt, outcome ``pass`` either way."""
    result = _record(
        benchmark,
        benchmark(
            lambda: ShapeAnalysis(
                TABLE4_PROGRAMS()["treeadd"], name="treeadd", mode=mode
            ).run()
        ),
    )
    assert result.outcome == "pass"
    assert result.attempts == 1


def test_containment_cost(benchmark):
    """Degrading around a poisoned procedure: one engine run finishes
    in analysis time, with the failure contained to ``bad``."""
    result = _record(
        benchmark,
        benchmark(
            lambda: ShapeAnalysis(
                parse_program(POISONED_SRC), name="poisoned", mode="degrade"
            ).run()
        ),
    )
    assert result.outcome == "degraded"
    assert "build" in result.summaries
    assert "bad" not in result.summaries


def test_budget_check_overhead(benchmark):
    """A deadline that never fires: the per-pop deadline poll must not
    change the outcome (its cost rides along in the timing record,
    comparable against the no-deadline Table 4 row)."""
    result = _record(
        benchmark,
        benchmark(
            lambda: ShapeAnalysis(
                TABLE4_PROGRAMS()["181.mcf"],
                name="181.mcf",
                deadline_seconds=3600.0,
            ).run()
        ),
    )
    assert result.outcome == "pass"
    assert result.budget_stats["states"] > 0
