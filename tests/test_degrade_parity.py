"""Degrade mode is strict mode plus containment, in one engine run.

Degrade mode builds the same single engine as strict mode, at the same
unroll bound, with failure containment armed.  Containment only acts
on a failure, so a program that passes in strict mode must pass in
degrade mode with the same result: identical exit states, the same
inferred predicates, no diagnostic, one attempt.  And an injected
analysis failure at any phase boundary must be contained by that one
run, never by a rerun.
"""

import pytest

from repro.analysis import ShapeAnalysis
from repro.analysis.interproc import PHASE_BOUNDARIES
from repro.benchsuite.runner import benchmark_factories
from repro.crucible.faults import PHASE_FAILURE_CODES, FaultPlan, FaultSpec
from repro.crucible.generator import generate_program
from repro.logic.canonical import canonical_key

PROGRAMS = [
    *((name, factory) for name, factory in sorted(benchmark_factories().items())),
    *(
        (f"crucible:{seed}", lambda s=seed: generate_program(s).program)
        for seed in range(1, 21)
    ),
]


def _analyze(program, name, mode, **kwargs):
    return ShapeAnalysis(program, name=name, mode=mode, **kwargs).run()


@pytest.mark.parametrize("name,factory", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_strict_pass_is_degrade_pass(name, factory):
    recorder = FaultPlan()
    strict = _analyze(
        factory(), name, "strict", engine_factory=recorder.engine_factory()
    )
    if strict.outcome != "pass":
        pytest.skip(f"{name} does not pass in strict mode")
    degrade = _analyze(factory(), name, "degrade")
    assert degrade.outcome == "pass"
    assert degrade.diagnostics == []
    assert degrade.attempts == 1
    assert sorted(map(canonical_key, degrade.exit_states)) == sorted(
        map(canonical_key, strict.exit_states)
    )
    assert len(degrade.predicates()) == len(strict.predicates())

    # A failure at the first crossing of each boundary the program
    # crosses is contained by that same single run.  (No deadline: a
    # contained body is never tabulated, so containing a tabulation
    # failure in power re-analyzes its callee at every call, ~10 s.)
    crossed = [phase for phase in PHASE_BOUNDARIES if recorder.crossings[phase]]
    assert crossed
    for phase in crossed:
        plan = FaultPlan([FaultSpec(phase, kind="failure")])
        faulted = _analyze(
            factory(), name, "degrade", engine_factory=plan.engine_factory()
        )
        assert plan.fired, phase
        assert faulted.outcome in ("pass", "degraded"), phase
        assert faulted.attempts == 1
        assert PHASE_FAILURE_CODES[phase] in {
            d.code for d in faulted.diagnostics if d.recovered
        }, phase
