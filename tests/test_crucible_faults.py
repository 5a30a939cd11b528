"""Chaos tests: deterministic fault injection at every phase boundary.

The acceptance bar: for each boundary (rearrange, fold, entailment,
synthesis, tabulation, store), an injected analysis failure must be
contained by degrade mode's one engine run -- the analysis completes,
the failure is classified with its documented code, and nothing
escapes as an exception.  An injected engine *exception* is not an
analysis failure: it fails the run with a fatal ``internal-error``
diagnostic, exactly like a real engine bug.
"""

import pytest

from repro.analysis import ShapeAnalysis
from repro.analysis.interproc import PHASE_BOUNDARIES
from repro.analysis.resilience import (
    BUDGET_EXHAUSTED,
    INTERNAL_ERROR,
    AnalysisFailure,
)
from repro.crucible.faults import (
    FAULT_KINDS,
    PHASE_FAILURE_CODES,
    FaultPlan,
    FaultSpec,
)
from repro.crucible.generator import generate_program


#: tree-sum: recursion, loops, and summaries -- crosses every boundary.
RICH_SEED = 5


def _rich_program():
    generated = generate_program(RICH_SEED)
    assert generated.skeleton == "tree-sum"
    return generated


def _run(mode, plan):
    generated = _rich_program()
    return ShapeAnalysis(
        generated.program,
        name=generated.name,
        mode=mode,
        engine_factory=plan.engine_factory(),
        deadline_seconds=20.0,
    ).run()


class TestBoundariesAreExercised:
    def test_plain_run_crosses_every_boundary(self):
        # A spec-less plan is a pure recorder: prove the seam is live
        # at all five boundaries, so injection there means something.
        plan = FaultPlan()
        result = _run("strict", plan)
        assert result.outcome == "pass"
        for phase in PHASE_BOUNDARIES:
            assert plan.crossings[phase] > 0, f"{phase} never crossed"


@pytest.mark.parametrize("phase", PHASE_BOUNDARIES)
class TestDegradeModeContainment:
    """One scenario per boundary: the injected failure is contained."""

    def test_injected_failure_is_contained(self, phase):
        plan = FaultPlan([FaultSpec(phase, kind="failure")])
        result = _run("degrade", plan)
        assert plan.fired, f"fault at {phase} never fired"
        # Contained in the one engine run: it completed and recorded
        # the documented code, recovered.
        assert result.outcome in ("pass", "degraded")
        recovered = [d for d in result.diagnostics if d.recovered]
        assert PHASE_FAILURE_CODES[phase] in {d.code for d in recovered}
        assert result.attempts == 1

    def test_injected_engine_bug_is_contained_as_internal_error(self, phase):
        # Contained means classified, never raised: an engine exception
        # fails the run with a fatal internal-error in either mode.
        plan = FaultPlan([FaultSpec(phase, kind="error")])
        result = _run("degrade", plan)
        assert plan.fired
        assert result.outcome == "failed"
        assert result.attempts == 1
        fatal = [d for d in result.diagnostics if not d.recovered]
        assert [d.code for d in fatal] == [INTERNAL_ERROR]
        assert result.failure.startswith("RuntimeError")

    def test_injected_budget_exhaustion_fails_without_retry(self, phase):
        # Budget exhaustion is never contained: outcome failed,
        # classified, 1 attempt.
        plan = FaultPlan([FaultSpec(phase, kind="budget")])
        result = _run("degrade", plan)
        assert plan.fired
        assert result.outcome == "failed"
        assert result.attempts == 1
        fatal = [d for d in result.diagnostics if not d.recovered]
        assert BUDGET_EXHAUSTED in {d.code for d in fatal}

    def test_injected_timeout_behaves_like_real_deadline(self, phase):
        plan = FaultPlan([FaultSpec(phase, kind="timeout")])
        result = _run("degrade", plan)
        assert plan.fired
        assert result.outcome == "failed"
        fatal = [d for d in result.diagnostics if not d.recovered]
        assert BUDGET_EXHAUSTED in {d.code for d in fatal}
        assert any(
            "deadline" in (d.detail or "") or "deadline" in d.message
            for d in fatal
        )


class TestStrictMode:
    def test_strict_mode_halts_on_injected_failure(self):
        plan = FaultPlan([FaultSpec("fold", kind="failure")])
        result = _run("strict", plan)
        assert result.outcome == "failed"
        assert result.failure is not None


class TestFaultSpec:
    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("osmosis")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("fold", kind="gremlin")

    def test_kinds_are_closed(self):
        assert set(FAULT_KINDS) == {"failure", "error", "budget", "timeout"}

    def test_nth_crossing_trigger(self):
        # at=2 must fire on the second crossing, not the first.
        plan = FaultPlan([FaultSpec("fold", kind="failure", at=2)])
        _run("degrade", plan)
        assert plan.fired == ["failure@fold#2"]

    def test_every_crossing_trigger_defeats_retry(self):
        # at=None fires on *every* crossing the one run makes; with no
        # rerun to get past it, the first failure abandons the entry
        # procedure (the containment story is per-fault, not magic).
        plan = FaultPlan([FaultSpec("fold", kind="failure", at=None)])
        result = _run("degrade", plan)
        assert len(plan.fired) == plan.crossings["fold"] >= 1
        assert result.outcome in ("degraded", "failed")
        assert result.attempts == 1

    def test_plan_raise_is_analysis_failure(self):
        plan = FaultPlan([FaultSpec("fold", kind="failure")])
        with pytest.raises(AnalysisFailure):
            # engine is only consulted by "timeout" faults
            plan.on_boundary(None, "fold", "main")
