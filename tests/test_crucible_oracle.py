"""Tests for the differential soundness oracle (claims A, B, C)."""

import pytest

from repro.analysis.resilience import (
    DIAGNOSTIC_CODES,
    EXECUTION_STUCK,
    SEVERITY_ERROR,
    SEVERITY_FATAL,
    Diagnostic,
)
from repro.analysis.results import AnalysisResult
from repro.benchsuite import TABLE4_PROGRAMS
from repro.crucible.generator import edit_program, generate_program
from repro.crucible.oracle import ConcreteOutcome, Oracle
from repro.ir.textual import parse_program
from repro.logic.predicates import PredicateEnv


def _fast_oracle(**kwargs):
    return Oracle(deadline_seconds=10.0, **kwargs)


class TestUnmutatedPoolIsClean:
    def test_skeleton_seeds_have_no_violations(self):
        oracle = _fast_oracle()
        for seed in range(1, 11):
            generated = generate_program(seed)
            report = oracle.check(generated.program, name=generated.name)
            assert report.ok, (
                f"seed {seed} ({generated.skeleton}): "
                f"{[v.message for v in report.violations]}"
            )
            assert report.analysis_outcome == "pass"
            assert report.concrete.status == "ok"


def _passed_result(exit_states=None, env=None):
    return AnalysisResult(
        benchmark="fake",
        instruction_count=1,
        pointer_seconds=0.0,
        slicing_seconds=0.0,
        shape_seconds=0.0,
        env=env or PredicateEnv(),
        exit_states=exit_states or [],
    )


def _failed_result(diagnostics):
    result = _passed_result()
    result.failure = "injected failure"
    result.diagnostics = diagnostics
    return result


class TestClaimA:
    def test_pass_plus_fault_is_a_violation(self):
        oracle = _fast_oracle(
            analyze=lambda program, name: _passed_result(),
            execute=lambda program: ConcreteOutcome(
                status="fault", error="null dereference"
            ),
        )
        report = oracle.check(parse_program("proc main():\n    return null"))
        assert not report.ok
        assert [v.claim for v in report.violations] == ["pass-implies-safe"]

    def test_pass_plus_ok_is_clean(self):
        oracle = _fast_oracle(
            analyze=lambda program, name: _passed_result(),
            execute=lambda program: ConcreteOutcome(status="ok"),
        )
        assert oracle.check(
            parse_program("proc main():\n    return null")
        ).ok

    def test_pass_plus_divergence_is_allowed(self):
        # Termination is not part of claim A: the analysis may pass a
        # program that runs forever.
        oracle = _fast_oracle(
            analyze=lambda program, name: _passed_result(),
            execute=lambda program: ConcreteOutcome(
                status="diverged", error="fuel exhausted"
            ),
        )
        assert oracle.check(
            parse_program("proc main():\n    return null")
        ).ok


class TestClaimB:
    def test_predicate_mismatch_is_a_violation(self):
        # The real analysis claims list(%ret) of list-build's result;
        # feed it a concrete "final heap" that is a two-cell cycle, on
        # which no list instance can hold.
        generated = generate_program(28)  # list-build
        assert generated.skeleton == "list-build"
        oracle = _fast_oracle(
            execute=lambda program: ConcreteOutcome(
                status="ok",
                value=1,
                cells={1: {"next": 2}, 2: {"next": 1}},
                reachable={1, 2},
            ),
        )
        report = oracle.check(generated.program, name=generated.name)
        assert not report.ok
        assert [v.claim for v in report.violations] == ["predicates-model-heap"]

    def test_real_heap_matches(self):
        generated = generate_program(28)
        report = _fast_oracle().check(generated.program, name=generated.name)
        assert report.ok


class TestClaimC:
    def test_documented_failure_is_clean(self):
        # A genuine strict-mode failure with a documented code is not a
        # violation -- failing is allowed, failing *unclassified* is not.
        program = parse_program(
            "proc main():\n    %x = null\n    %v = [%x.next]\n    return %v"
        )
        report = _fast_oracle().check(program)
        assert report.analysis_outcome == "failed"
        assert report.ok
        assert EXECUTION_STUCK in report.diagnostic_codes

    def test_undocumented_code_is_a_violation(self):
        oracle = _fast_oracle(
            documented_codes=frozenset(DIAGNOSTIC_CODES) - {EXECUTION_STUCK},
            analyze=lambda program, name: _failed_result(
                [
                    Diagnostic(
                        code=EXECUTION_STUCK,
                        message="stuck",
                        phase="shape",
                        severity=SEVERITY_FATAL,
                    )
                ]
            ),
            execute=lambda program: ConcreteOutcome(status="ok"),
        )
        report = oracle.check(parse_program("proc main():\n    return null"))
        assert [v.claim for v in report.violations] == ["diagnostic-taxonomy"]
        assert "undocumented diagnostic code" in report.violations[0].message

    def test_undocumented_phase_is_a_violation(self):
        oracle = _fast_oracle(
            analyze=lambda program, name: _failed_result(
                [
                    Diagnostic(
                        code=EXECUTION_STUCK,
                        message="stuck",
                        phase="astral-projection",
                        severity=SEVERITY_FATAL,
                    )
                ]
            ),
            execute=lambda program: ConcreteOutcome(status="ok"),
        )
        report = oracle.check(parse_program("proc main():\n    return null"))
        assert [v.claim for v in report.violations] == ["diagnostic-taxonomy"]
        assert "phase" in report.violations[0].message

    def test_failure_without_fatal_diagnostic_is_a_violation(self):
        oracle = _fast_oracle(
            analyze=lambda program, name: _failed_result([]),
            execute=lambda program: ConcreteOutcome(status="ok"),
        )
        report = oracle.check(parse_program("proc main():\n    return null"))
        assert [v.claim for v in report.violations] == ["diagnostic-taxonomy"]
        assert "without a fatal diagnostic" in report.violations[0].message

    def test_wrong_severity_is_a_violation(self):
        oracle = _fast_oracle(
            analyze=lambda program, name: _failed_result(
                [
                    Diagnostic(
                        code=EXECUTION_STUCK,
                        message="stuck",
                        phase="shape",
                        severity=SEVERITY_ERROR,
                    )
                ]
            ),
            execute=lambda program: ConcreteOutcome(status="ok"),
        )
        report = oracle.check(parse_program("proc main():\n    return null"))
        claims = [v.claim for v in report.violations]
        assert "diagnostic-taxonomy" in claims
        assert any("severity" in v.message for v in report.violations)


class TestInterpreterHealth:
    def test_interpreter_error_is_reported(self):
        oracle = _fast_oracle(
            analyze=lambda program, name: _passed_result(),
            execute=lambda program: ConcreteOutcome(
                status="interpreter-error", error="KeyError: 'ghost'"
            ),
        )
        report = oracle.check(parse_program("proc main():\n    return null"))
        assert "interpreter-health" in [v.claim for v in report.violations]

    def test_fuel_exhaustion_maps_to_structured_divergence(self):
        # An infinite loop: concrete execution diverges with the
        # structured concrete-divergence diagnostic, not a bare error.
        program = parse_program(
            "proc main():\nL:\n    goto L\n    return null"
        )
        oracle = Oracle(fuel=500, deadline_seconds=10.0)
        report = oracle.check(program)
        assert report.concrete.status == "diverged"
        assert report.concrete.diagnostic is not None
        assert report.concrete.diagnostic["code"] == "concrete-divergence"
        assert report.concrete.diagnostic["phase"] == "concrete"


class TestKnownArrayOverruns:
    """Two one-statement edits of ``181.mcf`` overrun its 500-node array
    ("store to unallocated address 501"), and strict mode passes both:
    a claim-A (pass implies safe) violation.  The ROADMAP item "A pass
    must imply safe on arrays: bound array regions" removes it; these
    strict xfails turn into failures the moment that lands, so they
    must be flipped to plain tests then."""

    @pytest.mark.xfail(
        strict=True,
        reason="array regions are unbounded (ROADMAP: a pass must imply "
        "safe on arrays: bound array regions)",
    )
    @pytest.mark.parametrize(
        "seed",
        [
            332561693,  # deletes `%i = 1` (main@7): an off-by-one
            368536336,  # deletes `%i = add %i, 1` (main@18): an unbounded walk
        ],
    )
    def test_mcf_array_overrun_edit_is_not_passed(self, seed):
        program, _notes = edit_program(TABLE4_PROGRAMS()["181.mcf"], seed)
        report = _fast_oracle().check(program)
        assert report.ok, [v.message for v in report.violations]
