"""Tests for the resilience layer: diagnostics, budgets, degrade-mode
containment, the single-run contract, and the CLI failure exit codes."""

import time

import pytest

from repro import Budget, BudgetExhausted, Diagnostic, ShapeAnalysis
from repro.analysis.interproc import AnalysisFailure, ShapeEngine
from repro.analysis.resilience import (
    BUDGET_EXHAUSTED,
    EXECUTION_STUCK,
    INTERNAL_ERROR,
    INVARIANT_FAILURE,
)
from repro.benchsuite import TABLE4_PROGRAMS, mcf
from repro.crucible.generator import edit_program
from repro.ir import parse_program
from repro.__main__ import (
    EXIT_ANALYSIS_FAILED,
    EXIT_FRONTEND,
    EXIT_OK,
    EXIT_USAGE,
    main as cli_main,
)

#: One poisoned procedure (a definite store through null -- shape
#: relevant, so the slicer cannot remove it), two healthy ones:
#: containment must confine the failure to ``bad`` and still analyze
#: ``build``'s loop and ``walk``.
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

proc walk(%l):
    %c = %l
W:
    if %c == null goto out
    %c = [%c.next]
    goto W
out:
    return %l

proc main():
    %a = call bad()
    %h = call build(10)
    %k = call walk(%h)
    return %k
"""

#: A list whose head alone carries ``%g`` in ``d`` (the older nodes
#: have ``d`` null) and fourteen null payload fields.  No subset of the
#: head's fields validates as a segmentation: with ``next`` the child
#: fails the skeleton at ``d``; without it nothing repeats.
WIDE_NODE_SRC = """
proc main():
    %n = 10
    %g = malloc()
    [%g.next] = null
    %head = malloc()
    [%head.next] = null
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    [%p.d] = %g
    [%head.d] = null
""" + "".join(f"    [%p.f{i:02d}] = null\n" for i in range(14)) + """
    %head = %p
    %n = sub %n, 1
    goto L
done:
    return %head
"""

LIST_SRC = """
proc main():
    %n = 10
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
"""


class TestBudget:
    def test_deadline_expiry_is_prompt_and_reported(self):
        # The acceptance bar: a tiny deadline on the largest benchmark
        # terminates promptly with a budget-exhausted diagnostic
        # instead of hanging or crashing.
        start = time.perf_counter()
        result = ShapeAnalysis(
            mcf.full_program(),
            name="mcf",
            deadline_seconds=0.01,
            enable_slicing=False,
        ).run()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert not result.succeeded
        assert result.outcome == "failed"
        (diagnostic,) = [
            d for d in result.diagnostics if not d.recovered
        ]
        assert diagnostic.code == BUDGET_EXHAUSTED
        assert "deadline" in diagnostic.message

    def test_deadline_not_retried_in_degrade_mode(self):
        # Budget exhaustion is never contained: the one engine run ends
        # on it.
        result = ShapeAnalysis(
            mcf.full_program(),
            name="mcf",
            mode="degrade",
            deadline_seconds=0.01,
            enable_slicing=False,
        ).run()
        assert not result.succeeded
        assert result.attempts == 1
        assert result.diagnostics[-1].code == BUDGET_EXHAUSTED

    @pytest.mark.parametrize("deadline", [0.25, 1.0])
    def test_deadline_overshoot_in_synthesis_is_bounded(self, deadline):
        # The loop head's term is a node with 15 candidate recursion
        # points (14 null fields and ``next``) and no valid
        # segmentation, so every one of the 2**15 - 1 subsets is
        # validated, term after term (minutes undeadlined).  The search
        # polls the deadline per candidate validation.
        start = time.perf_counter()
        result = ShapeAnalysis(
            parse_program(WIDE_NODE_SRC),
            mode="degrade",
            deadline_seconds=deadline,
            enable_slicing=False,
        ).run()
        overshoot = time.perf_counter() - start - deadline
        assert result.outcome == "failed"
        diagnostic = result.diagnostics[-1]
        assert (diagnostic.code, diagnostic.phase) == (BUDGET_EXHAUSTED, "shape")
        assert overshoot <= 0.15

    def test_wide_search_edit_decides_before_the_deadline(self):
        # stmt-delete main@11 of 181.mcf used to search nested recursion
        # points for ~12 s and end budget-exhausted at any deadline; the
        # one-level search decides it in well under a second.
        program, _notes = edit_program(TABLE4_PROGRAMS()["181.mcf"], 170)
        result = ShapeAnalysis(
            program,
            name="edit:181.mcf@170",
            mode="degrade",
            deadline_seconds=5.0,
        ).run()
        codes = {d.code for d in result.diagnostics}
        assert result.outcome == "degraded"
        assert INVARIANT_FAILURE in codes
        assert BUDGET_EXHAUSTED not in codes

    def test_state_budget_exhaustion_reported(self):
        result = ShapeAnalysis(
            parse_program(LIST_SRC), state_budget=3
        ).run()
        assert not result.succeeded
        assert "budget" in result.failure
        assert result.diagnostics[0].code == BUDGET_EXHAUSTED

    def test_depth_guard_catches_runaway_activations(self):
        budget = Budget(max_depth=3)
        budget.start()
        budget.enter_procedure("a")
        budget.enter_procedure("b")
        budget.enter_procedure("c")
        with pytest.raises(BudgetExhausted):
            budget.enter_procedure("d")
        # the failed entry must not leak depth
        assert budget.depth == 3
        assert budget.peak_depth == 3

    def test_budget_snapshot_in_result(self):
        result = ShapeAnalysis(parse_program(LIST_SRC)).run()
        assert result.budget_stats["states"] > 0
        assert result.budget_stats["peak_depth"] >= 1
        assert result.budget_stats["deadline_seconds"] is None


class TestDegradeContainment:
    def test_strict_mode_halts_on_poisoned_procedure(self):
        result = ShapeAnalysis(parse_program(POISONED_SRC), mode="strict").run()
        assert not result.succeeded
        assert result.attempts == 1
        assert "stuck" in result.failure

    def test_degrade_contains_poison_and_analyzes_the_rest(self):
        result = ShapeAnalysis(parse_program(POISONED_SRC), mode="degrade").run()
        assert result.succeeded
        assert result.outcome == "degraded"
        # the healthy loop still gets a verified invariant and the
        # healthy procedures still get summaries
        assert ("build", 1) in result.loop_invariants
        assert "build" in result.summaries
        assert "walk" in result.summaries
        # the list predicate is still inferred from scratch
        assert any(
            {s.field for s in d.fields} == {"next"}
            for d in result.recursive_predicates()
        )
        # the poisoned procedure is not tabulated as a reusable summary
        assert "bad" not in result.summaries
        # and the containment is recorded with code + location
        contained = [
            d
            for d in result.diagnostics
            if d.recovered and d.procedure == "bad"
        ]
        assert contained
        assert contained[0].code == EXECUTION_STUCK
        assert contained[0].location() == "bad"

    def test_degrade_mode_keeps_clean_programs_identical(self):
        strict = ShapeAnalysis(parse_program(LIST_SRC), mode="strict").run()
        degrade = ShapeAnalysis(parse_program(LIST_SRC), mode="degrade").run()
        assert degrade.outcome == "pass"
        assert degrade.attempts == 1
        assert [str(d) for d in degrade.recursive_predicates()] == [
            str(d) for d in strict.recursive_predicates()
        ]

    def test_poisoned_loop_in_entry_contained(self):
        # the loop body dereferences null on every path: strict halts,
        # degrade drops the poisoned states and finishes the procedure
        src = """
proc main():
    %n = 10
    %q = null
L:
    if %n <= 0 goto done
    %x = [%q.next]
    %n = sub %n, 1
    goto L
done:
    return %n
"""
        strict = ShapeAnalysis(
            parse_program(src), mode="strict", enable_slicing=False
        ).run()
        assert not strict.succeeded
        degrade = ShapeAnalysis(
            parse_program(src), mode="degrade", enable_slicing=False
        ).run()
        assert degrade.succeeded
        assert degrade.degraded
        assert any(d.code == EXECUTION_STUCK for d in degrade.diagnostics)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ShapeAnalysis(parse_program(LIST_SRC), mode="loose").run()
        with pytest.raises(ValueError):
            ShapeEngine(parse_program(LIST_SRC), mode="loose")


class _FlakyEngine:
    """Fault-injection engine: fails exactly like an unsynthesizable
    loop at unroll=2, succeeds at unroll=3."""

    calls: list[tuple[int, str]] = []

    def __init__(self, program, env, *, max_unroll, state_budget, mode, budget):
        self.inner = ShapeEngine(
            program,
            env,
            max_unroll=max_unroll,
            state_budget=state_budget,
            mode=mode,
            budget=budget,
        )
        self.max_unroll = max_unroll
        type(self).calls.append((max_unroll, mode))

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def analyze(self):
        if self.max_unroll < 3:
            raise AnalysisFailure(
                "loop at main@1 did not converge",
                code=INVARIANT_FAILURE,
                procedure="main",
                loop_header=1,
            )
        return self.inner.analyze()


class _CrashingEngine(_FlakyEngine):
    def analyze(self):
        raise RecursionError("synthetic stack blowout")


class TestRetryEscalation:
    """There is no retry ladder: either mode builds exactly one engine,
    at the configured unroll bound, in the requested mode."""

    def test_unroll_2_failure_is_not_retried(self):
        # A loop that only unroll=3 could synthesize is reported, not
        # rescued by an escalated rerun: degrade mode's containment is
        # the engine's, and this failure escapes the engine whole.
        _FlakyEngine.calls = []
        result = ShapeAnalysis(
            parse_program(LIST_SRC),
            mode="degrade",
            engine_factory=_FlakyEngine,
        ).run()
        assert result.outcome == "failed"
        assert result.attempts == 1
        assert _FlakyEngine.calls == [(2, "degrade")]
        (fatal,) = result.diagnostics
        assert fatal.code == INVARIANT_FAILURE
        assert not fatal.recovered
        assert fatal.location() == "main@1"

    def test_strict_mode_never_retries(self):
        _FlakyEngine.calls = []
        result = ShapeAnalysis(
            parse_program(LIST_SRC),
            mode="strict",
            engine_factory=_FlakyEngine,
        ).run()
        assert not result.succeeded
        assert result.attempts == 1
        assert _FlakyEngine.calls == [(2, "strict")]

    def test_escalation_disabled(self):
        # No knob re-enables escalation or a global state cap.
        for knob in ("escalate_unroll", "max_states"):
            with pytest.raises(TypeError):
                ShapeAnalysis(parse_program(LIST_SRC), **{knob: 3})
        _FlakyEngine.calls = []
        result = ShapeAnalysis(
            parse_program(LIST_SRC),
            mode="degrade",
            max_unroll=3,
            engine_factory=_FlakyEngine,
        ).run()
        assert result.outcome == "pass"
        assert _FlakyEngine.calls == [(3, "degrade")]


class TestInternalErrorWrapping:
    def test_unexpected_exception_becomes_diagnostic(self):
        result = ShapeAnalysis(
            parse_program(LIST_SRC),
            engine_factory=_CrashingEngine,
        ).run()
        assert not result.succeeded
        assert result.diagnostics[-1].code == INTERNAL_ERROR
        assert "RecursionError" in result.failure

    def test_diagnostic_classification_helpers(self):
        diagnostic = Diagnostic.from_exception(ValueError("boom"))
        assert diagnostic.code == INTERNAL_ERROR
        assert diagnostic.location() == "<program>"
        assert diagnostic.to_dict()["message"] == "ValueError: boom"
        failure = AnalysisFailure(
            "x", code=INVARIANT_FAILURE, procedure="p", loop_header=4
        )
        assert failure.to_diagnostic().location() == "p@4"

    def test_prepass_exception_becomes_diagnostic(self, monkeypatch):
        import repro.analysis.engine as engine_module

        def broken(program, pointers):
            raise ValueError("prepass boom")

        monkeypatch.setattr(engine_module, "recursive_types", broken)
        result = ShapeAnalysis(parse_program(LIST_SRC)).run()
        assert result.outcome == "failed"
        assert [d.code for d in result.diagnostics] == [INTERNAL_ERROR]
        assert result.failure == "ValueError: prepass boom"


class TestDeepGraphs:
    """Graphs deeper than Python's recursion limit: every graph walk is
    iterative, so ``run()`` decides instead of raising."""

    def test_long_straight_line_passes(self):
        # The pre-pass walks each register's live region once and the
        # slicer's closure is a worklist, so a chain is linear.
        body = "".join(f"    %x{i} = %x{i - 1}\n" for i in range(1, 3000))
        result = ShapeAnalysis(
            parse_program(
                f"proc main():\n    %x0 = malloc()\n{body}    return %x2999\n"
            )
        ).run()
        assert result.outcome == "pass"
        assert result.diagnostics == []

    def test_long_fan_out_passes(self):
        # One definition with 3,000 uses: a walk per use, rather than
        # one per register, would be quadratic here.
        body = "".join(f"    %y{i} = %x0\n" for i in range(1, 3000))
        result = ShapeAnalysis(
            parse_program(
                f"proc main():\n    %x0 = malloc()\n{body}    return %y2999\n"
            )
        ).run()
        assert result.outcome == "pass"
        assert result.diagnostics == []

    def test_deep_call_chain_halts_at_the_activation_bound(self):
        chain = "".join(
            f"proc p{i}(%a):\n    %r = call p{i + 1}(%a)\n    return %r\n\n"
            for i in range(1, 1500)
        )
        result = ShapeAnalysis(
            parse_program(
                "proc main():\n    %a = malloc()\n    %r = call p1(%a)\n"
                f"    return %r\n\n{chain}proc p1500(%a):\n    return %a\n"
            )
        ).run()
        assert result.outcome == "failed"
        assert [d.code for d in result.diagnostics] == [BUDGET_EXHAUSTED]
        assert "procedure activation depth exceeded 96" in result.failure


class TestCLIExitCodes:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_frontend_error_exit_code(self, tmp_path, capsys):
        bad_c = self._write(tmp_path, "bad.c", "int main( {")
        assert cli_main([bad_c]) == EXIT_FRONTEND
        assert "ParseError" in capsys.readouterr().err

    def test_ir_parse_error_exit_code(self, tmp_path, capsys):
        bad_ir = self._write(tmp_path, "bad.ir", "proc main(:\n  return")
        assert cli_main([bad_ir]) == EXIT_FRONTEND

    def test_missing_file_is_usage_error(self, capsys):
        assert cli_main(["/nonexistent/path.c"]) == EXIT_USAGE

    def test_no_file_is_usage_error(self, capsys):
        assert cli_main([]) == EXIT_USAGE

    def test_analysis_failure_exit_code(self, tmp_path, capsys):
        bad = "proc main():\n    %p = null\n    %x = [%p.next]\n    return"
        path = self._write(tmp_path, "bad.ir", bad)
        assert cli_main([path, "--no-slicing"]) == EXIT_ANALYSIS_FAILED

    def test_degrade_mode_flag(self, tmp_path, capsys):
        bad = "proc main():\n    %p = null\n    %x = [%p.next]\n    return"
        path = self._write(tmp_path, "bad.ir", bad)
        code = cli_main([path, "--no-slicing", "--mode", "degrade"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "DEGRADED" in out
        assert "execution-stuck" in out

    def test_json_record_written(self, tmp_path, capsys):
        import json

        path = self._write(
            tmp_path,
            "list.ir",
            LIST_SRC,
        )
        out_path = tmp_path / "result.json"
        assert cli_main([path, "--json", str(out_path)]) == EXIT_OK
        record = json.loads(out_path.read_text())
        assert record["outcome"] == "pass"
        assert record["budget"]["states"] > 0

    def test_deadline_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, "list.ir", LIST_SRC)
        # generous deadline: passes
        assert cli_main([path, "--deadline", "60"]) == EXIT_OK
