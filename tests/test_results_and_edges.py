"""Tests for result reporting and engine edge cases / resource caps."""

import pytest

from hypothesis import given, strategies as st

from repro.analysis import AnalysisFailure, ShapeAnalysis
from repro.analysis.interproc import ShapeEngine
from repro.ir import parse_program
from repro.logic import LIST_DEF, PredicateEnv, satisfies


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


class TestResults:
    def test_describe_success(self):
        result = ShapeAnalysis(parse_program(LIST_SRC), name="demo").run()
        text = result.describe()
        assert "demo" in text
        assert "inferred data types" in text
        assert "next" in text

    def test_describe_failure(self):
        result = ShapeAnalysis(
            parse_program(
                "proc main():\n    %p = null\n    %x = [%p.next]\n    return"
            ),
            name="bad",
            enable_slicing=False,
        ).run()
        assert "FAILED" in result.describe()

    def test_total_seconds(self):
        result = ShapeAnalysis(parse_program(LIST_SRC)).run()
        assert result.total_seconds == pytest.approx(
            result.pointer_seconds
            + result.slicing_seconds
            + result.shape_seconds
        )

    def test_stats_populated(self):
        result = ShapeAnalysis(parse_program(LIST_SRC)).run()
        assert result.stats["engine.states"] > 0
        assert result.stats["engine.invariants.synthesized"] >= 1
        assert result.stats["engine.procedures.analyzed"] >= 1

    def test_predicates_vs_recursive_predicates(self):
        result = ShapeAnalysis(parse_program(LIST_SRC)).run()
        assert set(result.recursive_predicates()) <= set(result.predicates())


class TestEngineCaps:
    def test_state_budget_reported(self):
        result = ShapeAnalysis(
            parse_program(LIST_SRC), state_budget=3
        ).run()
        assert not result.succeeded
        assert "budget" in result.failure

    def test_unguarded_recursion_reported(self):
        # a recursive procedure with no branch steering away from the
        # recursive call: the sample path cannot find a base case
        result = ShapeAnalysis(
            parse_program(
                """
proc spin(%n):
    %r = call spin(%n)
    return %r

proc main():
    %x = call spin(1)
    return %x
"""
            )
        ).run()
        assert not result.succeeded

    def test_engine_rejects_invalid_program(self):
        from repro.ir import IRError, Procedure, Program

        program = Program()
        program.add(Procedure("main", (), [], {}))
        # validate() fixes up the empty body; engine must accept it
        engine = ShapeEngine(program)
        exits = engine.analyze()
        assert exits

    def test_analysis_failure_is_exception_subclass(self):
        assert issubclass(AnalysisFailure, Exception)


class TestModelRandomized:
    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_corrupted_link_breaks_predicate(self, length, data):
        env = PredicateEnv()
        env.add(LIST_DEF)
        cells = {
            i: {"next": i + 1 if i < length else 0}
            for i in range(1, length + 1)
        }
        assert satisfies(env, "list", (1,), cells) == set(cells)
        # corrupt one link to a bogus address
        victim = data.draw(st.integers(min_value=1, max_value=length))
        cells[victim]["next"] = 9999
        assert satisfies(env, "list", (1,), cells) is None

    @given(st.integers(min_value=2, max_value=12), st.data())
    def test_cycle_breaks_predicate(self, length, data):
        env = PredicateEnv()
        env.add(LIST_DEF)
        cells = {
            i: {"next": i + 1 if i < length else 0}
            for i in range(1, length + 1)
        }
        victim = data.draw(st.integers(min_value=2, max_value=length))
        cells[victim]["next"] = data.draw(
            st.integers(min_value=1, max_value=victim)
        )
        assert satisfies(env, "list", (1,), cells) is None


class TestInvariantReporting:
    SRC = """
proc count(%o):
    if %o != null goto rec
    return 0
rec:
    %n = [%o.next]
    %r = call count(%n)
    %r = add %r, 1
    return %r

proc main():
    %n = 10
    %head = null
L:
    if %n <= 0 goto t
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto L
t:
    %c = call count(%head)
    return %head
"""

    def test_loop_invariants_surface(self):
        result = ShapeAnalysis(parse_program(self.SRC)).run()
        assert result.succeeded, result.failure
        assert result.loop_invariants
        (states,) = [
            v
            for (proc, _), v in result.loop_invariants.items()
            if proc == "main"
        ]
        assert any(s.spatial.pred_instances() for s in states)

    def test_procedure_summaries_surface(self):
        result = ShapeAnalysis(parse_program(self.SRC)).run()
        assert "count" in result.summaries
        entry, exits = result.summaries["count"][0]
        # requires a (possibly empty) list; ensures it is preserved
        assert entry.spatial.pred_instances() or len(entry.spatial) == 0

    def test_describe_invariants_text(self):
        result = ShapeAnalysis(parse_program(self.SRC)).run()
        text = result.describe_invariants()
        assert "loop main@" in text
        assert "proc count" in text
        assert "requires" in text and "ensures" in text

    def test_cli_invariants_flag(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        path = tmp_path / "prog.ir"
        path.write_text(self.SRC)
        code = cli_main([str(path), "--invariants"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loop invariants and procedure summaries" in out
