"""Tests for the observability subsystem: tracer span balance (also
under exceptions and budget aborts), byte-determinism of the trace wire
format, the metrics registry, the trace-summary
tree, engine/batch integration, and the disabled-tracer overhead
budget."""

import io
import json

import pytest

from repro import obs
from repro.analysis import ShapeAnalysis
from repro.analysis.resilience import BudgetExhausted
from repro.benchsuite.runner import run_batch, trace_file_for
from repro.ir import parse_program
from repro.obs import (
    Metrics,
    NULL_METRICS,
    NULL_TRACER,
    Tracer,
    merge_stat_dicts,
)
from repro.obs.overhead import BUDGET_PCT, estimate_overhead, measure_guard_ns
from repro.obs.summary import load_trace, render_trace_summary, summarize_trace
from repro.reporting import render_batch_report
from repro.__main__ import main as cli_main

LIST_IR = """
proc main():
    %n = 5
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


class FakeClock:
    """Deterministic monotonic clock: each call advances by one tick."""

    def __init__(self, step: float = 0.5):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def records_of(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def assert_balanced(records: list[dict]) -> None:
    """Every id unique, every non-root parent refers to a record in the
    file -- i.e. every opened span was closed exactly once."""
    ids = [r["id"] for r in records]
    assert len(ids) == len(set(ids))
    known = set(ids)
    for record in records:
        assert record["parent"] == 0 or record["parent"] in known


class TestTracer:
    def test_nesting_and_child_before_parent(self):
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock())
        with tracer.span("outer", who="a"):
            with tracer.span("inner"):
                tracer.event("ping", n=1)
        tracer.close()
        records = records_of(sink)
        assert [r["name"] for r in records] == ["ping", "inner", "outer"]
        event, inner, outer = records
        assert outer["parent"] == 0
        assert inner["parent"] == outer["id"]
        assert event["parent"] == inner["id"]
        assert outer["attrs"] == {"who": "a"}
        assert_balanced(records)

    def test_exception_records_error_and_closes(self):
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        records = records_of(sink)
        assert_balanced(records)
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["attrs"]["error"] == "ValueError"
        assert by_name["outer"]["attrs"]["error"] == "ValueError"

    def test_budget_exhausted_mid_span_closes_all(self):
        """The deadline abort path: BudgetExhausted unwinds through
        arbitrarily deep span nesting and every span still gets exactly
        one record."""
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock())
        with pytest.raises(BudgetExhausted):
            with tracer.span("analysis"):
                with tracer.span("fixpoint"):
                    with tracer.span("loop.synthesize"):
                        raise BudgetExhausted("deadline", resource="deadline")
        tracer.close()
        records = records_of(sink)
        assert len(records) == 3
        assert_balanced(records)
        assert all(r["attrs"]["error"] == "BudgetExhausted" for r in records)

    def test_leaked_children_marked_aborted(self):
        """A parent ended without its children unwinding (non-local
        exit) closes the leaked children first, marked aborted."""
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock())
        outer = tracer.span("outer")
        outer.__enter__()
        tracer.span("leaked").__enter__()  # never exited
        outer.__exit__(None, None, None)
        records = records_of(sink)
        assert_balanced(records)
        by_name = {r["name"]: r for r in records}
        assert by_name["leaked"]["attrs"].get("aborted") is True
        assert "aborted" not in by_name["outer"]["attrs"]

    def test_close_force_closes_open_spans(self):
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock())
        tracer.span("still-open").__enter__()
        tracer.close()
        tracer.close()  # idempotent
        records = records_of(sink)
        assert len(records) == 1
        assert records[0]["attrs"].get("aborted") is True

    def test_byte_determinism_under_stubbed_clock(self):
        def run() -> str:
            sink = io.StringIO()
            tracer = Tracer(sink, clock=FakeClock(0.125))
            with tracer.span("a", k=1):
                tracer.event("e", z=True, a=None)
                with tracer.span("b"):
                    pass
            tracer.close()
            return sink.getvalue()

        first, second = run(), run()
        assert first == second
        # compact separators + sorted keys: stable canonical bytes
        assert '"attrs":{"a":null,"z":true}' in first

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("x", a=1)
        with span:
            span["k"] = "v"
        NULL_TRACER.event("e")
        NULL_TRACER.close()
        assert NULL_TRACER.enabled is False


class TestMetrics:
    def test_counters_gauges_histograms(self):
        metrics = Metrics()
        metrics.inc("engine.states")
        metrics.inc("engine.states", 4)
        metrics.gauge("incr.cone.size", 2)
        metrics.observe("h", 1.0)
        metrics.observe("h", 3.0)
        out = metrics.to_dict()
        assert out["engine.states"] == 5
        assert out["incr.cone.size"] == 2
        assert out["h.count"] == 2 and out["h.sum"] == 4.0
        assert out["h.min"] == 1.0 and out["h.max"] == 3.0
        assert list(out) == sorted(out)

    def test_merge(self):
        a, b = Metrics(), Metrics()
        a.inc("x", 1)
        b.inc("x", 2)
        b.gauge("g", 7)
        b.observe("h", 2.0)
        a.merge(b)
        assert a.counter("x") == 3
        assert a.gauges["g"] == 7
        assert a.histograms["h"]["count"] == 1

    def test_check_schema_flags_unknown_names(self):
        metrics = Metrics()
        metrics.inc("engine.states")
        metrics.inc("engine.made.up")
        assert metrics.check_schema() == ["engine.made.up"]

    def test_null_metrics_inert(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.gauge("g", 1)
        assert NULL_METRICS.counter("x") == 0
        assert NULL_METRICS.to_dict() == {}
        assert NULL_METRICS.enabled is False

    def test_merge_stat_dicts(self):
        into: dict = {}
        merge_stat_dicts(into, {
            "engine.states": 5,
            "phase.shape.seconds": 1.5,
            "incr.cone.size": 1,
            "failure": "nope",     # non-numeric: skipped
        })
        merge_stat_dicts(into, {
            "engine.states": 7,
            "phase.shape.seconds": 0.5,
            "incr.cone.size": 3,
        })
        assert into["engine.states"] == 12      # counters sum
        assert into["phase.shape.seconds"] == 2.0  # time gauges sum
        assert into["incr.cone.size"] == 3      # other gauges keep max
        assert "failure" not in into

    def test_activate_restores_instruments(self):
        metrics = Metrics()
        assert obs.METRICS is NULL_METRICS
        with pytest.raises(RuntimeError):
            with obs.activate(metrics=metrics):
                assert obs.METRICS is metrics
                raise RuntimeError
        assert obs.METRICS is NULL_METRICS
        assert obs.TRACER is NULL_TRACER


class TestSummary:
    def _trace(self) -> list[dict]:
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock(0.25))
        with tracer.span("analysis"):
            with tracer.span("fixpoint"):
                tracer.event("entailment.query")
            with tracer.span("fixpoint"):
                pass
        tracer.close()
        return records_of(sink)

    def test_aggregates_same_name_same_path(self):
        root = summarize_trace(self._trace())
        analysis = root.children["analysis"]
        fixpoint = analysis.children["fixpoint"]
        assert fixpoint.count == 2
        assert fixpoint.children["entailment.query"].count == 1
        assert analysis.total_seconds >= fixpoint.total_seconds
        assert analysis.self_seconds == pytest.approx(
            analysis.total_seconds - fixpoint.total_seconds
        )

    def test_render_indents_and_orders(self):
        text = render_trace_summary(self._trace())
        lines = [line for line in text.splitlines() if "|" in line]
        assert any("analysis" in line for line in lines)
        assert any("  fixpoint" in line for line in lines)

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        good = json.dumps({
            "type": "span", "id": 1, "parent": 0, "name": "a",
            "start": 0.0, "end": 1.0, "attrs": {},
        })
        path.write_text(good + "\n" + '{"type":"span","id":2,"par\n')
        records = load_trace(path)
        assert len(records) == 1
        assert "a" in render_trace_summary(records)

    def test_empty_trace_renders_message(self):
        assert "empty trace" in render_trace_summary([])


class TestEngineIntegration:
    def test_trace_path_produces_balanced_tree(self, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        result = ShapeAnalysis(
            parse_program(LIST_IR), name="list", trace_path=trace
        ).run()
        assert result.succeeded
        records = load_trace(trace)
        assert_balanced(records)
        names = {r["name"] for r in records}
        assert {"analysis", "phase.pointer", "phase.slicing", "phase.shape",
                "procedure", "fixpoint"} <= names
        # one engine run: procedures nest directly under phase.shape
        assert "attempt" not in names
        # instruments deactivated after the run
        assert obs.TRACER is NULL_TRACER
        assert obs.METRICS is NULL_METRICS

    def test_stats_carry_canonical_keys(self):
        result = ShapeAnalysis(parse_program(LIST_IR), name="list").run()
        stats = result.to_record()["stats"]
        assert stats["engine.states"] > 0
        assert stats["engine.invariants.synthesized"] >= 1
        assert stats["entailment.queries"] > 0
        assert stats["fold.calls"] > 0
        assert stats["synthesis.terms"] > 0
        # everything recorded is in the canonical schema (flattened
        # histogram components like `.p99` / `.bucket.<i>` count as
        # canonical when their base name is a schema histogram)
        unknown = [
            k for k in stats
            if "." in k and not obs.is_schema_name(k)
        ]
        assert unknown == []

    def test_deadline_abort_trace_stays_balanced(self, tmp_path):
        trace = tmp_path / "aborted.trace.jsonl"
        result = ShapeAnalysis(
            parse_program(LIST_IR),
            name="list",
            trace_path=trace,
            deadline_seconds=0.0,
        ).run()
        assert not result.succeeded
        assert_balanced(load_trace(trace))

    def test_engine_stats_attribute_view(self):
        """`engine.stats.states`-style access (the seed API) still works
        on a directly-constructed engine."""
        from repro.analysis.interproc import ShapeEngine

        engine = ShapeEngine(parse_program(LIST_IR))
        engine.analyze()
        assert engine.stats.states > 0
        assert engine.stats.instructions > 0
        assert engine.stats.procedures == engine.metrics.counter(
            "engine.procedures.analyzed"
        )


class TestBatchIntegration:
    def test_trace_dir_collects_per_benchmark_traces(self, tmp_path):
        report = run_batch(
            names=["list-build", "list-reverse"],
            trace_dir=tmp_path,
        )
        for record in report.records:
            assert record.trace is not None
            records = load_trace(record.trace)
            assert_balanced(records)
            assert any(r["name"] == "analysis" for r in records)

    def test_metrics_aggregated_per_outcome(self, tmp_path):
        report = run_batch(names=["list-build", "list-reverse"])
        payload = report.to_dict()
        assert "metrics" in payload
        merged = payload["metrics"]
        outcome = report.records[0].outcome
        per_run = sum(
            r.result["stats"]["engine.states"] for r in report.records
        )
        assert merged[outcome]["engine.states"] == per_run
        assert all("." in name for name in merged[outcome])

    def test_isolated_child_round_trips_trace_path(self, tmp_path):
        report = run_batch(names=["list-build"], trace_dir=tmp_path)
        (record,) = report.records
        assert record.outcome == "pass"
        assert record.trace == str(trace_file_for(tmp_path, "list-build"))
        assert_balanced(load_trace(record.trace))

    def test_trace_file_name_sanitized(self, tmp_path):
        path = trace_file_for(tmp_path, "crucible:7+2")
        assert path.name == "crucible_7_2.trace.jsonl"


class TestBatchReportRendering:
    def _report(self, **run_overrides) -> dict:
        run = {
            "name": "b1", "outcome": "pass", "seconds": 0.1,
            "diagnostics": [], "error": None, "signal": None,
        }
        run.update(run_overrides)
        return {"mode": "degrade", "runs": [run],
                "counts": {"pass": 1}, "budget": {}}

    def test_long_note_ellipsized(self):
        note = "x" * 80
        text = render_batch_report(self._report(error=note))
        assert "x" * 57 + "..." in text
        assert "x" * 58 not in text

    def test_short_note_not_ellipsized(self):
        text = render_batch_report(self._report(error="short note"))
        assert "short note" in text and "..." not in text

    def test_signal_column_only_when_signalled(self):
        quiet = render_batch_report(self._report())
        assert "Signal" not in quiet
        loud = render_batch_report(
            self._report(outcome="crashed", signal="SIGKILL")
        )
        assert "Signal" in loud and "SIGKILL" in loud


class TestCLI:
    def test_trace_flag_and_summary_subcommand(self, tmp_path, capsys):
        src = tmp_path / "list.ir"
        src.write_text(LIST_IR)
        trace = tmp_path / "t.jsonl"
        assert cli_main([str(src), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "analysis" in out and "fixpoint" in out

    def test_metrics_flag(self, tmp_path, capsys):
        src = tmp_path / "list.ir"
        src.write_text(LIST_IR)
        assert cli_main([str(src), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Engine metrics" in out
        assert "engine.states" in out

    def test_builtin_benchmark_name(self, capsys, tmp_path):
        trace = tmp_path / "b.jsonl"
        assert cli_main(["list-build", "--trace", str(trace)]) == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "inferred data types" in out

    def test_unknown_name_reports_usage(self, capsys):
        assert cli_main(["definitely-not-a-benchmark"]) == 2
        err = capsys.readouterr().err
        assert "built-in benchmark" in err

    def test_trace_summary_missing_file(self, capsys):
        assert cli_main(["trace-summary", "/nonexistent/t.jsonl"]) == 2


class TestOverheadBudget:
    def test_guard_cost_is_nanoseconds(self):
        ns = measure_guard_ns(iterations=200_000)
        assert 0 < ns < 1000  # a guarded no-op is not microseconds

    def test_overhead_under_budget(self):
        verdict = estimate_overhead(
            benchmarks=["treeadd"], guard_iterations=200_000
        )
        assert verdict["benchmarks"]["treeadd"]["outcome"] == "pass"
        assert verdict["guard_checks"] > 0
        assert verdict["overhead_pct"] < BUDGET_PCT
        assert verdict["ok"] is True
