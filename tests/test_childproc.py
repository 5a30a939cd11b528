"""Tests for the shared child-process plumbing (``repro.childproc``)
used by both the batch runner and the serve supervisor."""

import os
import signal

from repro.childproc import (
    CHILD_CHAOS_ENV,
    child_env,
    classify_exit,
    signal_name,
    surviving_trace,
    timeout_diagnostic,
    worker_crash_diagnostic,
)


class TestClassifyExit:
    def test_negative_returncode_names_the_signal(self):
        assert classify_exit(-signal.SIGKILL) == "SIGKILL"
        assert classify_exit(-signal.SIGSEGV) == "SIGSEGV"

    def test_ordinary_exits_are_not_signals(self):
        assert classify_exit(0) is None
        assert classify_exit(1) is None
        assert classify_exit(None) is None

    def test_signal_name_falls_back_to_number(self):
        assert signal_name(signal.SIGTERM) == "SIGTERM"
        assert signal_name(9999) == "signal 9999"


class TestChildEnv:
    def test_pythonpath_reaches_the_repro_package(self):
        env = child_env()
        import repro

        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        assert package_root in env["PYTHONPATH"].split(os.pathsep)

    def test_extra_variables_are_added(self):
        env = child_env({"REPRO_TEST_MARKER": "yes"})
        assert env["REPRO_TEST_MARKER"] == "yes"
        # and the base environment is not mutated
        assert "REPRO_TEST_MARKER" not in os.environ


class TestDiagnostics:
    def test_timeout_diagnostic_shape(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("{}\n")
        diagnostic = timeout_diagnostic(2.5, trace=str(trace))
        data = diagnostic.to_dict()
        assert data["code"] == "budget-exhausted"
        assert "2.5" in data["message"]
        assert "partial trace" in data["detail"]
        assert str(trace) in data["detail"]

    def test_timeout_diagnostic_without_trace(self):
        data = timeout_diagnostic(1.0, trace=None).to_dict()
        assert data["code"] == "budget-exhausted"
        assert not data.get("detail")

    def test_worker_crash_diagnostic_shape(self):
        data = worker_crash_diagnostic(
            "worker 0 died", signal="SIGKILL"
        ).to_dict()
        assert data["code"] == "worker-crashed"
        assert data["phase"] == "serve"
        assert "SIGKILL" in data["detail"]


class TestSurvivingTrace:
    def test_existing_nonempty_trace_survives(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"type":"event"}\n')
        assert surviving_trace(str(trace)) == str(trace)

    def test_missing_and_empty_traces_are_none(self, tmp_path):
        assert surviving_trace(None) is None
        assert surviving_trace(str(tmp_path / "nope.jsonl")) is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert surviving_trace(str(empty)) is None


class TestRunnerTimeoutDiagnostic:
    """The batch runner's child-timeout path must emit the structured
    diagnostic with the partial trace attached (not just a bare
    'timeout' outcome)."""

    def test_timeout_record_carries_diagnostic_and_partial_trace(
        self, monkeypatch, tmp_path
    ):
        from repro.benchsuite.runner import run_batch, trace_file_for

        monkeypatch.setenv(CHILD_CHAOS_ENV, "sleep:60")
        # The chaos child hangs before analyzing, so stand in for the
        # records a real child would have flushed before stalling (the
        # tracer is line-buffered precisely so these survive).
        trace_file_for(tmp_path, "treeadd").write_text(
            '{"type":"event","name":"engine.start"}\n'
        )
        report = run_batch(
            ["treeadd"],
            timeout=1.0,
            trace_dir=str(tmp_path),
        )
        (record,) = report.records
        assert record.outcome == "timeout"
        assert record.diagnostics, "timeout record lost its diagnostic"
        diagnostic = record.diagnostics[0]
        assert diagnostic["code"] == "budget-exhausted"
        assert "1.0" in diagnostic["message"]
        # The killed child's line-buffered trace survives and is
        # attached as evidence.
        assert record.trace is not None
        assert os.path.exists(record.trace)
        assert "partial trace" in diagnostic["detail"]
