"""Tests for the crash-isolating batch runner and its report."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.benchsuite.runner import (
    BatchReport,
    RunRecord,
    benchmark_factories,
    main as runner_main,
    parse_child_output,
    run_batch,
    run_one,
)
from repro.childproc import CHILD_CHAOS_ENV, child_env
from repro.reporting import render_batch_report
from repro.__main__ import main as cli_main


class TestRunOne:
    def test_pass_record(self):
        record = run_one("treeadd")
        assert record.outcome == "pass"
        assert record.result["benchmark"] == "treeadd"
        assert record.result["recursive_predicates"] >= 1
        assert record.seconds > 0

    def test_unknown_benchmark_is_crash_record_not_exception(self):
        record = run_one("no-such-benchmark")
        assert record.outcome == "crashed"
        assert "no-such-benchmark" in record.error

    def test_record_round_trips_through_json(self):
        record = run_one("list-build")
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.outcome == record.outcome
        assert clone.result == record.result

    def test_resolving_a_name_builds_only_that_program(self, monkeypatch):
        from repro.benchsuite import bisort, mcf, perimeter, power, treeadd
        from repro.benchsuite.runner import _resolve_benchmark

        built = []
        for module, attr in (
            (mcf, "full_program"),
            (treeadd, "program"),
            (bisort, "program"),
            (perimeter, "program"),
            (power, "program"),
        ):
            real = getattr(module, attr)

            def counting(real=real, module=module):
                built.append(module.__name__)
                return real()

            monkeypatch.setattr(module, attr, counting)
        _resolve_benchmark("list-build")
        assert built == []
        _resolve_benchmark("treeadd")
        assert built == [treeadd.__name__]


class TestBatchInProcess:
    def test_counts_and_ok(self):
        report = run_batch(["treeadd", "list-build"])
        assert report.counts["pass"] == 2
        assert report.ok
        assert report.budget_totals()["states"] > 0

    def test_deadline_produces_failed_count(self):
        report = run_batch(["181.mcf"], deadline=0.001, mode="strict")
        assert report.counts["failed"] == 1
        assert not report.ok
        (record,) = report.records
        assert record.diagnostics[0]["code"] == "budget-exhausted"

    def test_render_mentions_every_run(self):
        report = run_batch(["treeadd", "power"])
        text = report.render()
        assert "treeadd" in text and "power" in text
        assert "outcomes:" in text

    def test_crash_is_contained_to_one_record(self, monkeypatch):
        # A monkeypatched factory cannot reach the zygote's children,
        # so this runs the child side, run_one, in this process.
        import repro.benchsuite.runner as runner_module

        factories = benchmark_factories()

        def exploding():
            raise RecursionError("synthetic crash")

        factories["exploding"] = exploding
        monkeypatch.setattr(
            runner_module, "benchmark_factories", lambda: factories
        )
        record = run_one("exploding")
        assert record.outcome == "crashed"
        assert record.error == "RecursionError: synthetic crash"


class TestBatchIsolated:
    def test_subprocess_isolation_runs_and_reports(self):
        report = run_batch(["list-build"], timeout=120.0)
        assert report.counts["pass"] == 1
        (record,) = report.records
        assert record.result["outcome"] == "pass"

    def test_isolation_timeout_is_a_timeout_record(self):
        # perimeter needs ~0.4 s of analysis, several times the
        # timeout, even in a child forked with the analyzer already
        # imported: the child is killed and classified, the batch
        # itself survives.
        report = run_batch(["perimeter"], timeout=0.05)
        (record,) = report.records
        assert record.outcome == "timeout"
        assert not report.ok


class TestRunnerCLI:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "treeadd" in out and "181.mcf" in out

    def test_child_prints_json(self, capsys):
        assert runner_main(["--child", "list-build"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["name"] == "list-build"
        assert record["outcome"] == "pass"

    def test_batch_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = runner_main(["treeadd", "--json", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["counts"]["pass"] == 1
        assert report["runs"][0]["name"] == "treeadd"

    def test_repro_batch_flag(self, capsys):
        code = cli_main(["batch", "treeadd", "list-build"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcomes:" in out


class TestReproBatchFlags:
    """``python -m repro batch`` is the batch runner's own CLI: it hands
    its arguments over unchanged, so the two share one set of flags and
    defaults, and refuse the same single-run flags."""

    @pytest.fixture
    def batch_calls(self, monkeypatch):
        import repro.benchsuite.runner as runner

        calls = []

        def fake_run_batch(names, **kwargs):
            calls.append(kwargs)
            return BatchReport([RunRecord(name="x", outcome="pass")])

        monkeypatch.setattr(runner, "run_batch", fake_run_batch)
        return calls

    def test_argv_reaches_the_runner_unchanged(self, monkeypatch):
        import repro.benchsuite.runner as runner

        seen = []
        monkeypatch.setattr(runner, "main", lambda argv: seen.append(argv) or 7)
        argv = ["treeadd", "--mode", "strict", "--no-cache", "--jobs", "2"]
        assert cli_main(["batch", *argv]) == 7
        assert seen == [argv]

    def test_no_cache_is_forwarded(self, batch_calls, capsys):
        assert cli_main(["batch", "--no-cache"]) == 0
        assert cli_main(["batch"]) == 0
        assert [c["cache"] for c in batch_calls] == [False, True]

    def test_mode_is_forwarded(self, batch_calls, capsys):
        # The runner's default mode, degrade, is the only default.
        cli_main(["batch"])
        cli_main(["batch", "--mode", "strict"])
        assert [c["mode"] for c in batch_calls] == ["degrade", "strict"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--no-slicing"],
            ["--no-wto"],
            ["--no-incremental"],
            ["--store", "some-dir"],
        ],
    )
    def test_unsupported_engine_flag_is_usage_error(
        self, batch_calls, capsys, flags
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["batch", *flags])
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert batch_calls == []

    @pytest.mark.parametrize(
        "argv", [["batch", "--no-wto"], ["--batch"]], ids=["no-wto", "old-flag"]
    )
    def test_command_line_usage_errors_exit_2(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert done.returncode == 2
        assert argv[-1] in done.stderr

    def test_no_cache_reaches_isolated_children(self, capsys):
        # End to end through the zygote: with the memos off the child
        # never consults the entailment cache at all.
        def cache_lookups(**kwargs):
            report = run_batch(names=["list-build"], **kwargs)
            stats = report.records[0].result["stats"]
            assert stats["entailment.queries"] > 0
            return sum(
                stats.get(f"entailment.cache.{k}", 0) for k in ("hits", "misses")
            )

        assert cache_lookups() > 0
        assert cache_lookups(cache=False) == 0


class TestRenderBatchReport:
    def test_renders_notes_from_diagnostics(self):
        report = BatchReport(
            records=[
                RunRecord(name="a", outcome="pass", seconds=0.1),
                RunRecord(
                    name="b",
                    outcome="degraded",
                    seconds=0.2,
                    diagnostics=[
                        {"code": "invariant-failure", "recovered": True}
                    ],
                ),
                RunRecord(
                    name="c", outcome="crashed", seconds=0.0, error="boom"
                ),
            ]
        )
        text = render_batch_report(report.to_dict())
        assert "invariant-failure" in text
        assert "boom" in text
        assert "pass=1" in text and "degraded=1" in text and "crashed=1" in text


class TestCrucibleBenchmarks:
    def test_crucible_names_helper(self):
        from repro.benchsuite.runner import crucible_names

        assert crucible_names(2) == ["crucible:1", "crucible:2"]
        assert crucible_names(1, base_seed=7, mutations=2) == ["crucible:7+2"]

    def test_run_one_resolves_crucible_name(self):
        record = run_one("crucible:1")
        assert record.outcome == "pass"
        assert record.result["benchmark"] == "crucible:1"

    def test_crucible_name_regenerates_in_subprocess(self):
        # The name alone must carry enough to rebuild the program on
        # the child side of the isolation boundary.
        report = run_batch(["crucible:2"], timeout=120.0)
        assert report.counts["pass"] == 1

    def test_malformed_crucible_name_is_crash_record(self):
        record = run_one("crucible:not-a-seed")
        assert record.outcome == "crashed"


class TestSignalClassification:
    def test_killed_child_is_crashed_with_signal_name(self, monkeypatch):
        from repro.childproc import CHILD_CHAOS_ENV

        monkeypatch.setenv(CHILD_CHAOS_ENV, "kill:9")
        report = run_batch(["treeadd"], timeout=120.0)
        (record,) = report.records
        assert record.outcome == "crashed"
        assert record.signal == "SIGKILL"
        assert report.signals == {"SIGKILL": 1}
        assert "signals" in report.to_dict()
        assert not report.ok

    def test_slow_child_is_timeout_not_signal(self, monkeypatch):
        from repro.childproc import CHILD_CHAOS_ENV

        monkeypatch.setenv(CHILD_CHAOS_ENV, "sleep:60")
        report = run_batch(["treeadd"], timeout=0.5)
        (record,) = report.records
        assert record.outcome == "timeout"
        assert record.signal is None
        assert report.signals == {}

    def test_signal_survives_json_round_trip(self):
        record = RunRecord(
            name="x", outcome="crashed", seconds=0.0, signal="SIGSEGV"
        )
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.signal == "SIGSEGV"

    def test_render_batch_report_shows_signals(self):
        report = BatchReport(
            records=[
                RunRecord(
                    name="a", outcome="crashed", seconds=0.0, signal="SIGKILL"
                ),
                RunRecord(name="b", outcome="pass", seconds=0.1),
            ]
        )
        text = render_batch_report(report.to_dict())
        assert "SIGKILL=1" in text


def _scrub_timing(obj):
    """Drop every wall-clock field, recursively: timing is the one
    thing allowed to differ between a serial and a parallel batch.
    Dropped rather than zeroed because the flattened histogram keys
    (``phase.*.seconds.dist.bucket.N``) encode the timing in the key
    name itself."""
    if isinstance(obj, dict):
        return {
            key: _scrub_timing(value)
            for key, value in obj.items()
            if "seconds" not in key
        }
    if isinstance(obj, list):
        return [_scrub_timing(item) for item in obj]
    return obj


class TestParallelBatch:
    def test_jobs_matches_serial_modulo_timing(self):
        names = ["treeadd", "list-build", "crucible:1"]
        serial = run_batch(names, jobs=1, timeout=120.0)
        parallel = run_batch(names, jobs=2, timeout=120.0)
        assert _scrub_timing(serial.to_dict()) == _scrub_timing(
            parallel.to_dict()
        )

    def test_records_keep_input_order(self):
        # Deliberately non-alphabetical; completion order must not
        # reorder the report.
        names = ["power", "list-build", "treeadd"]
        report = run_batch(names, jobs=3, timeout=120.0)
        assert [record.name for record in report.records] == names

    def test_jobs_with_deadline(self):
        # The cooperative analysis deadline still fires inside each
        # parallel child and is classified per record.
        report = run_batch(
            ["181.mcf", "list-build"],
            jobs=2,
            deadline=0.001,
            mode="strict",
            timeout=120.0,
        )
        assert [r.name for r in report.records] == ["181.mcf", "list-build"]
        mcf = report.records[0]
        assert mcf.outcome == "failed"
        assert any(
            d["code"] == "budget-exhausted" for d in mcf.diagnostics
        )

    def test_chaos_killed_children_under_parallelism(self, monkeypatch):
        from repro.childproc import CHILD_CHAOS_ENV

        monkeypatch.setenv(CHILD_CHAOS_ENV, "kill:9")
        report = run_batch(["treeadd", "power"], jobs=2, timeout=120.0)
        assert [r.name for r in report.records] == ["treeadd", "power"]
        assert report.counts["crashed"] == 2
        assert report.signals == {"SIGKILL": 2}
        assert not report.ok


class TestParseChildOutput:
    @pytest.mark.parametrize(
        "stdout",
        ["", "null", "[1]", "42", '{"outcome": "pass"}', "Traceback (most"],
    )
    def test_malformed_output_is_crash_record(self, stdout):
        record = parse_child_output("treeadd", "degrade", 1, stdout, "boom")
        assert record.outcome == "crashed"
        assert record.name == "treeadd"
        assert record.error == "child exited with code 1: boom"

    def test_record_line_is_parsed(self):
        line = json.dumps(RunRecord(name="treeadd", outcome="pass").to_dict())
        record = parse_child_output(
            "treeadd", "degrade", 0, "noise\n" + line, seconds=0.5
        )
        assert record.outcome == "pass"
        assert record.seconds == 0.5


def _children_of(pid: int) -> list[int]:
    """Live child pids of *pid*, read from /proc."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


class TestZygote:
    def test_children_start_cold(self):
        # Warm every cache this process has, then check the forked
        # children still count exactly what a fresh interpreter does.
        run_one("treeadd")
        report = run_batch(["treeadd", "treeadd"], timeout=120.0)
        fresh = subprocess.run(
            [sys.executable, "-m", "repro.benchsuite.runner",
             "--child", "treeadd"],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        expected = json.loads(fresh.stdout.splitlines()[-1])["result"]["stats"]
        for record in report.records:
            assert record.outcome == "pass"
            assert _scrub_timing(record.result["stats"]) == _scrub_timing(
                expected
            )

    def test_no_leftover_processes(self):
        script = (
            "import os, resource\n"
            "from repro.benchsuite.runner import run_batch\n"
            "assert run_batch(['treeadd', 'power'], jobs=2).ok\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('a batch process was left unreaped')\n"
            "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
            "assert usage.ru_maxrss > 0\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], env=child_env(), check=True,
            timeout=120,
        )

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
    def test_zygote_death_crashes_unfinished_records(self, monkeypatch):
        monkeypatch.setenv(CHILD_CHAOS_ENV, "sleep:60")
        started = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            started.append(real_popen(*args, **kwargs))
            return started[-1]

        def kill_zygote():
            give_up = time.monotonic() + 30
            while not started and time.monotonic() < give_up:
                time.sleep(0.01)
            # Wait for the sleeping child, so the zygote dies mid-batch.
            while (time.monotonic() < give_up
                   and not _children_of(started[0].pid)):
                time.sleep(0.01)
            os.kill(started[0].pid, signal.SIGKILL)

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        killer = threading.Thread(target=kill_zygote)
        killer.start()
        begin = time.monotonic()
        report = run_batch(["treeadd", "power"], timeout=120.0)
        killer.join(timeout=60)
        assert not killer.is_alive()
        assert time.monotonic() - begin < 30
        assert report.counts["crashed"] == 2
        for record in report.records:
            assert record.diagnostics[0]["code"] == "worker-crashed"
            assert "SIGKILL" in record.diagnostics[0]["detail"]
