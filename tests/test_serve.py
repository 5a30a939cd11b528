"""Tests for the analysis service: protocol, supervision, backpressure,
overload degradation, and chaos recovery.

Process-spawning tests are deliberately consolidated -- each
:class:`WorkerPool` or daemon is shared across several assertions --
because every worker is a real ``python -m repro.serve.worker`` child.
"""

import io
import json
import threading
import time

import pytest

from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_OVERLOADED,
    JobSpec,
    ProtocolError,
    parse_request,
    read_message,
    write_message,
)
from repro.serve.server import AnalysisServer, OverloadController
from repro.serve.supervisor import Job, PoolFull, WorkerPool
from repro.serve.worker import CHAOS_ENV


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_round_trip_text_and_binary(self):
        message = {"type": "job", "id": 3, "spec": {"benchmark": "treeadd"}}
        text = io.StringIO()
        write_message(text, message)
        text.seek(0)
        assert read_message(text) == message
        binary = io.BytesIO()
        write_message(binary, message)
        binary.seek(0)
        assert read_message(binary) == message

    def test_read_message_eof_is_none(self):
        assert read_message(io.StringIO("")) is None

    def test_read_message_garbage_raises(self):
        with pytest.raises(ProtocolError):
            read_message(io.StringIO("not json\n"))

    def test_parse_request_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            parse_request(json.dumps({"op": "dance"}))

    def test_parse_request_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            parse_request("[1, 2]")

    def test_jobspec_round_trip(self):
        spec = JobSpec(
            benchmark="treeadd",
            mode="strict",
            deadline=3.5,
            faults=[{"phase": "fold", "kind": "error", "at": 1}],
        )
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_jobspec_validation(self):
        with pytest.raises(ProtocolError):
            JobSpec.from_dict({"benchmark": ""})
        with pytest.raises(ProtocolError):
            JobSpec.from_dict({"benchmark": "x", "mode": "fast"})
        with pytest.raises(ProtocolError):
            JobSpec.from_dict({"benchmark": "x", "timeout": 0})
        with pytest.raises(ProtocolError):
            JobSpec.from_dict({"benchmark": "x", "deadline": -1})
        with pytest.raises(ProtocolError):
            JobSpec.from_dict("treeadd")


# ----------------------------------------------------------------------
# Overload ladder (pure policy, no processes)
# ----------------------------------------------------------------------
class TestOverloadController:
    def test_enters_only_on_sustained_pressure(self):
        ladder = OverloadController(high_water=4, enter_after=3)
        assert ladder.sample(5) is None
        assert ladder.sample(5) is None
        assert ladder.sample(5) == "entered"
        assert ladder.state == "degraded"

    def test_one_calm_sample_resets_the_streak(self):
        ladder = OverloadController(high_water=4, enter_after=2)
        assert ladder.sample(5) is None
        assert ladder.sample(0) is None  # streak broken
        assert ladder.sample(5) is None  # counting restarts
        assert ladder.sample(5) == "entered"

    def test_exits_only_on_sustained_calm(self):
        ladder = OverloadController(
            high_water=4, low_water=1, enter_after=1, exit_after=2
        )
        assert ladder.sample(4) == "entered"
        assert ladder.sample(0) is None
        assert ladder.sample(3) is None  # above low water: streak broken
        assert ladder.sample(0) is None
        assert ladder.sample(1) == "exited"
        assert ladder.state == "strict"

    def test_apply_rewrites_unpinned_jobs_only(self):
        ladder = OverloadController(
            high_water=2, enter_after=1, degraded_deadline=5.0
        )
        ladder.sample(2)
        unpinned = JobSpec(benchmark="treeadd")
        assert ladder.apply(unpinned)
        assert unpinned.mode == "degrade"
        assert unpinned.deadline == 5.0
        pinned = JobSpec(benchmark="treeadd", mode="strict", deadline=1.0)
        assert not ladder.apply(pinned)  # explicit requests are contracts
        assert pinned.mode == "strict"
        assert pinned.deadline == 1.0

    def test_apply_is_noop_while_strict(self):
        ladder = OverloadController(high_water=4)
        spec = JobSpec(benchmark="treeadd")
        assert not ladder.apply(spec)
        assert spec.mode is None and spec.deadline is None

    def test_low_water_defaults_below_high_water(self):
        ladder = OverloadController(high_water=8)
        assert ladder.low_water == 4
        with pytest.raises(ValueError):
            OverloadController(high_water=2, low_water=2)


# ----------------------------------------------------------------------
# Worker pool supervision (real worker subprocesses)
# ----------------------------------------------------------------------
def _wait(job: Job, timeout: float = 120.0) -> dict:
    assert job.wait(timeout), "job never resolved -- supervision bug"
    return job.record


def _strip_timing(value):
    """*value* without the wall-clock fields: every dict key that
    names seconds (record and phase columns, the budget's elapsed
    time, timing gauges and histograms), at any depth."""
    if isinstance(value, dict):
        return {
            key: _strip_timing(item)
            for key, item in value.items()
            if "seconds" not in key
        }
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


class TestWorkerPool:
    def test_workers_start_with_the_pool(self):
        """Every slot spawns its worker before it waits for a job, so
        no job pays for interpreter start and imports."""
        pool = WorkerPool(workers=2, capacity=8)
        try:
            infos = pool.worker_info()
            assert [info["alive"] for info in infos] == [True, True]
            assert all(info["pid"] for info in infos)
            assert pool.queue_depth == 0
        finally:
            pool.stop()

    def test_jobs_complete_within_one_worker(self):
        pool = WorkerPool(workers=1, capacity=8)
        try:
            first_job = pool.submit(JobSpec(benchmark="list-build"))
            assert _wait(first_job)["outcome"] == "pass"
            second_job = pool.submit(JobSpec(benchmark="list-build"))
            assert _wait(second_job)["outcome"] == "pass"
            # One persistent worker served both jobs.
            assert second_job.serve_info["generation"] == 0
            assert second_job.serve_info["worker"] == 0
        finally:
            pool.stop()

    def test_served_record_matches_run_one(self):
        """The worker's job path is ``run_one``: a worker's first
        served record equals an in-process ``run_one`` with a fresh
        fixpoint table (what the worker attaches) apart from timing."""
        from repro.benchsuite.runner import run_one
        from repro.store.fixpoint import FixpointTable

        pool = WorkerPool(workers=1, capacity=8, default_mode="strict")
        try:
            served = _wait(pool.submit(JobSpec(benchmark="list-build")))
        finally:
            pool.stop()
        local = run_one(
            "list-build", mode="strict", fixpoint_table=FixpointTable()
        ).to_dict()
        assert served["outcome"] == "pass"
        assert _strip_timing(served) == _strip_timing(local)

    def test_spec_errors_are_crashed_records_not_worker_deaths(self):
        """A bad fault phase and an unknown edit target are spec
        errors: each job resolves to a ``crashed`` record carrying the
        ``ValueError`` text, and the same generation-0 process keeps
        serving."""
        pool = WorkerPool(workers=1, capacity=8)
        try:
            bad_phase = pool.submit(
                JobSpec(
                    benchmark="list-build",
                    faults=[{"phase": "no-such-phase", "kind": "error"}],
                )
            )
            bad_target = pool.submit(
                JobSpec(
                    benchmark="list-build",
                    edit={"seed": 1, "target": "no-such-proc"},
                )
            )
            pids = set()
            for job in (bad_phase, bad_target):
                record = _wait(job)
                assert record["outcome"] == "crashed"
                assert record["error"].startswith("ValueError: ")
                assert job.serve_info["generation"] == 0
                assert job.serve_info["attempts"] == 1
                pids.add(pool.worker_info()[0]["pid"])
            clean = pool.submit(JobSpec(benchmark="list-build"))
            assert _wait(clean)["outcome"] == "pass"
            assert clean.serve_info["generation"] == 0
            pids.add(pool.worker_info()[0]["pid"])
            assert len(pids) == 1
        finally:
            pool.stop()

    def test_kill_midjob_is_retried_on_the_replacement(self, monkeypatch):
        events = []
        monkeypatch.setenv(CHAOS_ENV, "0:kill:9@2")
        pool = WorkerPool(
            workers=1,
            capacity=8,
            max_retries=2,
            on_event=lambda name, **attrs: events.append((name, attrs)),
        )
        try:
            assert _wait(pool.submit(JobSpec(benchmark="list-build")))[
                "outcome"
            ] == "pass"
            victim = pool.submit(JobSpec(benchmark="list-build"))
            record = _wait(victim)
            # The kill -9 victim completes on the restarted worker.
            assert record["outcome"] == "pass"
            assert victim.serve_info["attempts"] == 2
            assert victim.serve_info["generation"] == 1
            names = [name for name, _ in events]
            assert "serve.workers.restarts" in names
            assert "serve.jobs.retried" in names
            restart = dict(events[names.index("serve.workers.restarts")][1])
            assert restart["signal"] == "SIGKILL"
            # The replacement keeps serving.
            follow = pool.submit(JobSpec(benchmark="list-build"))
            assert _wait(follow)["outcome"] == "pass"
            assert follow.serve_info["generation"] == 1
        finally:
            pool.stop()

    def test_hang_is_detected_killed_and_retried(self, monkeypatch):
        events = []
        monkeypatch.setenv(CHAOS_ENV, "0:sleep:60@1")
        pool = WorkerPool(
            workers=1,
            capacity=8,
            max_retries=1,
            on_event=lambda name, **attrs: events.append((name, attrs)),
        )
        try:
            job = pool.submit(JobSpec(benchmark="list-build", timeout=3.0))
            record = _wait(job, timeout=120.0)
            # Generation 0 hung past the isolation timeout; the
            # supervisor killed it and the gen-1 replacement (chaos
            # applies to gen 0 only) finished the job.
            assert record["outcome"] == "pass"
            assert job.serve_info["attempts"] == 2
            causes = [
                attrs.get("cause")
                for name, attrs in events
                if name == "serve.workers.restarts"
            ]
            assert causes == ["hang"]
        finally:
            pool.stop()

    def test_retries_exhausted_is_structured_not_lost(self):
        # The spec-level kill fires on *every* attempt, so retries run
        # out and the job must resolve to a worker-crashed diagnostic.
        pool = WorkerPool(workers=1, capacity=8, max_retries=1)
        try:
            job = pool.submit(
                JobSpec(
                    benchmark="list-build",
                    chaos={"phase": "fold", "signal": 9, "at": 1},
                    timeout=60.0,
                )
            )
            record = _wait(job)
            assert record["outcome"] == "crashed"
            assert record["signal"] == "SIGKILL"
            codes = [d["code"] for d in record["diagnostics"]]
            assert codes == ["worker-crashed"]
            assert record["diagnostics"][0]["phase"] == "serve"
            assert job.serve_info["attempts"] == 2  # 1 + max_retries
        finally:
            pool.stop()

    def test_backpressure_rejects_when_queue_full(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "0:sleep:3@1")
        pool = WorkerPool(workers=1, capacity=1)
        try:
            stalled = pool.submit(JobSpec(benchmark="list-build"))
            # Give the dispatcher a moment to pull the stalled job so
            # the queue slot frees for exactly one more.
            deadline = time.monotonic() + 5.0
            while pool.queue_depth > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            queued = pool.submit(JobSpec(benchmark="list-build"))
            with pytest.raises(PoolFull):
                pool.submit(JobSpec(benchmark="list-build"))
            assert _wait(stalled)["outcome"] == "pass"
            assert _wait(queued)["outcome"] == "pass"
        finally:
            pool.stop()


class TestWorkerHandle:
    def test_failed_handshake_kills_and_reaps_the_child(self, monkeypatch):
        """A worker that misses its ready deadline never reaches a
        slot, so the handle itself must kill and reap the child."""
        import subprocess

        from repro.serve import supervisor
        from repro.serve.supervisor import WorkerDied, WorkerHandle

        spawned = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            proc = real_popen(*args, **kwargs)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(supervisor.subprocess, "Popen", recording_popen)
        monkeypatch.setattr(supervisor, "SPAWN_TIMEOUT", 0)
        with pytest.raises(WorkerDied) as info:
            WorkerHandle(0, 0, "degrade")
        assert info.value.kind == "hang"
        (proc,) = spawned
        assert proc.poll() is not None


class TestDeadlineBetweenPhases:
    """Budget deadline expiry *between* engine phases: the worker must
    return a clean budget-exhausted diagnostic and stay reusable."""

    def test_every_phase_boundary_and_worker_survives(self):
        from repro.analysis.interproc import PHASE_BOUNDARIES

        events = []
        pool = WorkerPool(
            workers=1,
            capacity=8,
            on_event=lambda name, **attrs: events.append(name),
        )
        try:
            for phase in PHASE_BOUNDARIES:
                job = pool.submit(
                    JobSpec(
                        benchmark="treeadd",
                        mode="strict",
                        faults=[
                            {"phase": phase, "kind": "timeout", "at": 1}
                        ],
                    )
                )
                record = _wait(job)
                # A deadline that expires at the phase boundary is an
                # analysis failure, never a worker death.
                assert record["outcome"] == "failed", phase
                codes = [d["code"] for d in record["diagnostics"]]
                assert "budget-exhausted" in codes, phase
                assert job.serve_info["attempts"] == 1, phase
                assert job.serve_info["generation"] == 0, phase
            assert "serve.workers.restarts" not in events
            # The same worker process is still serving.
            clean = pool.submit(JobSpec(benchmark="treeadd"))
            assert _wait(clean)["outcome"] == "pass"
            assert clean.serve_info["generation"] == 0
        finally:
            pool.stop()


# ----------------------------------------------------------------------
# The daemon over its socket
# ----------------------------------------------------------------------
@pytest.fixture
def daemon(tmp_path):
    server = AnalysisServer(
        socket_path=str(tmp_path / "serve.sock"),
        workers=1,
        capacity=4,
        default_mode="degrade",
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=60.0)


class TestDaemon:
    def test_submit_status_and_metrics(self, daemon):
        from repro.serve.client import Client

        client = Client(daemon.socket_path)
        assert client.wait_until_ready(30.0)
        response = client.submit(JobSpec(benchmark="list-build"))
        assert response["ok"]
        assert response["record"]["outcome"] == "pass"
        assert response["serve"]["state"] == "strict"
        status = client.status()
        assert status["queue_capacity"] == 4
        assert status["metrics"]["serve.jobs.submitted"] == 1
        assert status["metrics"]["serve.jobs.completed"] == 1
        assert status["workers"][0]["alive"]

    def test_bad_request_is_answered_not_dropped(self, daemon):
        from repro.serve.client import Client, ServerError

        client = Client(daemon.socket_path)
        assert client.wait_until_ready(30.0)
        with pytest.raises(ServerError) as info:
            client.submit({"benchmark": ""})
        assert info.value.error == ERR_BAD_REQUEST

    def test_degraded_state_rewrites_jobs_and_is_visible(self, daemon):
        from repro.serve.client import Client

        client = Client(daemon.socket_path)
        assert client.wait_until_ready(30.0)
        # Force the ladder onto the degraded rung (policy is unit
        # tested above; here we check the server wiring end to end).
        daemon.overload.degraded = True
        response = client.submit(JobSpec(benchmark="list-build"))
        assert response["serve"]["state"] == "degraded"
        assert response["serve"]["degraded"]
        assert response["record"]["mode"] == "degrade"
        status = client.status()
        assert status["state"] == "degraded"
        assert status["metrics"]["serve.jobs.degraded"] == 1

    def test_serve_metrics_are_schema_clean(self, daemon):
        assert daemon.metrics.check_schema() == []


class TestOverloadResponse:
    def test_full_queue_answers_overloaded_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        # No pool thread ever drains this server's queue fast enough:
        # one worker stalled 3s by chaos, capacity 1.
        monkeypatch.setenv(CHAOS_ENV, "0:sleep:3@1")
        server = AnalysisServer(
            socket_path=str(tmp_path / "s.sock"), workers=1, capacity=1
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            from repro.serve.client import Client, OverloadedError

            client = Client(server.socket_path)
            assert client.wait_until_ready(30.0)
            results = []

            def bg(spec):
                results.append(client.submit(spec, retry_for=0.0))

            stalled = threading.Thread(
                target=bg, args=(JobSpec(benchmark="list-build"),), daemon=True
            )
            stalled.start()
            # Wait until the stalled job was pulled off the queue: the
            # pool never calls ``task_done``, so one unfinished task
            # with an empty queue means the dispatcher is now occupied
            # for the ~3s chaos sleep.
            pool_queue = server.pool._queue
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not (
                pool_queue.unfinished_tasks >= 1 and pool_queue.qsize() == 0
            ):
                time.sleep(0.01)
            queued = threading.Thread(
                target=bg, args=(JobSpec(benchmark="list-build"),), daemon=True
            )
            queued.start()
            deadline = time.monotonic() + 10.0
            while (
                time.monotonic() < deadline and server.pool.queue_depth < 1
            ):
                time.sleep(0.01)
            with pytest.raises(OverloadedError) as info:
                client.submit(JobSpec(benchmark="list-build"), retry_for=0.0)
            assert info.value.retry_after > 0
            assert info.value.error == ERR_OVERLOADED
            stalled.join(timeout=120.0)
            queued.join(timeout=120.0)
            assert len(results) == 2
            assert all(r["record"]["outcome"] == "pass" for r in results)
            assert server.metrics.counter("serve.jobs.rejected") >= 1
        finally:
            server.shutdown()
            thread.join(timeout=60.0)


# ----------------------------------------------------------------------
# Loadgen arithmetic
# ----------------------------------------------------------------------
class TestPercentile:
    def test_edges_and_interpolation(self):
        from repro.serve.loadgen import percentile

        assert percentile([], 99) == 0.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0


# ----------------------------------------------------------------------
# Overload retry backoff (decorrelated jitter)
# ----------------------------------------------------------------------
class TestClientJitter:
    @staticmethod
    def _client_with_responses(monkeypatch, responses, sleeps):
        from repro.serve.client import Client

        client = Client("/nonexistent-test.sock")
        monkeypatch.setattr(
            client, "request", lambda *a, **k: responses.pop(0)
        )
        monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)
        return client

    @staticmethod
    def _overloaded(hint):
        return {
            "ok": False,
            "error": ERR_OVERLOADED,
            "retry_after": hint,
            "queue_depth": 9,
        }

    def test_backoff_floors_at_hint_grows_and_caps(self, monkeypatch):
        from repro.serve.client import Client

        sleeps = []
        responses = [self._overloaded(0.5) for _ in range(5)] + [
            {"ok": True, "record": {}}
        ]
        client = self._client_with_responses(monkeypatch, responses, sleeps)
        # Upper bound of the jitter window: the worst-case trajectory.
        monkeypatch.setattr(
            "repro.serve.client.random.uniform", lambda lo, hi: hi
        )
        assert client.submit({"benchmark": "treeadd"}, retry_for=600.0)["ok"]
        # uniform(hint, max(hint, 3*prev)): 0.5 -> 1.5 -> 4.5 -> cap.
        assert sleeps == [0.5, 1.5, 4.5, Client.RETRY_CAP, Client.RETRY_CAP]

    def test_backoff_never_sleeps_under_the_server_hint(self, monkeypatch):
        sleeps = []
        responses = [self._overloaded(0.7) for _ in range(4)] + [
            {"ok": True, "record": {}}
        ]
        client = self._client_with_responses(monkeypatch, responses, sleeps)
        # Lower bound of the jitter window: still floored at the hint.
        monkeypatch.setattr(
            "repro.serve.client.random.uniform", lambda lo, hi: lo
        )
        assert client.submit({"benchmark": "treeadd"}, retry_for=600.0)["ok"]
        assert sleeps == [0.7, 0.7, 0.7, 0.7]

    def test_no_patience_raises_immediately(self, monkeypatch):
        from repro.serve.client import OverloadedError

        sleeps = []
        responses = [self._overloaded(0.5)]
        client = self._client_with_responses(monkeypatch, responses, sleeps)
        with pytest.raises(OverloadedError) as info:
            client.submit({"benchmark": "treeadd"}, retry_for=0.0)
        assert sleeps == []  # gave up before sleeping at all
        assert info.value.retry_after == 0.5

    def test_sleep_truncated_to_remaining_patience(self, monkeypatch):
        sleeps = []
        responses = [self._overloaded(0.5) for _ in range(3)] + [
            {"ok": True, "record": {}}
        ]
        client = self._client_with_responses(monkeypatch, responses, sleeps)
        monkeypatch.setattr(
            "repro.serve.client.random.uniform", lambda lo, hi: hi
        )
        assert client.submit({"benchmark": "treeadd"}, retry_for=2.0)["ok"]
        assert all(delay <= 2.0 for delay in sleeps)


# ----------------------------------------------------------------------
# Pidfile protocol
# ----------------------------------------------------------------------
class TestPidfile:
    def test_acquire_write_refuse_release(self, tmp_path):
        import os

        from repro.serve.server import acquire_pidfile, release_pidfile

        path = str(tmp_path / "serve.pid")
        assert acquire_pidfile(path)
        assert open(path).read().strip() == str(os.getpid())
        # The recorded pid (ours) is demonstrably alive: a second
        # server must refuse to double-start.
        assert not acquire_pidfile(path)
        release_pidfile(path)
        assert not os.path.exists(path)

    def test_stale_pid_is_reclaimed(self, tmp_path):
        import os

        from repro.serve.server import acquire_pidfile

        path = tmp_path / "serve.pid"
        path.write_text("999999999\n")  # far past pid_max: ESRCH
        assert acquire_pidfile(str(path))
        assert path.read_text().strip() == str(os.getpid())

    def test_garbage_pidfile_is_reclaimed(self, tmp_path):
        import os

        from repro.serve.server import acquire_pidfile

        path = tmp_path / "serve.pid"
        path.write_text("not-a-pid\n")
        assert acquire_pidfile(str(path))
        assert path.read_text().strip() == str(os.getpid())

    def test_release_leaves_foreign_pidfile_alone(self, tmp_path):
        from repro.serve.server import release_pidfile

        path = tmp_path / "serve.pid"
        path.write_text("999999999\n")
        release_pidfile(str(path))
        assert path.exists()  # not ours; not our business
