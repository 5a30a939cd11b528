"""Worker-pool supervision: spawn, watch, restart, never lose a job.

The pool owns N :class:`WorkerHandle` s, each wrapping one persistent
``python -m repro.serve.worker`` child, and one bounded job queue.
One dispatcher thread per worker pulls jobs and round-trips them over
the worker's pipes.  The supervision contract:

* **death detection** -- a worker that closes its pipes (killed by a
  signal, OOM, interpreter crash) or fails to answer within the job's
  isolation ``timeout`` (a hang: cooperative deadlines failed) is
  declared dead; :func:`repro.childproc.classify_exit` tells the
  signal case from the rest, exactly as the batch runner does;
* **restart with exponential backoff** -- the replacement process
  keeps the worker's index but gets a new generation; consecutive
  failures double the respawn delay up to a cap (a crash-looping
  worker must not become a fork bomb), and one completed job resets
  the backoff.  The replacement starts with an empty in-memory
  fixpoint table; the pool's shared durable store (``--store``) is
  the tier whose summaries survive the death;
* **bounded retry, then a structured answer** -- the victim job is
  re-run (on the restarted worker, i.e. re-enqueued at the front) at
  most ``max_retries`` times; when retries are exhausted the job
  completes with a ``worker-crashed`` (or isolation-timeout
  ``budget-exhausted``) diagnostic from :mod:`repro.childproc` -- the
  same crash-record shape the batch runner emits.  ``Job.wait``
  therefore always returns a record: no submitted job is silently
  lost, which tests/test_serve.py proves under kill -9 chaos.

The pool is server-agnostic: backpressure policy, overload
degradation and the wire protocol live in :mod:`repro.serve.server`;
telemetry flows out through an injectable ``on_event`` hook so the
pool itself stays import-light and unit-testable.
"""

from __future__ import annotations

import os
import queue
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.childproc import (
    child_env,
    classify_exit,
    surviving_trace,
    timeout_diagnostic,
    worker_crash_diagnostic,
)
from repro.serve import worker as worker_mod
from repro.serve.protocol import JobSpec, ProtocolError

__all__ = [
    "Job",
    "PoolFull",
    "WorkerDied",
    "WorkerHandle",
    "WorkerPool",
]

#: How long a fresh worker may take to print its ready line.
SPAWN_TIMEOUT = 60.0
#: Consecutive failed spawns before a job is abandoned to a crash
#: record (a machine that cannot start Python at all must not loop).
MAX_SPAWN_ATTEMPTS = 5


class PoolFull(Exception):
    """The bounded job queue is at capacity -- backpressure, not an
    error: the server turns this into a reject-with-retry-after."""


class WorkerDied(Exception):
    """One worker attempt did not produce a result line."""

    def __init__(self, message: str, kind: str, signal: "str | None" = None):
        super().__init__(message)
        #: ``"signal"`` | ``"exit"`` | ``"hang"`` | ``"spawn"``
        self.kind = kind
        self.signal = signal


@dataclass
class Job:
    """One queued analysis; ``wait`` blocks until a record exists."""

    spec: JobSpec
    id: int
    #: Filled by the server when the overload ladder rewrote the spec.
    degraded: bool = False
    attempts: int = 0
    record: "dict | None" = None
    serve_info: dict = field(default_factory=dict)
    enqueued_at: float = field(default_factory=time.monotonic)
    _done: threading.Event = field(default_factory=threading.Event)

    def finish(self, record: dict, **info) -> None:
        self.record = record
        self.serve_info.update(info)
        self.serve_info.setdefault("attempts", self.attempts)
        self.serve_info["degraded"] = self.degraded
        self._done.set()

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()


class WorkerHandle:
    """One persistent worker process and its protocol pipes."""

    def __init__(
        self,
        index: int,
        generation: int,
        default_mode: str,
        store_path: "str | None" = None,
    ):
        self.index = index
        self.generation = generation
        self.jobs_done = 0
        command = [
            sys.executable,
            "-m",
            "repro.serve.worker",
            "--mode",
            default_mode,
        ]
        if store_path:
            command += ["--store", store_path]
        env = child_env(
            {
                worker_mod.WORKER_ENV: str(index),
                worker_mod.WORKER_GEN_ENV: str(generation),
            }
        )
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            bufsize=0,
        )
        self._buffer = bytearray()
        try:
            ready = self._read_message(timeout=SPAWN_TIMEOUT)
        except (WorkerDied, OSError):
            # Timeout, EOF, a non-protocol line or a read error: the
            # caller never gets this handle, so nobody else would
            # reap the child.
            self.kill()
            raise
        if ready.get("type") != "ready":
            self.kill()
            raise WorkerDied(
                f"worker {index} answered {ready!r} instead of ready",
                kind="spawn",
            )
        self.pid = ready.get("pid")

    # ------------------------------------------------------------------
    def request(self, message: dict, timeout: float) -> dict:
        """One job round-trip; raises :class:`WorkerDied` on EOF (the
        process died) or timeout (it hung -- the caller kills it)."""
        import json

        try:
            payload = json.dumps(
                message, sort_keys=True, separators=(",", ":")
            )
            self.proc.stdin.write(payload.encode("utf-8") + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            raise self._death("write failed: worker pipe is closed")
        return self._read_message(timeout=timeout)

    def _read_message(self, timeout: float) -> dict:
        import json

        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerDied(
                    f"worker {self.index} gave no answer within "
                    f"{timeout}s (hang past deadline)",
                    kind="hang",
                )
            readable, _, _ = select.select(
                [fd], [], [], min(remaining, 0.5)
            )
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise self._death("worker closed its pipe")
            self._buffer += chunk
        line, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        try:
            return json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            raise self._death(
                f"worker wrote a non-protocol line: {line[:120]!r}"
            )

    def _death(self, message: str) -> WorkerDied:
        """Classify a dead worker: reap it and name the signal."""
        returncode = self.proc.poll()
        if returncode is None:
            try:
                returncode = self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                returncode = None
        signal = classify_exit(returncode)
        detail = (
            f"killed by {signal}" if signal
            else f"exit code {returncode}" if returncode is not None
            else "still running"
        )
        return WorkerDied(
            f"worker {self.index} (gen {self.generation}): "
            f"{message} ({detail})",
            kind="signal" if signal else "exit",
            signal=signal,
        )

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL and reap; used on hangs and at shutdown."""
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        self._close_pipes()

    def shutdown(self, grace: float = 2.0) -> None:
        """Polite exit: send the exit message, then escalate."""
        try:
            self.proc.stdin.write(b'{"type":"exit"}\n')
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                if pipe is not None:
                    pipe.close()
            except OSError:
                pass

    def info(self) -> dict:
        return {
            "index": self.index,
            "generation": self.generation,
            "pid": self.pid,
            "alive": self.alive,
            "jobs_done": self.jobs_done,
        }


_STOP = object()


class _Slot:
    """One worker position: the current handle plus backoff state and
    the telemetry the live-stats endpoint reports per worker."""

    def __init__(self, index: int):
        self.index = index
        self.handle: "WorkerHandle | None" = None
        self.generation = 0
        self.consecutive_failures = 0
        #: Total deaths of this slot's workers (all generations).
        self.restarts = 0
        #: Latest per-result telemetry the current generation pushed:
        #: store stats and engine-metrics snapshot.  Reset when the
        #: generation dies (but see ``archive``: dead generations stay
        #: reported).
        self.store_stats: "dict | None" = None
        self.metrics_snapshot: "dict | None" = None
        #: Telemetry of dead generations, newest last; the server's
        #: engine aggregate sums them with the live ones.
        self.archive: list = []

    def note_result(self, response: dict) -> None:
        """Keep the freshest telemetry the worker attached."""
        if response.get("store") is not None:
            self.store_stats = response["store"]
        if response.get("metrics") is not None:
            self.metrics_snapshot = response["metrics"]

    def archive_generation(self) -> None:
        """Move the dying generation's telemetry into the archive."""
        if self.store_stats is not None or self.metrics_snapshot is not None:
            self.archive.append(
                {
                    "generation": self.generation,
                    "jobs_done": (
                        self.handle.jobs_done if self.handle else 0
                    ),
                    "store": self.store_stats,
                    "metrics": self.metrics_snapshot,
                }
            )
        self.store_stats = None
        self.metrics_snapshot = None


class WorkerPool:
    """N supervised workers behind one bounded queue."""

    def __init__(
        self,
        workers: int = 2,
        capacity: int = 64,
        max_retries: int = 2,
        default_mode: str = "degrade",
        backoff_base: float = 0.25,
        backoff_cap: float = 10.0,
        store_path: "str | None" = None,
        on_event=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.max_retries = max_retries
        self.default_mode = default_mode
        #: Shared durable store directory every worker mounts (warm
        #: tier surviving restarts); None disables it.
        self.store_path = store_path
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._on_event = on_event or (lambda name, **attrs: None)
        self._queue: "queue.Queue" = queue.Queue(maxsize=capacity)
        self._next_job_id = 1
        self._id_lock = threading.Lock()
        self._stopping = False
        self._slots = [_Slot(i) for i in range(workers)]
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"repro-serve-worker-{slot.index}",
                daemon=True,
            )
            for slot in self._slots
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, degraded: bool = False) -> Job:
        """Enqueue one job; raises :class:`PoolFull` at capacity (the
        caller owns the backpressure response)."""
        if self._stopping:
            raise PoolFull("pool is shutting down")
        with self._id_lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        job = Job(spec=spec, id=job_id, degraded=degraded)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            raise PoolFull(
                f"job queue is at capacity ({self.capacity})"
            ) from None
        return job

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def worker_info(self) -> list:
        return [
            slot.handle.info() if slot.handle is not None else {
                "index": slot.index,
                "generation": slot.generation,
                "alive": False,
                "jobs_done": 0,
            }
            for slot in self._slots
        ]

    def stats(self) -> list:
        """Per-worker telemetry for the live ``stats`` op: liveness,
        restart counts, the current generation's store stats and
        engine-metrics snapshot, plus the archived telemetry of every
        dead generation (so per-generation numbers survive kills)."""
        out = []
        for slot in self._slots:
            info = slot.handle.info() if slot.handle is not None else {
                "index": slot.index,
                "generation": slot.generation,
                "alive": False,
                "jobs_done": 0,
            }
            info.update(
                restarts=slot.restarts,
                store=slot.store_stats,
                metrics=slot.metrics_snapshot,
                generations=list(slot.archive),
            )
            out.append(info)
        return out

    def stop(self) -> None:
        """Drain-free shutdown: stop dispatching, fail queued jobs
        with a shutting-down record, stop the workers."""
        self._stopping = True
        for _ in self._slots:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=30.0)
        # Jobs still queued never reached a worker: answer them too --
        # the no-silent-loss contract holds even across shutdown.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is _STOP:
                continue
            diagnostic = worker_crash_diagnostic(
                "server shut down before the job was dispatched"
            )
            job.finish(
                self._crash_record(job, diagnostic, outcome="crashed"),
                worker=None,
            )
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.shutdown()
                slot.handle = None

    # ------------------------------------------------------------------
    def _worker_loop(self, slot: _Slot) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP or self._stopping:
                break
            self._execute(slot, job)

    def _ensure_worker(self, slot: _Slot) -> "WorkerHandle | None":
        """The slot's live handle, (re)spawning with backoff; None
        after :data:`MAX_SPAWN_ATTEMPTS` consecutive spawn failures."""
        if slot.handle is not None and slot.handle.alive:
            return slot.handle
        for _ in range(MAX_SPAWN_ATTEMPTS):
            if self._stopping:
                return None
            if slot.consecutive_failures:
                delay = min(
                    self.backoff_base
                    * (2 ** (slot.consecutive_failures - 1)),
                    self.backoff_cap,
                )
                self._on_event(
                    "serve.worker.backoff",
                    worker=slot.index,
                    seconds=delay,
                    failures=slot.consecutive_failures,
                )
                time.sleep(delay)
            try:
                slot.handle = WorkerHandle(
                    slot.index,
                    slot.generation,
                    self.default_mode,
                    store_path=self.store_path,
                )
                self._on_event(
                    "serve.workers.spawned",
                    worker=slot.index,
                    generation=slot.generation,
                )
                return slot.handle
            except (WorkerDied, OSError):
                if slot.handle is not None:
                    slot.handle.kill()
                    slot.handle = None
                slot.consecutive_failures += 1
                slot.generation += 1
        return None

    def _execute(self, slot: _Slot, job: Job) -> None:
        queue_wait = time.monotonic() - job.enqueued_at
        while True:
            job.attempts += 1
            handle = self._ensure_worker(slot)
            if handle is None:
                diagnostic = worker_crash_diagnostic(
                    f"worker {slot.index} failed to start "
                    f"{MAX_SPAWN_ATTEMPTS} times in a row"
                )
                job.finish(
                    self._crash_record(job, diagnostic, outcome="crashed"),
                    worker=slot.index,
                    queue_wait_seconds=round(queue_wait, 6),
                )
                return
            try:
                response = handle.request(
                    {"type": "job", "id": job.id, "spec": job.spec.to_dict()},
                    timeout=job.spec.timeout,
                )
            except WorkerDied as died:
                if died.kind == "hang":
                    handle.kill()
                self._retire(slot, died)
                if job.attempts <= self.max_retries:
                    self._on_event(
                        "serve.jobs.retried",
                        job=job.id,
                        worker=slot.index,
                        cause=died.kind,
                    )
                    continue
                job.finish(
                    self._death_record(job, died),
                    worker=slot.index,
                    generation=handle.generation,
                    queue_wait_seconds=round(queue_wait, 6),
                    cause=died.kind,
                )
                return
            slot.consecutive_failures = 0
            handle.jobs_done += 1
            slot.note_result(response)
            record = response.get("record")
            if record is None:
                # The worker rejected the spec (protocol error) -- a
                # caller bug, not a worker death; no retry will help.
                diagnostic = worker_crash_diagnostic(
                    response.get("error") or "worker returned no record"
                )
                record = self._crash_record(
                    job, diagnostic, outcome="crashed"
                )
            job.finish(
                record,
                worker=slot.index,
                generation=handle.generation,
                queue_wait_seconds=round(queue_wait, 6),
                store=response.get("store"),
            )
            return

    def _retire(self, slot: _Slot, died: WorkerDied) -> None:
        """Account one worker death and stage the replacement."""
        slot.archive_generation()
        if slot.handle is not None:
            slot.handle.kill()
        slot.handle = None
        slot.generation += 1
        slot.consecutive_failures += 1
        slot.restarts += 1
        self._on_event(
            "serve.workers.restarts",
            worker=slot.index,
            cause=died.kind,
            signal=died.signal,
            detail=str(died),
        )

    # ------------------------------------------------------------------
    def _crash_record(self, job: Job, diagnostic, outcome: str) -> dict:
        from repro.benchsuite.runner import RunRecord

        return RunRecord(
            name=job.spec.benchmark,
            outcome=outcome,
            seconds=0.0,
            mode=job.spec.mode or self.default_mode,
            error=diagnostic.message,
            diagnostics=[diagnostic.to_dict()],
            trace=surviving_trace(job.spec.trace),
        ).to_dict()

    def _death_record(self, job: Job, died: WorkerDied) -> dict:
        """Retries exhausted: the structured no-silent-loss answer."""
        from repro.benchsuite.runner import RunRecord

        trace = surviving_trace(job.spec.trace)
        if died.kind == "hang":
            diagnostic = timeout_diagnostic(job.spec.timeout, trace=trace)
            outcome = "timeout"
        else:
            diagnostic = worker_crash_diagnostic(
                f"{died} after {job.attempts} attempt(s)",
                signal=died.signal,
                trace=trace,
            )
            outcome = "crashed"
        return RunRecord(
            name=job.spec.benchmark,
            outcome=outcome,
            seconds=0.0,
            mode=job.spec.mode or self.default_mode,
            error=diagnostic.message,
            signal=died.signal,
            diagnostics=[diagnostic.to_dict()],
            trace=trace,
        ).to_dict()
