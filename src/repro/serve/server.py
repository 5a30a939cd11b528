"""The analysis daemon: unix-socket front-end, backpressure, overload
degradation.

``python -m repro serve`` builds one :class:`AnalysisServer`: a
threading unix-socket server whose handlers parse one request line,
push the job through the supervised :class:`WorkerPool`, block on the
result and write one response line.  Two policies live here, not in
the pool:

* **backpressure** -- the pool's queue is bounded; when it is full a
  submit is *rejected immediately* with ``{"error": "overloaded",
  "retry_after": ...}`` instead of being buffered.  An overloaded
  service that answers "try again in 0.4s" in constant time stays
  diagnosable; one that queues unboundedly falls over opaquely;
* **graceful degradation** -- the :class:`OverloadController` samples
  queue depth at every submit.  Sustained pressure (depth at or above
  the high-water mark for ``enter_after`` consecutive samples) flips
  the service to the *degraded* rung: jobs that did not pin a mode are
  forced to ``degrade`` and their cooperative deadlines are tightened,
  trading per-job thoroughness for queue drain rate.  Sustained calm
  (depth at or below the low-water mark for ``exit_after`` samples)
  recovers to *strict*.  The two-threshold hysteresis keeps the ladder
  from flapping on a noisy queue.

Every transition and job outcome is recorded through the PR-3 obs
layer: ``serve.*`` metrics (schema-checked like engine metrics) and
tracer events, so an operator can replay exactly when the service
entered degrade and which jobs rode through it.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time

from repro import obs
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    JobSpec,
    ProtocolError,
    default_socket_path,
    parse_request,
    read_message,
    write_message,
)
from repro.serve.supervisor import PoolFull, WorkerPool

__all__ = [
    "AnalysisServer",
    "OverloadController",
    "acquire_pidfile",
    "main",
    "release_pidfile",
]

#: ``serve.state`` gauge values.
STATE_STRICT = 0
STATE_DEGRADED = 1


class OverloadController:
    """The degradation ladder: strict <-> degraded with hysteresis.

    Pure policy, no I/O -- ``sample(depth)`` folds one queue-depth
    observation in and reports a transition (``"entered"`` /
    ``"exited"`` / None); ``apply(spec)`` rewrites a job spec for the
    current rung.  Sampling happens wherever traffic happens (every
    submit), so recovery is evaluated exactly when it matters: the
    next job to arrive after pressure subsides.
    """

    def __init__(
        self,
        high_water: int,
        low_water: "int | None" = None,
        enter_after: int = 3,
        exit_after: int = 5,
        degraded_deadline: float = 5.0,
    ):
        if high_water < 1:
            raise ValueError("high_water must be >= 1")
        self.high_water = high_water
        #: Default low-water at half the high-water mark: the gap is
        #: the hysteresis band.
        self.low_water = (
            low_water if low_water is not None else high_water // 2
        )
        if self.low_water >= self.high_water:
            raise ValueError("low_water must be below high_water")
        self.enter_after = enter_after
        self.exit_after = exit_after
        self.degraded_deadline = degraded_deadline
        self.degraded = False
        self._hot_streak = 0
        self._calm_streak = 0

    def sample(self, depth: int) -> "str | None":
        """Fold one depth observation; a transition name or None."""
        if not self.degraded:
            if depth >= self.high_water:
                self._hot_streak += 1
                if self._hot_streak >= self.enter_after:
                    self.degraded = True
                    self._hot_streak = 0
                    self._calm_streak = 0
                    return "entered"
            else:
                self._hot_streak = 0
            return None
        if depth <= self.low_water:
            self._calm_streak += 1
            if self._calm_streak >= self.exit_after:
                self.degraded = False
                self._calm_streak = 0
                self._hot_streak = 0
                return "exited"
        else:
            self._calm_streak = 0
        return None

    def apply(self, spec: JobSpec) -> bool:
        """Rewrite *spec* for the current rung; True when the degraded
        rung changed it.  Jobs that *pinned* ``mode="strict"`` keep it
        (an explicit request is a contract), but deadlines tighten for
        everyone -- latency is the resource under contention."""
        if not self.degraded:
            return False
        changed = False
        if spec.mode is None:
            spec.mode = "degrade"
            changed = True
        if spec.deadline is None or spec.deadline > self.degraded_deadline:
            spec.deadline = self.degraded_deadline
            changed = True
        return changed

    @property
    def state(self) -> str:
        return "degraded" if self.degraded else "strict"


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: one request line, one response line."""

    def handle(self) -> None:
        server: "AnalysisServer" = self.server.analysis_server
        import json

        try:
            message = read_message(self.rfile)
            if message is None:
                return
            request = parse_request(json.dumps(message))
        except ProtocolError as exc:
            write_message(
                self.wfile,
                {"ok": False, "error": ERR_BAD_REQUEST, "message": str(exc)},
            )
            return
        response = server.dispatch(request)
        write_message(self.wfile, response)


class _SocketServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True
    # A burst of concurrent clients (the load generator, the smoke
    # gate) must queue at the accept() boundary, not bounce off the
    # default backlog of 5 with EAGAIN -- backpressure is the job
    # queue's, explicit and observable, never the socket's.
    request_queue_size = 128


class AnalysisServer:
    """The daemon: socket front-end + pool + overload policy + obs."""

    def __init__(
        self,
        socket_path: "str | None" = None,
        workers: int = 2,
        capacity: int = 16,
        max_retries: int = 2,
        default_mode: str = "strict",
        degraded_deadline: float = 5.0,
        high_water: "int | None" = None,
        enter_after: int = 3,
        exit_after: int = 5,
        trace_path: "str | None" = None,
        store_path: "str | None" = None,
    ):
        self.socket_path = socket_path or default_socket_path()
        self.default_mode = default_mode
        self.store_path = store_path
        self.metrics = obs.Metrics()
        self.tracer = (
            obs.Tracer.to_path(trace_path) if trace_path else obs.NULL_TRACER
        )
        self.overload = OverloadController(
            # Default high-water at ~3/4 capacity: reject-at-full still
            # fires first; the ladder reacts *before* hard rejection.
            high_water=high_water if high_water is not None else max(
                1, (capacity * 3) // 4
            ),
            enter_after=enter_after,
            exit_after=exit_after,
            degraded_deadline=degraded_deadline,
        )
        self._overload_lock = threading.Lock()
        self._shutting_down = threading.Event()
        self._started_at = time.monotonic()
        self._queue_peak = 0
        self.pool = WorkerPool(
            workers=workers,
            capacity=capacity,
            max_retries=max_retries,
            default_mode=default_mode,
            store_path=store_path,
            on_event=self._pool_event,
        )
        self.metrics.gauge("serve.state", STATE_STRICT)
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead server
        self._socket_server = _SocketServer(self.socket_path, _RequestHandler)
        self._socket_server.analysis_server = self

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        try:
            self._socket_server.serve_forever(poll_interval=0.2)
        finally:
            self.close()

    def shutdown(self) -> None:
        """Stop accepting, fail queued jobs, stop workers."""
        self._shutting_down.set()
        threading.Thread(
            target=self._socket_server.shutdown, daemon=True
        ).start()

    def close(self) -> None:
        self._shutting_down.set()
        self._socket_server.server_close()
        self.pool.stop()
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self.tracer.close()

    # ------------------------------------------------------------------
    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "status":
            return {"ok": True, "status": self.status()}
        if op == "stats":
            self.metrics.inc("serve.stats.requests")
            return {"ok": True, "stats": self.stats()}
        if op == "shutdown":
            self.shutdown()
            return {"ok": True, "shutdown": True}
        return self.handle_submit(request, op=op)

    def handle_submit(self, request: dict, op: str = "submit") -> dict:
        if self._shutting_down.is_set():
            return {
                "ok": False,
                "error": ERR_SHUTTING_DOWN,
                "message": "server is shutting down",
            }
        try:
            spec = JobSpec.from_dict(request.get("spec"))
        except ProtocolError as exc:
            return {
                "ok": False,
                "error": ERR_BAD_REQUEST,
                "message": str(exc),
            }
        # ``analyze-diff`` is submit with an edit instruction required:
        # the op exists so edit-loop clients fail loudly when they
        # forget the edit (a plain re-analysis would silently measure
        # the wrong thing), and so traffic dashboards can tell the two
        # job shapes apart.
        if op == "analyze-diff" and spec.edit is None:
            return {
                "ok": False,
                "error": ERR_BAD_REQUEST,
                "message": "analyze-diff needs spec.edit "
                '(e.g. {"seed": 7, "kinds": ["dead-store"]})',
            }
        depth = self.pool.queue_depth
        with self._overload_lock:
            transition = self.overload.sample(depth)
            degraded = self.overload.apply(spec)
            state = self.overload.state
        if transition is not None:
            self._record_transition(transition, depth)
        self.metrics.inc("serve.jobs.submitted")
        self._queue_peak = max(self._queue_peak, depth)
        self.metrics.gauge("serve.queue.depth", depth)
        self.metrics.gauge("serve.queue.peak", self._queue_peak)
        if degraded:
            self.metrics.inc("serve.jobs.degraded")
        try:
            job = self.pool.submit(spec, degraded=degraded)
        except PoolFull:
            self.metrics.inc("serve.jobs.rejected")
            retry_after = round(0.1 + 0.05 * depth, 3)
            if self.tracer.enabled:
                self.tracer.event(
                    "serve.reject", queue_depth=depth, retry_after=retry_after
                )
            return {
                "ok": False,
                "error": ERR_OVERLOADED,
                "retry_after": retry_after,
                "queue_depth": depth,
                "state": state,
            }
        started = time.monotonic()
        # Generous backstop: every retry may burn the full isolation
        # timeout plus backoff.  The supervisor's no-silent-loss
        # contract means this wait always resolves; the cap only
        # guards a supervisor *bug* from wedging the connection.
        backstop = spec.timeout * (self.pool.max_retries + 2) + 120.0
        if not job.wait(timeout=backstop):
            self.metrics.inc("serve.jobs.crashed")
            return {
                "ok": False,
                "error": ERR_BAD_REQUEST,
                "message": f"job {job.id} did not resolve (supervisor bug)",
            }
        record = job.record
        seconds = time.monotonic() - started
        self.metrics.inc("serve.jobs.completed")
        self.metrics.observe("serve.job.seconds", seconds)
        wait_seconds = job.serve_info.get("queue_wait_seconds")
        if wait_seconds is not None:
            self.metrics.observe("serve.job.queue_wait_seconds", wait_seconds)
        outcome = record.get("outcome")
        if outcome == "crashed":
            self.metrics.inc("serve.jobs.crashed")
        elif outcome == "timeout":
            self.metrics.inc("serve.jobs.timeout")
        if self.tracer.enabled:
            self.tracer.event(
                "serve.job",
                id=job.id,
                benchmark=spec.benchmark,
                outcome=outcome,
                seconds=round(seconds, 6),
                degraded=degraded,
                attempts=job.serve_info.get("attempts"),
                worker=job.serve_info.get("worker"),
            )
        serve_info = dict(job.serve_info)
        serve_info.update(id=job.id, state=state, seconds=round(seconds, 6))
        return {"ok": True, "record": record, "serve": serve_info}

    # ------------------------------------------------------------------
    def status(self) -> dict:
        return {
            "socket": self.socket_path,
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "state": self.overload.state,
            "queue_depth": self.pool.queue_depth,
            "queue_capacity": self.pool.capacity,
            "high_water": self.overload.high_water,
            "low_water": self.overload.low_water,
            "default_mode": self.default_mode,
            "store": self.store_path,
            "workers": self.pool.worker_info(),
            "metrics": self.metrics.to_dict(),
        }

    def stats(self) -> dict:
        """The live-telemetry payload behind ``python -m repro stats``.

        ``server`` is a lossless snapshot of the daemon's own registry
        (job counters, latency histograms, the overload ladder);
        ``workers`` is the pool's per-worker telemetry including dead
        generations; ``engine`` merges every worker's engine-metrics
        snapshot (live and archived) into one aggregate registry --
        histogram buckets sum, so the percentiles in it are the pool's
        true distribution, not an average of averages."""
        worker_stats = self.pool.stats()
        engine = obs.Metrics()
        for info in worker_stats:
            obs.merge_snapshot(engine, info.get("metrics"))
            for generation in info.get("generations") or []:
                obs.merge_snapshot(engine, generation.get("metrics"))
        depth = self.pool.queue_depth
        self.metrics.gauge("serve.queue.depth", depth)
        return {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "state": self.overload.state,
            "queue_depth": depth,
            "queue_capacity": self.pool.capacity,
            "queue_peak": self._queue_peak,
            "restarts": sum(i.get("restarts", 0) for i in worker_stats),
            "server": obs.snapshot(self.metrics),
            "engine": obs.snapshot(engine),
            "workers": worker_stats,
        }

    def _record_transition(self, transition: str, depth: int) -> None:
        if transition == "entered":
            self.metrics.inc("serve.degrade.entered")
            self.metrics.gauge("serve.state", STATE_DEGRADED)
        else:
            self.metrics.inc("serve.degrade.exited")
            self.metrics.gauge("serve.state", STATE_STRICT)
        if self.tracer.enabled:
            self.tracer.event(
                f"serve.degrade.{transition}", queue_depth=depth
            )

    def _pool_event(self, name: str, **attrs) -> None:
        """The pool's telemetry hook: counters + trace events."""
        if name in obs.METRIC_SCHEMA:
            self.metrics.inc(name)
        if self.tracer.enabled:
            self.tracer.event(
                name,
                **{
                    k: v
                    for k, v in attrs.items()
                    if isinstance(v, (str, int, float, bool, type(None)))
                },
            )


def acquire_pidfile(path: str) -> bool:
    """Claim *path* for this process; False when another live server
    already holds it.

    A pidfile left by a crashed or SIGKILLed server is *stale*: the
    recorded pid either no longer exists (``ESRCH``) or is unreadable
    garbage, and the file is silently reclaimed.  Only a pid that is
    demonstrably alive (signal 0 succeeds, or fails with ``EPERM`` --
    alive but owned by someone else) blocks the start: refusing to
    double-start protects the socket path and the shared store from
    two pools believing they own the same worker indices.
    """
    import errno

    try:
        text = open(path).read().strip()
    except FileNotFoundError:
        text = ""
    except OSError:
        text = ""
    if text:
        try:
            pid = int(text)
            os.kill(pid, 0)
            return False  # alive: refuse to double-start
        except (ValueError, ProcessLookupError):
            pass  # garbage or ESRCH: stale, reclaim
        except PermissionError:
            return False  # EPERM: alive under another uid
        except OSError as exc:  # pragma: no cover - exotic platforms
            if exc.errno != errno.ESRCH:
                return False
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return True


def release_pidfile(path: str) -> None:
    """Remove *path* iff it still names this process."""
    try:
        if open(path).read().strip() == str(os.getpid()):
            os.unlink(path)
    except OSError:
        pass


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro serve`` -- run the daemon in the foreground."""
    import argparse
    import signal as signal_mod
    import sys

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="analysis daemon: supervised worker pool over a unix socket",
    )
    parser.add_argument("--socket", default=None, help="unix socket path")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--queue", type=int, default=16, help="bounded queue capacity"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-runs of a job whose worker died before giving up",
    )
    parser.add_argument(
        "--mode", choices=("strict", "degrade"), default="strict"
    )
    parser.add_argument(
        "--high-water",
        type=int,
        default=None,
        help="queue depth that arms the degrade ladder (default: 3/4 capacity)",
    )
    parser.add_argument(
        "--degraded-deadline",
        type=float,
        default=5.0,
        help="cooperative deadline forced on jobs while degraded",
    )
    parser.add_argument(
        "--trace", default=None, help="write serve.* trace events to FILE"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="shared durable summary store for the whole pool "
        "(cross-worker warm tier that survives restarts)",
    )
    parser.add_argument(
        "--pidfile",
        default=None,
        metavar="PATH",
        help="write the daemon pid to PATH; refuse to start while "
        "another live server holds it (a stale pidfile from a dead "
        "process is reclaimed)",
    )
    args = parser.parse_args(argv)

    if args.pidfile and not acquire_pidfile(args.pidfile):
        print(
            f"repro serve: refusing to start: pidfile {args.pidfile} "
            f"names a live process ({open(args.pidfile).read().strip()})",
            file=sys.stderr,
        )
        return 1

    store_path = args.store
    # Register as a live store consumer so ``repro store-gc`` refuses
    # to evict the pool's warm working set out from under it.
    if store_path:
        from repro.store.gc import register_store_pid

        register_store_pid(store_path, role="serve")
    server = AnalysisServer(
        socket_path=args.socket,
        workers=args.workers,
        capacity=args.queue,
        max_retries=args.retries,
        default_mode=args.mode,
        degraded_deadline=args.degraded_deadline,
        high_water=args.high_water,
        trace_path=args.trace,
        store_path=store_path,
    )
    for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
        signal_mod.signal(signum, lambda *_: server.shutdown())
    print(
        f"repro serve: {args.workers} worker(s), queue {args.queue}, "
        f"mode {args.mode}, socket {server.socket_path}"
        + (f", store {store_path}" if store_path else ""),
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        if store_path:
            from repro.store.gc import release_store_pid

            release_store_pid(store_path)
        if args.pidfile:
            release_pidfile(args.pidfile)
    print("repro serve: stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
