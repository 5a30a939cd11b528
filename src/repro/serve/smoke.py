"""The serve smoke gate: chaos traffic that must lose nothing.

``python -m repro serve-smoke`` is what CI runs: fork the daemon with
a chaos instruction in its environment (worker 0, generation 0, kills
itself with SIGKILL when its third job arrives --
``REPRO_SERVE_CHAOS=0:kill:9@3``), drive a batch of jobs through it
concurrently -- including one carrying a crucible fault injected
mid-job in whichever worker picks it up -- and hold the service to the
robustness contract:

1. **no silent loss** -- every submitted job gets a response, and with
   retries available none resolves to ``worker-crashed``: the victim
   of the kill is re-run on the restarted worker and completes;
2. **verdict parity** -- each benchmark's outcome and diagnostic codes
   through the service are identical to a single-shot in-process run
   (supervision must not change analysis semantics);
3. **supervision really happened** -- ``serve.workers.restarts >= 1``
   and ``serve.jobs.retried >= 1`` in the daemon's metrics (a smoke
   run where the chaos never fired proves nothing);
4. **warm after restart** -- the replacement worker's entailment cache
   shows hits on later jobs (``hits > 0``): a restart loses the warm
   state but the worker re-warms in service, it does not devolve to
   one-shot behavior;
5. **bounded latency** -- p99 under a generous budget, so a hang that
   supervision papered over still fails the gate;
6. **the durable store survives the restart** -- the pool shares one
   summary store directory (:mod:`repro.store`), and the replacement
   worker must reach a non-zero store hit count: unlike the in-process
   caches (which check 4 proves must *re-warm*), the store's warmth
   carries *across* the kill -- the generation-1 process reads the
   summaries its dead predecessor persisted.
7. **fixpoint warm-up fired** -- the supervisor injected the dead
   generation's last fixpoint-table dump into the replacement
   (``serve.workers.warmed >= 1``), and the restarted worker's own
   metrics confirm the injection (``incr.tables.injected >= 1``): the
   in-memory replay tier, unlike the caches of check 4, must *not*
   start cold after a kill.

Exit code 0 when every check passes; 1 with the failed checks listed.
"""

from __future__ import annotations

import threading
import time

from repro.serve.client import Client, OverloadedError, ServerError
from repro.serve.loadgen import percentile
from repro.serve.protocol import JobSpec

__all__ = ["main", "run_smoke"]

SMOKE_BENCHMARKS = ("list-build", "list-traverse", "list-reverse")
#: The crucible fault one job carries: an injected engine *exception*
#: mid-entailment, which resilience must turn into a fatal
#: ``internal-error`` diagnostic, never a worker death.
FAULT_JOB = {"phase": "entailment", "kind": "error", "at": 1}


def _single_shot_verdict(benchmark: str, mode: str) -> tuple:
    """(outcome, diagnostic codes) from an in-process one-shot run --
    the parity baseline the service must match."""
    from repro.benchsuite.runner import run_one

    record = run_one(benchmark, mode=mode).to_dict()
    return (
        record.get("outcome"),
        tuple(sorted(d.get("code") for d in record.get("diagnostics") or [])),
    )


def run_smoke(
    socket_path: str,
    jobs: int = 20,
    mode: str = "degrade",
    timeout: float = 120.0,
    store_path: "str | None" = None,
) -> dict:
    """Drive *jobs* chaos-laced jobs at a running daemon; the report
    with ``failures`` (empty = gate passed)."""
    client = Client(socket_path)
    responses: list = []
    errors: list = []
    lock = threading.Lock()

    def submit(index: int) -> None:
        benchmark = SMOKE_BENCHMARKS[index % len(SMOKE_BENCHMARKS)]
        spec = JobSpec(benchmark=benchmark, mode=mode, timeout=timeout)
        if index == 1:
            spec.faults = [dict(FAULT_JOB)]
        started = time.monotonic()
        while True:
            try:
                response = client.submit(spec, retry_for=0.0)
                break
            except OverloadedError as exc:
                time.sleep(exc.retry_after)
            except (OSError, ServerError) as exc:
                with lock:
                    errors.append(f"job {index} ({benchmark}): {exc}")
                return
        with lock:
            responses.append(
                {
                    "index": index,
                    "benchmark": benchmark,
                    "faulted": index == 1,
                    "latency": time.monotonic() - started,
                    "record": response.get("record") or {},
                    "serve": response.get("serve") or {},
                }
            )

    threads = [
        threading.Thread(target=submit, args=(i,), daemon=True)
        for i in range(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    status = client.status()
    metrics = status.get("metrics", {})
    failures = list(errors)

    # 1. No silent loss: every job answered, none gave up as crashed.
    if len(responses) != jobs:
        failures.append(
            f"lost jobs: {jobs} submitted, {len(responses)} answered"
        )
    for r in responses:
        outcome = r["record"].get("outcome")
        if outcome in ("crashed", "timeout"):
            failures.append(
                f"job {r['index']} ({r['benchmark']}) resolved to "
                f"{outcome}: {r['record'].get('error')}"
            )

    # 2. Verdict parity with single-shot runs (the faulted job is
    # excluded: its verdict intentionally differs).
    baselines = {
        benchmark: _single_shot_verdict(benchmark, mode)
        for benchmark in SMOKE_BENCHMARKS
    }
    for r in responses:
        if r["faulted"]:
            continue
        verdict = (
            r["record"].get("outcome"),
            tuple(
                sorted(
                    d.get("code")
                    for d in r["record"].get("diagnostics") or []
                )
            ),
        )
        if verdict != baselines[r["benchmark"]]:
            failures.append(
                f"verdict drift on {r['benchmark']} (job {r['index']}): "
                f"served {verdict}, single-shot {baselines[r['benchmark']]}"
            )

    # The faulted job must have been *contained*: an analysis-level
    # diagnostic, not a worker death.
    faulted = [r for r in responses if r["faulted"]]
    if faulted:
        codes = [
            d.get("code")
            for d in faulted[0]["record"].get("diagnostics") or []
        ]
        if faulted[0]["record"].get("outcome") == "crashed":
            failures.append(
                f"fault-injected job crashed the worker: {codes}"
            )
        elif not codes:
            failures.append(
                "fault-injected job produced no diagnostic at all"
            )

    # 3. Supervision fired.
    if metrics.get("serve.workers.restarts", 0) < 1:
        failures.append("no worker restart recorded -- chaos never fired?")
    if metrics.get("serve.jobs.retried", 0) < 1:
        failures.append("no job retry recorded -- victim job not re-run?")

    # 4. Warm after restart: a post-restart response from the killed
    # worker slot whose entailment cache shows hits.  The batch may
    # have fed the replacement only one (cold) job, so probe with a
    # few more sequential jobs until the slot demonstrates warmth --
    # jobs are pulled by whichever worker is free, so several probes
    # may be needed before one lands on the restarted slot.
    def _post_restart(r: dict) -> bool:
        return (
            r["serve"].get("worker") == 0
            and (r["serve"].get("generation") or 0) >= 1
        )

    def _hits(r: dict) -> int:
        return (r["serve"].get("cache") or {}).get("hits", 0)

    restarted = [r for r in responses if _post_restart(r)]
    for probe in range(12):
        if any(_hits(r) > 0 for r in restarted):
            break
        try:
            response = client.submit(
                JobSpec(
                    benchmark=SMOKE_BENCHMARKS[0], mode=mode, timeout=timeout
                ),
                retry_for=timeout,
            )
        except (OSError, ServerError) as exc:
            failures.append(f"warmth probe {probe}: {exc}")
            break
        r = {
            "index": f"probe-{probe}",
            "benchmark": SMOKE_BENCHMARKS[0],
            "record": response.get("record") or {},
            "serve": response.get("serve") or {},
        }
        if _post_restart(r):
            restarted.append(r)
    if not restarted:
        failures.append(
            "no post-restart job observed on the killed worker slot"
        )
    elif not any(_hits(r) > 0 for r in restarted):
        failures.append(
            "restarted worker never warmed: entailment cache hits "
            f"stayed 0 across {len(restarted)} post-restart jobs"
        )

    # 5. Bounded latency.
    latencies = [r["latency"] for r in responses]
    p99 = percentile(latencies, 99)
    if p99 > timeout:
        failures.append(f"p99 latency {p99:.1f}s over the {timeout}s budget")

    # 6. Durable warm tier: the restarted (fresh, cache-cold) worker
    # must hit summaries persisted before the kill.  The entry-
    # procedure summary short-circuits a whole repeat analysis, so its
    # very first job on a benchmark the pool has seen already hits.
    def _store_hits(r: dict) -> int:
        return (r["serve"].get("store") or {}).get("hits", 0)

    if store_path is not None:
        for probe in range(12):
            if any(_store_hits(r) > 0 for r in restarted):
                break
            try:
                response = client.submit(
                    JobSpec(
                        benchmark=SMOKE_BENCHMARKS[0],
                        mode=mode,
                        timeout=timeout,
                    ),
                    retry_for=timeout,
                )
            except (OSError, ServerError) as exc:
                failures.append(f"store warmth probe {probe}: {exc}")
                break
            r = {
                "index": f"store-probe-{probe}",
                "benchmark": SMOKE_BENCHMARKS[0],
                "record": response.get("record") or {},
                "serve": response.get("serve") or {},
            }
            if _post_restart(r):
                restarted.append(r)
        if restarted and not any(_store_hits(r) > 0 for r in restarted):
            failures.append(
                "restarted worker never hit the durable store: store "
                f"hits stayed 0 across {len(restarted)} post-restart "
                "jobs (warm tier did not survive the kill)"
            )

    # 7. Fixpoint warm-up: the supervisor must have injected the dead
    # generation's table into the replacement, and the replacement's
    # own session metrics must record the injection.  Both ends of the
    # warm round-trip are asserted, so a supervisor that *sends* a dump
    # a worker silently rejects still fails the gate.
    warmed = metrics.get("serve.workers.warmed", 0)
    if warmed < 1:
        failures.append(
            "supervisor never warmed a restarted worker "
            "(serve.workers.warmed stayed 0)"
        )
    else:
        try:
            worker_stats = client.stats().get("workers") or []
        except (OSError, ServerError) as exc:
            worker_stats = []
            failures.append(f"stats fetch for warm-up check: {exc}")
        injected = 0
        for info in worker_stats:
            snapshot = info.get("metrics") or {}
            injected += (snapshot.get("counters") or {}).get(
                "incr.tables.injected", 0
            )
        if worker_stats and injected < 1:
            failures.append(
                "no worker reported incr.tables.injected >= 1 -- the "
                "warm dump was sent but never merged"
            )

    return {
        "jobs": jobs,
        "answered": len(responses),
        "outcomes": _count(r["record"].get("outcome") for r in responses),
        "latency_p99_seconds": round(p99, 4),
        "restarts": metrics.get("serve.workers.restarts", 0),
        "retries": metrics.get("serve.jobs.retried", 0),
        "warmed": warmed,
        "post_restart_jobs": len(restarted),
        "failures": failures,
    }


def _count(values) -> dict:
    out: dict = {}
    for value in values:
        out[value] = out.get(value, 0) + 1
    return dict(sorted(out.items()))


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro serve-smoke`` -- fork the daemon with chaos
    armed, run the gate, tear down."""
    import argparse
    import json
    import os
    import shutil
    import subprocess
    import sys
    import tempfile

    from repro.childproc import child_env
    from repro.serve.worker import CHAOS_ENV

    parser = argparse.ArgumentParser(
        prog="repro serve-smoke",
        description="chaos smoke gate for the analysis daemon",
    )
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--chaos",
        default="0:kill:9@3",
        help="REPRO_SERVE_CHAOS instruction for the daemon's workers",
    )
    parser.add_argument(
        "--trace", default=None, help="serve trace artifact path"
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    socket_path = tempfile.mktemp(prefix="repro-serve-smoke-", suffix=".sock")
    store_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-store-")
    env = child_env({CHAOS_ENV: args.chaos})
    command = [
        sys.executable, "-m", "repro", "serve",
        "--socket", socket_path,
        "--workers", str(args.workers),
        "--queue", str(max(args.jobs, 16)),
        # Parity gate: the ladder must not rewrite deadlines here, so
        # arm it only at the hard-reject boundary.
        "--high-water", str(max(args.jobs, 16)),
        "--mode", "degrade",
        # Shared durable store: check 6 asserts the killed worker's
        # replacement reads the summaries its predecessor persisted.
        "--store", store_dir,
    ]
    if args.trace:
        command += ["--trace", args.trace]
    daemon = subprocess.Popen(command, env=env)
    try:
        if not Client(socket_path).wait_until_ready(timeout=60.0):
            print("serve-smoke: daemon never became ready", file=sys.stderr)
            return 1
        report = run_smoke(socket_path, jobs=args.jobs, store_path=store_dir)
    finally:
        try:
            Client(socket_path).shutdown()
            daemon.wait(timeout=30.0)
        except Exception:
            daemon.terminate()
            try:
                daemon.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                daemon.kill()
        if os.path.exists(socket_path):
            try:
                os.unlink(socket_path)
            except OSError:
                pass
        shutil.rmtree(store_dir, ignore_errors=True)

    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(
            f"serve-smoke: {report['answered']}/{report['jobs']} jobs "
            f"answered, outcomes {report['outcomes']}, "
            f"p99 {report['latency_p99_seconds']}s, "
            f"{report['restarts']} restart(s), {report['retries']} retry(s)"
        )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"serve-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
