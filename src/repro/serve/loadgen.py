"""Load generator: the service under N concurrent clients, measured.

``python -m repro serve-bench`` forks a daemon, drives it with a
thread pool of clients submitting benchmarks round-robin, and reports
what a service owner actually wants to know:

* **latency** -- p50 / p99 / mean / max end-to-end seconds per job
  (queue wait included: that is what the client experiences);
* **throughput** -- completed jobs per second of wall time;
* **backpressure** -- how many submits were rejected-with-retry-after
  and how long clients spent backed off (the explicit cost of the
  bounded queue);
* **cache warmth** -- mean ``entailment.cache`` hit rate of each
  worker generation's *first* job (cold) vs all later jobs (warm).
  A higher warm hit rate is not a throughput gain: measured against
  per-job memos (see :mod:`repro.serve`), warm memos moved jobs/s by
  less than the run-to-run spread.

The generator is also importable (:func:`run_load`) so the smoke
harness and tests reuse the same traffic engine.
"""

from __future__ import annotations

import threading
import time

from repro.serve.client import Client, OverloadedError, ServerError
from repro.serve.protocol import JobSpec

__all__ = ["main", "percentile", "run_load"]

DEFAULT_BENCHMARKS = ("list-build", "list-traverse", "list-reverse")
#: Edit-loop (``--diff``) defaults: Table-4 programs with enough
#: procedures that a one-procedure edit leaves a cone worth replaying.
DIFF_BENCHMARKS = ("treeadd", "bisort", "perimeter", "power")


def percentile(values: list, p: float) -> float:
    """The *p*-th percentile (0..100) by linear interpolation; 0.0 for
    an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _hit_rate(stats: dict) -> "float | None":
    hits = stats.get("entailment.cache.hits", 0)
    misses = stats.get("entailment.cache.misses", 0)
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def run_load(
    socket_path: "str | None" = None,
    benchmarks: "tuple | list" = DEFAULT_BENCHMARKS,
    clients: int = 4,
    jobs_per_client: int = 5,
    timeout: float = 120.0,
    mode: "str | None" = None,
    diff: bool = False,
) -> dict:
    """Drive the daemon at *socket_path* and return the report dict.

    With *diff*, every job is an ``analyze-diff``: the same benchmark
    names, but each job analyzes a distinct seeded one-procedure
    dead-store edit, the CI traffic shape the incremental layer exists
    for -- persistent workers keep the base fixpoint tables warm, so
    steady-state latency is cone-sized, not program-sized, and the
    report adds the replay hit rate that proves it."""
    client = Client(socket_path)
    results: list = []
    errors: list = []
    rejected = 0
    backoff_seconds = 0.0
    lock = threading.Lock()

    def one_client(client_index: int) -> None:
        nonlocal rejected, backoff_seconds
        for j in range(jobs_per_client):
            sequence = client_index * jobs_per_client + j
            benchmark = benchmarks[sequence % len(benchmarks)]
            edit = None
            if diff:
                # One distinct edit per job: seeds vary so the service
                # sees a stream of different diffs against the same
                # bases, exactly like per-commit CI traffic.
                edit = {"seed": sequence + 1, "kinds": ["dead-store"]}
            spec = JobSpec(
                benchmark=benchmark, mode=mode, timeout=timeout, edit=edit
            )
            started = time.monotonic()
            while True:
                try:
                    response = client.submit(
                        spec,
                        retry_for=0.0,
                        op="analyze-diff" if diff else "submit",
                    )
                    break
                except OverloadedError as exc:
                    with lock:
                        rejected += 1
                        backoff_seconds += exc.retry_after
                    time.sleep(exc.retry_after)
                except (OSError, ServerError) as exc:
                    with lock:
                        errors.append(f"{benchmark}: {exc}")
                    return
            latency = time.monotonic() - started
            record = response.get("record") or {}
            serve = response.get("serve") or {}
            stats = (record.get("result") or {}).get("stats") or {}
            with lock:
                results.append(
                    {
                        "benchmark": benchmark,
                        "outcome": record.get("outcome"),
                        "latency": latency,
                        "worker": serve.get("worker"),
                        "generation": serve.get("generation"),
                        "degraded": serve.get("degraded"),
                        "hit_rate": _hit_rate(stats),
                        "replayed": stats.get("incr.summaries.replayed", 0),
                    }
                )

    wall_start = time.monotonic()
    threads = [
        threading.Thread(target=one_client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - wall_start

    latencies = [r["latency"] for r in results]
    outcomes: dict = {}
    for r in results:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1

    # Cold = each (worker, generation)'s first-served job; warm = rest.
    # Results are appended in completion order, which is serve order
    # per worker, so "first seen" is "first served".
    cold_rates, warm_rates = [], []
    seen_workers: set = set()
    for r in results:
        if r["hit_rate"] is None or r["worker"] is None:
            continue
        key = (r["worker"], r["generation"])
        if key not in seen_workers:
            seen_workers.add(key)
            cold_rates.append(r["hit_rate"])
        else:
            warm_rates.append(r["hit_rate"])

    def mean(values: list) -> "float | None":
        return round(sum(values) / len(values), 4) if values else None

    incremental = None
    if diff:
        replayed = [r["replayed"] for r in results]
        incremental = {
            "jobs_with_replay": sum(1 for n in replayed if n),
            "replayed_summaries": sum(replayed),
            "replay_job_rate": round(
                sum(1 for n in replayed if n) / len(replayed), 4
            )
            if replayed
            else None,
        }

    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "jobs_completed": len(results),
        "outcomes": dict(sorted(outcomes.items())),
        "errors": errors,
        "wall_seconds": round(wall, 3),
        "throughput_jobs_per_second": round(len(results) / wall, 3)
        if wall > 0
        else 0.0,
        "latency_seconds": {
            "p50": round(percentile(latencies, 50), 4),
            "p99": round(percentile(latencies, 99), 4),
            "mean": mean(latencies) or 0.0,
            "max": round(max(latencies), 4) if latencies else 0.0,
        },
        "rejected_submits": rejected,
        "backoff_seconds": round(backoff_seconds, 3),
        "cache": {
            "cold_hit_rate": mean(cold_rates),
            "warm_hit_rate": mean(warm_rates),
            "worker_generations_seen": len(seen_workers),
        },
        "degraded_jobs": sum(1 for r in results if r.get("degraded")),
        "diff": diff,
        "incremental": incremental,
    }


def render_report(report: dict) -> str:
    lines = [
        f"loadgen: {report['jobs_completed']} jobs "
        f"({report['clients']} clients x {report['jobs_per_client']}), "
        f"{report['wall_seconds']}s wall, "
        f"{report['throughput_jobs_per_second']} jobs/s",
        f"  outcomes: {report['outcomes']}",
        f"  latency: p50 {report['latency_seconds']['p50']}s, "
        f"p99 {report['latency_seconds']['p99']}s, "
        f"max {report['latency_seconds']['max']}s",
        f"  backpressure: {report['rejected_submits']} rejects, "
        f"{report['backoff_seconds']}s backed off, "
        f"{report['degraded_jobs']} degraded jobs",
    ]
    cache = report["cache"]
    lines.append(
        f"  cache: cold hit rate {cache['cold_hit_rate']}, "
        f"warm hit rate {cache['warm_hit_rate']} "
        f"({cache['worker_generations_seen']} worker generation(s))"
    )
    if report.get("incremental"):
        incr = report["incremental"]
        lines.append(
            f"  incremental: {incr['jobs_with_replay']} job(s) replayed "
            f"warm fixpoints ({incr['replayed_summaries']} summaries, "
            f"replay job rate {incr['replay_job_rate']})"
        )
    if report["errors"]:
        lines.append(f"  errors: {report['errors']}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro serve-bench`` -- fork a daemon, load it,
    report, shut it down.  ``--socket`` targets an already-running
    daemon instead."""
    import argparse
    import json
    import subprocess
    import sys
    import tempfile

    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description="load-test the analysis daemon",
    )
    parser.add_argument("--socket", default=None,
                        help="use a running daemon instead of forking one")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=5,
                        help="jobs per client")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue", type=int, default=16)
    parser.add_argument("--mode", choices=("strict", "degrade"), default=None)
    parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark names (default: the quick list "
        "benchmarks, or the Table-4 diff set with --diff)",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="edit-loop traffic: every job is an analyze-diff with a "
        "distinct seeded dead-store edit; the report adds fixpoint "
        "replay rates (the CI-per-commit shape)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    default_names = DIFF_BENCHMARKS if args.diff else DEFAULT_BENCHMARKS
    benchmarks = tuple(
        name.strip()
        for name in (args.benchmarks or ",".join(default_names)).split(",")
        if name.strip()
    )
    daemon = None
    socket_path = args.socket
    try:
        if socket_path is None:
            socket_path = tempfile.mktemp(
                prefix="repro-serve-bench-", suffix=".sock"
            )
            from repro.childproc import child_env

            daemon = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", socket_path,
                    "--workers", str(args.workers),
                    "--queue", str(args.queue),
                ],
                env=child_env(),
            )
            if not Client(socket_path).wait_until_ready(timeout=60.0):
                print("serve-bench: daemon never became ready",
                      file=sys.stderr)
                return 1
        report = run_load(
            socket_path,
            benchmarks=benchmarks,
            clients=args.clients,
            jobs_per_client=args.jobs,
            mode=args.mode,
            diff=args.diff,
        )
        if args.json:
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(render_report(report))
        return 0 if not report["errors"] else 1
    finally:
        if daemon is not None:
            try:
                Client(socket_path).shutdown()
                daemon.wait(timeout=30.0)
            except Exception:
                daemon.terminate()
                try:
                    daemon.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    daemon.kill()


if __name__ == "__main__":
    raise SystemExit(main())
