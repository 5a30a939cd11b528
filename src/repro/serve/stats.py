"""``python -m repro stats`` -- live telemetry from a running daemon.

One ``{"op": "stats"}`` round-trip against the serve socket, rendered
three ways:

* default: human tables -- service overview (state, queue, restarts),
  job-latency percentiles straight from the rolling histograms,
  per-worker durable-store hit rates (dead generations included, so
  a restart stays visible), and the pool-wide engine aggregate;
* ``--json``: the raw payload, for scripts and dashboards;
* ``--prom``: a Prometheus-style text exposition of the server and
  aggregated engine registries, for scrape-style collection.

The daemon does no periodic push: workers attach a cumulative metrics
snapshot to every result line they already write, the supervisor keeps
the freshest one per worker, and this command merges them at read
time.  Zero steady-state cost, and the numbers are exactly as stale as
the pool's quietest worker.
"""

from __future__ import annotations

import json
import sys

from repro import obs
from repro.obs.histo import Histogram
from repro.reporting import render_table
from repro.serve.client import Client, ServerError
from repro.serve.protocol import ProtocolError

__all__ = ["main", "render_stats"]

#: Engine counters the human view promotes to headline totals (the
#: full set is always in ``--json`` / ``--prom``).
_HEADLINE_COUNTERS = (
    "engine.states",
    "engine.summaries.reused",
    "entailment.queries",
    "entailment.cache.hits",
    "entailment.cache.misses",
    "store.lookups",
    "store.hits",
    "store.misses",
)


def _fmt(value, digits: int = 6) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _hit_rate(stats: "dict | None") -> str:
    if not stats:
        return "-"
    rate = stats.get("hit_rate")
    if rate is None:
        lookups = stats.get("lookups") or (
            (stats.get("hits") or 0) + (stats.get("misses") or 0)
        )
        rate = (stats.get("hits") or 0) / lookups if lookups else 0.0
    return f"{rate:.3f}"


def _histogram_rows(snap: "dict | None", names) -> list:
    rows = []
    histograms = (snap or {}).get("histograms") or {}
    for name in names:
        data = histograms.get(name)
        if not data:
            continue
        hist = Histogram.from_dict(data)
        rows.append(
            [
                name,
                hist.count,
                _fmt(round(hist.quantile(0.5), 6)),
                _fmt(round(hist.quantile(0.9), 6)),
                _fmt(round(hist.quantile(0.99), 6)),
                _fmt(round(hist.max, 6)),
            ]
        )
    return rows


def render_stats(payload: dict) -> str:
    """The human view of one stats payload."""
    server = payload.get("server") or {}
    counters = server.get("counters") or {}
    sections = []

    overview = [
        ["state", payload.get("state", "?")],
        ["uptime (s)", _fmt(payload.get("uptime_seconds"))],
        [
            "queue depth / capacity",
            f"{payload.get('queue_depth', '?')} / "
            f"{payload.get('queue_capacity', '?')}",
        ],
        ["queue peak", payload.get("queue_peak", 0)],
        ["worker restarts", payload.get("restarts", 0)],
        ["jobs submitted", counters.get("serve.jobs.submitted", 0)],
        ["jobs completed", counters.get("serve.jobs.completed", 0)],
        ["jobs rejected", counters.get("serve.jobs.rejected", 0)],
        ["jobs degraded", counters.get("serve.jobs.degraded", 0)],
        ["degrade entered/exited",
         f"{counters.get('serve.degrade.entered', 0)} / "
         f"{counters.get('serve.degrade.exited', 0)}"],
    ]
    sections.append(render_table(["Service", "Value"], overview,
                                 title="repro serve: live stats"))

    latency = _histogram_rows(
        server, ("serve.job.seconds", "serve.job.queue_wait_seconds")
    )
    if latency:
        sections.append(
            render_table(
                ["Latency", "Count", "p50", "p90", "p99", "Max"],
                latency,
                title="Job latency (seconds)",
            )
        )

    worker_rows = []
    for info in payload.get("workers") or []:
        for generation in info.get("generations") or []:
            worker_rows.append(
                [
                    f"{info.get('index')} (gen {generation.get('generation')})",
                    "dead",
                    generation.get("jobs_done", 0),
                    _hit_rate(generation.get("store")),
                ]
            )
        worker_rows.append(
            [
                f"{info.get('index')} (gen {info.get('generation')})",
                "up" if info.get("alive") else "down",
                info.get("jobs_done", 0),
                _hit_rate(info.get("store")),
            ]
        )
    if worker_rows:
        sections.append(
            render_table(
                ["Worker", "State", "Jobs", "Store hit"],
                worker_rows,
                title="Workers (per generation)",
            )
        )

    engine = payload.get("engine") or {}
    engine_counters = engine.get("counters") or {}
    headline = [
        [name, engine_counters[name]]
        for name in _HEADLINE_COUNTERS
        if name in engine_counters
    ]
    engine_hists = _histogram_rows(
        engine, sorted((engine.get("histograms") or {}))
    )
    if headline:
        sections.append(
            render_table(
                ["Engine metric", "Total"], headline,
                title="Engine aggregate (all workers, all generations)",
            )
        )
    if engine_hists:
        sections.append(
            render_table(
                ["Engine histogram", "Count", "p50", "p90", "p99", "Max"],
                engine_hists,
            )
        )
    return "\n\n".join(sections)


def _merged_registry(payload: dict) -> obs.Metrics:
    """Server + engine-aggregate registries as one, for ``--prom``."""
    merged = obs.restore(payload.get("server"))
    merged.merge(obs.restore(payload.get("engine")))
    merged.gauge("serve.queue.depth", payload.get("queue_depth", 0))
    merged.gauge("serve.queue.peak", payload.get("queue_peak", 0))
    return merged


def main(argv: "list[str] | None" = None) -> int:
    """Exit codes: 0 rendered, 3 could not talk to the server."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="live telemetry from a running repro serve daemon",
    )
    parser.add_argument("--socket", default=None, help="unix socket path")
    parser.add_argument(
        "--json", action="store_true", help="print the raw stats payload"
    )
    parser.add_argument(
        "--prom",
        action="store_true",
        help="print a Prometheus-style text exposition",
    )
    args = parser.parse_args(argv)

    try:
        payload = Client(args.socket).stats()
    except (OSError, ProtocolError, ServerError) as exc:
        print(f"repro stats: {exc}", file=sys.stderr)
        return 3
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    elif args.prom:
        sys.stdout.write(obs.render_prometheus(_merged_registry(payload)))
    else:
        print(render_stats(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
