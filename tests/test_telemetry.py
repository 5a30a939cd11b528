"""Tests for the live-telemetry layer: rolling histograms (bucketing,
merging, quantiles, wire forms), metric snapshots and the Prometheus
exposition, histogram-aware stat merging across batch children, the
flamegraph/hotspot exports (including torn traces from killed
workers), and the serve ``stats`` op end to end against a live
daemon."""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.histo import BUCKET_BOUNDS, OVERFLOW, Histogram, bucket_index
from repro.obs.metrics import histogram_flat_base
from repro.obs.summary import collapse_stacks, render_collapsed, render_hotspots
from repro.__main__ import main as cli_main


# ----------------------------------------------------------------------
# Histogram core
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_index_le_semantics(self):
        # Smallest i with value <= bounds[i]; underflow clamps to 0,
        # overflow lands past the last bound.
        assert bucket_index(0.0) == 0
        assert bucket_index(BUCKET_BOUNDS[0]) == 0
        assert bucket_index(BUCKET_BOUNDS[7]) == 7
        assert bucket_index(BUCKET_BOUNDS[7] * 1.0001) == 8
        assert bucket_index(BUCKET_BOUNDS[-1] * 10) == OVERFLOW
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i

    def test_observe_tracks_extrema_and_sum(self):
        hist = Histogram()
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6.0)
        assert hist.min == 1.0 and hist.max == 3.0

    def test_single_sample_quantiles_are_exact(self):
        hist = Histogram()
        hist.observe(0.0042)
        for q in (0.5, 0.9, 0.99):
            assert hist.quantile(q) == pytest.approx(0.0042)

    def test_quantiles_ordered_and_clamped(self):
        hist = Histogram()
        for i in range(1, 101):
            hist.observe(i / 1000.0)  # 1ms .. 100ms
        p50, p90, p99 = (hist.quantile(q) for q in (0.5, 0.9, 0.99))
        assert hist.min <= p50 <= p90 <= p99 <= hist.max
        # within one log-spaced bucket of the true order statistic
        assert p50 == pytest.approx(0.050, rel=0.8)
        assert p99 == pytest.approx(0.099, rel=0.8)

    def test_merge_equals_union(self):
        union, left, right = Histogram(), Histogram(), Histogram()
        samples = [0.001, 0.5, 7.0, 0.0002, 3.0, 0.5]
        for i, value in enumerate(samples):
            union.observe(value)
            (left if i % 2 else right).observe(value)
        left.merge(right)
        assert left.count == union.count
        assert left.sum == pytest.approx(union.sum)
        assert left.min == union.min and left.max == union.max
        assert left.buckets == union.buckets
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == pytest.approx(union.quantile(q))

    def test_merge_into_empty_and_with_empty(self):
        hist = Histogram()
        other = Histogram()
        other.observe(2.0)
        hist.merge(other)          # empty <- populated
        hist.merge(Histogram())    # populated <- empty: no-op
        assert hist.count == 1
        assert hist.min == hist.max == 2.0

    def test_dict_round_trip(self):
        hist = Histogram()
        for value in (0.01, 0.02, 5.0):
            hist.observe(value)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()

    def test_from_dict_accepts_legacy_scalar_form(self):
        # PR-3 histograms were plain count/sum/min/max dicts; decoding
        # one credits the whole count to the mean's bucket.
        hist = Histogram.from_dict(
            {"count": 4, "sum": 8.0, "min": 1.0, "max": 3.0}
        )
        assert hist.count == 4
        assert hist.buckets == {bucket_index(2.0): 4}

    def test_from_flat_round_trip(self):
        metrics = obs.Metrics()
        for value in (0.003, 0.004, 0.9):
            metrics.observe("serve.job.seconds", value)
        flat = metrics.to_dict()
        rebuilt = Histogram.from_flat(flat, "serve.job.seconds")
        assert rebuilt.to_dict() == metrics.histograms[
            "serve.job.seconds"
        ].to_dict()

    def test_getitem_back_compat(self):
        hist = Histogram()
        hist.observe(1.5)
        assert hist["count"] == 1 and hist["sum"] == 1.5
        with pytest.raises(KeyError):
            hist["p50"]


# ----------------------------------------------------------------------
# Flattened-form merging (the batch-children path)
# ----------------------------------------------------------------------
class TestHistogramStatMerging:
    def _flat(self, *values: float) -> dict:
        metrics = obs.Metrics()
        for value in values:
            metrics.observe("entailment.match_steps.dist", value)
        return metrics.to_dict()

    def test_flat_base_detection(self):
        assert histogram_flat_base(
            "entailment.match_steps.dist.p99"
        ) == "entailment.match_steps.dist"
        assert histogram_flat_base(
            "entailment.match_steps.dist.bucket.31"
        ) == "entailment.match_steps.dist"
        assert histogram_flat_base("engine.states") is None
        assert histogram_flat_base("made.up.p99") is None

    def test_merge_stat_dicts_is_bucket_wise(self):
        into: dict = {}
        obs.merge_stat_dicts(into, self._flat(2.0, 40.0))
        obs.merge_stat_dicts(into, self._flat(700.0))
        base = "entailment.match_steps.dist"
        assert into[f"{base}.count"] == 3
        assert into[f"{base}.sum"] == pytest.approx(742.0)
        assert into[f"{base}.min"] == 2.0       # min of mins
        assert into[f"{base}.max"] == 700.0     # max of maxes
        # percentiles recomputed from the merged buckets, not averaged
        union = self._flat(2.0, 40.0, 700.0)
        for suffix in ("p50", "p90", "p99"):
            assert into[f"{base}.{suffix}"] == pytest.approx(
                union[f"{base}.{suffix}"], rel=1e-6
            )
        # bucket counts themselves summed
        rebuilt = Histogram.from_flat(into, base)
        assert rebuilt.buckets == Histogram.from_flat(union, base).buckets

    def test_batch_runner_aggregates_histograms(self):
        from repro.benchsuite.runner import run_batch

        report = run_batch(names=["list-build", "list-reverse"])
        merged = report.to_dict()["metrics"]
        outcome = report.records[0].outcome
        base = "entailment.match_steps.dist"
        per_run = sum(
            r.result["stats"][f"{base}.count"] for r in report.records
        )
        assert merged[outcome][f"{base}.count"] == per_run
        assert f"{base}.p50" in merged[outcome]


# ----------------------------------------------------------------------
# Snapshots + Prometheus exposition
# ----------------------------------------------------------------------
class TestSnapshot:
    def _registry(self) -> obs.Metrics:
        metrics = obs.Metrics()
        metrics.inc("engine.states", 12)
        metrics.gauge("incr.cone.size", 2)
        metrics.observe("serve.job.seconds", 0.25)
        metrics.observe("serve.job.seconds", 0.75)
        return metrics

    def test_snapshot_restore_round_trip(self):
        metrics = self._registry()
        clone = obs.restore(json.loads(json.dumps(obs.snapshot(metrics))))
        assert clone.to_dict() == metrics.to_dict()

    def test_restore_tolerates_missing_payload(self):
        assert obs.restore(None).to_dict() == {}
        assert obs.restore({}).to_dict() == {}

    def test_merge_snapshot_accumulates(self):
        metrics = self._registry()
        obs.merge_snapshot(metrics, obs.snapshot(self._registry()))
        assert metrics.counter("engine.states") == 24
        assert metrics.histograms["serve.job.seconds"].count == 4

    def test_prometheus_exposition(self):
        text = obs.render_prometheus(self._registry())
        assert "repro_engine_states_total 12" in text
        assert "repro_incr_cone_size 2" in text
        assert 'repro_serve_job_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_serve_job_seconds_count 2" in text
        assert "repro_serve_job_seconds_sum 1.0" in text
        # cumulative le buckets: counts never decrease
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_job_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Flamegraph export + hotspots
# ----------------------------------------------------------------------
def _span(id, parent, name, start, end):
    return {
        "type": "span", "id": id, "parent": parent, "name": name,
        "start": start, "end": end, "attrs": {},
    }


class TestFlamegraph:
    def test_self_time_subtracts_direct_children(self):
        records = [
            _span(1, 0, "analysis", 0.0, 10.0),
            _span(2, 1, "fixpoint", 0.0, 4.0),
            _span(3, 1, "fixpoint", 4.0, 7.0),
        ]
        folded = collapse_stacks(records)
        assert folded[("analysis",)] == pytest.approx(3.0)
        assert folded[("analysis", "fixpoint")] == pytest.approx(7.0)
        text = render_collapsed(records)
        assert "analysis 3000000" in text
        assert "analysis;fixpoint 7000000" in text

    def test_orphan_span_roots_at_itself(self):
        # The torn-trace shape: a child survived, its parent's record
        # never made it to disk.
        records = [_span(2, 99, "fixpoint", 0.0, 2.0)]
        folded = collapse_stacks(records)
        assert folded == {("fixpoint",): pytest.approx(2.0)}

    def test_zero_self_time_spans_omitted(self):
        records = [
            _span(1, 0, "analysis", 0.0, 5.0),
            _span(2, 1, "fixpoint", 0.0, 5.0),  # consumes all of parent
        ]
        folded = collapse_stacks(records)
        assert ("analysis",) not in folded
        assert folded[("analysis", "fixpoint")] == pytest.approx(5.0)

    def test_hotspots_rank_by_self_time(self):
        records = [
            _span(1, 0, "analysis", 0.0, 10.0),
            _span(2, 1, "fixpoint", 0.0, 8.0),
            _span(3, 2, "entailment", 0.0, 1.0),
        ]
        text = render_hotspots(records, top=2)
        lines = [l for l in text.splitlines() if "|" in l]
        # fixpoint has 7s self vs analysis 2s: fixpoint ranks first
        assert lines and "Hotspots" in text
        order = [l for l in lines if "fixpoint" in l or "analysis" in l]
        assert "fixpoint" in order[0]

    def test_cli_flamegraph_survives_torn_trace(self, tmp_path, capsys):
        # Satellite: a *real* trace truncated mid-line (what a
        # SIGKILLed worker leaves behind) must warn, not crash, and
        # still fold into valid collapsed stacks.
        trace = tmp_path / "t.jsonl"
        assert cli_main(["list-build", "--trace", str(trace)]) == 0
        capsys.readouterr()
        data = trace.read_bytes()
        assert len(data) > 80
        trace.write_bytes(data[:-40])  # tear the final record mid-write
        assert cli_main(["trace-summary", str(trace), "--flamegraph"]) == 0
        captured = capsys.readouterr()
        assert "malformed" in captured.err and "torn" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) > 0
        assert any("fixpoint" in line for line in lines)

    def test_cli_hotspots_and_out_file(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert cli_main(["list-build", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(
            ["trace-summary", str(trace), "--hotspots", "5"]
        ) == 0
        assert "Hotspots" in capsys.readouterr().out
        out = tmp_path / "folded.txt"
        assert cli_main(
            ["trace-summary", str(trace), "--flamegraph", "--out", str(out)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().strip()


# ----------------------------------------------------------------------
# The serve `stats` op against a live daemon
# ----------------------------------------------------------------------
@pytest.fixture
def daemon(tmp_path):
    from repro.serve.server import AnalysisServer

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


class TestServeStats:
    def test_stats_op_end_to_end(self, daemon, capsys):
        from repro.serve.client import Client
        from repro.serve.stats import main as stats_main, render_stats
        from repro.serve.protocol import JobSpec

        client = Client(daemon.socket_path)
        assert client.wait_until_ready(30.0)
        elapsed = []
        for _ in range(3):
            started = time.monotonic()
            response = client.submit(JobSpec(benchmark="list-build"))
            elapsed.append(time.monotonic() - started)
            assert response["record"]["outcome"] == "pass"

        payload = client.stats()
        assert payload["state"] == "strict"
        assert payload["queue_capacity"] == 4
        assert payload["queue_depth"] == 0
        assert payload["restarts"] == 0
        assert payload["uptime_seconds"] > 0

        # Server-side registry: job latency histogram matches the
        # client's own measurements within tolerance -- the client
        # round-trip upper-bounds every in-server latency.
        server = obs.restore(payload["server"])
        assert server.counter("serve.jobs.completed") == 3
        assert server.counter("serve.stats.requests") >= 1
        job_hist = server.histograms["serve.job.seconds"]
        assert job_hist.count == 3
        assert 0 < job_hist.quantile(0.5) <= job_hist.quantile(0.99)
        assert job_hist.max <= max(elapsed)

        # Engine aggregate rides home from the worker: real analysis
        # counters and the match-steps histogram are present.
        engine = obs.restore(payload["engine"])
        assert engine.counter("entailment.queries") > 0
        assert engine.histograms["entailment.match_steps.dist"].count > 0

        # Satellite: everything a serve run emits is schema-known.
        assert server.check_schema() == []
        assert engine.check_schema() == []

        # Per-worker info: the live generation's metrics snapshot.
        worker = payload["workers"][0]
        assert worker["alive"] and worker["generation"] == 0
        assert worker["metrics"] is not None

        # Human rendering covers every section.
        text = render_stats(payload)
        for needle in (
            "repro serve: live stats",
            "Job latency",
            "Workers (per generation)",
            "Engine aggregate",
            "serve.job.seconds",
            "entailment.match_steps.dist",
        ):
            assert needle in text

        # CLI: all three output modes against the live socket.
        assert stats_main(["--socket", daemon.socket_path]) == 0
        assert "live stats" in capsys.readouterr().out
        assert stats_main(["--socket", daemon.socket_path, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["queue_capacity"] == 4
        assert stats_main(["--socket", daemon.socket_path, "--prom"]) == 0
        prom = capsys.readouterr().out
        assert "repro_serve_jobs_completed_total 3" in prom
        assert "repro_serve_job_seconds_bucket" in prom

    def test_stats_cli_unreachable_socket(self, tmp_path, capsys):
        from repro.serve.stats import main as stats_main

        missing = str(tmp_path / "nope.sock")
        assert stats_main(["--socket", missing]) == 3
        assert "repro stats" in capsys.readouterr().err


class TestGenerationArchive:
    def test_dead_generation_survives_in_stats(self, monkeypatch):
        from repro.serve.protocol import JobSpec
        from repro.serve.supervisor import WorkerPool
        from repro.serve.worker import CHAOS_ENV

        monkeypatch.setenv(CHAOS_ENV, "0:kill:9@2")
        pool = WorkerPool(workers=1, capacity=8, max_retries=2)
        try:
            for _ in range(2):
                job = pool.submit(JobSpec(benchmark="list-build"))
                assert job.wait(120.0)
                assert job.record["outcome"] == "pass"
            (info,) = pool.stats()
            # Generation 0 was killed mid-job 2; its telemetry must
            # survive the restart as an archived generation.
            assert info["restarts"] == 1
            assert info["generation"] == 1
            (dead,) = info["generations"]
            assert dead["generation"] == 0
            assert dead["jobs_done"] == 1
            assert dead["metrics"] is not None
            # The replacement's own metrics snapshot accumulates
            # independently of the archive.
            assert info["metrics"] is not None
        finally:
            pool.stop()
