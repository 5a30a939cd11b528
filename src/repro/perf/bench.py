"""``python -m repro bench``: the performance baseline harness.

Measures, for every suite benchmark, *repeated* analysis throughput in
two configurations -- ``--no-cache`` (every run pays the full
entailment search) and cached (one :class:`EntailmentCache` shared
across the benchmark's repetitions, the warm server-style workload the
roadmap's "heavy traffic" goal cares about; canonical keys and
predicate-environment tokens are fully structural, so verdicts carry
across runs) -- and writes a ``BENCH_<date>.json`` baseline recording
wall times, per-phase seconds and cache hit rates.

Every cached run is differentially checked against its uncached twin:
the verdict fingerprint (outcome, failure, attempts, exit-state count
and the engine's trajectory counters) must be identical, otherwise the
report flags the benchmark and the harness exits nonzero.  The
entailment cache is a pure memo -- a verdict difference is a soundness
bug, not a measurement artifact.

``--quick`` restricts the suite to the list staples plus the
entailment stress program (the CI perf-smoke job runs this);
``--require-hits`` additionally fails when the list benchmarks see no
cache hits at all, which would mean cross-run key sharing regressed.

Verdict parity across the other engine knobs (schedule, store,
lemmas, incremental replay, and their combinations) is not measured
here: ``python -m repro diff`` is the differential gate for all of
them.

When a committed ``BENCH_*.json`` baseline exists (or ``--baseline``
names one), the report embeds a delta section: stored totals, the
uncached-total ratio, and per-benchmark phase-seconds deltas.  Treat
cross-*time* wall-clock ratios with suspicion -- they compare
different machine loads; the honest speedup measurement is an
interleaved A/B against a checkout of the baseline commit (see
EXPERIMENTS.md).

``--compare BASELINE.json`` turns the harness into a noise-aware
regression *gate*: per-benchmark per-rep minima (the one-sided-noise
estimator) are compared against the baseline's, a regression needs to
exceed both a relative threshold and an absolute seconds floor,
under-sampled benchmarks are skipped rather than judged, and any
surviving regression exits nonzero.  CI runs this against the
committed baselines; ``--compare-out`` writes the comparison JSON it
uploads as an artifact.

Since the incremental layer landed (schema ``repro-bench-v2``), suite
runs also measure the ``incr:*`` edit-loop rows: each Table-4 program
is analyzed from scratch after a deterministic 1-procedure edit, then
incrementally against a store populated by the unedited base, and the
row reports the callgraph-cone size/depth of the edit and the fixpoint
replay hit rate alongside the usual timing arrays -- so the
``--compare`` gate guards the edit-loop speedup like any other
benchmark.  Core verdicts between the two configurations must match or
the harness exits nonzero (``python -m repro diff`` is the full
differential gate).

The default output path never overwrites an existing report: when
``BENCH_<date>.json`` is taken, ``BENCH_<date>-2.json`` (then ``-3``,
...) is used, so re-running on the baseline's date cannot clobber it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
import time
from pathlib import Path

from repro.perf.cache import EntailmentCache

__all__ = [
    "main",
    "run_bench",
    "BENCH_SCHEMA",
    "INCR_SUITE",
    "QUICK_SUITE",
    "attach_baseline",
    "compare_reports",
    "default_out_path",
    "find_baseline",
    "render_comparison",
]

#: The ``--quick`` suite: the cheap list staples (cross-run hit-rate
#: canaries) plus the entailment-bound stress workload.
QUICK_SUITE = (
    "list-build",
    "list-traverse",
    "list-reverse",
    "list-delete",
    "list-doubly",
    "entail-stress",
)

#: The incremental (edit-loop) suite: every Table-4 program is analyzed
#: from scratch after a 1-procedure edit, then again against a store
#: populated by the *unedited* base -- the "developer touched one
#: procedure, re-analyze" workload the roadmap's CI-traffic goal cares
#: about.  Rows are named ``incr:<program>`` and carry the ordinary
#: ``uncached_seconds``/``cached_seconds`` arrays so the ``--compare``
#: regression gate judges them like any other benchmark.
INCR_SUITE = ("181.mcf", "treeadd", "bisort", "perimeter", "power")

#: Seed for the deterministic 1-procedure edit the incremental rows
#: measure.  A dead store in the entry procedure: semantics-preserving,
#: so scratch and warm runs must agree, yet digest-changing, so the
#: entry procedure's cone genuinely re-analyzes.
_INCR_EDIT_SEED = 7

#: The bench report schema this harness writes and fully understands.
#: v2 added the ``incr:*`` rows and their ``incremental`` sections.
BENCH_SCHEMA = "repro-bench-v2"

_SCHEMA_VERSION = re.compile(r"^repro-bench-v(\d+)$")


def _schema_version(report: dict) -> "int | None":
    match = _SCHEMA_VERSION.match(str(report.get("schema", "")))
    return int(match.group(1)) if match else None

#: Verdict-fingerprint stat counters: identical between cached and
#: uncached runs iff the analysis took the same trajectory.  Cache and
#: timing metrics are deliberately absent.
_VERDICT_COUNTERS = (
    "engine.states",
    "engine.instructions",
    "engine.invariants.synthesized",
    "engine.summaries.reused",
    "engine.procedures.analyzed",
    "entailment.queries",
    "entailment.subsumed",
    "entailment.rejected",
    "entailment.lemma.applied",
)


def _verdict(result) -> dict:
    """The verdict fingerprint of one analysis result."""
    out = {
        "outcome": result.outcome,
        "failure": result.failure,
        "attempts": result.attempts,
        "exit_states": len(result.exit_states),
        "predicates": len(result.env),
    }
    for name in _VERDICT_COUNTERS:
        out[name] = result.stats.get(name, 0)
    return out


def _phase_seconds(result) -> dict:
    return {
        "pointer": round(result.pointer_seconds, 6),
        "slicing": round(result.slicing_seconds, 6),
        "shape": round(result.shape_seconds, 6),
    }


def _run(name: str, mode: str, deadline: float | None, cache) -> tuple:
    """One analysis run; returns (result, wall seconds)."""
    from repro.analysis import ShapeAnalysis
    from repro.benchsuite.runner import _resolve_benchmark

    program = _resolve_benchmark(name)
    start = time.perf_counter()
    result = ShapeAnalysis(
        program,
        name=name,
        mode=mode,
        deadline_seconds=deadline,
        enable_cache=cache is not None,
        cache=cache,
    ).run()
    return result, time.perf_counter() - start


def _incremental_row(
    name: str, mode: str, deadline: "float | None", repetitions: int
) -> dict:
    """One edit-loop measurement: ``incr:<name>``.

    ``uncached_seconds`` are from-scratch runs of the *edited* program;
    ``cached_seconds`` are incremental runs of the same edited program
    against a copy of a store populated by the unedited base -- each
    repetition gets its own copy of the populated store (a warm run
    re-exports the edited cone's bundles, and the honest workload is
    the *first* re-analysis after an edit, not the second).

    ``verdicts_match`` compares **core** verdicts
    (:func:`repro.diff.core_verdict`): replaying a cached fixpoint
    legitimately changes the trajectory counters (that is the whole
    point), never the conclusion -- ``python -m repro diff`` gates that
    parity differentially under store faults."""
    import shutil
    import tempfile

    from repro.analysis import ShapeAnalysis
    from repro.benchsuite import TABLE4_PROGRAMS
    from repro.crucible.generator import edit_program
    from repro.diff import core_verdict
    from repro.ir.digest import diff_programs, program_digests
    from repro.store import SummaryStore

    base = TABLE4_PROGRAMS()[name]
    edited, edits = edit_program(
        base, _INCR_EDIT_SEED, target=base.entry, kinds=("dead-store",)
    )
    diff = diff_programs(program_digests(base), edited)

    def run(program, store=None):
        start = time.perf_counter()
        result = ShapeAnalysis(
            program,
            name=f"incr:{name}",
            mode=mode,
            deadline_seconds=deadline,
            store=store,
        ).run()
        return result, time.perf_counter() - start

    uncached_seconds = []
    verdict = core = phases = None
    matches = True
    for _ in range(repetitions):
        result, seconds = run(edited)
        uncached_seconds.append(round(seconds, 6))
        this = core_verdict(result)
        if core is None:
            core, verdict, phases = this, _verdict(result), _phase_seconds(result)
        elif this != core:
            matches = False

    populate_dir = tempfile.mkdtemp(prefix=f"repro-bench-incr-{name}-")
    cached_seconds = []
    replay_hits = replay_lookups = invalid = 0
    try:
        run(base, SummaryStore(populate_dir))
        for _ in range(repetitions):
            rep_dir = tempfile.mkdtemp(prefix=f"repro-bench-incr-rep-{name}-")
            try:
                shutil.rmtree(rep_dir)
                shutil.copytree(populate_dir, rep_dir)
                warm = SummaryStore(rep_dir)
                result, seconds = run(edited, warm)
                cached_seconds.append(round(seconds, 6))
                stats = warm.stats()
                replay_hits += stats.get("fixpoint_hits", 0)
                replay_lookups += stats.get("fixpoint_lookups", 0)
                invalid += stats.get("invalid", 0)
                if core_verdict(result) != core:
                    matches = False
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        shutil.rmtree(populate_dir, ignore_errors=True)

    uncached_total, cached_total = sum(uncached_seconds), sum(cached_seconds)
    return {
        "name": f"incr:{name}",
        "verdict": verdict,
        "verdicts_match": matches,
        "phase_seconds": phases,
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "speedup": round(uncached_total / cached_total, 4)
        if cached_total
        else None,
        "incremental": {
            "edits": list(edits),
            "changed": list(diff.changed),
            "cone": list(diff.cone),
            "cone_size": len(diff.cone),
            "cone_depth": diff.depth,
            "procedures": diff.total,
            "reused": len(diff.reusable),
            "replay_hits": replay_hits,
            "replay_lookups": replay_lookups,
            "replay_hit_rate": round(replay_hits / replay_lookups, 6)
            if replay_lookups
            else 0.0,
            "invalid": invalid,
        },
    }


def run_bench(
    names: "list[str] | None" = None,
    quick: bool = False,
    repetitions: int = 3,
    mode: str = "degrade",
    deadline: float | None = 60.0,
    capacity: int = 65536,
) -> dict:
    """Run the benchmark comparison and return the report dict.

    Each benchmark is analyzed ``repetitions`` times without a cache
    and ``repetitions`` times against one shared cache; the shared
    cache makes repetitions 2..R the warm-path measurement.

    Suite runs (no explicit *names*) additionally measure the
    ``incr:*`` edit-loop rows over :data:`INCR_SUITE`; explicit name
    lists measure exactly what they name."""
    incremental = names is None
    if names is None:
        if quick:
            names = list(QUICK_SUITE)
        else:
            from repro.benchsuite.runner import benchmark_factories

            names = sorted(benchmark_factories())
    benchmarks = []
    mismatches = []
    total_uncached = total_cached = 0.0
    list_hits = list_misses = 0
    for name in names:
        uncached_seconds = []
        verdict = None
        verdicts_match = True
        for _ in range(repetitions):
            result, seconds = _run(name, mode, deadline, cache=None)
            uncached_seconds.append(round(seconds, 6))
            this = _verdict(result)
            if verdict is None:
                verdict = this
                phases = _phase_seconds(result)
            elif this != verdict:
                verdicts_match = False
        shared = EntailmentCache(capacity)
        cached_seconds = []
        rep_hit_rates = []
        for _ in range(repetitions):
            hits0, misses0 = shared.hits, shared.misses
            result, seconds = _run(name, mode, deadline, cache=shared)
            cached_seconds.append(round(seconds, 6))
            asked = (shared.hits - hits0) + (shared.misses - misses0)
            rep_hit_rates.append(
                round((shared.hits - hits0) / asked, 6) if asked else 0.0
            )
            if _verdict(result) != verdict:
                verdicts_match = False
        if not verdicts_match:
            mismatches.append(name)
        if name.startswith("list-"):
            list_hits += shared.hits
            list_misses += shared.misses
        uncached_total = sum(uncached_seconds)
        cached_total = sum(cached_seconds)
        total_uncached += uncached_total
        total_cached += cached_total
        benchmarks.append(
            {
                "name": name,
                "verdict": verdict,
                "verdicts_match": verdicts_match,
                "phase_seconds": phases,
                "uncached_seconds": uncached_seconds,
                "cached_seconds": cached_seconds,
                "speedup": round(uncached_total / cached_total, 4)
                if cached_total
                else None,
                "cache": {**shared.stats(), "rep_hit_rates": rep_hit_rates},
            }
        )
    incremental_mismatches = []
    total_incr_scratch = total_incr_warm = 0.0
    total_replay_hits = total_replay_lookups = 0
    if incremental:
        for incr_name in INCR_SUITE:
            row = _incremental_row(incr_name, mode, deadline, repetitions)
            if not row["verdicts_match"]:
                incremental_mismatches.append(row["name"])
            total_incr_scratch += sum(row["uncached_seconds"])
            total_incr_warm += sum(row["cached_seconds"])
            total_replay_hits += row["incremental"]["replay_hits"]
            total_replay_lookups += row["incremental"]["replay_lookups"]
            benchmarks.append(row)
    list_total = list_hits + list_misses
    return {
        "schema": BENCH_SCHEMA,
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "quick": quick,
        "repetitions": repetitions,
        "mode": mode,
        "benchmarks": benchmarks,
        "totals": {
            "uncached_seconds": round(total_uncached, 6),
            "cached_seconds": round(total_cached, 6),
            "speedup": round(total_uncached / total_cached, 4)
            if total_cached
            else None,
            "list_cache_hits": list_hits,
            "list_hit_rate": round(list_hits / list_total, 6)
            if list_total
            else 0.0,
            "incr_scratch_seconds": round(total_incr_scratch, 6),
            "incr_warm_seconds": round(total_incr_warm, 6),
            "incr_speedup": round(total_incr_scratch / total_incr_warm, 4)
            if total_incr_warm
            else None,
            "incr_replay_hits": total_replay_hits,
            "incr_replay_lookups": total_replay_lookups,
        },
        "verdict_mismatches": mismatches,
        "incremental_mismatches": incremental_mismatches,
    }


_BENCH_NAME = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})(?:-(\d+))?\.json$")


def default_out_path(report: dict, directory: "Path | str" = ".") -> Path:
    """``BENCH_<date>.json``, suffixed ``-2``/``-3``/... if taken.

    Never returns an existing path: re-running the harness on the same
    date as a committed baseline must not overwrite it."""
    directory = Path(directory)
    path = directory / f"BENCH_{report['date']}.json"
    suffix = 2
    while path.exists():
        path = directory / f"BENCH_{report['date']}-{suffix}.json"
        suffix += 1
    return path


def find_baseline(directory: "Path | str" = ".") -> "Path | None":
    """The most recent committed ``BENCH_<date>[-N].json``, or None.

    Ordered by (date, run-suffix) parsed from the name, not by mtime
    (checkouts rewrite mtimes) or raw string order (``-2`` sorts before
    ``.json`` in ASCII)."""
    candidates = []
    for path in Path(directory).iterdir():
        match = _BENCH_NAME.match(path.name)
        if match:
            candidates.append(
                (match.group(1), int(match.group(2) or 1), path)
            )
    if not candidates:
        return None
    return max(candidates)[2]


def attach_baseline(report: dict, baseline_path: Path) -> bool:
    """Embed a delta-vs-baseline section into *report* (in place).

    Baselines are committed artifacts from *other* machines and other
    versions of the harness, so anything missing from one -- a
    benchmark the current run has but the baseline lacks, a record
    without timing arrays, or a file that is not a bench report at all
    -- is a *warning* on stderr, never a crash: a fresh machine with
    no usable BENCH history must still be able to write its first
    baseline.  Returns True when a delta section was attached."""
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(
            f"repro bench: warning: unreadable baseline "
            f"{baseline_path}: {exc}; skipping deltas",
            file=sys.stderr,
        )
        return False
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("benchmarks"), list
    ):
        print(
            f"repro bench: warning: {baseline_path} is not a bench "
            "report (no benchmarks list); skipping deltas",
            file=sys.stderr,
        )
        return False
    base_by_name = {
        b["name"]: b
        for b in baseline["benchmarks"]
        if isinstance(b, dict) and "name" in b
    }
    # Per-rep means, so reports taken with different --reps compare.
    reps = max(report.get("repetitions", 1), 1)
    base_reps = max(baseline.get("repetitions", 1), 1)
    deltas = []
    missing = []
    for bench in report["benchmarks"]:
        base = base_by_name.get(bench["name"])
        if base is None or not base.get("uncached_seconds"):
            # The baseline predates this benchmark (or recorded an
            # empty trajectory for it): there is nothing to diff
            # against, which is normal on a new machine or after the
            # suite grew -- warn and carry on.
            missing.append(bench["name"])
            continue
        phase_delta = {
            phase: round(
                bench["phase_seconds"][phase]
                - base.get("phase_seconds", {}).get(phase, 0.0),
                6,
            )
            for phase in bench["phase_seconds"]
        }
        uncached = sum(bench["uncached_seconds"]) / reps
        base_uncached = sum(base["uncached_seconds"]) / base_reps
        deltas.append(
            {
                "name": bench["name"],
                "phase_seconds_delta": phase_delta,
                "uncached_ratio": round(base_uncached / uncached, 4)
                if uncached
                else None,
            }
        )
    if missing:
        print(
            "repro bench: warning: baseline "
            f"{baseline_path} has no usable record for: "
            + ", ".join(missing),
            file=sys.stderr,
        )
    shared = {d["name"] for d in deltas}
    ours = sum(
        sum(b["uncached_seconds"]) / reps
        for b in report["benchmarks"]
        if b["name"] in shared
    )
    theirs = sum(
        sum(b.get("uncached_seconds", [])) / base_reps
        for b in base_by_name.values()
        if b["name"] in shared
    )
    report["baseline"] = {
        "path": str(baseline_path),
        "date": baseline.get("date"),
        "totals": baseline.get("totals"),
        "shared_benchmarks": sorted(shared),
        "uncached_speedup_vs_baseline": round(theirs / ours, 4)
        if ours
        else None,
        "benchmarks": deltas,
        "caveat": "wall-clock ratio across different runs/machine "
        "loads; see EXPERIMENTS.md for the interleaved A/B protocol",
    }
    return True


# ----------------------------------------------------------------------
# The noise-aware regression gate (``--compare``)
# ----------------------------------------------------------------------

#: Relative slowdown that counts as a regression (0.25 = 25%).  Wide
#: on purpose: CI compares against baselines committed from *other*
#: machines, and an honest gate must not cry wolf on machine skew.
DEFAULT_COMPARE_THRESHOLD = 0.25
#: Absolute per-rep slowdown floor in seconds: a 25% blowup of a 4ms
#: benchmark is scheduler jitter, not a regression.  Both the relative
#: threshold *and* this floor must be exceeded.
DEFAULT_MIN_SECONDS = 0.05
#: Minimum repetitions (on both sides) before a verdict is rendered:
#: the min of one sample is just that sample, so under-sampled
#: benchmarks are *skipped*, never judged.
DEFAULT_MIN_REPS = 2


def _rep_min(seconds: "list | None") -> "float | None":
    values = [s for s in (seconds or []) if isinstance(s, (int, float))]
    return min(values) if values else None


def _compare_metric(
    current: "list | None",
    baseline: "list | None",
    threshold: float,
    min_reps: int,
    min_seconds: float,
) -> dict:
    """One timing array pair -> verdict.

    The estimator is the **per-rep minimum**: timing noise on a quiet
    benchmark is one-sided (preemption, cache eviction and GC only ever
    *add* time), so the min of R reps is the closest observable to the
    true cost and the only order statistic that gets *better* with more
    reps.  Means and totals smear outliers into the estimate; gating on
    them trades real regressions for noise alerts."""
    cur_min, base_min = _rep_min(current), _rep_min(baseline)
    out = {
        "current_min": cur_min,
        "baseline_min": base_min,
        "current_reps": len(current or []),
        "baseline_reps": len(baseline or []),
        "ratio": None,
        "verdict": "ok",
    }
    if cur_min is None or base_min is None:
        out["verdict"] = "missing"
        return out
    if out["current_reps"] < min_reps or out["baseline_reps"] < min_reps:
        out["verdict"] = "skipped"
        return out
    out["ratio"] = round(cur_min / base_min, 4) if base_min else None
    if (
        cur_min > base_min * (1.0 + threshold)
        and cur_min - base_min > min_seconds
    ):
        out["verdict"] = "regression"
    elif (
        base_min > cur_min * (1.0 + threshold)
        and base_min - cur_min > min_seconds
    ):
        out["verdict"] = "improved"
    return out


def compare_reports(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_COMPARE_THRESHOLD,
    min_reps: int = DEFAULT_MIN_REPS,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> dict:
    """Noise-aware comparison of two bench reports.

    Per benchmark, the uncached and cached per-rep minima are compared
    independently; a benchmark regresses when *either* metric exceeds
    both the relative *threshold* and the absolute *min_seconds* floor
    (and improves only when a metric clears the same bars the other
    way, so the verdict is symmetric).  Benchmarks with fewer than
    *min_reps* repetitions on either side are skipped, and benchmarks
    absent from the baseline are reported as missing -- a gate that
    judged under-sampled or unmatched data would be noise itself.

    Self-comparison of any report yields zero regressions by
    construction (every ratio is exactly 1.0).

    Schema skew is *warned about*, never silently absorbed: a baseline
    written by a newer harness (schema version above
    :data:`BENCH_SCHEMA`'s) may shape its timing fields differently, so
    its skipped/missing verdicts could be schema artifacts rather than
    absent data -- the ``warnings`` list in the returned dict (and in
    ``--compare-out``) says so explicitly."""
    warnings = []
    ours = _schema_version({"schema": BENCH_SCHEMA}) or 0
    base_version = _schema_version(baseline)
    if base_version is None:
        warnings.append(
            "baseline has no recognizable bench schema "
            f"(schema={baseline.get('schema')!r}); its timing fields "
            "may be misread -- treat skipped/missing verdicts as "
            "schema mismatch, not absent data"
        )
    elif base_version > ours:
        warnings.append(
            f"baseline was produced by a newer bench schema "
            f"(v{base_version} > this harness's v{ours}); its timing "
            "fields may be misread -- treat skipped/missing verdicts "
            "as schema mismatch, not absent data"
        )
    base_by_name = {
        b.get("name"): b
        for b in (baseline.get("benchmarks") or [])
        if isinstance(b, dict)
    }
    rows = []
    buckets: "dict[str, list]" = {
        "regression": [], "improved": [], "skipped": [], "missing": [],
    }
    for bench in current.get("benchmarks") or []:
        name = bench.get("name")
        base = base_by_name.get(name) or {}
        metrics = {
            metric: _compare_metric(
                bench.get(f"{metric}_seconds"),
                base.get(f"{metric}_seconds"),
                threshold,
                min_reps,
                min_seconds,
            )
            for metric in ("uncached", "cached")
        }
        verdicts = {m["verdict"] for m in metrics.values()}
        if "regression" in verdicts:
            verdict = "regression"
        elif verdicts <= {"missing"}:
            verdict = "missing"
        elif "skipped" in verdicts or "missing" in verdicts:
            verdict = "skipped"
        elif "improved" in verdicts:
            verdict = "improved"
        else:
            verdict = "ok"
        if verdict in buckets:
            buckets[verdict].append(name)
        rows.append({"name": name, "verdict": verdict, "metrics": metrics})
    return {
        "schema": "repro-bench-compare-v1",
        "threshold": threshold,
        "min_reps": min_reps,
        "min_seconds": min_seconds,
        "current_date": current.get("date"),
        "baseline_date": baseline.get("date"),
        "current_schema": current.get("schema"),
        "baseline_schema": baseline.get("schema"),
        "warnings": warnings,
        "benchmarks": rows,
        "regressions": buckets["regression"],
        "improved": buckets["improved"],
        "skipped": buckets["skipped"],
        "missing": buckets["missing"],
        "ok": not buckets["regression"],
    }


def render_comparison(comparison: dict) -> str:
    lines = [
        f"bench compare vs baseline of {comparison['baseline_date']} "
        f"(threshold {comparison['threshold'] * 100:.0f}% "
        f"and > {comparison['min_seconds']}s, per-rep minima, "
        f"min {comparison['min_reps']} reps)"
    ]
    for warning in comparison.get("warnings", ()):
        lines.append(f"  warning: {warning}")
    for row in comparison["benchmarks"]:
        parts = [f"  {row['name']:16s} {row['verdict']:10s}"]
        for metric, data in row["metrics"].items():
            if data["current_min"] is None or data["baseline_min"] is None:
                parts.append(f" {metric} -")
                continue
            ratio = f"x{data['ratio']}" if data["ratio"] is not None else "-"
            parts.append(
                f" {metric} {data['current_min']:.3f}s"
                f" vs {data['baseline_min']:.3f}s ({ratio})"
            )
        lines.append("".join(parts))
    summary = ", ".join(
        f"{len(comparison[key])} {key}"
        for key in ("regressions", "improved", "skipped", "missing")
    )
    lines.append(
        f"  => {'OK' if comparison['ok'] else 'REGRESSION'}: {summary}"
    )
    return "\n".join(lines)


def render(report: dict) -> str:
    lines = [
        f"bench {report['date']} ({'quick' if report['quick'] else 'full'}, "
        f"{report['repetitions']} reps)"
    ]
    for bench in report["benchmarks"]:
        if "incremental" in bench:
            incr = bench["incremental"]
            lines.append(
                f"  {bench['name']:16s} scratch  {sum(bench['uncached_seconds']):7.3f}s"
                f"  incr   {sum(bench['cached_seconds']):7.3f}s"
                f"  x{bench['speedup']:<6}"
                f" cone {incr['cone_size']}/{incr['procedures']}"
                f" depth {incr['cone_depth']}"
                f" replay {incr['replay_hits']}/{incr['replay_lookups']}"
                f"{'' if bench['verdicts_match'] else '  VERDICT MISMATCH'}"
            )
            continue
        cache = bench["cache"]
        lines.append(
            f"  {bench['name']:16s} uncached {sum(bench['uncached_seconds']):7.3f}s"
            f"  cached {sum(bench['cached_seconds']):7.3f}s"
            f"  x{bench['speedup']:<6}"
            f" hit_rate {cache.get('hit_rate', 0.0):.2f}"
            f"{'' if bench['verdicts_match'] else '  VERDICT MISMATCH'}"
        )
    totals = report["totals"]
    lines.append(
        f"  {'TOTAL':16s} uncached {totals['uncached_seconds']:7.3f}s"
        f"  cached {totals['cached_seconds']:7.3f}s"
        f"  x{totals['speedup']}"
    )
    if totals.get("incr_warm_seconds"):
        lines.append(
            f"  {'INCREMENTAL':16s} scratch  {totals['incr_scratch_seconds']:7.3f}s"
            f"  incr   {totals['incr_warm_seconds']:7.3f}s"
            f"  x{totals['incr_speedup']}"
            f" ({totals['incr_replay_hits']}/{totals['incr_replay_lookups']}"
            " fixpoint replay(s))"
        )
    baseline = report.get("baseline")
    if baseline:
        lines.append(
            f"  vs baseline {baseline['path']} ({baseline['date']}): "
            f"uncached x{baseline['uncached_speedup_vs_baseline']} over "
            f"{len(baseline['shared_benchmarks'])} shared benchmarks "
            f"(cross-run wall clock; see EXPERIMENTS.md)"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="measure cached vs uncached analysis throughput and "
        "write a BENCH_<date>.json baseline",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmarks to measure (default: the full suite)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the list staples + entail-stress (the CI smoke suite)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        metavar="N",
        help="repetitions per configuration (default 3)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        metavar="S",
        help="per-run wall-clock deadline in seconds (default 60)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="where to write the JSON report (default BENCH_<date>.json; "
        "'-' for stdout only)",
    )
    parser.add_argument(
        "--require-hits",
        action="store_true",
        help="fail (exit 1) when the list benchmarks record zero cache "
        "hits -- the CI canary for cross-run key sharing",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed BENCH_*.json to diff against (default: the "
        "most recent one in the working directory; 'none' to disable)",
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        help="noise-aware regression gate: compare this run's per-rep "
        "minima against the bench report at PATH and exit 1 on any "
        "regression (relative threshold AND absolute floor, skipping "
        "under-sampled benchmarks)",
    )
    parser.add_argument(
        "--compare-threshold",
        type=float,
        default=DEFAULT_COMPARE_THRESHOLD,
        metavar="F",
        help="relative slowdown that counts as a regression "
        f"(default {DEFAULT_COMPARE_THRESHOLD})",
    )
    parser.add_argument(
        "--compare-min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        metavar="S",
        help="absolute per-rep slowdown floor in seconds "
        f"(default {DEFAULT_MIN_SECONDS})",
    )
    parser.add_argument(
        "--compare-out",
        metavar="PATH",
        help="write the comparison JSON to PATH (the CI gate uploads "
        "this as an artifact)",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        print("repro bench: --reps must be >= 1", file=sys.stderr)
        return 2
    report = run_bench(
        names=args.names or None,
        quick=args.quick,
        repetitions=args.reps,
        deadline=args.deadline,
    )
    if args.baseline != "none":
        baseline_path = (
            Path(args.baseline) if args.baseline else find_baseline()
        )
        if baseline_path is not None and baseline_path.exists():
            attach_baseline(report, baseline_path)
        elif args.baseline:
            print(
                f"repro bench: baseline {args.baseline} not found",
                file=sys.stderr,
            )
            return 2
    print(render(report))
    payload = json.dumps(report, indent=2)
    if args.out == "-":
        print(payload)
    else:
        out = Path(args.out) if args.out else default_out_path(report)
        out.write_text(payload + "\n")
        print(f"report written to {out}")
    regression_gate_failed = False
    if args.compare:
        compare_path = Path(args.compare)
        try:
            compare_base = json.loads(compare_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"repro bench: unreadable --compare baseline "
                f"{compare_path}: {exc}",
                file=sys.stderr,
            )
            return 2
        comparison = compare_reports(
            report,
            compare_base,
            threshold=args.compare_threshold,
            min_seconds=args.compare_min_seconds,
        )
        for warning in comparison["warnings"]:
            print(f"repro bench: warning: {warning}", file=sys.stderr)
        print(render_comparison(comparison))
        if args.compare_out:
            Path(args.compare_out).write_text(
                json.dumps(comparison, indent=2) + "\n"
            )
            print(f"comparison written to {args.compare_out}")
        regression_gate_failed = not comparison["ok"]
    if report["verdict_mismatches"]:
        print(
            "repro bench: cached and uncached verdicts differ for: "
            + ", ".join(report["verdict_mismatches"]),
            file=sys.stderr,
        )
        return 1
    if report.get("incremental_mismatches"):
        print(
            "repro bench: incremental and from-scratch core verdicts "
            "differ for: " + ", ".join(report["incremental_mismatches"]),
            file=sys.stderr,
        )
        return 1
    if args.require_hits and report["totals"]["list_cache_hits"] == 0:
        print(
            "repro bench: list benchmarks recorded zero cache hits",
            file=sys.stderr,
        )
        return 1
    if regression_gate_failed:
        print(
            "repro bench: performance regressions detected; see the "
            "comparison above",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
