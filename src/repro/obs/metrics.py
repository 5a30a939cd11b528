"""Named counters, gauges and histograms -- the canonical metric schema.

This registry replaces the ad-hoc ``_Stats`` dataclass the engine used
to keep and the undocumented, inconsistently-named keys it leaked into
``AnalysisResult.stats``.  Every metric the pipeline records is named
here; batch drivers, the ``--json`` records and CI treat any name
outside this table as a schema bug (``Metrics.check_schema``).

Canonical metric names
======================

======================================  =========  ==========================================
name                                    kind       meaning
======================================  =========  ==========================================
``engine.states``                       counter    worklist states processed
``engine.instructions``                 counter    abstract instruction executions
``engine.procedures.analyzed``          counter    procedure bodies analyzed (incl. re-runs)
``engine.summaries.reused``             counter    call sites answered from a tabulated summary
``engine.invariants.synthesized``       counter    loop/procedure invariants hypothesized
``engine.invariants.failed``            counter    invariant hypotheses that failed to verify
``engine.loop.back_edges``              counter    back-edge arrivals at loop headers
``engine.loop.converged``               counter    back-edge states subsumed by an invariant
``engine.recursion.sccs``               counter    recursive SCCs put through §5.2.1
``engine.recursion.verify_rounds``      counter    contract-verification Kleene rounds
``engine.worklist.pushes``              counter    states pushed onto the fixpoint worklist
``engine.worklist.revisits``            counter    worklist pops of an already-seen block
``engine.dedup.exact_drops``            counter    states dropped by exact canonical key, O(1)
``engine.dedup.checks``                 counter    ``subsumes`` calls issued by state-set dedup
``engine.dedup.dropped``                counter    states removed as subsumed during dedup
``engine.dedup.bucket_skips``           counter    pairs skipped by signature-bucket pre-filter
``entailment.queries``                  counter    ``subsumes`` queries answered
``entailment.subsumed``                 counter    queries that found a witness
``entailment.rejected``                 counter    queries that found none
``entailment.match_steps``              counter    backtracking steps consumed (summed)
``entailment.sig_rejects``              counter    queries rejected by the signature pre-filter
``entailment.step_limit_hits``          counter    queries cut off at the match-step cap
``entailment.cache.hits``               counter    queries answered from the entailment cache
``entailment.cache.misses``             counter    cacheable queries that ran the full search
``entailment.cache.evictions``          counter    LRU evictions from the entailment cache
``entailment.lemma.attempts``           counter    lemma synthesize+verify attempts
``entailment.lemma.verified``           counter    lemma candidates that passed verification
``entailment.lemma.refuted``            counter    lemma candidates refuted (negative-cached)
``entailment.lemma.cache.hits``         counter    lemma pair-key cache hits (either polarity)
``entailment.lemma.cache.misses``       counter    lemma pair-key cache misses
``entailment.lemma.applied``            counter    queries whose witness used >= 1 lemma
``unfold.root``                         counter    Figure-6 unfolds from the root
``unfold.interior``                     counter    Figure-6 bottom-up (interior) unfolds
``unfold.placements.exact``             counter    truncation points placed exactly at a sub-root
``unfold.placements.below``             counter    truncation points pushed below a sub-structure
``unfold.cases``                        counter    case-split states produced by unfolding
``unfold.cache.hits``                   counter    unfolds replayed from the unfold memo
``unfold.cache.misses``                 counter    keyable unfolds that ran the case analysis
``fold.calls``                          counter    ``fold_state`` invocations
``fold.absorbed``                       counter    bottom-up absorptions applied
``fold.wrapped``                        counter    top-down wraps applied
``fold.cache.hits``                     counter    identity folds skipped via the fold memo
``fold.cache.misses``                   counter    keyable folds that ran the rule search
``synthesis.terms``                     counter    term trees put through recursion synthesis
``synthesis.segmentations_tried``       counter    candidate segmentations examined
``synthesis.succeeded``                 counter    terms that yielded a predicate
``synthesis.failed``                    counter    terms no segmentation explained
``phase.pointer.seconds``               gauge      pointer-analysis pre-pass wall time
``phase.slicing.seconds``               gauge      slicing pre-pass wall time
``phase.shape.seconds``                 gauge      shape-analysis wall time
``phase.pointer.seconds.dist``          histogram  per-run pointer-phase latency distribution
``phase.slicing.seconds.dist``          histogram  per-run slicing-phase latency distribution
``phase.shape.seconds.dist``            histogram  per-run shape-phase latency distribution
``entailment.match_steps.dist``         histogram  match steps *per query* (vs the summed counter)
``entailment.lemma.attempts.dist``      histogram  synthesis attempts *per query* (lemmas active)
======================================  =========  ==========================================

Histogram-kind metrics are backed by :class:`repro.obs.histo.Histogram`
(fixed log-spaced buckets), so they merge bucket-wise across
processes and export p50/p90/p99 at read time.  In flattened stats a
histogram ``h`` appears as ``h.count`` / ``h.sum`` / ``h.min`` /
``h.max`` / ``h.p50`` / ``h.p90`` / ``h.p99`` plus sparse
``h.bucket.<i>`` keys; :func:`histogram_flat_base` recognizes those
derived names and :func:`is_schema_name` accepts them as canonical.
"""

from __future__ import annotations

from repro.obs.histo import QUANTILES, Histogram

__all__ = [
    "METRIC_SCHEMA",
    "Metrics",
    "NULL_METRICS",
    "NullMetrics",
    "histogram_flat_base",
    "is_schema_name",
    "merge_stat_dicts",
]

#: name -> kind ("counter" | "gauge" | "histogram") for every canonical
#: metric; the table rendered in the module docstring, as data.
METRIC_SCHEMA: dict[str, str] = {
    "engine.states": "counter",
    "engine.instructions": "counter",
    "engine.procedures.analyzed": "counter",
    "engine.summaries.reused": "counter",
    "engine.invariants.synthesized": "counter",
    "engine.invariants.failed": "counter",
    "engine.loop.back_edges": "counter",
    "engine.loop.converged": "counter",
    "engine.recursion.sccs": "counter",
    "engine.recursion.verify_rounds": "counter",
    "engine.worklist.pushes": "counter",
    "engine.worklist.revisits": "counter",
    "engine.dedup.exact_drops": "counter",
    "engine.dedup.checks": "counter",
    "engine.dedup.dropped": "counter",
    "engine.dedup.bucket_skips": "counter",
    "entailment.queries": "counter",
    "entailment.subsumed": "counter",
    "entailment.rejected": "counter",
    "entailment.match_steps": "counter",
    "entailment.sig_rejects": "counter",
    "entailment.step_limit_hits": "counter",
    "entailment.cache.hits": "counter",
    "entailment.cache.misses": "counter",
    "entailment.cache.evictions": "counter",
    "entailment.lemma.attempts": "counter",
    "entailment.lemma.verified": "counter",
    "entailment.lemma.refuted": "counter",
    "entailment.lemma.cache.hits": "counter",
    "entailment.lemma.cache.misses": "counter",
    "entailment.lemma.applied": "counter",
    "unfold.root": "counter",
    "unfold.interior": "counter",
    "unfold.placements.exact": "counter",
    "unfold.placements.below": "counter",
    "unfold.cases": "counter",
    "unfold.cache.hits": "counter",
    "unfold.cache.misses": "counter",
    "fold.calls": "counter",
    "fold.absorbed": "counter",
    "fold.wrapped": "counter",
    "fold.cache.hits": "counter",
    "fold.cache.misses": "counter",
    "synthesis.terms": "counter",
    "synthesis.segmentations_tried": "counter",
    "synthesis.succeeded": "counter",
    "synthesis.failed": "counter",
    "phase.pointer.seconds": "gauge",
    "phase.slicing.seconds": "gauge",
    "phase.shape.seconds": "gauge",
    "phase.pointer.seconds.dist": "histogram",
    "phase.slicing.seconds.dist": "histogram",
    "phase.shape.seconds.dist": "histogram",
    "entailment.match_steps.dist": "histogram",
    "entailment.lemma.attempts.dist": "histogram",
    # serve.* -- recorded by the analysis *service* (repro.serve), not
    # by the engine: job-queue accounting, worker supervision and the
    # overload-degradation ladder.  They share the registry so batch
    # aggregation, trace-summary and the schema check treat service
    # telemetry exactly like engine telemetry.
    "serve.jobs.submitted": "counter",
    "serve.jobs.completed": "counter",
    "serve.jobs.rejected": "counter",
    "serve.jobs.retried": "counter",
    "serve.jobs.crashed": "counter",
    "serve.jobs.timeout": "counter",
    "serve.jobs.degraded": "counter",
    "serve.workers.spawned": "counter",
    "serve.workers.restarts": "counter",
    "serve.workers.warmed": "counter",
    "serve.degrade.entered": "counter",
    "serve.degrade.exited": "counter",
    "serve.queue.depth": "gauge",
    "serve.queue.peak": "gauge",
    "serve.state": "gauge",
    "serve.job.seconds": "histogram",
    "serve.job.queue_wait_seconds": "histogram",
    "serve.stats.requests": "counter",
    # store.* -- the durable predicate/summary store (repro.store).
    # ``store.invalid`` counts entries rejected by validation-on-read
    # (checksum, schema, decode, self-derivation, re-application);
    # every rejection also surfaces as a ``store-invalid`` diagnostic.
    "store.lookups": "counter",
    "store.hits": "counter",
    "store.misses": "counter",
    "store.writes": "counter",
    "store.invalid": "counter",
    "store.io_errors": "counter",
    "store.compactions": "counter",
    "store.preds.installed": "counter",
    "store.index.torn": "counter",
    "store.entries": "gauge",
    "store.lookup.seconds": "histogram",
    # incr.* -- incremental re-analysis (repro.ir.digest +
    # repro.store.fixpoint).  ``incr.procedures.reused`` counts
    # procedures whose entire fixpoint table was replayed from a
    # cone-digest-keyed bundle; ``incr.procedures.invalidated`` counts
    # procedures that had to be re-analyzed (their callee cone changed,
    # or their bundle failed validation-on-read).
    "incr.fixpoint.lookups": "counter",
    "incr.fixpoint.hits": "counter",
    "incr.fixpoint.misses": "counter",
    "incr.fixpoint.writes": "counter",
    "incr.procedures.reused": "counter",
    "incr.procedures.invalidated": "counter",
    "incr.summaries.replayed": "counter",
    "incr.tables.injected": "counter",
    "incr.cone.size": "gauge",
    "incr.cone.depth": "gauge",
    "incr.table.decode.seconds": "histogram",
}

#: Scalar suffixes a flattened histogram exports (besides buckets).
_HISTO_SUFFIXES = ("count", "sum", "min", "max") + tuple(
    suffix for _, suffix in QUANTILES
)


def histogram_flat_base(name: str) -> "str | None":
    """The schema histogram *name* is a flattened component of, or
    None.  ``serve.job.seconds.p99`` -> ``serve.job.seconds``;
    ``serve.job.seconds.bucket.31`` -> ``serve.job.seconds``."""
    base, _, suffix = name.rpartition(".")
    if suffix in _HISTO_SUFFIXES and METRIC_SCHEMA.get(base) == "histogram":
        return base
    if suffix.isdigit():
        head, _, word = base.rpartition(".")
        if word == "bucket" and METRIC_SCHEMA.get(head) == "histogram":
            return head
    return None


def is_schema_name(name: str) -> bool:
    """True when *name* is canonical: either in the schema table or a
    flattened component of a schema histogram."""
    return name in METRIC_SCHEMA or histogram_flat_base(name) is not None


def merge_stat_dicts(into: dict, stats: dict) -> dict:
    """Accumulate one run's canonical stats into *into* (in place).

    Only numeric values participate; counters sum, ``.seconds`` gauges
    sum into totals, other gauges keep the max.  Flattened histogram components merge
    like the underlying histograms: counts, sums and bucket counts
    sum, ``.min``/``.max`` take the extremum, and the percentile keys
    are *recomputed* from the merged buckets (a sum -- or max -- of
    p99s is not a p99 of anything).  Used by the batch runner to
    aggregate metrics per outcome across isolated child processes."""
    touched_histograms = set()
    for name, value in stats.items():
        if not isinstance(value, (int, float)):
            continue
        base = histogram_flat_base(name)
        if base is not None:
            suffix = name[len(base) + 1:]
            if suffix == "min":
                into[name] = min(into[name], value) if name in into else value
            elif suffix == "max":
                into[name] = max(into.get(name, value), value)
            elif suffix.startswith("p"):
                touched_histograms.add(base)  # recomputed below
            else:  # count, sum, bucket.<i>
                into[name] = round(into.get(name, 0) + value, 9)
                touched_histograms.add(base)
            continue
        if METRIC_SCHEMA.get(name) == "gauge" and not name.endswith(".seconds"):
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = round(into.get(name, 0) + value, 9)
    for base in touched_histograms:
        merged = Histogram.from_flat(into, base)
        for q, suffix in QUANTILES:
            into[f"{base}.{suffix}"] = round(merged.quantile(q), 6)
    return into


class Metrics:
    """A registry of named counters, gauges and histograms.

    Deliberately tiny: incrementing a counter is one dict operation, so
    the always-on engine counters (the old ``_Stats`` fields) cost what
    they always did.
    """

    enabled = True

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the rolling histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------
    def merge(self, other: "Metrics") -> None:
        """Fold *other* into this registry (counters sum, histograms
        merge bucket-wise; gauges last-write-wins)."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)

    def check_schema(self) -> list[str]:
        """Names recorded outside :data:`METRIC_SCHEMA` (a bug)."""
        recorded = set(self.counters) | set(self.gauges) | set(self.histograms)
        return sorted(recorded - set(METRIC_SCHEMA))

    def to_dict(self) -> dict:
        """One flat, sorted, JSON-ready dict: counters and gauges by
        name, histograms flattened to ``name.count`` / ``.sum`` /
        ``.min`` / ``.max`` / ``.p50`` / ``.p90`` / ``.p99`` plus the
        sparse ``name.bucket.<i>`` counts that make the flattened form
        re-mergeable (:func:`merge_stat_dicts`)."""
        out: dict = {}
        out.update(self.counters)
        for name, value in self.gauges.items():
            out[name] = round(value, 6) if isinstance(value, float) else value
        for name, hist in self.histograms.items():
            out[f"{name}.count"] = hist.count
            out[f"{name}.sum"] = round(hist.sum, 6)
            out[f"{name}.min"] = round(hist.min, 6)
            out[f"{name}.max"] = round(hist.max, 6)
            for q, suffix in QUANTILES:
                out[f"{name}.{suffix}"] = round(hist.quantile(q), 6)
            for index, count in hist.buckets.items():
                out[f"{name}.bucket.{index}"] = count
        return dict(sorted(out.items()))


class NullMetrics:
    """Disabled registry: every recording method is a no-op."""

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def to_dict(self) -> dict:
        return {}


NULL_METRICS = NullMetrics()
