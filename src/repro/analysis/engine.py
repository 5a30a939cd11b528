"""The full pipeline: pre-pass + interprocedural shape analysis.

``ShapeAnalysis(program).run()`` performs, in order and individually
timed (the breakdown Table 4 reports):

1. the Steensgaard-style pointer analysis (§5.1),
2. recursive-type identification + shape-relevance slicing (§5.1),
3. the interprocedural shape analysis with inductive recursion
   synthesis (§2-§4, §5.2) on the sliced program.

Failure semantics (the resilience layer on top of the paper's
halt-and-report, see :mod:`repro.analysis.resilience`):

* ``mode="strict"`` (default) -- the paper's semantics: the first
  synthesis/verification failure halts the analysis and is reported in
  ``result.failure`` / ``result.diagnostics``;
* ``mode="degrade"`` -- the same single engine run, with failure
  containment: a poisoned loop or procedure is confined to a havoc
  summary and the rest of the program is still analyzed, each
  contained failure recorded as a recovered diagnostic.

Either way the engine runs once, and ``run()`` never raises on
analysis failure.  Since the resilience layer it also never lets an
*unexpected* exception (``RecursionError``, ``ModelError``, an engine
bug) escape: those become an ``internal-error`` diagnostic instead of
crashing the caller.  A wall-clock ``deadline_seconds`` bounds the run
through cooperative checks in the engine worklist.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import obs, perf
from repro.ir.program import Program
from repro.logic import lemmas
from repro.logic.entailment import activate_deadline
from repro.logic.predicates import PredicateEnv
from repro.obs import Metrics, NULL_TRACER, Tracer
from repro.prepass.rectypes import recursive_types
from repro.prepass.slicing import slice_program
from repro.prepass.steensgaard import PointerAnalysis
from repro.analysis.interproc import ShapeEngine
from repro.analysis.resilience import Budget, Diagnostic
from repro.analysis.results import AnalysisResult

__all__ = ["ShapeAnalysis"]

#: Reusable no-op context manager for the unguarded side of
#: ``with tracer.span(..) if tracer.enabled else _NO_SPAN:`` sites.
_NO_SPAN = contextlib.nullcontext()


@dataclass
class ShapeAnalysis:
    """Configurable front door of the library."""

    program: Program
    name: str = "program"
    max_unroll: int = 2
    enable_slicing: bool = True
    state_budget: int = 20000
    #: ``"strict"`` (paper semantics: halt and report) or ``"degrade"``
    #: (contain failures and analyze the rest).
    mode: str = "strict"
    #: Wall-clock deadline for the whole run in seconds (None = off).
    deadline_seconds: float | None = None
    #: Injectable engine constructor -- lets tests and fault-injection
    #: harnesses swap the engine without monkeypatching.
    engine_factory: Callable[..., ShapeEngine] | None = None
    #: Write a hierarchical span trace (JSONL) of the run to this path.
    trace_path: "str | Path | None" = None
    #: Pre-built metrics registry; a fresh one is created per ``run()``
    #: otherwise.  Passing one in lets callers aggregate across runs.
    metrics: "Metrics | None" = None
    #: Memoize entailment verdicts on canonical state keys for the
    #: duration of the run (``--no-cache`` turns this off; verdicts are
    #: identical either way, see tests/test_perf_properties.py).
    enable_cache: bool = True
    #: Pre-built entailment cache (overrides ``enable_cache``); cache
    #: keys are fully structural, so a cache passed across runs carries
    #: verdicts over -- perfbench's ``edit-loop`` workload shares one.
    cache: "perf.EntailmentCache | None" = None
    #: Pre-built unfold memo / fold identity memo (override the
    #: per-run ones).  Like ``cache``, their keys are canonical forms
    #: plus the structural ``PredicateEnv.cache_token()``, so a memo
    #: handed to several runs legitimately replays across them --
    #: perfbench's ``edit-loop`` shares one of each.  Stored states
    #: are replayed through renaming tables, never shared by identity.
    unfold_cache: "perf.EntailmentCache | None" = None
    fold_cache: "perf.IdentityMemo | None" = None
    #: Optional durable predicate/summary store
    #: (:class:`repro.store.SummaryStore`), shared across runs and --
    #: through its on-disk form -- across processes and restarts.
    #: Consulted at the engine's ``store`` phase boundary; every entry
    #: is validated before use, so verdicts are identical with and
    #: without one (``python -m repro diff`` checks exactly this, across
    #: engine configurations).
    store: "object | None" = None
    #: Lemma-synthesis fallback in entailment (``--no-lemmas`` turns it
    #: off, restoring the purely structural matcher bit-for-bit; see
    #: :mod:`repro.logic.lemmas` and DESIGN.md §11).  Lemmas may only
    #: *add* passes, never flip a verdict -- ``python -m repro diff``
    #: and crucible oracle claim D both check exactly this.
    enable_lemmas: bool = True
    #: Pre-built lemma cache (:class:`repro.perf.cache.LemmaCache`);
    #: pair keys are fully structural, so a cache passed across runs
    #: carries verified/refuted lemmas over.
    lemma_cache: "perf.LemmaCache | None" = None
    #: Incremental re-analysis (``--no-incremental`` turns it off,
    #: restoring the from-scratch path bit-for-bit).  When a store or
    #: fixpoint table is attached, each procedure's whole tabulated
    #: summary table is replayed from its cone-digest-keyed fixpoint
    #: bundle when nothing in its callee cone changed, and exported
    #: after every successful run.  Verdicts are identical either way
    #: (``python -m repro diff`` checks exactly this).
    enable_incremental: bool = True
    #: Pre-built in-memory fixpoint tier
    #: (:class:`repro.store.fixpoint.FixpointTable`), checked before
    #: the durable store; a serve worker keeps one for its lifetime so
    #: edit-loop replays never touch disk.
    fixpoint_table: "object | None" = None

    def run(self) -> AnalysisResult:
        """Run the whole pipeline; never raises on analysis failure --
        the paper's halt-and-report becomes ``result.failure`` plus a
        structured ``result.diagnostics`` list."""
        owns_tracer = self.trace_path is not None
        tracer = (
            Tracer.to_path(self.trace_path) if owns_tracer else NULL_TRACER
        )
        metrics = self.metrics if self.metrics is not None else Metrics()
        cache = self.cache
        if cache is None:
            cache = (
                perf.EntailmentCache() if self.enable_cache else perf.NULL_CACHE
            )
        # The unfold/fold memos default to per-run instances (they
        # hold state objects, so sharing is opt-in via the
        # ``unfold_cache`` / ``fold_cache`` fields rather than riding
        # along with ``cache=``); ``--no-cache`` disables them
        # together with the entailment cache.
        unfold_cache = self.unfold_cache
        fold_cache = self.fold_cache
        if unfold_cache is None:
            unfold_cache = (
                perf.EntailmentCache() if self.enable_cache else perf.NULL_CACHE
            )
        if fold_cache is None:
            fold_cache = (
                perf.IdentityMemo() if self.enable_cache else perf.NULL_CACHE
            )
        if self.enable_lemmas:
            lemma_engine = lemmas.LemmaEngine(
                cache=self.lemma_cache, store=self.store
            )
        else:
            lemma_engine = lemmas.NULL_ENGINE
        try:
            with obs.activate(tracer, metrics), perf.activate_cache(
                cache, unfold=unfold_cache, fold=fold_cache
            ), lemmas.activate_lemmas(lemma_engine):
                return self._run(tracer, metrics)
        finally:
            if owns_tracer:
                tracer.close()

    def _run(self, tracer, metrics: Metrics) -> AnalysisResult:
        self.program.validate()
        budget = Budget(
            deadline_seconds=self.deadline_seconds,
            state_budget=self.state_budget,
        )
        budget.start()

        root = tracer.span(
            "analysis", benchmark=self.name, mode=self.mode
        ) if tracer.enabled else None
        if root is not None:
            root.__enter__()

        # A prepass exception is contained like an engine one: it is
        # held here and re-raised inside the engine's containment below,
        # so it becomes an internal-error diagnostic, not a crash.
        prepass_error: Exception | None = None
        target = self.program
        kept = pruned = 0
        pointer_seconds = slicing_seconds = 0.0
        try:
            with tracer.span("phase.pointer") if tracer.enabled else _NO_SPAN:
                start = time.perf_counter()
                pointers = PointerAnalysis(self.program)
                pointer_seconds = time.perf_counter() - start

            with tracer.span("phase.slicing") if tracer.enabled else _NO_SPAN:
                start = time.perf_counter()
                if self.enable_slicing:
                    seeds = recursive_types(self.program, pointers)
                    sliced = slice_program(self.program, pointers, seeds)
                    target = sliced.program
                    kept, pruned = sliced.kept, sliced.pruned
                slicing_seconds = time.perf_counter() - start
        except Exception as exc:
            prepass_error = exc

        # The engine picks up the activated obs.TRACER/obs.METRICS as
        # defaults, so custom engine factories need not accept (or
        # forward) tracer/metrics keywords.  The store keyword is only
        # forwarded when one is attached, and the incremental knobs only
        # off-default, so factories with closed signatures keep working
        # under the defaults.
        extra = {}
        if self.store is not None:
            extra["store"] = self.store
        if not self.enable_incremental:
            extra["incremental"] = False
        if self.fixpoint_table is not None:
            extra["fixpoint"] = self.fixpoint_table
        diagnostics: list[Diagnostic] = []
        failure: str | None = None
        exit_states = []
        start = time.perf_counter()
        with tracer.span("phase.shape") if tracer.enabled else _NO_SPAN:
            make_engine = self.engine_factory or ShapeEngine
            engine = make_engine(
                target,
                PredicateEnv(),
                max_unroll=self.max_unroll,
                state_budget=self.state_budget,
                mode=self.mode,
                budget=budget,
                **extra,
            )
            try:
                if prepass_error is not None:
                    raise prepass_error
                with activate_deadline(budget.check_deadline):
                    exit_states = engine.analyze()
            except Exception as exc:
                # An AnalysisFailure is the paper's halt-and-report; any
                # other exception is a prepass or engine bug, which must
                # not crash the caller: it is classified as
                # internal-error (the message carries the exception
                # type, "RecursionError: ...") and reported like any
                # other failure.
                diagnostic = Diagnostic.from_exception(exc)
                diagnostics.append(diagnostic)
                failure = diagnostic.message
            else:
                # Export the fixpoint tables of a successful run only: a
                # failed run's tables are partial by construction.  The
                # engine method is exception-contained; the getattr guard
                # keeps custom engine factories with plain engines alive.
                if self.enable_incremental:
                    export = getattr(engine, "export_fixpoints", None)
                    if export is not None:
                        export()
        shape_seconds = time.perf_counter() - start
        diagnostics.extend(engine.diagnostics)

        metrics.gauge("phase.pointer.seconds", pointer_seconds)
        metrics.gauge("phase.slicing.seconds", slicing_seconds)
        metrics.gauge("phase.shape.seconds", shape_seconds)
        # The gauges are this run's values; the histograms accumulate
        # the distribution when one registry outlives many runs (serve
        # workers, batch aggregation).
        metrics.observe("phase.pointer.seconds.dist", pointer_seconds)
        metrics.observe("phase.slicing.seconds.dist", slicing_seconds)
        metrics.observe("phase.shape.seconds.dist", shape_seconds)
        if root is not None:
            root["failed"] = failure is not None
            root.__exit__(None, None, None)

        return AnalysisResult(
            benchmark=self.name,
            instruction_count=self.program.instruction_count(),
            pointer_seconds=pointer_seconds,
            slicing_seconds=slicing_seconds,
            shape_seconds=shape_seconds,
            env=engine.env,
            exit_states=exit_states,
            kept_instructions=kept,
            pruned_instructions=pruned,
            failure=failure,
            mode=self.mode,
            diagnostics=diagnostics,
            budget_stats=budget.snapshot(),
            loop_invariants=dict(engine.loop_invariants),
            summaries={
                name: [(s.entry, list(s.exits)) for s in summaries]
                for name, summaries in engine.summaries.items()
                if summaries
            },
            stats=metrics.to_dict(),
        )
