"""Interprocedural engine (paper, §5.2, Figure 8).

A worklist interpreter per procedure activation with:

* tabulated procedure summaries keyed by equivalent entry local heaps
  (reused through a renaming witness);
* local-heap extraction / Frame-rule recombination at call sites, with
  cutpoints preserved (never folded);
* the loop protocol of §3: propagate raw states around each loop (a
  component of the weak topological order, counted at its head) for a
  bounded number of iterations (2 suffices, as in the paper), then
  hypothesize an invariant with recursion synthesis and *verify* it
  by executing the body once more -- a back-edge state that
  does not fold into the invariant means the hypothesis failed and the
  analysis halts (:class:`AnalysisFailure`), never silently
  approximates;
* the recursive-procedure protocol of §5.2.1: a sample path enters
  every procedure of a call-graph SCC at least twice (branches that
  reach recursive calls are taken preferentially, then avoided),
  entry/exit invariants are synthesized from the latest entry/exit
  states, and each SCC member is re-executed from its entry invariant
  with recursive calls answered by the hypothesized contracts; exits
  must be subsumed by the exit invariants (a coinductive proof, the
  "invariants derive themselves" check).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.ir.callgraph import CallGraph
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    Branch,
    Call,
    Goto,
    Instruction,
    Load,
    Nop,
    Return,
    Store,
)
from repro.ir.program import Program
from repro.ir.values import Register
from repro.logic import lemmas
from repro.logic.entailment import Mapping, subsumes
from repro.logic.formula import PureFormula, SpatialFormula
from repro.logic.heapnames import (
    FieldPath,
    GlobalLoc,
    HeapName,
    Var,
    fresh_var,
    path_of,
    root_of,
)
from repro.logic.predicates import PredicateEnv
from repro.logic.state import AbstractState, AnalysisStuck
from repro.logic.stateset import StateSet, any_subsumes, structural_signature
from repro.logic.symvals import NULL_VAL, NullVal, Opaque, OffsetVal, SymVal
from repro.logic.assertions import PointsTo, Raw
from repro.prepass.defuse import DefUse
from repro.prepass.wto import WeakTopologicalOrder, compute_wto
from repro.analysis.fold import fold_state
from repro.analysis.invariants import normalize_state
from repro.analysis.localheap import SplitHeap, combine, extract_local_heap
from repro.analysis.resilience import (
    EXECUTION_STUCK,
    INVARIANT_FAILURE,
    SEVERITY_WARNING,
    STORE_INVALID,
    SUMMARY_FAILURE,
    AnalysisFailure,
    Budget,
    BudgetExhausted,
    Diagnostic,
)
from repro.analysis.semantics import apply_instruction, filter_condition
from repro.analysis.unfold import unify_values
from repro import obs
from repro.obs import Metrics

__all__ = [
    "ShapeEngine",
    "AnalysisFailure",
    "Summary",
    "RET_REGISTER",
    "PHASE_BOUNDARIES",
]

#: Pseudo-register holding a procedure's return value in exit states.
RET_REGISTER = Register("$ret")

#: The engine's internal phase boundaries, in pipeline order.  The
#: engine calls :meth:`ShapeEngine.phase_boundary` at each of them; the
#: default hook is a no-op, and the crucible's fault-injection layer
#: overrides it to chaos-test containment (see
#: :mod:`repro.crucible.faults`).
PHASE_BOUNDARIES = (
    "rearrange",
    "fold",
    "entailment",
    "synthesis",
    "tabulation",
    "store",
)


@dataclass
class Summary:
    """A tabulated procedure summary: entry invariant, exit states and
    the cutpoints under which it was computed."""

    entry: AbstractState
    exits: list[AbstractState]
    cutpoints: frozenset[HeapName] = frozenset()
    #: Canonical entry key when this summary was *replayed* from a
    #: fixpoint bundle (None when tabulated in-run).  Replayed summaries
    #: only answer calls whose live entry canonicalizes to exactly this
    #: key: entailment-equivalence is too coarse for cross-program reuse
    #: -- two equivalent-but-differently-spelled entries can steer the
    #: engine down different (both sound) trajectories, and incremental
    #: replay must reproduce the from-scratch trajectory bit for bit.
    entry_key: "str | None" = None


@dataclass
class _Sampler:
    """Bookkeeping for the sample-path execution through a call-graph SCC."""

    scc: frozenset[str]
    max_visits: int
    visits: dict[str, int] = field(default_factory=dict)
    depth: int = 0
    #: per procedure, the sampled activations as (entry, exits,
    #: cutpoints) triples, in completion order; entries and exits of
    #: one triple share names.
    activations: dict[
        str,
        list[tuple[AbstractState, list[AbstractState], frozenset[HeapName]]],
    ] = field(default_factory=dict)
    latest_entry: dict[str, AbstractState] = field(default_factory=dict)

    def head_toward_recursion(self) -> bool:
        """Branch-selection policy of the sample path (§5.2.1).

        While the current *nesting depth* of SCC activations is within
        the quota, branches head toward recursive calls so that every
        recursive call site of every activation in the quota window
        contributes a level of structure; beyond it they head away,
        steering each further activation straight to a base case.
        Depth-based (rather than total-visit-count-based) steering is
        what makes both recursive fields of a tree builder unfold."""
        return self.depth <= self.max_visits * len(self.scc)

    def record_entry(self, name: str, entry: AbstractState) -> None:
        self.visits[name] = self.visits.get(name, 0) + 1
        self.latest_entry[name] = entry.copy()

    def record_activation(
        self,
        name: str,
        entry: AbstractState,
        exits: list[AbstractState],
        cutpoints: frozenset[HeapName],
    ) -> None:
        self.activations.setdefault(name, []).append(
            (entry.copy(), [e.copy() for e in exits], cutpoints)
        )


class _StatsView:
    """Read-only attribute view over the engine's canonical counters.

    Back-compat shim for the old ``_Stats`` dataclass: callers that did
    ``engine.stats.summaries_reused`` keep working; new code reads
    ``engine.metrics`` directly (see :mod:`repro.obs.metrics` for the
    schema)."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics: Metrics):
        self._metrics = metrics

    @property
    def instructions(self) -> int:
        return self._metrics.counter("engine.instructions")

    @property
    def states(self) -> int:
        return self._metrics.counter("engine.states")

    @property
    def invariants(self) -> int:
        return self._metrics.counter("engine.invariants.synthesized")

    @property
    def summaries_reused(self) -> int:
        return self._metrics.counter("engine.summaries.reused")

    @property
    def procedures(self) -> int:
        return self._metrics.counter("engine.procedures.analyzed")


class ShapeEngine:
    """Drives the shape analysis over a (pre-sliced) program."""

    def __init__(
        self,
        program: Program,
        env: PredicateEnv | None = None,
        max_unroll: int = 2,
        state_budget: int = 20000,
        max_invariants_per_header: int = 8,
        max_back_arrivals: int = 40,
        mode: str = "strict",
        budget: Budget | None = None,
        tracer=None,
        metrics: Metrics | None = None,
        store=None,
        incremental: bool = True,
        fixpoint=None,
    ):
        program.validate()
        if mode not in ("strict", "degrade"):
            raise ValueError(f"unknown analysis mode {mode!r}")
        self.program = program
        self.env = env if env is not None else PredicateEnv()
        self.max_unroll = max_unroll
        self.budget = budget if budget is not None else Budget(
            state_budget=state_budget
        )
        self.state_budget = self.budget.state_budget
        self.max_invariants_per_header = max_invariants_per_header
        self.max_back_arrivals = max_back_arrivals
        self.mode = mode
        #: the configuration token every store and fixpoint key carries
        #: (and every stored payload must repeat): everything besides
        #: the program that shapes a tabulated summary.  Lemma synthesis
        #: is part of it because a lemma-assisted summary answering a
        #: lemma-free run would turn its failure into a pass.
        self.config = (
            f"unroll={max_unroll};mode={mode};"
            f"lemmas={'on' if lemmas.ACTIVE.enabled else 'off'}"
        )
        #: structured record of every contained failure (degrade mode).
        self.diagnostics: list[Diagnostic] = []
        #: running total of containment events (diagnostics are
        #: deduplicated, this counter is not).
        self.contained_events = 0
        self._havoc_counter = 0
        self.callgraph = CallGraph(program)
        self.cfgs = {name: CFG(proc) for name, proc in program.procedures.items()}
        #: per-procedure weak topological orders, computed on first use
        #: (sliced-away procedures never pay for theirs).
        self._wtos: dict[str, WeakTopologicalOrder] = {}
        self.liveness = {name: DefUse(cfg) for name, cfg in self.cfgs.items()}
        self.summaries: dict[str, list[Summary]] = {
            name: [] for name in program.procedures
        }
        #: verified loop invariants, keyed by (procedure, header index);
        #: the paper's point that the analysis infers them from scratch
        #: makes them a first-class output.
        self.loop_invariants: dict[tuple[str, int], list[AbstractState]] = {}
        #: structured tracing (defaults to whatever instruments are
        #: *active* -- ``obs.activate`` inside ``ShapeAnalysis.run`` --
        #: so engine factories need not forward tracer/metrics keywords;
        #: outside an activated run the null tracer costs one ``enabled``
        #: check per instrumentation site) and the canonical registry.
        self.tracer = tracer if tracer is not None else obs.TRACER
        self.metrics = metrics if metrics is not None else (
            obs.METRICS if obs.METRICS.enabled else Metrics()
        )
        self.stats = _StatsView(self.metrics)
        #: optional durable predicate/summary store
        #: (:class:`~repro.store.SummaryStore`), consulted at the
        #: ``store`` phase boundary before synthesis and tabulation.
        #: The store is an *accelerator*: every consult/record call is
        #: exception-contained here, so a broken store degrades to
        #: misses plus ``store-invalid`` diagnostics, never to a
        #: different verdict or an analysis failure.
        self.store = store
        #: incremental re-analysis: when enabled (and a reuse medium is
        #: attached), each procedure's *whole* tabulated summary table
        #: is consulted once -- keyed on the procedure's callee-cone
        #: digest (:mod:`repro.ir.digest`) -- before any per-entry
        #: consult, and exported after a successful run
        #: (:meth:`export_fixpoints`).  ``incremental=False`` restores
        #: the from-scratch path bit-for-bit: no fixpoint object is
        #: read or written.  (Per-entry summary keys carry the cone
        #: digest either way -- that part is a soundness fix, not an
        #: accelerator, so it has no escape hatch.)
        self.incremental = incremental
        #: optional in-memory fixpoint tier
        #: (:class:`repro.store.fixpoint.FixpointTable`), checked before
        #: the durable store; a serve worker keeps one for its lifetime
        #: so an edit-loop replay never touches disk.
        self.fixpoint = fixpoint
        self._fixpoint_consulted: set[str] = set()
        self._cone_digest_cache: "dict[str, str] | None" = None
        self._reach_rec: dict[str, set[int]] = {}

    def _wto(self, name: str) -> WeakTopologicalOrder:
        wto = self._wtos.get(name)
        if wto is None:
            wto = compute_wto(self.cfgs[name])
            self._wtos[name] = wto
        return wto

    # ------------------------------------------------------------------
    # Phase boundaries
    # ------------------------------------------------------------------
    def phase_boundary(self, phase: str, procedure: str | None = None) -> None:
        """Called at every internal phase boundary (one of
        :data:`PHASE_BOUNDARIES`) with the procedure under analysis.

        A no-op in production.  Subclasses may raise here --
        :class:`AnalysisFailure` to simulate a phase failing,
        :class:`BudgetExhausted` to simulate resource exhaustion -- and
        whatever they raise takes exactly the containment path a real
        failure of that phase would take.  This is the seam the
        crucible's :class:`~repro.crucible.faults.FaultPlan` injects
        through.
        """

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def analyze(self) -> list[AbstractState]:
        """Run the analysis from the entry procedure; returns its exit
        states.  Raises :class:`AnalysisFailure` when the analysis
        halts (the paper's failure report).  In degrade mode a failure
        that containment could not absorb lower down still ends the
        entry procedure, but is recorded as a recovered diagnostic and
        the partial results (summaries, loop invariants of everything
        analyzed so far) survive on the engine; only
        :class:`BudgetExhausted` always propagates."""
        self.budget.start()
        entry = AbstractState()
        for name in self.program.globals:
            entry.spatial.add(Raw(GlobalLoc(name)))
        try:
            return self.run_procedure(
                self.program.entry, entry, frozenset(), None, None
            )
        except AnalysisStuck as exc:
            failure = AnalysisFailure(
                f"abstract execution stuck: {exc}",
                code=EXECUTION_STUCK,
                procedure=self.program.entry,
            )
            if self.mode == "degrade":
                self._record_containment(
                    failure, detail="entry procedure abandoned"
                )
                return []
            raise failure from exc
        except BudgetExhausted:
            raise
        except AnalysisFailure as exc:
            if self.mode == "degrade":
                self._record_containment(
                    exc, detail="entry procedure abandoned"
                )
                return []
            raise

    def _record_containment(
        self, exc: AnalysisFailure, detail: str
    ) -> None:
        """Record a contained failure, deduplicated per (code, location)
        so a loop that keeps failing on every back-edge arrival yields
        one diagnostic, not forty."""
        self.contained_events += 1
        diagnostic = Diagnostic.from_exception(
            exc, recovered=True, detail=detail
        )
        for existing in self.diagnostics:
            if (
                existing.code == diagnostic.code
                and existing.procedure == diagnostic.procedure
                and existing.loop_header == diagnostic.loop_header
            ):
                existing.count += 1
                return
        self.diagnostics.append(diagnostic)

    # ------------------------------------------------------------------
    # Procedure dispatch
    # ------------------------------------------------------------------
    def run_procedure(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
        sampler: _Sampler | None,
        contracts: dict[str, list[Summary]] | None,
    ) -> list[AbstractState]:
        self.budget.enter_procedure(name)
        try:
            if not self.tracer.enabled:
                return self._run_procedure(
                    name, entry, cutpoints, sampler, contracts
                )
            with self.tracer.span(
                "procedure", procedure=name, sampled=sampler is not None
            ) as span:
                exits = self._run_procedure(
                    name, entry, cutpoints, sampler, contracts
                )
                span["exits"] = len(exits)
                return exits
        finally:
            self.budget.exit_procedure()

    def _run_procedure(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
        sampler: _Sampler | None,
        contracts: dict[str, list[Summary]] | None,
    ) -> list[AbstractState]:
        self.metrics.inc("engine.procedures.analyzed")
        # Canonicalize the entry: fold what the environment already
        # explains (cutpoints protected) so that entry matching against
        # summaries and contracts compares folded forms.
        self.phase_boundary("fold", name)
        fold_state(entry, self.env, protect=cutpoints, keep_registers=True)
        if contracts is not None and name in contracts:
            self.phase_boundary("entailment", name)
            for contract in contracts[name]:
                witness = subsumes(contract.entry, entry, env=self.env)
                if witness is not None:
                    return [transplant_state(e, witness) for e in contract.exits]
            raise AnalysisFailure(
                f"call into {name} does not satisfy any of its entry invariants",
                code=SUMMARY_FAILURE,
                procedure=name,
            )
        if sampler is not None and name in sampler.scc:
            # An activation beyond the steering window that recurses
            # anyway has no branch guarding its recursion: the sample
            # path cannot reach a base case.
            if sampler.depth > sampler.max_visits * len(sampler.scc) + 2:
                raise AnalysisFailure(
                    f"sample path through {name} does not terminate; "
                    f"cannot steer execution toward a base case",
                    code=SUMMARY_FAILURE,
                    procedure=name,
                )
            if sum(sampler.visits.values()) > 500:
                raise AnalysisFailure(
                    f"sample path through {name} explodes; too many "
                    f"activations before the quota window closes",
                    code=SUMMARY_FAILURE,
                    procedure=name,
                )
            sampler.record_entry(name, entry)
            sampler.depth += 1
            try:
                exits = self.interpret(
                    name, entry.copy(), cutpoints, sampler, contracts
                )
            finally:
                sampler.depth -= 1
            sampler.record_activation(name, entry, exits, cutpoints)
            return exits
        exits = self._scan_summaries(name, entry, cutpoints)
        if exits is not None:
            return exits
        # Durable-store consult sits between in-memory reuse and
        # (re-)analysis: a validated hit answers the call without
        # synthesis or tabulation.  The boundary is crossed even with
        # no store attached -- it is the fault-injection seam.
        self.phase_boundary("store", name)
        if (
            self.incremental
            and name not in self._fixpoint_consulted
            and (self.store is not None or self.fixpoint is not None)
        ):
            # Incremental replay: the first time a procedure is called,
            # try to install its entire cached summary table (keyed on
            # its callee-cone digest, so any structural edit anywhere
            # below it misses) and answer from the installed summaries.
            # Consulted at most once per procedure: a miss means the
            # cone changed, and re-asking cannot change that.
            self._fixpoint_consulted.add(name)
            if self._consult_fixpoint(name):
                exits = self._scan_summaries(name, entry, cutpoints)
                if exits is not None:
                    self.metrics.inc("incr.procedures.reused")
                    if self.tracer.enabled:
                        self.tracer.event("incr.replay", procedure=name)
                    return exits
            self.metrics.inc("incr.procedures.invalidated")
        if self.store is not None:
            exits = self._consult_store(name, entry, cutpoints)
            if exits is not None:
                return exits
        if self.callgraph.is_recursive(name):
            return self._analyze_recursive(name, entry, cutpoints, contracts)
        contained_before = self.contained_events
        exits = self.interpret(name, entry.copy(), cutpoints, None, contracts)
        if self.contained_events > contained_before:
            # The body was degraded: its exits under-represent the
            # procedure, so the summary must not be tabulated for reuse
            # (each later call re-analyzes and re-contains).
            return [e.copy() for e in exits]
        self.phase_boundary("tabulation", name)
        self.summaries[name].append(Summary(entry.copy(), exits, cutpoints))
        self._store_record(name, entry, exits, cutpoints)
        return [e.copy() for e in exits]

    def _scan_summaries(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
    ) -> "list[AbstractState] | None":
        """The in-memory summary-table scan: exits transplanted into the
        caller's name space when a tabulated summary is entailment-
        equivalent to *entry* (cutpoints mapping across), else None."""
        if not self.summaries[name]:
            return None
        self.phase_boundary("entailment", name)
        entry_sig = structural_signature(entry)
        live_key: "str | None | bool" = False  # False = not yet computed
        for summary in self.summaries[name]:
            if summary.entry_key is not None:
                # Replayed summary: exact canonical-key match only (see
                # Summary.entry_key).  The key is computed lazily, once.
                if live_key is False:
                    from repro.logic.canonical import (
                        UntranslatableWitness,
                        canonicalize,
                    )

                    try:
                        live_key = canonicalize(entry).key
                    except UntranslatableWitness:
                        live_key = None
                if live_key != summary.entry_key:
                    continue
            # Reuse needs *equivalence* (both directions), so the
            # structural signatures must be identical -- a mismatch
            # skips both queries.  The directions are short-circuited:
            # the old code issued the reverse query even when the
            # forward one had already failed, wasting a full entailment
            # search (and a cache slot) per incompatible summary.
            if structural_signature(summary.entry) != entry_sig:
                continue
            into = subsumes(summary.entry, entry, env=self.env)
            if into is None:
                continue
            back = subsumes(entry, summary.entry, env=self.env)
            if back is None:
                continue
            mapped_cuts = frozenset(
                into.binding.get(c, c) for c in summary.cutpoints
            )
            if mapped_cuts == cutpoints:
                self.metrics.inc("engine.summaries.reused")
                return [transplant_state(e, into) for e in summary.exits]
        return None

    # ------------------------------------------------------------------
    # Incremental re-analysis: fixpoint replay (repro.store.fixpoint)
    # ------------------------------------------------------------------
    def _cone_digest(self, name: str) -> str:
        """The procedure's callee-cone digest over the program *this
        engine analyzes* (post-slicing), computed once per engine."""
        if self._cone_digest_cache is None:
            from repro.ir.digest import cone_digests

            self._cone_digest_cache = cone_digests(
                self.program, callgraph=self.callgraph
            )
        return self._cone_digest_cache[name]

    def _consult_fixpoint(self, name: str) -> bool:
        """Fetch the procedure's cached fixpoint bundle (in-memory tier
        first, then the durable store) and install its summaries into
        this engine's table.  Returns True when at least one summary was
        installed.  Exception-contained like every store path: anything
        unusable degrades to a from-scratch cone plus a
        ``store-invalid`` diagnostic, never a wrong verdict."""
        import time

        started = time.perf_counter()
        try:
            cone = self._cone_digest(name)
            subs, resolve = self._fixpoint_payloads(name, cone)
            if not subs:
                return False
            installed = self._install_fixpoint(name, cone, subs, resolve)
        except (BudgetExhausted, AnalysisStuck):
            raise
        except Exception as exc:  # containment: a replay bug is a miss
            self.metrics.inc("store.invalid")
            self._store_diagnostic(
                name, f"fixpoint consult raised {type(exc).__name__}: {exc}"
            )
            self._absorb_store_diagnostics()
            return False
        finally:
            self.metrics.observe(
                "incr.table.decode.seconds", time.perf_counter() - started
            )
        self._absorb_store_diagnostics()
        return installed > 0

    def _fixpoint_payloads(self, name: str, cone: str):
        """The raw bundle for (*name*, *cone*) plus the blob resolver of
        the tier it came from, or ``(None, None)``."""
        if self.fixpoint is not None:
            from repro.store.fixpoint import fixpoint_key
            from repro.store.store import STORE_SCHEMA

            key = fixpoint_key(
                name, cone, config=self.config, schema=STORE_SCHEMA
            )
            payload = self.fixpoint.get(key)
            if (
                isinstance(payload, dict)
                and isinstance(payload.get("summaries"), list)
            ):
                self.metrics.inc("incr.fixpoint.hits")
                return list(payload["summaries"]), self.fixpoint.get_blob
        if self.store is not None:
            subs = self.store.consult_fixpoint(
                name, cone, self.metrics, config=self.config
            )
            self._absorb_store_diagnostics()
            if subs:
                return subs, self.store.get_blob
        return None, None

    def _install_fixpoint(self, name, cone, subs, resolve) -> int:
        """Validate and install bundle sub-payloads one at a time (each
        in exactly the per-entry payload shape, so validation-on-read is
        shared check for check).  Validation interleaves with
        installation: a later sub-payload's new-definition set depends
        on what earlier ones installed.  The first failure abandons the
        *rest* of the bundle -- already-installed summaries passed every
        check and stay."""
        from repro.store.store import STORE_SCHEMA
        from repro.store.validate import InvalidStoreEntry, validate_summary_payload

        installed = 0
        for index, sub in enumerate(subs):
            try:
                if not isinstance(sub, dict):
                    raise InvalidStoreEntry("bundle entry is not an object")
                hit = validate_summary_payload(
                    sub,
                    callee=name,
                    entry_key=sub.get("entry", ""),
                    schema=STORE_SCHEMA,
                    env=self.env,
                    resolve_blob=resolve,
                    cone=cone,
                    config=self.config,
                )
                if index == 0:
                    # Subsumption spot-check: decoding the entry key a
                    # second time mints an independent alpha-variant;
                    # the two decodes must subsume each other, or the
                    # decoded states do not mean what the key says.
                    from repro.store.codec import decode_state

                    twin, _ = decode_state(sub["entry"])
                    if (
                        subsumes(hit.entry, twin, env=self.env) is None
                        or subsumes(twin, hit.entry, env=self.env) is None
                    ):
                        raise InvalidStoreEntry(
                            "entry fails the subsumption spot-check"
                        )
            except (BudgetExhausted, AnalysisStuck):
                raise
            except Exception as exc:
                self.metrics.inc("store.invalid")
                if self.store is not None:
                    self.store.tally("invalid")
                self._store_diagnostic(
                    name,
                    f"fixpoint bundle entry {index} rejected "
                    f"({type(exc).__name__}: {exc}); remaining bundle "
                    "degrades to from-scratch analysis",
                )
                break
            for definition in hit.new_defs:
                self.env.add(definition)
                self.metrics.inc("store.preds.installed")
            self.env.ensure_counter(hit.counter)
            self.summaries[name].append(
                Summary(
                    hit.entry,
                    hit.exits,
                    hit.cutpoints,
                    entry_key=sub.get("entry"),
                )
            )
            installed += 1
            self.metrics.inc("incr.summaries.replayed")
        return installed

    def export_fixpoints(self) -> None:
        """Record every procedure's tabulated summary table as a
        fixpoint bundle -- to the durable store and to the in-memory
        tier, whichever is attached.  Called by the driver after a
        *successful* run only (a failed run's tables are partial by
        construction); degraded bodies were never tabulated, so they
        are never exported.  Exception-contained."""
        if not self.incremental:
            return
        if self.store is None and self.fixpoint is None:
            return
        for name, summaries in self.summaries.items():
            if not summaries:
                continue
            triples = [(s.entry, s.exits, s.cutpoints) for s in summaries]
            try:
                cone = self._cone_digest(name)
                if self.store is not None:
                    self.store.record_fixpoint(
                        name,
                        cone,
                        triples,
                        self.env,
                        self.metrics,
                        config=self.config,
                    )
                if self.fixpoint is not None:
                    self._export_to_table(name, cone, triples)
            except (BudgetExhausted, AnalysisStuck):
                raise
            except Exception as exc:  # containment: a lost export
                self.metrics.inc("store.io_errors")
                self._store_diagnostic(
                    name,
                    f"fixpoint record raised {type(exc).__name__}: {exc}",
                )
        self._absorb_store_diagnostics()

    def _export_to_table(self, name, cone, triples) -> None:
        from repro.store.fixpoint import encode_fixpoint, fixpoint_key
        from repro.store.store import STORE_SCHEMA

        payload, blobs = encode_fixpoint(
            name, cone, triples, self.env,
            config=self.config, schema=STORE_SCHEMA,
        )
        if payload is None:
            return
        key = fixpoint_key(name, cone, config=self.config, schema=STORE_SCHEMA)
        self.fixpoint.put(key, payload, blobs)

    # ------------------------------------------------------------------
    # Durable store (repro.store): consult / record / diagnostics
    # ------------------------------------------------------------------
    def _consult_store(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
    ) -> "list[AbstractState] | None":
        """Look *entry* up in the durable store; exit states transplanted
        into the caller's name space on a validated hit, else None.

        The store's own validation (checksum, schema, decode, canonical
        re-keying, predicate self-derivation) has already run inside
        ``consult``; this method adds the *summary re-application
        check*: the decoded entry must be entailment-equivalent to the
        live entry and the cutpoints must map across, via the very same
        ``subsumes`` machinery in-memory reuse trusts.  Any failure --
        including an unexpected exception, which would be a store bug --
        degrades to a miss with a ``store-invalid`` diagnostic.
        """
        store = self.store
        try:
            hit = store.consult(
                name,
                entry,
                cutpoints,
                self.env,
                self.metrics,
                config=self.config,
                cone=self._cone_digest(name),
            )
        except (BudgetExhausted, AnalysisStuck):
            raise
        except Exception as exc:  # containment: a store bug is a miss
            store.tally("invalid")
            self.metrics.inc("store.invalid")
            self._store_diagnostic(
                name, f"store consult raised {type(exc).__name__}: {exc}"
            )
            self._absorb_store_diagnostics()
            return None
        self._absorb_store_diagnostics()
        if hit is None:
            return None
        self.phase_boundary("entailment", name)
        into = back = None
        if structural_signature(hit.entry) == structural_signature(entry):
            into = subsumes(hit.entry, entry, env=self.env)
            if into is not None:
                back = subsumes(entry, hit.entry, env=self.env)
        if into is None or back is None:
            store.tally("invalid")
            store.tally("misses")
            self.metrics.inc("store.invalid")
            self.metrics.inc("store.misses")
            self._store_diagnostic(
                name, "summary re-application check failed (entry not "
                "entailment-equivalent to the stored entry)"
            )
            return None
        mapped_cuts = frozenset(
            into.binding.get(c, c) for c in hit.cutpoints
        )
        if mapped_cuts != cutpoints:
            store.tally("invalid")
            store.tally("misses")
            self.metrics.inc("store.invalid")
            self.metrics.inc("store.misses")
            self._store_diagnostic(
                name, "stored cutpoints do not map onto the call's cutpoints"
            )
            return None
        # Commit: install the (already self-derivation-validated)
        # predicate definitions the exits mention, then tabulate the
        # decoded summary so later calls reuse it in memory.
        for definition in hit.new_defs:
            self.env.add(definition)
            self.metrics.inc("store.preds.installed")
        self.env.ensure_counter(hit.counter)
        self.summaries[name].append(
            Summary(hit.entry, hit.exits, hit.cutpoints)
        )
        store.tally("hits")
        self.metrics.inc("store.hits")
        if self.tracer.enabled:
            self.tracer.event(
                "store.hit", procedure=name, exits=len(hit.exits),
                preds=len(hit.new_defs),
            )
        return [transplant_state(e, into) for e in hit.exits]

    def _store_record(
        self,
        name: str,
        entry: AbstractState,
        exits: "list[AbstractState]",
        cutpoints: frozenset[HeapName],
    ) -> None:
        """Record a freshly tabulated summary in the durable store
        (no-op without one); write failures are contained."""
        if self.store is None:
            return
        try:
            # Keyed on the config token so a store-on run's trajectory
            # matches store-off exactly: summaries recorded under
            # another unroll bound or mode are invisible to this run.
            self.store.record(
                name,
                entry,
                exits,
                cutpoints,
                self.env,
                self.metrics,
                config=self.config,
                cone=self._cone_digest(name),
            )
        except (BudgetExhausted, AnalysisStuck):
            raise
        except Exception as exc:  # containment: a store bug loses a write
            self.metrics.inc("store.io_errors")
            self._store_diagnostic(
                name, f"store record raised {type(exc).__name__}: {exc}"
            )
        self._absorb_store_diagnostics()

    def _store_diagnostic(self, procedure: "str | None", message: str) -> None:
        """Append one deduplicated ``store-invalid`` diagnostic."""
        diagnostic = Diagnostic(
            code=STORE_INVALID,
            message=message,
            phase="store",
            procedure=procedure,
            severity=SEVERITY_WARNING,
            recovered=True,
        )
        for existing in self.diagnostics:
            if (
                existing.code == diagnostic.code
                and existing.procedure == diagnostic.procedure
            ):
                existing.count += 1
                return
        self.diagnostics.append(diagnostic)

    def _absorb_store_diagnostics(self) -> None:
        """Drain the store's pending diagnostics into this engine's
        record (deduplicated per procedure like containment events)."""
        if self.store is None:
            return
        for diagnostic in self.store.take_diagnostics():
            for existing in self.diagnostics:
                if (
                    existing.code == diagnostic.code
                    and existing.procedure == diagnostic.procedure
                ):
                    existing.count += diagnostic.count
                    break
            else:
                self.diagnostics.append(diagnostic)

    # ------------------------------------------------------------------
    # Recursive procedures (§5.2.1)
    # ------------------------------------------------------------------
    def _analyze_recursive(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
        outer_contracts: dict[str, list[Summary]] | None,
    ) -> list[AbstractState]:
        if not self.tracer.enabled:
            return self._analyze_recursive_traced(
                name, entry, cutpoints, outer_contracts, None
            )
        with self.tracer.span(
            "recursion.synthesize", procedure=name
        ) as span:
            return self._analyze_recursive_traced(
                name, entry, cutpoints, outer_contracts, span
            )

    def _analyze_recursive_traced(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
        outer_contracts: dict[str, list[Summary]] | None,
        span,
    ) -> list[AbstractState]:
        self.metrics.inc("engine.recursion.sccs")
        scc = self.callgraph.scc_of(name)
        if span is not None:
            span["scc"] = sorted(scc)
        sampler = _Sampler(scc=scc, max_visits=self.max_unroll)
        sampler.record_entry(name, entry)
        sampler.depth = 1
        outer_exits = self.interpret(
            name, entry.copy(), cutpoints, sampler, outer_contracts
        )
        sampler.depth = 0
        sampler.record_activation(name, entry, outer_exits, cutpoints)

        contracts: dict[str, list[Summary]] = dict(outer_contracts or {})
        visited = [p for p in scc if p in sampler.latest_entry]
        for p in visited:
            contracts[p] = self._build_contracts(p, sampler, cutpoints)
        # Verification: re-execute each body from each entry invariant
        # with recursive calls answered by the hypothesized contracts.
        # An exit the hypothesis missed (e.g. a base case the sample
        # path only saw under a different entry shape) *widens* the
        # contract, and verification restarts -- a Kleene iteration on
        # the exit sets, bounded by the disjunct cap a loop header also
        # obeys: the SCC's contracts start with and append at most
        # ``max_invariants_per_header`` exits.  Every contract starts
        # with an exit and every unstable round appends one, so the cap
        # also bounds the rounds.  Exceeding it means the synthesized
        # invariants do not derive themselves.  Exit sets stay maximal:
        # an appended exit evicts the exits it subsumes, but the cap
        # counts appended exits, not live ones, so an eviction never
        # buys a diverging recursion another round.
        disjuncts = sum(len(c.exits) for p in visited for c in contracts[p])
        verify_rounds = 0
        stable = False
        while not stable:
            verify_rounds += 1
            self.metrics.inc("engine.recursion.verify_rounds")
            stable = True
            for p in visited:
                for contract in contracts[p]:
                    verify_exits = self.interpret(
                        p, contract.entry.copy(), contract.cutpoints,
                        None, contracts,
                    )
                    for exit_state in verify_exits:
                        self.budget.check_deadline("tabulation")
                        if any_subsumes(
                            contract.exits, exit_state, env=self.env
                        ):
                            continue
                        if disjuncts >= self.max_invariants_per_header:
                            if span is not None:
                                span["verified"] = False
                                span["verify_rounds"] = verify_rounds
                            raise AnalysisFailure(
                                f"exit states of {name}'s recursion exceed "
                                f"{self.max_invariants_per_header} "
                                f"disjuncts; the synthesized exit "
                                f"invariants do not derive themselves",
                                code=SUMMARY_FAILURE,
                                procedure=name,
                            )
                        contract.exits[:] = [
                            old
                            for old in contract.exits
                            if subsumes(exit_state, old, env=self.env) is None
                        ]
                        contract.exits.append(exit_state)
                        disjuncts += 1
                        stable = False
        self.phase_boundary("tabulation", name)
        if span is not None:
            span["verified"] = True
            span["verify_rounds"] = verify_rounds
            span["contracts"] = sum(len(contracts[p]) for p in visited)
        for p in visited:
            self.summaries[p].extend(contracts[p])
            self.metrics.inc("engine.invariants.synthesized", len(contracts[p]))
            for contract in contracts[p]:
                self._store_record(
                    p, contract.entry, contract.exits, contract.cutpoints
                )
        for contract in contracts[name]:
            witness = subsumes(contract.entry, entry, env=self.env)
            if witness is not None:
                return [transplant_state(e, witness) for e in contract.exits]
        raise AnalysisFailure(
            f"original entry of {name} does not satisfy its invariant",
            code=SUMMARY_FAILURE,
            procedure=name,
        )

    def _build_contracts(
        self,
        p: str,
        sampler: _Sampler,
        cutpoints: frozenset[HeapName],
    ) -> list[Summary]:
        """Group the sampled activations of *p* by entry shape and
        synthesize one (entry invariant, exit invariants) contract per
        group.  Each activation's exits are re-based into its group's
        name space through the inverted subsumption witness (entry and
        exits of one activation share their names), and each group's
        exits are kept maximal."""
        params = set(self.program.proc(p).params)
        keep_live = {RET_REGISTER} | params
        groups: list[tuple[AbstractState, StateSet, frozenset]] = []
        for seen_entry, seen_exits, act_cuts in reversed(
            sampler.activations.get(p, [])
        ):
            folded_entry = fold_state(
                seen_entry.copy(), self.env, protect=act_cuts,
                keep_registers=True,
            )
            witness = None
            group_exits = None
            for group_entry, exits_acc, _cuts in groups:
                witness = subsumes(group_entry, folded_entry, env=self.env)
                if witness is not None:
                    group_exits = exits_acc
                    break
            if witness is None:
                self.phase_boundary("synthesis", p)
                if self.tracer.enabled:
                    with self.tracer.span(
                        "contract.synthesize", procedure=p, group=len(groups)
                    ):
                        group_entry = self._normalize(
                            seen_entry.copy(), params, "R", act_cuts
                        )
                else:
                    group_entry = self._normalize(
                        seen_entry.copy(), params, "R", act_cuts
                    )
                if len(groups) >= 4:
                    raise AnalysisFailure(
                        f"entry states of {p} fall into too many shapes; "
                        f"recursion synthesis cannot generalize them",
                        code=SUMMARY_FAILURE,
                        procedure=p,
                    )
                witness = subsumes(group_entry, folded_entry, env=self.env)
                if witness is None:
                    raise AnalysisFailure(
                        f"entry state of {p} is not derivable from its "
                        f"synthesized entry invariant",
                        code=SUMMARY_FAILURE,
                        procedure=p,
                    )
                group_exits = StateSet(self.env)
                groups.append((group_entry, group_exits, act_cuts))
            inverse = Mapping()
            for inv_name, value in witness.binding.items():
                if isinstance(value, (NullVal, OffsetVal)):
                    continue
                inverse.binding.setdefault(value, inv_name)
            for exit_state in seen_exits:
                normalized = self._normalize(
                    exit_state.copy(), keep_live, "R", act_cuts
                )
                candidate = transplant_state(normalized, inverse)
                group_exits.insert_maximal(candidate)
        return [
            Summary(entry, exits.states() or [AbstractState()], cuts)
            for entry, exits, cuts in groups
        ]

    # ------------------------------------------------------------------
    # Intraprocedural worklist
    # ------------------------------------------------------------------
    def interpret(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
        sampler: _Sampler | None,
        contracts: dict[str, Summary] | None,
    ) -> list[AbstractState]:
        if not self.tracer.enabled:
            return self._interpret(name, entry, cutpoints, sampler, contracts)
        with self.tracer.span("fixpoint", procedure=name) as span:
            states_before = self.metrics.counter("engine.states")
            exits = self._interpret(name, entry, cutpoints, sampler, contracts)
            span["states"] = self.metrics.counter("engine.states") - states_before
            span["exits"] = len(exits)
            return exits

    def _interpret(
        self,
        name: str,
        entry: AbstractState,
        cutpoints: frozenset[HeapName],
        sampler: _Sampler | None,
        contracts: dict[str, Summary] | None,
    ) -> list[AbstractState]:
        proc = self.program.proc(name)
        liveness = self.liveness[name]
        exits: list[AbstractState] = []
        header_invariants: dict[int, list[AbstractState]] = {}
        back_arrivals: dict[int, int] = {}
        processed = 0

        # The worklist is a priority queue over (rank, arrival): rank
        # is the block's position in the weak topological order, so
        # all of an inner loop's work drains before any block after
        # the loop is popped -- a back-edge re-push of the
        # (lower-ranked) header outranks every pending loop-exit
        # block.  Ranks are unique per block, and the sequence
        # tiebreak pops same-rank entries oldest-first (a recency
        # tiebreak measured 2.4x slower on entail-stress: popping the
        # newest header state first starves the older arrivals the
        # invariant-convergence check generalizes from, so loops
        # stopped converging by subsumption), so heap comparisons
        # never reach the states and the order is fully deterministic.
        wto = self._wto(name)
        rank_of = wto.rank_of
        heap: list[tuple[int, int, int, AbstractState]] = []
        seq = 0

        def push(index: int, state: AbstractState) -> None:
            nonlocal seq
            self.metrics.inc("engine.worklist.pushes")
            seq += 1
            heapq.heappush(heap, (rank_of(index), seq, index, state))

        def follow_edge(src: int, dst: int, state: AbstractState) -> None:
            if wto.is_back_edge(src, dst):
                self._back_edge(
                    name,
                    dst,
                    state,
                    header_invariants,
                    back_arrivals,
                    cutpoints,
                    liveness,
                    push,
                )
            else:
                push(dst, state)

        if not proc.instrs:
            return [entry]
        # Containment applies only to the plain forward analysis: while
        # a sample path is being steered or a synthesized contract is
        # being verified, a failure must surface to the synthesis
        # protocol (which the call-site containment then absorbs).
        containing = (
            self.mode == "degrade" and sampler is None and contracts is None
        )
        push(0, entry)
        seen_blocks: set[int] = set()
        while heap:
            processed += 1
            self.metrics.inc("engine.states")
            self.budget.charge_state()
            if processed > self.state_budget:
                raise BudgetExhausted(
                    f"state budget exceeded while analyzing {name}",
                    resource="states",
                    procedure=name,
                )
            _, _, index, state = heapq.heappop(heap)
            if index in seen_blocks:
                self.metrics.inc("engine.worklist.revisits")
            else:
                seen_blocks.add(index)
            instr = proc.instrs[index]
            self.metrics.inc("engine.instructions")
            try:
                if isinstance(instr, Nop):
                    follow_edge(index, index + 1, state)
                elif isinstance(instr, Goto):
                    follow_edge(index, proc.labels[instr.target], state)
                elif isinstance(instr, Return):
                    exits.append(
                        self._make_exit(state, instr, cutpoints, proc.params)
                    )
                elif isinstance(instr, Branch):
                    self._branch(
                        name, index, instr, state, sampler, follow_edge, proc
                    )
                elif isinstance(instr, Call):
                    live_after = liveness.live_out[index]
                    for successor in self._call(
                        name, state, instr, sampler, contracts, live_after
                    ):
                        follow_edge(index, index + 1, successor)
                else:
                    if isinstance(instr, (Load, Store)):
                        self.phase_boundary("rearrange", name)
                    for successor in apply_instruction(state, instr, self.env):
                        follow_edge(index, index + 1, successor)
            except BudgetExhausted:
                raise
            except AnalysisFailure as exc:
                if not containing:
                    raise
                if exc.procedure is None:
                    exc.procedure = name
                self._record_containment(
                    exc, detail=f"state dropped at {name}:{index}"
                )
            except AnalysisStuck as exc:
                if not containing:
                    raise
                self._record_containment(
                    AnalysisFailure(
                        f"abstract execution stuck: {exc}",
                        code=EXECUTION_STUCK,
                        procedure=name,
                    ),
                    detail=f"state dropped at {name}:{index}",
                )
        # Predicates synthesized on later paths can fold earlier exits,
        # and exits subsumed by more general siblings are dropped.
        if exits:
            self.phase_boundary("fold", name)
        folded = [
            fold_state(e, self.env, protect=cutpoints, keep_registers=True)
            for e in exits
        ]
        for state in folded:
            # Folding may only now have produced the instance whose base
            # case covers the nullness fact.
            self._drop_covered_nullness(state)
        # Bucketed dedup: exact alpha-variants drop on their canonical
        # key without any entailment query, and the remaining pairwise
        # subsumption only runs between states whose structural
        # signatures are compatible.  On pathological states the dedup
        # can still dwarf the worklist phase, so the deadline is polled
        # per state here and per entailment query inside the set.
        kept = StateSet(
            self.env,
            deadline_poll=lambda: self.budget.check_deadline("fold"),
        )
        for state in folded:
            self.budget.check_deadline("fold")
            kept.insert_maximal(state)
        return kept.states()

    # ------------------------------------------------------------------
    def _make_exit(
        self,
        state: AbstractState,
        instr: Return,
        cutpoints: frozenset[HeapName],
        params: tuple[Register, ...],
    ) -> AbstractState:
        """Exit states keep the formal parameters: they anchor the exit
        heap to the entry names, and constraints discovered on them
        (e.g. a base case that required the argument to be null) are
        unified back into the caller at the combine step."""
        value = (
            state.eval_operand(instr.value) if instr.value is not None else None
        )
        keep = {RET_REGISTER} | set(params)
        rho = {r: v for r, v in state.rho.items() if r in keep}
        if value is not None:
            rho[RET_REGISTER] = state.resolve(value)
        state.rho = rho
        self._normalize(state, set(rho), "P", cutpoints)
        self._drop_covered_nullness(state)
        return state

    def _normalize(
        self,
        state: AbstractState,
        live: set[Register],
        hint: str,
        protect: frozenset[HeapName],
    ) -> AbstractState:
        """``normalize_state`` under this run's deadline: the
        segmentation search inside synthesis polls it per candidate."""
        return normalize_state(
            state, self.env, live=live, hint=hint, protect=protect,
            deadline_poll=self.budget.check_deadline,
        )

    @staticmethod
    def _drop_covered_nullness(state: AbstractState) -> None:
        """At procedure exits, drop ``x != null`` facts about roots of
        complete predicate instances: the instance's base case encodes
        the null possibility, and keeping the path fact would stop a
        base-case exit from collapsing into the general disjunct (the
        caller re-learns nullness from its own branches)."""
        for atom in state.pure.atoms():
            if atom.op != "ne":
                continue
            sides = [atom.lhs, atom.rhs]
            if not any(isinstance(side, NullVal) for side in sides):
                continue
            other = sides[0] if isinstance(sides[1], NullVal) else sides[1]
            if isinstance(other, (NullVal, Opaque, OffsetVal)):
                continue
            instance = state.spatial.instance_rooted_at(other)
            if instance is not None and not instance.truncs:
                state.pure.discard(atom)

    def _branch(
        self,
        name: str,
        index: int,
        instr: Branch,
        state: AbstractState,
        sampler: _Sampler | None,
        follow_edge,
        proc,
    ) -> None:
        taken_index = proc.labels[instr.target]
        fall_index = index + 1
        outcomes = []
        taken_state = filter_condition(state.copy(), instr.cond, take=True)
        if taken_state is not None:
            outcomes.append((taken_index, taken_state))
        fall_state = filter_condition(state, instr.cond, take=False)
        if fall_state is not None:
            outcomes.append((fall_index, fall_state))
        if sampler is not None and name in sampler.scc and len(outcomes) == 2:
            outcomes = [self._select_sample_branch(name, sampler, outcomes)]
        for target, outcome in outcomes:
            follow_edge(index, target, outcome)

    def _select_sample_branch(
        self,
        name: str,
        sampler: _Sampler,
        outcomes: list[tuple[int, AbstractState]],
    ) -> tuple[int, AbstractState]:
        """The paper's sample-path branch selection: head toward
        recursive calls until every SCC member has been entered twice,
        then away from them."""
        reach = self._reaches_recursion(name, sampler.scc)
        toward = [o for o in outcomes if o[0] in reach]
        away = [o for o in outcomes if o[0] not in reach]
        if sampler.head_toward_recursion():
            preferred = toward or away
        else:
            preferred = away or toward
        return preferred[0]

    def _reaches_recursion(self, name: str, scc: frozenset[str]) -> set[int]:
        cached = self._reach_rec.get(name)
        if cached is not None:
            return cached
        proc = self.program.proc(name)
        cfg = self.cfgs[name]
        seeds = {
            i
            for i, instr in enumerate(proc.instrs)
            if isinstance(instr, Call) and instr.func in scc
        }
        preds = cfg.preds
        reach = set(seeds)
        frontier = list(seeds)
        while frontier:
            node = frontier.pop()
            for p in preds[node]:
                if p not in reach:
                    reach.add(p)
                    frontier.append(p)
        self._reach_rec[name] = reach
        return reach

    # ------------------------------------------------------------------
    def _call(
        self,
        caller: str,
        state: AbstractState,
        instr: Call,
        sampler: _Sampler | None,
        contracts: dict[str, Summary] | None,
        live_after: set[Register] | None = None,
    ) -> list[AbstractState]:
        callee = self.program.proc(instr.func)
        arg_values = [state.eval_operand(a) for a in instr.args]
        entry_rho: dict[Register, SymVal] = {
            formal: state.resolve(actual)
            for formal, actual in zip(callee.params, arg_values)
        }
        if live_after is not None:
            # Dead caller registers must not manufacture cutpoints (a
            # cutpoint pins its location explicit inside the callee).
            state.rho = {
                r: v for r, v in state.rho.items() if r in live_after
            }
        split = extract_local_heap(state, arg_values, entry_rho)
        containing = (
            self.mode == "degrade" and sampler is None and contracts is None
        )
        contained_before = self.contained_events
        try:
            exits = self.run_procedure(
                instr.func, split.entry, split.cutpoints, sampler, contracts
            )
        except BudgetExhausted:
            raise
        except AnalysisFailure as exc:
            if not containing:
                raise
            self._record_containment(
                exc,
                detail=(
                    f"havoc summary substituted at call site in {caller}"
                ),
            )
            exits = [self._havoc_exit(split)]
        else:
            # A fully-contained callee can lose every exit path (all of
            # its states were dropped); a havoc summary keeps the
            # caller's path alive.  A *legitimately* empty exit set (no
            # feasible path) recorded no diagnostics and stays empty.
            if (
                containing
                and not exits
                and self.contained_events > contained_before
            ):
                exits = [self._havoc_exit(split)]
        results = []
        for exit_state in exits:
            merged = combine(state, split.frame, exit_state, instr.dst, RET_REGISTER)
            feasible = True
            for formal, actual in zip(callee.params, arg_values):
                exit_value = exit_state.rho.get(formal)
                if exit_value is None:
                    continue
                if not unify_values(merged, exit_value, merged.resolve(actual)):
                    feasible = False  # e.g. a null-entry exit for a non-null arg
                    break
            if feasible:
                results.append(merged)
        return results

    def _havoc_exit(self, split: SplitHeap) -> AbstractState:
        """A sound-but-imprecise stand-in for a failed callee: the
        entry local heap with every explicit cell's content forgotten
        (field targets become fresh opaque values) and an opaque return
        value.  Touching a havocked cell later gets the caller stuck,
        which degrade mode then contains in turn -- imprecision stays
        confined to what the failed callee could actually reach, while
        the frame (everything the callee was never given) is untouched."""
        havoc = split.entry.copy()
        for atom in list(havoc.spatial.points_to_atoms()):
            self._havoc_counter += 1
            havoc.spatial.remove(atom)
            havoc.spatial.add(
                PointsTo(
                    atom.src, atom.field, Opaque(f"havoc{self._havoc_counter}")
                )
            )
        self._havoc_counter += 1
        havoc.rho[RET_REGISTER] = Opaque(f"havoc{self._havoc_counter}")
        return havoc

    # ------------------------------------------------------------------
    # Loop protocol
    # ------------------------------------------------------------------
    def _back_edge(
        self,
        name: str,
        header: int,
        state: AbstractState,
        header_invariants: dict[int, list[AbstractState]],
        back_arrivals: dict[int, int],
        cutpoints: frozenset[HeapName],
        liveness: DefUse,
        push,
    ) -> None:
        live = liveness.live_in[header]
        state.rho = {r: v for r, v in state.rho.items() if r in live}
        arrivals = back_arrivals.get(header, 0) + 1
        back_arrivals[header] = arrivals
        self.metrics.inc("engine.loop.back_edges")
        invariants = header_invariants.setdefault(header, [])
        self.phase_boundary("fold", name)
        folded = fold_state(
            state.copy(), self.env, protect=cutpoints, keep_registers=True
        )
        if invariants:
            self.phase_boundary("entailment", name)
            if any_subsumes(invariants, folded, env=self.env, live=live):
                # converged: derivable from an invariant (WEAKEN) --
                # the hypothesis verified against this back-edge state.
                self.metrics.inc("engine.loop.converged")
                if self.tracer.enabled:
                    self.tracer.event(
                        "loop.converged",
                        procedure=name,
                        header=header,
                        arrivals=arrivals,
                    )
                return
        if arrivals < self.max_unroll:
            push(header, state)
            return
        if arrivals > self.max_back_arrivals:
            self.metrics.inc("engine.invariants.failed")
            raise AnalysisFailure(
                f"loop at {name}@{header} did not converge; the "
                f"synthesized invariant does not derive itself",
                code=INVARIANT_FAILURE,
                procedure=name,
                loop_header=header,
            )
        # The candidate cap bounds *live* invariant classes, not raw
        # arrival order.  With the lemma fallback active, subsumption
        # is wider than the purely structural matcher, and a general
        # invariant synthesized from this very arrival may supersede
        # enough older candidates to bring the header back under the
        # cap -- whether it does must not depend on the order the
        # arrivals were delivered in, so at the cap we synthesize one
        # more candidate and fail only if supersession cannot make room.
        # With lemmas disabled the pre-synthesis failure is preserved
        # bit-for-bit.
        at_cap = len(invariants) >= self.max_invariants_per_header
        if at_cap and not lemmas.ACTIVE.enabled:
            self.metrics.inc("engine.invariants.failed")
            raise AnalysisFailure(
                f"too many invariant candidates at {name}@{header}; "
                f"recursion synthesis failed to generalize the loop",
                code=INVARIANT_FAILURE,
                procedure=name,
                loop_header=header,
            )
        self.phase_boundary("synthesis", name)
        if self.tracer.enabled:
            with self.tracer.span(
                "loop.synthesize",
                procedure=name,
                header=header,
                arrivals=arrivals,
                unroll=self.max_unroll,
                prior_candidates=len(invariants),
            ) as span:
                invariant = self._normalize(
                    state.copy(), live, "P", cutpoints
                )
                span["spatial_atoms"] = sum(1 for _ in invariant.spatial)
        else:
            invariant = self._normalize(state.copy(), live, "P", cutpoints)
        # A new, more general invariant supersedes older candidates.
        kept = [
            old
            for old in invariants
            if subsumes(invariant, old, live=live, env=self.env) is None
        ]
        if at_cap and len(kept) + 1 > self.max_invariants_per_header:
            self.metrics.inc("engine.invariants.failed")
            raise AnalysisFailure(
                f"too many invariant candidates at {name}@{header}; "
                f"recursion synthesis failed to generalize the loop",
                code=INVARIANT_FAILURE,
                procedure=name,
                loop_header=header,
            )
        invariants[:] = kept
        invariants.append(invariant)
        self.loop_invariants.setdefault((name, header), []).append(
            invariant.copy()
        )
        self.metrics.inc("engine.invariants.synthesized")
        push(header, invariant.copy())


# ----------------------------------------------------------------------
# Summary transplantation
# ----------------------------------------------------------------------


def transplant_state(recorded: AbstractState, witness: Mapping) -> AbstractState:
    """Rename a recorded exit state into the caller's name space.

    *witness* maps the names of the recorded entry onto the caller's
    values; names created inside the callee (absent from the witness)
    are re-rooted at fresh variables so repeated reuse never collides.
    """
    binding = dict(witness.binding)
    fresh_roots: dict[HeapName, HeapName] = {}

    def map_name(namev: HeapName) -> SymVal:
        prefixes: list[HeapName] = [namev]
        node = namev
        while isinstance(node, FieldPath):
            node = node.base
            prefixes.append(node)
        for prefix in prefixes:  # longest first
            image = binding.get(prefix)
            if image is None:
                continue
            suffix = path_of(namev)[len(path_of(prefix)):]
            if isinstance(image, (NullVal, Opaque)):
                return image if not suffix else Opaque(f"lost:{namev}")
            if isinstance(image, OffsetVal):
                image = image.base
            result: HeapName = image
            for fieldname in suffix:
                result = FieldPath(result, fieldname)
            return result
        root = root_of(namev)
        if isinstance(root, GlobalLoc):
            return namev
        replacement = fresh_roots.get(root)
        if replacement is None:
            replacement = fresh_var()
            fresh_roots[root] = replacement
        result = replacement
        for fieldname in path_of(namev):
            result = FieldPath(result, fieldname)
        return result

    def map_value(value: SymVal) -> SymVal:
        if isinstance(value, (NullVal, Opaque)):
            return value
        if isinstance(value, OffsetVal):
            base = map_name(value.base)
            if isinstance(base, (NullVal, Opaque)):
                return Opaque(f"lost:{value}")
            return OffsetVal(base, value.delta)
        return map_name(value)

    result = AbstractState()
    result.rho = {r: map_value(v) for r, v in recorded.rho.items()}
    result.spatial = _map_spatial(recorded.spatial, map_value, map_name)
    result.pure = _map_pure(recorded.pure, map_value, map_name)
    return result


def _map_spatial(spatial: SpatialFormula, map_value, map_name) -> SpatialFormula:
    from repro.logic.assertions import PointsTo, PredInstance, Raw, Region

    out = SpatialFormula()
    for atom in spatial:
        if isinstance(atom, PointsTo):
            src = map_name(atom.src)
            if isinstance(src, (NullVal, Opaque)):
                continue
            out.add(PointsTo(src, atom.field, map_value(atom.target)))
        elif isinstance(atom, PredInstance):
            args = tuple(map_value(a) for a in atom.args)
            truncs = []
            for t in atom.truncs:
                image = map_name(t)
                if not isinstance(image, (NullVal, Opaque)):
                    truncs.append(image)
            out.add(PredInstance(atom.pred, args, tuple(truncs)))
        elif isinstance(atom, Raw):
            loc = map_name(atom.loc)
            if not isinstance(loc, (NullVal, Opaque)):
                out.add(Raw(loc, atom.written))
        elif isinstance(atom, Region):
            base = map_name(atom.base)
            if not isinstance(base, (NullVal, Opaque)):
                out.add(Region(base, atom.carved))
    return out


def _map_pure(pure: PureFormula, map_value, map_name) -> PureFormula:
    out = PureFormula()
    for offset_val, alias in pure.aliases().items():
        base = map_name(offset_val.base)
        image = map_name(alias)
        if not isinstance(base, (NullVal, Opaque)) and not isinstance(
            image, (NullVal, Opaque)
        ):
            out.record_alias(OffsetVal(base, offset_val.delta), image)
    for atom in pure.atoms():
        out.assume(atom.op, map_value(atom.lhs), map_value(atom.rhs))
    return out
