"""State subsumption: the partial order on abstract states (§2.1).

``subsumes(general, concrete)`` decides whether *concrete* is an
instance of *general*: it searches for a mapping ``f`` from the heap
names of *general* to the symbolic values of *concrete* such that

(i)   live registers correspond through ``f`` (null to null);
(ii)  every spatial atom of *general*, mapped through ``f``, matches a
      distinct spatial atom of *concrete*, and every spatial atom of
      *concrete* is matched (the formulas describe the same heap) --
      with the semantic allowances that a predicate instance whose
      mapped root is null denotes ``emp`` (the base case) and that a
      truncation point mapped to null disappears
      (``emp --* A(..)  ==  A(..)``);
(iii) every pure *condition* atom of *general* is, mapped through
      ``f``, entailed by *concrete*'s pure formula.

Pointer-arithmetic aliases in the pure formulas are naming
infrastructure rather than constraints between states and are not
required to map (the register correspondence already compares values
*after* alias resolution).  This is the check the engine uses both for
loop convergence (state at loop entry subsumed by the invariant) and
for procedure-summary reuse.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs, perf
from repro.ir.values import Register
from repro.logic import lemmas
from repro.logic.canonical import (
    UntranslatableWitness,
    canonicalize,
    decode_binding,
    encode_binding,
)
from repro.logic.implication import pred_implies
from repro.logic.assertions import (
    HeapAssertion,
    PointsTo,
    PredInstance,
    Raw,
    Region,
)
from repro.logic.heapnames import HeapName
from repro.logic.state import AbstractState
from repro.logic.symvals import NULL_VAL, NullVal, OffsetVal, Opaque, SymVal

__all__ = [
    "subsumes",
    "equivalent",
    "Mapping",
    "MATCH_STEP_LIMIT",
    "activate_deadline",
    "structural_signature",
    "signatures_compatible",
]

def structural_signature(state: AbstractState) -> tuple:
    """Cheap subsumption-invariant shape of *state*'s spatial formula.

    Returns ``(pointsto field multiset, raw count, region count, pred
    count)``, memoized on the formula's revision counter.  Used as a
    necessary-condition pre-filter: see :func:`signatures_compatible`.
    """
    return state.spatial.structural_signature()


def signatures_compatible(general: tuple, concrete: tuple) -> bool:
    """Can a state with signature *general* subsume one with *concrete*?

    Necessary condition only (cheap pre-filter): ``_match_atoms`` pairs
    spatial atoms bijectively, and the only atom allowed to "vanish" is
    a general ``PredInstance`` without truncations whose mapped root is
    null.  A successful match therefore forces equality of the PointsTo
    field multiset, the Raw count and the Region count, and requires
    the general side to carry at least as many predicate instances as
    the concrete side.  Root counts are deliberately not compared:
    ``Mapping.unify`` does not require an injective binding, so the
    number of distinct roots is not preserved by matching.

    With an active lemma engine the predicate-count requirement is
    relaxed: the merge lemma composes two concrete instances into one
    and the empty-segment lemma discharges an instance outright, so the
    concrete side may carry *more* predicate instances than the general
    side.  This ordering matters -- the fast-reject must not
    short-circuit before the lemma fallback gets a chance on
    recursive-predicate mismatches (every reject path, including the
    ``stateset`` bucket filters, routes through here) -- and is pinned
    by ``test_lemma_properties.py``.  PointsTo/Raw/Region equality is
    still required: no lemma changes those atoms.
    """
    if general[:3] != concrete[:3]:
        return False
    if general[3] >= concrete[3]:
        return True
    return lemmas.ACTIVE.enabled and concrete[3] >= 1


#: Cap on backtracking steps (atom-unification attempts) per query.
#: The search is worst-case exponential in the number of spatial atoms;
#: on malformed states (e.g. fuzzed programs that leak unlinked cells)
#: it can otherwise run unboundedly, outliving every cooperative budget
#: check.  Giving up is conservative: the query answers "not subsumed",
#: which at worst costs precision (another widening round, a recomputed
#: summary), never soundness.  Well-formed states match in well under a
#: thousand steps.
MATCH_STEP_LIMIT = 100_000

#: A query that uses its whole step limit takes ~0.4 s, far past a
#: tight run deadline, so the match budget polls the run's deadline
#: every this many steps.
DEADLINE_POLL_STEPS = 1024

#: The active run's deadline poll (raises ``BudgetExhausted`` once the
#: deadline has passed), or None outside :func:`activate_deadline`.
#: Module-level for the same reason as ``lemmas.ACTIVE``.
DEADLINE_POLL = None


@contextmanager
def activate_deadline(poll):
    """Install *poll* as the deadline poll of every query started in
    the block (restored on exit, exception or not).  Its exception
    propagates out of :func:`subsumes`: an expired deadline is never
    answered as "not subsumed"."""
    global DEADLINE_POLL
    saved = DEADLINE_POLL
    DEADLINE_POLL = poll
    try:
        yield
    finally:
        DEADLINE_POLL = saved


class _MatchBudget:
    __slots__ = ("steps", "limit", "poll", "check_at")

    def __init__(self, limit: int):
        self.steps = 0
        self.limit = limit
        self.poll = DEADLINE_POLL
        #: the next step that must look at the limit or the clock; the
        #: common step pays one comparison
        self.check_at = min(limit + 1, DEADLINE_POLL_STEPS)

    def charge(self) -> None:
        self.steps += 1
        if self.steps >= self.check_at:
            self._check()

    def _check(self) -> None:
        if self.steps > self.limit:
            raise _MatchBudgetExceeded
        if self.poll is not None:
            self.poll()
        self.check_at = min(self.limit + 1, self.steps + DEADLINE_POLL_STEPS)


class _MatchBudgetExceeded(Exception):
    pass


@dataclass
class Mapping:
    """A partial mapping from *general* names/opaques to *concrete* values.

    ``lemmas_used`` counts the lemma applications the witness relies on
    (0 for a purely structural match), so callers can tell an assisted
    verdict from a structural one."""

    binding: dict[SymVal, SymVal] = field(default_factory=dict)
    lemmas_used: int = 0

    def copy(self) -> "Mapping":
        return Mapping(dict(self.binding), self.lemmas_used)

    def unify(self, general: SymVal, concrete: SymVal) -> bool:
        """Extend the mapping so f(general) == concrete, if consistent."""
        if isinstance(general, NullVal):
            return isinstance(concrete, NullVal)
        if isinstance(general, OffsetVal):
            return (
                isinstance(concrete, OffsetVal)
                and general.delta == concrete.delta
                and self.unify(general.base, concrete.base)
            )
        # Heap names and opaque values bind atomically.
        bound = self.binding.get(general)
        if bound is not None:
            return bound == concrete
        self.binding[general] = concrete
        return True

    def apply(self, general: SymVal) -> SymVal | None:
        """f(general), or None when unbound."""
        if isinstance(general, NullVal):
            return NULL_VAL
        if isinstance(general, OffsetVal):
            base = self.apply(general.base)
            if base is None or isinstance(base, (OffsetVal, NullVal, Opaque)):
                return None
            return OffsetVal(base, general.delta)
        return self.binding.get(general)


def subsumes(
    general: AbstractState,
    concrete: AbstractState,
    live: set[Register] | None = None,
    env=None,
    step_limit: int = MATCH_STEP_LIMIT,
) -> Mapping | None:
    """Return a witness mapping if *concrete* <= *general*, else None.

    With a predicate environment, instances of *different* predicates
    match when the concrete one's definition implies the general one's
    (see :mod:`repro.logic.implication`).  A query exceeding
    *step_limit* backtracking steps conservatively answers None.

    Every query reports to the active observability instruments
    (``obs.METRICS`` counters, and a ``entailment.query`` trace event
    carrying the match steps consumed and the verdict); outside an
    active analysis run both are null and the cost is a no-op call.

    When an :class:`~repro.perf.cache.EntailmentCache` is active
    (``perf.CACHE``, installed per analysis run), the query is first
    looked up under the canonical (antecedent, consequent) key pair --
    see :mod:`repro.logic.canonical` for why equal keys guarantee the
    same verdict -- and a hit replays the stored witness translated
    into this query's names instead of re-running the search.  Each
    public query gets its *own* fresh match budget either way: budgets
    never leak between top-level calls (or between the two directions
    of :func:`equivalent`)."""
    if not signatures_compatible(
        structural_signature(general), structural_signature(concrete)
    ):
        # Incompatible spatial shapes cannot match; answer "not
        # subsumed" without searching (and without paying for a
        # canonical cache key -- the signatures are revision-memoized,
        # the verdict deterministic either way).
        _report_query(None, steps=0, capped=False, cached=False, sig=True)
        return None
    engine = lemmas.ACTIVE
    cache = perf.CACHE
    general_form = concrete_form = cache_key = None
    if cache.enabled:
        general_form = canonicalize(general)
        concrete_form = canonicalize(concrete)
        cache_key = (
            general_form.key,
            concrete_form.key,
            None if live is None else tuple(sorted(r.name for r in live)),
            None if env is None else env.cache_token(),
            step_limit,
            # Verdicts reached with lemma allowances must never replay
            # for a lemma-free query (and vice versa).
            engine.token(),
        )
        found = cache.lookup(cache_key)
        if found is not None:
            payload = found[0]
            if payload is None:
                result = None
            else:
                encoded, lemmas_used = payload
                try:
                    result = Mapping(
                        decode_binding(encoded, general_form, concrete_form),
                        lemmas_used,
                    )
                except UntranslatableWitness:
                    result = None
                    found = None  # fall through to a real search
            if found is not None:
                _report_query(result, steps=0, capped=False, cached=True)
                return result
    budget = _MatchBudget(step_limit)
    result = None
    capped = False
    attempts_before = engine.enabled and engine.attempts or 0
    try:
        result = _subsumes(general, concrete, live, env, budget)
    except _MatchBudgetExceeded:
        capped = True
    finally:
        # Also when the run's deadline poll (or an injected fault)
        # aborts the match: the query happened and counts, with its
        # steps.
        _report_query(
            result,
            steps=budget.steps,
            capped=capped,
            cached=False,
            attempts=(engine.enabled and engine.attempts or 0) - attempts_before,
        )
    if cache_key is not None:
        try:
            payload = (
                None
                if result is None
                else (
                    encode_binding(
                        result.binding, general_form, concrete_form
                    ),
                    result.lemmas_used,
                )
            )
        except UntranslatableWitness:
            pass  # uncacheable witness; the verdict itself is still valid
        else:
            if cache.store(cache_key, payload) and obs.METRICS.enabled:
                obs.METRICS.inc("entailment.cache.evictions")
    return result


def _report_query(
    result,
    steps: int,
    capped: bool,
    cached: bool,
    sig: bool = False,
    attempts: int = 0,
) -> None:
    assisted = result is not None and result.lemmas_used > 0
    metrics = obs.METRICS
    if metrics.enabled:
        metrics.inc("entailment.queries")
        metrics.inc("entailment.match_steps", steps)
        # Per-query distribution alongside the summed counter: the
        # counter says how much total work, the histogram says whether
        # one pathological query or many cheap ones produced it.
        metrics.observe("entailment.match_steps.dist", steps)
        metrics.inc(
            "entailment.subsumed" if result is not None
            else "entailment.rejected"
        )
        if sig:
            # Signature pre-filter rejections never consult the cache,
            # so they stay out of the hit/miss accounting.
            metrics.inc("entailment.sig_rejects")
        if capped:
            metrics.inc("entailment.step_limit_hits")
        if perf.CACHE.enabled and not sig:
            metrics.inc(
                "entailment.cache.hits" if cached
                else "entailment.cache.misses"
            )
        if assisted:
            metrics.inc("entailment.lemma.applied")
        if lemmas.ACTIVE.enabled and not cached and not sig:
            # Same counter-plus-distribution pairing as match_steps:
            # how many synthesis attempts this one query triggered.
            metrics.observe("entailment.lemma.attempts.dist", attempts)
    tracer = obs.TRACER
    if tracer.enabled:
        tracer.event(
            "entailment.query",
            steps=steps,
            subsumed=result is not None,
            step_limit_hit=capped,
            cached=cached,
            lemmas=result.lemmas_used if result is not None else 0,
        )


def _subsumes(
    general: AbstractState,
    concrete: AbstractState,
    live: set[Register] | None,
    env,
    budget: _MatchBudget,
) -> Mapping | None:
    mapping = Mapping()
    registers = set(general.rho) & set(concrete.rho)
    if live is not None:
        registers &= live
    for register in sorted(registers, key=lambda r: r.name):
        general_val = general.resolve(general.rho[register])
        concrete_val = concrete.resolve(concrete.rho[register])
        if isinstance(general_val, Opaque) and isinstance(concrete_val, Opaque):
            continue  # untracked data; any value matches any value
        if not mapping.unify(general_val, concrete_val):
            return None
    general_atoms = sorted(_spatial_atoms(general), key=_match_priority)
    concrete_atoms = _spatial_atoms(concrete)
    engine = lemmas.ACTIVE
    if engine.enabled and env is not None:
        # Empty-segment lemma, concrete side: an instance whose single
        # truncation point resolves equal to its root denotes emp (for
        # a verified unary predicate) and constrains nothing -- drop it
        # before the bijective search rather than forcing it to match.
        kept = []
        for candidate in concrete_atoms:
            if (
                isinstance(candidate, PredInstance)
                and len(candidate.truncs) == 1
                and concrete.resolve(candidate.args[0])
                == concrete.resolve(candidate.truncs[0])
                and engine.empty_lemma(env, candidate.pred) is not None
            ):
                mapping.lemmas_used += 1
                continue
            kept.append(candidate)
        concrete_atoms = kept
    result = _match_atoms(
        general_atoms,
        concrete_atoms,
        mapping,
        concrete,
        env,
        budget,
    )
    if result is None:
        return None
    if not _pure_atoms_hold(general, concrete, result):
        return None
    return result


def equivalent(
    a: AbstractState,
    b: AbstractState,
    env=None,
    step_limit: int = MATCH_STEP_LIMIT,
) -> bool:
    """Mutual subsumption (used for summary-context equivalence).

    Each direction is a full public :func:`subsumes` query with its own
    fresh match budget of *step_limit* steps: a first direction that
    burns most of its budget cannot starve (and thereby flip) the
    second.  Regression-pinned by ``test_logic_entailment.py``."""
    return (
        subsumes(a, b, env=env, step_limit=step_limit) is not None
        and subsumes(b, a, env=env, step_limit=step_limit) is not None
    )


def _spatial_atoms(state: AbstractState) -> list[HeapAssertion]:
    return list(state.spatial)


def _match_priority(atom: HeapAssertion) -> int:
    """Match the most constrained atoms first (points-to before
    predicate instances before regions)."""
    if isinstance(atom, PointsTo):
        return 0
    if isinstance(atom, Raw):
        return 1
    if isinstance(atom, PredInstance):
        return 2
    return 3


def _match_atoms(
    general_atoms: list[HeapAssertion],
    concrete_atoms: list[HeapAssertion],
    mapping: Mapping,
    concrete_state: AbstractState,
    env=None,
    budget: "_MatchBudget | None" = None,
) -> Mapping | None:
    """Backtracking search for a bijective spatial match."""
    if not general_atoms:
        return mapping if not concrete_atoms else None
    atom, rest = general_atoms[0], general_atoms[1:]

    if isinstance(atom, PredInstance):
        # Semantic allowance: root mapped to null means the base case,
        # which is emp and consumes no concrete atom.
        root_image = mapping.apply(atom.args[0])
        if isinstance(root_image, NullVal) and not atom.truncs:
            # The base case constrains nothing beyond the root.
            result = _match_atoms(
                rest, concrete_atoms, mapping.copy(), concrete_state, env, budget
            )
            if result is not None:
                return result
        elif root_image is not None and len(atom.truncs) == 1:
            # Empty-segment lemma, general side: a segment whose
            # truncation point can map to the same value as its root
            # denotes emp and consumes no concrete atom.  The trunc may
            # still be unbound here (its image is *chosen* to equal the
            # root's), so this is one more backtracking branch.
            engine = lemmas.ACTIVE
            if (
                engine.enabled
                and env is not None
                and engine.empty_lemma(env, atom.pred) is not None
            ):
                trial = mapping.copy()
                if trial.unify(atom.truncs[0], root_image):
                    trial.lemmas_used += 1
                    result = _match_atoms(
                        rest, concrete_atoms, trial, concrete_state, env, budget
                    )
                    if result is not None:
                        return result

    for index, candidate in enumerate(concrete_atoms):
        if budget is not None:
            budget.charge()
        trial = mapping.copy()
        if _unify_atom(atom, candidate, trial, env):
            remaining = concrete_atoms[:index] + concrete_atoms[index + 1:]
            result = _match_atoms(
                rest, remaining, trial, concrete_state, env, budget
            )
            if result is not None:
                return result

    engine = lemmas.ACTIVE
    if (
        engine.enabled
        and env is not None
        and isinstance(atom, PredInstance)
        and len(concrete_atoms) >= 2
    ):
        return _match_with_merges(
            general_atoms, concrete_atoms, mapping, concrete_state, env, budget
        )
    return None


def _match_with_merges(
    general_atoms: list[HeapAssertion],
    concrete_atoms: list[HeapAssertion],
    mapping: Mapping,
    concrete_state: AbstractState,
    env,
    budget: "_MatchBudget | None",
) -> Mapping | None:
    """Merge-lemma fallback: rewrite the *concrete* atom list by wand
    modus ponens -- an instance rooted at another instance's truncation
    point discharges that hole -- and retry the match.

    Each merge removes one concrete atom, so the rewriting terminates;
    every attempt is charged to the match budget.  A piece carrying its
    own truncation points only composes with a host of the *same*
    predicate (the hole a truncation leaves is typed by the instance's
    own predicate, so a cross-predicate piece must be complete)."""
    engine = lemmas.ACTIVE
    for i, host in enumerate(concrete_atoms):
        if not (isinstance(host, PredInstance) and host.truncs):
            continue
        for t_index, trunc in enumerate(host.truncs):
            cut = concrete_state.resolve(trunc)
            for j, piece in enumerate(concrete_atoms):
                if j == i or not isinstance(piece, PredInstance):
                    continue
                if piece.truncs and piece.pred != host.pred:
                    continue
                if concrete_state.resolve(piece.args[0]) != cut:
                    continue
                if budget is not None:
                    budget.charge()
                if engine.merge_lemma(env, piece.pred, host.pred) is None:
                    continue
                merged = PredInstance(
                    host.pred,
                    host.args,
                    truncs=host.truncs[:t_index]
                    + host.truncs[t_index + 1:]
                    + piece.truncs,
                )
                remaining = [
                    a for k, a in enumerate(concrete_atoms) if k not in (i, j)
                ]
                remaining.append(merged)
                trial = mapping.copy()
                trial.lemmas_used += 1
                result = _match_atoms(
                    general_atoms, remaining, trial, concrete_state, env, budget
                )
                if result is not None:
                    return result
    return None


def _unify_atom(
    general: HeapAssertion, concrete: HeapAssertion, m: Mapping, env=None
) -> bool:
    if isinstance(general, PointsTo):
        return (
            isinstance(concrete, PointsTo)
            and general.field == concrete.field
            and m.unify(general.src, concrete.src)
            and m.unify(general.target, concrete.target)
        )
    if isinstance(general, PredInstance):
        if not isinstance(concrete, PredInstance):
            return False
        preds_compatible = general.pred == concrete.pred or (
            env is not None
            and pred_implies(env, concrete.pred, general.pred)
        )
        if preds_compatible and len(general.args) == len(concrete.args):
            # Truncation points mapped to null disappear; to keep
            # matching syntactic we require equal truncation-point
            # counts here and let callers normalize null truncation
            # points away beforehand.
            if len(general.truncs) != len(concrete.truncs):
                return False
            return all(
                m.unify(ga, ca) for ga, ca in zip(general.args, concrete.args)
            ) and all(
                m.unify(gt, ct)
                for gt, ct in zip(general.truncs, concrete.truncs)
            )
        return _unify_bridged(general, concrete, m, env)
    if isinstance(general, Raw):
        return isinstance(concrete, Raw) and m.unify(general.loc, concrete.loc)
    if isinstance(general, Region):
        return isinstance(concrete, Region) and m.unify(general.base, concrete.base)
    return False


def _unify_bridged(
    general: PredInstance, concrete: PredInstance, m: Mapping, env
) -> bool:
    """Bridge-lemma fallback for a structurally incompatible instance
    pair: a verified ``concrete(b..) |= general(s(b..))`` lemma lets the
    pair unify through the lemma's parameter map instead of positionally.

    Restricted to complete instances -- a bridge is proved for whole
    predicates, and nothing relates the two sides' cut sub-structures."""
    engine = lemmas.ACTIVE
    if (
        not engine.enabled
        or env is None
        or general.pred == concrete.pred
        or general.truncs
        or concrete.truncs
    ):
        return False
    lemma = engine.bridge_lemma(env, concrete.pred, general.pred)
    if lemma is None or len(lemma.param_map) != len(general.args):
        return False
    for general_arg, entry in zip(general.args, lemma.param_map):
        if entry == ("null",):
            if not m.unify(general_arg, NULL_VAL):
                return False
        else:
            position = entry[1]
            if position >= len(concrete.args):
                return False
            if not m.unify(general_arg, concrete.args[position]):
                return False
    m.lemmas_used += 1
    return True


def _pure_atoms_hold(
    general: AbstractState, concrete: AbstractState, mapping: Mapping
) -> bool:
    """Condition (iii): mapped eq/ne atoms of *general* must be entailed."""
    for atom in general.pure.atoms():
        lhs = mapping.apply(general.resolve(atom.lhs))
        rhs = mapping.apply(general.resolve(atom.rhs))
        if lhs is None or rhs is None:
            continue  # mentions names outside the matched heap; vacuous
        if isinstance(lhs, Opaque) or isinstance(rhs, Opaque):
            continue  # untracked data
        if atom.op == "eq" and not concrete.pure.entails_eq(lhs, rhs):
            return False
        if atom.op == "ne":
            if not concrete.pure.entails_ne(lhs, rhs) and not _structurally_ne(
                concrete, lhs, rhs
            ):
                return False
    return True


def _structurally_ne(state: AbstractState, lhs: SymVal, rhs: SymVal) -> bool:
    """Disequality implied by the heap: an allocated location is not null,
    and two separately-asserted locations are distinct."""
    if isinstance(rhs, NullVal):
        lhs, rhs = rhs, lhs
    if isinstance(lhs, NullVal):
        return not isinstance(rhs, (NullVal, Opaque, OffsetVal)) and (
            state.spatial.is_allocated(rhs)
        )
    if isinstance(lhs, (Opaque, OffsetVal)) or isinstance(rhs, (Opaque, OffsetVal)):
        return False
    return (
        state.spatial.is_allocated(lhs)
        and state.spatial.is_allocated(rhs)
        and lhs != rhs
    )
