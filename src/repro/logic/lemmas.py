"""Lemma synthesis for the entailment fallback (split / merge / bridge).

Structural subsumption (:mod:`repro.logic.entailment`) pairs spatial
atoms one-to-one, so two states that describe the same heap through
*different decompositions* of the same recursive predicates are
rejected outright: a single segment ``P(h; c)`` never matches the
composition ``P(h; m) * P(m; c)``, and an instance whose truncation
point coincides with its root (``P(x; x)`` -- the empty segment) never
matches ``emp``.  Following the lemma-synthesis line of work (Ta et
al., arXiv 1710.09635; Le, arXiv 1710.06515), this module synthesizes
and *verifies* exactly the bridging lemmas those gaps need, so the
matcher can consult them as additional semantic allowances:

**split** (empty-segment collapse)
    ``emp |= P(x; x)`` for a unary predicate ``P``.  Sound by the wand
    reading of truncation points documented in
    :mod:`repro.logic.assertions`: ``P(x; x)`` is
    ``(exists b. P(x, b..)) --* P(x)``, which the empty heap satisfies
    whenever the predicate has no parameters beyond its root (for a
    wider arity the wand's existentially chosen arguments could
    disagree with the instance's fixed ones, so the lemma is restricted
    to arity 1).  This is the base case of the classic segment-split
    lemma ``P(x) |= P(x; y) * P(y)``.

**merge** (wand modus ponens)
    ``Q(t, q..) * P(v..; t, u..) |= P(v..; u..)`` -- a complete
    instance rooted at a truncation point discharges that hole.  Sound
    when ``Q(t, q..)`` entails the existential closure of the cut
    sub-structure (:func:`repro.logic.implication.implies_existential`)
    and ``Q`` is reachable from ``P``'s recursive calls; this is the
    same rewrite :func:`repro.analysis.fold.fold_state` applies
    bottom-up to dead cut points, re-used here for the entailment
    direction where the cut point is live.

**bridge** (cross-predicate reroot)
    ``Q(b1..bn) |= P(s(b1..bn))`` for structurally compatible
    predicates whose parameter lists differ (a re-rooted or
    re-parameterized definition of the same shape).  The parameter map
    ``s`` is *proposed* by anti-unification over the two definitions'
    one-step unfoldings (:func:`repro.synthesis.antiunify.anti_unify`)
    and *verified* by the coinductive argument-sensitive implication
    check before use.

Every candidate is verified by **self-derivation** before it is ever
consulted -- the same discipline as the store's validation-on-read: the
participating definitions must re-derive themselves (bounded unfold
then fold in a scratch environment), and merge candidates must
additionally *materialize*: folding ``P(r; t) * Q(t)`` in a scratch
state must actually produce ``P(r)``.  A candidate that fails any
check is recorded as *refuted* under the same key, so the negative
verdict is cached exactly like the positive one.  A wrong or refuted
lemma therefore degrades to a structural miss (the matcher simply
lacks an allowance), never to a wrong verdict; DESIGN.md §11 gives the
full argument.

Verified and refuted lemmas are cached under a **canonical pair key**
-- a structural, discovery-order serialization of the participating
definitions that is invariant under renaming of predicates and
parameters -- in a :class:`repro.perf.cache.LemmaCache`, and persisted
through the durable store (``SummaryStore.consult_lemma`` /
``record_lemma``) where validation-on-read re-verifies them from
scratch.  The key string itself is memoized per environment
(``PredicateEnv.pair_keys``) and invalidated by ``PredicateEnv.add``,
so the matcher's repeated consults of one pair cost a dict lookup.

Like the tracer/metrics and the entailment cache, the *active* engine
is module-level (``lemmas.ACTIVE``) because ``subsumes`` sits too deep
to thread an engine through every call site; outside
:func:`activate_lemmas` the null engine is installed and every hook is
one attribute check.  ``ShapeAnalysis`` activates an engine per run
(``--no-lemmas`` / ``enable_lemmas=False`` keeps the null engine, which
restores the purely structural matcher bit-for-bit).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.logic.heapnames import fresh_var
from repro.logic.implication import implies_existential
from repro.logic.assertions import PredInstance
from repro.logic.predicates import (
    AnyArg,
    NullArg,
    ParamArg,
    PredicateEnv,
    RecTarget,
)

__all__ = [
    "ACTIVE",
    "Lemma",
    "LemmaEngine",
    "NULL_ENGINE",
    "NullLemmaEngine",
    "activate_lemmas",
    "pair_key",
    "structural_serial",
]

#: Bump when lemma *semantics* change: part of every pair key and of the
#: entailment-cache token, so stale cached verdicts can never replay.
LEMMA_SCHEMA = 1

#: Cap on (synthesize + verify) attempts per engine; beyond it the
#: engine answers "no lemma" without searching.  Misses are cached, so
#: a converging analysis asks about few distinct pairs -- the cap only
#: guards pathological environments that mint unbounded definitions.
MAX_ATTEMPTS = 256


# ----------------------------------------------------------------------
# Canonical pair keys
# ----------------------------------------------------------------------

def structural_serial(env: PredicateEnv, root: str) -> tuple:
    """Alpha-invariant serialization of *root*'s definition cluster.

    Definitions are visited depth-first from *root* (fields in name
    order, recursive calls in index order) and named by discovery
    index, so two environments holding the same structures under
    different predicate names serialize identically.  Predicate names
    never appear in the output -- only discovery indices -- which is
    what makes the pair key invariant under alpha-renaming (pinned by
    ``test_lemma_properties.py``).
    """
    order: dict[str, int] = {}
    defs: list[tuple] = []

    def visit(name: str) -> int:
        if name in order:
            return order[name]
        index = len(order)
        order[name] = index
        slot = len(defs)
        defs.append(())  # reserve; filled after children resolve
        if name not in env:
            defs[slot] = ("undef", index)
            return index
        d = env[name]
        fields = tuple(
            (spec.field, _serial_arg(spec.target))
            for spec in sorted(d.fields, key=lambda s: s.field)
        )
        calls = tuple(
            (visit(call.pred), tuple(_serial_arg(a) for a in call.args))
            for call in d.rec_calls
        )
        defs[slot] = ("def", index, d.arity, fields, calls)
        return index

    visit(root)
    return tuple(defs)


def _serial_arg(arg) -> tuple:
    if isinstance(arg, NullArg):
        return ("null",)
    if isinstance(arg, ParamArg):
        return ("param", arg.index)
    if isinstance(arg, RecTarget):
        return ("rec", arg.index)
    if isinstance(arg, AnyArg):
        return ("any",)
    return ("?", repr(arg))


def pair_key(env: PredicateEnv, kind: str, concrete: str, general: str) -> str:
    """Canonical cache/store key for a lemma about (*concrete*, *general*).

    Built from the two definitions' structural serializations -- never
    their names -- plus the lemma kind and schema, so alpha-renaming
    either side (or both) keys identically.  Memoized per environment
    in ``env.pair_keys``, which :meth:`PredicateEnv.add` clears: a
    lemma-cache hit then costs one dict lookup instead of two cluster
    serializations.
    """
    memo = env.pair_keys
    names = (kind, concrete, general)
    key = memo.get(names)
    if key is None:
        key = memo[names] = repr(
            (
                "lemma",
                LEMMA_SCHEMA,
                kind,
                structural_serial(env, concrete),
                structural_serial(env, general),
            )
        )
    return key


# ----------------------------------------------------------------------
# Lemmas
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma:
    """One verified bridging lemma.

    ``param_map`` is only meaningful for ``bridge`` lemmas: position
    ``i`` of the *general* instance's arguments is obtained from the
    *concrete* instance as ``("param", j)`` (its ``j``-th argument) or
    ``("null",)``.
    """

    kind: str  # "empty" | "merge" | "bridge"
    concrete_pred: str
    general_pred: str
    key: str
    param_map: tuple = ()

    def to_payload(self) -> dict:
        return {
            "schema": LEMMA_SCHEMA,
            "kind": self.kind,
            "concrete": self.concrete_pred,
            "general": self.general_pred,
            "param_map": [list(entry) for entry in self.param_map],
        }


def _report(name: str, amount: int = 1) -> None:
    metrics = obs.METRICS
    if metrics.enabled:
        metrics.inc(name, amount)


# ----------------------------------------------------------------------
# Verification (self-derivation discipline)
# ----------------------------------------------------------------------

def _scratch_env(env: PredicateEnv, names: "tuple[str, ...]") -> PredicateEnv:
    """A scratch environment holding the definition clusters of *names*."""
    # Imported lazily: fold lives above logic in the layer order.
    from repro.analysis.fold import _reachable_preds

    scratch = PredicateEnv()
    for name in names:
        for reachable in sorted(_reachable_preds(env, name)):
            if reachable in env and reachable not in scratch:
                scratch.add(env[reachable])
    return scratch


def _well_formed(env: PredicateEnv, name: str) -> bool:
    """Store-style self-derivation: unfolding *name* at fresh arguments
    and folding back in a scratch environment must yield exactly one
    complete instance at the unfold root.  A definition that cannot
    re-derive itself supports no lemma."""
    from repro.analysis.fold import fold_state
    from repro.logic.state import AbstractState, AnalysisStuck

    if name not in env:
        return False
    definition = env[name]
    scratch = _scratch_env(env, (name,))
    try:
        args = tuple(
            fresh_var("r" if i == 0 else "a") for i in range(definition.arity)
        )
        points_to, instances, _bound = definition.unfold_body(args)
        state = AbstractState()
        for atom in points_to:
            state.spatial.add(atom)
        for instance in instances:
            state.spatial.add(instance)
        fold_state(state, scratch, keep_registers=True)
    except (ValueError, AnalysisStuck):
        return False
    atoms = list(state.spatial)
    return (
        len(atoms) == 1
        and isinstance(atoms[0], PredInstance)
        and atoms[0].pred == definition.name
        and atoms[0].args[0] == args[0]
        and not atoms[0].truncs
    )


def _verify_empty(env: PredicateEnv, pred: str) -> bool:
    """``emp |= P(x; x)``: sound for a unary, well-formed ``P`` by the
    wand reading of truncation points (module docstring)."""
    return pred in env and env[pred].arity == 1 and _well_formed(env, pred)


def _verify_merge(env: PredicateEnv, piece: str, host: str) -> bool:
    """``piece(t, ..) * host(v..; t, u..) |= host(v..; u..)``.

    Three gates, mirroring fold's bottom-up absorption: *piece* must be
    reachable from *host*'s recursive calls (the hole a truncation
    point leaves is typed by those calls), *piece* must entail the
    existential closure of *host*'s cut sub-structure, and the rewrite
    must **materialize** -- folding ``host(r; t) * piece(t)`` in a
    scratch state must actually produce the complete ``host(r)``."""
    from repro.analysis.fold import _reachable_preds, fold_state
    from repro.logic.state import AbstractState, AnalysisStuck

    if piece not in env or host not in env:
        return False
    if piece not in _reachable_preds(env, host):
        return False
    if not implies_existential(env, piece, host):
        return False
    if not (_well_formed(env, piece) and _well_formed(env, host)):
        return False
    scratch = _scratch_env(env, (piece, host))
    root = fresh_var("r")
    cut = fresh_var("t")
    host_args = (root,) + tuple(
        fresh_var("a") for _ in range(env[host].arity - 1)
    )
    piece_args = (cut,) + tuple(
        fresh_var("a") for _ in range(env[piece].arity - 1)
    )
    state = AbstractState()
    state.spatial.add(PredInstance(host, host_args, truncs=(cut,)))
    state.spatial.add(PredInstance(piece, piece_args))
    try:
        fold_state(state, scratch, keep_registers=True)
    except (ValueError, AnalysisStuck):
        return False
    atoms = list(state.spatial)
    return (
        len(atoms) == 1
        and isinstance(atoms[0], PredInstance)
        and atoms[0].pred == host
        and atoms[0].args[0] == root
        and not atoms[0].truncs
    )


# ----------------------------------------------------------------------
# Bridge proposal (anti-unification) and verification
# ----------------------------------------------------------------------

def _unfold_term(env: PredicateEnv, pred: str):
    """One-step unfolding of *pred* as a synthesis term: a ``StarTerm``
    whose field targets encode the definition's argument expressions
    (parameters as ``VarTerm``, recursive calls as ``PredTerm``)."""
    from repro.synthesis.terms import (
        HOLE,
        NULL_TERM,
        PredTerm,
        StarTerm,
        VarTerm,
    )

    definition = env[pred]

    def arg_term(arg):
        if isinstance(arg, NullArg):
            return NULL_TERM
        if isinstance(arg, ParamArg):
            return VarTerm(arg.index)
        if isinstance(arg, RecTarget):
            call = definition.rec_calls[arg.index]
            return PredTerm(
                call.pred,
                tuple(arg_term(a) for a in call.args),
                loc=None,
            )
        return HOLE

    specs = sorted(definition.fields, key=lambda s: s.field)
    return StarTerm(
        tuple(s.field for s in specs),
        tuple(arg_term(s.target) for s in specs),
        loc=None,
    )


def _propose_bridge_map(
    env: PredicateEnv, concrete: str, general: str
) -> "tuple | None":
    """Anti-unify the two one-step unfoldings; read the parameter map
    off the anti-unifier's variable table.

    Where the generalization introduced a variable over the pair
    ``(general side, concrete side)``, a ``VarTerm(i)`` against a
    ``VarTerm(j)`` proposes ``general param i := concrete param j`` and
    a ``VarTerm(i)`` against ``NullTerm`` proposes ``:= null``.  Any
    unmapped general parameter (beyond the shared root) defeats the
    proposal."""
    from repro.synthesis.antiunify import anti_unify
    from repro.synthesis.terms import NullTerm, VarTerm

    general_term = _unfold_term(env, general)
    concrete_term = _unfold_term(env, concrete)
    if general_term.fields != concrete_term.fields:
        return None
    au = anti_unify([general_term, concrete_term])
    if au is None:
        return None
    mapping: dict[int, tuple] = {0: ("param", 0)}
    for values in au.var_values.values():
        general_side, concrete_side = values[0], values[1]
        if not isinstance(general_side, VarTerm):
            continue
        if isinstance(concrete_side, VarTerm):
            proposal = ("param", concrete_side.index)
        elif isinstance(concrete_side, NullTerm):
            proposal = ("null",)
        else:
            return None  # parameter against structure: no finite map
        existing = mapping.get(general_side.index)
        if existing is not None and existing != proposal:
            return None
        mapping[general_side.index] = proposal
    arity = env[general].arity
    if set(mapping) != set(range(arity)):
        return None
    return tuple(mapping[i] for i in range(arity))


def _verify_bridge(
    env: PredicateEnv, concrete: str, general: str, param_map: tuple
) -> bool:
    """Coinductive check that ``concrete(b..)`` entails
    ``general(param_map(b..))`` -- the argument-sensitive analogue of
    :func:`repro.logic.implication.pred_implies`."""
    if concrete not in env or general not in env:
        return False
    if not (_well_formed(env, concrete) and _well_formed(env, general)):
        return False
    return _bridge_implies(env, concrete, general, param_map, frozenset())


def _bridge_implies(
    env: PredicateEnv,
    concrete: str,
    general: str,
    param_map: tuple,
    assumed: frozenset,
) -> bool:
    key = (concrete, general, param_map)
    if key in assumed:
        return True  # coinductive hypothesis
    assumed = assumed | {key}
    c, g = env[concrete], env[general]
    if len(param_map) != g.arity or not param_map or param_map[0] != ("param", 0):
        return False
    c_fields = {spec.field: spec.target for spec in c.fields}
    g_fields = {spec.field: spec.target for spec in g.fields}
    if set(c_fields) != set(g_fields):
        return False
    for field_name, g_target in g_fields.items():
        c_target = c_fields[field_name]
        if isinstance(g_target, AnyArg):
            continue
        if isinstance(g_target, NullArg):
            if not isinstance(c_target, NullArg):
                return False
            continue
        if isinstance(g_target, ParamArg):
            expected = param_map[g_target.index]
            if expected == ("null",):
                if not isinstance(c_target, NullArg):
                    return False
            elif not (
                isinstance(c_target, ParamArg)
                and expected == ("param", c_target.index)
            ):
                return False
            continue
        # g_target is a RecTarget: null satisfies any base case;
        # otherwise align the recursive calls and recurse with the
        # argument map induced on the callees.
        if isinstance(c_target, NullArg):
            continue
        if not isinstance(c_target, RecTarget):
            return False
        g_call = g.rec_calls[g_target.index]
        c_call = c.rec_calls[c_target.index]
        callee_map = _induced_callee_map(
            g_call, c_call, param_map, env[g_call.pred].arity
            if g_call.pred in env else None,
        )
        if callee_map is None:
            return False
        if not _bridge_implies(
            env, c_call.pred, g_call.pred, callee_map, assumed
        ):
            return False
    return True


def _induced_callee_map(g_call, c_call, param_map, callee_arity):
    """The parameter map the outer *param_map* induces on an aligned
    pair of recursive calls, or None when the arguments cannot be made
    to correspond.

    Position 0 (both callees' roots) is the shared fresh field target.
    The fragment is index-aligned: the general callee's position ``p``
    is fed from the concrete callee's position ``p``, which is accepted
    only when the two call-argument expressions denote the same value
    under the outer map (the concrete call may pass *extra* trailing
    arguments -- the general side never looks at them)."""
    if callee_arity is None or len(g_call.args) != callee_arity - 1:
        return None
    induced: list = [("param", 0)]
    for position in range(1, callee_arity):
        g_arg = g_call.args[position - 1]
        c_arg = (
            c_call.args[position - 1]
            if position - 1 < len(c_call.args)
            else None
        )
        if isinstance(g_arg, NullArg):
            if not isinstance(c_arg, NullArg):
                return None
            induced.append(("null",))
            continue
        if isinstance(g_arg, ParamArg):
            expected = param_map[g_arg.index]
            if expected == ("null",):
                if not isinstance(c_arg, NullArg):
                    return None
                induced.append(("null",))
                continue
            if (
                isinstance(c_arg, ParamArg)
                and expected == ("param", c_arg.index)
            ):
                induced.append(("param", position))
                continue
            return None
        # AnyArg / RecTarget call arguments: outside this fragment (an
        # AnyArg existential cannot be tied consistently across uses).
        return None
    return tuple(induced)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class LemmaEngine:
    """Budgeted synthesize-verify-cache pipeline consulted by the
    entailment matcher.  One instance per analysis run."""

    enabled = True

    def __init__(self, cache=None, store=None, max_attempts: int = MAX_ATTEMPTS):
        if cache is None:
            from repro.perf.cache import LemmaCache

            cache = LemmaCache()
        self.cache = cache
        self.store = store
        self.max_attempts = max_attempts
        self.attempts = 0
        self.verified = 0
        self.refuted = 0
        self._busy = 0  # re-entrancy guard around verification

    def token(self) -> tuple:
        """Entailment-cache key component: verdicts reached with lemmas
        must never collide with verdicts reached without."""
        return ("lemmas", LEMMA_SCHEMA)

    # -- public lookups -------------------------------------------------
    def empty_lemma(self, env, pred: str) -> "Lemma | None":
        """Verified ``emp |= pred(x; x)`` lemma, or None."""
        if env is None or self._busy:
            return None
        return self._lookup(
            env, "empty", pred, pred,
            lambda: _verify_empty(env, pred) and Lemma(
                "empty", pred, pred, pair_key(env, "empty", pred, pred)
            ) or None,
        )

    def merge_lemma(self, env, piece: str, host: str) -> "Lemma | None":
        """Verified merge of a *piece* instance into a *host* hole."""
        if env is None or self._busy:
            return None
        return self._lookup(
            env, "merge", piece, host,
            lambda: _verify_merge(env, piece, host) and Lemma(
                "merge", piece, host, pair_key(env, "merge", piece, host)
            ) or None,
        )

    def bridge_lemma(self, env, concrete: str, general: str) -> "Lemma | None":
        """Verified cross-predicate ``concrete(b..) |= general(s(b..))``."""
        if env is None or self._busy:
            return None

        def synthesize():
            param_map = _propose_bridge_map(env, concrete, general)
            if param_map is None:
                return None
            if not _verify_bridge(env, concrete, general, param_map):
                return None
            return Lemma(
                "bridge", concrete, general,
                pair_key(env, "bridge", concrete, general), param_map,
            )

        return self._lookup(env, "bridge", concrete, general, synthesize)

    # -- pipeline -------------------------------------------------------
    def _lookup(self, env, kind, concrete, general, synthesize):
        key = pair_key(env, kind, concrete, general)
        found = self.cache.lookup(key)
        if found is not None:
            _report("entailment.lemma.cache.hits")
            return found[0]
        _report("entailment.lemma.cache.misses")
        lemma = self._consult_store(env, kind, key, concrete, general)
        if lemma is None:
            if self.attempts >= self.max_attempts:
                return None  # budget exhausted; deliberately uncached
            self.attempts += 1
            _report("entailment.lemma.attempts")
            self._busy += 1
            try:
                lemma = synthesize() or None
            finally:
                self._busy -= 1
            tracer = obs.TRACER
            if tracer.enabled:
                tracer.event(
                    "entailment.lemma.synthesize",
                    kind=kind,
                    concrete=concrete,
                    general=general,
                    verified=lemma is not None,
                )
        if lemma is not None:
            self.verified += 1
            _report("entailment.lemma.verified")
        else:
            self.refuted += 1
            _report("entailment.lemma.refuted")
        self.cache.store(key, lemma)
        if lemma is not None:
            self._record_store(key, lemma)
        return lemma

    # -- durable store --------------------------------------------------
    def _consult_store(self, env, kind, key, concrete, general):
        """Durable-store lookup; every hit is re-verified from scratch
        (validation-on-read) before it is trusted."""
        if self.store is None:
            return None
        payload = self.store.consult_lemma(key)
        if payload is None:
            return None
        if (
            payload.get("schema") != LEMMA_SCHEMA
            or payload.get("kind") != kind
        ):
            self.store.reject_lemma(key, "schema/kind mismatch")
            return None
        param_map = tuple(
            tuple(entry) for entry in payload.get("param_map", [])
        )
        self._busy += 1
        try:
            if kind == "empty":
                ok = _verify_empty(env, general)
            elif kind == "merge":
                ok = _verify_merge(env, concrete, general)
            elif kind == "bridge":
                ok = _verify_bridge(env, concrete, general, param_map)
            else:
                ok = False
        finally:
            self._busy -= 1
        if not ok:
            self.store.reject_lemma(key, "failed re-verification")
            return None
        return Lemma(kind, concrete, general, key, param_map)

    def _record_store(self, key, lemma: Lemma) -> None:
        if self.store is not None:
            self.store.record_lemma(key, lemma.to_payload())

    def stats(self) -> dict:
        return {
            "attempts": self.attempts,
            "verified": self.verified,
            "refuted": self.refuted,
            **{f"cache_{k}": v for k, v in self.cache.stats().items()},
        }


class NullLemmaEngine:
    """Disabled engine: the hot-path guard is one attribute load."""

    enabled = False

    def token(self) -> None:
        return None

    def empty_lemma(self, env, pred) -> None:
        return None

    def merge_lemma(self, env, piece, host) -> None:
        return None

    def bridge_lemma(self, env, concrete, general) -> None:
        return None

    def stats(self) -> dict:
        return {}


NULL_ENGINE = NullLemmaEngine()

#: The active engine, swapped per analysis run by :func:`activate_lemmas`.
ACTIVE: "LemmaEngine | NullLemmaEngine" = NULL_ENGINE


@contextmanager
def activate_lemmas(engine):
    """Install *engine* as the active lemma engine for the duration of
    the block (restored on exit, exception or not)."""
    global ACTIVE
    saved = ACTIVE
    ACTIVE = engine if engine is not None else NULL_ENGINE
    try:
        yield
    finally:
        ACTIVE = saved
