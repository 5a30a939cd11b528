"""Loop-invariant inference via recursion synthesis (paper, §3).

``normalize_state`` is the paper's *normalize* rule: it runs recursion
synthesis over the heap of a state that has been symbolically executed
through a bounded number of loop iterations, folds the trace into the
synthesized truncated predicate instances, and then applies the generic
``foldT`` to absorb whatever remains.  The result is the *hypothesized*
invariant; soundness comes from the engine's verification protocol
(execute the loop body once more from the invariant and check that
every state arriving back at the header folds to something subsumed by
it -- the "invariant derives itself" check).

Structure held by a live register stays addressable: an interior
location a register still points to becomes a truncation point of the
synthesized instance and keeps its explicit cells (exactly the
``A(root..; cursor) * A(cursor..)`` shape of the paper's examples).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.ir.values import Register
from repro.logic.assertions import PointsTo, PredInstance, Raw
from repro.logic.heapnames import HeapName
from repro.logic.predicates import PredicateEnv
from repro.logic.state import AbstractState
from repro.logic.symvals import NullVal, OffsetVal, Opaque
from repro.synthesis.synthesize import SynthesizedInstance, synthesize_forest
from repro.synthesis.terms import PredTerm, StarTerm, Term
from repro.synthesis.translate import translate_heap
from repro.analysis.fold import fold_state, normalize_nulls

__all__ = ["normalize_state", "guarded_locations"]


def guarded_locations(
    state: AbstractState, live: set[Register] | None
) -> frozenset[HeapName]:
    """Heap locations a live register can still reach directly."""
    guarded: set[HeapName] = set()
    for register, value in state.rho.items():
        if live is not None and register not in live:
            continue
        resolved = state.resolve(value)
        if isinstance(resolved, OffsetVal):
            resolved = resolved.base
        if not isinstance(resolved, (NullVal, Opaque)):
            guarded.add(resolved)
    return frozenset(guarded)


def normalize_state(
    state: AbstractState,
    env: PredicateEnv,
    live: set[Register] | None = None,
    hint: str = "P",
    protect: frozenset[HeapName] = frozenset(),
    deadline_poll: Callable[[], None] | None = None,
) -> AbstractState:
    """Synthesize + fold *state* in place (the normalize rule).

    ``live`` restricts the register file (dead registers are dropped so
    their targets can fold); ``protect`` lists cutpoints that must stay
    explicit; ``deadline_poll`` is polled inside the segmentation search.
    """
    normalize_nulls(state)
    if live is not None:
        state.rho = {r: v for r, v in state.rho.items() if r in live}
    guarded = guarded_locations(state, None) | protect
    # Fold with the predicates already in T first: a structure an
    # earlier invariant explains should not spawn a path-specialized
    # sibling definition.  Only what stays unfolded feeds synthesis.
    fold_state(state, env, protect=protect, keep_registers=True)
    for term in translate_heap(state.spatial):
        for synthesized in synthesize_forest(term, env, hint, deadline_poll):
            _install(state, term, synthesized, guarded)
    fold_state(state, env, protect=protect, keep_registers=True)
    return state


def _install(
    state: AbstractState,
    term: Term,
    synthesized: SynthesizedInstance,
    guarded: frozenset[HeapName],
) -> None:
    """Fold the portion of the trace *synthesized* covers.

    Locations a live register reaches stay out: an interior guarded
    location truncates the instance and keeps its cells (its own
    sub-structures stay explicit too, to be folded separately by
    ``fold_state``); a guarded location that roots an already-folded
    sub-structure keeps its instance and truncates the new one.
    """
    sub = _subterm_of(term, synthesized)
    if sub is None:
        return
    root = synthesized.args[0]
    kept: set[HeapName] = set()
    extra_truncs: list[HeapName] = []

    def walk(node: Term, under_cut: bool) -> None:
        if isinstance(node, StarTerm):
            if node.loc is not None:
                cut_here = (
                    not under_cut and node.loc in guarded and node.loc != root
                )
                if cut_here:
                    extra_truncs.append(node.loc)
                    under_cut = True
                if under_cut:
                    kept.add(node.loc)
            for target in node.targets:
                walk(target, under_cut)
        elif isinstance(node, PredTerm) and node.loc is not None:
            if not under_cut and node.loc in guarded and node.loc != root:
                extra_truncs.append(node.loc)
                kept.add(node.loc)
            elif under_cut:
                kept.add(node.loc)

    walk(sub, False)

    for loc in synthesized.covered_sources - kept:
        for atom in state.spatial.points_to_from(loc):
            state.spatial.remove(atom)
        raw = state.spatial.raw_at(loc)
        if raw is not None:
            state.spatial.remove(raw)
    for loc in synthesized.covered_instance_roots - kept:
        instance = state.spatial.instance_rooted_at(loc)
        if instance is not None:
            state.spatial.remove(instance)
    truncs = tuple(
        t for t in synthesized.truncs if t not in kept
    ) + tuple(extra_truncs)
    state.spatial.add(
        PredInstance(synthesized.definition.name, synthesized.args, truncs)
    )


def _subterm_of(term: Term, synthesized: SynthesizedInstance) -> Term | None:
    """Locate the subtree the synthesis result describes (it may be a
    proper subtree when the recursion does not start at the root)."""
    root = synthesized.args[0]
    if isinstance(term, StarTerm):
        if term.loc == root:
            return term
        for target in term.targets:
            found = _subterm_of(target, synthesized)
            if found is not None:
                return found
    return None
