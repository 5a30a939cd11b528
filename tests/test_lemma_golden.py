"""Golden regression suite for the lemma-synthesis entailment fallback.

Twenty-odd hand-written (general, concrete) state pairs whose verdicts
are pinned twice: once with the lemma engine active and once with the
purely structural matcher.  Together the two columns pin the exact
boundary of what lemma synthesis may admit:

* every lemma-assisted ``True`` must be ``False`` structurally (the
  fallback only fires on structural misses), and its witness must
  record ``lemmas_used > 0``;
* every structural ``True`` must stay ``True`` with lemmas on and use
  **zero** lemmas (the fallback never perturbs a structural pass --
  this is the per-query form of the ``--no-lemmas`` bit-for-bit
  guarantee);
* refuted pairs stay ``False`` in both columns -- a refuted synthesis
  candidate degrades to a structural miss, never to a wrong verdict.

The suite also pins the synthesized :class:`~repro.logic.lemmas.Lemma`
shapes themselves (kind and parameter map) for the verified bridge /
merge / empty-segment templates, and the strict-mode on/off outcome
differential for the three benchsuite scenario classes that motivated
the fallback (mid-list re-fold, different-root reachability, shared
tail).
"""

import dataclasses

import pytest

from conftest import fp

from repro.analysis import ShapeAnalysis
from repro.benchsuite import lemmaprogs
from repro.crucible.oracle import Oracle
from repro.ir import Register
from repro.logic import (
    LIST_DEF,
    NULL_VAL,
    TREE_DEF,
    AbstractState,
    PointsTo,
    PredicateEnv,
    PredInstance,
    Var,
    subsumes,
)
from repro.logic import lemmas
from repro.logic.lemmas import LemmaEngine, activate_lemmas
from repro.logic.predicates import (
    FieldSpec,
    NullArg,
    ParamArg,
    PredicateDef,
    RecCallSpec,
    RecTarget,
)
from repro.store import SummaryStore

# A list segment with a ghost frontier parameter: lsegp(x, y) unfolds
# to x.next |-> b * lsegp(b, y).  Arity-2 definitions cannot re-derive
# themselves through fold, so every lemma touching one must be refused.
LSEGP = PredicateDef(
    "lsegp",
    arity=2,
    fields=(FieldSpec("next", RecTarget(0)),),
    rec_calls=(RecCallSpec("lsegp", (ParamArg(1),)),),
)

# A doubly-linked list: dll(x, p) = x.next |-> b * x.prev |-> p * dll(b, x).
DLL = PredicateDef(
    "dll",
    arity=2,
    fields=(FieldSpec("next", RecTarget(0)), FieldSpec("prev", ParamArg(1))),
    rec_calls=(RecCallSpec("dll", (ParamArg(0),)),),
)

# Non-recursive cell predicates: the smallest definitions whose bridge
# into list / tree is genuinely synthesized (anti-unification proposes
# the map, coinduction verifies it).
ONE = PredicateDef("one", arity=1, fields=(FieldSpec("next", NullArg()),))
LEAF = PredicateDef(
    "leaf",
    arity=1,
    fields=(FieldSpec("left", NullArg()), FieldSpec("right", NullArg())),
)

# A structural *wrapper* around list: same unfolding, but the recursive
# call names "list" rather than itself.  (A self-recursive twin would
# be deduplicated by PredicateEnv.add, so a wrapper is the only way to
# get two names for the same structure -- and wrappers fail lemma
# self-derivation because fold re-derives the canonical name.)
LIST_VIA = dataclasses.replace(LIST_DEF, name="list2")


def _env():
    env = PredicateEnv()
    for definition in (LIST_DEF, TREE_DEF, LSEGP, DLL, ONE, LEAF, LIST_VIA):
        env.add(definition)
    return env


def _state(rho=None, atoms=(), nes=()):
    state = AbstractState()
    for register, value in (rho or {}).items():
        state.rho[Register(register)] = value
    for atom in atoms:
        state.spatial.add(atom)
    for lhs, rhs in nes:
        state.pure.assume("ne", lhs, rhs)
    return state


#: name -> (builder returning (general, concrete[, kwargs]),
#:          verdict with lemmas, verdict without lemmas)
CASES = {}


def case(name, with_lemmas, without_lemmas):
    def register(builder):
        assert name not in CASES
        CASES[name] = (builder, with_lemmas, without_lemmas)
        return builder

    return register


# -- empty-segment lemmas (emp |= list(x; x)) --------------------------


@case("empty-seg-dropped-on-concrete-side", True, False)
def _empty_drop():
    # The concrete side carries a leftover empty segment list(u; u);
    # the lemma discharges it so the remaining atoms match exactly.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),)),
                PredInstance("list", (Var("u"),), (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("empty-seg-needs-root-equal-trunc", False, False)
def _empty_drop_mismatch():
    # list(u; w) with u != w is not an empty segment; nothing to drop.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),)),
                PredInstance("list", (Var("u"),), (Var("w"),)),
            ],
        ),
        {"env": _env()},
    )


@case("empty-seg-arity-2-refuted", False, False)
def _empty_drop_arity2():
    # emp |= lsegp(u, p; u) is NOT provable (the ghost frontier p has
    # no witness); the arity gate refutes the candidate.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),)),
                PredInstance("lsegp", (Var("u"), Var("p")), (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("empty-seg-collapses-general-side", True, False)
def _empty_collapse():
    # General list(a; t) against an empty concrete heap: the lemma
    # instantiates t := image(a), reading the segment as empty.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),), (Var("t"),))]),
        _state({"x": Var("b")}),
        {"env": _env()},
    )


@case("empty-seg-collapse-respects-bindings", False, False)
def _empty_collapse_conflict():
    # The truncation variable is pinned by rho to a different node, so
    # the collapse t := image(a) contradicts the existing binding.
    return (
        _state(
            {"x": Var("a"), "y": Var("t")},
            [PredInstance("list", (Var("a"),), (Var("t"),))],
        ),
        _state({"x": Var("b"), "y": Var("w")}),
        {"env": _env()},
    )


@case("empty-seg-collapse-with-aliased-registers", True, False)
def _empty_collapse_alias():
    # Same shape, but the concrete registers alias (x = y = b), so the
    # collapse is consistent with rho.
    return (
        _state(
            {"x": Var("a"), "y": Var("t")},
            [PredInstance("list", (Var("a"),), (Var("t"),))],
        ),
        _state({"x": Var("b"), "y": Var("b")}),
        {"env": _env()},
    )


@case("empty-seg-drops-two-segments", True, False)
def _empty_drop_two():
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),)),
                PredInstance("list", (Var("u"),), (Var("u"),)),
                PredInstance("list", (Var("v"),), (Var("v"),)),
            ],
        ),
        {"env": _env()},
    )


# -- merge lemmas (list(x; t) * list(t) |= list(x)) --------------------


@case("merge-segment-with-tail", True, False)
def _merge():
    # The mid-list re-fold shape: a segment up to the cursor plus the
    # remainder merge back into one complete list.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list", (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-requires-adjacency", False, False)
def _merge_not_adjacent():
    # The candidate piece is rooted at w, not at the hole u: no merge.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list", (Var("w"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-chains-two-hops", True, False)
def _merge_two_hops():
    # list(b; u) * list(u; v) * list(v): two merges chain through the
    # intermediate frontier.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list", (Var("u"),), (Var("v"),)),
                PredInstance("list", (Var("v"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-truncated-piece-same-pred", True, False)
def _merge_trunc_piece():
    # A truncated piece merges into a same-predicate host, composing
    # the two frontiers: list(b; u) * list(u; v) |= list(b; v).
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),), (Var("t"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list", (Var("u"),), (Var("v"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-truncated-piece-cross-pred-refused", False, False)
def _merge_trunc_cross():
    # Truncated pieces only merge into hosts of the *same* predicate;
    # a cross-predicate truncated piece is refused outright.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),), (Var("w"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list2", (Var("u"),), (Var("v"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-wrapper-pred-refused", False, False)
def _merge_wrapper():
    # list2 is a wrapper whose fold re-derives canonical "list", so it
    # fails lemma self-derivation: the cross-pred merge is refuted.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list2", (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-cell-piece-refused", False, False)
def _merge_cell():
    # one(u) is not reachable from list's recursive calls, so it can
    # never fill a list hole even though one(u) |= list(u) holds.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("one", (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-needs-environment", False, False)
def _merge_no_env():
    # Without a predicate environment there is nothing to verify
    # against: the engine must decline, leaving the structural miss.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("list", (Var("b"),), (Var("u"),)),
                PredInstance("list", (Var("u"),)),
            ],
        ),
    )


@case("merge-tree-graft", True, False)
def _merge_tree():
    # The tree-to-segment shape: a tree with one pending subtree plus
    # that subtree re-fold into a complete tree.
    return (
        _state({"x": Var("a")}, [PredInstance("tree", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("tree", (Var("b"),), (Var("u"),)),
                PredInstance("tree", (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-tree-hole-rejects-list", False, False)
def _merge_tree_list():
    # A list cannot fill a tree hole (field sets differ): refuted.
    return (
        _state({"x": Var("a")}, [PredInstance("tree", (Var("a"),))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("tree", (Var("b"),), (Var("u"),)),
                PredInstance("list", (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("merge-under-pointsto-frame", True, False)
def _merge_frame():
    # The merge fires inside a larger match: the points-to frame pairs
    # structurally, the segment + tail merge via the lemma.
    return (
        _state(
            {"x": Var("a")},
            [
                PointsTo(Var("a"), "next", fp("a", "next")),
                PredInstance("list", (fp("a", "next"),)),
            ],
        ),
        _state(
            {"x": Var("b")},
            [
                PointsTo(Var("b"), "next", fp("b", "next")),
                PredInstance("list", (fp("b", "next"),), (Var("u"),)),
                PredInstance("list", (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


# -- bridge lemmas (cross-predicate, anti-unified) ---------------------


@case("bridge-ghost-param-refused", False, False)
def _bridge_ghost():
    # lsegp(b, p) |= list(b) is semantically true, but lsegp cannot
    # re-derive itself through fold (arity 2), so the bridge is refused
    # -- a conservative miss, pinned here so any widening is deliberate.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state({"x": Var("b")}, [PredInstance("lsegp", (Var("b"), Var("p")))]),
        {"env": _env()},
    )


@case("bridge-reverse-direction-refused", False, False)
def _bridge_reverse():
    # list(b) |= lsegp(b, q) would need a witness for the ghost q;
    # the proposal has no finite parameter map.
    return (
        _state({"x": Var("a")}, [PredInstance("lsegp", (Var("a"), Var("q")))]),
        _state({"x": Var("b")}, [PredInstance("list", (Var("b"),))]),
        {"env": _env()},
    )


@case("bridge-list-to-tree-refuted", False, False)
def _bridge_list_tree():
    return (
        _state({"x": Var("a")}, [PredInstance("tree", (Var("a"),))]),
        _state({"x": Var("b")}, [PredInstance("list", (Var("b"),))]),
        {"env": _env()},
    )


@case("bridge-rejects-truncated-instances", False, False)
def _bridge_trunc():
    # Bridges only relate complete instances; either side carrying a
    # truncation point disables the template.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),), (Var("t"),))]),
        _state(
            {"x": Var("b")},
            [PredInstance("lsegp", (Var("b"), Var("p")), (Var("u"),))],
        ),
        {"env": _env()},
    )


@case("bridge-cell-into-list-is-structural", True, True)
def _bridge_cell():
    # one(b) |= list(b) already holds structurally (the implication
    # engine sees it), so the pass must use zero lemmas.
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state({"x": Var("b")}, [PredInstance("one", (Var("b"),))]),
        {"env": _env()},
    )


# -- dll reroot family --------------------------------------------------


@case("dll-alpha-variant-structural", True, True)
def _dll_alpha():
    return (
        _state({"x": Var("a")}, [PredInstance("dll", (Var("a"), Var("p")))]),
        _state({"x": Var("b")}, [PredInstance("dll", (Var("b"), Var("q")))]),
        {"env": _env()},
    )


@case("dll-empty-segment-refuted", False, False)
def _dll_empty():
    # emp |= dll(u, w; u) is unsound (the prev link w dangles); the
    # arity gate refuses it, leaving the structural miss.
    return (
        _state({"x": Var("a")}, [PredInstance("dll", (Var("a"), Var("p")))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("dll", (Var("b"), Var("q"))),
                PredInstance("dll", (Var("u"), Var("w")), (Var("u"),)),
            ],
        ),
        {"env": _env()},
    )


@case("dll-reroot-refused", False, False)
def _dll_reroot():
    # Rerooting dll(q, b; b) * dll(b, q) |= dll(a, p) needs an arity-2
    # merge; all arity-2 lemmas are conservatively refused.
    return (
        _state({"x": Var("a")}, [PredInstance("dll", (Var("a"), Var("p")))]),
        _state(
            {"x": Var("b")},
            [
                PredInstance("dll", (Var("q"), Var("b")), (Var("b"),)),
                PredInstance("dll", (Var("b"), Var("q"))),
            ],
        ),
        {"env": _env()},
    )


# -- controls -----------------------------------------------------------


@case("structural-pass-uses-no-lemmas", True, True)
def _structural_control():
    return (
        _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))]),
        _state({"x": Var("b")}, [PredInstance("list", (Var("b"),))]),
        {"env": _env()},
    )


@case("field-mismatch-is-unfixable", False, False)
def _field_mismatch():
    # No lemma template speaks about raw points-to facts; a field
    # mismatch stays a miss.
    return (
        _state({"x": Var("a")}, [PointsTo(Var("a"), "next", NULL_VAL)]),
        _state({"x": Var("b")}, [PointsTo(Var("b"), "prev", NULL_VAL)]),
        {"env": _env()},
    )


def _query(builder):
    built = builder()
    general, concrete = built[0], built[1]
    kwargs = built[2] if len(built) > 2 else {}
    return general, concrete, kwargs


@pytest.mark.parametrize("name", sorted(CASES))
def test_lemma_golden(name):
    builder, with_lemmas, without_lemmas = CASES[name]

    general, concrete, kwargs = _query(builder)
    structural = subsumes(general, concrete, **kwargs)
    assert (structural is not None) == without_lemmas, (
        f"{name}: structural verdict drifted"
    )

    engine = LemmaEngine()
    general, concrete, kwargs = _query(builder)
    with activate_lemmas(engine):
        witness = subsumes(general, concrete, **kwargs)
    assert (witness is not None) == with_lemmas, (
        f"{name}: lemma-assisted verdict drifted"
    )

    if with_lemmas and not without_lemmas:
        # A lemma-assisted pass must say so in its witness.
        assert witness.lemmas_used > 0, f"{name}: pass not lemma-assisted?"
    if with_lemmas and without_lemmas:
        # A structural pass must not be perturbed by the fallback.
        assert witness.lemmas_used == 0, (
            f"{name}: structural pass consumed lemmas"
        )


# -- pinned lemma shapes ------------------------------------------------


def test_pinned_lemma_shapes():
    """The synthesized Lemma objects themselves, pinned per template."""
    env = _env()
    engine = LemmaEngine()

    empty = engine.empty_lemma(env, "list")
    assert empty is not None
    assert (empty.kind, empty.concrete_pred, empty.general_pred) == (
        "empty", "list", "list",
    )
    assert empty.param_map == ()

    merge = engine.merge_lemma(env, "list", "list")
    assert merge is not None
    assert (merge.kind, merge.concrete_pred, merge.general_pred) == (
        "merge", "list", "list",
    )

    bridge = engine.bridge_lemma(env, "one", "list")
    assert bridge is not None
    assert (bridge.kind, bridge.concrete_pred, bridge.general_pred) == (
        "bridge", "one", "list",
    )
    assert bridge.param_map == (("param", 0),)

    leaf_bridge = engine.bridge_lemma(env, "leaf", "tree")
    assert leaf_bridge is not None
    assert leaf_bridge.param_map == (("param", 0),)

    # Refutations, pinned just as hard as the verifications.
    assert engine.empty_lemma(env, "lsegp") is None
    assert engine.empty_lemma(env, "dll") is None
    assert engine.bridge_lemma(env, "lsegp", "list") is None
    assert engine.bridge_lemma(env, "one", "tree") is None
    assert engine.bridge_lemma(env, "list", "one") is None
    assert engine.merge_lemma(env, "one", "list") is None
    assert engine.merge_lemma(env, "list2", "list") is None


def test_refuted_pair_hits_negative_cache():
    """A refuted candidate is cached: re-asking the same pair costs no
    second synthesis attempt and stays refuted."""
    env = _env()
    engine = LemmaEngine()

    assert engine.bridge_lemma(env, "lsegp", "list") is None
    attempts_after_first = engine.attempts
    assert attempts_after_first >= 1
    stats = engine.stats()
    assert stats["refuted"] >= 1

    assert engine.bridge_lemma(env, "lsegp", "list") is None
    assert engine.attempts == attempts_after_first
    assert engine.stats()["cache_hits"] >= stats["cache_hits"] + 1


# -- scenario differentials --------------------------------------------


SCENARIOS = {
    "refold": lemmaprogs.refold_program,
    "diffroot": lemmaprogs.diffroot_program,
    "sharedtail": lemmaprogs.sharedtail_program,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_requires_lemmas(name):
    """Each scenario class fails strict structural analysis and passes
    with lemmas, and the pass is actually lemma-assisted."""
    factory = SCENARIOS[name]

    structural = ShapeAnalysis(
        factory(), name=f"{name}-off", mode="strict",
        deadline_seconds=30.0, enable_lemmas=False,
    ).run()
    assert structural.outcome != "pass"

    assisted = ShapeAnalysis(
        factory(), name=f"{name}-on", mode="strict",
        deadline_seconds=30.0,
    ).run()
    assert assisted.outcome == "pass"
    assert assisted.stats.get("entailment.lemma.applied", 0) > 0

    # The lemma-assisted pass is certified against the concrete
    # reference interpreter (oracle claims A/B).
    report = Oracle(deadline_seconds=30.0).check(factory(), name)
    assert report.analysis_outcome == "pass" and report.lemmas_applied > 0
    assert report.ok, report.violations


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lemma_assisted_summaries_never_answer_a_lemma_free_run(
    name, tmp_path
):
    """A store populated with lemmas on, then consulted with lemmas off,
    must leave the structural verdict alone: the lemma setting is part
    of the engine's config token, so the lemma-assisted summaries are
    invisible to the lemma-free run."""
    factory = SCENARIOS[name]
    populated = ShapeAnalysis(
        factory(), name=f"{name}-on", mode="strict",
        deadline_seconds=30.0, store=SummaryStore(tmp_path),
    ).run()
    assert populated.outcome == "pass"

    consulted = ShapeAnalysis(
        factory(), name=f"{name}-off", mode="strict",
        deadline_seconds=30.0, enable_lemmas=False,
        store=SummaryStore(tmp_path),
    ).run()
    assert consulted.outcome == "failed"
