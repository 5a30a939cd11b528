"""Invariants of the lemma-synthesis machinery.

Four properties, each load-bearing for soundness or determinism:

1. **Alpha-invariance** -- the canonical pair key is built from
   structural serializations, never predicate names, so renaming a
   definition (or holding it in a different environment) keys the same
   lemma.  This is what lets the durable store share lemmas across
   runs that synthesized their predicates in different orders.  The
   key is memoized per environment, so the memo must be invalidated
   when ``add()`` grows the environment and never answer for another
   environment.
2. **Witness replay** -- an entailment-cache hit on a lemma-assisted
   query replays the stored witness exactly: same binding, same
   ``lemmas_used``.  A replayed verdict must be indistinguishable from
   a recomputed one.
3. **Validation-on-read** -- a lemma read back from the durable store
   is re-verified from scratch before it is trusted.  Deliberately
   corrupted entries (wrong schema, swapped kind, tampered parameter
   map, garbage bytes) are rejected with a diagnostic and the lemma is
   re-synthesized; the store is an accelerator, never an oracle.
4. **Fast-reject ordering** -- the signature pre-filter in ``subsumes``
   must not short-circuit pairs the lemma fallback could admit: with
   an active engine the predicate-count requirement is relaxed
   (merge/empty lemmas let the concrete side carry more instances),
   while the PointsTo/Raw/Region components stay exact.
"""

import json

import pytest

from conftest import unmemoized_pair_key

from repro.ir import Register
from repro.logic import (
    LIST_DEF,
    TREE_DEF,
    AbstractState,
    PointsTo,
    PredicateEnv,
    PredInstance,
    Var,
    subsumes,
)
from repro.logic.entailment import signatures_compatible, structural_signature
from repro.logic.lemmas import LemmaEngine, activate_lemmas, pair_key
from repro.logic.predicates import (
    FieldSpec,
    NullArg,
    PredicateDef,
    RecCallSpec,
    RecTarget,
)
from repro.perf import activate_cache
from repro.perf.cache import EntailmentCache
from repro.store import SummaryStore

ONE = PredicateDef("one", arity=1, fields=(FieldSpec("next", NullArg()),))


def _env(*extra):
    env = PredicateEnv()
    for definition in (LIST_DEF, TREE_DEF, ONE) + extra:
        env.add(definition)
    return env


def _state(rho=None, atoms=()):
    state = AbstractState()
    for register, value in (rho or {}).items():
        state.rho[Register(register)] = value
    for atom in atoms:
        state.spatial.add(atom)
    return state


def _merge_pair():
    """The canonical merge-lemma query: list(b; u) * list(u) |= list(a)."""
    general = _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))])
    concrete = _state(
        {"x": Var("b")},
        [
            PredInstance("list", (Var("b"),), (Var("u"),)),
            PredInstance("list", (Var("u"),)),
        ],
    )
    return general, concrete


# -- 1. alpha-invariance of the canonical pair key ---------------------


def test_pair_key_is_invariant_under_predicate_renaming():
    env = _env()
    renamed = PredicateEnv()
    renamed.add(
        PredicateDef(
            "zorp",
            arity=1,
            fields=(FieldSpec("next", RecTarget(0)),),
            rec_calls=(RecCallSpec("zorp"),),
        )
    )
    renamed.add(
        PredicateDef("cell", arity=1, fields=(FieldSpec("next", NullArg()),))
    )

    for kind in ("empty", "merge"):
        assert pair_key(env, kind, "list", "list") == pair_key(
            renamed, kind, "zorp", "zorp"
        )
    assert pair_key(env, "bridge", "one", "list") == pair_key(
        renamed, "bridge", "cell", "zorp"
    )


def test_pair_key_distinguishes_structure_and_kind():
    env = _env()
    # Different kinds over the same pair never collide.
    assert pair_key(env, "empty", "list", "list") != pair_key(
        env, "merge", "list", "list"
    )
    # Different structures never collide.
    assert pair_key(env, "empty", "list", "list") != pair_key(
        env, "empty", "tree", "tree"
    )
    # The pair is ordered: (concrete, general) is not (general, concrete).
    assert pair_key(env, "bridge", "one", "list") != pair_key(
        env, "bridge", "list", "one"
    )


def test_renamed_engine_verdicts_agree():
    """The same structural lemma verifies under either name -- the
    behavioral consequence of key invariance."""
    renamed = PredicateEnv()
    renamed.add(
        PredicateDef(
            "zorp",
            arity=1,
            fields=(FieldSpec("next", RecTarget(0)),),
            rec_calls=(RecCallSpec("zorp"),),
        )
    )
    engine = LemmaEngine()
    lemma = engine.merge_lemma(renamed, "zorp", "zorp")
    assert lemma is not None
    assert lemma.key == pair_key(_env(), "merge", "list", "list")


def _self_list(name):
    return PredicateDef(
        name,
        arity=1,
        fields=(FieldSpec("next", RecTarget(0)),),
        rec_calls=(RecCallSpec(name),),
    )


def _self_tree(name):
    return PredicateDef(
        name,
        arity=1,
        fields=(FieldSpec("left", RecTarget(0)), FieldSpec("right", RecTarget(1))),
        rec_calls=(RecCallSpec(name), RecCallSpec(name)),
    )


def test_pair_key_memo_is_invalidated_when_a_callee_is_defined():
    outer = PredicateDef(
        "outer",
        arity=1,
        fields=(FieldSpec("down", RecTarget(0)),),
        rec_calls=(RecCallSpec("inner"),),
    )
    inner = PredicateDef("inner", arity=1, fields=(FieldSpec("next", NullArg()),))
    env = PredicateEnv()
    env.add(outer)
    before = pair_key(env, "bridge", "outer", "outer")
    assert "'undef'" in before
    assert pair_key(env, "bridge", "outer", "outer") is before  # memoized

    env.add(inner)
    after = pair_key(env, "bridge", "outer", "outer")
    assert after != before
    assert "'undef'" not in after
    assert after == unmemoized_pair_key(env, "bridge", "outer", "outer")

    # The same definitions registered in the other order key the same.
    fresh = PredicateEnv()
    fresh.add(inner)
    fresh.add(outer)
    assert after == pair_key(fresh, "bridge", "outer", "outer")


def test_memoized_pair_keys_stay_alpha_invariant():
    env = _env()
    renamed = PredicateEnv()
    renamed.add(_self_list("zorp"))
    renamed.add(
        PredicateDef("cell", arity=1, fields=(FieldSpec("next", NullArg()),))
    )
    for _round in range(2):  # the second round is answered by the memos
        for kind in ("empty", "merge", "bridge"):
            assert pair_key(env, kind, "list", "list") == pair_key(
                renamed, kind, "zorp", "zorp"
            )
            assert pair_key(env, kind, "one", "list") == pair_key(
                renamed, kind, "cell", "zorp"
            )


def test_pair_key_memo_never_answers_for_another_environment():
    # The same names denote different structures in the two environments.
    as_list = PredicateEnv()
    as_list.add(_self_list("p"))
    as_tree = PredicateEnv()
    as_tree.add(_self_tree("p"))
    list_key = pair_key(as_list, "empty", "p", "p")
    tree_key = pair_key(as_tree, "empty", "p", "p")
    assert list_key != tree_key
    assert list_key == unmemoized_pair_key(as_list, "empty", "p", "p")
    assert tree_key == unmemoized_pair_key(as_tree, "empty", "p", "p")
    assert pair_key(as_list, "empty", "p", "p") == list_key


# -- 2. cache hits replay identical witnesses --------------------------


def test_cache_hit_replays_identical_lemma_witness():
    env = _env()
    cache = EntailmentCache()
    engine = LemmaEngine()

    with activate_cache(cache), activate_lemmas(engine):
        general, concrete = _merge_pair()
        first = subsumes(general, concrete, env=env)
        assert first is not None and first.lemmas_used > 0
        attempts_after_first = engine.attempts

        general, concrete = _merge_pair()
        second = subsumes(general, concrete, env=env)

    assert cache.hits == 1
    # The replay is exact: same binding, same lemma accounting, and no
    # new synthesis work was done to produce it.
    assert second is not None
    assert second.binding == first.binding
    assert second.lemmas_used == first.lemmas_used
    assert engine.attempts == attempts_after_first


def test_lemma_verdicts_never_replay_across_engine_states():
    """The lemma engine's token is part of the entailment cache key: a
    verdict reached with lemmas must miss for a lemma-free query."""
    env = _env()
    cache = EntailmentCache()

    with activate_cache(cache):
        with activate_lemmas(LemmaEngine()):
            general, concrete = _merge_pair()
            assert subsumes(general, concrete, env=env) is not None
        # Same canonical states, no engine: the signature pre-filter
        # rejects before the cache is even consulted, so the stored
        # lemma-assisted verdict can never leak into this query.
        general, concrete = _merge_pair()
        assert subsumes(general, concrete, env=env) is None

    assert cache.hits == 0
    assert cache.misses == 1


# -- 3. validation-on-read rejects corrupted store entries -------------


def _store_key(env, kind, concrete, general):
    return SummaryStore.lemma_lookup_key(pair_key(env, kind, concrete, general))


def _corruption_attempts(store):
    """Run one lookup through a fresh engine; return its attempt count."""
    env = _env()
    engine = LemmaEngine(store=store)
    lemma = engine.merge_lemma(env, "list", "list")
    assert lemma is not None, "corruption must never lose the lemma"
    return engine.attempts


@pytest.mark.parametrize(
    "corrupt",
    [
        b"not json at all {",
        json.dumps(["a", "list"]).encode("utf-8"),
        json.dumps(
            {"schema": 999, "kind": "merge", "concrete": "list",
             "general": "list", "param_map": []}
        ).encode("utf-8"),
        json.dumps(
            {"schema": 1, "kind": "bridge", "concrete": "list",
             "general": "list", "param_map": [["param", 5]]}
        ).encode("utf-8"),
    ],
    ids=["garbage-bytes", "non-object", "wrong-schema", "tampered-map"],
)
def test_corrupted_store_lemma_is_rejected_and_resynthesized(
    tmp_path, corrupt
):
    env = _env()
    store = SummaryStore(tmp_path)

    # Seed the store with the genuine verified lemma.
    seeder = LemmaEngine(store=store)
    assert seeder.merge_lemma(env, "list", "list") is not None
    assert seeder.attempts == 1

    # A clean warm read needs no synthesis at all.
    assert _corruption_attempts(SummaryStore(tmp_path)) == 0

    # Corrupt the entry in place, FaultPlan-style.
    key = _store_key(env, "merge", "list", "list")
    fresh = SummaryStore(tmp_path)
    assert fresh._disk.put(key, corrupt)

    # The corrupted entry is rejected and the lemma re-synthesized.
    verifying_store = SummaryStore(tmp_path)
    assert _corruption_attempts(verifying_store) == 1
    stats = verifying_store.stats()
    assert stats["invalid"] >= 1 or stats["io_errors"] >= 1


def test_reverification_failure_on_read_is_diagnosed(tmp_path):
    """A stored lemma whose payload no longer verifies (kind swapped to
    a template the pair cannot satisfy) is rejected with a diagnostic
    naming the rejection."""
    env = _env()
    store = SummaryStore(tmp_path)
    seeder = LemmaEngine(store=store)
    assert seeder.merge_lemma(env, "list", "list") is not None

    key = _store_key(env, "merge", "list", "list")
    tamperer = SummaryStore(tmp_path)
    payload = {"schema": 1, "kind": "empty", "concrete": "list",
               "general": "list", "param_map": []}
    assert tamperer._disk.put(
        key, json.dumps(payload).encode("utf-8")
    )

    reader_store = SummaryStore(tmp_path)
    engine = LemmaEngine(store=reader_store)
    assert engine.merge_lemma(env, "list", "list") is not None
    assert engine.attempts == 1
    assert any(
        "lemma entry rejected" in diagnostic.message
        for diagnostic in reader_store.take_diagnostics()
    )


# -- 4. signature fast-reject must not pre-empt the fallback -----------


def test_signature_relaxation_requires_active_engine():
    general, concrete = _merge_pair()
    sig_general = structural_signature(general)
    sig_concrete = structural_signature(concrete)

    # One general instance against two concrete ones: structurally a
    # fast reject, admissible once the merge lemma can fire.
    assert not signatures_compatible(sig_general, sig_concrete)
    with activate_lemmas(LemmaEngine()):
        assert signatures_compatible(sig_general, sig_concrete)

    # The other direction needs no relaxation.
    assert signatures_compatible(sig_concrete, sig_general)


def test_signature_pointsto_components_stay_exact():
    """No lemma changes PointsTo/Raw/Region atoms, so those components
    reject identically with or without an engine."""
    general = _state({"x": Var("a")}, [PointsTo(Var("a"), "next", Var("n"))])
    concrete = _state({"x": Var("b")}, [PointsTo(Var("b"), "prev", Var("m"))])
    sig_general = structural_signature(general)
    sig_concrete = structural_signature(concrete)

    assert not signatures_compatible(sig_general, sig_concrete)
    with activate_lemmas(LemmaEngine()):
        assert not signatures_compatible(sig_general, sig_concrete)


def test_lemma_fallback_survives_the_fast_reject_end_to_end():
    """Regression pin for the ordering bug class: the merge query whose
    signature is only admissible under the relaxation must actually
    reach the fallback and pass."""
    env = _env()
    engine = LemmaEngine()
    general, concrete = _merge_pair()
    with activate_lemmas(engine):
        witness = subsumes(general, concrete, env=env)
    assert witness is not None and witness.lemmas_used > 0
    # And the very same pair is a structural miss, proving the pass
    # came from the fallback, not from a widened matcher.
    general, concrete = _merge_pair()
    assert subsumes(general, concrete, env=env) is None
