"""Differential property suite for the performance layer.

The entailment cache is only sound if canonical keys are genuinely
alpha-renaming-invariant and memoized canonical forms are invalidated
by every state mutation.  This suite proves both properties over
randomized states, then closes the loop end to end: cache-on and
cache-off analyses of fifty crucible fuzz programs must produce
identical verdict fingerprints, and a cache shared by two runs must
carry the first run's verdicts into the second.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fp

from repro.ir import Register
from repro.logic import (
    NULL_VAL,
    AbstractState,
    PointsTo,
    PredInstance,
    Raw,
    Region,
    Var,
    subsumes,
)
from repro.logic.canonical import canonical_key, canonicalize

_FIELDS = ("next", "prev", "data")

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


_HYPOTHESIS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _build_state(seed, rename=None, shuffle=None, anchor_all=False):
    """A deterministic pseudo-random abstract state.

    *rename* maps root index -> variable name (default ``a<i>``): two
    builds of the same seed under different injective renamings are
    exact alpha-variants of each other.  *shuffle* permutes the atom
    insertion order without changing the state's meaning.
    *anchor_all* binds every root to a register, the regime where the
    greedy canonicalization degenerates to a plain (order-free) sort.
    """
    rng = random.Random(seed)
    name = rename or (lambda i: f"a{i}")
    n = rng.randint(2, 7)
    roots = [Var(name(i)) for i in range(n)]
    atoms = []
    for i, root in enumerate(roots):
        kind = rng.randrange(5)
        if kind == 0:
            target = rng.choice([NULL_VAL, roots[rng.randrange(n)]])
            atoms.append(PointsTo(root, rng.choice(_FIELDS), target))
        elif kind == 1:
            truncs = (roots[rng.randrange(n)],) if rng.random() < 0.4 else ()
            atoms.append(PredInstance("list", (root,), truncs))
        elif kind == 2:
            atoms.append(
                Raw(root, frozenset(rng.sample(_FIELDS, rng.randrange(3))))
            )
        elif kind == 3:
            atoms.append(
                Region(root, frozenset(rng.sample(range(4), rng.randrange(3))))
            )
        else:
            atoms.append(
                PointsTo(root, "next", fp(roots[rng.randrange(n)], "next"))
            )
    nes = [
        (roots[rng.randrange(n)], NULL_VAL) for _ in range(rng.randrange(3))
    ]
    anchored = (
        list(range(n))
        if anchor_all
        else sorted(rng.sample(range(n), rng.randint(1, n)))
    )
    anchors = frozenset(roots[i] for i in rng.sample(range(n), rng.randrange(n)))

    if shuffle is not None:
        order = list(range(len(atoms)))
        random.Random(shuffle).shuffle(order)
        atoms = [atoms[i] for i in order]
        random.Random(shuffle).shuffle(nes)

    state = AbstractState(anchors=anchors)
    for position, i in enumerate(anchored):
        state.rho[Register(f"r{position}")] = roots[i]
    for atom in atoms:
        state.spatial.add(atom)
    for lhs, rhs in nes:
        state.pure.assume("ne", lhs, rhs)
    return state


class TestCanonicalKeyInvariance:
    @_HYPOTHESIS
    @given(st.integers(0, 10**6))
    def test_invariant_under_alpha_renaming(self, seed):
        plain = _build_state(seed)
        # Reversed numbering, so sorted-by-name traversal visits the
        # renamed roots in the opposite order.
        renamed = _build_state(seed, rename=lambda i: f"z{999 - i}")
        assert canonical_key(plain) == canonical_key(renamed)

    @_HYPOTHESIS
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_invariant_under_atom_reordering_anchored(self, seed, shuffle):
        """With every root register-anchored, all indices are fixed
        before the greedy pass, so atom order provably cannot matter
        (this also regression-tests the lazy priority queue against a
        plain sort).  Fully unanchored symmetric atoms can tie-break by
        input position -- a documented missed-hit, never a wrong hit --
        so the exact-invariance property is stated for the anchored
        regime the analysis's states live in."""
        assert canonical_key(
            _build_state(seed, anchor_all=True)
        ) == canonical_key(_build_state(seed, anchor_all=True, shuffle=shuffle))

    @_HYPOTHESIS
    @given(st.integers(2, 12), st.integers(0, 10**6))
    def test_invariant_under_atom_reordering_chain(self, length, shuffle):
        """A register-rooted chain with a predicate tail -- the shape
        the analysis manufactures constantly -- canonicalizes to the
        same key no matter the insertion order: the greedy frontier is
        unambiguous at every step."""

        def build(order_seed):
            atoms = [
                PointsTo(Var(f"c{i}"), "next", Var(f"c{i + 1}"))
                for i in range(length)
            ]
            atoms.append(PredInstance("list", (Var(f"c{length}"),)))
            if order_seed is not None:
                random.Random(order_seed).shuffle(atoms)
            state = AbstractState()
            state.rho[Register("head")] = Var("c0")
            for atom in atoms:
                state.spatial.add(atom)
            return state

        assert canonical_key(build(None)) == canonical_key(build(shuffle))

    @_HYPOTHESIS
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_equal_keys_agree_on_subsumption(self, seed, other):
        """The soundness contract the cache relies on: alpha-variants
        (equal keys by the test above) get identical verdicts against
        any third state."""
        general_a = _build_state(seed)
        general_b = _build_state(seed, rename=lambda i: f"q{i + 500}")
        concrete = _build_state(other)
        verdict_a = subsumes(general_a, concrete) is not None
        verdict_b = subsumes(general_b, concrete) is not None
        assert verdict_a == verdict_b

    def test_key_reflects_structural_change(self):
        state = _build_state(11)
        before = canonical_key(state)
        state.spatial.add(Raw(Var("fresh-root")))
        assert canonical_key(state) != before


def _small_state():
    state = AbstractState()
    state.rho[Register("x")] = Var("a")
    state.spatial.add(PointsTo(Var("a"), "next", Var("b")))
    state.spatial.add(Raw(Var("b")))
    return state


class TestCanonicalMemo:
    """The per-state memo must never survive a mutation (a stale form
    would poison the entailment cache with wrong verdicts)."""

    def test_memo_returns_identical_form(self):
        state = _small_state()
        assert canonicalize(state) is canonicalize(state)

    def test_spatial_mutation_invalidates(self):
        state = _small_state()
        before = canonical_key(state)
        state.spatial.add(Raw(Var("c")))
        assert canonical_key(state) != before

    def test_spatial_remove_invalidates(self):
        state = _small_state()
        before = canonical_key(state)
        state.spatial.remove(Raw(Var("b")))
        assert canonical_key(state) != before

    def test_pure_mutation_invalidates(self):
        state = _small_state()
        before = canonical_key(state)
        state.pure.assume("ne", Var("a"), NULL_VAL)
        assert canonical_key(state) != before

    def test_rho_mutation_invalidates(self):
        state = _small_state()
        before = canonical_key(state)
        state.rho[Register("y")] = NULL_VAL
        assert canonical_key(state) != before

    def test_anchor_mutation_invalidates(self):
        state = _small_state()
        canonicalize(state)
        before_index_size = len(canonicalize(state).index)
        state.anchors = frozenset({Var("a")})
        form = canonicalize(state)
        assert len(form.index) >= before_index_size
        assert canonical_key(state) != canonical_key(_small_state())

    def test_rename_recomputes_but_preserves_key(self):
        state = _small_state()
        before = canonical_key(state)
        state.rename(Var("b"), Var("zz"))
        form = canonicalize(state)
        assert Var("zz") in form.index
        assert Var("b") not in form.index
        # Renaming is exactly what canonical keys quotient out.
        assert form.key == before

    def test_copy_does_not_share_memo(self):
        state = _small_state()
        before = canonical_key(state)
        clone = state.copy()
        clone.spatial.add(Raw(Var("c")))
        assert canonical_key(clone) != before
        assert canonical_key(state) == before


class TestCacheDifferential:
    """Cache-on and cache-off analyses must walk the same trajectory.

    Fifty deterministic crucible programs, each analyzed twice; the
    verdict fingerprint (outcome, failure class, attempt count,
    exit-state count and the engine's trajectory counters -- everything
    except timing and cache metrics) must be identical.  The budget is
    state-count based, not wall-clock, so both runs hit exactly the
    same limits.
    """

    def test_fifty_crucible_seeds(self):
        from repro.analysis import ShapeAnalysis
        from repro.crucible.generator import generate_program
        from repro.logic.heapnames import reset_fresh_counter

        mismatches = {}
        for seed in range(1, 51):
            verdicts = []
            for enable_cache in (True, False):
                reset_fresh_counter()
                program = generate_program(seed).program
                result = ShapeAnalysis(
                    program,
                    name=f"crucible:{seed}",
                    mode="degrade",
                    state_budget=2000,
                    enable_cache=enable_cache,
                ).run()
                verdicts.append(_verdict(result))
            if verdicts[0] != verdicts[1]:
                mismatches[seed] = verdicts
        assert mismatches == {}


class TestBenchHarness:
    def test_cache_carries_across_repetitions(self):
        """Cache keys are fully structural, so a cache shared by two
        runs of the same program must serve the second run's queries
        from the first run's entries, without changing the verdict."""
        from repro.analysis import ShapeAnalysis
        from repro.benchsuite.runner import _resolve_benchmark
        from repro.diff import core_verdict
        from repro.perf import EntailmentCache

        shared = EntailmentCache()
        verdicts = []
        for _ in range(2):
            hits, misses = shared.hits, shared.misses
            result = ShapeAnalysis(
                _resolve_benchmark("list-build"),
                name="list-build",
                mode="degrade",
                deadline_seconds=30.0,
                cache=shared,
            ).run()
            verdicts.append(core_verdict(result))
        hits, misses = shared.hits - hits, shared.misses - misses
        # The warm run replays the cold run's queries: nearly all hits.
        assert hits / (hits + misses) > 0.5
        assert verdicts[0] == verdicts[1]
