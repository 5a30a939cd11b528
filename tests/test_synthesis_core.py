"""Tests for segmentation search, anti-unification, substitution fitting
and full predicate synthesis (§3.1.2)."""

import random

import pytest

from conftest import fp

from repro import obs
from repro.logic import (
    NULL_VAL,
    NullArg,
    ParamArg,
    PointsTo,
    PredicateEnv,
    PredInstance,
    RecTarget,
    SpatialFormula,
    Var,
)
from repro.obs import Metrics
from repro.synthesis import (
    HOLE,
    NULL_TERM,
    Hole,
    NameTerm,
    NullTerm,
    PredTerm,
    SampleContext,
    Segmentation,
    StarTerm,
    VarTerm,
    anti_unify,
    find_segmentations,
    fit_argument,
    make_skeleton,
    positions,
    skeleton_matches,
    subterm,
    synthesize_forest,
    synthesize_term,
    translate_heap,
)
from repro.synthesis.terms import children, contains_terminal, is_terminal


def list_trace(levels: int = 2) -> SpatialFormula:
    """a.next |-> a.next ... ending in an un-expanded frontier."""
    s = SpatialFormula()
    node = Var("a")
    for _ in range(levels):
        target = fp(node, "next")
        s.add(PointsTo(node, "next", target))
        node = target
    return s


def mcf_trace() -> SpatialFormula:
    s = SpatialFormula()
    a = Var("a")
    c = fp("a", "child")
    cs = fp("a", "child", "sib")
    css = fp("a", "child", "sib", "sib")
    for src, fields in [
        (a, {"parent": NULL_VAL, "child": c, "sib": NULL_VAL, "sib_prev": NULL_VAL}),
        (c, {"parent": a, "child": NULL_VAL, "sib": cs, "sib_prev": a}),
        (cs, {"parent": a, "child": NULL_VAL, "sib": css, "sib_prev": c}),
    ]:
        for field, target in fields.items():
            s.add(PointsTo(src, field, target))
    return s


class TestSegmentation:
    def test_list_trace_segments(self):
        (term,) = translate_heap(list_trace())
        segmentation = next(find_segmentations(term))
        assert segmentation.recursion_points == ((0,),)
        assert set(segmentation.segments) == {(), (0,)}
        assert segmentation.pairs == (((), 0, (0,)),)

    def test_mcf_trace_two_recursion_points(self):
        (term,) = translate_heap(mcf_trace())
        segmentation = next(find_segmentations(term))
        # fields sorted: child, parent, sib, sib_prev -> child=0, sib=2
        assert set(segmentation.recursion_points) == {(0,), (2,)}

    def test_single_node_has_no_segmentation(self):
        s = SpatialFormula()
        s.add(PointsTo(Var("a"), "next", NULL_VAL))
        (term,) = translate_heap(s)
        assert list(find_segmentations(term)) == []

    def test_skeleton_holes_and_vars(self):
        (term,) = translate_heap(mcf_trace())
        segmentation = next(find_segmentations(term))
        skeleton = segmentation.skeleton
        assert isinstance(skeleton, StarTerm)
        assert skeleton.target_of("child") is HOLE
        assert skeleton.target_of("sib") is HOLE
        assert isinstance(skeleton.target_of("parent"), VarTerm)

    def test_skeleton_matching_rules(self):
        skeleton = StarTerm(("next",), (HOLE,))
        matches = StarTerm(("next",), (NULL_TERM,), loc=Var("x"))
        assert skeleton_matches(skeleton, matches)
        # a hole needs a continuation marker below it
        no_stop = StarTerm(("next",), (NameTerm("y"),), loc=Var("x"))
        assert not skeleton_matches(skeleton, no_stop)

    def test_var_position_refuses_structure(self):
        skeleton = StarTerm(("d",), (VarTerm(1),))
        structured = StarTerm(
            ("d",), (StarTerm(("d",), (NULL_TERM,), loc=Var("y")),), loc=Var("x")
        )
        assert not skeleton_matches(skeleton, structured)

    def test_make_skeleton_cuts_at_recursion_points(self):
        (term,) = translate_heap(list_trace())
        skeleton = make_skeleton(term, ((0,),))
        assert skeleton.target_of("next") is HOLE


# ----------------------------------------------------------------------
# Reference: the all-depth segmentation search, as it was before the
# candidates were restricted to the root's own fields.
# ----------------------------------------------------------------------


def _ref_contains_stop(node):
    if is_terminal(node) or isinstance(node, PredTerm):
        return True
    if isinstance(node, NameTerm):
        return False
    return any(_ref_contains_stop(c) for c in children(node))


def _ref_is_potential(term, pos):
    node = subterm(term, pos)
    if isinstance(node, (NullTerm, PredTerm)):
        return True
    if isinstance(node, StarTerm):
        if node.is_unexpanded:
            return True
        return node.fields == term.fields and _ref_contains_stop(node)
    return False


def _ref_is_prefix(prefix, pos):
    return len(prefix) < len(pos) and pos[: len(prefix)] == prefix


def _ref_skeleton(term, points):
    counter = [0]
    prefixes = {r[:i] for r in points for i in range(len(r) + 1)}

    def build(node, pos):
        if pos in points:
            return HOLE
        if pos not in prefixes:
            counter[0] += 1
            return VarTerm(counter[0])
        rebuilt = tuple(build(c, pos + (i,)) for i, c in enumerate(children(node)))
        if isinstance(node, StarTerm):
            return StarTerm(node.fields, rebuilt, loc=None)
        return PredTerm(node.pred, rebuilt, loc=None)

    return build(term, ())


def _ref_matches(skeleton, node):
    if isinstance(skeleton, Hole):
        return _ref_contains_stop(node)
    if isinstance(skeleton, VarTerm):
        return not contains_terminal(node) and isinstance(node, (NameTerm, PredTerm))
    if isinstance(skeleton, StarTerm):
        return (
            isinstance(node, StarTerm)
            and skeleton.fields == node.fields
            and all(map(_ref_matches, skeleton.targets, node.targets))
        )
    return (
        isinstance(node, PredTerm)
        and skeleton.pred == node.pred
        and len(skeleton.args) == len(node.args)
        and all(map(_ref_matches, skeleton.args, node.args))
    )


def _ref_segment(node, points):
    def build(current, pos):
        if pos in points:
            return HOLE
        if not any(_ref_is_prefix(pos, r) or pos == r for r in points):
            return current
        rebuilt = []
        for i, child in enumerate(children(current)):
            piece = build(child, pos + (i,))
            if piece is None:
                return None
            rebuilt.append(piece)
        if isinstance(current, StarTerm):
            return StarTerm(current.fields, tuple(rebuilt), loc=current.loc)
        if isinstance(current, PredTerm):
            return PredTerm(current.pred, tuple(rebuilt), loc=current.loc)
        return None

    return build(node, ())


def _ref_root_legal(skel, node):
    if isinstance(skel, Hole):
        return True
    if isinstance(skel, VarTerm):
        return isinstance(node, (NameTerm, NullTerm, PredTerm))
    return all(map(_ref_root_legal, children(skel), children(node)))


def _ref_validate(term, points):
    if any(subterm(term, r) is None for r in points):
        return None
    skeleton = _ref_skeleton(term, points)
    if not _ref_root_legal(skeleton, term):
        return None
    segments, pairs, tails = {}, [], []

    def walk(pos):
        segment = _ref_segment(subterm(term, pos), points)
        if segment is None:
            return False
        segments[pos] = segment
        for index, r in enumerate(points):
            child = subterm(term, pos + r)
            if child is None:
                return False
            if is_terminal(child):
                continue
            if isinstance(child, PredTerm):
                tails.append((pos, index, child))
                continue
            if not _ref_matches(skeleton, child):
                return False
            pairs.append((pos, index, pos + r))
            if not walk(pos + r):
                return False
        return True

    if not walk(()) or not (pairs or tails):
        return None
    return Segmentation(points, skeleton, segments, tuple(pairs), tuple(tails))


def reference_segmentations(term):
    """The all-depth search in its accept-first preorder, keeping only
    the one-level segmentations (every other one failed assembly)."""
    if not isinstance(term, StarTerm) or term.is_unexpanded:
        return
    candidates = [p for p in positions(term) if p and _ref_is_potential(term, p)]

    def search(index, chosen):
        if index == len(candidates):
            if chosen and all(len(r) == 1 for r in chosen):
                result = _ref_validate(term, tuple(chosen))
                if result is not None:
                    yield result
            return
        pos = candidates[index]
        if any(_ref_is_prefix(r, pos) for r in chosen):
            yield from search(index + 1, chosen)
            return
        chosen.append(pos)
        yield from search(index + 1, chosen)
        chosen.pop()
        yield from search(index + 1, chosen)

    yield from search(0, [])


#: Terms whose all-depth candidate count exceeds this are left out: the
#: reference enumerates up to 2**n subsets.
REFERENCE_CANDIDATE_CAP = 14


def _reference_sized(term):
    return isinstance(term, StarTerm) and not term.is_unexpanded and sum(
        1 for p in positions(term) if p and _ref_is_potential(term, p)
    ) <= REFERENCE_CANDIDATE_CAP


def _expanded_subterms(term):
    """*term* and every expanded node below it: what synthesize_forest
    may hand to the segmentation search."""
    for pos in positions(term):
        node = subterm(term, pos)
        if isinstance(node, StarTerm) and not node.is_unexpanded:
            yield node


@pytest.fixture(scope="module")
def curated_terms():
    """Distinct expanded terms (and subterms) translate_heap produces
    when the curated programs (the runner's suite and the mini-C
    kernels, each in its workload's mode) normalize their states."""
    import repro.analysis.invariants as invariants
    from repro import ShapeAnalysis, compile_c
    from repro.benchsuite import csources
    from repro.benchsuite.runner import benchmark_factories

    programs = {name: build() for name, build in benchmark_factories().items()}
    for source in (
        csources.MCF_C,
        csources.TREEADD_C,
        csources.PERIMETER_C,
        csources.POWER_C,
    ):
        programs[source] = compile_c(source)
    seen = {}
    translate = invariants.translate_heap

    def recording(spatial):
        terms = translate(spatial)
        for term in terms:
            for node in _expanded_subterms(term):
                seen.setdefault(node, None)
        return terms

    mp = pytest.MonkeyPatch()
    mp.setattr(invariants, "translate_heap", recording)
    try:
        for name, program in programs.items():
            degrade = name.startswith(("entail-", "lemma-"))
            ShapeAnalysis(program, mode="degrade" if degrade else "strict").run()
    finally:
        mp.undo()
    return [term for term in seen if _reference_sized(term)]


def _random_term(rng, fields, depth):
    targets = []
    for _ in fields:
        roll = rng.random()
        if depth and roll < 0.4:
            # Occasionally a node of another type: not a recursion point.
            child_fields = fields if rng.random() < 0.85 else fields[:-1] or ("x",)
            targets.append(_random_term(rng, child_fields, depth - 1))
        elif roll < 0.6:
            targets.append(NULL_TERM)
        elif roll < 0.72:
            targets.append(StarTerm((), (), loc=Var(f"u{rng.randrange(50)}")))
        elif roll < 0.9:
            targets.append(NameTerm(f"n{rng.randrange(3)}", ("d",) * rng.randrange(2)))
        else:
            args = (NameTerm(f"n{rng.randrange(3)}"), rng.choice((NULL_TERM, NameTerm("m"))))
            targets.append(PredTerm("Q", args[: rng.randrange(1, 3)]))
    return StarTerm(tuple(fields), tuple(targets), loc=Var(f"v{rng.randrange(1000)}"))


def synthetic_terms(count=400, seed=23):
    rng = random.Random(seed)
    terms = []
    while len(terms) < count:
        fields = sorted(rng.sample(("child", "d", "next", "parent", "sib"), rng.randrange(1, 5)))
        term = _random_term(rng, tuple(fields), rng.randrange(1, 4))
        if _reference_sized(term):
            terms.append(term)
    return terms


class TestOneLevelSearchIsExact:
    """``find_segmentations`` yields exactly the one-level segmentations
    of the all-depth search, in the same order, so the first one that
    assembles into a predicate is the same."""

    def test_curated_program_terms(self, curated_terms):
        compared = found = 0
        for term in curated_terms:
            expected = list(reference_segmentations(term))
            assert list(find_segmentations(term)) == expected, str(term)
            compared += 1
            found += len(expected)
        assert compared >= 100 and found >= 40

    def test_synthetic_trees(self):
        found = nested = 0
        for term in synthetic_terms():
            expected = list(reference_segmentations(term))
            assert list(find_segmentations(term)) == expected, str(term)
            found += len(expected)
            nested += any(len(p) > 1 for p in positions(term) if p and _ref_is_potential(term, p))
        assert found >= 100 and nested >= 100


class TestAntiUnify:
    def test_identical_nulls_stay_null(self):
        a = StarTerm(("f",), (NULL_TERM,))
        result = anti_unify([a, a])
        assert result.body.target_of("f") is NULL_TERM

    def test_differing_names_become_variable(self):
        a = StarTerm(("f",), (NameTerm("x"),))
        b = StarTerm(("f",), (NameTerm("y"),))
        result = anti_unify([a, b])
        var = result.body.target_of("f")
        assert isinstance(var, VarTerm)
        assert result.values_of(var) == (NameTerm("x"), NameTerm("y"))

    def test_phi_shares_variables_for_identical_tuples(self):
        a = StarTerm(("f", "g"), (NameTerm("x"), NameTerm("x")))
        b = StarTerm(("f", "g"), (NameTerm("y"), NameTerm("y")))
        result = anti_unify([a, b])
        assert result.body.target_of("f") == result.body.target_of("g")

    def test_distinct_tuples_distinct_variables(self):
        a = StarTerm(("f", "g"), (NULL_TERM, NameTerm("x")))
        b = StarTerm(("f", "g"), (NameTerm("y"), NameTerm("y")))
        result = anti_unify([a, b])
        assert result.body.target_of("f") != result.body.target_of("g")

    def test_holes_align(self):
        a = StarTerm(("f",), (HOLE,))
        assert anti_unify([a, a]).body.target_of("f") is HOLE

    def test_nested_pred_with_base_case_gap(self):
        from repro.synthesis import PredTerm

        a = StarTerm(("items",), (PredTerm("list", (NameTerm("p"),)),))
        b = StarTerm(("items",), (NULL_TERM,))
        result = anti_unify([a, b])
        body_target = result.body.target_of("items")
        assert isinstance(body_target, PredTerm)
        values = result.values_of(body_target.args[0])
        assert values == (NameTerm("p"), None)


class TestFitArgument:
    def _context(self, *params, rec_fields=("next",)):
        return SampleContext(params=tuple(params), rec_fields=rec_fields)

    def test_empty_samples_default_null(self):
        assert fit_argument([]) == [NullArg()]

    def test_identity_preferred(self):
        ctx = self._context(NameTerm("a"), NameTerm("p"))
        candidates = fit_argument([(ctx, NameTerm("p"))], prefer_param=1)
        assert candidates[0] == ParamArg(1)

    def test_param_zero_detected(self):
        ctx = self._context(NameTerm("a"), NameTerm("p"))
        candidates = fit_argument([(ctx, NameTerm("a"))])
        assert ParamArg(0) in candidates

    def test_rec_target_detected(self):
        ctx = self._context(NameTerm("a"), NULL_TERM)
        value = NameTerm("a", ("next",))
        candidates = fit_argument([(ctx, value)])
        assert RecTarget(0) in candidates

    def test_inconsistent_samples_reject_param(self):
        c1 = self._context(NameTerm("a"), NameTerm("p"))
        c2 = self._context(NameTerm("b"), NameTerm("q"))
        samples = [(c1, NameTerm("p")), (c2, NameTerm("z"))]
        assert ParamArg(1) not in fit_argument(samples)

    def test_all_null_values(self):
        ctx = self._context(NameTerm("a"))
        assert fit_argument([(ctx, NULL_TERM)]) == [NullArg()]


class TestSynthesize:
    def test_deadline_poll_stops_the_search_and_is_still_counted(self):
        # The traced benchmark pairs synthesize_term spans with the
        # synthesis.terms counter, so an attempt the poll cuts short
        # must be counted too.
        class Expired(Exception):
            pass

        def poll():
            raise Expired

        env = PredicateEnv()
        (term,) = translate_heap(list_trace())
        metrics = Metrics()
        with obs.activate(metrics=metrics), pytest.raises(Expired):
            synthesize_term(term, env, deadline_poll=poll)
        assert metrics.counter("synthesis.terms") == 1
        assert metrics.counter("synthesis.failed") == 1
        assert len(env) == 0

    def test_list_predicate(self):
        from repro.logic import FieldSpec

        env = PredicateEnv()
        (term,) = translate_heap(list_trace())
        instance = synthesize_term(term, env)
        assert instance is not None
        d = instance.definition
        assert d.arity == 1
        assert d.fields == (FieldSpec("next", RecTarget(0)),)
        assert instance.args == (Var("a"),)
        # the un-expanded frontier becomes a truncation point
        assert instance.truncs == (fp("a", "next", "next"),)

    def test_mcf_predicate_backward_links(self):
        env = PredicateEnv()
        (term,) = translate_heap(mcf_trace())
        instance = synthesize_term(term, env)
        assert instance is not None
        d = instance.definition
        assert d.arity == 3
        by_field = {s.field: s.target for s in d.fields}
        assert by_field["parent"] == ParamArg(1)
        assert by_field["sib_prev"] == ParamArg(2)
        assert isinstance(by_field["child"], RecTarget)
        assert isinstance(by_field["sib"], RecTarget)
        # the top-level instantiation is mcf_tree(a, null, null)
        assert instance.args == (Var("a"), NULL_VAL, NULL_VAL)
        # sib recursion passes (x2, x1)
        sib_call = d.rec_calls[by_field["sib"].index]
        assert sib_call.args == (ParamArg(1), ParamArg(0))

    def test_dedup_across_traces(self):
        env = PredicateEnv()
        (t1,) = translate_heap(list_trace(2))
        (t2,) = translate_heap(list_trace(3))
        a = synthesize_term(t1, env)
        b = synthesize_term(t2, env)
        assert a.definition is b.definition
        assert len(env) == 1

    def test_folded_tail_continues_recursion(self):
        from repro.logic import FieldSpec, PredicateDef, RecCallSpec

        s = list_trace(1)
        s.add(PredInstance("X", (fp("a", "next"),)))
        # the tail predicate must structurally match; predefine it
        env = PredicateEnv()
        env.add(
            PredicateDef(
                "X", 1, (FieldSpec("next", RecTarget(0)),), (RecCallSpec("X"),)
            )
        )
        (term,) = translate_heap(s)
        instance = synthesize_term(term, env)
        assert instance is not None
        assert instance.definition.name == "X"
        assert fp("a", "next") in instance.covered_instance_roots

    def test_forest_descends_below_prefix(self):
        # a header node pointing at a list: recursion not at the root
        s = list_trace(2)
        s.add(PointsTo(Var("h"), "payload", NULL_VAL))
        s.add(PointsTo(Var("h"), "data", Var("a")))
        env = PredicateEnv()
        terms = translate_heap(s)
        found = []
        for term in terms:
            found.extend(synthesize_forest(term, env))
        assert len(found) == 1
        assert found[0].args == (Var("a"),)

    def test_nested_structure_call(self):
        # outer list whose items field holds folded inner lists
        from repro.logic import FieldSpec, PredicateDef, RecCallSpec

        env = PredicateEnv()
        env.add(
            PredicateDef(
                "inner", 1, (FieldSpec("next", RecTarget(0)),), (RecCallSpec("inner"),)
            )
        )
        s = SpatialFormula()
        a = Var("a")
        an = fp("a", "next")
        s.add(PointsTo(a, "next", an))
        s.add(PointsTo(a, "items", fp("a", "items")))
        s.add(PredInstance("inner", (fp("a", "items"),)))
        s.add(PointsTo(an, "next", fp("a", "next", "next")))
        s.add(PointsTo(an, "items", fp("a", "next", "items")))
        s.add(PredInstance("inner", (fp("a", "next", "items"),)))
        (term,) = translate_heap(s)
        instance = synthesize_term(term, env)
        assert instance is not None
        d = instance.definition
        calls = {c.pred for c in d.rec_calls}
        assert "inner" in calls and d.name in calls
