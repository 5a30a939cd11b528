"""Tests for segmentation search, anti-unification, substitution fitting
and full predicate synthesis (§3.1.2)."""

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
    NameTerm,
    SampleContext,
    StarTerm,
    VarTerm,
    anti_unify,
    find_segmentations,
    fit_argument,
    make_skeleton,
    skeleton_matches,
    synthesize_forest,
    synthesize_term,
    translate_heap,
)


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
