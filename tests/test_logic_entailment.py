"""Tests for state subsumption (the partial order of §2.1) and
predicate implication."""

import time

import pytest
from conftest import fp

from repro import obs
from repro.analysis.resilience import BUDGET_EXHAUSTED, Budget, BudgetExhausted
from repro.ir import Register
from repro.logic import (
    LIST_DEF,
    NULL_VAL,
    AbstractState,
    FieldSpec,
    NullArg,
    ParamArg,
    PointsTo,
    PredicateDef,
    PredicateEnv,
    PredInstance,
    Raw,
    RecCallSpec,
    RecTarget,
    Region,
    Var,
    equivalent,
    subsumes,
)
from repro.logic.entailment import DEADLINE_POLL_STEPS, activate_deadline
from repro.logic.implication import pred_implies


def _state(rho=None, atoms=(), nes=()):
    state = AbstractState()
    for register, value in (rho or {}).items():
        state.rho[Register(register)] = value
    for atom in atoms:
        state.spatial.add(atom)
    for lhs, rhs in nes:
        state.pure.assume("ne", lhs, rhs)
    return state


class TestSubsumption:
    def test_identical_states(self):
        a = _state({"x": Var("a")}, [PredInstance("list", (Var("a"),))])
        b = _state({"x": Var("b")}, [PredInstance("list", (Var("b"),))])
        witness = subsumes(a, b)
        assert witness is not None
        assert witness.binding[Var("a")] == Var("b")

    def test_register_mismatch_blocks(self):
        a = _state({"x": Var("a")}, [Raw(Var("a"))])
        b = _state({"x": NULL_VAL}, [Raw(Var("b"))])
        assert subsumes(a, b) is None

    def test_base_case_instantiation(self):
        # general: list(h) with x=h; concrete: x=null, emp
        general = _state({"x": Var("h")}, [PredInstance("list", (Var("h"),))])
        concrete = _state({"x": NULL_VAL})
        assert subsumes(general, concrete) is not None

    def test_base_case_does_not_leak_atoms(self):
        # concrete has a leftover cell the general state cannot cover
        general = _state({"x": Var("h")}, [PredInstance("list", (Var("h"),))])
        concrete = _state({"x": NULL_VAL}, [Raw(Var("z"))])
        assert subsumes(general, concrete) is None

    def test_every_concrete_atom_must_be_matched(self):
        general = _state({}, [Raw(Var("a"))])
        concrete = _state({}, [Raw(Var("b")), Raw(Var("c"))])
        assert subsumes(general, concrete) is None

    def test_points_to_structure_mapped(self):
        general = _state(
            {"x": Var("a")},
            [PointsTo(Var("a"), "next", fp("a", "next")),
             PredInstance("list", (fp("a", "next"),))],
        )
        concrete = _state(
            {"x": Var("z")},
            [PointsTo(Var("z"), "next", fp("z", "next")),
             PredInstance("list", (fp("z", "next"),))],
        )
        witness = subsumes(general, concrete)
        assert witness is not None
        assert witness.binding[fp("a", "next")] == fp("z", "next")

    def test_truncation_points_must_correspond(self):
        general = _state(
            {"x": Var("a")}, [PredInstance("list", (Var("a"),), (Var("t"),))]
        )
        concrete_with = _state(
            {"x": Var("b")}, [PredInstance("list", (Var("b"),), (Var("u"),))]
        )
        concrete_without = _state(
            {"x": Var("b")}, [PredInstance("list", (Var("b"),))]
        )
        assert subsumes(general, concrete_with) is not None
        assert subsumes(general, concrete_without) is None

    def test_pure_ne_checked_against_structure(self):
        general = _state(
            {"x": Var("a")},
            [PredInstance("list", (Var("a"),))],
            nes=[(Var("a"), NULL_VAL)],
        )
        # concrete root allocated => structurally non-null
        concrete = _state({"x": Var("b")}, [PredInstance("list", (Var("b"),))])
        assert subsumes(general, concrete) is not None

    def test_pure_ne_fails_on_null_binding(self):
        general = _state(
            {"x": Var("a")},
            [PredInstance("list", (Var("a"),))],
            nes=[(Var("a"), NULL_VAL)],
        )
        concrete = _state({"x": NULL_VAL})
        assert subsumes(general, concrete) is None

    def test_live_restriction(self):
        general = _state({"x": Var("a"), "y": Var("a")}, [Raw(Var("a"))])
        concrete = _state({"x": Var("b"), "y": NULL_VAL}, [Raw(Var("b"))])
        assert subsumes(general, concrete) is None
        assert subsumes(general, concrete, live={Register("x")}) is not None

    def test_region_matches_ignoring_carves(self):
        general = _state({}, [Region(Var("a"), frozenset({1}))])
        concrete = _state({}, [Region(Var("b"), frozenset({1, 2, 3}))])
        assert subsumes(general, concrete) is not None

    def test_binding_consistency_enforced(self):
        # general maps one name twice; concrete disagrees
        general = _state(
            {"x": Var("a"), "y": Var("a")}, [Raw(Var("a"))]
        )
        concrete = _state(
            {"x": Var("b"), "y": Var("c")}, [Raw(Var("b")), Raw(Var("c"))]
        )
        assert subsumes(general, concrete) is None


class TestPredicateImplication:
    def _env(self):
        env = PredicateEnv()
        env.add(LIST_DEF)
        # list with an items field that is always null
        env.add(
            PredicateDef(
                "nlist",
                1,
                (FieldSpec("items", NullArg()), FieldSpec("next", RecTarget(0))),
                (RecCallSpec("nlist"),),
            )
        )
        # list of lists
        env.add(
            PredicateDef(
                "llist",
                1,
                (FieldSpec("items", RecTarget(0)), FieldSpec("next", RecTarget(1))),
                (RecCallSpec("list"), RecCallSpec("llist")),
            )
        )
        return env

    def test_reflexive(self):
        env = self._env()
        assert pred_implies(env, "list", "list")

    def test_null_field_implies_subtree_field(self):
        env = self._env()
        assert pred_implies(env, "nlist", "llist")

    def test_not_implied_other_direction(self):
        env = self._env()
        assert not pred_implies(env, "llist", "nlist")

    def test_different_fields_never_imply(self):
        env = self._env()
        assert not pred_implies(env, "list", "llist")

    def test_subsumption_uses_implication(self):
        env = self._env()
        general = _state({"x": Var("a")}, [PredInstance("llist", (Var("a"),))])
        concrete = _state({"x": Var("b")}, [PredInstance("nlist", (Var("b"),))])
        assert subsumes(general, concrete) is None  # without env
        assert subsumes(general, concrete, env=env) is not None

    def test_backward_arg_mismatch_blocks(self):
        env = PredicateEnv()
        env.add(
            PredicateDef(
                "dll1",
                2,
                (FieldSpec("next", RecTarget(0)), FieldSpec("prev", ParamArg(1))),
                (RecCallSpec("dll1", (ParamArg(0),)),),
            )
        )
        env.add(
            PredicateDef(
                "dll2",
                2,
                (FieldSpec("next", RecTarget(0)), FieldSpec("prev", ParamArg(1))),
                (RecCallSpec("dll2", (ParamArg(1),)),),
            )
        )
        assert not pred_implies(env, "dll1", "dll2")


class TestMatchBudget:
    def test_equivalent_gives_each_direction_a_fresh_budget(self):
        # Regression: the two directions of ``equivalent`` once shared
        # one ``_MatchBudget``, so a first direction that consumed most
        # of the limit starved the second and flipped the verdict.
        # Pin the contract empirically: find the exact step cost of one
        # direction, then run ``equivalent`` at precisely that limit --
        # a shared budget would need twice as much.
        k = 6
        a = _state(atoms=[Raw(Var(f"a{i}")) for i in range(k)])
        b = _state(atoms=[Raw(Var(f"b{i}")) for i in range(k)])
        needed = next(
            limit
            for limit in range(1, 500)
            if subsumes(a, b, step_limit=limit) is not None
        )
        assert needed > 1
        assert equivalent(a, b, step_limit=needed)
        # Sanity: below the one-direction cost the query conservatively
        # answers False, so the assertion above is actually tight.
        assert not equivalent(a, b, step_limit=needed - 1)

    def test_expired_deadline_surfaces_as_budget_exhausted(self):
        # A register pins the last general cell onto the first concrete
        # one, so the search backtracks through the permutations that
        # map a0 -> b0 first: more than one poll interval of steps.
        k = 8
        general = _state(
            {"x": Var(f"a{k - 1}")}, [Raw(Var(f"a{i}")) for i in range(k)]
        )
        concrete = _state(
            {"x": Var("b0")}, [Raw(Var(f"b{i}")) for i in range(k)]
        )
        assert subsumes(general, concrete) is not None
        assert subsumes(
            general, concrete, step_limit=DEADLINE_POLL_STEPS
        ) is None
        budget = Budget(deadline_seconds=0.0)
        budget.start()
        time.sleep(0.001)
        with activate_deadline(budget.check_deadline):
            with pytest.raises(BudgetExhausted) as info:
                subsumes(general, concrete)
        assert info.value.code == BUDGET_EXHAUSTED
        # Outside the block no poll is installed.
        assert subsumes(general, concrete) is not None

    def test_query_cut_by_the_deadline_is_still_counted(self):
        # The traced benchmark pairs subsumes spans with the
        # entailment.queries counter, so a query whose match the
        # deadline poll aborts inside _match_atoms must count once,
        # with the steps it made.
        k = 8
        general = _state(
            {"x": Var(f"a{k - 1}")}, [Raw(Var(f"a{i}")) for i in range(k)]
        )
        concrete = _state(
            {"x": Var("b0")}, [Raw(Var(f"b{i}")) for i in range(k)]
        )
        budget = Budget(deadline_seconds=0.0)
        budget.start()
        time.sleep(0.001)
        metrics = obs.Metrics()
        with obs.activate(metrics=metrics):
            with activate_deadline(budget.check_deadline):
                with pytest.raises(BudgetExhausted):
                    subsumes(general, concrete)
        assert metrics.counter("entailment.queries") == 1
        assert metrics.counter("entailment.match_steps") == DEADLINE_POLL_STEPS
