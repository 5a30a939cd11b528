"""Tests for the sample-path protocol of §5.2.1: branch steering,
depth quotas, contract grouping, verification widening and its
disjunct cap, and maximal contract exit sets."""

import pytest

from repro.analysis import ShapeAnalysis
from repro.analysis.interproc import ShapeEngine, _Sampler
from repro.analysis.resilience import BUDGET_EXHAUSTED, SUMMARY_FAILURE
from repro.benchsuite import csources, perimeter
from repro.benchsuite.runner import run_one
from repro.crucible.generator import generate_program
from repro.crucible.oracle import Oracle
from repro.ir import parse_program
from repro.logic import AbstractState, Raw, Var
from repro.logic.entailment import subsumes
from repro.obs.metrics import Metrics


class TestSamplerPolicy:
    def test_head_toward_within_quota(self):
        sampler = _Sampler(scc=frozenset({"f"}), max_visits=2)
        sampler.depth = 1
        assert sampler.head_toward_recursion()
        sampler.depth = 2
        assert sampler.head_toward_recursion()
        sampler.depth = 3
        assert not sampler.head_toward_recursion()

    def test_quota_scales_with_scc_size(self):
        sampler = _Sampler(scc=frozenset({"f", "g"}), max_visits=2)
        sampler.depth = 4
        assert sampler.head_toward_recursion()
        sampler.depth = 5
        assert not sampler.head_toward_recursion()


class TestReachesRecursion:
    SRC = """
proc f(%n):
    if %n == 0 goto base
    %m = sub %n, 1
    %r = call f(%m)
    return %r
base:
    return 0

proc main():
    %x = call f(3)
    return %x
"""

    def test_indices_reaching_recursive_call(self):
        program = parse_program(self.SRC)
        engine = ShapeEngine(program)
        reach = engine._reaches_recursion("f", frozenset({"f"}))
        proc = program.proc("f")
        call_index = next(
            i
            for i, ins in enumerate(proc.instrs)
            if getattr(ins, "func", None) == "f"
        )
        assert call_index in reach
        # the base-case return cannot reach the recursive call
        base = proc.labels["base"]
        assert base not in reach


class TestContractShapes:
    def test_both_recursive_fields_sampled(self):
        """Depth-based steering must expand *both* children of a tree
        builder (a visit-count policy would starve the second call
        site and synthesize a wrong null-substitution)."""
        result = ShapeAnalysis(
            parse_program(
                """
proc build(%n):
    if %n > 0 goto rec
    return null
rec:
    %t = malloc()
    %m = sub %n, 1
    %l = call build(%m)
    [%t.left] = %l
    %r = call build(%m)
    [%t.right] = %r
    return %t

proc main():
    %h = call build(5)
    return %h
"""
            )
        ).run()
        assert result.succeeded, result.failure
        (pred,) = result.recursive_predicates()
        # both fields recurse (neither degenerated to NullArg)
        from repro.logic import RecTarget

        targets = [s.target for s in pred.fields]
        assert all(isinstance(t, RecTarget) for t in targets)

    def test_asymmetric_recursion(self):
        """Left-only recursion: the right field only ever holds null, so
        Steensgaard cannot type it as a pointer and slicing prunes it
        (faithful to the paper's untyped low-level view).  With slicing
        disabled the field survives as an always-null conjunct."""
        SRC = """
proc build(%n):
    if %n > 0 goto rec
    return null
rec:
    %t = malloc()
    %m = sub %n, 1
    %l = call build(%m)
    [%t.left] = %l
    [%t.right] = null
    return %t

proc main():
    %h = call build(5)
    return %h
"""
        from repro.logic import NullArg, RecTarget

        sliced = ShapeAnalysis(parse_program(SRC)).run()
        assert sliced.succeeded, sliced.failure
        (pred,) = sliced.recursive_predicates()
        assert [s.field for s in pred.fields] == ["left"]
        assert isinstance(pred.fields[0].target, RecTarget)

        unsliced = ShapeAnalysis(
            parse_program(SRC), enable_slicing=False
        ).run()
        assert unsliced.succeeded, unsliced.failure
        (pred,) = unsliced.recursive_predicates()
        by_field = {s.field: s.target for s in pred.fields}
        # the always-null right field survives, either as a literal null
        # conjunct or as a vacuous recursion whose unfoldings are all
        # null (both sound; synthesis prefers the more general form and
        # verification accepts it)
        assert by_field["right"] == NullArg() or isinstance(
            by_field["right"], RecTarget
        )

    def test_accumulator_style_recursion(self):
        """Recursion that threads the list through an accumulator
        parameter (reverse-by-recursion)."""
        result = ShapeAnalysis(
            parse_program(
                """
proc rev(%l, %acc):
    if %l != null goto rec
    return %acc
rec:
    %n = [%l.next]
    [%l.next] = %acc
    %r = call rev(%n, %l)
    return %r

proc build(%n):
    %head = null
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto L
done:
    return %head

proc main():
    %h = call build(8)
    %r = call rev(%h, null)
    return %r
"""
            )
        ).run()
        assert result.succeeded, result.failure

    def test_contracts_grow_through_widening(self):
        """A recursive procedure whose base case returns a fresh node
        (not null): the exit set needs the widening round."""
        result = ShapeAnalysis(
            parse_program(
                """
proc build(%n):
    if %n > 0 goto rec
    %s = malloc()
    [%s.next] = null
    return %s
rec:
    %m = sub %n, 1
    %rest = call build(%m)
    %p = malloc()
    [%p.next] = %rest
    return %p

proc main():
    %h = call build(6)
    return %h
"""
            )
        ).run()
        assert result.succeeded, result.failure
        # the result is a non-empty list (never null)
        assert all(
            s.spatial.pred_instances() or s.spatial.points_to_atoms()
            for s in result.exit_states
        )


class _WideningEngine(ShapeEngine):
    """Verification of ``build`` returns one more exit each call, each
    with a fresh number of raw cells, so no exit is ever subsumed and
    the contracts never stabilize."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.widened = 0
        self.verified_contracts = None

    def interpret(self, name, entry, cutpoints, sampler, contracts):
        exits = super().interpret(name, entry, cutpoints, sampler, contracts)
        if name == "build" and sampler is None and contracts:
            self.verified_contracts = contracts["build"]
            self.widened += 1
            fresh = AbstractState()
            for j in range(self.widened):
                fresh.spatial.add(Raw(Var(f"w{j}")))
            exits.append(fresh)
        return exits


class TestVerificationDisjunctCap:
    SRC = """
proc build(%n):
    if %n > 0 goto rec
    return null
rec:
    %m = sub %n, 1
    %rest = call build(%m)
    %p = malloc()
    [%p.next] = %rest
    return %p

proc main():
    %h = call build(6)
    return %h
"""

    @pytest.mark.parametrize("cap", [8, 3])
    def test_widening_recursion_halts_past_the_cap(self, cap):
        engines = []

        def factory(*args, **kwargs):
            engines.append(
                _WideningEngine(*args, max_invariants_per_header=cap, **kwargs)
            )
            return engines[-1]

        metrics = Metrics()
        result = ShapeAnalysis(
            parse_program(self.SRC),
            mode="strict",
            metrics=metrics,
            engine_factory=factory,
        ).run()
        assert result.outcome == "failed"
        (diagnostic,) = result.diagnostics
        assert diagnostic.code == SUMMARY_FAILURE
        assert diagnostic.procedure == "build"
        assert f"exceed {cap} disjuncts" in diagnostic.message
        # The halt comes as the (cap+1)-th disjunct would be appended.
        (engine,) = engines
        assert sum(len(c.exits) for c in engine.verified_contracts) == cap
        assert metrics.counter("engine.recursion.verify_rounds") < 9


class TestDivergingEdits:
    """Three edits whose recursion's exit disjunction keeps widening:
    the cap decides them well inside a 5 s deadline."""

    @pytest.mark.parametrize(
        "name",
        [
            "edit:bisort@1007857332",
            "edit:perimeter@69705451",
            "edit:perimeter@359639757",
        ],
    )
    @pytest.mark.parametrize(
        "mode,outcome", [("degrade", "degraded"), ("strict", "failed")]
    )
    def test_halts_with_summary_failure(self, name, mode, outcome):
        record = run_one(name, mode=mode, deadline=5.0)
        assert record.outcome == outcome
        codes = {d["code"] for d in record.diagnostics}
        assert SUMMARY_FAILURE in codes
        assert BUDGET_EXHAUSTED not in codes


def _run_capturing_engine(program, mode="strict"):
    engines = []

    def factory(*args, **kwargs):
        engines.append(ShapeEngine(*args, **kwargs))
        return engines[-1]

    result = ShapeAnalysis(program, mode=mode, engine_factory=factory).run()
    (engine,) = engines
    return result, engine


class TestMaximalContractExits:
    """A recursion contract's exit set holds no exit another one
    subsumes: in perimeter's ``build`` the null base case goes once the
    folded ``P1(ret, parent)`` exit covers it, so each verification
    pass runs its four recursive calls over 2^4 exit combinations
    instead of 3^4."""

    def test_perimeter_contract_exits_are_maximal(self):
        result, engine = _run_capturing_engine(perimeter.program())
        assert result.outcome == "pass", result.failure
        for proc in ("build", "perimeter"):
            assert engine.summaries[proc]
            for contract in engine.summaries[proc]:
                for i, general in enumerate(contract.exits):
                    for j, concrete in enumerate(contract.exits):
                        if i != j:
                            assert subsumes(
                                general, concrete, env=engine.env
                            ) is None, (proc, i, j)

    def test_perimeter_states(self):
        # 2,740 states while subsumed exits stayed in the contracts.
        result, _engine = _run_capturing_engine(perimeter.program())
        assert result.stats["engine.states"] <= 1200

    @pytest.mark.parametrize(
        "name", ["edit:perimeter@69705451", "edit:perimeter@359639757"]
    )
    def test_eviction_buys_diverging_recursion_no_rounds(self, name):
        """The disjunct cap counts appended exits, not live ones: if an
        eviction gave its slot back, these diverging edits would widen
        to 1,964 states before failing the same way."""
        record = run_one(name, mode="degrade")
        assert record.outcome == "degraded"
        assert SUMMARY_FAILURE in {d["code"] for d in record.diagnostics}
        assert record.result["stats"]["engine.states"] == 338


@pytest.mark.parametrize(
    "name,make",
    [("perimeter", perimeter.program), ("perimeter.c", csources.perimeter_c_program)]
    + [
        (
            f"crucible:{seed}+2",
            lambda seed=seed: generate_program(seed, mutations=2).program,
        )
        for seed in (12, 50, 64, 116, 129, 147, 193, 194, 268, 300)
    ],
)
def test_oracle_on_runs_whose_contracts_shrink(name, make):
    """Claims A-C hold on every curated or fuzzed run whose contracts
    lose a subsumed exit (the mutated seeds fail with summary-failure
    and take ~0.5 s each)."""
    report = Oracle().check(make(), name)
    assert report.ok, [v.to_dict() for v in report.violations]
