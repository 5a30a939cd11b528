"""The fixpoint worklist: WTO construction, the exact worklist
trajectory on an order-sensitive fixture, StateSet dedup, and the
summary-reuse fast path.

The engine drives every procedure's worklist in weak topological
order (inner loops stabilize before their exits are released).  The
order is fully deterministic, so the nested-loop fixture below pins
its worklist counters exactly rather than against a threshold.
"""

from repro.analysis import ShapeAnalysis
from repro.ir import Register
from repro.ir.cfg import CFG
from repro.ir.textual import parse_program
from repro.logic.assertions import PointsTo, PredInstance
from repro.logic.heapnames import Var
from repro.logic.state import AbstractState
from repro.logic.stateset import StateSet, any_subsumes, content_key
from repro.logic.symvals import NULL_VAL
from repro.prepass.wto import WTOComponent, compute_wto

#: Nested loops with inner-loop case splits (the two-way branch on
#: ``[%i.next]``): several distinct states stay in flight at the inner
#: header while the outer loop keeps feeding it, so the worklist
#: trajectory depends on the visit order.  Under the WTO order the inner
#: component's arrivals funnel through its header before its exits are
#: released, so later arrivals find the invariant already synthesized.
#: The outer loop exceeds the invariant-candidate cap, so in degrade
#: mode the run reports a contained ``invariant-failure``.
FIXTURE = """
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
    %head = call build(4)
    %o = %head
O:
    if %o == null goto out
    %i = %head
I:
    if %i == null goto onext
    %v = [%i.next]
    if %v == null goto last
    %i = %v
    goto I
last:
    %i = null
    goto I
onext:
    %o = [%o.next]
    goto O
out:
    return %head
"""

# ----------------------------------------------------------------------
# WTO construction
# ----------------------------------------------------------------------


def _main_cfg(src: str) -> CFG:
    return CFG(parse_program(src).proc("main"))


def test_wto_deterministic_across_fresh_parses():
    first = compute_wto(_main_cfg(FIXTURE))
    second = compute_wto(_main_cfg(FIXTURE))
    assert first.rank == second.rank
    assert first.depth == second.depth
    assert first.heads == second.heads
    assert first.flatten() == second.flatten()


def test_wto_ranks_are_a_total_order_over_reachable_nodes():
    cfg = _main_cfg(FIXTURE)
    wto = compute_wto(cfg)
    reachable = set(cfg.reachable())
    flat = wto.flatten()
    assert set(flat) == reachable
    assert len(flat) == len(reachable)  # each node exactly once
    assert sorted(wto.rank.values()) == list(range(len(reachable)))
    # Unknown nodes sort after every real rank.
    assert wto.rank_of(10_000) == len(wto.rank)


def test_wto_nests_the_inner_loop_inside_the_outer():
    proc = parse_program(FIXTURE).proc("main")
    wto = compute_wto(CFG(proc))
    outer = proc.labels["O"]
    inner = proc.labels["I"]
    onext = proc.labels["onext"]
    out = proc.labels["out"]
    assert {outer, inner} <= set(wto.heads)
    assert wto.depth[inner] > wto.depth[outer]
    # The outer component carries the inner component in its body.
    outer_component = next(
        e
        for e in wto.elements
        if isinstance(e, WTOComponent) and e.head == outer
    )
    assert any(
        isinstance(e, WTOComponent) and e.head == inner
        for e in outer_component.elements
    )
    # Linearization releases the inner loop before the outer exit: every
    # inner-component node ranks before ``onext``, and everything in the
    # outer loop ranks before ``out``.
    inner_component = next(
        e
        for e in outer_component.elements
        if isinstance(e, WTOComponent) and e.head == inner
    )
    assert max(wto.rank[i] for i in inner_component.flatten()) < wto.rank[onext]
    assert max(wto.rank[i] for i in outer_component.flatten()) < wto.rank[out]


IRREDUCIBLE = """
proc main():
    %x = 10
    if %x <= 0 goto a
    goto b
a:
    %x = sub %x, 1
b:
    %x = sub %x, 2
    if %x <= 0 goto done
    goto a
done:
    return %x
"""


def test_wto_irreducible_cfg_falls_back_to_a_sound_total_order():
    # The {a, b} loop is entered at both ``a`` and ``b`` from outside:
    # there is no natural header.  Any head choice is sound; the WTO
    # must still rank every reachable node exactly once,
    # deterministically.
    cfg = _main_cfg(IRREDUCIBLE)
    wto = compute_wto(cfg)
    reachable = set(cfg.reachable())
    flat = wto.flatten()
    assert set(flat) == reachable
    assert len(flat) == len(reachable)
    assert wto.heads  # the multi-entry SCC still became a component
    assert compute_wto(_main_cfg(IRREDUCIBLE)).flatten() == flat
    # ... and the analysis over it halts with a diagnostic: the loop
    # never converges, and the state budget stops it.
    result = ShapeAnalysis(
        parse_program(IRREDUCIBLE),
        name="irreducible",
        mode="degrade",
        deadline_seconds=10.0,
        enable_cache=False,
    ).run()
    assert result.outcome == "failed"
    assert [d.code for d in result.diagnostics] == ["budget-exhausted"]


# ----------------------------------------------------------------------
# StateSet dedup
# ----------------------------------------------------------------------


def _cell_state() -> AbstractState:
    state = AbstractState()
    state.spatial.add(PointsTo(Var("x"), "next", NULL_VAL))
    return state


def _list_state() -> AbstractState:
    """``x = h, list(h)`` -- strictly more general than ``x = null``."""
    state = AbstractState()
    state.rho[Register("x")] = Var("h")
    state.spatial.add(PredInstance("list", (Var("h"),)))
    return state


def _null_state() -> AbstractState:
    state = AbstractState()
    state.rho[Register("x")] = NULL_VAL
    return state


def test_stateset_drops_exact_duplicates_without_queries():
    first, second = _cell_state(), _cell_state()
    assert content_key(first) == content_key(second)
    dedup = StateSet()
    assert dedup.insert_maximal(first)
    assert not dedup.insert_maximal(second)
    assert len(dedup) == 1
    assert dedup.covers(second)
    assert dedup.states() == [first]


def test_stateset_keeps_only_maximal_states():
    general = _list_state()  # list(h): covers the empty list too
    concrete = _null_state()  # the base case, strictly weaker
    dedup = StateSet()
    assert dedup.insert_maximal(concrete)
    # The more general newcomer evicts the concrete member...
    assert dedup.insert_maximal(general)
    assert dedup.states() == [general]
    # ... and the concrete state now arrives covered.
    assert not dedup.insert_maximal(concrete)
    assert len(dedup) == 1


def test_any_subsumes_matches_stateset_semantics():
    general = _list_state()
    concrete = _null_state()
    assert any_subsumes([general], concrete)
    assert not any_subsumes([concrete], general)
    assert any_subsumes([concrete], concrete)  # exact-key short circuit


# ----------------------------------------------------------------------
# Worklist trajectory
# ----------------------------------------------------------------------


def test_wto_pins_the_worklist_counters_on_the_nested_loop_fixture():
    # Cache and lemmas off: the counters pin the structural matcher's
    # trajectory; lemma-assisted invariant supersession legitimately
    # changes how many unroll rounds the fixture needs.
    result = ShapeAnalysis(
        parse_program(FIXTURE),
        name="nested-loops",
        mode="degrade",
        deadline_seconds=30.0,
        enable_cache=False,
        enable_lemmas=False,
    ).run()
    assert result.outcome == "degraded"
    assert [d.code for d in result.diagnostics] == ["invariant-failure"]
    assert result.stats["engine.worklist.revisits"] == 81
    assert result.stats["engine.worklist.pushes"] == 103


# ----------------------------------------------------------------------
# Summary reuse (the symmetric-subsumption scan)
# ----------------------------------------------------------------------

_SKIM = """
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

proc skim(%l):
    %c = %l
S:
    if %c == null goto done
    %c = [%c.next]
    goto S
done:
    return %l
"""

_REPEATED_CALL = _SKIM + """
proc main():
    %a = call build(3)
    %r1 = call skim(%a)
    %r2 = call skim(%a)
    return %a
"""

_MISMATCHED_CALL = _SKIM + """
proc main():
    %a = call build(3)
    %r1 = call skim(%a)
    %b = null
    %r2 = call skim(%b)
    return %a
"""


def _analyze(src: str):
    return ShapeAnalysis(
        parse_program(src),
        name="summary-reuse",
        mode="degrade",
        deadline_seconds=10.0,
        enable_cache=False,
    ).run()


def test_repeated_call_reuses_the_tabulated_summary():
    result = _analyze(_REPEATED_CALL)
    assert result.outcome == "pass"
    # Reuse demands entry *equivalence* -- subsumption both ways -- and
    # the second, identical call site must satisfy it.
    assert result.stats.get("engine.summaries.reused", 0) >= 1


def test_signature_mismatch_skips_the_summary_without_queries():
    repeated = _analyze(_REPEATED_CALL)
    mismatched = _analyze(_MISMATCHED_CALL)
    assert mismatched.outcome == "pass"
    # The null-entry call cannot reuse the list-entry summary (the
    # forward direction holds -- list(l) covers l = null -- but the
    # reverse does not), and the structural-signature gate must skip
    # both entailment directions outright: swapping the extra identical
    # call for the incompatible one adds no reuse and, critically, not
    # a single extra entailment query.
    assert mismatched.stats.get("engine.summaries.reused", 0) == repeated.stats.get(
        "engine.summaries.reused", 0
    )
    assert mismatched.stats.get("entailment.queries", 0) == repeated.stats.get(
        "entailment.queries", 0
    )
