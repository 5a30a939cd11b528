"""End-to-end engine tests: whole programs through the full pipeline,
with exit-state and predicate-shape assertions."""

from repro.analysis import ShapeAnalysis
from repro.ir import parse_program
from repro.logic import (
    NullArg,
    ParamArg,
    PredInstance,
    RecTarget,
)


def analyze(src: str, **kwargs):
    result = ShapeAnalysis(parse_program(src), **kwargs).run()
    assert result.succeeded, result.failure
    return result


class TestLoops:
    def test_push_front_builder(self):
        result = analyze(
            """
proc main():
    %n = 10
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
"""
        )
        (pred,) = result.recursive_predicates()
        assert [s.field for s in pred.fields] == ["next"]
        assert pred.rec_calls[0].pred == pred.name

    def test_array_append_builder(self):
        result = analyze(
            """
proc main():
    %arr = malloc(100)
    %cur = %arr
    [%cur.next] = null
    %i = 0
L:
    if %i >= 99 goto done
    %nxt = add %cur, 1
    [%cur.next] = %nxt
    %cur = add %cur, 1
    [%cur.next] = null
    %i = add %i, 1
    goto L
done:
    return %arr
"""
        )
        preds = result.recursive_predicates()
        assert any([s.field for s in p.fields] == ["next"] for p in preds)

    def test_traversal_converges_with_cursor_truncation(self):
        result = analyze(
            """
proc main():
    %n = 10
    %head = null
B:
    if %n <= 0 goto walk
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto B
walk:
    %c = %head
W:
    if %c == null goto done
    %c = [%c.next]
    goto W
done:
    return %head
"""
        )
        # the final heap is the intact list
        final = [
            s
            for s in result.exit_states
            if any(isinstance(a, PredInstance) for a in s.spatial)
        ]
        assert final

    def test_in_place_reversal(self):
        result = analyze(
            """
proc main():
    %n = 10
    %head = null
B:
    if %n <= 0 goto rev
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto B
rev:
    %prev = null
R:
    if %head == null goto done
    %next = [%head.next]
    [%head.next] = %prev
    %prev = %head
    %head = %next
    goto R
done:
    return %prev
"""
        )
        (pred,) = result.recursive_predicates()
        assert [s.field for s in pred.fields] == ["next"]

    def test_doubly_linked_backward_param(self):
        result = analyze(
            """
proc main():
    %n = 10
    %head = null
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    [%p.prev] = null
    if %head == null goto skip
    [%head.prev] = %p
skip:
    %head = %p
    %n = sub %n, 1
    goto L
done:
    return %head
"""
        )
        (pred,) = result.recursive_predicates()
        by_field = {s.field: s.target for s in pred.fields}
        assert by_field["prev"] == ParamArg(1)
        assert isinstance(by_field["next"], RecTarget)
        call = pred.rec_calls[by_field["next"].index]
        assert call.args == (ParamArg(0),)  # next node's prev is this node

    def test_zero_iteration_loop_exit(self):
        result = analyze(
            """
proc main():
    %head = null
    %n = 0
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    %head = %p
    goto L
done:
    return %head
"""
        )
        # the possibly-empty outcome is covered: either an emp exit
        # survives, or it was deduplicated into the instance exit whose
        # base case covers null
        assert result.exit_states


class TestProcedures:
    def test_summary_reuse(self):
        result = analyze(
            """
proc mk():
    %p = malloc()
    [%p.next] = null
    return %p

proc main():
    %a = call mk()
    %b = call mk()
    %c = call mk()
    return %a
"""
        )
        assert result.stats["engine.summaries.reused"] >= 1

    def test_callee_effects_propagate(self):
        result = analyze(
            """
proc setnext(%p, %q):
    [%p.next] = %q
    return

proc main():
    %a = malloc()
    %b = malloc()
    [%a.next] = null
    [%b.next] = null
    call setnext(%a, %b)
    %x = [%a.next]
    return %x
"""
        )
        # after the call, a.next is b (not null): some exit must show
        # the a-cell linking to another allocated cell
        assert result.succeeded

    def test_recursive_list_builder(self):
        result = analyze(
            """
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
    %h = call build(9)
    return %h
"""
        )
        assert any(
            [s.field for s in p.fields] == ["next"]
            for p in result.recursive_predicates()
        )

    def test_mutual_recursion(self):
        result = analyze(
            """
proc even(%n):
    if %n == 0 goto yes
    %m = sub %n, 1
    %r = call odd(%m)
    return %r
yes:
    return 1

proc odd(%n):
    if %n == 0 goto no
    %m = sub %n, 1
    %r = call even(%m)
    return %r
no:
    return 0

proc main():
    %x = call even(8)
    return %x
"""
        )
        assert result.succeeded

    def test_tree_swap_preserves_shape(self):
        result = analyze(
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

proc swap(%t):
    if %t == null goto out
    %l = [%t.left]
    %r = [%t.right]
    [%t.left] = %r
    [%t.right] = %l
    %x = call swap(%r)
    %y = call swap(%l)
out:
    return %t
"""
            + """
proc main():
    %root = call build(6)
    %s = call swap(%root)
    return %s
"""
        )
        (pred,) = result.recursive_predicates()
        assert {s.field for s in pred.fields} == {"left", "right"}


class TestFailureReporting:
    def test_table_driven_construction_fails_gracefully(self):
        """The paper (§3.2): synthesis fails when code reads a table that
        specifies the data structure -- here, a loop linking nodes in a
        data-dependent (opaque-index) order.  The analysis must report
        failure rather than produce a wrong predicate."""
        result = ShapeAnalysis(
            parse_program(
                """
proc main():
    %arr = malloc(100)
    %i = 0
L:
    if %i >= 50 goto done
    %j = mul %i, 17
    %k = mod %j, 100
    %p = add %arr, %k
    %q = add %arr, %i
    [%q.next] = %p
    %i = add %i, 1
    goto L
done:
    return %arr
"""
            )
        ).run()
        # sound behaviour: either a verified invariant or a reported failure
        if not result.succeeded:
            assert "invariant" in result.failure or "stuck" in result.failure

    def test_dereference_of_uninitialized_is_reported(self):
        result = ShapeAnalysis(
            parse_program(
                """
proc main():
    %p = malloc()
    %q = [%p.next]
    %r = [%q.next]
    return
"""
            ),
            enable_slicing=False,  # slicing would prune the dead derefs
        ).run()
        assert not result.succeeded
        assert "stuck" in result.failure

    def test_failure_never_raises(self):
        # the public entry point reports, it does not throw
        result = ShapeAnalysis(
            parse_program(
                "proc main():\n    %p = null\n    %x = [%p.next]\n    return"
            ),
            enable_slicing=False,
        ).run()
        assert not result.succeeded
