"""Tests for the CFG, its weak topological order (loop heads and back
edges), and the call graph."""

from repro.ir import CFG, CallGraph, parse_program
from repro.prepass.wto import compute_wto


def _cfg(src: str, proc: str = "main") -> CFG:
    return CFG(parse_program(src).proc(proc))


class TestCFG:
    def test_straight_line_has_no_back_edges(self):
        cfg = _cfg("proc main():\n    %x = null\n    return")
        wto = compute_wto(cfg)
        assert wto.heads == frozenset()
        assert not wto.is_back_edge(0, 1)

    def test_single_loop(self):
        cfg = _cfg(
            """
proc main():
    %n = 3
L:
    if %n <= 0 goto out
    %n = sub %n, 1
    goto L
out:
    return
"""
        )
        wto = compute_wto(cfg)
        back_edges = [
            (tail, head)
            for tail in cfg.reachable()
            for head in cfg.succs[tail]
            if wto.is_back_edge(tail, head)
        ]
        assert len(back_edges) == 1
        tail, header = back_edges[0]
        assert wto.heads == {header}
        assert wto.depth[tail] == wto.depth[header] + 1

    def test_nested_loops_two_headers(self):
        proc = parse_program(
            """
proc main():
    %i = 3
outer:
    if %i <= 0 goto out
    %j = 3
inner:
    if %j <= 0 goto next
    %j = sub %j, 1
    goto inner
next:
    %i = sub %i, 1
    goto outer
out:
    return
"""
        ).proc("main")
        wto = compute_wto(CFG(proc))
        outer, inner = proc.labels["outer"], proc.labels["inner"]
        assert wto.heads == {outer, inner}
        assert wto.depth[inner] > wto.depth[outer]  # inner strictly nested

    def test_innermost_loop(self):
        proc = parse_program(
            """
proc main():
    %i = 3
outer:
    if %i <= 0 goto out
inner:
    if %i == 1 goto next
    goto inner
next:
    %i = sub %i, 1
    goto outer
out:
    return
"""
        ).proc("main")
        wto = compute_wto(CFG(proc))
        inner = proc.labels["inner"]
        # The innermost head is the deepest one; its own goto is the
        # innermost loop's back edge.
        assert max(wto.heads, key=wto.depth.__getitem__) == inner
        assert wto.is_back_edge(inner + 1, inner)

    def test_entry_dominates_everything(self):
        cfg = _cfg(
            """
proc main():
    if %x == null goto a
    goto b
a:
    return
b:
    return
"""
        )
        # The entry ranks first, and every reachable node is ranked.
        wto = compute_wto(cfg)
        assert wto.flatten()[0] == 0
        assert set(wto.rank) == set(cfg.reachable()) == {0, 1, 2, 3}

    def test_unreachable_code_tolerated(self):
        cfg = _cfg(
            """
proc main():
    return
    %x = null
    return
"""
        )
        assert 1 not in cfg.reachable()
        assert 1 not in compute_wto(cfg).rank

    def test_reachable_survives_deep_straight_line(self):
        # One frame per instruction would pass Python's recursion limit.
        body = "".join(f"    %x{i} = null\n" for i in range(3000))
        cfg = _cfg(f"proc main():\n{body}    return")
        assert cfg.reachable() == list(range(3001))


class TestCallGraph:
    SRC = """
proc a(%x):
    %r = call b(%x)
    return %r

proc b(%x):
    %r = call a(%x)
    return %r

proc leaf(%x):
    return %x

proc selfrec(%x):
    %r = call selfrec(%x)
    return %r

proc main():
    %r = call a(null)
    %s = call leaf(null)
    %t = call selfrec(null)
    return
"""

    def test_mutual_recursion_one_scc(self):
        cg = CallGraph(parse_program(self.SRC))
        assert cg.scc_of("a") == cg.scc_of("b") == frozenset({"a", "b"})
        assert cg.is_recursive("a") and cg.is_recursive("b")

    def test_self_recursion_detected(self):
        cg = CallGraph(parse_program(self.SRC))
        assert cg.is_recursive("selfrec")
        assert cg.scc_of("selfrec") == frozenset({"selfrec"})

    def test_leaf_not_recursive(self):
        cg = CallGraph(parse_program(self.SRC))
        assert not cg.is_recursive("leaf")
        assert not cg.is_recursive("main")

    def test_topological_order_callees_first(self):
        cg = CallGraph(parse_program(self.SRC))
        order = cg.topological_order()
        main_index = order.index(frozenset({"main"}))
        ab_index = order.index(frozenset({"a", "b"}))
        assert ab_index < main_index

    def test_deep_call_chain_needs_no_recursion(self):
        # main -> p1 -> ... -> p1500: one DFS frame per procedure would
        # pass Python's recursion limit.
        procs = "".join(
            f"proc p{i}():\n    %r = call p{i + 1}()\n    return %r\n\n"
            for i in range(1, 1500)
        )
        cg = CallGraph(
            parse_program(
                "proc main():\n    %r = call p1()\n    return %r\n\n"
                + procs
                + "proc p1500():\n    return null\n"
            )
        )
        order = cg.topological_order()
        assert len(order) == 1501
        assert order[0] == frozenset({"p1500"})
        assert order[-1] == frozenset({"main"})
        assert not cg.is_recursive("main")
