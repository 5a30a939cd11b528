"""Extra CFG coverage: irreducible-ish shapes, dominance of WTO heads,
reachability ordering.

The CFG computes no dominators; the loop headers are the heads of the
weak topological order.  ``_dominates`` is a brute-force reference (no
path from the entry to *b* avoids *a*) that checks the WTO's heads
against the classical notion on reducible flow."""

from repro.ir import CFG, parse_program
from repro.prepass.wto import WTOComponent, compute_wto


def cfg_of(src: str) -> CFG:
    return CFG(parse_program(src).proc("main"))


def _dominates(cfg: CFG, a: int, b: int) -> bool:
    if a == b or a == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for s in cfg.succs[node]:
            if s != a and s not in seen:
                seen.add(s)
                frontier.append(s)
    return b not in seen


def _component(elements, head: int) -> WTOComponent:
    for element in elements:
        if isinstance(element, WTOComponent):
            if element.head == head:
                return element
            try:
                return _component(element.elements, head)
            except LookupError:
                pass
    raise LookupError(head)


COUNTDOWN = """
proc main():
    %n = 3
L:
    if %n <= 0 goto out
    %n = sub %n, 1
    goto L
out:
    return
"""


class TestDominance:
    def test_diamond_join_dominated_by_fork_only(self):
        proc = parse_program(
            """
proc main():
    if %x == null goto a
    %y = 1
    goto join
a:
    %y = 2
join:
    return %y
"""
        ).proc("main")
        cfg = CFG(proc)
        join = proc.labels["join"]
        assert _dominates(cfg, 0, join)
        # neither arm dominates the join
        assert not _dominates(cfg, 1, join)
        assert not _dominates(cfg, proc.labels["a"], join)
        # Acyclic: no heads, and the join ranks after both arms.
        wto = compute_wto(cfg)
        assert wto.heads == frozenset()
        assert wto.rank[join] > max(wto.rank[1], wto.rank[proc.labels["a"]])

    def test_loop_header_dominates_body(self):
        cfg = cfg_of(COUNTDOWN)
        wto = compute_wto(cfg)
        (header,) = wto.heads
        body = _component(wto.elements, header).flatten()
        assert len(body) > 1
        for node in body:
            assert _dominates(cfg, header, node)

    def test_two_back_edges_one_header_merge(self):
        cfg = cfg_of(
            """
proc main():
    %n = 9
L:
    if %n == 0 goto out
    if %n == 1 goto half
    %n = sub %n, 2
    goto L
half:
    %n = sub %n, 1
    goto L
out:
    return
"""
        )
        wto = compute_wto(cfg)
        assert len(wto.heads) == 1
        (header,) = wto.heads
        tails = [p for p in cfg.preds[header] if wto.is_back_edge(p, header)]
        assert len(tails) == 2

    def test_reachable_is_rpo_prefix_entry(self):
        cfg = cfg_of(
            """
proc main():
    goto b
a:
    return
b:
    goto a
"""
        )
        order = cfg.reachable()
        assert order[0] == 0

    def test_is_back_edge_queries(self):
        cfg = cfg_of(COUNTDOWN)
        wto = compute_wto(cfg)
        (header,) = wto.heads
        (tail,) = [p for p in cfg.preds[header] if wto.is_back_edge(p, header)]
        assert wto.is_back_edge(tail, header)
        assert not wto.is_back_edge(header, tail)
        # The loop's entry edge is forward.
        assert not wto.is_back_edge(0, header)
