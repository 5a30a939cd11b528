"""Control-flow graph utilities: successors, predecessors, reachability,
and the package's one strongly-connected-component routine.

The interprocedural algorithm (paper, Figure 8) needs to recognize when
a propagated edge is "a back edge of loop l" so it can count iterations
and trigger recursion synthesis.  No loops are computed here: the heads
of the weak topological order (:mod:`repro.prepass.wto`) are the loop
headers, for reducible and irreducible flow alike.

:func:`strongly_connected_components` is iterative, because sliced
procedures and generated programs can hold thousands of straight-line
nodes, past Python's recursion limit.  The WTO runs it over instruction
indices, the call graph over procedure names, and recursive-type
identification over def-use nodes.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

from repro.ir.program import Procedure

__all__ = ["CFG", "strongly_connected_components"]

N = TypeVar("N", bound=Hashable)


@dataclass
class CFG:
    """Instruction-granularity CFG of one procedure."""

    proc: Procedure
    succs: dict[int, tuple[int, ...]] = field(default_factory=dict)
    preds: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.proc.instrs)
        self.preds = {i: [] for i in range(n)}
        for i in range(n):
            targets = self.proc.successors(i)
            self.succs[i] = targets
            for t in targets:
                self.preds[t].append(i)

    def reachable(self) -> list[int]:
        """Instruction indices reachable from the entry, in RPO."""
        if not self.proc.instrs:
            return []
        seen = {0}
        order: list[int] = []
        # Each frame: (node, position of its next successor to visit).
        work = [(0, 0)]
        while work:
            node, i = work.pop()
            targets = self.succs[node]
            while i < len(targets) and targets[i] in seen:
                i += 1
            if i < len(targets):
                work.append((node, i + 1))
                seen.add(targets[i])
                work.append((targets[i], 0))
            else:
                order.append(node)
        order.reverse()
        return order


def strongly_connected_components(
    nodes: Iterable[N], succs: Mapping[N, Iterable[N]], entries: Iterable[N]
) -> list[tuple[list[N], N]]:
    """Iterative Tarjan over the subgraph induced by *nodes*.

    The depth-first search starts from each of *entries* in turn, then
    from every member of *nodes* it has not reached, in the order
    *nodes* lists them.  Successors come from ``succs.get(v, ())`` in
    their iteration order; those outside *nodes* are ignored.

    Returns ``(members, root)`` pairs in reverse topological order of
    the condensation; ``root`` is the first DFS-visited member and
    ``members`` lists the component in stack-pop order.
    """
    order = list(nodes)
    inside = set(order)
    index_of: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    sccs: list[tuple[list[N], N]] = []

    def visit(v: N, work: list) -> None:
        index_of[v] = lowlink[v] = len(index_of)
        stack.append(v)
        on_stack.add(v)
        # A frame: (node, its in-set successors, position in them).
        work.append((v, [s for s in succs.get(v, ()) if s in inside], 0))

    def strongconnect(start: N) -> None:
        work: list = []
        visit(start, work)
        while work:
            v, vsuccs, i = work.pop()
            while i < len(vsuccs):
                w = vsuccs[i]
                i += 1
                if w not in index_of:
                    work.append((v, vsuccs, i))
                    visit(w, work)
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            else:
                if lowlink[v] == index_of[v]:
                    members: list[N] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.append(w)
                        if w == v:
                            break
                    sccs.append((members, v))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])

    for entry in entries:
        if entry in inside and entry not in index_of:
            strongconnect(entry)
    for node in order:
        if node not in index_of:
            strongconnect(node)
    return sccs
