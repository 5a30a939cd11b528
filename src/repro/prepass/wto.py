"""Weak topological ordering of a procedure CFG (Bourdoncle 1993).

A weak topological order (WTO) arranges the instructions of a CFG into
a hierarchy of nested *components*: every strongly connected subgraph
becomes a component with a distinguished *head*, and the component's
body is itself recursively decomposed.  Flattening the hierarchy gives
a linearization in which every edge either goes forward or returns to
the head of an enclosing component.  Driving the fixpoint worklist in
this order stabilizes inner loops before their exits are released,
which is the classic cure for the FIFO worklist's habit of
re-propagating loop bodies against half-baked invariants.

The WTO is also the engine's one notion of a loop.  Its heads are the
loop headers the paper's Figure 8 protocol counts: an edge
``src -> head`` with ``rank(src) >= rank(head)`` is a back edge
(:meth:`WeakTopologicalOrder.is_back_edge`), and states arriving over
it are unrolled and generalized into invariants.  On reducible flow
these are exactly the dominator back edges; an irreducible region
(entered at two labels) has no dominating header but still gets a
head, so it is generalized too.

The construction here follows Bourdoncle's recursive-strategy scheme,
using the iterative Tarjan pass
:func:`repro.ir.cfg.strongly_connected_components` (sliced procedures
can still contain long straight-line runs that would blow Python's
recursion limit):

1. Run Tarjan over the subgraph induced by the candidate node set,
   starting from its entry points.  Tarjan emits SCCs in reverse
   topological order; reversing yields a topological order of the
   condensation.
2. A trivial SCC (single node, no self-loop) becomes a plain element.
3. A nontrivial SCC becomes a component.  Its head is the SCC's first
   DFS-visited node -- for reducible flow this is the natural-loop
   header; for irreducible flow (gotos into loops) it is simply the
   first entry the search reached, which is still a sound choice: any
   head yields a correct WTO, only convergence speed differs.
4. The component body is ``scc - {head}``, decomposed recursively with
   the head's in-SCC successors as entries.

Everything is deterministic: successor tuples come straight from the
instruction encoding and all tie-breaks are positional, so the same
procedure always yields the same WTO, and the engine's worklist the
same trajectory (the exact worklist counters pinned by
``tests/test_wto_schedule.py`` rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import CFG, strongly_connected_components

__all__ = ["WTOComponent", "WeakTopologicalOrder", "compute_wto"]


@dataclass(frozen=True)
class WTOComponent:
    """One nontrivial component: a head index plus its nested body.

    ``elements`` holds plain instruction indices and nested
    ``WTOComponent`` instances, in linearization order.
    """

    head: int
    elements: tuple

    def flatten(self) -> list[int]:
        out = [self.head]
        for element in self.elements:
            if isinstance(element, WTOComponent):
                out.extend(element.flatten())
            else:
                out.append(element)
        return out


@dataclass(frozen=True)
class WeakTopologicalOrder:
    """The decomposition of one CFG plus derived lookup tables.

    ``rank`` maps each reachable instruction index to its position in
    the flattened linearization -- the worklist priority.  ``depth``
    maps each index to the number of components enclosing it, and
    ``heads`` is the set of component heads: the loop headers.
    """

    elements: tuple
    rank: dict[int, int]
    depth: dict[int, int]
    heads: frozenset[int]

    def flatten(self) -> list[int]:
        out: list[int] = []
        for element in self.elements:
            if isinstance(element, WTOComponent):
                out.extend(element.flatten())
            else:
                out.append(element)
        return out

    def rank_of(self, index: int) -> int:
        """Priority of *index*; unknown (unreachable) nodes sort last."""
        return self.rank.get(index, len(self.rank))

    def is_back_edge(self, src: int, dst: int) -> bool:
        """Does the edge ``src -> dst`` return to the head of a
        component enclosing *src*?  *src* must be reachable."""
        return dst in self.heads and self.rank[src] >= self.rank[dst]


def compute_wto(cfg: CFG) -> WeakTopologicalOrder:
    """Decompose *cfg* into a weak topological order."""
    n = len(cfg.proc.instrs)
    if n == 0:
        return WeakTopologicalOrder((), {}, {}, frozenset())
    nodes = set(cfg.reachable())
    elements = _decompose(cfg, nodes, [0] if 0 in nodes else [])

    rank: dict[int, int] = {}
    depth: dict[int, int] = {}
    heads: set[int] = set()

    def walk(items, level: int) -> None:
        for item in items:
            if isinstance(item, WTOComponent):
                heads.add(item.head)
                rank[item.head] = len(rank)
                depth[item.head] = level
                walk(item.elements, level + 1)
            else:
                rank[item] = len(rank)
                depth[item] = level

    walk(elements, 0)
    return WeakTopologicalOrder(tuple(elements), rank, depth, frozenset(heads))


def _decompose(cfg: CFG, nodes: set[int], entries: list[int]) -> list:
    """Recursively decompose the subgraph induced by *nodes*.

    *entries* seeds the DFS; any member of *nodes* the entries cannot
    reach (possible in already-decomposed inner bodies of irreducible
    flow) is swept up by restarting from the smallest unvisited index,
    so every node lands in the order exactly once.
    """
    if not nodes:
        return []
    sccs = strongly_connected_components(sorted(nodes), cfg.succs, entries)
    out: list = []
    for scc, root in reversed(sccs):
        if len(scc) == 1:
            (node,) = scc
            if node in cfg.succs.get(node, ()):
                # Self-loop: a one-node component (its head re-enters it).
                out.append(WTOComponent(node, ()))
            else:
                out.append(node)
            continue
        body = set(scc)
        body.discard(root)
        inner_entries = [s for s in cfg.succs.get(root, ()) if s in body]
        inner = _decompose(cfg, body, inner_entries)
        out.append(WTOComponent(root, tuple(inner)))
    return out
