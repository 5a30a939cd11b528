"""Call graph with its strongly connected components.

Recursive procedures are recognized as non-trivial SCCs (or self-loops)
of the call graph; the interprocedural analysis treats every procedure
in such an SCC with the sample-path + recursion-synthesis protocol of
Section 5.2.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import strongly_connected_components
from repro.ir.program import Program

__all__ = ["CallGraph"]


@dataclass
class CallGraph:
    program: Program
    edges: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.edges = {
            name: {c for c in proc.callees() if c in self.program.procedures}
            for name, proc in self.program.procedures.items()
        }
        self._sccs = [
            frozenset(members)
            for members, _root in strongly_connected_components(
                self.edges, self.edges, ()
            )
        ]
        self._scc_of: dict[str, frozenset[str]] = {}
        for scc in self._sccs:
            for name in scc:
                self._scc_of[name] = scc

    # ------------------------------------------------------------------
    @property
    def sccs(self) -> list[frozenset[str]]:
        return list(self._sccs)

    def scc_of(self, name: str) -> frozenset[str]:
        return self._scc_of[name]

    def is_recursive(self, name: str) -> bool:
        """Is *name* part of a recursion (mutual or self)?"""
        scc = self._scc_of[name]
        if len(scc) > 1:
            return True
        return name in self.edges[name]

    def same_scc(self, a: str, b: str) -> bool:
        return self._scc_of[a] is self._scc_of[b]

    def topological_order(self) -> list[frozenset[str]]:
        """SCCs ordered callees-first (Tarjan emits reverse topological)."""
        return list(self._sccs)

    # -- cones ---------------------------------------------------------
    def callee_cone(self, name: str) -> frozenset[str]:
        """*name* plus every procedure transitively reachable from it.

        This is the set whose digests key the procedure's cached
        fixpoint results: a summary for ``name`` can only be replayed
        when nothing in its callee cone changed.
        """
        cones = self._callee_cones()
        return cones[name]

    def caller_cone(self, name: str) -> frozenset[str]:
        """*name* plus every procedure that transitively calls it.

        After an edit to ``name`` this is exactly the set of procedures
        whose cached fixpoints are invalidated (their callee cones all
        contain ``name``).
        """
        self._reverse_edges()
        seen = {name}
        frontier = [name]
        while frontier:
            nxt: list[str] = []
            for n in frontier:
                for caller in self._rev[n]:
                    if caller not in seen:
                        seen.add(caller)
                        nxt.append(caller)
            frontier = nxt
        return frozenset(seen)

    def cone_depth(self, names: "set[str] | frozenset[str]") -> int:
        """BFS depth (in call edges, walked caller-ward) of the union of
        the caller cones of *names*.  0 when nothing is invalidated, 1
        when only the edited procedures themselves are."""
        self._reverse_edges()
        seen = {n for n in names if n in self.edges}
        if not seen:
            return 0
        frontier = list(seen)
        depth = 1
        while frontier:
            nxt: list[str] = []
            for n in frontier:
                for caller in self._rev[n]:
                    if caller not in seen:
                        seen.add(caller)
                        nxt.append(caller)
            if nxt:
                depth += 1
            frontier = nxt
        return depth

    def _reverse_edges(self) -> dict[str, set[str]]:
        if not hasattr(self, "_rev"):
            rev: dict[str, set[str]] = {n: set() for n in self.edges}
            for caller, callees in self.edges.items():
                for callee in callees:
                    rev[callee].add(caller)
            self._rev = rev
        return self._rev

    def _callee_cones(self) -> dict[str, frozenset[str]]:
        if not hasattr(self, "_cones"):
            cones: dict[str, frozenset[str]] = {}
            # Tarjan order is callees-first, so every external callee's
            # cone is ready by the time its SCC is processed; members of
            # one SCC share a cone.
            for scc in self._sccs:
                cone: set[str] = set(scc)
                for member in scc:
                    for callee in self.edges[member]:
                        if callee not in scc:
                            cone |= cones[callee]
                frozen = frozenset(cone)
                for member in scc:
                    cones[member] = frozen
            self._cones = cones
        return self._cones
