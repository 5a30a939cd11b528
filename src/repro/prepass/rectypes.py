"""Identification of recursive data types (paper, §5.1).

"Recursive types are identified as those associated with load
instructions involved in traversing recursive data structures.  These
loads share the property that the destination register is used to
compute the load address, a recurrence that is easily detected by
computing strongly-connected components of the reaching-definition
graph."

Each procedure's def-use edges come from one sparse walk per register
(:class:`~repro.prepass.defuse.DefUse`).  We extend them across call
boundaries (argument -> parameter, return -> call destination) so that
recursive-procedure traversals (``treeadd(t->left)``) are caught, and
take the inferred types of loads inside non-trivial SCCs.  Stores to a
recursive type mark it recursive as well (builders).
"""

from __future__ import annotations

from repro.ir.cfg import CFG, strongly_connected_components
from repro.ir.instructions import Call, Load, Return
from repro.ir.program import Program
from repro.ir.values import Register
from repro.prepass.defuse import DefUse
from repro.prepass.steensgaard import InferredType, PointerAnalysis

__all__ = ["recursive_types", "traversal_loads"]

_Node = tuple[str, int]  # (procedure name, instruction index)


def _global_def_use(program: Program) -> dict[_Node, set[_Node]]:
    """Def-use edges across the whole program.

    Interprocedural flow is routed precisely: the *definitions of an
    argument* feed the uses of the corresponding parameter, and returns
    feed the call node (which defines the destination register).
    Routing argument flow through the call node itself would compose it
    spuriously with the return flow and make every value loaded inside
    a recursion look like it computes a load address.
    """
    edges: dict[_Node, set[_Node]] = {}
    param_uses: dict[tuple[str, Register], set[_Node]] = {}
    reaching: dict[str, dict[tuple[int, Register], set[int]]] = {}
    returns: dict[str, list[_Node]] = {}
    for name, proc in program.procedures.items():
        reaching[name] = DefUse(CFG(proc)).reaching
        returns[name] = [
            (name, j)
            for j, instr in enumerate(proc.instrs)
            if isinstance(instr, Return) and instr.value is not None
        ]
        for (i, register), defs in reaching[name].items():
            for d in defs:
                edges.setdefault((name, d), set()).add((name, i))
            # Uses of parameters with no local definition reaching them
            # are fed by call sites.
            if not defs and register in proc.params:
                param_uses.setdefault((name, register), set()).add((name, i))
    for name, proc in program.procedures.items():
        for i, instr in enumerate(proc.instrs):
            if isinstance(instr, Call) and instr.func in program.procedures:
                callee = program.procedures[instr.func]
                for formal, actual in zip(callee.params, instr.args):
                    if isinstance(actual, Register):
                        targets = param_uses.get((instr.func, formal), set())
                        if not targets:
                            continue
                        arg_defs = reaching[name][i, actual]
                        if not arg_defs and actual in proc.params:
                            # The argument is itself an incoming
                            # parameter: chain through its use here.
                            param_uses.setdefault((name, actual), set()).update(
                                targets
                            )
                            continue
                        for d in arg_defs:
                            edges.setdefault((name, d), set()).update(targets)
                if instr.dst is not None:
                    for ret in returns[instr.func]:
                        edges.setdefault(ret, set()).add((name, i))
    return edges


def traversal_loads(program: Program) -> set[_Node]:
    """Loads whose destination feeds back into a load address."""
    edges = _global_def_use(program)
    loads: set[_Node] = set()
    # A node with no outgoing def-use edge lies on no cycle, so the
    # edge sources are the only nodes worth walking.
    for component, _root in strongly_connected_components(edges, edges, ()):
        nontrivial = len(component) > 1 or any(
            v in edges.get(v, ()) for v in component
        )
        if not nontrivial:
            continue
        for name, i in component:
            if isinstance(program.procedures[name].instrs[i], Load):
                loads.add((name, i))
    return loads


def recursive_types(
    program: Program, pointers: PointerAnalysis
) -> set[InferredType]:
    """The inferred types of the program's recursive data structures."""
    types: set[InferredType] = set()
    for name, i in traversal_loads(program):
        instr = program.procedures[name].instrs[i]
        assert isinstance(instr, Load)
        types.add(pointers.canonical(pointers.access_type(name, instr)))
    return types
