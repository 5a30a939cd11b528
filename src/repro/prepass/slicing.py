"""Shape-relevance program slicing (paper, §5.1).

Starting from stores to tracked (recursive / pointer) types, the slice
pulls in every instruction contributing to a store address or stored
value, across procedure boundaries, discovering new pointer types to
track along the way.  Everything else is pruned -- the non-pointer
data fields "do not exhibit interesting recursive patterns and may
confuse recursion synthesis", and pruning is what keeps flow-sensitive
shape analysis affordable on realistic programs.

Pruned instructions are replaced by ``nop`` so labels and indices stay
stable.  Control flow (branches, gotos, returns, calls) is always
preserved; branch conditions over *pointer* values keep their inputs
(null-checks drive the unfold case analysis), while integer conditions
become non-deterministic -- precisely the abstraction the shape domain
wants for loop bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import (
    ArithOp,
    Assign,
    Branch,
    Call,
    Free,
    Goto,
    Instruction,
    Load,
    Malloc,
    Nop,
    Return,
    Store,
)
from repro.ir.program import Procedure, Program
from repro.ir.values import Register
from repro.prepass.steensgaard import InferredType, PointerAnalysis

__all__ = ["SliceResult", "slice_program"]


@dataclass
class SliceResult:
    """The pruned program plus slicing statistics."""

    program: Program
    kept: int
    pruned: int
    tracked_types: set[InferredType]

    @property
    def total(self) -> int:
        return self.kept + self.pruned


def slice_program(
    program: Program,
    pointers: PointerAnalysis,
    seed_types: set[InferredType],
) -> SliceResult:
    """Prune instructions that cannot affect recursive pointer fields."""
    needed: set[tuple[str, Register]] = set()
    #: needed registers whose definitions are not yet pulled in
    work: list[tuple[str, Register]] = []
    kept: set[tuple[str, int]] = set()
    tracked = {pointers.canonical(t) for t in seed_types}

    def need(proc: str, *operands) -> None:
        for operand in operands:
            if isinstance(operand, Register) and (proc, operand) not in needed:
                needed.add((proc, operand))
                work.append((proc, operand))

    # ------------------------------------------------------------------
    # Seeds: memory operations on pointer cells, control flow, calls.
    # ------------------------------------------------------------------
    for name, proc in program.procedures.items():
        for i, instr in enumerate(proc.instrs):
            if isinstance(instr, (Branch, Goto, Return, Call, Malloc, Free, Nop)):
                kept.add((name, i))
                if isinstance(instr, Malloc):
                    need(name, instr.count)
                if isinstance(instr, Free):
                    need(name, instr.ptr)
                if isinstance(instr, Return) and isinstance(
                    instr.value, Register
                ):
                    if pointers.is_pointer_register(name, instr.value):
                        need(name, instr.value)
                if isinstance(instr, Call):
                    for arg in instr.args:
                        if isinstance(arg, Register) and (
                            pointers.is_pointer_register(name, arg)
                        ):
                            need(name, arg)
                if isinstance(instr, Branch):
                    for operand in (instr.cond.lhs, instr.cond.rhs):
                        if isinstance(operand, Register) and (
                            pointers.is_pointer_register(name, operand)
                        ):
                            need(name, operand)
            elif isinstance(instr, (Load, Store)):
                access = pointers.access_type(name, instr)
                cell = pointers.cell_class(access)
                if pointers.is_pointer_class(cell) or (
                    pointers.canonical(access) in tracked
                ):
                    kept.add((name, i))
                    tracked.add(pointers.canonical(access))
                    need(name, instr.addr)
                    if isinstance(instr, Store):
                        need(name, instr.src)
                elif isinstance(instr.addr, Register) and not (
                    pointers.has_allocation(name, instr.addr)
                ):
                    # No allocation site flows into the address: the
                    # slice retains no other access through which the
                    # analysis could validate this dereference, so
                    # pruning it would hide a guaranteed-or-possible
                    # fault (a null or junk pointer) and unsoundly
                    # upgrade the verdict to "pass".  Keep it; the
                    # abstract execution will go stuck on it unless a
                    # guard proves it unreachable.
                    kept.add((name, i))
                    need(name, instr.addr)
                    if isinstance(instr, Store):
                        need(name, instr.src)

    # ------------------------------------------------------------------
    # Backward closure over definitions of needed registers: each needed
    # register pulls in the instructions defining it (and their
    # operands), and a needed parameter the matching argument at every
    # call site.  Both are indexed once, so the closure is linear.
    # ------------------------------------------------------------------
    defining: dict[tuple[str, Register], list[int]] = {}
    arguments: dict[tuple[str, Register], list[tuple[str, Register]]] = {}
    for name, proc in program.procedures.items():
        for i, instr in enumerate(proc.instrs):
            for register in instr.defs():
                defining.setdefault((name, register), []).append(i)
            if isinstance(instr, Call) and instr.func in program.procedures:
                callee = program.procedures[instr.func]
                for formal, actual in zip(callee.params, instr.args):
                    if isinstance(actual, Register):
                        arguments.setdefault((instr.func, formal), []).append(
                            (name, actual)
                        )
    while work:
        key = work.pop()
        name = key[0]
        for i in defining.get(key, ()):
            if (name, i) not in kept:
                kept.add((name, i))
                need(name, *program.procedures[name].instrs[i].uses())
        for caller, actual in arguments.get(key, ()):
            need(caller, actual)

    # ------------------------------------------------------------------
    # Rebuild the program with pruned instructions as nops.
    # ------------------------------------------------------------------
    pruned_program = Program(entry=program.entry, globals=program.globals)
    kept_count = 0
    pruned_count = 0
    for name, proc in program.procedures.items():
        new_instrs: list[Instruction] = []
        for i, instr in enumerate(proc.instrs):
            if (name, i) in kept:
                new_instrs.append(instr)
                if not isinstance(instr, Nop):
                    kept_count += 1
            else:
                new_instrs.append(Nop())
                pruned_count += 1
        pruned_program.add(
            Procedure(name, proc.params, new_instrs, dict(proc.labels))
        )
    pruned_program.validate()
    return SliceResult(pruned_program, kept_count, pruned_count, tracked)
