"""Low-level IR substrate: the paper's Table 1 target language.

Public surface:

* values: :class:`Register`, :class:`Global`, :class:`Null` (``NULL``),
  :class:`IntConst`
* instructions: :class:`Assign`, :class:`ArithOp`, :class:`Malloc`,
  :class:`Free`, :class:`Load`, :class:`Store`, :class:`Call`,
  :class:`Return`, :class:`Goto`, :class:`Branch`, :class:`Cond`
* containers: :class:`Procedure`, :class:`Program`
* construction: :class:`ProcBuilder`, :class:`ProgramBuilder`,
  :func:`parse_program`, :func:`print_program`
* graphs: :class:`CFG`, :class:`CallGraph`
"""

from repro.ir.builder import ProcBuilder, ProgramBuilder
from repro.ir.callgraph import CallGraph
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    ARITH_OPS,
    COMPARE_OPS,
    ArithOp,
    Assign,
    Branch,
    Call,
    Cond,
    Free,
    Goto,
    Instruction,
    Load,
    Malloc,
    Nop,
    Return,
    Store,
)
from repro.ir.program import IRError, Procedure, Program
from repro.ir.textual import ParseError, parse_program, print_program
from repro.ir.values import NULL, Global, IntConst, Null, Operand, Register

__all__ = [
    "ARITH_OPS",
    "COMPARE_OPS",
    "ArithOp",
    "Assign",
    "Branch",
    "CFG",
    "Call",
    "CallGraph",
    "Cond",
    "Free",
    "Global",
    "Goto",
    "Instruction",
    "IntConst",
    "IRError",
    "Load",
    "Malloc",
    "NULL",
    "Nop",
    "Null",
    "Operand",
    "ParseError",
    "ProcBuilder",
    "Procedure",
    "Program",
    "ProgramBuilder",
    "Register",
    "Return",
    "Store",
    "parse_program",
    "print_program",
]
