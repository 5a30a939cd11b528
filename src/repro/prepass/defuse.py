"""Def-use chains and liveness of a procedure's registers, from one
sparse walk per register.

Recursive types are found from SCCs of the *reaching-definition graph*
(paper, §5.1): each definition of a register is linked to the uses it
reaches.  ``foldT`` merges only locations no live register points to
(§4), so the engine also needs the registers live at each point.  Both
facts come from the same walk, and no instruction keeps a set of every
definition that reaches it.  For each register used in the procedure:

1. Walk backward from its uses over ``cfg.preds``, stopping at its
   definitions.  The nodes reached are where it is live on entry; their
   predecessors are where it is live on exit.
2. Walk forward from each of its definitions over that region only,
   stopping at the next definition.  The uses reached are the uses the
   definition reaches.

Every path counts, not only those from the entry, so unreachable
instructions get facts too.
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.values import Register

__all__ = ["DefUse"]


class DefUse:
    """Reaching definitions at every register use, and live registers
    at every instruction, of ``cfg.proc``."""

    def __init__(self, cfg: CFG) -> None:
        instrs = cfg.proc.instrs
        uses: dict[Register, list[int]] = {}
        definitions: dict[Register, set[int]] = {}
        for i, instr in enumerate(instrs):
            for register in instr.uses():
                uses.setdefault(register, []).append(i)
            for register in instr.defs():
                definitions.setdefault(register, set()).add(i)
        #: ``reaching[i, r]``: the definitions of ``r`` that reach its
        #: use at instruction ``i`` (empty when none does).
        self.reaching: dict[tuple[int, Register], set[int]] = {}
        self.live_in: list[set[Register]] = [set() for _ in instrs]
        self.live_out: list[set[Register]] = [set() for _ in instrs]
        for register, sites in uses.items():
            defs = definitions.get(register, set())
            live = set(sites)
            work = list(sites)
            while work:
                node = work.pop()
                self.live_in[node].add(register)
                for p in cfg.preds[node]:
                    self.live_out[p].add(register)
                    if p not in defs and p not in live:
                        live.add(p)
                        work.append(p)
            reaching = {u: set() for u in sites}
            for d in defs:
                work = [s for s in cfg.succs[d] if s in live]
                seen = set(work)
                while work:
                    node = work.pop()
                    if node in reaching:
                        reaching[node].add(d)
                    if node in defs:
                        continue
                    for s in cfg.succs[node]:
                        if s in live and s not in seen:
                            seen.add(s)
                            work.append(s)
            for u, found in reaching.items():
                self.reaching[u, register] = found
