"""An entailment-bound stress workload (perfbench's ``entail-degrade``).

The curated Table 4 programs spend their time in folding, renaming and
synthesis; ``subsumes`` is a rounding error there, so they cannot show
what the entailment cache buys.  This program is the opposite extreme
by construction: one loop grows *K* independent lists at once (so every
abstract state carries K predicate instances plus the loop-carried
frontier cells), and *B* branch diamonds inside the body multiply the
states that meet -- and must be pairwise ``subsumes``-deduplicated --
at every join.  The resulting match searches over many
structurally-identical atoms dominate the analysis wall time, which is
exactly the workload the entailment cache exists for.

The program is ordinary, valid IR: the analysis must still converge on
the ``list`` predicate for each of the K chains and produce a passing
verdict.  ``K = 8`` / ``B = 2`` keeps a cold run under a second while
leaving enough search for cache effects to be measured reliably.
"""

from __future__ import annotations

from repro.ir import Program, parse_program

__all__ = ["STRESS_SRC", "program", "source"]


def source(lists: int = 8, diamonds: int = 2, iterations: int = 9) -> str:
    """The stress program's IR text for *lists* parallel chains and
    *diamonds* branch joins per loop body."""
    inits = "\n".join(f"    %h{i} = null" for i in range(lists))
    grow = []
    for i in range(lists):
        grow.append(f"    %p{i} = malloc()")
        grow.append(f"    [%p{i}.next] = %h{i}")
        grow.append(f"    %h{i} = %p{i}")
    forks = []
    for b in range(diamonds):
        forks.append(
            f"""
    %c{b} = [%p0.data]
    if %c{b} == null goto T{b}
    [%p{b}.mark] = null
    goto J{b}
T{b}:
    [%p{b}.mark] = %p0
J{b}:"""
        )
    return f"""
proc main():
    %n = {iterations}
{inits}
L:
    if %n <= 0 goto done
{chr(10).join(grow)}{''.join(forks)}
    %n = sub %n, 1
    goto L
done:
    return %h0
"""


#: The default stress program's source (K=8 lists, B=2 diamonds).
STRESS_SRC = source()


def program() -> Program:
    """Fresh copy of the default entailment-stress program."""
    return parse_program(STRESS_SRC)
