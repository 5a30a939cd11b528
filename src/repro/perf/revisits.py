"""The WTO revisit-count fixture and its measurement.

On a nested-loop fixture, driving the fixpoint worklist in weak
topological order must strictly reduce ``engine.worklist.revisits``
relative to the naive FIFO order, with the analysis reaching the
identical outcome;
``tests/test_wto_schedule.py::test_wto_strictly_reduces_revisits_on_the_nested_loop_fixture``
asserts exactly that on :func:`measure`.

The fixture is chosen with care.  On programs whose loops converge in
one synthesis round the trajectory is *schedule-independent*: every
back-edge arrival meets the same invariant list whichever order blocks
are popped, so pushes -- and therefore revisits -- coincide exactly
(all eleven suite benchmarks behave this way).  Divergence requires an
arrival that *races* invariant synthesis at its header: an inner loop
whose case splits (here, the two-way branch on ``[%i.next]``) keep
several distinct states in flight while an outer loop keeps feeding
the inner header.  Under WTO the inner component's arrivals funnel
through the header before its exits are released, so later arrivals
find the invariant already synthesized and converge without a push;
under FIFO they arrive interleaved with downstream work, before
synthesis, and are pushed as extra unroll rounds.  The counts are
fully deterministic (both schedules break ties positionally) and
independent of the build size, so the test pins exact behaviour, not a
flaky threshold.

The fixture's outer loop deliberately exceeds the invariant-candidate
cap, so in ``degrade`` mode both runs report the same contained
``invariant-failure`` diagnostic -- the containment path is part of
what the differential holds fixed across schedules.
"""

from __future__ import annotations

__all__ = ["FIXTURE", "measure"]

#: Nested loops with inner-loop case splits: the smallest program we
#: know of whose worklist trajectory depends on the schedule.
FIXTURE = """
proc build(%n):
    %head = null
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto L
done:
    return %head

proc main():
    %head = call build(4)
    %o = %head
O:
    if %o == null goto out
    %i = %head
I:
    if %i == null goto onext
    %v = [%i.next]
    if %v == null goto last
    %i = %v
    goto I
last:
    %i = null
    goto I
onext:
    %o = [%o.next]
    goto O
out:
    return %head
"""


def measure(deadline: float | None = 30.0) -> dict:
    """Analyze the fixture under both schedules; return the counters."""
    from repro.analysis import ShapeAnalysis
    from repro.ir.textual import parse_program

    program = parse_program(FIXTURE)
    out: dict = {}
    for schedule in ("wto", "fifo"):
        # Lemma synthesis is disabled: the test pins the exact worklist
        # trajectory of the structural matcher, and lemma-assisted
        # invariant supersession legitimately changes how many unroll
        # rounds each schedule needs on this fixture.
        result = ShapeAnalysis(
            program,
            name=f"revisits-{schedule}",
            mode="degrade",
            deadline_seconds=deadline,
            enable_cache=False,
            enable_lemmas=False,
            schedule=schedule,
        ).run()
        out[schedule] = {
            "outcome": result.outcome,
            "revisits": result.stats.get("engine.worklist.revisits", 0),
            "pushes": result.stats.get("engine.worklist.pushes", 0),
        }
    return out
