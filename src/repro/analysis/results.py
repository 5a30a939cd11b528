"""Analysis results: inferred data types, timing breakdown, statistics.

This is the information Table 4 of the paper reports per benchmark:
the recursive data type the analysis inferred, the instruction count,
and the time split between the pointer-analysis pre-pass, slicing, and
the shape phase proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.predicates import PredicateDef, PredicateEnv
from repro.logic.state import AbstractState
from repro.analysis.resilience import STORE_INVALID, Diagnostic

__all__ = ["AnalysisResult"]


@dataclass
class AnalysisResult:
    """Everything a run of the full pipeline produces."""

    benchmark: str
    instruction_count: int
    pointer_seconds: float
    slicing_seconds: float
    shape_seconds: float
    env: PredicateEnv
    exit_states: list[AbstractState]
    kept_instructions: int = 0
    pruned_instructions: int = 0
    failure: str | None = None
    #: ``"strict"`` or ``"degrade"`` -- the mode the run used.
    mode: str = "strict"
    #: Structured record of every failure, contained or fatal.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: How many engine runs the analysis made: always 1 (the record
    #: key is kept for report readers).
    attempts: int = 1
    #: Budget accounting (states, peak depth, elapsed, caps).
    budget_stats: dict = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)
    #: verified loop invariants: (procedure, header index) -> states
    loop_invariants: dict[tuple[str, int], list[AbstractState]] = field(
        default_factory=dict
    )
    #: procedure summaries: name -> list of (entry state, exit states)
    summaries: dict[str, list[tuple[AbstractState, list[AbstractState]]]] = (
        field(default_factory=dict)
    )

    @property
    def succeeded(self) -> bool:
        return self.failure is None

    @property
    def degraded(self) -> bool:
        """The run completed, but only by containing failures.

        ``store-invalid`` diagnostics are excluded: a rejected durable-
        store entry degrades to a cache *miss* -- the analysis recomputes
        exactly what it would have computed with no store attached -- so
        it must not degrade the *verdict* (store-on and store-off runs
        must agree on outcomes, which the crucible differential gate
        enforces)."""
        return self.succeeded and any(
            d.recovered and d.code != STORE_INVALID for d in self.diagnostics
        )

    @property
    def outcome(self) -> str:
        """``"pass"``, ``"degraded"`` or ``"failed"`` -- the coarse
        classification batch drivers aggregate on."""
        if not self.succeeded:
            return "failed"
        return "degraded" if self.degraded else "pass"

    def to_record(self) -> dict:
        """JSON-serializable summary for batch reports and bench logs."""
        return {
            "benchmark": self.benchmark,
            "outcome": self.outcome,
            "mode": self.mode,
            "failure": self.failure,
            "attempts": self.attempts,
            "instruction_count": self.instruction_count,
            "pointer_seconds": round(self.pointer_seconds, 6),
            "slicing_seconds": round(self.slicing_seconds, 6),
            "shape_seconds": round(self.shape_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "recursive_predicates": len(self.recursive_predicates()),
            "loop_invariants": len(self.loop_invariants),
            "summaries": sum(len(v) for v in self.summaries.values()),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "budget": dict(self.budget_stats),
            "stats": dict(self.stats),
        }

    @property
    def total_seconds(self) -> float:
        return self.pointer_seconds + self.slicing_seconds + self.shape_seconds

    def predicates(self) -> list[PredicateDef]:
        return list(self.env)

    def recursive_predicates(self) -> list[PredicateDef]:
        """Predicates with at least one recursive call (the inferred
        data types of Table 4's second column)."""
        return [d for d in self.env if d.rec_calls]

    def describe_invariants(self) -> str:
        """Human-readable dump of the inferred loop invariants and
        procedure summaries (everything the paper says the analysis
        infers from scratch)."""
        lines = []
        for (proc, header), states in sorted(
            self.loop_invariants.items(), key=lambda kv: kv[0]
        ):
            lines.append(f"loop {proc}@{header}:")
            for state in states:
                lines.append(f"    {state}")
        for name, entries in sorted(self.summaries.items()):
            for entry, exits in entries:
                lines.append(f"proc {name}:")
                lines.append(f"    requires  {entry}")
                for exit_state in exits:
                    lines.append(f"    ensures   {exit_state}")
        return "\n".join(lines)

    def describe(self) -> str:
        lines = [f"benchmark: {self.benchmark}"]
        lines.append(f"#insts:    {self.instruction_count}")
        lines.append(
            "time (s):  pointer={:.4f} slicing={:.4f} shape={:.4f}".format(
                self.pointer_seconds, self.slicing_seconds, self.shape_seconds
            )
        )
        if self.failure is not None:
            lines.append(f"FAILED: {self.failure}")
        else:
            if self.degraded:
                lines.append(
                    f"DEGRADED: {sum(d.recovered for d in self.diagnostics)} "
                    f"contained failure(s)"
                )
            lines.append("inferred data types:")
            for definition in self.recursive_predicates():
                lines.append(f"  {definition}")
        for diagnostic in self.diagnostics:
            lines.append(f"  diagnostic: {diagnostic}")
        return "\n".join(lines)
