"""Deterministic fault injection at the engine's phase boundaries.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers.  The
plan is wired into :class:`~repro.analysis.engine.ShapeAnalysis`
through its ``engine_factory`` hook: the factory builds a
:class:`FaultyShapeEngine`, whose overridden
:meth:`~repro.analysis.interproc.ShapeEngine.phase_boundary` consults
the plan at every boundary crossing (``rearrange``, ``fold``,
``entailment``, ``synthesis``, ``tabulation``) and raises the planned
fault.  Because the boundary hook sits on the exact code paths real
failures take, an injected fault exercises precisely the containment
and exit-code machinery of the resilience layer --
chaos testing with reproducible triggers instead of wall-clock luck.

Fault kinds:

* ``"failure"`` -- raise an :class:`AnalysisFailure` with the
  documented code for the phase (a synthesis failure at the synthesis
  boundary, a stuck execution at rearrange, ...);
* ``"error"`` -- raise a bare :class:`RuntimeError` (an engine bug:
  the run fails with a fatal ``internal-error`` diagnostic in either
  mode, and the exception never escapes);
* ``"budget"`` -- raise :class:`BudgetExhausted` (never contained);
* ``"timeout"`` -- collapse the engine budget's wall-clock deadline to
  zero and trip it: from this crossing on the run behaves exactly like
  a real deadline expiry (subsequent cooperative checks fail too).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.interproc import PHASE_BOUNDARIES, ShapeEngine
from repro.analysis.resilience import (
    EXECUTION_STUCK,
    INVARIANT_FAILURE,
    STORE_INVALID,
    SUMMARY_FAILURE,
    AnalysisFailure,
    BudgetExhausted,
)
from repro.store.chaos import StoreChaos, StoreFaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultyShapeEngine",
    "StoreFaultSpec",
]

FAULT_KINDS = ("failure", "error", "budget", "timeout")

#: The documented failure code a real failure of each phase carries.
#: A "failure" injected at the store boundary models the store
#: rejecting an entry mid-consult; the engine must contain it as the
#: always-recovered ``store-invalid`` (a miss, never a verdict change).
PHASE_FAILURE_CODES = {
    "rearrange": EXECUTION_STUCK,
    "fold": INVARIANT_FAILURE,
    "entailment": SUMMARY_FAILURE,
    "synthesis": INVARIANT_FAILURE,
    "tabulation": SUMMARY_FAILURE,
    "store": STORE_INVALID,
}


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire *kind* at the *at*-th crossing of *phase*
    (1-based), or at **every** crossing when ``at`` is None."""

    phase: str
    kind: str = "failure"
    at: int | None = 1
    procedure: str | None = None

    def __post_init__(self) -> None:
        if self.phase not in PHASE_BOUNDARIES:
            raise ValueError(f"unknown phase boundary {self.phase!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass
class FaultPlan:
    """A deterministic chaos schedule.

    The plan counts boundary crossings per phase (across every engine
    it builds) and raises when a spec matches.  With no
    specs it is a pure *recorder*: ``crossings`` exposes how often each
    boundary was crossed, which the tests use to prove every boundary
    is actually exercised.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    #: Store-level damage (torn writes, checksum flips, stale schemas,
    #: mid-write kills), applied *inside* the disk layer rather than at
    #: a boundary: build the run's store with :meth:`store_chaos`.
    store_specs: list[StoreFaultSpec] = field(default_factory=list)
    crossings: dict[str, int] = field(
        default_factory=lambda: {phase: 0 for phase in PHASE_BOUNDARIES}
    )
    fired: list[str] = field(default_factory=list)

    def store_chaos(self) -> "StoreChaos | None":
        """The :class:`StoreChaos` schedule for this plan's store-level
        specs (None when there are none).  Pass it to
        ``SummaryStore(path, chaos=...)``; the schedule's ``fired`` list
        then records what actually triggered."""
        return StoreChaos(self.store_specs) if self.store_specs else None

    def on_boundary(self, engine: ShapeEngine, phase: str, procedure: str | None) -> None:
        count = self.crossings[phase] = self.crossings[phase] + 1
        for spec in self.specs:
            if spec.phase != phase:
                continue
            if spec.procedure is not None and spec.procedure != procedure:
                continue
            if spec.at is not None and spec.at != count:
                continue
            self.fired.append(f"{spec.kind}@{phase}#{count}")
            self._raise(engine, spec, phase, procedure)

    def _raise(
        self,
        engine: ShapeEngine,
        spec: FaultSpec,
        phase: str,
        procedure: str | None,
    ) -> None:
        where = procedure or "<program>"
        if spec.kind == "failure":
            raise AnalysisFailure(
                f"injected {phase} failure in {where}",
                code=PHASE_FAILURE_CODES[phase],
                phase=phase,
                procedure=procedure,
            )
        if spec.kind == "error":
            raise RuntimeError(f"injected chaos error at {phase} in {where}")
        if spec.kind == "budget":
            raise BudgetExhausted(
                f"injected budget exhaustion at {phase} in {where}",
                resource=f"injected-{phase}",
                phase=phase,
                procedure=procedure,
            )
        # kind == "timeout": make the shared budget's deadline expire
        # for real, so every later cooperative check fails exactly as
        # it would after a genuine wall-clock overrun.
        engine.budget.deadline_seconds = 0.0
        engine.budget.start()
        engine.budget.check_deadline(phase)
        raise BudgetExhausted(  # pragma: no cover - check_deadline raised
            f"injected timeout at {phase}", resource="deadline", phase=phase
        )

    # ------------------------------------------------------------------
    def engine_factory(self):
        """An ``engine_factory`` for :class:`ShapeAnalysis` that builds
        :class:`FaultyShapeEngine` instances sharing this plan."""

        def factory(*args, **kwargs):
            return FaultyShapeEngine(*args, fault_plan=self, **kwargs)

        return factory


class FaultyShapeEngine(ShapeEngine):
    """A :class:`ShapeEngine` whose phase boundaries consult a
    :class:`FaultPlan`."""

    def __init__(self, *args, fault_plan: FaultPlan, **kwargs):
        super().__init__(*args, **kwargs)
        self.fault_plan = fault_plan

    def phase_boundary(self, phase: str, procedure: str | None = None) -> None:
        self.fault_plan.on_boundary(self, phase, procedure)
