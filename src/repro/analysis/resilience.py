"""Resilience layer: diagnostics, budgets, and failure containment.

The paper's analysis *halts and reports failure* whenever invariant
synthesis or verification fails (§3.4) -- sound, but brittle for a
batch/service setting where one pathological loop must not take down
an entire run.  This module gives failure a structure:

* a **diagnostic taxonomy** (:class:`Diagnostic`): every way the
  analysis can stop -- invariant-synthesis failure, a stuck abstract
  execution, a blown resource budget, an internal bug -- is classified
  by a stable ``code``, the pipeline ``phase``, a severity, and a
  source location (procedure and, for loops, the header index);

* a structured exception hierarchy: :class:`AnalysisFailure` (the
  paper's halt-and-report, now carrying its own taxonomy fields) and
  its subclass :class:`BudgetExhausted` (a resource cap, never
  contained -- degrade mode cannot give the budget back);

* a :class:`Budget` threaded through the engine: wall-clock deadline,
  the per-worklist state budget, and a procedure-activation depth
  guard, all checked *cooperatively* at the worklist loop and at
  procedure entry, so a runaway analysis
  terminates promptly with a ``budget-exhausted`` diagnostic instead
  of hanging or hitting Python's recursion limit.

The engine consumes these in two modes (see
:class:`~repro.analysis.interproc.ShapeEngine`):

* ``strict`` -- the paper's semantics: the first failure halts the
  whole analysis and is reported;
* ``degrade`` -- failures are *contained* at the smallest enclosing
  unit (a call site gets a havoc summary, a poisoned worklist state is
  dropped) and recorded as recovered diagnostics, so the rest of the
  program is still analyzed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "AnalysisFailure",
    "Budget",
    "BudgetExhausted",
    "Diagnostic",
    "BUDGET_EXHAUSTED",
    "CONCRETE_DIVERGENCE",
    "DIAGNOSTIC_CODES",
    "DIAGNOSTIC_PHASES",
    "EXECUTION_STUCK",
    "FRONTEND_ERROR",
    "INTERNAL_ERROR",
    "INVARIANT_FAILURE",
    "SUMMARY_FAILURE",
    "STORE_INVALID",
    "SEVERITY_ERROR",
    "SEVERITY_FATAL",
    "SEVERITY_WARNING",
    "WORKER_CRASHED",
]


# ----------------------------------------------------------------------
# Diagnostic codes (stable identifiers, used by batch drivers and CI)
# ----------------------------------------------------------------------

#: A loop-invariant hypothesis failed to synthesize or to verify.
INVARIANT_FAILURE = "invariant-failure"
#: A recursive-procedure contract failed to synthesize or stabilize.
SUMMARY_FAILURE = "summary-failure"
#: The abstract execution got stuck (e.g. a possible null dereference).
EXECUTION_STUCK = "execution-stuck"
#: A resource cap was hit: deadline, state budget, or depth guard.
BUDGET_EXHAUSTED = "budget-exhausted"
#: An unexpected exception escaped the analysis (a bug, not a result).
INTERNAL_ERROR = "internal-error"
#: The input program failed to parse, type-check, or lower.
FRONTEND_ERROR = "frontend-error"
#: The OS process running the analysis died before producing a result
#: (killed by a signal, OOM, or a torn pipe).  Emitted by *parents* --
#: the batch runner and the serve supervisor -- never by the analysis
#: itself, which cannot outlive its own process to report it.  A
#: supervisor retries the victim job a bounded number of times and
#: returns this diagnostic when retries are exhausted, so a job is
#: never silently lost.
WORKER_CRASHED = "worker-crashed"
#: The *concrete* reference interpreter exhausted its fuel or
#: call-depth allowance: the program diverged (or ran long enough that
#: we treat it as divergent).  Distinct from ``internal-error`` so a
#: differential oracle can tell "the program loops forever" apart from
#: "the interpreter itself is broken".
CONCRETE_DIVERGENCE = "concrete-divergence"
#: A durable-store entry was rejected before use -- checksum or schema
#: mismatch, a decode failure, a failed self-derivation / re-application
#: validation check, or a store I/O error (EIO, ENOSPC, permission
#: loss).  Always *recovered*: the store is an accelerator, so every
#: rejection degrades to a cache miss (the analysis recomputes), never
#: to a wrong verdict or an analysis failure.
STORE_INVALID = "store-invalid"

#: Every documented diagnostic code.  Batch drivers, the differential
#: oracle, and CI treat any code outside this tuple as a taxonomy bug.
DIAGNOSTIC_CODES = (
    INVARIANT_FAILURE,
    SUMMARY_FAILURE,
    EXECUTION_STUCK,
    BUDGET_EXHAUSTED,
    INTERNAL_ERROR,
    FRONTEND_ERROR,
    WORKER_CRASHED,
    CONCRETE_DIVERGENCE,
    STORE_INVALID,
)

#: Every documented pipeline phase a diagnostic may name: the coarse
#: phases (frontend, shape, concrete) plus the engine's internal phase
#: boundaries (see :meth:`ShapeEngine.phase_boundary`), which fault
#: injection and fine-grained diagnostics use.
DIAGNOSTIC_PHASES = (
    "frontend",
    "shape",
    "concrete",
    "serve",
    "rearrange",
    "fold",
    "entailment",
    "synthesis",
    "tabulation",
    "store",
)

SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"
SEVERITY_FATAL = "fatal"


# ----------------------------------------------------------------------
# Exceptions
# ----------------------------------------------------------------------


class AnalysisFailure(Exception):
    """The analysis halted: an invariant hypothesis failed to verify,
    the abstract execution got stuck, or a resource cap was hit.  The
    paper's analysis halts and reports failure in the same situations
    (no silent approximation).

    Instances carry the diagnostic taxonomy fields so callers can turn
    them into structured :class:`Diagnostic` records without parsing
    message strings.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = INVARIANT_FAILURE,
        phase: str = "shape",
        procedure: str | None = None,
        loop_header: int | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.phase = phase
        self.procedure = procedure
        self.loop_header = loop_header

    def to_diagnostic(self, recovered: bool = False) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            message=str(self),
            phase=self.phase,
            procedure=self.procedure,
            loop_header=self.loop_header,
            severity=SEVERITY_ERROR if recovered else SEVERITY_FATAL,
            recovered=recovered,
        )


class BudgetExhausted(AnalysisFailure):
    """A resource cap was hit.  Distinguished from other analysis
    failures because degrade mode never contains it: a havoc summary
    cannot give back an exhausted budget, so it always ends the run."""

    def __init__(
        self,
        message: str,
        *,
        resource: str,
        phase: str = "shape",
        procedure: str | None = None,
    ):
        super().__init__(
            message,
            code=BUDGET_EXHAUSTED,
            phase=phase,
            procedure=procedure,
        )
        self.resource = resource


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------


@dataclass
class Diagnostic:
    """One classified analysis event.

    ``recovered`` distinguishes a *contained* failure (degrade mode
    substituted a havoc summary or dropped a state and carried on) from
    a fatal one that ended the run.
    """

    code: str
    message: str
    phase: str = "shape"
    procedure: str | None = None
    loop_header: int | None = None
    severity: str = SEVERITY_ERROR
    recovered: bool = False
    detail: str | None = None
    #: How many times this (code, location) was contained; repeated
    #: containments are deduplicated into one record with a count.
    count: int = 1

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        phase: str = "shape",
        recovered: bool = False,
        detail: str | None = None,
    ) -> Diagnostic:
        """Classify *exc*: structured :class:`AnalysisFailure` keeps
        its own taxonomy; anything else is an ``internal-error``."""
        if isinstance(exc, AnalysisFailure):
            diagnostic = exc.to_diagnostic(recovered=recovered)
            diagnostic.detail = detail
            return diagnostic
        return cls(
            code=INTERNAL_ERROR,
            message=f"{type(exc).__name__}: {exc}",
            phase=phase,
            severity=SEVERITY_ERROR if recovered else SEVERITY_FATAL,
            recovered=recovered,
            detail=detail,
        )

    def location(self) -> str:
        """``proc`` or ``proc@header`` or ``<program>``."""
        if self.procedure is None:
            return "<program>"
        if self.loop_header is None:
            return self.procedure
        return f"{self.procedure}@{self.loop_header}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "phase": self.phase,
            "procedure": self.procedure,
            "loop_header": self.loop_header,
            "severity": self.severity,
            "recovered": self.recovered,
            "detail": self.detail,
            "count": self.count,
        }

    def __str__(self) -> str:
        mark = "contained" if self.recovered else self.severity
        return f"[{self.code}] {self.location()}: {self.message} ({mark})"


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------


@dataclass
class Budget:
    """Resource budget threaded through the engine.

    All checks are cooperative: the engine calls :meth:`charge_state`
    once per worklist pop and :meth:`enter_procedure` /
    :meth:`exit_procedure` around every procedure activation.  The
    wall-clock deadline is armed by :meth:`start` before the pre-passes,
    so it bounds the whole :class:`ShapeAnalysis` run, not just the
    engine.
    """

    #: Wall-clock deadline in seconds for the whole run (None = off).
    deadline_seconds: float | None = None
    #: Max worklist states per intraprocedural ``interpret`` call (the
    #: paper-era per-procedure cap, preserved).
    state_budget: int = 20000
    #: Max nesting depth of procedure activations (guards the engine's
    #: own recursion: a runaway sample path fails with a diagnostic
    #: long before Python's ``RecursionError``).
    max_depth: int = 96

    # -- runtime accounting -------------------------------------------
    states: int = field(default=0, init=False)
    depth: int = field(default=0, init=False)
    peak_depth: int = field(default=0, init=False)
    _started_at: float | None = field(default=None, init=False)

    def start(self) -> None:
        """Arm the deadline clock (idempotent)."""
        if self._started_at is None:
            self._started_at = time.perf_counter()

    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    @property
    def deadline_expired(self) -> bool:
        return (
            self.deadline_seconds is not None
            and self.elapsed_seconds() > self.deadline_seconds
        )

    def check_deadline(self, phase: str = "shape") -> None:
        if self.deadline_expired:
            raise BudgetExhausted(
                f"deadline of {self.deadline_seconds}s expired after "
                f"{self.elapsed_seconds():.3f}s",
                resource="deadline",
                phase=phase,
            )

    def charge_state(self) -> None:
        """One worklist state processed: count it and poll the deadline."""
        self.states += 1
        self.check_deadline()

    def enter_procedure(self, name: str) -> None:
        self.depth += 1
        if self.depth > self.max_depth:
            self.depth -= 1
            raise BudgetExhausted(
                f"procedure activation depth exceeded {self.max_depth} "
                f"entering {name}",
                resource="depth",
                procedure=name,
            )
        self.peak_depth = max(self.peak_depth, self.depth)

    def exit_procedure(self) -> None:
        self.depth -= 1

    def snapshot(self) -> dict:
        """Budget accounting for reports and ``--json`` records."""
        return {
            "states": self.states,
            "peak_depth": self.peak_depth,
            "elapsed_seconds": round(self.elapsed_seconds(), 6),
            "deadline_seconds": self.deadline_seconds,
            "state_budget": self.state_budget,
            "max_depth": self.max_depth,
        }
