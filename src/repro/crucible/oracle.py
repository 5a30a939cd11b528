"""Differential soundness oracle: analysis vs. concrete execution.

Runs the strict-mode shape analysis and the concrete reference
interpreter on the *same* program and cross-checks three claims:

* **claim A (pass implies safe)** -- if the strict analysis reports
  ``pass``, the concrete execution must not hit a memory fault (null
  dereference, use-after-free, out-of-region access).  The paper's
  soundness theorem in differential form.
* **claim B (predicates model the heap)** -- every complete predicate
  instance the analysis claims of the returned value (in some exit
  state) must actually :func:`~repro.logic.model.satisfies` the final
  concrete heap.  Exit states are disjuncts: at least one must match
  the concrete outcome.
* **claim C (diagnostic taxonomy)** -- a strict-mode failure must
  carry a documented diagnostic code and phase for the stage that
  failed (:data:`~repro.analysis.resilience.DIAGNOSTIC_CODES` /
  ``DIAGNOSTIC_PHASES``), with a fatal severity.  Failures are allowed;
  *unclassified* failures are not.
* **claim D (lemma monotonicity)** -- synthesized bridging lemmas
  (:mod:`repro.logic.lemmas`) may only *add* passes.  Whenever the
  lemma-assisted analysis does not report ``pass``, the program is
  re-analyzed with lemmas disabled; a structural ``pass`` that the
  lemma-assisted run lost is a violation.  (The converse -- a
  lemma-*assisted* pass -- is concretely cross-checked by claims A
  and B against the reference interpreter, so both directions of the
  differential are covered.)

Additionally, an interpreter error that is neither a memory fault nor
a structured divergence (:class:`~repro.concrete.interp.FuelExhausted`)
is reported as an ``interpreter-health`` violation: the reference
semantics itself misbehaved.

The oracle's pieces are injectable (``analyze`` / ``execute``) so the
test suite can exercise the violation paths without needing a real
unsoundness in the analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import ShapeAnalysis
from repro.analysis.interproc import RET_REGISTER
from repro.analysis.resilience import (
    DIAGNOSTIC_CODES,
    DIAGNOSTIC_PHASES,
    SEVERITY_FATAL,
)
from repro.analysis.results import AnalysisResult
from repro.concrete import Interpreter
from repro.concrete.heap import MemoryError_
from repro.concrete.interp import FuelExhausted, InterpreterError
from repro.ir.program import Program
from repro.logic.model import ModelError, satisfies
from repro.logic.symvals import NullVal, OffsetVal, Opaque

__all__ = ["ConcreteOutcome", "Oracle", "OracleReport", "Violation"]


@dataclass
class Violation:
    """One broken oracle claim."""

    claim: str
    message: str

    def to_dict(self) -> dict:
        return {"claim": self.claim, "message": self.message}


@dataclass
class ConcreteOutcome:
    """What one concrete run did: ``status`` is ``ok`` / ``fault`` /
    ``diverged`` / ``interpreter-error``."""

    status: str
    value: int = 0
    steps: int = 0
    cells: dict[int, dict[str, int]] = field(default_factory=dict)
    reachable: set[int] = field(default_factory=set)
    error: str | None = None
    diagnostic: dict | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "value": self.value,
            "steps": self.steps,
            "cells": len(self.cells),
            "error": self.error,
            "diagnostic": self.diagnostic,
        }


@dataclass
class OracleReport:
    """The oracle's verdict on one program."""

    name: str
    analysis_outcome: str
    analysis_failure: str | None
    diagnostic_codes: list[str]
    concrete: ConcreteOutcome
    violations: list[Violation] = field(default_factory=list)
    #: ``entailment.lemma.applied`` of the analysis run: how many
    #: subsumption witnesses used a synthesized lemma.  Non-zero on a
    #: ``pass`` marks a lemma-assisted verdict (concretely checked by
    #: claims A/B).
    lemmas_applied: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "analysis_outcome": self.analysis_outcome,
            "analysis_failure": self.analysis_failure,
            "diagnostic_codes": self.diagnostic_codes,
            "concrete": self.concrete.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "lemmas_applied": self.lemmas_applied,
        }


class Oracle:
    """Differential checker; one instance is reusable across programs."""

    def __init__(
        self,
        *,
        fuel: int = 200_000,
        deadline_seconds: float | None = 20.0,
        state_budget: int = 20000,
        documented_codes: frozenset[str] = frozenset(DIAGNOSTIC_CODES),
        documented_phases: frozenset[str] = frozenset(DIAGNOSTIC_PHASES),
        analyze: "Callable[[Program, str], AnalysisResult] | None" = None,
        execute: "Callable[[Program], ConcreteOutcome] | None" = None,
    ):
        self.fuel = fuel
        self.deadline_seconds = deadline_seconds
        self.state_budget = state_budget
        self.documented_codes = documented_codes
        self.documented_phases = documented_phases
        #: With an injected ``analyze`` the oracle cannot re-run the
        #: analysis under a different lemma setting, so claim D only
        #: fires on the default analyzer.
        self._custom_analyze = analyze is not None
        self._analyze = analyze or self._default_analyze
        self._execute = execute or self._default_execute

    # ------------------------------------------------------------------
    def _default_analyze(
        self, program: Program, name: str, *, enable_lemmas: bool = True
    ) -> AnalysisResult:
        return ShapeAnalysis(
            program,
            name=name,
            mode="strict",
            deadline_seconds=self.deadline_seconds,
            state_budget=self.state_budget,
            enable_lemmas=enable_lemmas,
        ).run()

    def _default_execute(self, program: Program) -> ConcreteOutcome:
        try:
            interp = Interpreter(program, fuel=self.fuel)
            run = interp.run()
        except MemoryError_ as exc:
            return ConcreteOutcome(status="fault", error=str(exc))
        except FuelExhausted as exc:
            return ConcreteOutcome(
                status="diverged",
                steps=exc.steps,
                error=str(exc),
                diagnostic=exc.to_diagnostic().to_dict(),
            )
        except (InterpreterError, RecursionError, ZeroDivisionError) as exc:
            return ConcreteOutcome(
                status="interpreter-error",
                error=f"{type(exc).__name__}: {exc}",
            )
        return ConcreteOutcome(
            status="ok",
            value=run.value,
            steps=run.steps,
            cells=run.heap.snapshot(),
            reachable=run.heap.reachable_from(run.value),
        )

    # ------------------------------------------------------------------
    def check(self, program: Program, name: str = "program") -> OracleReport:
        """Run both sides and compare (the whole differential loop)."""
        result = self._analyze(program, name)
        concrete = self._execute(program)
        report = self.compare(result, concrete, name=name)
        report.lemmas_applied = int(
            result.stats.get("entailment.lemma.applied", 0)
        )
        if result.outcome != "pass" and not self._custom_analyze:
            report.violations.extend(self._claim_d(program, name, result))
        return report

    def compare(
        self,
        result: AnalysisResult,
        concrete: ConcreteOutcome,
        name: str = "program",
    ) -> OracleReport:
        """Cross-check the three claims on already-computed halves."""
        violations: list[Violation] = []
        if concrete.status == "interpreter-error":
            violations.append(
                Violation(
                    "interpreter-health",
                    f"reference interpreter misbehaved: {concrete.error}",
                )
            )
        if result.outcome == "pass":
            violations.extend(self._claim_a(concrete))
            violations.extend(self._claim_b(result, concrete))
        else:
            violations.extend(self._claim_c(result))
        return OracleReport(
            name=name,
            analysis_outcome=result.outcome,
            analysis_failure=result.failure,
            diagnostic_codes=sorted({d.code for d in result.diagnostics}),
            concrete=concrete,
            violations=violations,
        )

    # -- claim A -------------------------------------------------------
    def _claim_a(self, concrete: ConcreteOutcome) -> list[Violation]:
        if concrete.status == "fault":
            return [
                Violation(
                    "pass-implies-safe",
                    "strict analysis passed but the concrete execution "
                    f"faulted: {concrete.error}",
                )
            ]
        return []

    # -- claim B -------------------------------------------------------
    def _claim_b(
        self, result: AnalysisResult, concrete: ConcreteOutcome
    ) -> list[Violation]:
        """At least one exit-state disjunct must match the concrete
        final heap.  Each disjunct is checked as far as its claims are
        concretizable: the return value's nullness, a complete
        predicate instance rooted at it (via :func:`satisfies`), or an
        explicit points-to graph.  A disjunct with claims the check
        cannot concretize (truncations, symbolic arguments, pointer
        arithmetic) *might* match, so its presence blocks any verdict
        -- the oracle only reports a violation when every disjunct is
        checkable and every one of them is refuted."""
        if concrete.status != "ok" or not result.exit_states:
            return []
        checked_any = False
        for state in result.exit_states:
            verdict = self._disjunct_matches(result, state, concrete)
            if verdict is None:
                return []  # an uncheckable disjunct might match
            if verdict:
                return []  # this disjunct describes the real heap
            checked_any = True
        if not checked_any:
            return []
        return [
            Violation(
                "predicates-model-heap",
                "no exit-state disjunct matches the concrete final heap "
                f"(returned {concrete.value}, "
                f"{len(concrete.cells)} cells live)",
            )
        ]

    def _disjunct_matches(
        self, result: AnalysisResult, state, concrete: ConcreteOutcome
    ) -> bool | None:
        """True/False when the disjunct's return-value claim can be
        checked against the concrete heap; None when it cannot."""
        ret = state.rho.get(RET_REGISTER)
        if ret is None:
            return None  # no claim made about the return value
        ret = state.resolve(ret)
        if isinstance(ret, NullVal):
            return concrete.value == 0
        instance = state.spatial.instance_rooted_at(ret)
        if instance is not None:
            if instance.truncs:
                return None
            # A complete instance covers the base case too, so a run
            # that returned 0 is checked against it (root 0, empty
            # footprint) rather than special-cased.
            concrete_args = [concrete.value]
            for arg in instance.args[1:]:
                if not isinstance(arg, NullVal):
                    return None  # symbolic argument: not concretizable
                concrete_args.append(0)
            try:
                footprint = satisfies(
                    result.env,
                    instance.pred,
                    tuple(concrete_args),
                    concrete.cells,
                )
            except ModelError:
                return False  # arity/definition mismatch: cannot hold
            return footprint is not None
        return self._points_to_graph_matches(state, ret, concrete)

    def _points_to_graph_matches(
        self, state, ret, concrete: ConcreteOutcome
    ) -> bool | None:
        """Match a disjunct's explicit points-to facts, rooted at the
        returned value, against the concrete cells."""
        binding = {ret: concrete.value}
        queue = [ret]
        seen = set()
        checked = False
        while queue:
            symbolic = queue.pop()
            if symbolic in seen:
                continue
            seen.add(symbolic)
            atoms = state.spatial.points_to_from(symbolic)
            if not atoms:
                continue
            address = binding[symbolic]
            if address == 0 or address not in concrete.cells:
                return False  # claims a cell where none exists
            node = concrete.cells[address]
            for atom in atoms:
                target = state.resolve(atom.target)
                if isinstance(target, Opaque):
                    continue  # untracked data: any value matches
                if isinstance(target, OffsetVal):
                    return None  # pointer arithmetic: out of scope
                value = node.get(atom.field, 0)
                checked = True
                if isinstance(target, NullVal):
                    if value != 0:
                        return False
                elif target in binding:
                    if binding[target] != value:
                        return False
                else:
                    binding[target] = value
                    queue.append(target)
        return True if checked else None

    # -- claim D -------------------------------------------------------
    def _claim_d(
        self, program: Program, name: str, result: AnalysisResult
    ) -> list[Violation]:
        """The lemma-assisted analysis did not pass; the purely
        structural one must not pass either (lemmas only add passes)."""
        structural = self._default_analyze(
            program, f"{name}-no-lemmas", enable_lemmas=False
        )
        if structural.outcome == "pass":
            return [
                Violation(
                    "lemma-monotonicity",
                    "lemma-assisted analysis reported "
                    f"{result.outcome!r} but the purely structural "
                    "analysis passes: lemma synthesis lost a verdict",
                )
            ]
        return []

    # -- claim C -------------------------------------------------------
    def _claim_c(self, result: AnalysisResult) -> list[Violation]:
        violations = []
        if result.outcome == "failed":
            fatal = [d for d in result.diagnostics if not d.recovered]
            if not fatal:
                violations.append(
                    Violation(
                        "diagnostic-taxonomy",
                        "analysis failed without a fatal diagnostic",
                    )
                )
            for diagnostic in fatal:
                if diagnostic.code not in self.documented_codes:
                    violations.append(
                        Violation(
                            "diagnostic-taxonomy",
                            f"undocumented diagnostic code {diagnostic.code!r}",
                        )
                    )
                if diagnostic.phase not in self.documented_phases:
                    violations.append(
                        Violation(
                            "diagnostic-taxonomy",
                            f"undocumented diagnostic phase {diagnostic.phase!r}",
                        )
                    )
                if diagnostic.severity != SEVERITY_FATAL:
                    violations.append(
                        Violation(
                            "diagnostic-taxonomy",
                            "fatal failure carries non-fatal severity "
                            f"{diagnostic.severity!r}",
                        )
                    )
        return violations
