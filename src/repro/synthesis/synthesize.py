"""Recursion synthesis: from a term tree to a recursive predicate (§3).

``synthesize_term`` runs the full pipeline on one top-level term:

1. search for a valid segmentation (:mod:`repro.synthesis.segmentation`);
2. anti-unify the segments into the recurrence body
   (:mod:`repro.synthesis.antiunify`);
3. infer the parameter substitutions applied at each recursion point
   (:mod:`repro.synthesis.substitution`);
4. assemble a :class:`~repro.logic.predicates.PredicateDef`, register it
   in the environment ``T`` (structurally deduplicated), and return the
   *instance*: the top-level arguments (the root segment's parameter
   values), the truncation points (the un-expanded frontier nodes where
   symbolic execution stopped), and the set of heap locations the term
   covered -- everything the caller needs to fold the trace into the
   synthesized invariant.

Candidate segmentations or ambiguous substitutions that fail later
checks are backtracked over; if nothing works the function returns
None and the caller falls back (e.g. to synthesizing the sub-structures
below a non-recursive prefix node, the paper's "recursion does not
start at the root" case).  Soundness never rests on the choices made
here: the analysis verifies every hypothesized invariant by deriving it
over the loop body and halts on failure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro import obs
from repro.logic.heapnames import HeapName
from repro.logic.predicates import (
    AnyArg,
    ArgExpr,
    FieldSpec,
    NullArg,
    ParamArg,
    PredicateDef,
    PredicateEnv,
    RecCallSpec,
    RecTarget,
)
from repro.logic.symvals import NULL_VAL, SymVal
from repro.synthesis.antiunify import AntiUnification, anti_unify
from repro.synthesis.segmentation import Segmentation, find_segmentations
from repro.synthesis.substitution import SampleContext, fit_argument
from repro.synthesis.terms import (
    Hole,
    NameTerm,
    NullTerm,
    PredTerm,
    StarTerm,
    Term,
    VarTerm,
    name_term,
    subterm,
)

__all__ = ["SynthesizedInstance", "SynthesisFailure", "synthesize_term", "synthesize_forest"]


class SynthesisFailure(Exception):
    """A candidate segmentation cannot be turned into a predicate."""


@dataclass(frozen=True)
class SynthesizedInstance:
    """The outcome of synthesizing one term."""

    definition: PredicateDef
    args: tuple[SymVal, ...]
    truncs: tuple[HeapName, ...]
    covered_sources: frozenset[HeapName]
    covered_instance_roots: frozenset[HeapName]

    def __str__(self) -> str:
        from repro.logic.assertions import PredInstance

        return str(
            PredInstance(self.definition.name, self.args, self.truncs)
        ) + f"  where  {self.definition}"


def synthesize_term(
    term: Term,
    env: PredicateEnv,
    hint: str = "P",
    deadline_poll: Callable[[], None] | None = None,
) -> SynthesizedInstance | None:
    """Synthesize a recursive predicate explaining *term*, or None.

    *deadline_poll* is handed to the segmentation search, which calls it
    before every candidate validation.  Each attempt reports to the
    active observability instruments -- also one the poll cut short --
    how many candidate segmentations were tried before one anti-unified
    into a predicate (or all were exhausted), and the outcome."""
    tried = 0
    instance: SynthesizedInstance | None = None
    try:
        for segmentation in find_segmentations(term, deadline_poll):
            tried += 1
            try:
                instance = _build(term, segmentation, env, hint)
                break
            except SynthesisFailure:
                continue
    finally:
        metrics = obs.METRICS
        if metrics.enabled:
            metrics.inc("synthesis.terms")
            metrics.inc("synthesis.segmentations_tried", tried)
            metrics.inc(
                "synthesis.succeeded" if instance is not None
                else "synthesis.failed"
            )
    tracer = obs.TRACER
    if tracer.enabled:
        tracer.event(
            "synthesis.term",
            segmentations_tried=tried,
            synthesized=instance is not None,
            predicate=instance.definition.name if instance else None,
        )
    return instance


def synthesize_forest(
    term: Term,
    env: PredicateEnv,
    hint: str = "P",
    deadline_poll: Callable[[], None] | None = None,
) -> list[SynthesizedInstance]:
    """Synthesize the maximal synthesizable sub-structures of *term*.

    Tries the root first; when the recursion does not start at the root
    (the structure hangs below non-recursive prefix data), descends into
    the expanded children.
    """
    instance = synthesize_term(term, env, hint, deadline_poll)
    if instance is not None:
        return [instance]
    results: list[SynthesizedInstance] = []
    if isinstance(term, StarTerm):
        for target in term.targets:
            if isinstance(target, StarTerm) and not target.is_unexpanded:
                results.extend(
                    synthesize_forest(target, env, hint, deadline_poll)
                )
    return results


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def _build(
    term: Term, segmentation: Segmentation, env: PredicateEnv, hint: str
) -> SynthesizedInstance:
    order = segmentation.segment_order
    index_of = {pos: i for i, pos in enumerate(order)}
    au = anti_unify([segmentation.segments[pos] for pos in order])
    body = au.body
    # Every segment is a one-level cut of a node with the root's fields.
    assert isinstance(body, StarTerm)

    x1_values = tuple(_node_name(term, pos) for pos in order)

    # ------------------------------------------------------------------
    # Field specs, parameters and recursive calls
    # ------------------------------------------------------------------
    params: list[tuple[Term | None, ...]] = [x1_values]
    param_of_var: dict[int, int] = {}
    field_specs: list[FieldSpec] = []
    rec_fields: list[str] = []
    # (field, kind, payload): self-recursion or nested predicate call
    pending_calls: list[tuple[str, str, object]] = []

    def param_for(var: VarTerm) -> int:
        values = au.values_of(var)
        if values == x1_values:
            return 0
        if var.index in param_of_var:
            return param_of_var[var.index]
        for i, value in enumerate(values):
            if value is None:
                raise SynthesisFailure("parameter missing in a segment")
            if isinstance(value, NullTerm) and i != 0:
                raise SynthesisFailure("null parameter below the root")
            if not isinstance(value, (NameTerm, NullTerm)):
                raise SynthesisFailure(f"parameter value is not a name: {value}")
        params.append(values)
        param_of_var[var.index] = len(params) - 1
        return param_of_var[var.index]

    for field_index, (field_name, target) in enumerate(
        zip(body.fields, body.targets)
    ):
        if isinstance(target, Hole):
            rec_index = len(rec_fields)
            rec_fields.append(field_name)
            field_specs.append(FieldSpec(field_name, RecTarget(rec_index)))
            pending_calls.append((field_name, "self", (field_index,)))
        elif isinstance(target, NullTerm):
            field_specs.append(FieldSpec(field_name, NullArg()))
        elif isinstance(target, VarTerm):
            if _holds_untracked_data(au.values_of(target)):
                # Opaque (non-pointer) payload that survived slicing:
                # a residual data field, not a parameter.
                field_specs.append(FieldSpec(field_name, AnyArg()))
            else:
                index = param_for(target)
                field_specs.append(FieldSpec(field_name, ParamArg(index)))
        elif isinstance(target, PredTerm):
            rec_index = len(rec_fields)
            rec_fields.append(field_name)
            field_specs.append(FieldSpec(field_name, RecTarget(rec_index)))
            pending_calls.append((field_name, "nested", target))
        else:
            raise SynthesisFailure(f"unsupported body target: {target}")

    # ------------------------------------------------------------------
    # Argument substitutions for each call
    # ------------------------------------------------------------------
    def context_at(pos: tuple[int, ...]) -> SampleContext:
        i = index_of[pos]
        return SampleContext(
            params=tuple(values[i] for values in params),
            rec_fields=tuple(rec_fields),
        )

    rec_call_specs: list[RecCallSpec] = []
    tail_preds: set[str] = set()
    for field_name, kind, payload in pending_calls:
        if kind == "self":
            position = payload
            pairs = [
                (ppos, cpos)
                for ppos, r_index, cpos in segmentation.pairs
                if segmentation.recursion_points[r_index] == position
            ]
            tails = [
                (ppos, tail)
                for ppos, r_index, tail in segmentation.folded_tails
                if segmentation.recursion_points[r_index] == position
            ]
            # The first argument of the unfolded call is the field's
            # target itself; verify the trace agrees.
            for ppos, cpos in pairs:
                parent_x1 = x1_values[index_of[ppos]]
                child_x1 = x1_values[index_of[cpos]]
                if not isinstance(parent_x1, NameTerm) or child_x1 != (
                    parent_x1.extended(field_name)
                ):
                    raise SynthesisFailure("recursion root is not the field target")
            for ppos, tail in tails:
                tail_preds.add(tail.pred)
                if len(tail.args) != len(params):
                    raise SynthesisFailure("folded tail has a different arity")
                parent_x1 = x1_values[index_of[ppos]]
                if not isinstance(parent_x1, NameTerm) or tail.args[0] != (
                    parent_x1.extended(field_name)
                ):
                    raise SynthesisFailure("folded tail root is not the field target")
            args: list[ArgExpr] = []
            for j in range(1, len(params)):
                samples = [
                    (context_at(ppos), params[j][index_of[cpos]])
                    for ppos, cpos in pairs
                ] + [
                    (context_at(ppos), tail.args[j]) for ppos, tail in tails
                ]
                candidates = fit_argument(samples, prefer_param=j)
                if not candidates:
                    raise SynthesisFailure(
                        f"no consistent substitution for x{j + 1} at .{field_name}"
                    )
                args.append(candidates[0])
            rec_call_specs.append(RecCallSpec("self", tuple(args)))
        else:
            pred_term: PredTerm = payload  # type: ignore[assignment]
            arg_values = [
                au.values_of(a) if isinstance(a, VarTerm) else None
                for a in pred_term.args
            ]
            if any(v is None for v in arg_values):
                raise SynthesisFailure("nested call argument is not a variable")
            # First argument must be the field's target.
            for i, pos in enumerate(order):
                value = arg_values[0][i]
                if value is None:
                    continue
                x1 = x1_values[i]
                if not isinstance(x1, NameTerm) or value != x1.extended(field_name):
                    raise SynthesisFailure("nested structure root mismatch")
            args = []
            for j in range(1, len(pred_term.args)):
                samples = [
                    (context_at(pos), arg_values[j][i])
                    for i, pos in enumerate(order)
                    if arg_values[j][i] is not None
                ]
                candidates = fit_argument(samples)
                if not candidates:
                    raise SynthesisFailure(
                        f"no consistent substitution in nested call at .{field_name}"
                    )
                args.append(candidates[0])
            rec_call_specs.append(RecCallSpec(pred_term.pred, tuple(args)))

    # A folded continuation must be the very predicate we are about to
    # derive: check structural agreement *before* registering anything,
    # so failed candidates leave no orphan definitions in T.
    if tail_preds:
        if len(tail_preds) > 1:
            raise SynthesisFailure(f"conflicting folded tails {tail_preds}")
        (tail_name,) = tail_preds
        if tail_name not in env:
            raise SynthesisFailure(f"unknown folded tail {tail_name}")
        candidate = PredicateDef(
            tail_name,
            len(params),
            tuple(field_specs),
            tuple(
                RecCallSpec(tail_name if c.pred == "self" else c.pred, c.args)
                for c in rec_call_specs
            ),
        )
        if candidate.structure_key() != env[tail_name].structure_key():
            raise SynthesisFailure(
                f"folded tail {tail_name} does not match the derived body"
            )
    definition = env.define(
        tuple(field_specs), tuple(rec_call_specs), arity=len(params), hint=hint
    )

    # ------------------------------------------------------------------
    # Top-level instantiation, truncation points, coverage
    # ------------------------------------------------------------------
    top_args = tuple(_to_symval(values[0]) for values in params)
    truncs: list[HeapName] = []
    covered_sources: set[HeapName] = set()
    covered_instances: set[HeapName] = set()
    _collect_coverage(term, truncs, covered_sources, covered_instances)
    return SynthesizedInstance(
        definition,
        top_args,
        tuple(truncs),
        frozenset(covered_sources),
        frozenset(covered_instances),
    )


def _holds_untracked_data(values: tuple[Term | None, ...]) -> bool:
    """True when some segment carries an opaque (origin-less) value at
    this position -- integer payload rather than a heap location."""
    return any(
        isinstance(v, NameTerm) and v.origin is None and not v.fields
        for v in values
    )


def _node_name(term: Term, pos: tuple[int, ...]) -> NameTerm:
    node = subterm(term, pos)
    if not isinstance(node, StarTerm) or node.loc is None:
        raise SynthesisFailure("segment without a source location")
    return name_term(node.loc)


def _to_symval(value: Term | None) -> SymVal:
    if isinstance(value, NullTerm):
        return NULL_VAL
    if isinstance(value, NameTerm) and value.origin is not None:
        return value.origin
    raise SynthesisFailure(f"cannot map {value} back to a symbolic value")


def _collect_coverage(
    term: Term,
    truncs: list[HeapName],
    sources: set[HeapName],
    instances: set[HeapName],
) -> None:
    if isinstance(term, StarTerm):
        if term.is_unexpanded:
            if term.loc is not None:
                truncs.append(term.loc)
            return
        if term.loc is not None:
            sources.add(term.loc)
        for target in term.targets:
            _collect_coverage(target, truncs, sources, instances)
    elif isinstance(term, PredTerm):
        if term.loc is not None:
            instances.add(term.loc)
