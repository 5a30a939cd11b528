"""Observability: structured tracing spans and a metrics registry.

The engine is a five-phase pipeline (pointer analysis, slicing,
symbolic execution, recursion synthesis, fold/unfold entailment) whose
behavior on a slow or failing benchmark used to be visible only in a
debugger.  This package makes a run legible:

* :mod:`repro.obs.tracer` -- a :class:`Tracer` emitting hierarchical
  spans (start/end, wall time, attributes) as JSONL, with a
  :data:`NULL_TRACER` fast path whose only cost on a hot path is one
  ``enabled`` attribute check;
* :mod:`repro.obs.metrics` -- a :class:`Metrics` registry of named
  counters / gauges / histograms with the canonical metric-name schema
  (and the back-compat aliases for the old ad-hoc ``_Stats`` keys);
* :mod:`repro.obs.summary` -- the ``trace-summary`` tree builder and
  renderer behind ``python -m repro trace-summary FILE``;
* :mod:`repro.obs.overhead` -- the disabled-tracer overhead
  micro-benchmark CI holds to a < 3% budget.

Deep modules (entailment, unfold, fold, synthesis) cannot be handed a
tracer through every call site, so the *active* tracer and metrics
registry are module-level here -- ``obs.TRACER`` / ``obs.METRICS`` --
and :func:`activate` swaps them in for the duration of one analysis
run.  Outside a run both are the null implementations, so importing
this module never changes behavior and unit tests that call
``subsumes`` directly pay only a no-op method call.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.histo import BUCKET_BOUNDS, Histogram
from repro.obs.metrics import (
    METRIC_SCHEMA,
    Metrics,
    NULL_METRICS,
    NullMetrics,
    histogram_flat_base,
    is_schema_name,
    merge_stat_dicts,
)
from repro.obs.snapshot import (
    merge_snapshot,
    render_prometheus,
    restore,
    snapshot,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "METRIC_SCHEMA",
    "METRICS",
    "Metrics",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "TRACER",
    "Tracer",
    "activate",
    "histogram_flat_base",
    "is_schema_name",
    "merge_snapshot",
    "merge_stat_dicts",
    "render_prometheus",
    "restore",
    "snapshot",
]

#: The active tracer.  Hot paths guard with ``if obs.TRACER.enabled:``;
#: the null tracer makes that one attribute load plus one branch.
TRACER: "Tracer | NullTracer" = NULL_TRACER

#: The active metrics registry (null outside :func:`activate`).
METRICS: "Metrics | NullMetrics" = NULL_METRICS


@contextmanager
def activate(tracer=None, metrics=None):
    """Install *tracer* / *metrics* as the active instruments for the
    duration of the block (restored on exit, exception or not).

    ``None`` leaves the corresponding instrument untouched, so a nested
    activation may swap only one of the two.
    """
    global TRACER, METRICS
    saved = (TRACER, METRICS)
    if tracer is not None:
        TRACER = tracer
    if metrics is not None:
        METRICS = metrics
    try:
        yield
    finally:
        TRACER, METRICS = saved
