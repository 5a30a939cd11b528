"""Performance layer: canonical interning and memoized entailment.

The hot path of the analysis is entailment checking during fixpoint
iteration: ``subsumes`` re-unifies structurally identical state pairs
on every join, every dedup round and every summary probe.  This
package makes those repeats cheap without touching soundness:

* :mod:`repro.logic.canonical` (logic layer) computes deterministic,
  alpha-renaming-invariant state keys -- equal keys imply
  alpha-equivalent states, so a cached verdict can never be wrong;
* :mod:`repro.perf.cache` -- the bounded LRU
  :class:`~repro.perf.cache.EntailmentCache` the entailment layer
  consults, with hit/miss/eviction counters surfaced as
  ``entailment.cache.*`` metrics.

Following the :mod:`repro.obs` pattern, the *active* cache is a
module-level global (:data:`CACHE`) swapped in per analysis run by
:func:`activate_cache`; outside a run it is the null cache and
``subsumes`` pays one attribute check.  Cache keys are fully
structural -- canonical state keys plus a structural
predicate-environment token -- so a cache handed to several runs
(``ShapeAnalysis(cache=...)``) legitimately carries verdicts across
them; perfbench's ``edit-loop`` workload runs exactly that warm path.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.perf.cache import (
    EntailmentCache,
    IdentityMemo,
    LemmaCache,
    NULL_CACHE,
    NullCache,
)

__all__ = [
    "CACHE",
    "UNFOLD_CACHE",
    "FOLD_CACHE",
    "EntailmentCache",
    "IdentityMemo",
    "LemmaCache",
    "NULL_CACHE",
    "NullCache",
    "activate_cache",
]

#: The active entailment cache (null outside :func:`activate_cache`).
CACHE: "EntailmentCache | NullCache" = NULL_CACHE

#: The active unfold-memo cache (rearrangement case analyses keyed on
#: canonical state + focus address; see :mod:`repro.analysis.memo`).
UNFOLD_CACHE: "EntailmentCache | NullCache" = NULL_CACHE

#: The active fold identity-memo cache (states a prior ``fold_state``
#: left untouched; see :mod:`repro.analysis.memo`).
FOLD_CACHE: "EntailmentCache | NullCache" = NULL_CACHE


@contextmanager
def activate_cache(
    cache: "EntailmentCache | NullCache | None",
    unfold: "EntailmentCache | NullCache | None" = None,
    fold: "EntailmentCache | NullCache | None" = None,
):
    """Install the given caches for the duration of the block (restored
    on exit, exception or not).  ``None`` leaves the corresponding
    active cache untouched."""
    global CACHE, UNFOLD_CACHE, FOLD_CACHE
    saved = (CACHE, UNFOLD_CACHE, FOLD_CACHE)
    if cache is not None:
        CACHE = cache
    if unfold is not None:
        UNFOLD_CACHE = unfold
    if fold is not None:
        FOLD_CACHE = fold
    try:
        yield
    finally:
        CACHE, UNFOLD_CACHE, FOLD_CACHE = saved
