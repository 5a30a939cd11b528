"""Memoized lemma pair keys change no analysis result.

``lemmas.pair_key`` answers repeated lookups from a per-environment memo
instead of re-serializing both definition clusters.  The memo is only
sound if it returns byte-identical keys, so that every lemma-cache
lookup, store key and counter is unchanged.  Each program here runs
twice: as shipped, and with ``pair_key`` replaced by a from-scratch
serializer.  Both runs must agree on the outcome, the diagnostics, the
exit states' canonical keys, the predicate count and every entailment
and lemma counter.
"""

import pytest

from conftest import unmemoized_pair_key

from repro.analysis import ShapeAnalysis
from repro.benchsuite.runner import benchmark_factories
from repro.crucible.generator import generate_program
from repro.logic import lemmas
from repro.logic.canonical import canonical_key

#: The entail-degrade programs: the lemma fallback fires on all four.
LEMMA_PROGRAMS = ("entail-stress", "lemma-refold", "lemma-diffroot", "lemma-sharedtail")

COUNTERS = (
    "entailment.queries",
    "entailment.match_steps",
    "entailment.lemma.attempts",
    "entailment.lemma.verified",
    "entailment.lemma.refuted",
    "entailment.lemma.applied",
    "entailment.lemma.cache.hits",
    "entailment.lemma.cache.misses",
)

CASES = [
    *((name, mode) for name in LEMMA_PROGRAMS for mode in ("strict", "degrade")),
    *((f"crucible:{seed}", "degrade") for seed in range(1, 21)),
]


def _program(name):
    if name.startswith("crucible:"):
        return generate_program(int(name.split(":")[1])).program
    return benchmark_factories()[name]()


def _fingerprint(name, mode):
    result = ShapeAnalysis(_program(name), name=name, mode=mode).run()
    return {
        "outcome": result.outcome,
        "diagnostics": [
            (d.code, d.phase, d.procedure, d.recovered) for d in result.diagnostics
        ],
        "exit_states": sorted(map(canonical_key, result.exit_states)),
        "predicates": len(result.predicates()),
        "counters": {key: result.stats.get(key, 0) for key in COUNTERS},
    }


@pytest.mark.parametrize("name,mode", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_memoized_pair_keys_are_bit_identical(name, mode, monkeypatch):
    memoized = _fingerprint(name, mode)
    monkeypatch.setattr(lemmas, "pair_key", unmemoized_pair_key)
    assert _fingerprint(name, mode) == memoized
    if name in LEMMA_PROGRAMS:
        assert memoized["counters"]["entailment.lemma.cache.hits"] > 0
