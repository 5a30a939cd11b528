"""Validation-on-read for the durable store.

Nothing read from disk is trusted.  The checksum (the content digest
that names each object) only proves the bytes are the bytes that were
written; it does not prove they *mean* anything, that they were written
by a compatible code version, or that installing them into the live
predicate environment is sound.  A stored summary is an input to a
soundness-critical decision -- "skip analyzing this procedure" -- so a
wrong entry that slipped through would silently change verdicts.  The
store therefore re-earns every entry before use, and every failed check
degrades the lookup to a miss (plus a structured ``store-invalid``
diagnostic), never to a wrong answer:

1. **Schema and config**: the payload's schema number must match this
   build's, and its engine configuration token the reading run's.
2. **Decode + re-key**: the entry state, every exit state, and every
   cutpoint must decode through the canonical-key grammar, and
   re-canonicalizing each decoded state must reproduce the stored key
   byte-for-byte.  This catches any corruption that preserves JSON
   well-formedness but changes meaning, and any drift in the canonical
   form between writer and reader.
3. **Predicate environment parity**: for each bundled definition that
   already exists in the live environment under the same name, the
   structures must match exactly (a mismatch means the entry predates
   an environment change -- stale).  A bundled definition whose
   structure exists in the live environment under a *different* name is
   name drift and is also rejected: installing it would fork the
   deterministic name sequence the differential gate relies on.
4. **Self-derivation**: each genuinely new definition must pass the
   synthesizer's own sanity loop -- unfolding its recursive case at
   fresh arguments and folding the resulting heap back (in a scratch
   environment built from the bundle alone) must yield exactly one
   complete instance of the definition at the unfold root.  A
   definition that cannot re-derive itself is not installed.
"""

from __future__ import annotations

from repro.analysis.fold import fold_state
from repro.logic.assertions import PredInstance
from repro.logic.canonical import canonical_key
from repro.logic.predicates import PredicateDef, PredicateEnv
from repro.logic.state import AbstractState, AnalysisStuck
from repro.logic.heapnames import fresh_var
from repro.store.codec import (
    decode_cutpoints,
    decode_predicate,
    decode_state,
)

__all__ = ["InvalidStoreEntry", "ValidatedEntry", "validate_summary_payload"]


class InvalidStoreEntry(Exception):
    """A stored entry failed validation-on-read (degrades to a miss)."""


class ValidatedEntry:
    """A fully validated, decoded summary ready for the engine."""

    __slots__ = ("entry", "exits", "cutpoints", "new_defs", "counter")

    def __init__(self, entry, exits, cutpoints, new_defs, counter):
        self.entry: AbstractState = entry
        self.exits: list[AbstractState] = exits
        self.cutpoints: frozenset = cutpoints
        self.new_defs: list[PredicateDef] = new_defs
        self.counter: int = counter


def validate_summary_payload(
    payload: dict,
    *,
    callee: str,
    entry_key: str,
    schema: int,
    env: PredicateEnv,
    resolve_blob,
    cone: str = "",
    config: str = "",
) -> ValidatedEntry:
    """Run every check in the module docstring over *payload*.

    *resolve_blob* maps a predicate digest to its verified bytes (the
    disk layer's ``get_object``); it may raise ``StoreCorrupt``/OSError,
    which the caller maps to the appropriate containment path.  Raises
    :class:`InvalidStoreEntry` on any semantic failure.
    """
    if not isinstance(payload, dict):
        raise InvalidStoreEntry("payload is not an object")
    if payload.get("schema") != schema:
        raise InvalidStoreEntry(
            f"stale schema {payload.get('schema')!r} (expected {schema})"
        )
    # The lookup digest covers callee + cone + entry key, so a mismatch
    # here means a digest collision or a mis-indexed object -- reject.
    if payload.get("callee") != callee or payload.get("entry") != entry_key:
        raise InvalidStoreEntry("payload does not match its lookup key")
    if payload.get("cone", "") != cone:
        raise InvalidStoreEntry(
            "payload's callee-cone digest does not match this program"
        )
    if payload.get("config") != config:
        raise InvalidStoreEntry(
            "payload's engine configuration does not match this run"
        )

    try:
        entry_state, entry_roots = decode_state(entry_key)
        if canonical_key(entry_state) != entry_key:
            raise InvalidStoreEntry("entry state fails re-canonicalization")
        cutpoints = decode_cutpoints(
            list(payload["cutpoints"]), entry_roots
        )
        exits = []
        for item in payload["exits"]:
            links = {
                int(exit_index): entry_roots[int(entry_index)]
                for exit_index, entry_index in item["links"].items()
            }
            exit_state, _ = decode_state(item["key"], links)
            if canonical_key(exit_state) != item["key"]:
                raise InvalidStoreEntry("exit state fails re-canonicalization")
            exits.append(exit_state)
        counter = int(payload["counter"])
        defs = payload["defs"]
        if not isinstance(defs, dict):
            raise InvalidStoreEntry("malformed predicate table")
        bundle = _decode_bundle(defs, resolve_blob)
    except InvalidStoreEntry:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidStoreEntry(f"undecodable entry: {exc}") from exc

    new_defs = _check_bundle_against_env(bundle, env)
    _self_derivation_check(new_defs, bundle)
    return ValidatedEntry(entry_state, exits, cutpoints, new_defs, counter)


def _decode_bundle(defs: dict, resolve_blob) -> "list[PredicateDef]":
    """Resolve and decode the bundled environment snapshot, in the
    recording run's installation order (the payload preserves it)."""
    import json

    bundle = []
    for name, digest in defs.items():
        if not isinstance(digest, str):
            raise InvalidStoreEntry(f"malformed digest for predicate {name!r}")
        blob = resolve_blob(digest)
        definition = decode_predicate(json.loads(blob))
        if definition.name != name:
            raise InvalidStoreEntry(
                f"predicate object {digest[:12]} names "
                f"{definition.name!r}, table says {name!r}"
            )
        bundle.append(definition)
    return bundle


def _check_bundle_against_env(
    bundle: "list[PredicateDef]", env: PredicateEnv
) -> "list[PredicateDef]":
    """Check 3: environment parity.  Returns the definitions that are
    new to *env* (the ones a hit would install)."""
    new_defs = []
    for definition in bundle:
        if definition.name in env:
            if env[definition.name].structure_key() != definition.structure_key():
                raise InvalidStoreEntry(
                    f"stale predicate {definition.name!r}: stored structure "
                    "differs from the live environment's"
                )
            continue
        drifted = env.find_structural(definition)
        if drifted is not None:
            raise InvalidStoreEntry(
                f"name drift: stored predicate {definition.name!r} already "
                f"exists here as {drifted.name!r}"
            )
        new_defs.append(definition)
    return new_defs


def _self_derivation_check(
    new_defs: "list[PredicateDef]", bundle: "list[PredicateDef]"
) -> None:
    """Check 4: every new definition re-derives itself in a scratch
    environment built from the bundle alone (the bundle is a complete
    snapshot, so mutual references resolve within it)."""
    if not new_defs:
        return
    scratch = PredicateEnv()
    for definition in bundle:
        try:
            scratch.add(definition)
        except ValueError as exc:
            raise InvalidStoreEntry(f"inconsistent bundle: {exc}") from exc
    for definition in new_defs:
        try:
            args = tuple(
                fresh_var("r" if i == 0 else "a")
                for i in range(definition.arity)
            )
            points_to, instances, _bound = definition.unfold_body(args)
            state = AbstractState()
            for atom in points_to:
                state.spatial.add(atom)
            for instance in instances:
                state.spatial.add(instance)
            fold_state(state, scratch, keep_registers=True)
        except (ValueError, AnalysisStuck) as exc:
            raise InvalidStoreEntry(
                f"predicate {definition.name!r} fails self-derivation: {exc}"
            ) from exc
        atoms = list(state.spatial)
        if not (
            len(atoms) == 1
            and isinstance(atoms[0], PredInstance)
            and atoms[0].pred == definition.name
            and atoms[0].args[0] == args[0]
            and not atoms[0].truncs
        ):
            raise InvalidStoreEntry(
                f"predicate {definition.name!r} fails self-derivation: "
                f"unfold+fold yields {atoms!r}"
            )
