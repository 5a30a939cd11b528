"""Fixpoint objects: whole-procedure summary tables as a unit of reuse.

PR 7's per-entry summary objects accelerate one call at a time: a hit
still requires the engine to walk the whole interprocedural fixpoint,
consulting the store once per (callee, entry-state) pair.  Incremental
re-analysis wants a coarser unit -- "this procedure and everything it
can reach are unchanged, replay its entire tabulated summary table" --
so the store grows a second object kind:

* keyed on ``(procedure name, callee-cone digest, engine config)``
  (:mod:`repro.ir.digest`), so any structural edit anywhere in the
  procedure's callee cone silently invalidates the object (the key no
  longer matches -- invalidation needs no dirty lists);
* valued as a *bundle*: the procedure's tabulated summaries, each in
  exactly the per-entry payload shape :func:`repro.store.codec
  .encode_summary` produces, so validation-on-read reuses
  :func:`repro.store.validate.validate_summary_payload` per summary,
  check for check.

The module also provides :class:`FixpointTable`, an in-memory tier
holding the same payloads under the same keys.  It is JSON-wireable
(predicate blobs are themselves canonical JSON), which is how a serve
worker ships its table to the supervisor and a restarted successor
gets it injected back.
"""

from __future__ import annotations

from repro.logic.canonical import UntranslatableWitness
from repro.store.codec import encode_summary, payload_digest

__all__ = ["FixpointTable", "encode_fixpoint", "fixpoint_key"]


def fixpoint_key(procedure: str, cone: str, *, config: str, schema: int) -> str:
    parts = ["fixpoint", str(schema), procedure, cone, config]
    return payload_digest("\x00".join(parts).encode("utf-8"))


def encode_fixpoint(
    procedure: str,
    cone: str,
    summaries,
    env,
    *,
    config: str,
    schema: int,
) -> "tuple[dict | None, dict[str, bytes]]":
    """The bundle payload for *summaries* (an iterable of
    ``(entry, exits, cutpoints)`` triples) plus the predicate blobs the
    sub-payloads reference.  Summaries whose cutpoints cannot be
    spelled in the entry's canonical form are skipped (same rule as
    per-entry recording); returns ``(None, {})`` when nothing survives.
    """
    subs: list[dict] = []
    blobs: dict[str, bytes] = {}
    for entry, exits, cutpoints in summaries:
        try:
            sub, sub_blobs = encode_summary(
                procedure,
                entry,
                list(exits),
                cutpoints,
                env,
                config=config,
                schema=schema,
                cone=cone,
            )
        except UntranslatableWitness:
            continue
        subs.append(sub)
        blobs.update(sub_blobs)
    if not subs:
        return None, {}
    payload = {
        "schema": schema,
        "kind": "fixpoint",
        "procedure": procedure,
        "cone": cone,
        "config": config,
        "summaries": subs,
    }
    return payload, blobs


def merge_fixpoint_payloads(new: dict, old) -> dict:
    """Union *old*'s summaries into *new* without replacing any entry
    *new* already covers.  *old* is untrusted bytes-from-disk territory
    (possibly ``None``, possibly garbage): anything unusable is simply
    dropped -- every retained sub-payload is re-validated on read
    anyway."""
    if not isinstance(old, dict) or not isinstance(old.get("summaries"), list):
        return new
    seen = {
        (sub.get("entry"), tuple(sub.get("cutpoints", ())))
        for sub in new["summaries"]
    }
    for sub in old["summaries"]:
        if not isinstance(sub, dict):
            continue
        ident = (sub.get("entry"), tuple(sub.get("cutpoints", ())))
        if ident in seen:
            continue
        seen.add(ident)
        new["summaries"].append(sub)
    return new


class FixpointTable:
    """In-memory fixpoint tier: ``key -> payload`` plus the predicate
    blobs the payloads reference.  Same keys, same payload shapes, same
    validation-on-read as the durable tier -- a table received over a
    pipe from a dead worker's generation earns exactly as little trust
    as bytes from disk."""

    def __init__(self) -> None:
        self.payloads: dict[str, dict] = {}
        self.blobs: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.payloads)

    def get(self, key: str) -> "dict | None":
        payload = self.payloads.get(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: dict, blobs: "dict[str, bytes]") -> None:
        existing = self.payloads.get(key)
        if existing is not None:
            payload = merge_fixpoint_payloads(payload, existing)
        self.payloads[key] = payload
        self.blobs.update(blobs)

    def get_blob(self, digest: str) -> bytes:
        blob = self.blobs[digest]
        if payload_digest(blob) != digest:
            raise ValueError(f"fixpoint table blob {digest[:12]} is corrupt")
        return blob

    def stats(self) -> dict:
        return {
            "entries": len(self.payloads),
            "blobs": len(self.blobs),
            "hits": self.hits,
            "misses": self.misses,
        }

    # -- wire format (supervisor warm-injection) -----------------------
    def to_wire(self) -> dict:
        return {
            "payloads": dict(self.payloads),
            "blobs": {
                digest: blob.decode("utf-8")
                for digest, blob in self.blobs.items()
            },
        }

    @classmethod
    def from_wire(cls, wire) -> "FixpointTable":
        """Rebuild a table from :meth:`to_wire` output.  Malformed input
        raises ``ValueError`` (callers contain it); individual payloads
        are *not* deep-checked here -- consumption re-validates."""
        table = cls()
        if not isinstance(wire, dict):
            raise ValueError("fixpoint wire format is not an object")
        payloads = wire.get("payloads", {})
        blobs = wire.get("blobs", {})
        if not isinstance(payloads, dict) or not isinstance(blobs, dict):
            raise ValueError("malformed fixpoint wire tables")
        for key, payload in payloads.items():
            if isinstance(key, str) and isinstance(payload, dict):
                table.payloads[key] = payload
        for digest, text in blobs.items():
            if isinstance(digest, str) and isinstance(text, str):
                table.blobs[digest] = text.encode("utf-8")
        return table

    def merge_wire(self, wire) -> int:
        """Merge another table's wire dump into this one; returns the
        number of payload keys added or replaced."""
        other = FixpointTable.from_wire(wire)
        for key, payload in other.payloads.items():
            self.put(key, payload, {})
        self.blobs.update(other.blobs)
        return len(other.payloads)
