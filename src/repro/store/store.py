"""The durable predicate/summary store facade.

One :class:`SummaryStore` fronts one store directory.  The engine
consults it after its in-memory summary table misses and before it
(re-)analyzes a procedure body; a validated hit answers the call with
the recorded exits (plus the predicate-environment snapshot the
recording run had), and every tabulated summary is recorded back.

Design rules, enforced here:

* **The store is an accelerator, never an oracle.**  Every entry is
  re-validated on read (:mod:`repro.store.validate`) and the engine
  additionally re-runs the summary-application check against the live
  entry state before trusting a hit.  Anything questionable degrades
  to a miss plus a ``store-invalid`` diagnostic.
* **The store never fails an analysis.**  Disk trouble (EIO, ENOSPC,
  permission loss, a vanished directory) is contained in *both*
  resilience modes: a store that cannot read or write simply stops
  accelerating.  This is deliberate -- the strict/degrade split guards
  the *analysis semantics*, and the store has none: its only
  observable effect is speed, so the only sound containment is to
  shed it.  After ``max_io_errors`` consecutive I/O failures the
  store disables itself for the rest of the process (one more
  diagnostic records that).
* **Lookups are keyed on everything that shapes the recorded result**:
  store schema, callee name, the engine's configuration token (unroll
  bound, mode, and whether lemma synthesis is on -- see
  ``ShapeEngine.config``), the entry state's canonical key, and the
  canonicalized cutpoint set.  The token matters for verdict parity:
  a summary recorded at another unroll bound or mode must *not*
  answer this run, and a lemma-assisted summary must not answer a
  lemma-free run.  Either must fail exactly like a store-off run
  would, so the diagnostic trajectory matches.
"""

from __future__ import annotations

import json
import os

from repro.analysis.resilience import (
    Diagnostic,
    SEVERITY_WARNING,
    STORE_INVALID,
)
from repro.logic.canonical import UntranslatableWitness, canonicalize
from repro.store.chaos import StoreChaos
from repro.store.codec import (
    encode_summary,
    payload_bytes,
    payload_digest,
)
from repro.store.disk import DiskStore, StoreCorrupt
from repro.store.validate import (
    InvalidStoreEntry,
    ValidatedEntry,
    validate_summary_payload,
)

__all__ = ["STORE_SCHEMA", "StoreHit", "SummaryStore"]

#: Payload/layout version; bump on any codec or layout change.  The
#: schema participates in the lookup digest, so entries written under
#: another version are unreachable -- and an entry whose *payload*
#: claims another version (however it got indexed) is rejected by
#: validation.
#:
#: v2: summary keys/payloads gained the callee-cone digest
#: (repro.ir.digest), and the ``fixpoint`` object kind was added.  The
#: cone digest also closes a v1 soundness gap: two *different*
#: procedures sharing a name and an entry shape (e.g. ``main`` across
#: crucible seeds) used to collide onto one summary key.
#: v3: the separate unroll/mode key components and payload fields
#: became one engine ``config`` token that also carries the lemma
#: setting (v2 let a lemma-assisted summary answer a lemma-free run).
STORE_SCHEMA = 3

#: Consecutive I/O errors before the store takes itself out of play.
_MAX_IO_ERRORS = 3


class _NullMetrics:
    def inc(self, name, value=1):
        pass

    def observe(self, name, value):
        pass


_NULL_METRICS = _NullMetrics()

StoreHit = ValidatedEntry  # the engine-facing name


class SummaryStore:
    """See the module docstring.  All public methods are exception-
    contained: they raise nothing (except through the *chaos* hook,
    which is test-only by construction)."""

    def __init__(self, path, chaos: "StoreChaos | None" = None):
        self.path = os.fspath(path)
        self.chaos = chaos
        self.enabled = True
        self._io_errors_in_a_row = 0
        self._tallies = {
            "lookups": 0,
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "invalid": 0,
            "io_errors": 0,
        }
        self._diagnostics: list[Diagnostic] = []
        self._disk = DiskStore(self.path, chaos=chaos)
        try:
            self._disk.open(STORE_SCHEMA)
        except StoreCorrupt as exc:
            self._invalid(None, f"store layout rejected: {exc}")
            self.enabled = False
        except OSError as exc:
            self._io_error(None, f"store open failed: {exc}")
            self.enabled = False

    @classmethod
    def open(cls, path) -> "SummaryStore":
        """The standard constructor: honors ``REPRO_STORE_CHAOS`` so
        fault schedules reach subprocesses (serve workers, smoke
        populate runs) through the environment."""
        return cls(path, chaos=StoreChaos.from_env())

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def tally(self, name: str, value: int = 1) -> None:
        """Process-lifetime counters (the engine mirrors its own hit /
        re-application verdicts here so ``stats()`` is complete)."""
        self._tallies[name] = self._tallies.get(name, 0) + value

    def stats(self) -> dict:
        """Cache-style stats (mirrors ``EntailmentCache.stats()``)."""
        lookups = self._tallies["lookups"]
        hits = self._tallies["hits"]
        return {
            **self._tallies,
            "entries": len(self._disk),
            "torn_lines": self._disk.torn_lines,
            "compactions": self._disk.compactions,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "enabled": self.enabled,
        }

    def take_diagnostics(self) -> "list[Diagnostic]":
        drained, self._diagnostics = self._diagnostics, []
        return drained

    def _invalid(self, procedure, message: str) -> None:
        self._diagnostics.append(
            Diagnostic(
                code=STORE_INVALID,
                message=message,
                phase="store",
                procedure=procedure,
                severity=SEVERITY_WARNING,
                recovered=True,
            )
        )

    def _io_error(self, procedure, message: str) -> None:
        self.tally("io_errors")
        self._io_errors_in_a_row += 1
        self._invalid(procedure, message)
        if self._io_errors_in_a_row >= _MAX_IO_ERRORS and self.enabled:
            self.enabled = False
            self._invalid(
                procedure,
                f"store disabled after {self._io_errors_in_a_row} "
                "consecutive I/O errors; analysis continues without it",
            )

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def lookup_key(
        callee: str,
        entry_key: str,
        cutpoint_reprs,
        *,
        config: str,
        cone: str = "",
    ) -> str:
        parts = [
            "summary",
            str(STORE_SCHEMA),
            callee,
            cone,
            config,
            entry_key,
            *cutpoint_reprs,
        ]
        return payload_digest("\x00".join(parts).encode("utf-8"))

    # ------------------------------------------------------------------
    # Consult
    # ------------------------------------------------------------------
    def consult(
        self,
        callee: str,
        entry,
        cutpoints,
        env,
        metrics=_NULL_METRICS,
        *,
        config: str = "",
        cone: str = "",
    ) -> "StoreHit | None":
        """A validated entry for (*callee*, *entry*, *cutpoints*) under
        the given engine configuration, or None.  Never raises.

        Every lookup (hit, miss or rejection) is timed into the
        ``store.lookup.seconds`` histogram: the store is an
        accelerator, so its own latency -- disk reads plus
        validation-on-read -- is exactly the overhead it must beat."""
        if not self.enabled:
            return None
        import time

        started = time.perf_counter()
        try:
            return self._consult(
                callee, entry, cutpoints, env, metrics,
                config=config, cone=cone,
            )
        finally:
            metrics.observe(
                "store.lookup.seconds", time.perf_counter() - started
            )

    def _consult(
        self,
        callee: str,
        entry,
        cutpoints,
        env,
        metrics=_NULL_METRICS,
        *,
        config: str = "",
        cone: str = "",
    ) -> "StoreHit | None":
        self.tally("lookups")
        metrics.inc("store.lookups")
        try:
            entry_form = canonicalize(entry)
            cutpoint_reprs = sorted(
                repr(entry_form.encode_name(c)) for c in cutpoints
            )
        except UntranslatableWitness:
            self._miss(metrics)
            return None
        key = self.lookup_key(
            callee, entry_form.key, cutpoint_reprs,
            config=config, cone=cone,
        )
        try:
            raw = self._disk.get(key)
        except StoreCorrupt as exc:
            self._reject(callee, metrics, f"{callee}: {exc}")
            return None
        except OSError as exc:
            self._io_error(callee, f"{callee}: store read failed: {exc}")
            self._miss(metrics)
            return None
        if raw is None:
            self._miss(metrics)
            return None
        self._io_errors_in_a_row = 0
        try:
            payload = json.loads(raw)
            hit = validate_summary_payload(
                payload,
                callee=callee,
                entry_key=entry_form.key,
                schema=STORE_SCHEMA,
                env=env,
                resolve_blob=self._disk.get_object,
                cone=cone,
                config=config,
            )
        except InvalidStoreEntry as exc:
            self._reject(callee, metrics, f"{callee}: {exc}")
            return None
        except StoreCorrupt as exc:
            self._reject(callee, metrics, f"{callee}: {exc}")
            return None
        except OSError as exc:
            self._io_error(callee, f"{callee}: store read failed: {exc}")
            self._miss(metrics)
            return None
        except (ValueError, KeyError, TypeError) as exc:
            self._reject(callee, metrics, f"{callee}: undecodable entry: {exc}")
            return None
        return hit

    def _miss(self, metrics) -> None:
        self.tally("misses")
        metrics.inc("store.misses")

    def _reject(self, procedure, metrics, message: str) -> None:
        """A present-but-unusable entry: miss + invalid + diagnostic."""
        self.tally("invalid")
        self.tally("misses")
        metrics.inc("store.invalid")
        metrics.inc("store.misses")
        self._invalid(procedure, message)

    # ------------------------------------------------------------------
    # Record
    # ------------------------------------------------------------------
    def record(
        self,
        callee: str,
        entry,
        exits,
        cutpoints,
        env,
        metrics=_NULL_METRICS,
        *,
        config: str = "",
        cone: str = "",
    ) -> bool:
        """Persist one tabulated summary.  Never raises; returns True
        when new bytes reached disk."""
        if not self.enabled:
            return False
        if self.chaos is not None:
            self.chaos.begin_write()
        schema = STORE_SCHEMA
        if self.chaos is not None and self.chaos("schema"):
            schema = STORE_SCHEMA + 1
        try:
            payload, blobs = encode_summary(
                callee,
                entry,
                exits,
                cutpoints,
                env,
                config=config,
                schema=schema,
                cone=cone,
            )
        except UntranslatableWitness:
            # A cutpoint outside the entry's canonical form cannot be
            # replayed in another process; skip recording silently (the
            # in-memory table still has the summary for this run).
            return False
        key = self.lookup_key(
            callee,
            payload["entry"],
            payload["cutpoints"],
            config=config,
            cone=cone,
        )
        try:
            for digest, blob in blobs.items():
                self._disk.put_object(blob, digest)
            written = self._disk.put(key, payload_bytes(payload))
        except OSError as exc:
            self._io_error(callee, f"{callee}: store write failed: {exc}")
            return False
        self._io_errors_in_a_row = 0
        if written:
            self.tally("writes")
            metrics.inc("store.writes")
        return written

    # ------------------------------------------------------------------
    # Fixpoint bundles (incremental re-analysis)
    # ------------------------------------------------------------------
    #
    # Whole-procedure summary tables (repro.store.fixpoint) keyed on the
    # procedure's callee-cone digest.  The store hands back the *raw*
    # sub-payload list -- the engine validates each sub-payload with the
    # same validate_summary_payload discipline as per-entry hits, and
    # degrades the remainder of a bundle to a from-scratch cone on the
    # first failure.

    def get_blob(self, digest: str) -> bytes:
        """Checksum-verified object bytes (raises ``StoreCorrupt`` /
        ``OSError`` / ``KeyError``-family like the disk layer; callers
        contain)."""
        return self._disk.get_object(digest)

    def consult_fixpoint(
        self,
        procedure: str,
        cone: str,
        metrics=_NULL_METRICS,
        *,
        config: str = "",
    ) -> "list[dict] | None":
        """The raw summary sub-payloads bundled for (*procedure*,
        *cone*) under the given engine configuration, or None.  Never
        raises.  Only bundle-level structure is checked here; each
        sub-payload is validated by the engine at install time."""
        if not self.enabled:
            return None
        from repro.store.fixpoint import fixpoint_key

        self.tally("fixpoint_lookups")
        self.tally("lookups")
        metrics.inc("incr.fixpoint.lookups")
        metrics.inc("store.lookups")
        key = fixpoint_key(
            procedure, cone, config=config, schema=STORE_SCHEMA
        )
        try:
            raw = self._disk.get(key)
        except StoreCorrupt as exc:
            self._reject(procedure, metrics, f"{procedure}: fixpoint: {exc}")
            self.tally("fixpoint_misses")
            metrics.inc("incr.fixpoint.misses")
            return None
        except OSError as exc:
            self._io_error(
                procedure, f"{procedure}: fixpoint store read failed: {exc}"
            )
            self.tally("fixpoint_misses")
            metrics.inc("incr.fixpoint.misses")
            return None
        if raw is None:
            self.tally("fixpoint_misses")
            self.tally("misses")
            metrics.inc("incr.fixpoint.misses")
            metrics.inc("store.misses")
            return None
        self._io_errors_in_a_row = 0
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            self._reject(
                procedure, metrics,
                f"{procedure}: undecodable fixpoint entry: {exc}",
            )
            self.tally("fixpoint_misses")
            metrics.inc("incr.fixpoint.misses")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "fixpoint"
            or payload.get("schema") != STORE_SCHEMA
            or payload.get("procedure") != procedure
            or payload.get("cone") != cone
            or payload.get("config") != config
            or not isinstance(payload.get("summaries"), list)
        ):
            self._reject(
                procedure, metrics,
                f"{procedure}: fixpoint entry does not match its lookup key",
            )
            self.tally("fixpoint_misses")
            metrics.inc("incr.fixpoint.misses")
            return None
        self.tally("fixpoint_hits")
        self.tally("hits")
        metrics.inc("incr.fixpoint.hits")
        metrics.inc("store.hits")
        return list(payload["summaries"])

    def record_fixpoint(
        self,
        procedure: str,
        cone: str,
        summaries,
        env,
        metrics=_NULL_METRICS,
        *,
        config: str = "",
    ) -> bool:
        """Persist a procedure's full summary table as one bundle,
        unioned with whatever bundle already sits under the key (other
        runs of the identical cone may have tabulated entry shapes this
        run never saw).  Never raises; returns True when new bytes
        reached disk."""
        if not self.enabled:
            return False
        from repro.store.fixpoint import (
            encode_fixpoint,
            fixpoint_key,
            merge_fixpoint_payloads,
        )

        if self.chaos is not None:
            self.chaos.begin_write()
        schema = STORE_SCHEMA
        if self.chaos is not None and self.chaos("schema"):
            schema = STORE_SCHEMA + 1
        payload, blobs = encode_fixpoint(
            procedure, cone, summaries, env,
            config=config, schema=schema,
        )
        if payload is None:
            return False
        key = fixpoint_key(
            procedure, cone, config=config, schema=STORE_SCHEMA
        )
        try:
            existing = self._disk.get(key)
        except (StoreCorrupt, OSError):
            existing = None  # quarantined or unreadable: start fresh
        if existing is not None:
            try:
                payload = merge_fixpoint_payloads(payload, json.loads(existing))
            except ValueError:
                pass
        try:
            for digest, blob in blobs.items():
                self._disk.put_object(blob, digest)
            written = self._disk.put(key, payload_bytes(payload))
        except OSError as exc:
            self._io_error(
                procedure, f"{procedure}: fixpoint store write failed: {exc}"
            )
            return False
        self._io_errors_in_a_row = 0
        if written:
            self.tally("fixpoint_writes")
            metrics.inc("incr.fixpoint.writes")
        return written

    # ------------------------------------------------------------------
    # Lemmas
    # ------------------------------------------------------------------
    #
    # Verified bridging lemmas (repro.logic.lemmas) ride in the same
    # store under their canonical pair key.  The same design rules
    # apply: the store is an accelerator -- LemmaEngine re-verifies
    # every consulted payload by self-derivation before trusting it
    # (its validation-on-read), and disk trouble degrades to a miss.

    @staticmethod
    def lemma_lookup_key(pair_key: str) -> str:
        parts = ["lemma", str(STORE_SCHEMA), pair_key]
        return payload_digest("\x00".join(parts).encode("utf-8"))

    def consult_lemma(self, pair_key: str) -> "dict | None":
        """The raw lemma payload recorded under *pair_key*, or None.
        Never raises.  The caller owns semantic validation (schema,
        kind, re-verification); this method only contains I/O and
        decode failures."""
        if not self.enabled:
            return None
        self.tally("lemma_lookups")
        try:
            raw = self._disk.get(self.lemma_lookup_key(pair_key))
        except StoreCorrupt as exc:
            self._reject(None, _NULL_METRICS, f"lemma entry: {exc}")
            return None
        except OSError as exc:
            self._io_error(None, f"lemma store read failed: {exc}")
            return None
        if raw is None:
            self.tally("lemma_misses")
            return None
        self._io_errors_in_a_row = 0
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            self.reject_lemma(pair_key, f"undecodable entry: {exc}")
            return None
        if not isinstance(payload, dict):
            self.reject_lemma(pair_key, "payload is not an object")
            return None
        self.tally("lemma_hits")
        return payload

    def record_lemma(self, pair_key: str, payload: dict) -> bool:
        """Persist one verified lemma payload.  Never raises; returns
        True when new bytes reached disk."""
        if not self.enabled:
            return False
        if self.chaos is not None:
            self.chaos.begin_write()
        try:
            written = self._disk.put(
                self.lemma_lookup_key(pair_key), payload_bytes(payload)
            )
        except OSError as exc:
            self._io_error(None, f"lemma store write failed: {exc}")
            return False
        self._io_errors_in_a_row = 0
        if written:
            self.tally("lemma_writes")
        return written

    def reject_lemma(self, pair_key: str, reason: str) -> None:
        """A present-but-unusable lemma entry (bad schema, failed
        re-verification): counted and diagnosed like any invalid store
        entry, then treated as a miss.  The entry itself stays on disk
        -- validation-on-read rejects it again on every consult, the
        same containment the summary path uses."""
        self.tally("invalid")
        self.tally("lemma_misses")
        self._invalid(None, f"lemma entry rejected: {reason}")
