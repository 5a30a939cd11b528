"""Tests for the durable predicate/summary store (:mod:`repro.store`):
disk-layer crash safety, codec roundtrips, validation-on-read, fault
injection, I/O containment, and cold/warm verdict parity.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import ShapeAnalysis
from repro.analysis.interproc import ShapeEngine
from repro.analysis.resilience import STORE_INVALID
from repro.benchsuite.runner import _resolve_benchmark
from repro.crucible.faults import FaultPlan
from repro.diff import core_verdict
from repro.logic import lemmas
from repro.logic.canonical import canonicalize
from repro.logic.predicates import PredicateEnv
from repro.logic.state import AbstractState
from repro.store import (
    DiskStore,
    StoreChaos,
    StoreCorrupt,
    StoreFaultSpec,
    SummaryStore,
)
from repro.store.codec import (
    decode_predicate,
    decode_state,
    encode_predicate,
    payload_bytes,
    payload_digest,
)
from repro.store.store import STORE_SCHEMA


def _run(name="list-build", store=None, mode="degrade", unroll=2,
         incremental=True):
    program = _resolve_benchmark(name)
    return ShapeAnalysis(
        program, name=name, mode=mode, max_unroll=unroll, store=store,
        enable_incremental=incremental,
    ).run()


def _dead_pid() -> int:
    """The pid of a process that has exited (and been reaped)."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _engine_config(unroll=2, mode="degrade", lemmas_on=True):
    """The config token a fresh engine computes for these options."""
    engine = lemmas.LemmaEngine() if lemmas_on else lemmas.NULL_ENGINE
    with lemmas.activate_lemmas(engine):
        return ShapeEngine(
            _resolve_benchmark("list-build"), max_unroll=unroll, mode=mode
        ).config


def _store_invalid_count(result):
    return sum(
        1
        for d in result.to_record()["diagnostics"]
        if d["code"] == STORE_INVALID
    )


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------
class TestDiskStore:
    def test_put_get_roundtrip(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        assert disk.get("missing") is None
        assert disk.put("k1", b'{"v": 1}')
        assert disk.get("k1") == b'{"v": 1}'
        # The identical durable mapping is free on re-put.
        assert not disk.put("k1", b'{"v": 1}')

    def test_second_reader_sees_appends_lock_free(self, tmp_path):
        writer = DiskStore(tmp_path)
        writer.open(STORE_SCHEMA)
        reader = DiskStore(tmp_path)
        reader.open(STORE_SCHEMA)
        writer.put("k1", b'{"v": 1}')
        assert reader.get("k1") == b'{"v": 1}'

    def test_torn_index_tail_is_skipped_and_terminated(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        disk.put("k1", b'{"v": 1}')
        with open(disk.index_path, "ab") as handle:
            handle.write(b'{"k": "torn-entr')  # crash mid-append
        fresh = DiskStore(tmp_path)
        fresh.open(STORE_SCHEMA)
        assert fresh.get("k1") == b'{"v": 1}'
        assert fresh.torn_lines == 1
        # The next append terminates the junk; both lines survive.
        fresh.put("k2", b'{"v": 2}')
        again = DiskStore(tmp_path)
        again.open(STORE_SCHEMA)
        assert again.get("k1") == b'{"v": 1}'
        assert again.get("k2") == b'{"v": 2}'

    def test_checksum_failure_quarantines_then_heals(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        disk.put("k1", b'{"v": 1}')
        digest = disk._index["k1"]
        path = disk.objects_dir / f"{digest}.json"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorrupt):
            disk.get("k1")
        assert not path.exists()  # quarantined
        assert disk.get("k1") is None  # now a plain miss
        disk.put("k1", b'{"v": 1}')  # a re-record heals
        assert disk.get("k1") == b'{"v": 1}'

    def test_truncated_object_is_store_corrupt(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        disk.put("k1", b'{"value": "0123456789abcdef"}')
        path = disk.objects_dir / f"{disk._index['k1']}.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreCorrupt):
            disk.get("k1")

    def test_compaction_rewrites_to_live_set(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        # 80 generations of the same key: 80 log lines, 1 live entry.
        for generation in range(80):
            disk.put("k", json.dumps({"g": generation}).encode())
        assert disk.compactions >= 1
        # The log was rewritten to the live set mid-sweep; whatever
        # accumulated since stays well under the dead-line threshold.
        lines = disk.index_path.read_bytes().splitlines()
        assert len(lines) < 30
        assert json.loads(disk.get("k")) == {"g": 79}
        fresh = DiskStore(tmp_path)
        fresh.open(STORE_SCHEMA)
        assert json.loads(fresh.get("k")) == {"g": 79}

    def test_schema_marker_mismatch_is_corrupt(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        (tmp_path / "schema").write_text("999\n")
        with pytest.raises(StoreCorrupt):
            DiskStore(tmp_path).open(STORE_SCHEMA)

    def test_orphaned_tmp_files_swept_at_open(self, tmp_path):
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        orphan = disk.objects_dir / f"tmp-{_dead_pid()}-1"
        orphan.write_bytes(b"half a wri")
        DiskStore(tmp_path).open(STORE_SCHEMA)
        assert not orphan.exists()

    def test_live_writers_tmp_files_survive_open(self, tmp_path):
        """Two processes opening one fresh store at once: the sweep
        must not delete the other's in-flight schema or object temp
        file (it made the other's open fail with ``store open
        failed``)."""
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        writer = os.getppid()  # alive while this test runs
        in_flight = [
            disk.objects_dir / f"tmp-{writer}-1",
            tmp_path / f"tmp-{writer}-schema",
        ]
        for path in in_flight:
            path.write_bytes(b"half a wri")
        DiskStore(tmp_path).open(STORE_SCHEMA)
        assert all(path.exists() for path in in_flight)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_decode_state_reproduces_canonical_key(self):
        result = _run()
        assert result.succeeded
        for _, pairs in result.summaries.items():
            for entry, exits in pairs:
                for state in [entry, *exits]:
                    key = canonicalize(state).key
                    decoded, roots = decode_state(key)
                    assert canonicalize(decoded).key == key
                    assert isinstance(decoded, AbstractState)
                    assert isinstance(roots, dict)  # may be empty

    def test_predicate_roundtrip_preserves_structure(self):
        result = _run()
        defs = result.recursive_predicates()
        assert defs
        for definition in defs:
            clone = decode_predicate(encode_predicate(definition))
            assert clone.name == definition.name
            assert clone.arity == definition.arity
            assert clone.structure_key() == definition.structure_key()

    def test_decode_predicate_rejects_malformed(self):
        with pytest.raises((ValueError, KeyError, TypeError)):
            decode_predicate({"name": "P", "arity": 1, "fields": [["next", ["bogus"]]]})

    def test_payload_digest_is_content_address(self):
        blob = payload_bytes({"b": 2, "a": 1})
        assert blob == b'{"a":1,"b":2}'
        assert payload_digest(blob) == payload_digest(b'{"a":1,"b":2}')
        assert payload_digest(blob) != payload_digest(b'{"a":1,"b":3}')

    def test_lookup_key_isolates_unroll_and_mode(self):
        """Unroll, mode and the lemma setting all reach the engine's
        config token, and each one separates the lookup keys."""
        key = canonicalize(AbstractState()).key

        def lookup(callee="f", **options):
            return SummaryStore.lookup_key(
                callee, key, [], config=_engine_config(**options)
            )

        base = lookup()
        assert base == lookup()
        assert base != lookup(unroll=3)
        assert base != lookup(mode="strict")
        assert base != lookup(lemmas_on=False)
        assert base != lookup("g")


# ----------------------------------------------------------------------
# Fault specs and the crucible bridge
# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_spec_parse(self):
        assert StoreFaultSpec.parse("kill@3") == StoreFaultSpec("kill", 3)
        assert StoreFaultSpec.parse("torn-write") == StoreFaultSpec(
            "torn-write", 1
        )
        with pytest.raises(ValueError):
            StoreFaultSpec("rm-rf")
        with pytest.raises(ValueError):
            StoreFaultSpec("kill", 0)

    def test_chaos_from_env(self):
        chaos = StoreChaos.from_env({"REPRO_STORE_CHAOS": "torn-write@2,kill"})
        assert [s.kind for s in chaos.specs] == ["torn-write", "kill"]
        assert [s.at for s in chaos.specs] == [2, 1]
        assert StoreChaos.from_env({}) is None

    def test_fault_plan_bridge(self):
        plan = FaultPlan(store_specs=[StoreFaultSpec("checksum-flip", 2)])
        chaos = plan.store_chaos()
        assert isinstance(chaos, StoreChaos)
        assert chaos.specs == [StoreFaultSpec("checksum-flip", 2)]
        assert FaultPlan().store_chaos() is None

    def test_each_spec_fires_once(self, tmp_path):
        chaos = StoreChaos([StoreFaultSpec("checksum-flip", 1)])
        target = tmp_path / "object"
        target.write_bytes(b"payload")
        chaos.begin_write()
        chaos("post-object", target)
        assert chaos.fired == [("checksum-flip", 1)]
        chaos("post-object", target)  # same event, already done
        chaos.begin_write()
        chaos("post-object", target)  # later event, spec spent
        assert chaos.fired == [("checksum-flip", 1)]


# ----------------------------------------------------------------------
# End-to-end: the store under a real analysis
# ----------------------------------------------------------------------
class TestSummaryStoreEndToEnd:
    def test_cold_then_warm_parity_and_hits(self, tmp_path):
        baseline = core_verdict(_run())
        cold_store = SummaryStore(tmp_path)
        cold = _run(store=cold_store)
        assert cold_store.stats()["writes"] > 0
        warm_store = SummaryStore(tmp_path)
        warm = _run(store=warm_store)
        stats = warm_store.stats()
        assert stats["hits"] > 0
        assert stats["invalid"] == 0
        assert stats["hit_rate"] > 0
        assert core_verdict(cold) == baseline
        assert core_verdict(warm) == baseline

    @pytest.mark.parametrize(
        "kind", ["torn-write", "checksum-flip", "stale-schema"]
    )
    def test_corrupted_entry_degrades_to_miss_and_heals(self, tmp_path, kind):
        # Incremental replay is off throughout: the chaos spec fires on
        # the first per-entry record, and this test pins the *per-entry*
        # validation-on-read path (a warm fixpoint bundle would answer
        # the program without ever reading the damaged object).
        baseline = core_verdict(_run(incremental=False))
        cold_store = SummaryStore(
            tmp_path, chaos=StoreChaos([StoreFaultSpec(kind, 1)])
        )
        cold = _run(store=cold_store, incremental=False)
        assert cold_store.chaos.fired == [(kind, 1)]
        assert core_verdict(cold) == baseline

        warm_store = SummaryStore(tmp_path)
        warm = _run(store=warm_store, incremental=False)
        assert core_verdict(warm) == baseline
        stats = warm_store.stats()
        assert stats["invalid"] >= 1  # the damage was *seen*, not believed
        assert _store_invalid_count(warm) >= 1  # ... and surfaced

        healed_store = SummaryStore(tmp_path)
        healed = _run(store=healed_store, incremental=False)
        assert core_verdict(healed) == baseline
        stats = healed_store.stats()
        assert stats["invalid"] == 0  # the warm run re-recorded
        assert stats["hits"] > 0

    def test_tampered_payload_rejected_by_validation(self, tmp_path):
        """Valid checksum, wrong content: a payload re-addressed under
        another run's lookup key must fail the callee/entry check."""
        # Per-entry path under test (incremental replay would answer
        # from the fixpoint bundle, whose nested sub-payloads this
        # tamper does not reach).
        baseline = core_verdict(_run(incremental=False))
        _run(store=SummaryStore(tmp_path), incremental=False)
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        for lookup, digest in list(disk._index.items()):
            payload = json.loads(
                (disk.objects_dir / f"{digest}.json").read_bytes()
            )
            payload["callee"] = "somebody_else"
            disk.put(lookup, payload_bytes(payload))
        warm_store = SummaryStore(tmp_path)
        warm = _run(store=warm_store, incremental=False)
        assert core_verdict(warm) == baseline
        assert warm_store.stats()["invalid"] >= 1
        assert _store_invalid_count(warm) >= 1

    def test_store_invalid_never_degrades_outcome(self, tmp_path):
        _run(store=SummaryStore(tmp_path))
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        for digest in disk._index.values():
            path = disk.objects_dir / f"{digest}.json"
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        warm = _run(store=SummaryStore(tmp_path))
        assert _store_invalid_count(warm) >= 1
        assert warm.outcome == _run().outcome  # not "degraded" by the store

    def test_mid_write_kill_recovery(self, tmp_path):
        """A writer SIGKILLed between object commit and index append
        (simulated via a chaos schedule that stops short of the actual
        kill) leaves an unindexed object; the next run misses, re-
        records, and converges."""
        baseline = core_verdict(_run())
        # Simulate the post-crash state directly: commit an object but
        # never index it, plus an orphaned temp file.
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        disk.put_object(b'{"orphan": true}')
        (disk.objects_dir / f"tmp-{_dead_pid()}-7").write_bytes(b"torn tem")
        cold_store = SummaryStore(tmp_path)
        cold = _run(store=cold_store)
        assert core_verdict(cold) == baseline
        assert cold_store.stats()["writes"] > 0
        assert not list(disk.objects_dir.glob("tmp-*"))  # swept at open
        warm_store = SummaryStore(tmp_path)
        assert core_verdict(_run(store=warm_store)) == baseline
        assert warm_store.stats()["hits"] > 0


# ----------------------------------------------------------------------
# I/O containment
# ----------------------------------------------------------------------
class TestIOContainment:
    def test_open_failure_disables_not_raises(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")
        store = SummaryStore(not_a_dir)
        assert not store.enabled
        env = PredicateEnv()
        assert store.consult("f", AbstractState(), [], env) is None
        assert not store.record("f", AbstractState(), [], [], env)

    def test_disables_after_consecutive_io_errors(self, tmp_path, monkeypatch):
        store = SummaryStore(tmp_path)
        assert store.enabled

        def boom(lookup):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(store._disk, "get", boom)
        env = PredicateEnv()
        for _ in range(3):
            assert store.consult("f", AbstractState(), [], env) is None
        assert not store.enabled
        stats = store.stats()
        assert stats["io_errors"] == 3
        messages = [d.message for d in store.take_diagnostics()]
        assert any("disabled" in m for m in messages)
        # Disabled means inert, not broken.
        assert store.consult("f", AbstractState(), [], env) is None
        assert not store.record("f", AbstractState(), [], [], env)

    def test_one_off_io_error_does_not_disable(self, tmp_path, monkeypatch):
        store = SummaryStore(tmp_path)
        real_get = store._disk.get
        calls = {"n": 0}

        def flaky(lookup):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(28, "No space left on device")
            return real_get(lookup)

        monkeypatch.setattr(store._disk, "get", flaky)
        env = PredicateEnv()
        store.consult("f", AbstractState(), [], env)
        store.consult("f", AbstractState(), [], env)  # succeeds: resets
        store.consult("f", AbstractState(), [], env)
        assert store.enabled
        assert store.stats()["io_errors"] == 1


# ----------------------------------------------------------------------
# store-gc: bounded retention
# ----------------------------------------------------------------------
class TestStoreGC:
    def _populate(self, tmp_path):
        _run(store=SummaryStore(tmp_path))
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        return sum(
            p.stat().st_size for p in disk.objects_dir.glob("*.json")
        )

    def test_collect_evicts_down_to_budget(self, tmp_path):
        from repro.store.gc import collect

        total = self._populate(tmp_path)
        assert total > 0
        budget = total // 2
        report = collect(tmp_path, budget)
        assert not report["refused"]
        assert report["evicted"] > 0
        assert report["bytes_after"] <= budget
        # The shrunken store still works: evicted entries are plain
        # misses, survivors still answer, and re-analysis heals.
        warm = _run(store=SummaryStore(tmp_path))
        assert core_verdict(warm) == core_verdict(_run())

    def test_collect_within_budget_is_a_noop(self, tmp_path):
        from repro.store.gc import collect

        total = self._populate(tmp_path)
        report = collect(tmp_path, total + 1)
        assert report["evicted"] == 0
        assert report["bytes_after"] == total

    def test_live_pid_refuses_without_force(self, tmp_path):
        from repro.store.gc import (
            collect,
            register_store_pid,
            release_store_pid,
        )

        self._populate(tmp_path)
        register_store_pid(tmp_path)
        try:
            report = collect(tmp_path, 0)
            assert report["refused"]
            assert report["evicted"] == 0
            forced = collect(tmp_path, 0, force=True)
            assert not forced["refused"]
            assert forced["evicted"] > 0
        finally:
            release_store_pid(tmp_path)

    def test_stale_pidfile_is_reaped(self, tmp_path):
        from repro.store.gc import collect

        self._populate(tmp_path)
        pids = tmp_path / "pids"
        pids.mkdir()
        (pids / "999999999.pid").write_text("999999999 serve\n")
        (pids / "junk.pid").write_text("not-a-pid\n")
        report = collect(tmp_path, 0)
        assert not report["refused"]
        assert report["stale_pidfiles_reaped"] == 2

    def test_dangling_index_entries_are_dropped(self, tmp_path):
        from repro.store.gc import collect

        total = self._populate(tmp_path)
        disk = DiskStore(tmp_path)
        disk.open(STORE_SCHEMA)
        victim = next(iter(disk._index.values()))
        (disk.objects_dir / f"{victim}.json").unlink()
        report = collect(tmp_path, total)
        assert report["dangling_dropped"] > 0
        fresh = DiskStore(tmp_path)
        fresh.open(STORE_SCHEMA)
        assert victim not in fresh._index.values()
