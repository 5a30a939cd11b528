"""Behavioral tests for incremental re-analysis: fixpoint replay
parity, the ``--no-incremental`` escape hatch, corruption degradation,
and the differential gate itself (including the historical
cross-program replay-contamination seed).
"""

import pytest

from repro.analysis import ShapeAnalysis
from repro.benchsuite.runner import _resolve_benchmark
from repro.crucible.generator import edit_program
from repro import diff
from repro.diff import _corrupt, core_verdict
from repro.store import SummaryStore
from repro.store.fixpoint import FixpointTable


def _analyze(program, name, *, store=None, fixpoint=None,
             incremental=True, mode="degrade"):
    return ShapeAnalysis(
        program,
        name=name,
        mode=mode,
        max_unroll=2,
        store=store,
        fixpoint_table=fixpoint,
        enable_incremental=incremental,
    ).run()


def _stable_record(result):
    """The full record minus wall-clock noise: what bit-for-bit
    equality means for two runs of a deterministic analysis."""
    def strip(value):
        if isinstance(value, dict):
            return {
                k: strip(v)
                for k, v in value.items()
                if "seconds" not in k
            }
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(result.to_record())


class TestNoIncremental:
    def test_no_incremental_restores_from_scratch_bit_for_bit(self):
        """With replay disabled, a warm fixpoint table attached to the
        engine must change *nothing*: the record is identical (minus
        timing) to a run that never saw the table."""
        program = _resolve_benchmark("treeadd")
        table = FixpointTable()
        _analyze(program, "treeadd", fixpoint=table)
        assert len(table) > 0  # the table really is warm

        scratch = _analyze(program, "treeadd", incremental=False)
        gated = _analyze(
            program, "treeadd", fixpoint=table, incremental=False
        )
        assert _stable_record(scratch) == _stable_record(gated)
        # The gate is at consult time, not merely at metric time.
        stats = gated.to_record()["stats"]
        assert stats.get("incr.fixpoint.hits", 0) == 0
        assert stats.get("incr.summaries.replayed", 0) == 0

    def test_no_incremental_never_exports(self):
        program = _resolve_benchmark("treeadd")
        table = FixpointTable()
        _analyze(program, "treeadd", fixpoint=table, incremental=False)
        assert len(table) == 0


class TestReplayParity:
    def test_edited_program_replays_with_identical_verdict(self):
        """The edit-loop shape: analyze the base once (warm the
        table), then an entry-procedure edit -- the unchanged callee
        cone replays, the verdict matches from-scratch exactly."""
        base = _resolve_benchmark("treeadd")
        table = FixpointTable()
        _analyze(base, "treeadd", fixpoint=table)

        edited, notes = edit_program(
            base, 7, target=base.entry, kinds=("dead-store",)
        )
        assert notes
        scratch = _analyze(edited, "treeadd")
        warm = _analyze(edited, "treeadd", fixpoint=table)
        assert core_verdict(scratch) == core_verdict(warm)
        stats = warm.to_record()["stats"]
        assert stats.get("incr.summaries.replayed", 0) > 0

    def test_foreign_entry_keys_never_answer(self):
        """Regression for cross-table contamination: bundle summaries
        whose recorded entry key is not byte-identical to the live
        call's canonical key must never answer, even when the decoded
        entries are semantically equivalent.  Swapping entry keys
        between two procedures' bundles must leave the verdict exactly
        the from-scratch one (poisoned summaries are either rejected
        by validation or installed-but-mute)."""
        base = _resolve_benchmark("treeadd")
        table = FixpointTable()
        _analyze(base, "treeadd", fixpoint=table)

        wire = table.to_wire()
        payloads = wire["payloads"]
        swappable = [
            key
            for key, payload in payloads.items()
            if isinstance(payload, dict) and payload.get("summaries")
        ]
        assert len(swappable) >= 2, "need two bundles to cross-wire"
        a, b = swappable[0], swappable[1]
        sub_a = payloads[a]["summaries"][0]
        sub_b = payloads[b]["summaries"][0]
        sub_a["entry"], sub_b["entry"] = sub_b["entry"], sub_a["entry"]

        poisoned = FixpointTable()
        poisoned.merge_wire(wire)
        scratch = _analyze(base, "treeadd")
        replayed = _analyze(base, "treeadd", fixpoint=poisoned)
        assert core_verdict(scratch) == core_verdict(replayed)


class TestCorruption:
    @pytest.mark.parametrize("kind", ["torn-write", "stale-schema"])
    def test_corrupt_fixpoints_degrade_loudly_with_parity(
        self, tmp_path, kind
    ):
        """Corrupted fixpoint bundles must (a) never change the
        verdict and (b) surface as structured store-invalid
        rejections, not silence."""
        program = _resolve_benchmark("treeadd")
        _analyze(program, "treeadd", store=SummaryStore(tmp_path))
        assert _corrupt(kind, str(tmp_path)) > 0

        baseline = _analyze(program, "treeadd")
        warm_store = SummaryStore(tmp_path)
        warm = _analyze(program, "treeadd", store=warm_store)
        assert core_verdict(baseline) == core_verdict(warm)
        assert warm_store.stats()["invalid"] > 0


class TestGate:
    def test_historical_contamination_seed_passes(self, tmp_path, monkeypatch):
        """Seed 25 once diverged: replayed summaries from an
        equivalent-but-differently-spelled entry answered a foreign
        call.  The exact-entry-key rule fixed it; this pins the seed in
        the sweep forever (as the first seed of a sweep, the edit
        replays under the all-on row, the historical configuration)."""
        monkeypatch.setattr(diff, "CURATED", ())
        report = diff.run_gate(str(tmp_path), seeds=1, base_seed=25)
        assert report["skipped"] == []
        assert [f for f in report["failures"] if "crucible:25" in f] == []
        assert report["fixpoint_replays"] > 0
