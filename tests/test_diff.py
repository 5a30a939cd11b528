"""Tests for the engine-configuration differential gate
(:mod:`repro.diff`): a small clean sweep across the whole fault
rotation, and proof that a diverging warm verdict fails it.
"""

from repro import diff


def test_small_sweep_is_clean_and_exercises_every_leg(tmp_path):
    report = diff.run_gate(str(tmp_path), seeds=len(diff.FAULTS))
    assert report["failures"] == []
    assert report["skipped"] == []
    assert all(report["faults"][kind] for kind in diff.FAULTS)
    assert report["warm_hits"] > 0
    assert report["fixpoint_replays"] > 0
    assert report["lemma_assisted_passes"] > 0
    assert report["invalid_rejections"] > 0


def test_diverging_warm_verdict_fails_the_gate(tmp_path, monkeypatch):
    """A store-backed run that concludes differently from its scratch
    twin must be named and must fail the gate."""
    analyze = diff._analyze

    def store_changes_the_verdict(name, mode, row, deadline, store=None):
        result = analyze(name, mode, row, deadline, store)
        if store is not None:
            result.attempts += 1
        return result

    monkeypatch.setattr(diff, "_analyze", store_changes_the_verdict)
    monkeypatch.setattr(diff, "CURATED", ("list-build",))

    report = diff.run_gate(str(tmp_path), seeds=0)
    assert any(
        failure.startswith("list-build (strict): warm core verdict")
        for failure in report["failures"]
    ), report["failures"]


def test_every_fault_meets_every_populate_row():
    """The default sweep must damage stores populated under every row,
    the incremental-on rows included: those write the fixpoint bundles
    a warm run replays."""
    met = {(fault, populate) for *_, fault, populate, _ in diff._items(52, 1)}
    assert met == {(fault, row) for fault in diff.FAULTS for row in diff.ROWS}
