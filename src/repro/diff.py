"""``python -m repro diff`` -- the one differential gate.

Every accelerator the engine carries -- the entailment/unfold/fold
memos, lemma synthesis, the durable store and fixpoint replay -- promises to change *how fast* a verdict comes,
never *which* verdict.  This gate checks that promise for every knob
and every pair of knobs, with one protocol and one comparator,
:func:`core_verdict` (outcome, failure, attempts and the diagnostic
codes other than ``store-invalid``, which describe the store, not the
program).

**Config table.**  :data:`ROWS` is a constant, not a flag.  Each row
is three bits -- cache, lemmas, incremental -- and the five rows
form a pairwise cover: every pair of knobs is seen in all four on/off
combinations, including the all-on and all-off corners.

**Programs.**  Seeded (base, edited) crucible pairs
(:func:`pair_names`) in degrade mode, plus the curated programs
(:data:`CURATED`: the list staples, ``entail-stress`` and the three
``lemma-*`` programs) in strict and in degrade mode.

**Scratch leg.**  Every program runs under all five rows without a
store.  Rows with the same lemma bit must agree on the core verdict
(cache and incremental are pure accelerators), and a
lemmas-off pass implies a lemmas-on pass (lemmas may only *add*
passes, oracle claim D).  A program whose first scratch run needs more
than half the deadline is skipped and reported: near the deadline
cliff, wall-clock verdicts are not deterministic enough to compare.

**Store leg.**  One store directory is shared by the whole sweep.
Each item populates its base under a row P, then runs the base and
the edit warm under P (same-configuration reuse) and again under a
different row W (cross-configuration reuse); every run must equal its
row's scratch verdict.  Seed *i* takes ``P = ROWS[i % 5]`` and
``W = ROWS[(i + 1) % 5]``, so the seeds walk the table and cross each
knob on<->off; the curated items cross the widest gap, all-on to
all-off.  The store key must separate what changes verdicts (the lemma
bit: a lemma-assisted summary would turn a lemma-free failure into a
pass) and may share what does not.  Seed *i* also applies fault
``FAULTS[i % 6]`` from :data:`FAULTS` between populate and warm runs:
flip a byte in every indexed object (checksum), truncate them (torn
write), rewrite them under a bumped schema (stale entry), append half
an index line (torn tail), or populate in a child SIGKILLed at its
second store write and re-run cold over the debris.  Five rows and six
faults are coprime, so every 30 consecutive seeds pair every fault
with every populate row -- the incremental-on rows included, which
write the fixpoint bundles a fault then damages.

The gate exits 1 on any divergence or crash, and when nothing was
exercised: zero warm store hits, zero fixpoint replays, no
lemma-assisted pass, or a must-reject fault (checksum, torn write,
stale schema) whose seed surfaced no ``store-invalid`` rejection.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from repro.analysis import ShapeAnalysis
from repro.analysis.resilience import STORE_INVALID
from repro.benchsuite.runner import _resolve_benchmark
from repro.childproc import child_env
from repro.store.chaos import CHAOS_ENV
from repro.store.codec import payload_bytes
from repro.store.disk import DiskStore
from repro.store.store import STORE_SCHEMA, SummaryStore

__all__ = ["CURATED", "FAULTS", "ROWS", "core_verdict", "main",
           "pair_names", "run_gate"]

#: Engine configurations, one bit per knob: cache, lemmas,
#: incremental.  A pairwise cover plus the all-on/all-off corners.  Its
#: length must stay coprime with ``len(FAULTS)`` so the seeds pair every
#: fault with every populate row.
ROWS = ("111", "000", "110", "101", "011")

#: Curated programs, each run in strict and in degrade mode: the list
#: staples, the entailment-bound stress program and the lemma programs.
CURATED = (
    "list-build",
    "list-traverse",
    "list-reverse",
    "list-delete",
    "list-doubly",
    "entail-stress",
    "lemma-refold",
    "lemma-diffroot",
    "lemma-sharedtail",
)

#: Per-seed store fault rotation.  ``none`` keeps the happy path (and
#: the hit requirements) honest; ``kill`` crashes the populating writer.
FAULTS = (
    "none",
    "checksum-flip",
    "torn-write",
    "stale-schema",
    "torn-index",
    "kill",
)

#: Faults that rewrite committed, indexed data: validation must surface
#: each as a ``store-invalid`` rejection.  A torn index tail and a
#: mid-write kill leave crash debris that readers skip by design.
MUST_REJECT = ("checksum-flip", "torn-write", "stale-schema")

#: Seed offset between a pair's program seed and its edit seed, so the
#: edit RNG stream never coincides with the generator's.
_EDIT_SEED_OFFSET = 101


def pair_names(seed: int) -> "tuple[str, str]":
    """The (base, edited) benchmark names for one gate seed."""
    base = f"crucible:{seed}"
    return base, f"edit:{base}@{seed + _EDIT_SEED_OFFSET}"


def core_verdict(result) -> dict:
    """What an analysis concluded, independent of how fast it got there
    and of the store it consulted."""
    return {
        "outcome": result.outcome,
        "failure": result.failure,
        "attempts": result.attempts,
        "diagnostics": sorted(
            d.code for d in result.diagnostics if d.code != STORE_INVALID
        ),
    }


def _analyze(name: str, mode: str, row: str, deadline: float, store=None):
    cache, lemmas, incremental = (bit == "1" for bit in row)
    return ShapeAnalysis(
        _resolve_benchmark(name),
        name=name,
        mode=mode,
        deadline_seconds=deadline,
        enable_cache=cache,
        enable_lemmas=lemmas,
        enable_incremental=incremental,
        store=store,
    ).run()


def _corrupt(kind: str, store_dir: str) -> int:
    """Apply *kind* to every indexed object (the store is shared, so
    "what this seed wrote" is not a usable target set; corrupting all
    of it guarantees the entries a warm run consults first are among
    the victims).  Returns how many entries were touched."""
    disk = DiskStore(store_dir)
    disk.open(STORE_SCHEMA)
    if kind == "torn-index":
        with open(disk.index_path, "ab") as handle:
            handle.write(b'{"k": "torn-by-repro-diff", "o": "dead')
        return 1
    touched = 0
    for lookup, digest in sorted(dict(disk._index).items()):
        path = disk.objects_dir / f"{digest}.json"
        if not path.exists():
            continue
        if kind == "checksum-flip":
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        elif kind == "torn-write":
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
        elif kind == "stale-schema":
            try:
                payload = json.loads(path.read_bytes())
                payload["schema"] = int(payload.get("schema", STORE_SCHEMA)) + 1
            except (ValueError, TypeError):
                # Debris of an earlier torn write that no run has
                # consulted (and so healed) yet: already corrupt.
                continue
            disk.put(lookup, payload_bytes(payload))
        touched += 1
    return touched


def _populate_in_killed_child(
    name: str, mode: str, row: str, store_dir: str, deadline: float
) -> int:
    """Populate in a subprocess armed to SIGKILL itself at its second
    store write (object committed, index append pending).  Returns the
    child's returncode (negative: died by signal; 0: too few writes for
    the fault to fire -- both leave a store the next run must cope
    with)."""
    command = [
        sys.executable, "-m", "repro", "diff",
        "--populate", f"{row}/{mode}/{name}",
        "--store", store_dir,
        "--deadline", str(deadline),
    ]
    return subprocess.run(
        command,
        env=child_env({CHAOS_ENV: "kill@2"}),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=600,
    ).returncode


def _items(seeds: int, base_seed: int) -> list:
    """(label, mode, program names, fault, populate row, warm row) per
    gate item (see the module docstring)."""
    items = [
        (f"{name} ({mode})", mode, (name,), "none", ROWS[0], ROWS[1])
        for name in CURATED
        for mode in ("strict", "degrade")
    ]
    for index in range(seeds):
        base, edited = pair_names(base_seed + index)
        items.append((
            base, "degrade", (base, edited), FAULTS[index % len(FAULTS)],
            ROWS[index % len(ROWS)], ROWS[(index + 1) % len(ROWS)],
        ))
    return items


def run_gate(
    store_dir: str, seeds: int = 52, base_seed: int = 1, deadline: float = 20.0
) -> dict:
    """The sweep; returns the report dict (``failures`` empty iff the
    gate passed)."""
    failures: list[str] = []
    skipped: list[str] = []
    counts = {"runs": 0, "warm_hits": 0, "fixpoint_replays": 0,
              "invalid_rejections": 0, "lemma_assisted_passes": 0}
    faults = {kind: 0 for kind in FAULTS}
    start = time.perf_counter()

    def run(name, mode, row, store=None):
        result = _analyze(name, mode, row, deadline, store)
        counts["runs"] += 1
        if result.outcome == "pass" and result.stats.get(
            "entailment.lemma.applied", 0
        ):
            counts["lemma_assisted_passes"] += 1
        return result

    def scratch_verdicts(name, mode):
        """Core verdict per row, or None when the first run is too
        close to the deadline cliff."""
        verdicts = {}
        for row in ROWS:
            clock = time.perf_counter()
            verdicts[row] = core_verdict(run(name, mode, row))
            if row == ROWS[0] and time.perf_counter() - clock > deadline / 2:
                return None
        return verdicts

    items = _items(seeds, base_seed)
    for label, mode, names, fault, populate, crossed in items:
        try:
            scratch = {}
            for name in names:
                scratch[name] = scratch_verdicts(name, mode)
                if scratch[name] is None:
                    skipped.append(
                        f"{label}: {name} needed more than {deadline / 2}s "
                        "from scratch -- too close to the deadline cliff "
                        "to compare"
                    )
                    break
            if None in scratch.values():
                continue

            for name, verdicts in scratch.items():
                # ROWS[0] has lemmas on, ROWS[1] off: the references.
                for row in ROWS[2:]:
                    same = ROWS[0] if row[1] == "1" else ROWS[1]
                    if verdicts[row] != verdicts[same]:
                        failures.append(
                            f"{name} ({mode}): scratch core verdict under "
                            f"{row} {verdicts[row]} != under {same} "
                            f"{verdicts[same]}"
                        )
                if (verdicts[ROWS[1]]["outcome"] == "pass"
                        and verdicts[ROWS[0]]["outcome"] != "pass"):
                    failures.append(
                        f"{name} ({mode}): lemmas lost a structural pass"
                    )

            def diverged(name, where, row, result):
                got, want = core_verdict(result), scratch[name][row]
                if got != want:
                    failures.append(
                        f"{name} ({mode}): {where} core verdict under {row} "
                        f"{got} != scratch {want}"
                    )

            faults[fault] += 1
            base = names[0]
            if fault == "kill":
                _populate_in_killed_child(
                    base, mode, populate, store_dir, deadline
                )
            cold = run(base, mode, populate, SummaryStore(store_dir))
            diverged(base, "populate", populate, cold)
            corrupted = 0
            if fault in MUST_REJECT or fault == "torn-index":
                corrupted = _corrupt(fault, store_dir)
                if fault in MUST_REJECT and not corrupted:
                    failures.append(
                        f"{label}: store empty after populate -- fault "
                        f"{fault} not exercised"
                    )
            warm_store = SummaryStore(store_dir)
            for row in (populate, crossed):
                for name in names:
                    diverged(name, "warm", row, run(name, mode, row, warm_store))
            stats = warm_store.stats()
            counts["warm_hits"] += stats["hits"]
            counts["fixpoint_replays"] += stats.get("fixpoint_hits", 0)
            counts["invalid_rejections"] += stats["invalid"]
            if fault in MUST_REJECT and corrupted and not stats["invalid"]:
                failures.append(
                    f"{label}: fault {fault} corrupted {corrupted} entr(ies) "
                    "but the warm runs rejected nothing"
                )
        except Exception as exc:  # the gate itself must never crash
            failures.append(
                f"{label}: gate crashed ({type(exc).__name__}: {exc})"
            )

    for counter, what in (
        ("warm_hits", "the warm runs never hit the store"),
        ("fixpoint_replays", "no cached fixpoint table was ever replayed"),
        ("lemma_assisted_passes", "no pass was ever lemma-assisted"),
    ):
        if not counts[counter]:
            failures.append(f"{what}: parity proves nothing")

    return {
        "seeds": seeds,
        "base_seed": base_seed,
        "items": len(items),
        "skipped": skipped,
        "faults": faults,
        **counts,
        "failures": failures,
        "seconds": round(time.perf_counter() - start, 3),
    }


def main(argv: "list[str] | None" = None) -> int:
    import argparse
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="engine-configuration differential gate (see module doc)",
    )
    parser.add_argument("--seeds", type=int, default=52)
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument(
        "--deadline",
        type=float,
        default=20.0,
        metavar="S",
        help="per-run analysis deadline; programs needing more than half "
        "of it from scratch are skipped as nondeterministic (default 20)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: a fresh temp dir, removed after)",
    )
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--populate",
        default=None,
        metavar="ROW/MODE/BENCHMARK",
        help=argparse.SUPPRESS,  # internal child mode for the kill fault
    )
    args = parser.parse_args(argv)

    if args.populate:
        if not args.store:
            parser.error("--populate requires --store")
        row, mode, name = args.populate.split("/", 2)
        # SummaryStore.open honors REPRO_STORE_CHAOS: that is how the
        # SIGKILL reaches this child.
        _analyze(name, mode, row, args.deadline, SummaryStore.open(args.store))
        return 0

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-diff-")
    try:
        report = run_gate(
            store_dir,
            seeds=args.seeds,
            base_seed=args.base_seed,
            deadline=args.deadline,
        )
    finally:
        if not args.store:
            shutil.rmtree(store_dir, ignore_errors=True)

    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(
            f"diff: {report['items']} item(s) ({len(report['skipped'])} "
            f"skipped), {report['runs']} run(s) in {report['seconds']}s, "
            f"faults {report['faults']}, {report['warm_hits']} warm hit(s), "
            f"{report['fixpoint_replays']} fixpoint replay(s), "
            f"{report['invalid_rejections']} store-invalid rejection(s), "
            f"{report['lemma_assisted_passes']} lemma-assisted pass(es)"
        )
    for line in report["skipped"]:
        print(f"diff skip: {line}", file=sys.stderr)
    if report["failures"]:
        for failure in report["failures"]:
            print(f"diff FAIL: {failure}", file=sys.stderr)
        return 1
    if not args.json:
        print("diff: core verdicts agreed across every configuration and fault")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
