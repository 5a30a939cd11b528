"""Crash-isolating batch runner for the benchmark suite.

Runs each benchmark in its *own process* with a per-run wall-clock
timeout, so that one pathological input -- an analysis that hangs, a
``RecursionError`` deep in fold/unfold, even an interpreter crash --
cannot take down the whole batch.  One zygote per batch imports the
analyzer once and forks a cold child per benchmark; each child prints
a single JSON record, and the parent aggregates them into a
:class:`BatchReport` with pass/degraded/failed/crashed/timeout counts.

Usage::

    python -m repro.benchsuite.runner                 # all benchmarks
    python -m repro.benchsuite.runner treeadd power   # a subset
    python -m repro.benchsuite.runner --json out.json --mode strict
    python -m repro batch                             # same, via the CLI
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import select
import signal as signal_module
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import ShapeAnalysis
from repro.benchsuite import TABLE4_PROGRAMS, entailstress, lemmaprogs, listprogs
from repro.childproc import (
    CHILD_CHAOS_ENV,
    apply_child_chaos,
    child_env,
    classify_exit,
    surviving_trace,
    timeout_diagnostic,
    worker_crash_diagnostic,
)
from repro.ir import Program
from repro.obs import merge_stat_dicts
from repro.reporting import render_batch_report

__all__ = [
    "CHILD_CHAOS_ENV",
    "CRUCIBLE_PREFIX",
    "EDIT_PREFIX",
    "OUTCOMES",
    "BatchReport",
    "RunRecord",
    "benchmark_factories",
    "crucible_names",
    "parse_child_output",
    "run_batch",
    "run_one",
    "trace_file_for",
    "main",
]

#: The coarse outcome classes a batch aggregates on.  ``pass``,
#: ``degraded`` and ``failed`` come from the analysis itself
#: (:attr:`AnalysisResult.outcome`); ``crashed`` and ``timeout`` are
#: assigned by the parent when the child process died or overran.  A
#: crash caused by the child being *killed by a signal* (segfault, OOM
#: kill, external SIGKILL) additionally records the signal name -- a
#: batch full of SIGKILLs is an infrastructure problem, not an analyzer
#: bug, and the report separates the two.
OUTCOMES = ("pass", "degraded", "failed", "crashed", "timeout")

#: Prefix for generated fuzz workloads: ``crucible:<seed>`` resolves to
#: the crucible generator's deterministic program for that seed, so fuzz
#: programs run under the same crash isolation as the curated suite.
CRUCIBLE_PREFIX = "crucible:"

#: Prefix for edited variants: ``edit:<base>@<seed>`` resolves *base*
#: (any resolvable benchmark name, including ``crucible:<seed>``) and
#: applies one deterministic crucible mutation driven by *seed* --
#: the "developer changed one procedure" workload behind incremental
#: re-analysis benchmarks and gates.  An optional ``+<count>`` suffix
#: applies that many mutations (``edit:treeadd@7+3``).
EDIT_PREFIX = "edit:"


def benchmark_factories() -> dict[str, "callable[[], Program]"]:
    """Name -> fresh-program factory for every batch-runnable workload:
    the Table 4 suite plus the list staples."""
    factories: dict[str, "callable[[], Program]"] = {
        name: (lambda n=name: TABLE4_PROGRAMS()[n]) for name in TABLE4_PROGRAMS()
    }
    factories.update(
        {
            "list-build": listprogs.build_program,
            "list-traverse": listprogs.traverse_program,
            "list-reverse": listprogs.reverse_program,
            "list-delete": listprogs.delete_program,
            "list-doubly": listprogs.doubly_program,
            "entail-stress": entailstress.program,
            "lemma-refold": lemmaprogs.refold_program,
            "lemma-diffroot": lemmaprogs.diffroot_program,
            "lemma-sharedtail": lemmaprogs.sharedtail_program,
        }
    )
    return factories


@dataclass
class RunRecord:
    """One benchmark's outcome, JSON-round-trippable."""

    name: str
    outcome: str
    seconds: float = 0.0
    mode: str = "degrade"
    error: str | None = None
    #: signal name (``"SIGKILL"``...) when the child was killed by a
    #: signal; None for every other outcome, including ordinary crashes.
    signal: str | None = None
    diagnostics: list[dict] = field(default_factory=list)
    #: the full :meth:`AnalysisResult.to_record` payload when the
    #: analysis produced a result at all.
    result: dict | None = None
    #: path of the span trace the run wrote (``--trace DIR`` batches);
    #: survives the isolation boundary because the *parent* names the
    #: file and the child just writes to it.
    trace: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "seconds": round(self.seconds, 6),
            "mode": self.mode,
            "error": self.error,
            "signal": self.signal,
            "diagnostics": self.diagnostics,
            "result": self.result,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: dict) -> RunRecord:
        return cls(
            name=data["name"],
            outcome=data["outcome"],
            seconds=data.get("seconds", 0.0),
            mode=data.get("mode", "degrade"),
            error=data.get("error"),
            signal=data.get("signal"),
            diagnostics=data.get("diagnostics", []),
            result=data.get("result"),
            trace=data.get("trace"),
        )


@dataclass
class BatchReport:
    """Aggregated outcomes of one batch run."""

    records: list[RunRecord]
    mode: str = "degrade"

    @property
    def counts(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        """True when every benchmark completed (possibly degraded)."""
        counts = self.counts
        return counts["failed"] == counts["crashed"] == counts["timeout"] == 0

    @property
    def signals(self) -> dict[str, int]:
        """Signal name -> how many children that signal killed."""
        signals: dict[str, int] = {}
        for record in self.records:
            if record.signal:
                signals[record.signal] = signals.get(record.signal, 0) + 1
        return signals

    def metrics_by_outcome(self) -> dict[str, dict]:
        """Canonical engine metrics aggregated per outcome class, merged
        across runs (and across the isolation boundary -- each child's
        metrics ride home inside its result record).  Counters sum;
        ``phase.*.seconds`` gauges sum (total phase time across the
        batch); other gauges keep their maximum; flattened histogram
        components (``*.dist.count``, ``*.dist.bucket.N``, ...) merge
        bucket-wise with the percentiles recomputed from the merged
        buckets, so per-outcome latency distributions stay honest
        across parallel children."""
        merged: dict[str, dict] = {}
        for record in self.records:
            if not record.result:
                continue
            stats = record.result.get("stats") or {}
            bucket = merged.setdefault(record.outcome, {})
            merge_stat_dicts(bucket, stats)
        return merged

    def budget_totals(self) -> dict:
        """Summed budget accounting across all runs that produced one
        -- the robustness numbers the perf trajectory tracks."""
        states = depth = 0
        contained = 0
        for record in self.records:
            if record.result:
                budget = record.result.get("budget", {})
                states += budget.get("states", 0)
                depth = max(depth, budget.get("peak_depth", 0))
            contained += sum(
                d.get("count", 1)
                for d in record.diagnostics
                if d.get("recovered")
            )
        return {
            "states": states,
            "peak_depth": depth,
            "contained_failures": contained,
            "total_seconds": round(
                sum(r.seconds for r in self.records), 6
            ),
        }

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "counts": self.counts,
            "signals": self.signals,
            "budget": self.budget_totals(),
            "metrics": self.metrics_by_outcome(),
            "runs": [record.to_dict() for record in self.records],
        }

    def render(self) -> str:
        return render_batch_report(self.to_dict())


# ----------------------------------------------------------------------
# Single benchmark (the child side of the isolation boundary)
# ----------------------------------------------------------------------


def run_one(
    name: str,
    mode: str = "degrade",
    deadline: float | None = None,
    unroll: int = 2,
    state_budget: int = 20000,
    trace_path: "str | Path | None" = None,
    cache: bool = True,
    lemmas: bool = True,
    edit: "dict | None" = None,
    store=None,
    metrics=None,
    fixpoint_table=None,
    engine_factory=None,
) -> RunRecord:
    """Run one benchmark in-process.  ``ShapeAnalysis.run`` already
    contains analysis failures and internal errors; the extra guard
    here catches spec errors (an unknown edit target, a bad fault
    spec), factory bugs and truly unexpected escapes so a record is
    always produced.

    *edit* is a :class:`repro.serve.protocol.JobSpec` edit dict
    (``seed`` and ``kinds``, optional ``count`` and ``target``),
    applied with :func:`repro.crucible.generator.edit_program`.
    *store*, *metrics*, *fixpoint_table* and *engine_factory* are
    passed to :class:`ShapeAnalysis` unchanged."""
    start = time.perf_counter()
    try:
        program = _resolve_benchmark(name)
        if edit is not None:
            from repro.crucible.generator import edit_program

            program, _notes = edit_program(
                program,
                edit["seed"],
                count=edit.get("count", 1),
                target=edit.get("target"),
                kinds=tuple(edit["kinds"]) if edit.get("kinds") else None,
            )
        result = ShapeAnalysis(
            program,
            name=name,
            mode=mode,
            deadline_seconds=deadline,
            max_unroll=unroll,
            state_budget=state_budget,
            trace_path=trace_path,
            enable_cache=cache,
            enable_lemmas=lemmas,
            store=store,
            metrics=metrics,
            fixpoint_table=fixpoint_table,
            engine_factory=engine_factory,
        ).run()
    except Exception as exc:
        return RunRecord(
            name=name,
            outcome="crashed",
            seconds=time.perf_counter() - start,
            mode=mode,
            error=f"{type(exc).__name__}: {exc}",
            trace=str(trace_path) if trace_path else None,
        )
    record = result.to_record()
    return RunRecord(
        name=name,
        outcome=result.outcome,
        seconds=time.perf_counter() - start,
        mode=mode,
        error=result.failure,
        diagnostics=record["diagnostics"],
        result=record,
        trace=str(trace_path) if trace_path else None,
    )


def trace_file_for(trace_dir: "str | Path", name: str) -> Path:
    """Where a benchmark's trace goes under *trace_dir*.  Benchmark
    names can contain characters hostile to filenames
    (``crucible:7+2``); everything outside a conservative set becomes
    ``_``."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    return Path(trace_dir) / f"{safe}.trace.jsonl"


def _resolve_benchmark(name: str) -> Program:
    """Curated benchmarks come from the factory table;
    ``crucible:<seed>[+<mutations>]`` names regenerate the fuzz
    program deterministically from its seed -- which also works across
    the subprocess boundary, since the child re-derives the same
    program from the name alone."""
    if name.startswith(EDIT_PREFIX):
        from repro.crucible.generator import edit_program

        spec = name[len(EDIT_PREFIX):]
        base, sep, edit_spec = spec.rpartition("@")
        if not sep:
            raise KeyError(
                f"malformed edit benchmark {name!r}; expected "
                "edit:<base>@<seed>[+<count>]"
            )
        seed_text, _, count_text = edit_spec.partition("+")
        edited, _notes = edit_program(
            _resolve_benchmark(base),
            int(seed_text),
            count=int(count_text or 1),
        )
        return edited
    if name.startswith(CRUCIBLE_PREFIX):
        from repro.crucible.generator import generate_program

        spec = name[len(CRUCIBLE_PREFIX):]
        seed_text, _, mutation_text = spec.partition("+")
        return generate_program(
            int(seed_text), mutations=int(mutation_text or 0)
        ).program
    factories = benchmark_factories()
    if name not in factories:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(factories)}"
        )
    return factories[name]()


def crucible_names(seeds: int, base_seed: int = 1, mutations: int = 0) -> list[str]:
    """The batch names for a crucible seed range."""
    suffix = f"+{mutations}" if mutations else ""
    return [
        f"{CRUCIBLE_PREFIX}{seed}{suffix}"
        for seed in range(base_seed, base_seed + seeds)
    ]


# ----------------------------------------------------------------------
# Batch (the parent side)
# ----------------------------------------------------------------------


def parse_child_output(name: str, mode: str, returncode: int, stdout: str,
                       stderr: str = "", seconds: float = 0.0,
                       trace_path: "Path | None" = None) -> RunRecord:
    """The record of a child that exited normally: the last line of its
    stdout, which must be one JSON object.  Anything else (no output,
    ``null``, a list, a record without a name, garbage) is a crash of
    that child, never an exception that ends the batch."""
    lines = stdout.strip().splitlines()
    # Interned keys: a parent holding many records keeps one copy of
    # each stats name, not one per record.
    interned = lambda pairs: {sys.intern(k): v for k, v in pairs}  # noqa: E731
    try:
        payload = json.loads(lines[-1], object_pairs_hook=interned) if lines else None
        if isinstance(payload, dict):
            record = RunRecord.from_dict(payload)
            record.seconds = seconds
            return record
    except (ValueError, KeyError):
        pass
    tail = " | ".join((stderr or stdout).strip().splitlines()[-3:])
    return RunRecord(
        name=name, outcome="crashed", seconds=seconds, mode=mode,
        error=f"child exited with code {returncode}: {tail or 'no output'}",
        trace=surviving_trace(trace_path),
    )


def _zygote() -> int:
    """The ``--zygote`` fork server behind one isolated batch.  Reads
    the batch from stdin, forks one child per job (at most ``jobs``
    alive, each SIGKILLed once it overruns ``timeout``), and writes
    ``[index, wait status, seconds, timed out]`` as it reaps each.  It
    never analyzes and never starts a thread, so every child forks
    from a cold, single-threaded interpreter."""
    import repro.crucible.generator  # noqa: F401 -- crucible:/edit: names

    batch = json.load(sys.stdin)
    os.environ[CHILD_CHAOS_ENV] = batch["chaos"] or ""  # "" means no chaos
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal_module.set_wakeup_fd(wake_w)
    signal_module.signal(signal_module.SIGCHLD, lambda *_: None)
    pending = list(enumerate(batch["argvs"]))[::-1]
    running: dict[int, list] = {}  # pid -> [index, fork time, killed]
    while pending or running:
        while pending and len(running) < batch["jobs"]:
            index, argv = pending.pop()
            pid = os.fork()
            if pid == 0:
                _forked_child(argv, Path(batch["dir"], str(index)))
            running[pid] = [index, time.perf_counter(), False]
        live = [start for _, start, killed in running.values() if not killed]
        wait = min(live) + batch["timeout"] - time.perf_counter() if live else None
        if (wait is None or wait > 0) and select.select([wake_r], [], [], wait)[0]:
            os.read(wake_r, 512)
        for pid, entry in running.items():
            if not entry[2] and time.perf_counter() - entry[1] >= batch["timeout"]:
                os.kill(pid, signal_module.SIGKILL)
                entry[2] = True
        while running and (reaped := os.waitpid(-1, os.WNOHANG))[0]:
            index, start, killed = running.pop(reaped[0])
            seconds = time.perf_counter() - start
            print(json.dumps([index, reaped[1], seconds, killed]), flush=True)
    return 0


def _forked_child(argv: list[str], output: Path) -> None:
    """In a fresh fork of the zygote: send stdout/stderr to
    ``<output>.out``/``.err``, run the ``--child`` path, and leave
    through ``os._exit`` so none of the zygote's loop runs here."""
    code = 1
    try:
        signal_module.set_wakeup_fd(-1)
        signal_module.signal(signal_module.SIGCHLD, signal_module.SIG_DFL)
        for fd, suffix in ((1, ".out"), (2, ".err")):
            os.dup2(os.open(output.with_suffix(suffix), os.O_WRONLY | os.O_CREAT), fd)
        code = main(argv)
    except Exception:
        traceback.print_exc()
    finally:  # also ends an exit or interrupt here, never in the loop
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _run_forked(runs: "list[tuple[str, list[str], Path | None]]", mode: str,
                timeout: float, jobs: int) -> list[RunRecord]:
    """Run each ``(name, child argv, trace path)`` in a child forked by
    one ``--zygote`` process, and build its record."""
    with tempfile.TemporaryDirectory(prefix="repro-batch-") as tmp:
        batch = {"dir": tmp, "timeout": timeout, "jobs": jobs,
                 "chaos": os.environ.get(CHILD_CHAOS_ENV),
                 "argvs": [argv for _, argv, _ in runs]}
        # A session of its own puts the zygote and its children in one
        # process group, so a zygote that dies leaves no child running.
        zygote = subprocess.Popen(
            [sys.executable, "-m", "repro.benchsuite.runner", "--zygote"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), start_new_session=True,
        )
        reaped: dict[int, list] = {}
        try:
            with contextlib.suppress(BrokenPipeError), zygote.stdin:
                json.dump(batch, zygote.stdin)
            with zygote.stdout:
                for line in zygote.stdout:
                    index, *reaped_as = json.loads(line)
                    reaped[index] = reaped_as
        finally:
            if len(reaped) < len(runs):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(zygote.pid, signal_module.SIGKILL)
            zygote.wait()
        records = []
        for index, (name, _, trace_path) in enumerate(runs):
            status, seconds, timed_out = reaped.get(index, (None, 0.0, False))
            code = None if status is None else os.waitstatus_to_exitcode(status)
            # A signal death (segfault, OOM kill) blames the platform.
            killed_by = None if timed_out else classify_exit(code)
            trace = surviving_trace(trace_path)
            if status is None:
                diagnostic = worker_crash_diagnostic(
                    f"batch zygote exited with code {zygote.returncode} "
                    "before the child was reaped",
                    signal=classify_exit(zygote.returncode), trace=trace,
                )
            elif timed_out:
                diagnostic = timeout_diagnostic(timeout, trace=trace)
            elif killed_by is not None:
                diagnostic = worker_crash_diagnostic(
                    f"child killed by {killed_by} (exit code {code})",
                    signal=killed_by, trace=trace,
                )
            else:
                stdout, stderr = (
                    path.read_text(errors="replace") if path.exists() else ""
                    for path in map(Path(tmp, str(index)).with_suffix, (".out", ".err"))
                )
                records.append(parse_child_output(
                    name, mode, code, stdout, stderr, seconds, trace_path))
                continue
            records.append(RunRecord(
                name=name, outcome="timeout" if timed_out else "crashed",
                seconds=seconds, mode=mode, error=diagnostic.message,
                signal=killed_by, diagnostics=[diagnostic.to_dict()],
                trace=trace,
            ))
        return records


def run_batch(
    names: "list[str] | None" = None,
    mode: str = "degrade",
    timeout: float = 120.0,
    deadline: float | None = None,
    unroll: int = 2,
    state_budget: int = 20000,
    trace_dir: "str | Path | None" = None,
    jobs: int = 1,
    cache: bool = True,
    lemmas: bool = True,
) -> BatchReport:
    """Run *names* (default: every known benchmark), each in its own
    child process, and aggregate the outcomes.  One ``--zygote``
    interpreter per call imports the analyzer once and forks a cold
    child per benchmark, so a batch pays interpreter start and
    ``import repro`` once.  With *trace_dir*, every run writes a span
    trace to ``<trace_dir>/<name>.trace.jsonl`` (the parent names the
    file, the child writes it, so traces survive the isolation
    boundary and even child death).

    ``jobs > 1`` lets the zygote keep up to that many children alive
    at once, each still its own OS process.  Records land in input
    order regardless of completion order, so the batch JSON is
    byte-identical to a serial run modulo the timing fields."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if names is None or not names:
        names = sorted(benchmark_factories())
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    traces = [trace_file_for(trace_dir, name) if trace_dir is not None
              else None for name in names]
    flags = ["--mode", mode, "--unroll", str(unroll),
             "--state-budget", str(state_budget)]
    flags += ["--deadline", str(deadline)] * (deadline is not None)
    flags += ["--no-cache"] * (not cache) + ["--no-lemmas"] * (not lemmas)
    runs = [
        (name, ["--child", name, *flags]
         + (["--trace", str(trace_path)] if trace_path else []), trace_path)
        for name, trace_path in zip(names, traces)
    ]
    return BatchReport(_run_forked(runs, mode, timeout, jobs), mode=mode)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.benchsuite.runner",
        description="crash-isolating batch runner for the benchmark suite",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="benchmarks to run (default: all known)",
    )
    parser.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    parser.add_argument("--zygote", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--mode",
        choices=("strict", "degrade"),
        default="degrade",
        help="analysis failure semantics (default degrade)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="per-benchmark isolation timeout in seconds (default 120)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-benchmark analysis deadline in seconds (cooperative)",
    )
    parser.add_argument(
        "--unroll", type=int, default=2, metavar="N",
        help="symbolic iterations before synthesis (default 2)",
    )
    parser.add_argument(
        "--state-budget", type=int, default=20000, metavar="N",
        help="worklist state budget per procedure (default 20000)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run up to N isolated child processes concurrently "
            "(default 1; output order stays deterministic)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-run entailment, unfold and fold memos in "
        "every child",
    )
    parser.add_argument(
        "--no-lemmas",
        action="store_true",
        help="disable the lemma-synthesis entailment fallback in every "
        "child (lemmas only add passes; see tests/test_lemma_golden.py)",
    )
    parser.add_argument(
        "--crucible-seeds",
        type=int,
        default=0,
        metavar="N",
        help="also run crucible fuzz programs for seeds 1..N",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the structured batch report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        help=(
            "write one span trace per benchmark under DIR "
            "(<name>.trace.jsonl); in --child mode this is the exact "
            "trace FILE instead"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list known benchmarks and exit"
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in sorted(benchmark_factories()):
            print(name)
        return 0
    if args.zygote:
        return _zygote()
    if args.child:
        apply_child_chaos()
        record = run_one(
            args.child,
            mode=args.mode,
            deadline=args.deadline,
            unroll=args.unroll,
            state_budget=args.state_budget,
            trace_path=args.trace,
            cache=not args.no_cache,
            lemmas=not args.no_lemmas,
        )
        print(json.dumps(record.to_dict()))
        return 0
    names = list(args.names)
    if args.crucible_seeds:
        if not names:
            names = sorted(benchmark_factories())
        names += crucible_names(args.crucible_seeds)
    report = run_batch(
        names,
        mode=args.mode,
        timeout=args.timeout,
        deadline=args.deadline,
        unroll=args.unroll,
        state_budget=args.state_budget,
        trace_dir=args.trace,
        jobs=args.jobs,
        cache=not args.no_cache,
        lemmas=not args.no_lemmas,
    )
    print(report.render())
    if args.json:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
