"""Command-line interface: ``python -m repro <file>``.

Analyzes a mini-C file (``.c``), a textual-IR file (``.ir``), or a
built-in benchmark by name (``python -m repro treeadd``) and prints
the inferred recursive predicates, the exit states, and the timing
breakdown.  ``--run`` additionally executes the program with the
concrete interpreter and model-checks every tree/list predicate whose
root the program returned.  ``python -m repro batch`` instead drives
the built-in benchmark suite through the crash-isolating batch runner
(:mod:`repro.benchsuite.runner`; it takes that module's flags).

Observability: ``--trace FILE`` writes a hierarchical span trace of
the run as JSONL (``repro batch --trace DIR`` writes one trace per
benchmark), ``--metrics`` prints the canonical engine metrics, and
``python -m repro trace-summary FILE`` aggregates a trace into the
top-down time/count tree.

Performance: ``python3 perfbench/run.py`` (see ``perfbench/README.md``)
is the benchmark; ``--no-cache`` disables the entailment, unfold and
fold memos for a single run.

Soundness gate: ``python -m repro diff`` runs seeded crucible edit
pairs and the curated programs under a fixed pairwise cover of engine
configurations (cache, lemmas, incremental), from scratch and against
one shared, fault-injected store, and fails on any core-verdict
divergence (see :mod:`repro.diff`).  ``--no-cache``, ``--no-lemmas``
and ``--no-incremental`` switch one knob off for a single run;
``--store PATH`` attaches a durable summary store to one.

Serving: ``python -m repro serve`` runs the supervised analysis daemon
(persistent workers, each keeping its procedure-summary table across
jobs, behind a bounded queue; see
:mod:`repro.serve`), ``submit`` sends it one job, ``serve-bench``
load-tests it, and ``serve-smoke`` is the CI chaos gate.

Exit codes (stable, for batch drivers):

* ``0``   analysis succeeded (possibly degraded -- check the output);
* ``1``   the analysis failed (halt-and-report, budget exhaustion, or
  an internal error contained into a diagnostic);
* ``2``   usage errors: missing file, bad flags;
* ``3``   the input failed to parse, type-check, or lower to IR;
* ``batch`` exits ``0`` only when no benchmark failed, crashed or
  timed out, ``1`` otherwise;
* ``--crucible`` exits ``0`` only when the fuzzing campaign found no
  differential-oracle violations (analysis failures on mutants are
  expected and fine; *unsound* or *unclassified* ones are not).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.analysis import ShapeAnalysis
from repro.concrete import Interpreter
from repro.frontend import compile_c
from repro.frontend.cparser import ParseError as CParseError
from repro.frontend.lexer import LexError
from repro.frontend.lower import LowerError
from repro.frontend.typecheck import TypeError_
from repro.ir import parse_program, print_program
from repro.ir.program import IRError
from repro.logic import satisfies

EXIT_OK = 0
EXIT_ANALYSIS_FAILED = 1
EXIT_USAGE = 2
EXIT_FRONTEND = 3

#: Everything the frontend can raise on malformed input.
FRONTEND_ERRORS = (CParseError, LexError, LowerError, TypeError_, IRError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Shape analysis with inductive recursion synthesis "
            "(Guo, Vachharajani, August; PLDI 2007)"
        ),
    )
    parser.add_argument(
        "file",
        nargs="?",
        help=(
            "a mini-C (.c) or textual-IR (.ir) file, or a built-in "
            "benchmark name (e.g. treeadd; see "
            "python -m repro.benchsuite.runner --list)"
        ),
    )
    parser.add_argument(
        "--no-slicing", action="store_true", help="disable the slicing pre-pass"
    )
    parser.add_argument(
        "--unroll",
        type=int,
        default=2,
        metavar="N",
        help="symbolic iterations before synthesis (default 2)",
    )
    parser.add_argument(
        "--mode",
        choices=("strict", "degrade"),
        default="strict",
        help=(
            "failure semantics: strict halts on the first failure (the "
            "paper's behavior); degrade runs the same single analysis "
            "but contains failures per loop/procedure"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget for the whole analysis in seconds",
    )
    parser.add_argument(
        "--state-budget",
        type=int,
        default=20000,
        metavar="N",
        help="worklist state budget per procedure (default 20000)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the structured result record to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write a hierarchical span trace (JSONL) to PATH (explore "
            "it with 'trace-summary')"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the canonical engine metrics after the analysis",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the entailment, unfold and fold memos (verdicts "
        "are identical either way; see 'python -m repro diff')",
    )
    parser.add_argument(
        "--no-lemmas",
        action="store_true",
        help="disable the lemma-synthesis entailment fallback "
        "(restores the purely structural matcher; lemmas only add "
        "passes -- see 'python -m repro diff')",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="durable predicate/summary store directory: validated "
        "summaries are reused across runs and processes (verdicts are "
        "identical either way; see 'python -m repro diff')",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable fixpoint-bundle replay against the durable store "
        "(per-entry summary reuse still applies; verdicts are identical "
        "either way -- see 'python -m repro diff')",
    )
    parser.add_argument(
        "--dump-ir", action="store_true", help="print the (lowered) IR and exit"
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="also execute concretely and model-check the result",
    )
    parser.add_argument(
        "--invariants",
        action="store_true",
        help="print the verified loop invariants and procedure summaries",
    )
    crucible = parser.add_argument_group(
        "crucible (adversarial validation)",
        "seeded fuzzing with a differential analysis-vs-interpreter oracle",
    )
    crucible.add_argument(
        "--crucible",
        action="store_true",
        help="run a fuzzing campaign instead of analyzing a file",
    )
    crucible.add_argument(
        "--seeds",
        type=int,
        default=20,
        metavar="N",
        help="number of seeds in the campaign (default 20)",
    )
    crucible.add_argument(
        "--base-seed",
        type=int,
        default=1,
        metavar="S",
        help="first seed of the campaign (default 1)",
    )
    crucible.add_argument(
        "--mutate",
        type=int,
        default=0,
        metavar="N",
        help="mutations per generated program (default 0: pure skeletons)",
    )
    crucible.add_argument(
        "--corpus-dir",
        default=None,
        metavar="DIR",
        help="where minimized reproducers go (default crucible/corpus)",
    )
    crucible.add_argument(
        "--check-determinism",
        action="store_true",
        help="with --crucible: run the campaign twice and require "
        "byte-identical reports",
    )
    crucible.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run the differential oracle on a corpus reproducer",
    )
    return parser


def load_program(path: Path):
    text = path.read_text()
    if path.suffix == ".c":
        return compile_c(text)
    return parse_program(text)


def _trace_summary(argv: list[str]) -> int:
    """The ``trace-summary`` subcommand: aggregate one or more trace
    files into the top-down time/count tree, a collapsed-stack
    flamegraph export, or a self-time hotspot table."""
    from repro.obs.summary import (
        read_trace,
        render_collapsed,
        render_hotspots,
        render_trace_summary,
    )

    parser = argparse.ArgumentParser(
        prog="repro trace-summary",
        description="aggregate a span trace (JSONL) into a time/count tree",
    )
    parser.add_argument("files", nargs="+", metavar="FILE", help="trace files")
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="collapse the tree below depth N",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.0,
        metavar="S",
        help="hide spans totalling less than S seconds",
    )
    parser.add_argument(
        "--flamegraph",
        action="store_true",
        help="emit collapsed-stack lines ('a;b;c <microseconds>') "
        "instead of the tree -- pipe into any flamegraph renderer",
    )
    parser.add_argument(
        "--hotspots",
        type=int,
        default=None,
        metavar="N",
        help="emit the top-N spans by aggregate self time instead of "
        "the tree",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the output to PATH instead of stdout",
    )
    args = parser.parse_args(argv)
    status = EXIT_OK
    chunks: list[str] = []
    for name in args.files:
        path = Path(name)
        if not path.exists():
            print(f"repro: no such trace: {path}", file=sys.stderr)
            status = EXIT_USAGE
            continue
        records, malformed = read_trace(path)
        if malformed:
            print(
                f"repro trace-summary: warning: {path}: skipped "
                f"{malformed} malformed line(s) -- torn trace from a "
                "killed process?",
                file=sys.stderr,
            )
        if args.flamegraph:
            chunks.append(render_collapsed(records))
        elif args.hotspots is not None:
            chunks.append(render_hotspots(records, top=args.hotspots) + "\n")
        else:
            chunks.append(
                render_trace_summary(
                    records,
                    max_depth=args.max_depth,
                    min_seconds=args.min_seconds,
                    title=f"Trace summary: {path} ({len(records)} records)",
                )
                + "\n"
            )
    output = "".join(chunks)
    if args.out:
        Path(args.out).write_text(output)
    else:
        sys.stdout.write(output)
    return status


def _resolve_input(args, parser) -> "tuple[object, str, object] | int":
    """Turn the positional argument into (program, name, reload):
    an existing file wins; otherwise the name is looked up among the
    built-in benchmarks (so ``python -m repro treeadd --trace t.jsonl``
    works without a checkout of the suite as files).  ``reload`` yields
    a fresh program for the concrete interpreter (``--run``)."""
    if args.file is None:
        parser.print_usage(sys.stderr)
        print("repro: a file argument is required", file=sys.stderr)
        return EXIT_USAGE
    path = Path(args.file)
    if path.exists():
        try:
            return load_program(path), path.stem, lambda: load_program(path)
        except FRONTEND_ERRORS as exc:
            print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_FRONTEND
    from repro.benchsuite.runner import benchmark_factories

    factories = benchmark_factories()
    factory = factories.get(args.file)
    if factory is not None:
        return factory(), args.file, factory
    print(
        f"repro: no such file: {path} "
        f"(and not a built-in benchmark; known: {', '.join(sorted(factories))})",
        file=sys.stderr,
    )
    return EXIT_USAGE


def _run_crucible(args) -> int:
    from repro.crucible import (
        replay_corpus_file,
        run_campaign,
        verify_determinism,
    )
    from repro.crucible.harness import DEFAULT_CORPUS_DIR

    if args.replay:
        path = Path(args.replay)
        if not path.exists():
            print(f"repro: no such reproducer: {path}", file=sys.stderr)
            return EXIT_USAGE
        report = replay_corpus_file(path)
        print(json.dumps(report.to_dict(), indent=2))
        return EXIT_OK if report.ok else EXIT_ANALYSIS_FAILED

    if args.check_determinism:
        same, first, second = verify_determinism(
            seeds=args.seeds, base_seed=args.base_seed, mutations=args.mutate
        )
        if same:
            print(
                f"deterministic: {args.seeds} seed(s) produced "
                "byte-identical reports across two runs"
            )
            return EXIT_OK
        print("NON-DETERMINISTIC: reports differ between runs", file=sys.stderr)
        for a, b in zip(first.splitlines(), second.splitlines()):
            if a != b:
                print(f"  first:  {a}\n  second: {b}", file=sys.stderr)
                break
        return EXIT_ANALYSIS_FAILED

    report = run_campaign(
        seeds=args.seeds,
        base_seed=args.base_seed,
        mutations=args.mutate,
        corpus_dir=args.corpus_dir or DEFAULT_CORPUS_DIR,
    )
    print(report.render())
    if args.json:
        payload = report.to_json()
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
    return EXIT_OK if report.ok else EXIT_ANALYSIS_FAILED


def _render_metrics(stats: dict) -> str:
    from repro.reporting import render_table

    rows = [[key, value] for key, value in sorted(stats.items())]
    return render_table(["Metric", "Value"], rows, title="Engine metrics")


def main(argv: list[str] | None = None) -> int:
    # ``trace-summary`` is a subcommand with its own flags; intercept it
    # before the main parser would mistake it for an input file.
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace-summary":
        return _trace_summary(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from repro.serve.client import main as submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "stats":
        from repro.serve.stats import main as stats_main

        return stats_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        from repro.serve.loadgen import main as loadgen_main

        return loadgen_main(argv[1:])
    if argv and argv[0] == "serve-smoke":
        from repro.serve.smoke import main as smoke_main

        return smoke_main(argv[1:])
    if argv and argv[0] == "batch":
        from repro.benchsuite.runner import main as batch_main

        return batch_main(argv[1:])
    if argv and argv[0] == "diff":
        from repro.diff import main as diff_main

        return diff_main(argv[1:])
    if argv and argv[0] == "store-gc":
        from repro.store.gc import main as store_gc_main

        return store_gc_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.crucible or args.replay:
        return _run_crucible(args)
    resolved = _resolve_input(args, parser)
    if isinstance(resolved, int):
        return resolved
    program, name, reload_program = resolved

    if args.dump_ir:
        print(print_program(program))
        return EXIT_OK

    store = None
    if args.store:
        from repro.store import SummaryStore

        store = SummaryStore.open(args.store)

    result = ShapeAnalysis(
        program,
        name=name,
        max_unroll=args.unroll,
        enable_slicing=not args.no_slicing,
        mode=args.mode,
        deadline_seconds=args.deadline,
        state_budget=args.state_budget,
        trace_path=args.trace,
        enable_cache=not args.no_cache,
        enable_lemmas=not args.no_lemmas,
        store=store,
        enable_incremental=not args.no_incremental,
    ).run()

    if store is not None:
        stats = store.stats()
        print(
            "store: {hits} hit(s), {misses} miss(es), {writes} write(s), "
            "{invalid} rejected, {entries} entr(ies) at {path}".format(
                path=args.store, **stats
            )
        )

    print(result.describe())
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics:
        print(_render_metrics(result.stats))
    if args.json:
        payload = json.dumps(result.to_record(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
    if not result.succeeded:
        return EXIT_ANALYSIS_FAILED

    print("\nexit states:")
    for state in result.exit_states:
        print("   ", state)

    if args.invariants:
        print("\nloop invariants and procedure summaries:")
        for line in result.describe_invariants().splitlines():
            print("   ", line)

    if args.run:
        run = Interpreter(reload_program()).run()
        print(f"\nconcrete execution returned {run.value} "
              f"({len(run.heap.cells)} cells allocated)")
        if run.value in run.heap.cells:
            for definition in result.recursive_predicates():
                args_tuple = (run.value,) + (0,) * (definition.arity - 1)
                footprint = satisfies(
                    result.env, definition.name, args_tuple, run.heap.snapshot()
                )
                verdict = (
                    f"holds exactly on {len(footprint)} nodes"
                    if footprint == run.heap.reachable_from(run.value)
                    else ("holds (partial footprint)" if footprint else "does not hold here")
                )
                print(f"    {definition.name}{args_tuple}: {verdict}")
    return EXIT_OK


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `trace-summary
        # t.jsonl | head`); point stdout at devnull so the interpreter
        # does not raise again while flushing at shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)
