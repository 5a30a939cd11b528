"""The persistent analysis worker: one long-lived child process.

``python -m repro.serve.worker`` speaks the JSON-lines protocol on
stdin/stdout: the supervisor writes one job request per line, the
worker answers with one result line, forever.  The point of staying
alive between jobs is *warm state*: one :class:`EntailmentCache`, one
unfold memo and one fold identity memo live for the whole process and
are handed to every :class:`ShapeAnalysis` run, so job N+1 replays
the entailment verdicts and Figure-6 case analyses job N paid for.
All three are keyed on canonical forms plus the structural
``PredicateEnv.cache_token()`` (PR-4/PR-5 machinery), which is what
makes cross-job reuse sound -- ``python -m repro diff`` and the
cache-sharing tests in ``tests/test_perf_properties.py`` check it.

Wire format (one JSON object per line)::

    <- {"type": "ready", "pid": 123, "worker": 0, "generation": 1}
    -> {"type": "job", "id": 7, "spec": {...JobSpec...}}
    <- {"type": "result", "id": 7, "record": {...RunRecord...},
        "cache": {"hits": 41, ...}, "store": {"hits": 3, ...},
        "fixpoint": {...FixpointTable.to_wire()...},
        "metrics": {...obs.snapshot of the session so far...}}
    -> {"type": "warm", "fixpoint": {...a dead predecessor's table...}}
    <- {"type": "warmed", "injected": 4, "entries": 4}
    -> {"type": "exit"}

The ``store`` field appears only when the worker was started with
``--store PATH``: the durable summary store (:mod:`repro.store`) is
the warm tier that, unlike the in-process caches, survives worker
crashes and restarts -- a generation-1 replacement reads the
summaries its predecessor persisted.

The worker never *raises* out of a job -- ``ShapeAnalysis.run`` is
exception-contained and the remaining spec handling is guarded into a
``crashed`` record -- so from the supervisor's point of view a worker
that stops answering is *dead* (killed, OOM, hung), never merely
confused.

Chaos hooks (how the tests and CI make real workers die):

* job specs may carry crucible fault-injection specs (``faults``) or
  a process-kill instruction (``chaos``: die by signal at the N-th
  crossing of a phase boundary -- "kill -9 during fold");
* the :data:`CHAOS_ENV` environment variable
  (``REPRO_SERVE_CHAOS=<worker>:kill:<sig>@<jobseq>``) makes worker
  *<worker>* -- generation 0 only, so the restarted replacement
  survives -- kill itself when job number *<jobseq>* arrives.  The CI
  serve-smoke job uses this to prove no job is lost.
"""

from __future__ import annotations

import os
import sys

from repro.serve.protocol import JobSpec, ProtocolError, read_message, write_message

__all__ = [
    "CHAOS_ENV",
    "WORKER_ENV",
    "WORKER_GEN_ENV",
    "main",
]

#: Supervisor-assigned worker index (stable across restarts).
WORKER_ENV = "REPRO_SERVE_WORKER"
#: Restart generation of this process (0 = original spawn).
WORKER_GEN_ENV = "REPRO_SERVE_WORKER_GEN"
#: ``<worker>:kill:<signum>@<jobseq>`` -- worker *<worker>*,
#: generation 0, kills itself with *<signum>* when its *<jobseq>*-th
#: job arrives (1-based), before analyzing it.
#: ``<worker>:sleep:<seconds>@<jobseq>`` instead stalls that job --
#: past the isolation timeout this is a hang, which the supervisor
#: must detect and break by force.
CHAOS_ENV = "REPRO_SERVE_CHAOS"


def _env_chaos_job() -> "tuple[str, float, int] | None":
    """(kind, amount, jobseq) when the env-level chaos spec targets
    this worker process, else None.  ``kind`` is ``"kill"`` (amount =
    signal number) or ``"sleep"`` (amount = seconds)."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return None
    if int(os.environ.get(WORKER_GEN_ENV, "0")) != 0:
        return None  # only the original generation is sacrificed
    try:
        target, action = spec.split(":", 1)
        if int(target) != int(os.environ.get(WORKER_ENV, "-1")):
            return None
        kind, _, rest = action.partition(":")
        if kind not in ("kill", "sleep"):
            return None
        amount_text, _, seq_text = rest.partition("@")
        return kind, float(amount_text), int(seq_text or "1")
    except ValueError:
        return None


def _build_engine_factory(spec: JobSpec):
    """Turn the spec's ``faults``/``chaos`` chaos instructions into a
    :class:`ShapeAnalysis` ``engine_factory`` (or None for none)."""
    if not spec.faults and not spec.chaos:
        return None
    from repro.crucible.faults import FaultPlan, FaultSpec

    fault_specs = [
        FaultSpec(
            phase=f["phase"],
            kind=f.get("kind", "failure"),
            at=f.get("at", 1),
            procedure=f.get("procedure"),
        )
        for f in spec.faults
    ]
    if spec.chaos is None:
        return FaultPlan(specs=fault_specs).engine_factory()

    kill_phase = spec.chaos.get("phase", "fold")
    kill_signum = int(spec.chaos.get("signal", 9))
    kill_at = int(spec.chaos.get("at", 1))

    class _KillPlan(FaultPlan):
        """A fault plan that additionally kills the whole process at
        one phase-boundary crossing -- the supervisor, not this
        process, must turn that into a completed job."""

        def on_boundary(self, engine, phase, procedure):
            super().on_boundary(engine, phase, procedure)
            if phase == kill_phase and self.crossings[phase] == kill_at:
                sys.stdout.flush()
                os.kill(os.getpid(), kill_signum)

    return _KillPlan(specs=fault_specs).engine_factory()


def _analyze(
    spec: JobSpec,
    caches: dict,
    default_mode: str,
    store=None,
    metrics=None,
    fixpoint=None,
) -> dict:
    """Run one job against the warm caches; always returns a
    RunRecord-shaped dict (``ShapeAnalysis.run`` contains analysis
    failures; this guard contains spec/factory bugs).  *metrics* is
    the per-job registry the caller merges into its session-cumulative
    one -- per job so each RunRecord's stats stay per-run, cumulative
    at the session so the supervisor sees the worker's whole history."""
    import time

    from repro.analysis import ShapeAnalysis
    from repro.benchsuite.runner import RunRecord, _resolve_benchmark

    mode = spec.mode or default_mode
    start = time.perf_counter()
    try:
        program = _resolve_benchmark(spec.benchmark)
        if spec.edit is not None:
            from repro.crucible.generator import edit_program

            program, _ = edit_program(
                program,
                spec.edit["seed"],
                count=spec.edit.get("count", 1),
                target=spec.edit.get("target"),
                kinds=tuple(spec.edit["kinds"])
                if spec.edit.get("kinds")
                else None,
            )
        result = ShapeAnalysis(
            program,
            name=spec.benchmark,
            mode=mode,
            deadline_seconds=spec.deadline,
            max_unroll=spec.unroll,
            state_budget=spec.state_budget,
            trace_path=spec.trace,
            cache=caches["entailment"],
            unfold_cache=caches["unfold"],
            fold_cache=caches["fold"],
            store=store,
            metrics=metrics,
            fixpoint_table=fixpoint,
            engine_factory=_build_engine_factory(spec),
        ).run()
    except Exception as exc:
        return RunRecord(
            name=spec.benchmark,
            outcome="crashed",
            seconds=time.perf_counter() - start,
            mode=mode,
            error=f"{type(exc).__name__}: {exc}",
            trace=spec.trace,
        ).to_dict()
    record = result.to_record()
    return RunRecord(
        name=spec.benchmark,
        outcome=result.outcome,
        seconds=time.perf_counter() - start,
        mode=mode,
        error=result.failure,
        diagnostics=record["diagnostics"],
        result=record,
        trace=spec.trace,
    ).to_dict()


def main(argv: "list[str] | None" = None) -> int:
    """The worker loop.  ``--cache-size N`` bounds each warm cache."""
    import argparse

    from repro.perf import EntailmentCache, IdentityMemo

    parser = argparse.ArgumentParser(prog="repro.serve.worker")
    parser.add_argument("--cache-size", type=int, default=65536)
    parser.add_argument(
        "--mode",
        choices=("strict", "degrade"),
        default="degrade",
        help="mode for jobs that do not request one",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="shared durable summary store; the warm tier that "
        "survives this process (advisory-locked writes, so every "
        "worker of the pool can point at the same directory)",
    )
    args = parser.parse_args(argv)

    from repro import obs

    from repro.store.fixpoint import FixpointTable

    caches = {
        "entailment": EntailmentCache(args.cache_size),
        "unfold": EntailmentCache(args.cache_size),
        "fold": IdentityMemo(args.cache_size),
    }
    #: In-memory fixpoint tier: every successful run exports its
    #: tabulated summary tables here (cone-digest-keyed, so edit-loop
    #: jobs replay everything outside the edited cone without touching
    #: disk), every result line ships its wire dump to the supervisor,
    #: and a ``warm`` message from the supervisor injects a dead
    #: predecessor's table into this one.
    fixpoint = FixpointTable()
    #: Session-cumulative engine metrics: every job's registry merges
    #: in here, and a snapshot rides on every result line so the
    #: supervisor always holds this worker's latest full history.
    session_metrics = obs.Metrics()
    store = None
    if args.store:
        from repro.store import SummaryStore

        store = SummaryStore.open(args.store)
    worker_index = int(os.environ.get(WORKER_ENV, "0"))
    generation = int(os.environ.get(WORKER_GEN_ENV, "0"))
    chaos = _env_chaos_job()

    out = sys.stdout
    write_message(
        out,
        {
            "type": "ready",
            "pid": os.getpid(),
            "worker": worker_index,
            "generation": generation,
        },
    )
    jobs_seen = 0
    while True:
        try:
            message = read_message(sys.stdin)
        except ProtocolError as exc:
            write_message(out, {"type": "error", "message": str(exc)})
            continue
        if message is None or message.get("type") == "exit":
            return 0
        if message.get("type") == "warm":
            # Fixpoint warm-up: the supervisor re-injects the last
            # table a dead generation of this slot shipped.  The wire
            # dump earns no trust -- malformed input is contained to a
            # zero-injection ack, and consumption re-validates every
            # payload exactly like bytes from disk.
            try:
                injected = fixpoint.merge_wire(message.get("fixpoint"))
            except (ValueError, TypeError) as exc:
                write_message(
                    out,
                    {"type": "warmed", "injected": 0, "error": str(exc)},
                )
                continue
            if injected:
                session_metrics.inc("incr.tables.injected")
            write_message(
                out,
                {
                    "type": "warmed",
                    "injected": injected,
                    "entries": len(fixpoint),
                },
            )
            continue
        if message.get("type") != "job":
            write_message(
                out,
                {
                    "type": "error",
                    "message": f"unknown message type {message.get('type')!r}",
                },
            )
            continue
        jobs_seen += 1
        if chaos is not None and jobs_seen == chaos[2]:
            out.flush()
            if chaos[0] == "kill":
                os.kill(os.getpid(), int(chaos[1]))
            else:
                import time

                time.sleep(chaos[1])
        try:
            spec = JobSpec.from_dict(message.get("spec"))
        except ProtocolError as exc:
            write_message(
                out,
                {
                    "type": "result",
                    "id": message.get("id"),
                    "record": None,
                    "error": str(exc),
                },
            )
            continue
        job_metrics = obs.Metrics()
        record = _analyze(
            spec,
            caches,
            args.mode,
            store=store,
            metrics=job_metrics,
            fixpoint=fixpoint,
        )
        session_metrics.merge(job_metrics)
        response = {
            "type": "result",
            "id": message.get("id"),
            "record": record,
            "cache": caches["entailment"].stats(),
            "metrics": obs.snapshot(session_metrics),
        }
        if store is not None:
            response["store"] = store.stats()
        if len(fixpoint):
            # Ship the warm tier with every result: the supervisor
            # keeps only the latest dump per slot, and on a restart
            # injects it into the replacement -- the fixpoint analogue
            # of the durable store's crash-surviving warmth, without
            # needing a disk.
            response["fixpoint"] = fixpoint.to_wire()
        write_message(out, response)


if __name__ == "__main__":
    raise SystemExit(main())
