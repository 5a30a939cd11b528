"""The persistent analysis worker: one long-lived child process.

``python -m repro.serve.worker`` speaks the JSON-lines protocol on
stdin/stdout: the supervisor writes one job request per line, the
worker answers with one result line, forever.  Each job runs through
:func:`repro.benchsuite.runner.run_one`, exactly like a batch child,
with the engine's default per-run memos.  What staying alive buys is
one :class:`~repro.store.fixpoint.FixpointTable`: the procedure
summaries (the paper's Section 5.2 tabulation) every successful job
exports, keyed on callee-cone digests, so an edit-loop job replays
everything outside its edited cone.

Wire format (one JSON object per line)::

    <- {"type": "ready", "pid": 123, "worker": 0, "generation": 1}
    -> {"type": "job", "id": 7, "spec": {...JobSpec...}}
    <- {"type": "result", "id": 7, "record": {...RunRecord...},
        "store": {"hits": 3, ...},
        "metrics": {...obs.snapshot of the session so far...}}
    -> {"type": "exit"}

The ``store`` field appears only when the worker was started with
``--store PATH``: the durable summary store (:mod:`repro.store`) is
the warm tier that, unlike the in-memory fixpoint table, survives
worker crashes and restarts -- a generation-1 replacement reads the
summaries its predecessor persisted.

The worker never *raises* out of a job -- ``run_one`` turns analysis
failures into records and guards spec errors (an unknown fault phase,
an unknown edit target) into a ``crashed`` record -- so from the
supervisor's point of view a worker that stops answering is *dead*
(killed, OOM, hung), never merely confused.

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
    :class:`ShapeAnalysis` ``engine_factory`` (or None for none).

    The fault plan is built when the first engine is, inside
    :func:`~repro.benchsuite.runner.run_one`'s guard: a malformed fault
    spec (an unknown phase, say) becomes a ``crashed`` record, never a
    worker death."""
    if not spec.faults and not spec.chaos:
        return None
    from repro.crucible.faults import FaultPlan, FaultSpec, FaultyShapeEngine

    plan = None

    def make_plan() -> FaultPlan:
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
            return FaultPlan(specs=fault_specs)

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

        return _KillPlan(specs=fault_specs)

    def factory(*args, **kwargs):
        nonlocal plan
        if plan is None:
            plan = make_plan()
        return FaultyShapeEngine(*args, fault_plan=plan, **kwargs)

    return factory


def main(argv: "list[str] | None" = None) -> int:
    """The worker loop."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.serve.worker")
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
    from repro.benchsuite.runner import run_one
    from repro.store.fixpoint import FixpointTable

    #: In-memory fixpoint tier: every successful run exports its
    #: tabulated summary tables here (cone-digest-keyed, so edit-loop
    #: jobs replay everything outside the edited cone without touching
    #: disk).  It dies with the process; the durable store is the tier
    #: that survives a crash.
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
        # Per-job registry so each RunRecord's stats stay per-run;
        # merged into the session registry so the supervisor sees the
        # worker's whole history.
        job_metrics = obs.Metrics()
        record = run_one(
            spec.benchmark,
            mode=spec.mode or args.mode,
            deadline=spec.deadline,
            unroll=spec.unroll,
            state_budget=spec.state_budget,
            trace_path=spec.trace,
            edit=spec.edit,
            store=store,
            metrics=job_metrics,
            fixpoint_table=fixpoint,
            engine_factory=_build_engine_factory(spec),
        )
        session_metrics.merge(job_metrics)
        response = {
            "type": "result",
            "id": message.get("id"),
            "record": record.to_dict(),
            "metrics": obs.snapshot(session_metrics),
        }
        if store is not None:
            response["store"] = store.stats()
        write_message(out, response)


if __name__ == "__main__":
    raise SystemExit(main())
