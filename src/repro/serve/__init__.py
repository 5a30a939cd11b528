"""Analysis-as-a-service: a supervised pool of persistent workers.

``python -m repro serve`` turns the one-shot analyzer into a
long-lived daemon: a bounded job queue fronting a pool of *persistent*
worker processes that keep the entailment cache and the unfold/fold
memos warm across jobs.  Warmth does not buy throughput at this
scale: ``serve-bench --clients 2 --jobs 20 --workers 2`` on a 2-core
VM, five alternating pairs, medians, gave 77.8 jobs/s with warm memos
against 81.4 with per-job memos on Table-4 traffic, and 21.7 against
21.8 on ``--diff`` traffic (pair-to-pair spread about 15%).

The service layer is deliberately paranoid, because the crucible
already proved the analysis can crash, hang and exhaust budgets:

* the **supervisor** (:mod:`repro.serve.supervisor`) detects worker
  death -- signal, OOM kill, torn pipe, or a hang past the job's
  isolation timeout -- restarts the worker with exponential backoff,
  and re-runs the victim job a bounded number of times before
  returning a structured ``worker-crashed`` diagnostic.  A submitted
  job therefore *always* produces a response; none is silently lost;
* the **server** (:mod:`repro.serve.server`) applies explicit
  backpressure -- a full queue rejects with ``retry-after`` instead of
  queueing unboundedly -- and degrades gracefully: sustained queue
  pressure flips an overload ladder that forces jobs into degrade
  mode with tightened deadlines, recovering to the strict ladder rung
  when pressure subsides.  Every transition is visible as ``serve.*``
  metrics and trace events through the obs layer;
* the **protocol** (:mod:`repro.serve.protocol`) is JSON-lines over a
  unix socket: one request line, one response line, trivially
  scriptable (``python -m repro submit`` or
  :class:`repro.serve.client.Client`);
* the **load generator** (:mod:`repro.serve.loadgen`) measures the
  service under N concurrent clients -- p50/p99 latency, throughput,
  cold vs warm cache hit rates -- so "heavy traffic" is a number, and
  the **smoke harness** (:mod:`repro.serve.smoke`) is the CI gate:
  twenty jobs with a chaos-killed worker must all complete with
  verdicts identical to single-shot runs.
"""

from __future__ import annotations

from repro.serve.protocol import JobSpec, ProtocolError, default_socket_path
from repro.serve.client import Client, OverloadedError

__all__ = [
    "Client",
    "JobSpec",
    "OverloadedError",
    "ProtocolError",
    "default_socket_path",
]
