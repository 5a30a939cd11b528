"""Shared child-process plumbing: spawn environment, exit
classification, chaos hooks, and the crash-record diagnostics.

Two subsystems put an OS process boundary around one analysis: the
batch runner (:mod:`repro.benchsuite.runner`, one child per benchmark,
forked by a per-batch zygote) and the serve supervisor
(:mod:`repro.serve.supervisor`, a pool of long-lived workers).  Both
need the same four pieces, extracted here so their crash records stay
byte-compatible:

* :func:`child_env` -- an environment in which ``python -m repro...``
  resolves the same ``repro`` package as the parent, wherever it was
  imported from;
* :func:`classify_exit` / :func:`signal_name` -- telling "killed by a
  signal" (segfault, OOM kill, external SIGKILL -- an infrastructure
  problem) apart from a Python-level crash (the child exits normally
  with a traceback) and from a parent-imposed timeout;
* :func:`apply_child_chaos` -- the :data:`CHILD_CHAOS_ENV` hook that
  lets tests and CI make *real* children die by signal or hang,
  instead of mocking the process layer;
* :func:`timeout_diagnostic` / :func:`worker_crash_diagnostic` -- the
  structured :class:`~repro.analysis.resilience.Diagnostic` records a
  parent attaches when the child itself could not produce one (it was
  killed, or it overran its isolation timeout), so batch JSON and
  serve responses share one crash-record shape with the partial trace
  path attached as evidence.
"""

from __future__ import annotations

import os
import signal as signal_module
import time
from pathlib import Path

from repro.analysis.resilience import (
    BUDGET_EXHAUSTED,
    WORKER_CRASHED,
    Diagnostic,
    SEVERITY_FATAL,
)

__all__ = [
    "CHILD_CHAOS_ENV",
    "apply_child_chaos",
    "child_env",
    "classify_exit",
    "signal_name",
    "surviving_trace",
    "timeout_diagnostic",
    "worker_crash_diagnostic",
]

#: Chaos hook for the process isolation boundary itself: when this
#: environment variable is set to ``kill:<signum>`` or
#: ``sleep:<seconds>``, a child performs that action before analyzing.
#: It rides through :func:`child_env`'s environment inheritance, which
#: is exactly what lets the tests simulate signal deaths and hangs
#: inside *real* children instead of mocking the subprocess layer.
CHILD_CHAOS_ENV = "REPRO_CHILD_CHAOS"


def apply_child_chaos() -> None:
    """Perform the :data:`CHILD_CHAOS_ENV` action, if any (called by
    child processes before they start real work)."""
    spec = os.environ.get(CHILD_CHAOS_ENV)
    if not spec:
        return
    action, _, value = spec.partition(":")
    if action == "kill":
        os.kill(os.getpid(), int(value))
    elif action == "sleep":
        time.sleep(float(value))


def child_env(extra: "dict[str, str] | None" = None) -> dict[str, str]:
    """The spawn environment: the parent's, with ``PYTHONPATH``
    prefixed so the child resolves the same ``repro`` package, plus
    any *extra* variables (supervisors use these to tag workers)."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    if extra:
        env.update(extra)
    return env


def signal_name(signum: int) -> str:
    """``9`` -> ``"SIGKILL"`` (or ``"signal 99"`` for unknown ones)."""
    try:
        return signal_module.Signals(signum).name
    except ValueError:
        return f"signal {signum}"


def classify_exit(returncode: "int | None") -> "str | None":
    """The killing signal's name when *returncode* says the process
    died by a signal (POSIX negative return codes), else None.

    A batch full of SIGKILLs is an infrastructure problem, not an
    analyzer bug; callers report the two separately.
    """
    if returncode is not None and returncode < 0:
        return signal_name(-returncode)
    return None


def surviving_trace(trace_path: "Path | str | None") -> "str | None":
    """A dead child's partial trace is still evidence -- return its
    path whenever the file made it to disk with at least one record
    (the tracer writes line-buffered JSONL, so everything up to the
    crash is readable; an empty file is no evidence at all)."""
    if trace_path is not None:
        path = Path(trace_path)
        if path.exists() and path.stat().st_size > 0:
            return str(trace_path)
    return None


def _trace_detail(trace: "str | None") -> "str | None":
    return f"partial trace: {trace}" if trace else None


def timeout_diagnostic(
    timeout: float, trace: "str | None" = None
) -> Diagnostic:
    """The structured record for a child that overran its isolation
    timeout: a ``budget-exhausted`` diagnostic (the wall-clock cap is
    a resource like any other), with the torn trace path attached so
    the batch JSON references the evidence that survived."""
    return Diagnostic(
        code=BUDGET_EXHAUSTED,
        message=f"run exceeded the {timeout}s isolation timeout",
        phase="shape",
        severity=SEVERITY_FATAL,
        recovered=False,
        detail=_trace_detail(trace),
    )


def worker_crash_diagnostic(
    message: str,
    signal: "str | None" = None,
    trace: "str | None" = None,
) -> Diagnostic:
    """The structured record for a child/worker process that died
    before producing a result (killed by a signal, OOM, or torn pipe):
    a ``worker-crashed`` diagnostic in the ``serve`` phase.  The
    supervisor returns this instead of silently losing the job."""
    detail_parts = []
    if signal:
        detail_parts.append(f"killed by {signal}")
    if trace:
        detail_parts.append(_trace_detail(trace))
    return Diagnostic(
        code=WORKER_CRASHED,
        message=message,
        phase="serve",
        severity=SEVERITY_FATAL,
        recovered=False,
        detail="; ".join(detail_parts) or None,
    )
