"""ASCII tables and figure-style rendering for the experiment harness.

The benchmark scripts print Table 4 / Figure 4 / Table 3 analogues with
these helpers so paper-vs-measured comparisons read uniformly.  The
batch runner's structured report (pass/degraded/failed/crashed/timeout
counts plus per-run diagnostics) renders through
:func:`render_batch_report`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = [
    "render_table",
    "render_header",
    "render_batch_report",
    "indent_block",
]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """A boxed, column-aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(char: str = "-") -> str:
        return "+" + "+".join(char * (w + 2) for w in widths) + "+"

    def format_row(row: Sequence[str]) -> str:
        return (
            "|"
            + "|".join(f" {cell.ljust(widths[i])} " for i, cell in enumerate(row))
            + "|"
        )

    parts = []
    if title:
        parts.append(title)
    parts.append(line("="))
    parts.append(format_row(list(headers)))
    parts.append(line("="))
    for row in cells:
        parts.append(format_row(row))
    parts.append(line())
    return "\n".join(parts)


def render_batch_report(report: Mapping) -> str:
    """Render a batch runner report dict (see
    :meth:`repro.benchsuite.runner.BatchReport.to_dict`): one row per
    run, then the outcome counts and aggregate budget accounting."""
    # The Signal column only appears when some child actually died by a
    # signal -- the common all-clear report stays narrow.
    with_signals = any(run.get("signal") for run in report.get("runs", ()))
    rows = []
    for run in report.get("runs", ()):
        diagnostics = run.get("diagnostics") or []
        note = run.get("error") or ""
        if diagnostics:
            codes = sorted({d.get("code", "?") for d in diagnostics})
            note = ",".join(codes)
        row = [
            run.get("name", "?"),
            run.get("outcome", "?"),
            f"{run.get('seconds', 0.0):.3f}",
            len(diagnostics),
        ]
        if with_signals:
            row.append(run.get("signal") or "")
        row.append(_truncate(note, 60))
        rows.append(row)
    counts = report.get("counts", {})
    counts_line = "  ".join(f"{k}={v}" for k, v in counts.items())
    budget = report.get("budget", {})
    budget_line = "  ".join(f"{k}={v}" for k, v in budget.items())
    headers = ["Benchmark", "Outcome", "Time (s)", "#Diag"]
    if with_signals:
        headers.append("Signal")
    headers.append("Notes")
    parts = [
        render_table(
            headers,
            rows,
            title=f"Batch report (mode={report.get('mode', '?')})",
        ),
        f"outcomes: {counts_line}",
    ]
    signals = report.get("signals", {})
    if signals:
        signals_line = "  ".join(f"{k}={v}" for k, v in sorted(signals.items()))
        parts.append(f"signals:  {signals_line}")
    if budget:
        parts.append(f"budget:   {budget_line}")
    return "\n".join(parts)


def _truncate(text: str, width: int) -> str:
    """Clamp to *width* characters, ellipsized so a clipped note is
    visibly clipped rather than silently cut mid-word."""
    if len(text) <= width:
        return text
    return text[: width - 3] + "..."


def render_header(title: str, char: str = "=") -> str:
    bar = char * max(len(title), 8)
    return f"{bar}\n{title}\n{bar}"


def indent_block(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
