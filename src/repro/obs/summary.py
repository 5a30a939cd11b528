"""Trace exploration: aggregate a JSONL trace into a time/count tree.

``python -m repro trace-summary FILE`` renders, top-down, where a run
spent its time: spans with the same name under the same parent path are
aggregated (count, total wall time, self time = total minus children),
and point events show up as count-only rows.  Rendering goes through
:mod:`repro.reporting` so trace tables read like the rest of the
harness output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.reporting import render_table

__all__ = [
    "SummaryNode",
    "collapse_stacks",
    "load_trace",
    "read_trace",
    "render_collapsed",
    "render_hotspots",
    "render_trace_summary",
    "summarize_trace",
]


@dataclass
class SummaryNode:
    """One aggregate row: every span/event named *name* whose parents
    aggregate to the same path."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    children: "dict[str, SummaryNode]" = field(default_factory=dict)

    @property
    def self_seconds(self) -> float:
        return max(
            0.0,
            self.total_seconds
            - sum(c.total_seconds for c in self.children.values()),
        )

    def child(self, name: str) -> "SummaryNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SummaryNode(name)
        return node


def read_trace(path: "str | Path") -> "tuple[list[dict], int]":
    """Parse a trace file into ``(records, malformed)``.

    Malformed lines -- most commonly the torn final line a
    signal-killed worker left mid-write -- are counted, not fatal: a
    truncated trace is still evidence, and the count lets the CLI warn
    instead of silently under-reporting."""
    records = []
    malformed = 0
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if isinstance(record, dict) and "id" in record:
                records.append(record)
            else:
                malformed += 1
    return records, malformed


def load_trace(path: "str | Path") -> list[dict]:
    """:func:`read_trace` without the malformed-line count."""
    return read_trace(path)[0]


def summarize_trace(records: list[dict]) -> SummaryNode:
    """Fold the span forest into an aggregate tree rooted at a
    synthetic ``<trace>`` node (traces may have several roots: one per
    benchmark when files are concatenated)."""
    by_id = {record["id"]: record for record in records}
    root = SummaryNode("<trace>")
    aggregate_of: dict[int, SummaryNode] = {}

    def node_for(record: dict) -> SummaryNode:
        known = aggregate_of.get(record["id"])
        if known is not None:
            return known
        parent_record = by_id.get(record["parent"])
        parent_node = root if parent_record is None else node_for(parent_record)
        node = parent_node.child(record["name"])
        aggregate_of[record["id"]] = node
        return node

    for record in records:
        node = node_for(record)
        node.count += 1
        if record.get("type") == "span":
            node.total_seconds += max(
                0.0, record.get("end", 0.0) - record.get("start", 0.0)
            )
    root.count = 1
    root.total_seconds = sum(c.total_seconds for c in root.children.values())
    return root


def collapse_stacks(records: list[dict]) -> "dict[tuple[str, ...], float]":
    """Fold spans into collapsed-stack form: name-path -> self time.

    Self time is a span's duration minus its direct children's
    durations (clamped at zero: children emitted by a different clock
    resolution may nominally overrun their parent).  Spans whose
    parent never made it into the file -- the unclosed ancestors of a
    torn trace -- root their stack at themselves, so a killed worker's
    partial trace still folds into a valid flamegraph."""
    spans = [
        r for r in records
        if r.get("type") == "span"
        and isinstance(r.get("start"), (int, float))
        and isinstance(r.get("end"), (int, float))
    ]
    by_id = {span["id"]: span for span in spans}
    child_seconds: dict = {}
    for span in spans:
        parent = span.get("parent")
        if parent in by_id:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + max(
                0.0, span["end"] - span["start"]
            )

    stack_memo: dict = {}

    def stack_of(span: dict) -> "tuple[str, ...]":
        known = stack_memo.get(span["id"])
        if known is not None:
            return known
        names: list[str] = []
        seen: set = set()
        current: "dict | None" = span
        while current is not None and current["id"] not in seen:
            seen.add(current["id"])
            names.append(str(current["name"]))
            current = by_id.get(current.get("parent"))
        stack = tuple(reversed(names))
        stack_memo[span["id"]] = stack
        return stack

    folded: "dict[tuple[str, ...], float]" = {}
    for span in spans:
        duration = max(0.0, span["end"] - span["start"])
        self_seconds = max(
            0.0, duration - child_seconds.get(span["id"], 0.0)
        )
        if self_seconds <= 0.0:
            continue
        stack = stack_of(span)
        folded[stack] = folded.get(stack, 0.0) + self_seconds
    return folded


def render_collapsed(records: list[dict]) -> str:
    """The collapsed-stack text format flamegraph tools consume
    (``a;b;c <weight>``), weighted in integer microseconds."""
    folded = collapse_stacks(records)
    lines = []
    for stack in sorted(folded):
        micros = round(folded[stack] * 1e6)
        if micros > 0:
            lines.append(";".join(stack) + f" {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_hotspots(records: list[dict], top: int = 15) -> str:
    """The top-*top* spans by aggregate self time, across all paths:
    the "where is the time actually spent" table a flamegraph answers
    visually."""
    totals: "dict[str, list]" = {}  # name -> [count, total, self]
    trace_seconds = 0.0

    def walk(node: SummaryNode) -> None:
        nonlocal trace_seconds
        for child in node.children.values():
            entry = totals.setdefault(child.name, [0, 0.0, 0.0])
            entry[0] += child.count
            entry[1] += child.total_seconds
            entry[2] += child.self_seconds
            walk(child)

    root = summarize_trace(records)
    walk(root)
    trace_seconds = root.total_seconds
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1][2], item[0])
    )[:top]
    rows = [
        [
            name,
            count,
            f"{self_seconds:.6f}",
            f"{total_seconds:.6f}",
            f"{100.0 * self_seconds / trace_seconds:.1f}%"
            if trace_seconds > 0 else "-",
        ]
        for name, (count, total_seconds, self_seconds) in ranked
    ]
    if not rows:
        return "empty trace (no span records)"
    return render_table(
        ["Span", "Count", "Self (s)", "Total (s)", "Self %"],
        rows,
        title=f"Hotspots (top {len(rows)} by self time)",
    )


def render_trace_summary(
    records: list[dict],
    max_depth: int | None = None,
    min_seconds: float = 0.0,
    title: str | None = None,
) -> str:
    """The top-down tree as an aligned table: indented span name,
    count, total and self wall time.  Children sort by total time
    (descending), name-tie-broken, so the expensive path reads first."""
    root = summarize_trace(records)
    rows: list[list[object]] = []

    def emit(node: SummaryNode, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        ordered = sorted(
            node.children.values(),
            key=lambda child: (-child.total_seconds, child.name),
        )
        for child in ordered:
            if child.total_seconds < min_seconds and child.count == 0:
                continue
            rows.append(
                [
                    "  " * depth + child.name,
                    child.count,
                    f"{child.total_seconds:.6f}",
                    f"{child.self_seconds:.6f}",
                ]
            )
            emit(child, depth + 1)

    emit(root, 0)
    if not rows:
        return "empty trace (no span or event records)"
    table = render_table(
        ["Span", "Count", "Total (s)", "Self (s)"],
        rows,
        title=title or f"Trace summary ({len(records)} records)",
    )
    return table
