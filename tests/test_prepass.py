"""Tests for the pre-pass: pointer analysis, reaching definitions,
recursive-type identification, slicing and liveness (§5.1).

``_reaching`` and ``_live_in`` are brute-force path references (no
dataflow) for the sparse walk in ``DefUse``."""

from repro import compile_c
from repro.benchsuite import csources
from repro.benchsuite.runner import benchmark_factories
from repro.crucible.generator import generate_program
from repro.ir import CFG, Load, Nop, Register, Store, parse_program
from repro.prepass import (
    DefUse,
    PointerAnalysis,
    recursive_types,
    slice_program,
    traversal_loads,
)


def _reaching(cfg: CFG, index: int, register: Register) -> set[int]:
    """Definitions of *register* with a path to *index* that passes no
    other definition of it: a backward search from the use."""
    found: set[int] = set()
    seen: set[int] = set()
    work = list(cfg.preds[index])
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        if register in cfg.proc.instrs[node].defs():
            found.add(node)
        else:
            work.extend(cfg.preds[node])
    return found


def _live_in(cfg: CFG, index: int, register: Register) -> bool:
    """Whether a use of *register* is reachable from *index* on a path
    that passes no definition of it: a forward search."""
    seen: set[int] = set()
    work = [index]
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        instr = cfg.proc.instrs[node]
        if register in instr.uses():
            return True
        if register not in instr.defs():
            work.extend(cfg.succs[node])
    return False


def _exactness_corpus():
    """The curated programs and crucible seeds 1-60 at 0 and 2
    mutations, each raw and sliced."""
    programs = [make() for make in benchmark_factories().values()]
    programs += [
        compile_c(source)
        for source in (
            csources.MCF_C,
            csources.TREEADD_C,
            csources.PERIMETER_C,
            csources.POWER_C,
        )
    ]
    programs += [
        generate_program(seed, mutations=mutations).program
        for seed in range(1, 61)
        for mutations in (0, 2)
    ]
    for program in programs:
        pointers = PointerAnalysis(program)
        yield program
        yield slice_program(
            program, pointers, recursive_types(program, pointers)
        ).program

LIST_SRC = """
proc main():
    %n = 5
    %sum = 0
    %head = null
L:
    if %n <= 0 goto walk
    %p = malloc()
    [%p.next] = %head
    [%p.val] = %n
    %head = %p
    %n = sub %n, 1
    goto L
walk:
    %c = %head
W:
    if %c == null goto done
    %v = [%c.val]
    %sum = add %sum, %v
    %c = [%c.next]
    goto W
done:
    return %head
"""

REC_SRC = """
proc build(%n):
    if %n > 0 goto rec
    return null
rec:
    %t = malloc()
    %m = sub %n, 1
    %l = call build(%m)
    [%t.left] = %l
    %r = call build(%m)
    [%t.right] = %r
    [%t.val] = %n
    return %t

proc sum(%t):
    if %t != null goto rec
    return 0
rec:
    %l = [%t.left]
    %a = call sum(%l)
    %r = [%t.right]
    %b = call sum(%r)
    %v = [%t.val]
    %s = add %a, %b
    %s = add %s, %v
    return %s

proc main():
    %root = call build(8)
    %total = call sum(%root)
    return %root
"""


class TestSteensgaard:
    def test_next_field_unified_across_loop(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        proc = program.proc("main")
        loads = [i for i in proc.instrs if isinstance(i, Load)]
        stores = [i for i in proc.instrs if isinstance(i, Store)]
        next_store = next(s for s in stores if s.field == "next")
        next_load = next(l for l in loads if l.field == "next")
        assert pa.same_class(
            pa.access_type("main", next_store), pa.access_type("main", next_load)
        )

    def test_pointer_vs_integer_registers(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        assert pa.is_pointer_register("main", Register("head"))
        assert pa.is_pointer_register("main", Register("c"))
        assert not pa.is_pointer_register("main", Register("sum"))

    def test_next_cell_is_pointer_class(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        proc = program.proc("main")
        next_store = next(
            i for i in proc.instrs if isinstance(i, Store) and i.field == "next"
        )
        cell = pa.cell_class(pa.access_type("main", next_store))
        assert pa.is_pointer_class(cell)

    def test_val_cell_is_not_pointer_class(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        proc = program.proc("main")
        val_store = next(
            i for i in proc.instrs if isinstance(i, Store) and i.field == "val"
        )
        cell = pa.cell_class(pa.access_type("main", val_store))
        assert not pa.is_pointer_class(cell)

    def test_interprocedural_param_unification(self):
        program = parse_program(REC_SRC)
        pa = PointerAnalysis(program)
        # sum's parameter t is unified with build's return (a tree node)
        assert pa.is_pointer_register("sum", Register("t"))


class TestReachingDefs:
    def test_loop_carried_definition_reaches_header(self):
        program = parse_program(LIST_SRC)
        proc = program.proc("main")
        reaching = DefUse(CFG(proc)).reaching
        # the loop body's use of %head in `[%p.next] = %head`
        use = next(
            i
            for i, ins in enumerate(proc.instrs)
            if isinstance(ins, Store) and ins.field == "next"
        )
        defs = reaching[use, Register("head")]
        assert len(defs) == 2  # initial null and the loop update

    def test_def_use_edges(self):
        program = parse_program(LIST_SRC)
        proc = program.proc("main")
        reaching = DefUse(CFG(proc)).reaching
        # definitions of %c (the copy of %head and the load itself)
        # feed the load of c.next
        load_index = next(
            i
            for i, ins in enumerate(proc.instrs)
            if isinstance(ins, Load) and ins.field == "next"
        )
        assert load_index in reaching[load_index, Register("c")]
        assert len(reaching[load_index, Register("c")]) == 2


class TestRecursiveTypes:
    def test_traversal_load_detected_in_loop(self):
        program = parse_program(LIST_SRC)
        loads = traversal_loads(program)
        proc = program.proc("main")
        kinds = {proc.instrs[i].field for (name, i) in loads if name == "main"}
        assert "next" in kinds
        assert "val" not in kinds

    def test_traversal_load_detected_through_recursion(self):
        program = parse_program(REC_SRC)
        pa = PointerAnalysis(program)
        types = {str(t).split(".")[-1] for t in recursive_types(program, pa)}
        assert "left" in types and "right" in types
        assert "val" not in types


class TestSlicing:
    def test_scalar_payload_pruned(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        result = slice_program(program, pa, recursive_types(program, pa))
        proc = result.program.proc("main")
        fields_left = {
            i.field for i in proc.instrs if isinstance(i, (Load, Store))
        }
        assert "next" in fields_left
        assert "val" not in fields_left
        assert result.pruned > 0

    def test_labels_stable_after_slicing(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        result = slice_program(program, pa, recursive_types(program, pa))
        original = program.proc("main")
        sliced = result.program.proc("main")
        assert sliced.labels == original.labels
        assert len(sliced.instrs) == len(original.instrs)

    def test_pruned_instructions_become_nops(self):
        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        result = slice_program(program, pa, recursive_types(program, pa))
        assert any(
            isinstance(i, Nop) for i in result.program.proc("main").instrs
        )

    def test_control_flow_always_kept(self):
        from repro.ir import Branch, Goto, Return

        program = parse_program(LIST_SRC)
        pa = PointerAnalysis(program)
        result = slice_program(program, pa, recursive_types(program, pa))
        original = program.proc("main")
        sliced = result.program.proc("main")
        for i, instr in enumerate(original.instrs):
            if isinstance(instr, (Branch, Goto, Return)):
                assert type(sliced.instrs[i]) is type(instr)

    def test_sliced_program_analyzes_equivalently(self):
        import repro.analysis as A

        program = parse_program(LIST_SRC)
        with_slicing = A.ShapeAnalysis(program, enable_slicing=True).run()
        program2 = parse_program(LIST_SRC)
        without = A.ShapeAnalysis(program2, enable_slicing=False).run()
        assert with_slicing.succeeded and without.succeeded
        names = lambda r: {
            tuple(s.field for s in d.fields) for d in r.recursive_predicates()
        }
        assert ("next",) in names(with_slicing)
        assert any("next" in fields for fields in names(without))


class TestLiveness:
    def test_dead_after_last_use(self):
        program = parse_program(LIST_SRC)
        proc = program.proc("main")
        liveness = DefUse(CFG(proc))
        # %p is dead at the loop header (only used inside one iteration)
        header = proc.labels["L"]
        assert Register("p") not in liveness.live_in[header]
        assert Register("head") in liveness.live_in[header]

    def test_return_value_live(self):
        program = parse_program(LIST_SRC)
        proc = program.proc("main")
        liveness = DefUse(CFG(proc))
        last = len(proc.instrs) - 1
        assert Register("head") in liveness.live_in[last]


class TestDefUseExactness:
    def test_walk_matches_path_reference(self):
        bodies = 0
        for program in _exactness_corpus():
            for proc in program.procedures.values():
                bodies += 1
                cfg = CFG(proc)
                flow = DefUse(cfg)
                uses = {
                    (i, register)
                    for i, instr in enumerate(proc.instrs)
                    for register in instr.uses()
                }
                assert set(flow.reaching) == uses
                for (i, register), defs in flow.reaching.items():
                    assert defs == _reaching(cfg, i, register), (i, register)
                registers = {register for _i, register in uses}
                for i in range(len(proc.instrs)):
                    live_in = {r for r in registers if _live_in(cfg, i, r)}
                    assert flow.live_in[i] == live_in, i
                    assert flow.live_out[i] == set().union(
                        *(flow.live_in[s] for s in cfg.succs[i])
                    ), i
        assert bodies > 500
