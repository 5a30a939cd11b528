"""Tests for the textual IR format and the builder API."""

import pytest

from repro.ir import (
    NULL,
    Branch,
    IntConst,
    Load,
    Malloc,
    Nop,
    ParseError,
    ProcBuilder,
    ProgramBuilder,
    Register,
    Store,
    parse_program,
    print_program,
)


SAMPLE = """
globals head

proc main():
    %n = 5
    %p = malloc()
    [%p.next] = null
L:
    if %n <= 0 goto done
    %q = malloc(10)
    [%q.next] = %p
    %p = %q
    %n = sub %n, 1
    goto L
done:
    return %p
"""


class TestParse:
    def test_roundtrip(self):
        program = parse_program(SAMPLE)
        text = print_program(program)
        assert print_program(parse_program(text)) == text

    def test_globals_parsed(self):
        assert parse_program(SAMPLE).globals == ("head",)

    def test_malloc_array_count(self):
        program = parse_program(SAMPLE)
        mallocs = [
            i for i in program.proc("main").instrs if isinstance(i, Malloc)
        ]
        assert not mallocs[0].is_array
        assert mallocs[1].is_array and mallocs[1].count == IntConst(10)

    def test_store_null(self):
        program = parse_program(SAMPLE)
        stores = [i for i in program.proc("main").instrs if isinstance(i, Store)]
        assert stores[0].src == NULL

    def test_branch_condition(self):
        program = parse_program(SAMPLE)
        branch = next(
            i for i in program.proc("main").instrs if isinstance(i, Branch)
        )
        assert branch.cond.op == "le"
        assert branch.target == "done"

    def test_parse_error_has_line(self):
        with pytest.raises(ParseError) as info:
            parse_program("proc main():\n    %x = ???\n    return")
        assert "line 2" in str(info.value)

    def test_instruction_outside_procedure_rejected(self):
        with pytest.raises(ParseError):
            parse_program("%x = null")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError):
            parse_program("proc main():\nL:\nL:\n    return")

    def test_label_at_end_of_body(self):
        program = parse_program("proc main():\n    goto end\nend:\n    return")
        program.validate()

    def test_nop_roundtrip(self):
        program = parse_program("proc main():\n    nop\n    return")
        assert isinstance(program.proc("main").instrs[0], Nop)
        assert "nop" in print_program(program)

    def test_negative_int_operand(self):
        program = parse_program("proc main():\n    %x = -3\n    return %x")
        assert program.proc("main").instrs[0].src == IntConst(-3)

    def test_call_with_args(self):
        program = parse_program(
            "proc f(%a, %b):\n    return %a\n\n"
            "proc main():\n    %r = call f(%x, 3)\n    return %r"
        )
        call = program.proc("main").instrs[0]
        assert call.func == "f" and len(call.args) == 2

    def test_comments_ignored(self):
        program = parse_program(
            "proc main():  # entry\n    %x = null  # clear\n    return"
        )
        assert len(program.proc("main").instrs) == 2


class TestBuilder:
    def test_while_loop_structure(self):
        b = ProcBuilder("count", params=["n"])
        n = b.reg("n")
        with b.while_("gt", n, 0):
            b.arith(n, "sub", n, 1)
        b.ret(n)
        proc = b.build()
        proc.validate()
        # header branch, body, back-edge goto, return
        assert any(isinstance(i, Branch) for i in proc.instrs)
        from repro.ir import CFG
        from repro.prepass.wto import compute_wto

        assert compute_wto(CFG(proc)).heads

    def test_if_else_both_arms(self):
        b = ProcBuilder("pick", params=["x"])
        ie = b.if_else("eq", b.reg("x"), None)
        with ie.then():
            b.assign("r", 1)
        with ie.otherwise():
            b.assign("r", 2)
        ie.end()
        b.ret(b.reg("r"))
        proc = b.build()
        proc.validate()
        constants = [
            i.src.value
            for i in proc.instrs
            if hasattr(i, "src") and isinstance(getattr(i, "src"), IntConst)
        ]
        assert constants == [1, 2]

    def test_fresh_names_unique(self):
        b = ProcBuilder("p")
        assert b.fresh_reg() != b.fresh_reg()
        assert b.fresh_label() != b.fresh_label()

    def test_duplicate_label_rejected(self):
        b = ProcBuilder("p")
        b.label("L")
        b.assign("x", None)
        with pytest.raises(ValueError):
            b.label("L")

    def test_program_builder_validates(self):
        pb = ProgramBuilder()
        main = pb.proc("main")
        main.ret()
        pb.add(main)
        program = pb.build()
        assert program.entry == "main"

    def test_load_returns_dst_register(self):
        b = ProcBuilder("p", params=["x"])
        dst = b.load("d", b.reg("x"), "next")
        assert dst == Register("d")
        assert isinstance(b.build().instrs[0], Load)
