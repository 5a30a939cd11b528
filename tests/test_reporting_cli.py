"""Tests for the reporting helpers and the command-line interface."""

from pathlib import Path

import pytest

from repro.reporting import indent_block, render_header, render_table
from repro.__main__ import main as cli_main


class TestReporting:
    def test_table_alignment(self):
        text = render_table(["a", "long header"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equally wide

    def test_table_title(self):
        text = render_table(["a"], [["b"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_non_string_cells(self):
        text = render_table(["n"], [[42]])
        assert "42" in text

    def test_header(self):
        text = render_header("Hello")
        top, title, bottom = text.splitlines()
        assert title == "Hello" and set(top) == {"="} == set(bottom)

    def test_indent(self):
        assert indent_block("a\nb", "> ") == "> a\n> b"


LIST_C = """
struct node { struct node *next; };
struct node *build(int n) {
    struct node *head = NULL;
    while (n > 0) {
        struct node *p = malloc(sizeof(struct node));
        p->next = head;
        head = p;
        n = n - 1;
    }
    return head;
}
int main() { struct node *h = build(5); return 0; }
"""

LIST_IR = """
proc main():
    %n = 5
    %head = null
L:
    if %n <= 0 goto done
    %p = malloc()
    [%p.next] = %head
    %head = %p
    %n = sub %n, 1
    goto L
done:
    return %head
"""


class TestCLI:
    def _write(self, tmp_path: Path, name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_analyze_c_file(self, tmp_path, capsys):
        code = cli_main([self._write(tmp_path, "list.c", LIST_C)])
        out = capsys.readouterr().out
        assert code == 0
        assert "inferred data types" in out
        assert "next" in out

    def test_analyze_ir_file(self, tmp_path, capsys):
        code = cli_main([self._write(tmp_path, "list.ir", LIST_IR)])
        assert code == 0
        assert "next" in capsys.readouterr().out

    def test_dump_ir(self, tmp_path, capsys):
        code = cli_main([self._write(tmp_path, "list.c", LIST_C), "--dump-ir"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proc main()" in out and "malloc" in out

    def test_run_flag_model_checks(self, tmp_path, capsys):
        code = cli_main([self._write(tmp_path, "list.ir", LIST_IR), "--run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "concrete execution returned" in out
        assert "holds exactly" in out

    def test_missing_file(self, capsys):
        assert cli_main(["/nonexistent/path.c"]) == 2

    def test_failure_exit_code(self, tmp_path, capsys):
        bad = "proc main():\n    %p = null\n    %x = [%p.next]\n    return"
        code = cli_main(
            [self._write(tmp_path, "bad.ir", bad), "--no-slicing"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_unroll_flag(self, tmp_path, capsys):
        code = cli_main(
            [self._write(tmp_path, "list.ir", LIST_IR), "--unroll", "3"]
        )
        assert code == 0

    @pytest.mark.parametrize("prefix", [[], ["serve"]], ids=["analyze", "serve"])
    def test_no_store_flag_is_gone(self, tmp_path, capsys, monkeypatch, prefix):
        """``--store PATH`` is the one way to name a store."""

        def no_daemon(*args, **kwargs):
            raise AssertionError("repro serve accepted --no-store")

        monkeypatch.setattr("repro.serve.server.AnalysisServer", no_daemon)
        argv = prefix or [self._write(tmp_path, "list.ir", LIST_IR)]
        with pytest.raises(SystemExit) as info:
            cli_main(argv + ["--no-store"])
        assert info.value.code == 2

    def test_store_environment_variable_opens_no_store(
        self, tmp_path, capsys, monkeypatch
    ):
        store_dir = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(store_dir))
        code = cli_main([self._write(tmp_path, "list.ir", LIST_IR)])
        assert code == 0
        assert "store:" not in capsys.readouterr().out
        assert not store_dir.exists()
