"""Tests for the repository tools under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return x


class C:
    """Class docstring."""

    value = 1
'''


class TestCountLines:
    def test_counts_code_outside_docstrings_comments_and_blanks(self):
        count_lines = load_tool("count_lines")
        # import, def, text (2 lines), return, class, value
        assert count_lines.code_lines(SOURCE) == 7

    def test_main_prints_each_module_and_the_total(self, tmp_path, capsys):
        count_lines = load_tool("count_lines")
        (tmp_path / "a.py").write_text(SOURCE)
        (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
        assert count_lines.main([str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["7", "1", "8"]
        assert lines[-1].endswith("total")
