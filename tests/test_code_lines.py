import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a comment


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string
        that is code"""
        return (x +
                1)

    async def g(self):
        'single-quoted docstring'
        pass
'''


def test_code_lines_sample(tmp_path):
    """Docstrings, comments and blank lines are not code; a multi-line
    string that is no docstring and a bracketed continuation are, one
    line each.  Code lines: import, class, def, text (2), return (2),
    async def, pass."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.code_lines(path) == 9
    assert code_lines.docstring_lines(
        code_lines.ast.parse(SAMPLE)) == {1, 2, 9, 12, 13, 20}


def test_code_lines_cli_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""doc"""\nz = 3\n',
                                           encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "1", "3"]
    assert lines[-1].split() == ["3", "total"]
