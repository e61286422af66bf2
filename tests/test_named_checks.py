"""Theorem checks are named raises, which python -O keeps; a bare assert
is stripped by -O.  The bare asserts left in the package are listed here,
and the list may only shrink."""

import ast
from collections import Counter
from pathlib import Path

import hatkit

# (module, function) -> number of bare asserts still allowed there
REMAINING_ASSERTS = Counter()


def bare_asserts(path):
    """Counter of (module, innermost enclosing function) over the assert
    statements of one source file; "<module>" outside any function."""
    found = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Assert):
            found[path.name, function] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>")
    return found


def test_no_bare_asserts_beyond_the_remaining_ones():
    found = Counter()
    for path in sorted(Path(hatkit.__file__).parent.glob("*.py")):
        found += bare_asserts(path)
    assert found - REMAINING_ASSERTS == Counter()


def test_bare_asserts_found_by_function(tmp_path):
    """The walk finds asserts at module level and in nested functions,
    each under its innermost function."""
    source = tmp_path / "sample.py"
    source.write_text("assert True\n"
                      "def outer():\n"
                      "    assert 1\n"
                      "    def inner():\n"
                      "        assert 2\n"
                      "        assert 3\n")
    assert bare_asserts(source) == Counter({
        ("sample.py", "<module>"): 1, ("sample.py", "outer"): 1,
        ("sample.py", "inner"): 2})
