"""Theorem checks are named raises, which python -O keeps; a bare assert
is stripped by -O.  The bare asserts left in the package are listed here,
and the list may only shrink.  Every `raise StructureViolation(...)`
names its check: the message opens with `name: `, written out or as a
`{name}: ` placeholder.  Every `check(...)` call passes its name as a
literal snake_case string."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import hatkit
from hatkit.errors import StructureViolation, check

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


CHECK_NAME = re.compile(r"[a-z][a-z0-9_]*: ")


def names_check(message):
    """True when a message expression opens with a check name and ': ',
    as a literal or as a placeholder followed by ': '."""
    if isinstance(message, ast.JoinedStr) and message.values:
        head = message.values[0]
        if isinstance(head, ast.FormattedValue):
            rest = message.values[1:2]
            return (bool(rest) and isinstance(rest[0], ast.Constant)
                    and rest[0].value.startswith(": "))
        message = head
    return (isinstance(message, ast.Constant) and isinstance(message.value, str)
            and CHECK_NAME.match(message.value) is not None)


def unnamed_raises(path):
    """(file name, line) of each `raise StructureViolation(...)` of one
    source file whose message names no check."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path))):
        call = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "StructureViolation"
                and not (call.args and names_check(call.args[0]))):
            found.append((path.name, node.lineno))
    return found


def test_every_structure_violation_names_its_check():
    found = []
    for path in sorted(Path(hatkit.__file__).parent.glob("*.py")):
        found += unnamed_raises(path)
    assert found == []


def test_unnamed_raises_found(tmp_path):
    """The walk accepts a literal name and a placeholder name, each
    followed by ': ', and flags the rest."""
    source = tmp_path / "sample.py"
    source.write_text(
        'raise StructureViolation("odd_cycle: cycle 3 has length 5")\n'
        'raise StructureViolation(f"{check}: edge (0, 1) is missing")\n'
        'raise StructureViolation(f"lift_faithful: order {n} != {m}")\n'
        'raise StructureViolation("cycle lengths differ")\n'
        'raise StructureViolation(f"{n} cycles: too many")\n'
        'raise StructureViolation(f"vertex {v} lies on no cycle")\n'
        'raise StructureViolation()\n'
        'raise ValueError("not a theorem check")\n')
    assert unnamed_raises(source) == [("sample.py", line)
                                      for line in (4, 5, 6, 7)]


SNAKE_CASE = re.compile(r"[a-z][a-z0-9_]*")


def unnamed_checks(path):
    """(file name, line) of each `check(...)` call of one source file whose
    name, the second argument, is not a literal snake_case string."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path))):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "check"):
            name = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(name, ast.Constant)
                    and isinstance(name.value, str)
                    and SNAKE_CASE.fullmatch(name.value)):
                found.append((path.name, node.lineno))
    return found


def test_every_check_call_names_its_check():
    found = []
    for path in sorted(Path(hatkit.__file__).parent.glob("*.py")):
        found += unnamed_checks(path)
    assert found == []


def test_unnamed_checks_found(tmp_path):
    """The walk accepts a literal snake_case name and flags a placeholder,
    a variable, another spelling and a missing name."""
    source = tmp_path / "sample.py"
    source.write_text(
        'check(log, "base_girth_3", girth == 3, f"girth {girth}")\n'
        'check(log, f"{name}", ok, "")\n'
        'check(log, name, ok, "")\n'
        'check(log, "dart:radius_3", ok, "")\n'
        'check(log)\n'
        'other(log, name, ok, "")\n')
    assert unnamed_checks(source) == [("sample.py", line)
                                      for line in (2, 3, 4, 5)]


def test_check_records_a_pass_and_raises_a_failure():
    """A passed check is appended with its witness as detail; a failed one
    raises "name: witness", whose check and witness split at the first
    ': '."""
    passed = []
    check(passed, "base_girth_3", True, "the base has girth 3")
    assert passed == [("base_girth_3", "the base has girth 3")]
    with pytest.raises(StructureViolation) as info:
        check(passed, "psi_unique_head", False, "dart 0 = (1, 2): 0 of it")
    assert str(info.value) == "psi_unique_head: dart 0 = (1, 2): 0 of it"
    assert info.value.check == "psi_unique_head"
    assert info.value.witness == "dart 0 = (1, 2): 0 of it"
    assert passed == [("base_girth_3", "the base has girth 3")]
