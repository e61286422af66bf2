"""Theorem checks are named raises, which python -O keeps; a bare assert
is stripped by -O.  The bare asserts left in the package are listed here,
and the list may only shrink.  Every `raise StructureViolation(...)`
names its check: the message opens with `name: `, written out or as a
`{name}: ` placeholder.  Every `check(...)` and `check_fault(...)` call
passes its name as a literal snake_case string.  Every typed error of a
supplied generator or involution names its witness."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import hatkit
from hatkit import errors
from hatkit.errors import StructureViolation, check, check_fault

from conftest import run_optimized

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
# the position of the check name among each check function's arguments
NAME_ARGUMENT = {"check": 1, "check_fault": 0}


def unnamed_checks(path):
    """(file name, line) of each `check(...)` or `check_fault(...)` call of
    one source file whose name, the second or the first argument, is not
    a literal snake_case string."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path))):
        at = NAME_ARGUMENT.get(getattr(getattr(node, "func", None), "id",
                                       None))
        if isinstance(node, ast.Call) and at is not None:
            name = node.args[at] if len(node.args) > at else None
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
    a variable, another spelling and a missing name, for check and for
    check_fault."""
    source = tmp_path / "sample.py"
    source.write_text(
        'check(log, "base_girth_3", girth == 3, f"girth {girth}")\n'
        'check(log, f"{name}", ok, "")\n'
        'check(log, name, ok, "")\n'
        'check(log, "dart:radius_3", ok, "")\n'
        'check(log)\n'
        'other(log, name, ok, "")\n'
        'check_fault("quotient_covering_projection", fault)\n'
        'check_fault(name, fault)\n')
    assert unnamed_checks(source) == [("sample.py", line)
                                      for line in (2, 3, 4, 5, 8)]


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


def test_check_fault_raises_only_on_a_fault():
    """check_fault raises "name: fault" for a non-empty fault text and
    returns for an empty one."""
    check_fault("sectional_onto_double", "")
    with pytest.raises(StructureViolation) as info:
        check_fault("sectional_onto_double",
                    "edge (0, 1) maps to the non-edge (0, 2)")
    assert info.value.check == "sectional_onto_double"
    assert info.value.witness == "edge (0, 1) maps to the non-edge (0, 2)"


# Inputs for the typed errors below: the 6-cycle with its rotations, the
# path 0-1-2-3, the alternating cycles of Dart(K4) (12 vertices) and
# K4's dart labeling.
_WITNESS_SETUP = (
    "import sys, types\n"
    "from hatkit.altcycles import alternating_cycles, cycle_images\n"
    "from hatkit.autgroup import arc_orbits, transitivity_report\n"
    "from hatkit.census import complete_graph\n"
    "from hatkit.covers import quotient_by_tau, split_certificate\n"
    "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
    "from hatkit.graphs import from_edge_list\n"
    "from hatkit.perms import compose, from_cycles, schreier_sims\n"
    "c6 = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])\n"
    "rot1 = from_cycles(6, [(0, 1, 2, 3, 4, 5)])\n"
    "rot3 = from_cycles(6, [(0, 3), (1, 4), (2, 5)])\n"
    "cover = quotient_by_tau(c6, rot3)\n"
    "path4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])\n"
    "k4_dart, k4_natural, k4_labeling = dart_graph(complete_graph(4))\n"
    "k4_dec = alternating_cycles(k4_dart, k4_natural)\n"
)


@pytest.mark.parametrize("call, error, message", [
    ("quotient_by_tau(c6, rot1)", "NotInvolution",
     "tau is not an involution: tau(tau(0)) = 2"),
    ("split_certificate(c6, schreier_sims([compose(rot1, rot1)]), rot1,\n"
     "                  cover)", "NotInvolution",
     "tau is not an involution: tau(tau(0)) = 2"),
    ("split_certificate(c6, schreier_sims([rot3, rot1]),\n"
     "                  from_cycles(6, [(0, 1), (2, 5), (3, 4)]), cover)",
     "NotCentralizing",
     "tau does not centralize the supplied group: generator 1 does not "
     "commute with tau at vertex 0"),
    ("cycle_images(schreier_sims([], degree=4), k4_dec)", "NotInvariant",
     "group degree 4 differs from the vertex count 12"),
    ("arc_orbits([rot1, from_cycles(6, [(0, 1)])], c6)", "NotAutomorphisms",
     "generator 1 does not preserve adjacency: edge (0, 5) maps to the "
     "non-edge (1, 5)"),
    ("transitivity_report(schreier_sims([from_cycles(4, [(0, 1, 2, 3)])]),\n"
     "                    path4)", "NotAutomorphisms",
     "generator 0 does not preserve adjacency: edge (2, 3) maps to the "
     "non-edge (3, 0)"),
    ("lift_automorphisms(path4, schreier_sims([from_cycles(4, [(0, 2)])]),\n"
     "                   k4_labeling)", "NotAutomorphisms",
     "generator 0 does not preserve adjacency: edge (2, 3) maps to the "
     "non-edge (0, 3)"),
    ("lift_automorphisms(path4, types.SimpleNamespace(\n"
     "    degree=4, strong_generators=((1, 0, 2),)), k4_labeling)",
     "NotAutomorphisms",
     "generator 0 does not preserve adjacency: it has degree 3, the graph "
     "order 4"),
    ("quotient_by_tau(path4, from_cycles(4, [(0, 1), (2, 3)]))",
     "NotAutomorphisms",
     "tau is not an automorphism: edge (1, 2) maps to the non-edge (0, 3)"),
], ids=["quotient_by_tau-involution", "split_certificate-involution",
        "split_certificate-centralizes", "cycle_images-degree",
        "arc_orbits-edge", "transitivity_report-edge",
        "lift_automorphisms-edge", "lift_automorphisms-degree",
        "quotient_by_tau-edge"])
def test_typed_errors_name_their_witness(call, error, message):
    """Each typed error of a supplied generator or tau names its witness:
    the generator index (or tau) with the first edge it maps to a
    non-edge or its degree, a vertex v with tau(tau(v)), a generator and
    a vertex where it does not commute with tau, or both degrees.  The
    same message under python -O."""
    namespace = {}
    exec(_WITNESS_SETUP, namespace)
    with pytest.raises(getattr(errors, error)) as info:
        eval(call, namespace)
    assert str(info.value) == message
    code = _WITNESS_SETUP + (
        "try:\n"
        f"    {call}\n"
        "except Exception as exc:\n"
        f"    print(sys.flags.optimize, type(exc).__name__, "
        f"str(exc) == {message!r})\n"
    )
    assert run_optimized(code) == ["1", error, "True"]


# Dart(Petersen) (30 darts), its lifted group, a chain of that group, the
# antipodal involution tau and the cover it gives; spoilt(i, x) is tau
# with image x at i.
_PERMUTATION_SETUP = (
    "import sys\n"
    "from hatkit.altcycles import alternating_cycles, antipodal_involution\n"
    "from hatkit.autgroup import automorphism_group\n"
    "from hatkit.census import generalized_petersen\n"
    "from hatkit.covers import quotient_by_tau, split_certificate\n"
    "from hatkit.dartgraph import dart_graph, lift_automorphisms\n"
    "from hatkit.perms import centralizes, schreier_sims\n"
    "petersen = generalized_petersen(5, 2)\n"
    "g, natural, labeling = dart_graph(petersen)\n"
    "lifted = lift_automorphisms(petersen, automorphism_group(petersen),\n"
    "                            labeling)\n"
    "tau = antipodal_involution(g, alternating_cycles(g, natural), lifted)\n"
    "cover = quotient_by_tau(g, tau)\n"
    "chain = schreier_sims(lifted.generators, degree=g.n)\n"
    "def spoilt(i, x):\n"
    "    return tau[:i] + (x,) + tau[i + 1:]\n"
)
OUTSIDE = "not a permutation: image 35 of 7 lies outside 0..29"
_NOT_PERMUTATIONS = [
    ("quotient_by_tau(g, spoilt(7, 35))", OUTSIDE),
    ("split_certificate(g, lifted, spoilt(7, 35), cover)", OUTSIDE),
    ("centralizes(spoilt(7, 35), lifted)", OUTSIDE),
    ("chain.contains(spoilt(7, 35))", OUTSIDE),
    ("lifted.contains(spoilt(7, 35))", OUTSIDE),
    ("quotient_by_tau(g, spoilt(7, -1))",
     "not a permutation: image -1 of 7 lies outside 0..29"),
    ("lifted.contains(spoilt(8, 9))",
     "not a permutation: image 9 of 8 repeats the image of 7"),
]


def test_non_permutation_names_its_image():
    """A tau or group element that is no permutation raises NotPermutation,
    also a ValueError, naming the first image that lies out of range or
    repeats an earlier one: from quotient_by_tau, split_certificate
    (through centralizes), centralizes, PermGroup.contains and
    LiftedGroup.contains.  An image of -1 does not wrap around into a
    NotInvolution.  The same messages under python -O."""
    namespace = {}
    exec(_PERMUTATION_SETUP, namespace)
    for call, message in _NOT_PERMUTATIONS:
        with pytest.raises(errors.NotPermutation) as info:
            eval(call, namespace)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == message, call
    code = _PERMUTATION_SETUP + "print(sys.flags.optimize)\n" + "".join(
        "try:\n"
        f"    {call}\n"
        "except Exception as exc:\n"
        f"    print(type(exc).__name__, str(exc) == {message!r})\n"
        for call, message in _NOT_PERMUTATIONS)
    assert run_optimized(code) == ["1"] + ["NotPermutation", "True"] * len(
        _NOT_PERMUTATIONS)
