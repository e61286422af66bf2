"""The README quickstart and CLI block, executed, and its API
references resolved."""

import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import hatkit
from hatkit import (
    alternating_cycles,
    antipodal_involution,
    automorphism_group,
    cover_pipeline,
    dart_graph,
    lift_automorphisms,
)
from hatkit.census import generalized_petersen, holt_graph
from hatkit.cli import main
from hatkit.graph6 import write_graph6

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart():
    base = generalized_petersen(5, 2)
    group = automorphism_group(base)
    assert group.order == 120
    dart, natural, labeling = dart_graph(base)
    assert dart.n == 30
    lifted = lift_automorphisms(group, labeling)
    dec = alternating_cycles(natural)
    assert (dec.radius, dec.attachment) == (3, 2)
    tau = antipodal_involution(dart, dec, lifted)   # the dart reversal
    cover, sectional, checks = cover_pipeline(dart, dec, lifted, tau)
    assert cover.base.n == 15 and not sectional
    assert [name for name, _ in checks] == [
        "sectional_iff_bipartite", "fibre_action_kernel_tau",
        "projected_arc_transitive", "base_girth_3", "base_is_line_graph"]


def readme_cli_lines():
    """The argument lists of the `hatkit ...` lines of the README's CLI
    block, with their comments cut."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```\n", 2)[1]
    return [shlex.split(line.split("#", 1)[0])
            for line in block.splitlines() if line.startswith("hatkit ")]


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, serial_pool):
    """Every documented command exits 0 in a fresh directory, where
    my_graphs.g6 holds the Petersen and Holt graphs and --jobs maps
    serially."""
    monkeypatch.chdir(tmp_path)
    graphs = (generalized_petersen(5, 2), holt_graph())
    Path("my_graphs.g6").write_text(
        "".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    lines = readme_cli_lines()
    assert len(lines) == 7
    assert ["hatkit", "verify", "divisibility", "--census", "builtin",
            "--strict"] in lines
    for argv in lines:
        assert argv[0] == "hatkit"
        assert main(argv[1:]) == 0, argv
    assert serial_pool == [4]


MODULES = {m.name for m in pkgutil.iter_modules(hatkit.__path__)}
CLASSES = {name: obj for module in MODULES
           for name, obj in vars(importlib.import_module(
               f"hatkit.{module}")).items()
           if inspect.isclass(obj) and obj.__module__.startswith("hatkit.")}
# a code span holding a dotted name, perhaps called or indexed
REFERENCE = re.compile(r"`(\w+(?:\.\w+)+)(?:\([^`]*\)|\[[^`]*\])?`")


def api_references(text):
    """The dotted names of text's code spans that start at a hatkit module
    (`graphs.girth`, `hatkit.census`) or at a capitalised name, read as a
    hatkit class (`CoveringMap.fibres`); names that start at a variable,
    such as `dec.cycle_graph`, are left out."""
    names = (m.group(1) for m in REFERENCE.finditer(text))
    return [name for name in names
            if name.split(".")[0] in MODULES | {"hatkit"}
            or name[0].isupper()]


def resolves(name):
    """True when a dotted API name resolves: the module, then each
    attribute in turn, a record's field counting as one."""
    head, *rest = name.split(".")
    if head == "hatkit" and rest and rest[0] in MODULES:
        head, *rest = rest
    if head in MODULES:
        obj = importlib.import_module(f"hatkit.{head}")
    else:
        obj = hatkit if head == "hatkit" else CLASSES.get(head)
    for i, attr in enumerate(rest):
        if obj is None:
            return False
        if attr in getattr(obj, "_fields", ()):
            return i == len(rest) - 1
        obj = getattr(obj, attr, None)
    return obj is not None


def test_readme_api_references_resolve():
    """Every `module.name` of the README that names a hatkit module
    resolves to an attribute of that module, and every `Record.field` to
    a field or an attribute of the class."""
    references = api_references(README.read_text(encoding="utf-8"))
    assert len(references) >= 25
    assert [name for name in references if not resolves(name)] == []


def test_stale_api_references_found():
    """Names of deleted helpers and records are flagged; live ones, a
    call, an index and a variable's attribute are not."""
    text = ("`graphs.check_edge_map` and `graphs.check_isomorphism` went, "
            "as did `PsiReport.checks`, `DartForwardReport.checks` and "
            "`CoverReport.lifted_order`; `graphs.edge_map_fault`, "
            "`errors.check_fault(name, fault)`, `CoveringMap.fibre_map`, "
            "`PermGroup.basic_orbits`, `hatkit.census.census_json_text()`, "
            "`dec.cycles[i]` and `report.checks` stay.  "
            "`autgroup.refine`, `errors.InvalidPartition`, "
            "`altcycles.induced_orientation`, `Orientation.head_of`, "
            "`Orientation.is_head` and `PermGroup.sift` went too; "
            "`altcycles.half_arc_orientation`, `Orientation.out_adj` and "
            "`PermGroup.contains` stay.  `graphs.is_regular` went for "
            "`graphs.valence`.")
    references = api_references(text)
    assert "dec.cycles" not in references and "report.checks" not in references
    assert [name for name in references if not resolves(name)] == [
        "graphs.check_edge_map", "graphs.check_isomorphism",
        "PsiReport.checks", "DartForwardReport.checks",
        "CoverReport.lifted_order", "autgroup.refine",
        "errors.InvalidPartition", "altcycles.induced_orientation",
        "Orientation.head_of", "Orientation.is_head", "PermGroup.sift",
        "graphs.is_regular"]


def test_public_api_pinned():
    """hatkit's public names: a name added to or removed from the package
    changes this list in the same diff."""
    assert sorted(hatkit.__all__) == [
        "AltDecomposition", "CensusEntry", "CoveringMap", "DartLabeling",
        "Graph", "HatError", "Orientation", "PermGroup", "TransitivityReport",
        "alt_graph", "altcycles", "alternating_cycles", "antipodal_involution",
        "arc_orbits", "autgroup", "automorphism_group", "bipartite_double",
        "builtin_entries", "canonical_form", "census", "centralizes",
        "compose", "cover_pipeline", "covers", "dart_graph", "dartgraph",
        "divisibility_checks", "errors", "from_cycles", "from_edge_list",
        "girth", "graph6", "graphs", "identity", "induced_alt_action",
        "inverse", "is_bipartite", "is_connected", "is_isomorphic",
        "lift_automorphisms", "line_graph", "load_census",
        "load_graph6_file", "parse_graph6", "perms", "psi_isomorphism",
        "quotient_by_tau", "records", "relabel", "schreier_sims",
        "split_certificate", "transitivity_report", "unit_partition",
        "valence", "verify_dart_forward", "wreath_graph", "write_graph6"]
