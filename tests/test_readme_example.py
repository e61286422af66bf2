"""The README quickstart and CLI block, executed."""

import shlex
from pathlib import Path

from hatkit import (
    alternating_cycles,
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
    lifted = lift_automorphisms(base, group, labeling)
    dec = alternating_cycles(dart, natural)
    assert (dec.radius, dec.attachment) == (3, 2)
    report = cover_pipeline(dart, dec, lifted)
    assert report.split and not report.sectional
    data = report.to_json_dict()
    assert set(data) == {"order", "bipartite", "radius", "attachment",
                         "split", "sectional", "base_order", "base_girth",
                         "group_order", "lifted_order", "projected_order"}


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
