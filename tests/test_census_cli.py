import ast
import builtins
import copy
import functools
import gc
import hashlib
import json
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatkit.census import (
    CensusEntry,
    builtin_entries,
    build_builtin_entries,
    census_json_text,
    load_census,
    pgl2_entry,
    pgl2_graph,
)
from hatkit.errors import WrongParameters
import hatkit
from hatkit import altcycles, autgroup, cli, covers, dartgraph, graphs, perms
from hatkit.cli import main, analyze_graph
from hatkit.graphs import girth, is_connected, relabel, valence
from hatkit.graph6 import parse_graph6, write_graph6
from hatkit.perms import identity
from hatkit.records import replace
from hatkit.autgroup import automorphism_group, canonical_form

from conftest import (STRESS_GRAPHS, STRESS_NAMES, ForgedOrientation,
                      cycle_graph, path_graph, run_optimized)

REQUIRED_CUBIC = (
    "k4", "k33", "cube", "petersen", "heawood", "mobius_kantor", "pappus",
    "desargues", "dodecahedron", "nauru", "coxeter")


MINI = {
    "entries": [
        {"name": "k4", "graph6": "C~",
         "expected": {"vertices": 4, "valence": 3, "aut_order": 24}},
        {"name": "k33", "graph6": "EFz_",
         "expected": {"vertices": 6, "valence": 3, "bipartite": True}},
    ]
}


@pytest.fixture()
def mini_census(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI), encoding="utf-8")
    return str(path)


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def test_builtin_matches_regenerated():
    stored = [e.to_json_dict() for e in builtin_entries()]
    rebuilt = [e.to_json_dict() for e in build_builtin_entries()]
    assert stored == rebuilt


def test_data_file_is_committed_serialization():
    from importlib.resources import files
    text = files("hatkit").joinpath("data/census.json").read_text("utf-8")
    assert text == census_json_text()


def test_all_entries_parse_and_connect():
    names = set()
    for entry in builtin_entries():
        g = entry.graph()
        names.add(entry.name)
        assert is_connected(g)
        assert valence(g) == entry.expected["valence"]
        assert g.n == entry.expected["vertices"]
    assert {"k4", "k33", "cube", "petersen", "heawood", "mobius_kantor",
            "pappus", "desargues", "dodecahedron", "nauru", "coxeter",
            "holt"} <= names


def test_expected_aut_orders_rederived():
    for entry in builtin_entries():
        if entry.name in ("k4", "petersen", "holt"):
            g = entry.graph()
            assert automorphism_group(g).order == entry.expected["aut_order"]


def test_load_census_graph6_lines(tmp_path):
    path = tmp_path / "plain.g6"
    path.write_text("C~\nEFz_\n", encoding="ascii")
    entries = load_census(str(path))
    assert [e.name for e in entries] == ["line1", "line2"]
    assert entries[0].graph().n == 4


@pytest.mark.parametrize("n", [28, 60])
def test_graph6_census_led_by_bracket_size_byte(tmp_path, capsys, n):
    """graph6 writes the sizes 28 and 60 as "[" and "{", the bytes that
    open a JSON document: a line file led by such a graph (Coxeter's, a
    60-cycle), with a header on a later line, is still read as graph6
    and verifies."""
    first = (next(e.graph() for e in builtin_entries() if e.name == "coxeter")
             if n == 28 else cycle_graph(60))
    path = tmp_path / "led.g6"
    path.write_text(f"{write_graph6(first)}\n\n>>graph6<<C~\n",
                    encoding="ascii")
    assert path.read_text()[0] == {28: "[", 60: "{"}[n]
    entries = load_census(str(path))
    assert [e.name for e in entries] == ["line1", "line3"]
    assert entries[0].graph() == first and entries[1].graph().n == 4
    assert main(["verify", "all", "--strict", "--census", str(path)]) == 0
    assert "PASS: 2 entries, suite=all" in capsys.readouterr().out


def test_analyze_graph_holt(holt):
    record = analyze_graph("holt", holt)
    assert record["aut_order"] == "54"
    assert record["transitivity"]["half_arc_transitive"]
    alt = record["alternating"]
    assert alt["radius"] == 9 and alt["attachment"] == 9
    assert alt["tightly_attached"] is True
    assert "divisibility" not in alt
    assert alt["alt_action_arc_transitive"] is False
    assert alt["open_question_notes"] == []


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(builtin_entries()).flatmap(
    lambda e: st.tuples(st.just(e), st.permutations(range(e.graph().n)))))
def test_analyze_invariant_under_relabeling(case):
    """A census graph and a relabeling of it give the same analyze record,
    apart from name and graph6, and the same canonical certificate."""
    entry, perm = case
    g = entry.graph()
    h = relabel(g, tuple(perm))
    record_g = analyze_graph("g", g)
    record_h = analyze_graph("h", h)
    for record in (record_g, record_h):
        del record["name"], record["graph6"]
    assert record_g == record_h
    assert canonical_form(g)[1] == canonical_form(h)[1]


def test_cli_analyze_census_name(capsys):
    assert main(["analyze", "petersen"]) == 0
    data = json.loads(capsys.readouterr().out)
    entry = data["entries"][0]
    assert entry["aut_order"] == "120"
    assert entry["transitivity"]["arc_transitive"]
    assert entry["alternating"] is None


def test_cli_analyze_file_input(tmp_path, capsys):
    path = tmp_path / "one.g6"
    path.write_text("C~\n", encoding="ascii")
    assert main(["analyze", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"][0]["order"] == 4


def test_cli_analyze_unknown_input(capsys):
    assert main(["analyze", "no_such_entry"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_analyze_too_large_is_input_error(tmp_path, capsys, monkeypatch):
    """A graph above the search's vertex bound is bad input: exit code 2
    and an error line naming the bound, not a traceback."""
    monkeypatch.setattr(autgroup, "_MAX_VERTICES", 10)
    autgroup._analysis.cache_clear()
    path = tmp_path / "path.g6"
    path.write_text(write_graph6(path_graph(11)) + "\n", encoding="ascii")
    assert main(["analyze", str(path)]) == 2
    assert ("error: 11 vertices exceeds the 10 vertex bound"
            in capsys.readouterr().err)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_verify_too_large_is_input_error(tmp_path, capsys, monkeypatch,
                                             jobs):
    """verify treats a graph above the search's vertex bound as bad input,
    like analyze: exit code 2 and an error line naming the bound, not a
    failed entry, also from a --jobs worker."""
    monkeypatch.setattr(autgroup, "_MAX_VERTICES", 3)
    autgroup._analysis.cache_clear()
    census = {"entries": [{"name": "k4", "graph6": "C~"},
                          {"name": "k4_again", "graph6": "C~"}]}
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(census), encoding="utf-8")
    assert main(["verify", "all", "--census", str(path),
                 "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert "error: 4 vertices exceeds the 3 vertex bound" in captured.err
    assert "[FAIL]" not in captured.out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_verify_too_large_unsearched_graph_is_input_error(
        tmp_path, capsys, monkeypatch, jobs):
    """verify checks the vertex bound when it loads the census, before any
    entry runs: a one-entry census holding the path P5, non-regular and
    with no expected keys, so that no suite searches it, exits 2 with the
    error line analyze gives for it, not PASS."""
    monkeypatch.setattr(autgroup, "_MAX_VERTICES", 3)
    autgroup._analysis.cache_clear()
    census = {"entries": [{"name": "p5",
                           "graph6": write_graph6(path_graph(5))}]}
    path = tmp_path / "p5.json"
    path.write_text(json.dumps(census), encoding="utf-8")
    error = "error: 5 vertices exceeds the 3 vertex bound\n"
    assert main(["analyze", "p5", "--census", str(path)]) == 2
    assert capsys.readouterr().err == error
    assert main(["verify", "all", "--census", str(path),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr() == ("", error)


def test_cli_import_leaves_pool_dataclasses_and_traceback_unloaded():
    """Importing hatkit or hatkit.cli loads none of dataclasses, inspect,
    concurrent.futures, multiprocessing, traceback and
    importlib.resources: only --jobs above 1 needs the process pool, only
    an engine error a traceback, and only the builtin census the
    resources.  The interpreter runs with -I -S, as site may preload some
    of these (a .pth file can load importlib.resources), and the modules
    a bare interpreter already holds are not counted.  No time is
    measured."""
    src = str(Path(hatkit.__file__).resolve().parents[1])
    show = "import sys; print(' '.join(sys.modules))"

    def loaded(code):
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code + show],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    bare = loaded("")
    for module in ("hatkit", "hatkit.cli"):
        modules = loaded(f"import sys; sys.path.insert(0, {src!r}); "
                         f"import {module}; ") - bare
        assert module in modules
        assert not modules & {"dataclasses", "inspect", "concurrent.futures",
                              "multiprocessing", "traceback",
                              "importlib.resources"}


def test_cli_verify_empty_census_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"entries": []}), encoding="utf-8")
    assert main(["verify", "all", "--census", str(path)]) == 2
    assert (f"error: {path}: the census has no entries"
            in capsys.readouterr().err)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_verify_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--jobs", jobs])
    assert info.value.code == 2
    assert f"error: argument --jobs: {jobs} is below 1" in \
        capsys.readouterr().err


def test_cli_dart_k4(capsys, tmp_path):
    out = tmp_path / "dart.json"
    assert main(["dart", "k4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    g = parse_graph6(printed[0])
    assert g.n == 12 and valence(g) == 4
    report = json.loads(out.read_text())
    assert report["entries"][0]["report"]["radius"] == 3


def test_cli_analyze_out_file(tmp_path, capsys):
    out = tmp_path / "analysis.json"
    assert main(["analyze", "k4", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["entries"][0]["cubic_two_arc_transitive"] is True


def test_cli_verify_plain_graph6_census(tmp_path, capsys):
    path = tmp_path / "plain.g6"
    path.write_text("C~\n", encoding="ascii")
    assert main(["verify", "divisibility", "--census", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] line1: a_divides_2r" in out


def test_cli_dart_petersen(capsys, monkeypatch):
    """The printed dart graph is the one the forward chain was verified
    on: `dart petersen` builds it once."""
    calls = []
    real = dartgraph.dart_graph
    for layer in (cli, dartgraph):
        monkeypatch.setattr(layer, "dart_graph",
                            lambda g: calls.append(g) or real(g))
    assert main(["dart", "petersen"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert parse_graph6(printed[0]).n == 30
    assert len(calls) == 1


@pytest.mark.parametrize("p", [7, 11])
def test_pgl2_entries_verify_strict(p, tmp_path, capsys):
    """pgl2_graph(7) and pgl2_graph(11) are connected and cubic, with
    p(p^2 - 1)/6 vertices and Aut = PGL(2, p) of order p(p^2 - 1), and
    their entries pass `verify all --strict`."""
    entry = pgl2_entry(p)
    g = entry.graph()
    assert is_connected(g) and valence(g) == 3
    assert g.n == p * (p * p - 1) // 6 == entry.expected["vertices"]
    assert automorphism_group(g).order == p * (p * p - 1) == \
        entry.expected["aut_order"]
    if p == 7:
        assert girth(g) == 7        # the Klein cubic graph
    path = tmp_path / "pgl2.json"
    path.write_text(json.dumps({"entries": [entry.to_json_dict()]}),
                    encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--strict", "--census", str(path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["passed"] and report["entries"][0]["name"] == f"pgl2_{p}"
    assert all(c["passed"] for c in report["entries"][0]["checks"])


@pytest.mark.parametrize("p", [-1, 1, 2, 5, 9, 13, 15, 17, 21])
def test_pgl2_graph_rejects_other_p(p):
    """Only primes p = 3 (mod 4) are taken: p = 5, 13 and 17 would give
    disconnected graphs, and 9, 15 and 21 are no primes."""
    with pytest.raises(WrongParameters, match=f"p = {p} is not a prime"):
        pgl2_graph(p)


def test_builtin_census_has_no_pgl2_entry():
    assert not any(e.name.startswith("pgl2") for e in builtin_entries())


def test_cli_order_zero_has_no_valence(tmp_path, capsys):
    """The order-0 graph is cubic nowhere: dart rejects it as input, with
    one error line and no traceback, while analyze and verify all report
    it as before, a connected graph of no valence that no suite runs on."""
    path = tmp_path / "empty.g6"
    path.write_text("?\n", encoding="ascii")
    assert main(["dart", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: dart graphs are built from cubic graphs only\n")
    assert main(["analyze", str(path)]) == 0
    record, = json.loads(capsys.readouterr().out)["entries"]
    assert record == {
        "alternating": None, "aut_order": "1", "bipartite": True,
        "connected": True, "girth": None, "graph6": "?",
        "name": f"{path}:1", "order": 0, "regular_valence": None, "size": 0,
        "transitivity": {"arc_orbit_count": 0, "arc_transitive": True,
                         "edge_transitive": True, "half_arc_transitive": False,
                         "two_arc_transitive": True,
                         "vertex_transitive": True}}
    out = tmp_path / "verify.json"
    assert main(["verify", "all", "--strict", "--census", str(path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    entry, = json.loads(out.read_text())["entries"]
    assert (entry["name"], entry["error"], entry["passed"]) == (
        "line1", None, True)
    assert [(c["check"], c["detail"]) for c in entry["checks"]] == [
        ("dart:applicable", "skipped: not a 2-arc-transitive cubic graph"),
        ("cover:applicable", "skipped: not a 2-arc-transitive cubic graph"),
        ("div:applicable",
         "skipped: no analyzed half-arc-transitive structure")]


@pytest.mark.parametrize("argv", [["analyze", "k4"], ["dart", "k4"],
                                  ["verify", "all"]])
def test_cli_common_options(argv):
    """--census and --out are declared once for every subcommand, and
    input once for analyze and dart, with the same defaults."""
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    assert (args.census, args.out) == ("builtin", None)
    args = parser.parse_args(argv + ["--census", "c.json", "--out", "r.json"])
    assert (args.census, args.out) == ("c.json", "r.json")
    assert getattr(args, "input", "k4") == "k4"


def test_cli_verify_json_is_usage_error(capsys):
    """verify --json, which printed its report between the check lines and
    the summary, is gone: --out writes the report."""
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_cli_dart_rejects_non_cubic(tmp_path, capsys):
    path = tmp_path / "c5.g6"
    path.write_text("Dhc\n", encoding="ascii")  # the 5-cycle
    assert main(["dart", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_mini_passes(mini_census, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "all", "--census", mini_census, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in captured and "[FAIL]" not in captured
    report = json.loads(out.read_text())
    assert report["passed"] and report["failures"] == []
    assert [e["name"] for e in report["entries"]] == ["k33", "k4"]


def test_cli_verify_detects_false_expectation(tmp_path, capsys):
    bad = {"entries": [{"name": "k4", "graph6": "C~",
                        "expected": {"aut_order": 25}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["verify", "divisibility", "--census", str(path)])
    captured = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] k4: expected:aut_order" in captured


def test_cli_verify_malformed_census(tmp_path, capsys):
    path = tmp_path / "broken.g6"
    path.write_text("C~\nC\n", encoding="ascii")
    assert main(["verify", "all", "--census", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         [["analyze"], ["verify", "all", "--census"]])
def test_cli_non_ascii_graph6_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.g6"
    path.write_bytes(b"C~\n\xe9C~\n")
    assert main(command + [str(path)]) == 2
    assert f"{path}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("census", [
    {"entries": [{"name": "x", "graph6": "C~", "expected": [1]}]},
    {"entries": {"a": 1}},
    [1],
    {"entries": [{"name": "x"}]},
])
@pytest.mark.parametrize("command", [["analyze", "k4"], ["verify", "all"]])
def test_cli_malformed_census_json_is_input_error(tmp_path, capsys, census,
                                                   command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(census), encoding="utf-8")
    assert main(command + ["--census", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_cli_verify_census_bad_graph6_is_input_error(tmp_path, capsys,
                                                    monkeypatch):
    census = {"entries": [{"name": "k4", "graph6": "C~"},
                          {"name": "x", "graph6": "C"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(census), encoding="utf-8")
    ran = []
    verify_entry = cli._verify_entry
    monkeypatch.setattr(cli, "_verify_entry",
                        lambda payload: ran.append(payload)
                        or verify_entry(payload))
    assert main(["verify", "all", "--census", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {path}: entry 1 " in captured.err
    assert "MalformedGraph6" not in captured.out and ran == []


@pytest.mark.parametrize("command", [["analyze", "x"], ["verify", "all"]])
def test_cli_duplicate_census_names_are_input_error(tmp_path, capsys,
                                                    command):
    census = {"entries": [{"name": "x", "graph6": "C~"},
                          {"name": "y", "graph6": "C~"},
                          {"name": "x", "graph6": "EFz_"}]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(census), encoding="utf-8")
    assert main(command + ["--census", str(path)]) == 2
    assert f"error: {path}: entries 0 and 2 are both named 'x'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("graph6, message", [
    (None, "cubic graphs only"),            # holt, tetravalent
    ("G~?GW[", "base graph is not connected"),  # two disjoint K4s
])
def test_cli_dart_rejects_input_before_search(tmp_path, capsys, monkeypatch,
                                              graph6, message):
    calls = []
    monkeypatch.setattr(cli, "automorphism_group",
                        lambda g: calls.append(g) or automorphism_group(g))
    source = "holt"
    if graph6 is not None:
        source = str(tmp_path / "input.g6")
        (tmp_path / "input.g6").write_text(graph6 + "\n", encoding="ascii")
    assert main(["dart", source]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


# sha256 of the builtin `verify all --strict` report with its
# elapsed_seconds fields removed: a change to any check, detail or verdict
# of any entry changes it.
BUILTIN_STRICT_REPORT_SHA256 = (
    "a14bd1372d2686eb0ae83eae28757445a78c8a215a427833ecc557e7230b7e2d")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_verify_builtin_report_pinned(tmp_path, capsys, jobs):
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "builtin", "--strict",
                 "--jobs", jobs, "--out", str(out)]) == 0
    capsys.readouterr()
    text = json.dumps(_strip_timing(json.loads(out.read_text())),
                      indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        BUILTIN_STRICT_REPORT_SHA256


# The same for the seven stress graphs (census written by
# _write_stress_census): Foster's 270 darts are the largest dart entry of
# the benchmark.
STRESS_STRICT_REPORT_SHA256 = (
    "6cd2cd6e11c4bd057461331448061d7d212818c414a1145c3df419de8c8fb5d7")


def _write_stress_census(tmp_path):
    """A census of the seven stress graphs in construction labeling, with
    no expected block; returns its path."""
    path = tmp_path / "stress.json"
    path.write_text(json.dumps({"entries": [
        CensusEntry(name, write_graph6(build())).to_json_dict()
        for name, build in zip(STRESS_NAMES, STRESS_GRAPHS)]}),
        encoding="utf-8")
    return str(path)


def test_cli_verify_stress_report_pinned(tmp_path, capsys, monkeypatch):
    # the report names the census as given: a relative path keeps it fixed
    _write_stress_census(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "stress.json", "--strict",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    text = json.dumps(_strip_timing(json.loads(out.read_text())),
                      indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        STRESS_STRICT_REPORT_SHA256


# The same for the PGL(2, p) entries with p = 7, 11 and 19 (168, 660 and
# 3,420 darts), the largest dart and cover stages any tier-1 pin reaches.
PGL2_STRICT_REPORT_SHA256 = (
    "4f7a8db18431f01109d6541385cfb54a36a3de109e4a85b6a2f50e3915b4f0e1")


def test_cli_verify_pgl2_report_pinned(tmp_path, capsys, monkeypatch):
    (tmp_path / "pgl2.json").write_text(json.dumps({"entries": [
        pgl2_entry(p).to_json_dict() for p in (7, 11, 19)]}),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "pgl2.json", "--strict",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    text = json.dumps(_strip_timing(json.loads(out.read_text())),
                      indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PGL2_STRICT_REPORT_SHA256


# sha256 of the `analyze` report of a graph6 file holding every builtin
# graph and then one relabeling of each, drawn from random.Random(2017):
# a change to any field of any record, the alternating-cycle parameters of
# the tetravalent entries included, changes it.
ANALYZE_REPORT_SHA256 = (
    "a5ebc581e569d7d195e53f36f803a902cd94aea5eb99c5f01e0e784f04106475")


def test_cli_analyze_report_pinned(tmp_path, capsys, monkeypatch):
    import random
    rng = random.Random(2017)
    graphs = [e.graph() for e in builtin_entries()]
    lines = [write_graph6(g) for g in graphs]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        lines.append(write_graph6(relabel(g, tuple(perm))))
    (tmp_path / "pin.g6").write_text("\n".join(lines) + "\n",
                                     encoding="ascii")
    # records are named after the file as given: a relative path keeps
    # them fixed
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "pin.g6"]) == 0
    text = capsys.readouterr().out
    assert len(json.loads(text)["entries"]) == 2 * len(graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        ANALYZE_REPORT_SHA256


# sha256 of the `dart --out` reports of every cubic builtin entry, the
# seven stress graphs (f026 is 1-arc-regular, so its report is null with a
# note) and the PGL(2, p) entries with p = 7, 11 and 19, joined in that
# order: a change to any field of any dart report changes it.
DART_REPORTS_SHA256 = (
    "33dff1b92422b51c03616b3d92736c7ce29386f009e2c9ca5d0e4872454d74ea")


def test_cli_dart_reports_pinned(tmp_path, capsys, monkeypatch):
    (tmp_path / "pgl2.json").write_text(json.dumps({"entries": [
        pgl2_entry(p).to_json_dict() for p in (7, 11, 19)]}),
        encoding="utf-8")
    stress = _write_stress_census(tmp_path)
    runs = ([("builtin", name) for name in REQUIRED_CUBIC]
            + [(stress, name) for name in STRESS_NAMES]
            + [(str(tmp_path / "pgl2.json"), f"pgl2_{p}") for p in (7, 11, 19)])
    digest = hashlib.sha256()
    for census, name in runs:
        out = tmp_path / f"{name}.json"
        assert main(["dart", name, "--census", census, "--out", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)["entries"][0]["report"]
        if report is not None:
            # group orders outgrow the integers JSON readers keep exact
            assert isinstance(report["group_order"], str)
            assert isinstance(report["lifted_order"], str)
        digest.update(text.encode())
    capsys.readouterr()
    assert sum(json.loads((tmp_path / f"{name}.json").read_text())
               ["entries"][0]["report"] is None for _, name in runs) == 1
    assert digest.hexdigest() == DART_REPORTS_SHA256


def test_verify_entry_builds_each_artefact_once(monkeypatch):
    """One analysis per entry: the dart graph, its alternating cycles and
    their graph are built once for all three suites (psi reads the 2-arcs
    of the reconstruction and builds no dart graph of it, and the cover
    suite reads the forward stage's), the induced orientations are
    proven from Aut(g)'s transitivity report, with no report of the lift
    and no half_arc_orientation, and the dart and cover identifications
    are certified by the maps their constructions define, without an isomorphism search: the one
    automorphism search is Petersen's own."""
    calls = Counter()
    layers = (altcycles, autgroup, cli, covers, dartgraph, perms)
    for module, name in ((dartgraph, "dart_graph"),
                         (dartgraph, "lift_automorphisms"),
                         (perms, "schreier_sims"),
                         (autgroup, "transitivity_report"),
                         (autgroup, "is_isomorphic"),
                         (altcycles, "half_arc_orientation"),
                         (altcycles, "alternating_cycles"),
                         (altcycles, "alt_graph")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for layer in layers:
            if getattr(layer, name, None) is fn:
                monkeypatch.setattr(layer, name, counted)
    autgroup._analysis.cache_clear()
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    result = cli._verify_entry((petersen, cli.SUITES, True))
    assert result["passed"]
    assert calls["dart_graph"] == 1
    assert calls["lift_automorphisms"] == 1
    assert calls["schreier_sims"] <= 2
    assert calls["transitivity_report"] == 1
    assert calls["is_isomorphic"] == 0
    assert autgroup._analysis.cache_info().misses == 1
    assert calls["half_arc_orientation"] == 0
    assert calls["alternating_cycles"] == 1
    assert calls["alt_graph"] == 1


def test_holt_transitivity_report_computed_once(monkeypatch, capsys):
    """The half-arc-transitive orientation of the Holt graph is built from
    the transitivity report its analysis holds: `analyze holt` and the
    Holt entry of `verify all --strict` each compute the report of
    (Holt, the group of its entry's analysis) once."""
    entry = next(e for e in builtin_entries() if e.name == "holt")
    holt = entry.graph()
    analyses = []

    class Recorded(cli._EntryAnalysis):
        def __init__(self, g):
            super().__init__(g)
            analyses.append(self)

    monkeypatch.setattr(cli, "_EntryAnalysis", Recorded)
    real = autgroup.transitivity_report
    calls = Counter()

    def counted(group, g):
        calls[g == holt and group is analyses[-1].group] += 1
        return real(group, g)

    for layer in (altcycles, autgroup, cli, dartgraph):
        if getattr(layer, "transitivity_report", None) is real:
            monkeypatch.setattr(layer, "transitivity_report", counted)
    assert main(["analyze", "holt"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert len(analyses) == 1 and calls[True] == 1
    calls.clear()
    result = cli._verify_entry((entry, cli.SUITES, True))
    assert result["passed"]
    assert len(analyses) == 2 and calls[True] == 1


def test_verify_keeps_no_chain_of_a_finished_entry(monkeypatch, tmp_path):
    """Each entry's Aut(g) chain lives with its entry: after `verify all
    --strict` over the builtin census no chain is reachable, and the
    search cache holds at most the last graph's result."""
    chains = []

    def recorded(g):
        group = automorphism_group(g)
        chains.append(weakref.ref(group))
        return group

    monkeypatch.setattr(cli, "automorphism_group", recorded)
    assert main(["verify", "all", "--strict",
                 "--out", str(tmp_path / "report.json")]) == 0
    gc.collect()
    assert len(chains) == len(builtin_entries())
    assert [ref for ref in chains if ref() is not None] == []
    assert autgroup._analysis.cache_info().currsize <= 1


@pytest.mark.parametrize("census", ["builtin", "stress"])
def test_verify_all_reads_no_lifted_chain_level(census, tmp_path, capsys,
                                                 monkeypatch):
    """verify_dart_forward proves the lift's half-arc-transitivity from
    Aut(g)'s: over `verify all` each entry computes one transitivity
    report, of (g, Aut(g)), and PermGroup.first_level runs only on Aut(g)'s
    chain, never on a group whose degree is the dart graph's order."""
    if census == "stress":
        census = _write_stress_census(tmp_path)
    entry_graph = {e.name: e.graph() for e in load_census(census)}
    current = [None]
    reports, levels = Counter(), {name: [] for name in entry_graph}
    real_entry = cli._verify_entry
    real_report = autgroup.transitivity_report
    real_level = perms.PermGroup.first_level

    def verify_entry(payload):
        current[0] = payload[0].name
        return real_entry(payload)

    def report(group, g):
        reports[current[0], g == entry_graph[current[0]]] += 1
        return real_report(group, g)

    def first_level(group):
        levels[current[0]].append(group.degree)
        return real_level(group)

    monkeypatch.setattr(cli, "_verify_entry", verify_entry)
    for layer in (altcycles, autgroup, cli, dartgraph):
        if getattr(layer, "transitivity_report", None) is real_report:
            monkeypatch.setattr(layer, "transitivity_report", report)
    monkeypatch.setattr(perms.PermGroup, "first_level", first_level)
    assert main(["verify", "all", "--census", census]) == 0
    capsys.readouterr()
    assert reports == Counter((name, True) for name in entry_graph)
    # a dart graph has 2m = 3n > n vertices
    assert levels == {name: [g.n] for name, g in entry_graph.items()}


@pytest.mark.parametrize("census", ["builtin", "stress"])
def test_verify_dart_entry_builds_one_chain(census, tmp_path, capsys,
                                            monkeypatch):
    """Over `verify all --strict`, each cubic entry builds exactly one
    stabiliser chain, Aut(g)'s, of degree n: the lift, <lift, tau> and the
    fibre action are proven, not built."""
    if census == "stress":
        census = _write_stress_census(tmp_path)
    entry_graph = {e.name: e.graph() for e in load_census(census)}
    current = [None]
    builds = {name: [] for name in entry_graph}
    real_entry = cli._verify_entry
    real_build = perms.schreier_sims

    def verify_entry(payload):
        current[0] = payload[0].name
        return real_entry(payload)

    def recorded(generators, degree=None, order_bound=None, base=()):
        builds[current[0]].append(degree)
        return real_build(generators, degree=degree,
                          order_bound=order_bound, base=base)

    monkeypatch.setattr(cli, "_verify_entry", verify_entry)
    for layer in (altcycles, autgroup, cli, covers, dartgraph, perms):
        if getattr(layer, "schreier_sims", None) is real_build:
            monkeypatch.setattr(layer, "schreier_sims", recorded)
    autgroup._analysis.cache_clear()
    assert main(["verify", "all", "--strict", "--census", census]) == 0
    capsys.readouterr()
    autgroup._analysis.cache_clear()
    cubic = {name for name, g in entry_graph.items() if g.degrees()[0] == 3}
    assert len(cubic) >= 7
    assert {name: builds[name] for name in cubic} == {
        name: [entry_graph[name].n] for name in cubic}


@pytest.mark.parametrize("census", ["builtin", "stress"])
def test_each_suite_alone_makes_its_slice_of_verify_all(census, tmp_path):
    """Run alone under --strict, each suite makes the checks, with the
    same details, that it makes within `verify all --strict` of the same
    entry: less the expected:* checks, the suites' checks in SUITES order
    are the entry's `verify all` checks.  The cover and divisibility
    suites read one tau, derived on first use by _EntryAnalysis, so
    neither may depend on which of them ran first."""
    if census == "stress":
        census = _write_stress_census(tmp_path)

    def checks(entry, suites):
        result = cli._verify_entry((entry, suites, True))
        assert result["error"] is None and result["passed"], entry.name
        return [c for c in result["checks"]
                if not c["check"].startswith("expected:")]

    for entry in load_census(census):
        alone = [checks(entry, (suite,)) for suite in cli.SUITES]
        assert all(alone), entry.name
        assert checks(entry, cli.SUITES) == [c for part in alone
                                             for c in part], entry.name


def test_verify_cover_theorem_colours_and_fibres_once(monkeypatch, capsys):
    """Over `verify cover-theorem` on the builtin census, each of the 10
    covers builds its fibre list once, and split_certificate two-colours
    each total graph once, the non-bipartite ones too: 22 two-colourings
    in all."""
    runs = []
    real_color = graphs._two_color
    monkeypatch.setattr(graphs, "_two_color",
                        lambda g: runs.append(g) or real_color(g))
    built = []      # holds each cover, so that no id is reused
    real_fibres = covers.CoveringMap.fibres.func

    def fibres(cover):
        built.append(cover)
        return real_fibres(cover)

    counted = functools.cached_property(fibres)
    counted.__set_name__(covers.CoveringMap, "fibres")
    monkeypatch.setattr(covers.CoveringMap, "fibres", counted)
    assert main(["verify", "cover-theorem"]) == 0
    capsys.readouterr()
    assert len(runs) == 22
    assert len(built) == len({id(cover) for cover in built}) == 10


def test_cli_verify_isolates_engine_errors_per_entry(monkeypatch, tmp_path,
                                                    capsys):
    """An unexpected exception fails its own entry, named with its type,
    and every other entry is still verified and reported."""
    real = cli.cover_pipeline

    def broken_for_petersen(total, dec, group, tau):
        if total.n == 30:  # Dart(Petersen); no other builtin has 30 darts
            raise RuntimeError("injected for petersen")
        return real(total, dec, group, tau)

    monkeypatch.setattr(cli, "cover_pipeline", broken_for_petersen)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "builtin",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert ("[FAIL] petersen: error: engine error: RuntimeError: "
            "injected for petersen") in printed.out
    assert "Traceback" in printed.err and "broken_for_petersen" in printed.err
    report = json.loads(out.read_text())
    by_name = {e["name"]: e for e in report["entries"]}
    assert sorted(by_name) == sorted(e.name for e in builtin_entries())
    assert report["failures"] == ["petersen"]
    assert by_name["petersen"]["error"] == \
        "engine error: RuntimeError: injected for petersen"
    assert all(e["passed"] and e["error"] is None
               for name, e in by_name.items() if name != "petersen")


def test_verify_records_typed_quotient_error(monkeypatch):
    """quotient_by_tau's orbit-pair count is a typed error, so verify
    records its message as the entry's error, not as an engine error, and
    where it happened: in the cover suite, after its first check.  The
    antipodal involution of Dart(Petersen), certified and then given with
    the partners of 0 and 1 exchanged, joins two orbits by a single edge:
    cover_pipeline does not test again that tau is an automorphism, which
    antipodal_involution certified."""
    real = cli.antipodal_involution

    def exchanged(total, dec, group):
        tau = list(real(total, dec, group))
        t0, t1 = tau[0], tau[1]
        tau[0], tau[1], tau[t0], tau[t1] = 1, 0, t1, t0
        return tuple(tau)

    monkeypatch.setattr(cli, "antipodal_involution", exchanged)
    autgroup._analysis.cache_clear()
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    result = cli._verify_entry((petersen, cli.SUITES, True))
    assert not result["passed"]
    assert result["error"].startswith("OrbitPairNotMatching: orbits (0, 1) ")
    assert result["error"].endswith(" joined by 1 edges")
    assert result["error_context"] == {
        "suite": "cover-theorem", "last_check": "cover:dart_covers_line_graph"}


def test_verify_entry_bounds_only_proven_builds(monkeypatch):
    """Every chain is built under a proven order bound: Aut(g) under the
    product of the first path's target cell sizes, on that path as its
    base.  No chain is built for the lift, whose order lift_automorphisms
    proves, for <lift, tau>, whose order split_certificate proves, for
    the fibre action, which cover_pipeline proves faithful, or for the
    covering group <tau>."""
    builds = []
    fn = perms.schreier_sims

    bases = {}

    def recorded(generators, degree=None, order_bound=None, base=()):
        builds.append((degree, order_bound))
        bases[degree, order_bound] = base
        return fn(generators, degree=degree, order_bound=order_bound,
                  base=base)

    for layer in (altcycles, autgroup, cli, covers, dartgraph, perms):
        if getattr(layer, "schreier_sims", None) is fn:
            monkeypatch.setattr(layer, "schreier_sims", recorded)
    autgroup._analysis.cache_clear()
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    result = cli._verify_entry((petersen, cli.SUITES, True))
    assert result["passed"]
    # Aut(Petersen) on 10 points (the cell bound equals |G|)
    assert builds == [(10, 120)]
    # Aut(Petersen)'s chain starts from the search's first path
    assert bases[10, 120]


def test_cli_verify_deterministic_report(mini_census, tmp_path):
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        code = main(["verify", "dart-theorem", "--census", mini_census,
                     "--out", str(out)])
        assert code == 0
        outputs.append(json.dumps(
            _strip_timing(json.loads(out.read_text(encoding="utf-8"))),
            sort_keys=True))
    assert outputs[0] == outputs[1]


def test_cli_verify_parallel_jobs(mini_census, capsys):
    assert main(["verify", "divisibility", "--census", mini_census,
                 "--jobs", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_jobs_capped_at_entry_count(mini_census, tmp_path,
                                              serial_pool):
    """A fork-started pool launches all of its workers at once, so verify
    asks for at most one worker per entry, and for no pool when one
    worker would do.  A fake executor records max_workers and maps
    serially; the reports equal the --jobs 1 reports."""
    asked = serial_pool
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"entries": MINI["entries"][:1]}),
                      encoding="utf-8")
    reports = {}
    out = tmp_path / "report.json"
    for census, jobs in ((mini_census, "1"), (mini_census, "1000"),
                         (str(single), "1"), (str(single), "8")):
        assert main(["verify", "divisibility", "--census", census,
                     "--jobs", jobs, "--out", str(out)]) == 0
        reports[census, jobs] = _strip_timing(json.loads(
            out.read_text(encoding="utf-8")))
    assert asked == [2]
    assert reports[mini_census, "1000"] == reports[mini_census, "1"]
    assert reports[str(single), "8"] == reports[str(single), "1"]


def test_cli_verify_strict_mode(tmp_path, capsys):
    """Under --strict, div:open_questions is made only on entries whose
    analysed group is Aut(X): Holt's, with a = r and so no note, passes
    it, and K4's dart entry, whose dart reversal makes Aut(X)
    arc-transitive, has no such check."""
    census = {"entries": [e.to_json_dict() for e in builtin_entries()
                          if e.name in ("k4", "holt")]}
    path = tmp_path / "census.json"
    path.write_text(json.dumps(census), encoding="utf-8")
    assert main(["verify", "divisibility", "--census", str(path),
                 "--strict"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] holt: div:open_questions\n" in out
    assert "k4: div:open_questions" not in out
    assert "[PASS] k4: arc_transitive_if_a_twice_odd_not_dividing_r" in out


THEOREM = "arc_transitive_if_a_twice_odd_not_dividing_r"


def test_divisibility_full_group_check_reads_certified_orbits(monkeypatch):
    """The theorem check on a dart entry is proved by tau's image of a
    natural arc it reverses, and agrees with sweeping every arc
    under <lift, tau>: it passes with the antipodal involution (the dart
    reversal), and an identity tau, which keeps the natural orientation
    apart from its reverse, fails it with (r, a) as witness."""
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    labeling, lifted, dec, _ = cli._EntryAnalysis(petersen.graph()).forward
    natural = labeling.orientation
    for tau_of, passed in ((cli.antipodal_involution, True),
                           (lambda g, dec, group: identity(g.n), False)):
        monkeypatch.setattr(cli, "antipodal_involution", tau_of)
        tau = tau_of(labeling.graph, dec, lifted)
        result = cli._verify_entry((petersen, ("divisibility",), False))
        assert result["passed"] == passed and result["error"] is None
        check = next(c for c in result["checks"] if c["check"] == THEOREM)
        assert check["passed"] == passed
        if passed:
            prefix = "(r, a) = (3, 2), an automorphism maps arc "
            assert check["detail"].startswith(prefix)
            arc, image = check["detail"][len(prefix):].split(" to ")
            t, h = ast.literal_eval(arc)
            assert (t, h) in natural.arcs
            assert ast.literal_eval(image) == (tau[t], tau[h])
            assert tau[t] in natural.out_adj[tau[h]]
        else:
            assert check["detail"] == "(r, a) = (3, 2)"
            assert not any(tau[t] in natural.out_adj[tau[h]]
                           for t, h in natural.arcs)
        gens = list(lifted.generators) + [tau]
        swept = autgroup.arc_orbits(gens, labeling.graph)
        assert (len(swept) <= 1) == passed


@pytest.mark.parametrize("r, a, strict_passes", [
    (3, 1, True), (4, 2, True), (6, 3, True), (6, 4, False)])
def test_strict_fails_exactly_the_open_question_candidates(
        monkeypatch, r, a, strict_passes):
    """With Holt's alternating cycles replaced by a decomposition of the
    given (r, a), built by keyword, the divisibility suite passes
    --strict when a divides r, loosely attached (3, 1) and even a among
    them, and fails it on (6, 4), a not dividing r with 4 | a, naming
    the candidate; without --strict the candidate passes with its note
    as detail."""
    dec = altcycles.AltDecomposition(
        cycles=(), radius=r, attachment=a, ell=2 * r // a,
        cycles_at_vertex=())
    monkeypatch.setattr(cli._EntryAnalysis, "half_arc_cycles", dec)
    holt = next(e for e in builtin_entries() if e.name == "holt")
    for strict in (True, False):
        result = cli._verify_entry((holt, ("divisibility",), strict))
        assert result["error"] is None
        assert result["passed"] == (strict_passes or not strict)
        names = [c["check"] for c in result["checks"]][-3:]
        assert names == ["a_divides_2r", THEOREM, "div:open_questions"]
        detail = result["checks"][-1]["detail"]
        assert (f"(r, a) = ({r}, {a})" in detail) == (not strict_passes)


@pytest.mark.parametrize("copies", ["k4", "holt"])
def test_verify_skips_disconnected_inputs(tmp_path, capsys, copies):
    """Two disjoint copies of K4, or of the Holt graph (whose Aut is
    half-arc-transitive), verify with exit 0: every suite prints its
    applicability skip line, and analyze reports no alternating
    structure, as for any disconnected graph."""
    g = next(e for e in builtin_entries() if e.name == copies).graph()
    twice = graphs.from_edge_list(
        2 * g.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges])
    path = tmp_path / "twice.g6"
    path.write_text(write_graph6(twice) + "\n", encoding="ascii")
    assert main(["verify", "all", "--census", str(path)]) == 0
    out = capsys.readouterr().out
    for check in ("dart:applicable", "cover:applicable", "div:applicable"):
        assert f"[PASS] line1: {check}  (skipped: " in out
    record = analyze_graph("twice", twice)
    assert record["connected"] is False and record["alternating"] is None


def test_engine_error_names_suite_and_last_check(monkeypatch, tmp_path,
                                                 capsys):
    """An engine error records the suite it happened in and the last check
    recorded before it, in the JSON report and on the FAIL line; the
    entries without an error carry no such record."""
    real = cli.cover_pipeline

    def broken_for_petersen(total, dec, group, tau):
        if total.n == 30:  # Dart(Petersen)
            raise RuntimeError("injected for petersen")
        return real(total, dec, group, tau)

    monkeypatch.setattr(cli, "cover_pipeline", broken_for_petersen)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "builtin",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert ("[FAIL] petersen: error: engine error: RuntimeError: injected "
            "for petersen (in suite cover-theorem, after check "
            "cover:dart_covers_line_graph)") in printed
    by_name = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    assert by_name["petersen"]["error_context"] == {
        "suite": "cover-theorem",
        "last_check": "cover:dart_covers_line_graph"}
    assert all("error_context" not in e
               for name, e in by_name.items() if name != "petersen")


def test_engine_error_before_any_check(monkeypatch):
    """An engine error in the automorphism search of an entry with an
    expected block happens in the "expected" stage, before any check."""
    def broken(g):
        raise KeyError("injected")

    monkeypatch.setattr(cli, "automorphism_group", broken)
    k4 = next(e for e in load_census("builtin") if e.name == "k4")
    result = cli._verify_entry((k4, cli.SUITES, False))
    assert result["error"] == "engine error: KeyError: 'injected'"
    assert result["error_context"] == {"suite": "expected",
                                       "last_check": None}


@pytest.mark.parametrize("error,text", [
    (RuntimeError, "engine error: RuntimeError"),
    (MemoryError, "engine error: MemoryError"),
    (WrongParameters, "WrongParameters"),
    (RuntimeError("injected"), "engine error: RuntimeError: injected"),
    (WrongParameters("injected"), "WrongParameters: injected"),
])
def test_entry_error_without_message_has_no_trailing_colon(monkeypatch,
                                                           error, text):
    """An error raised without a message, an engine error or a typed one,
    is recorded as its type name alone; one with a message keeps
    "type: message"."""
    def broken(g):
        raise error

    monkeypatch.setattr(cli, "automorphism_group", broken)
    k4 = next(e for e in load_census("builtin") if e.name == "k4")
    assert cli._verify_entry((k4, cli.SUITES, False))["error"] == text


def test_memory_error_fails_only_its_entry(monkeypatch, tmp_path, capsys):
    """A MemoryError fails its entry as an engine error with no traceback:
    importing traceback while the failed frames still hold their memory
    can raise a second MemoryError, which would end the run.  Here the
    first suite call raises one and so does that import; the entries
    after it are still verified and the report is written."""
    real = cli._SUITE_RUNNERS["dart-theorem"]
    calls = []

    def exhausted(analysis, checks, strict):
        calls.append(analysis.g)
        if len(calls) == 1:
            raise MemoryError
        return real(analysis, checks, strict)

    real_import = builtins.__import__

    def no_memory_for_traceback(name, *args, **kwargs):
        if name == "traceback":
            raise MemoryError
        return real_import(name, *args, **kwargs)

    out = tmp_path / "report.json"
    first = load_census("builtin")[0].name
    with monkeypatch.context() as patch:
        patch.setitem(cli._SUITE_RUNNERS, "dart-theorem", exhausted)
        patch.setattr(builtins, "__import__", no_memory_for_traceback)
        code = main(["verify", "all", "--census", "builtin",
                     "--out", str(out)])
    printed = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in printed.err
    assert f"[FAIL] {first}: error: engine error: MemoryError" in printed.out
    report = json.loads(out.read_text())
    assert report["failures"] == [first]
    failed = report["entries"][[e["name"] for e in report["entries"]].index(
        first)]
    assert failed["error"].startswith("engine error: MemoryError")
    assert failed["error_context"]["suite"] == "dart-theorem"
    assert len(calls) == len(report["entries"]) == len(builtin_entries())


def test_dart_covers_line_graph_failure_has_witness(monkeypatch):
    """cover:dart_covers_line_graph records covering_fault's witness when
    the dart graph does not cover the line graph it is given."""
    real = cli.line_graph

    def first_edge_dropped(g):
        line, edges = real(g)
        return graphs.from_edge_list(line.n, line.edges[1:]), edges

    monkeypatch.setattr(cli, "line_graph", first_edge_dropped)
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    result = cli._verify_entry((petersen, ("cover-theorem",), False))
    assert not result["passed"] and result["error"] is None
    assert [c for c in result["checks"] if not c["passed"]] == [{
        "check": "cover:dart_covers_line_graph", "passed": False,
        "detail": "the neighbours of vertex 0 map to [1, 2, 3, 4], not "
                  "onto the neighbours [2, 3, 4] of its image 0"}]


def test_verify_reports_orbit_outside_cell(monkeypatch, tmp_path, capsys):
    """A basic orbit of Aut(g) that leaves its recorded target cell fails
    that entry with the named check and its witness, exit code 1, and
    every other entry is still verified."""
    petersen = next(e for e in builtin_entries()
                    if e.name == "petersen").graph()
    real = autgroup._analysis

    def trimmed(g):
        result = real(g)
        if g != petersen:
            return result
        result = copy.copy(result)
        cells = result.first_cells
        result.first_cells = (cells[0][:-1],) + cells[1:]
        return result

    monkeypatch.setattr(autgroup, "_analysis", trimmed)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "builtin",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert ("[FAIL] petersen: aut_orbit_in_first_cell  (level 0 orbit of 0 "
            "reaches 9, outside its target cell)") in printed
    by_name = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    assert by_name["petersen"]["checks"] == [{
        "check": "aut_orbit_in_first_cell", "passed": False,
        "detail": "level 0 orbit of 0 reaches 9, outside its target cell"}]
    assert by_name["petersen"]["error"] is None
    assert "error_context" not in by_name["petersen"]
    assert all(e["passed"] for name, e in by_name.items()
               if name != "petersen")


def _faulty_alternating_cycles(d):
    """Dart(Petersen)'s alternating cycles reported with radius 4."""
    dec = altcycles.alternating_cycles(d)
    return replace(dec, radius=4) if d.graph.n == 30 else dec


def _psi_heads_reversed(d, dec, _psi=cli.psi_isomorphism):
    """psi_isomorphism given, for Dart(Petersen), an orientation whose
    out_adj is d.reverse()'s (conftest.ForgedOrientation): psi's
    images are d's, and every natural arc of the dart graph of the
    reconstruction maps against the heads it is checked on."""
    if d.graph.n == 30:
        d = ForgedOrientation(d, out_adj=d.reverse().out_adj)
    return _psi(d, dec)


def _girth_plus_one(g):
    return graphs.girth(g) + 1


@pytest.mark.parametrize("module, name, fault, entries, check, detail", [
    (dartgraph, "alternating_cycles", _faulty_alternating_cycles,
     {"petersen"}, "dart_radius_3", "(radius, attachment) = (4, 2)"),
    (cli, "psi_isomorphism", _psi_heads_reversed,
     {"petersen"}, "psi_orientation_compatible",
     "natural arc (0, 4) maps against d"),
    (covers, "girth", _girth_plus_one, set(REQUIRED_CUBIC) - {"k4"},
     "base_girth_3", "the base has girth 4"),
], ids=["dart_radius_3", "psi_orientation_compatible", "base_girth_3"])
def test_verify_reports_failed_engine_check(monkeypatch, tmp_path, capsys,
                                            module, name, fault, entries,
                                            check, detail):
    """A theorem check that fails inside a suite ends its entry with that
    check, failed, with the engine's witness as detail: no error and no
    error context, exit code 1, and the checks before it still listed."""
    monkeypatch.setattr(module, name, fault)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "builtin", "--strict",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert set(report["failures"]) == entries
    for entry in report["entries"]:
        if entry["name"] not in entries:
            assert entry["passed"]
            continue
        assert entry["checks"][-1] == {
            "check": check, "passed": False, "detail": detail}
        assert all(c["passed"] for c in entry["checks"][:-1])
        assert entry["error"] is None and "error_context" not in entry
        assert f"[FAIL] {entry['name']}: {check}  ({detail})" in printed


def test_failed_engine_check_reported_under_optimize(tmp_path):
    """The named FAIL of a cover check reaches the report under python -O
    too, with exit code 1 and no error."""
    out = tmp_path / "report.json"
    code = (
        "import contextlib, io, json, sys\n"
        "from hatkit import cli, covers\n"
        "real = covers.girth\n"
        "covers.girth = lambda g: real(g) + 1\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'all', '--census', 'builtin',\n"
        f"                     '--out', {str(out)!r}])\n"
        f"entries = json.load(open({str(out)!r}))['entries']\n"
        "petersen = next(e for e in entries if e['name'] == 'petersen')\n"
        "failed = petersen['checks'][-1]\n"
        "print(sys.flags.optimize, code, failed['check'], failed['passed'],\n"
        "      petersen['error'], repr(failed['detail']))\n"
    )
    assert run_optimized(code) == [
        "1", "1", "base_girth_3", "False", "None", "'the", "base", "has",
        "girth", "4'"]


# The dart and cover checks of a 2-arc-transitive cubic entry, in report
# order: each engine check under its engine name, between the checks
# only the suites make.
_DART_CHECKS = [
    "dart_half_arc_transitive", "natural_orientation_induced",
    "dart_radius_3", "dart_attachment_2", "alt_reconstructs_base",
    "psi_unique_head", "psi_bijective", "psi_preserves_adjacency",
    "psi_orientation_compatible", "cover:dart_covers_line_graph"]
_COVER_CHECKS = [
    "cover:split", "sectional_iff_bipartite", "fibre_action_kernel_tau",
    "projected_arc_transitive", "base_girth_3", "base_is_line_graph"]
_CUBIC_EXPECTED = [
    "expected:aut_order", "expected:bipartite", "expected:girth",
    "expected:two_arc_transitive", "expected:valence", "expected:vertices",
    "expected:orbit_sizes_divide_order"]
_DIV_DART = ["a_divides_2r", "arc_transitive_if_a_twice_odd_not_dividing_r"]


def test_builtin_report_check_names_pinned(tmp_path, capsys):
    """The check names of every builtin entry in the strict report, in
    order, all passed."""
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--census", "builtin", "--strict",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    entries = json.loads(out.read_text())["entries"]
    assert all(c["passed"] for e in entries for c in e["checks"])
    names = {e["name"]: [c["check"] for c in e["checks"]] for e in entries}
    cubic = _CUBIC_EXPECTED + _DART_CHECKS + _COVER_CHECKS + _DIV_DART
    assert names == {
        **{name: cubic for name in REQUIRED_CUBIC if name != "k4"},
        "k4": _CUBIC_EXPECTED + _DART_CHECKS + ["cover:order_guard"]
        + _DIV_DART,
        "holt": [
            "expected:aut_order", "expected:bipartite",
            "expected:half_arc_transitive", "expected:valence",
            "expected:vertices", "expected:orbit_sizes_divide_order",
            "dart:applicable", "cover:applicable", "a_divides_2r",
            "arc_transitive_if_a_twice_odd_not_dividing_r",
            "div:open_questions"],
    }


def test_girth_searched_once_from_orbit_roots(monkeypatch):
    """An entry derives only the expected keys it declares, and girth,
    once declared, is searched from one root per Aut(g) orbit, as it is
    for analyze's record: from vertex 0 alone on a vertex-transitive
    graph."""
    calls = []
    real = cli.girth

    def recorded(g, roots=None):
        calls.append(roots)
        return real(g, roots=roots)

    monkeypatch.setattr(cli, "girth", recorded)
    k4 = next(e for e in load_census("builtin") if e.name == "k4")
    analysis = cli._EntryAnalysis(k4.graph())
    checks = []
    cli._expected_checks(analysis, {"vertices": 4}, checks)
    assert calls == [] and checks[0]["passed"]
    cli._expected_checks(analysis, {"girth": 3}, checks)
    assert calls == [[0]] and checks[-2]["check"] == "expected:girth"
    assert checks[-2]["passed"]
    holt = next(e for e in load_census("builtin") if e.name == "holt")
    record = analyze_graph("holt", holt.graph())
    assert calls[-1] == [0] and record["girth"] == 5
