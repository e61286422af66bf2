import hashlib
import json
from collections import Counter

import pytest

from hatkit.census import (
    builtin_entries,
    build_builtin_entries,
    census_json_text,
    load_census,
)
from hatkit import altcycles, autgroup, cli, covers, dartgraph, perms
from hatkit.cli import main, analyze_graph
from hatkit.graphs import is_connected, is_regular
from hatkit.graph6 import parse_graph6
from hatkit.autgroup import automorphism_group


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
        assert is_regular(g, entry.expected["valence"])
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


def test_analyze_graph_holt(holt):
    record = analyze_graph("holt", holt)
    assert record["aut_order"] == "54"
    assert record["transitivity"]["half_arc_transitive"]
    alt = record["alternating"]
    assert alt["radius"] == 9 and alt["attachment"] == 9
    assert alt["divisibility"]["odd_radius_rule_applicable"]
    assert alt["divisibility"]["odd_radius_rule_satisfied"]
    assert alt["alt_action_arc_transitive"] is False
    assert alt["open_question_notes"] == []


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


def test_cli_dart_k4(capsys, tmp_path):
    out = tmp_path / "dart.json"
    assert main(["dart", "k4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    g = parse_graph6(printed[0])
    assert g.n == 12 and is_regular(g, 4)
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
    assert "[PASS] line1: div:a_divides_2r" in out


def test_cli_dart_petersen(capsys):
    assert main(["dart", "petersen"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert parse_graph6(printed[0]).n == 30


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
    "1f0a23732f2efaab906bad295568a75a56cd0af52675e53639a1deb03919dcee")


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


def test_verify_entry_builds_each_artefact_once(monkeypatch):
    """One analysis per entry: the dart chain, its induced orientation and
    its alternating cycles are built once for all three suites (psi builds
    the second dart graph, of the reconstruction), and the dart and cover
    identifications are certified by the maps their constructions define,
    without an isomorphism search."""
    calls = Counter()
    layers = (altcycles, autgroup, cli, covers, dartgraph, perms)
    for module, name in ((dartgraph, "dart_graph"),
                         (dartgraph, "lift_automorphisms"),
                         (perms, "schreier_sims"),
                         (autgroup, "transitivity_report"),
                         (autgroup, "is_isomorphic"),
                         (altcycles, "induced_orientation"),
                         (altcycles, "alternating_cycles")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for layer in layers:
            if getattr(layer, name, None) is fn:
                monkeypatch.setattr(layer, name, counted)
    autgroup._analysis.cache_clear()
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    result = cli._verify_entry((petersen.to_json_dict(), cli.SUITES, True))
    assert result["passed"]
    assert calls["dart_graph"] <= 2
    assert calls["lift_automorphisms"] == 1
    assert calls["schreier_sims"] <= 4
    assert calls["transitivity_report"] <= 4
    assert calls["is_isomorphic"] == 0
    assert calls["induced_orientation"] == 1
    assert calls["alternating_cycles"] == 1


def test_verify_entry_bounds_only_proven_builds(monkeypatch):
    """Exactly the lift, <lift, tau> and the fibre action are built under
    an order bound; Aut(g) is not, and no chain is built for the covering
    group <tau>."""
    builds = []
    fn = perms.schreier_sims

    def recorded(generators, degree=None, order_bound=None):
        builds.append((degree, order_bound))
        return fn(generators, degree=degree, order_bound=order_bound)

    for layer in (altcycles, autgroup, cli, covers, dartgraph, perms):
        if getattr(layer, "schreier_sims", None) is fn:
            monkeypatch.setattr(layer, "schreier_sims", recorded)
    autgroup._analysis.cache_clear()
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    result = cli._verify_entry((petersen.to_json_dict(), cli.SUITES, True))
    assert result["passed"]
    # Aut(Petersen) on 10 points, the lift (|G|), <lift, tau> (2|G|) and
    # the action on the 15 fibres (|G|)
    assert Counter(builds) == Counter(
        [(10, None), (30, 120), (30, 240), (15, 120)])


def test_cli_verify_deterministic_report(mini_census, capsys):
    outputs = []
    for _ in range(2):
        code = main(["verify", "dart-theorem", "--census", mini_census,
                     "--json"])
        assert code == 0
        text = capsys.readouterr().out
        json_start = text.index("{")
        json_end = text.rindex("}") + 1
        outputs.append(json.dumps(
            _strip_timing(json.loads(text[json_start:json_end])),
            sort_keys=True))
    assert outputs[0] == outputs[1]


def test_cli_verify_parallel_jobs(mini_census, capsys):
    assert main(["verify", "divisibility", "--census", mini_census,
                 "--jobs", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_strict_mode(mini_census, capsys):
    assert main(["verify", "divisibility", "--census", mini_census,
                 "--strict"]) == 0
    out = capsys.readouterr().out
    assert "div:open_questions" in out
