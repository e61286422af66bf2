"""The CLI's error contract over inputs drawn from fixed seeds.

Each seed draws valid graph6 of order 0 to 14 (the order-0 graph `?`
first; then graphs of random density, random cubic and tetravalent
graphs, and relabeled builtin graphs of order at most 14, which reach
the dart and cover stages), corrupted graph6 bytes, with and without a
`>>graph6<<` header, and census JSON of wrong shapes or with wrong
expected values.  Each input runs in process through
`verify all`, `analyze` and `dart`, and every run keeps the contract:

- the exit code is 0, 1 or 2, and no exception leaves main;
- exit 2 prints one `error:` line on stderr and no traceback;
- exit 0 or 1 prints no traceback, and no report entry's error is an
  engine error.
"""

import json
import random
from itertools import combinations

import pytest

from hatkit.census import builtin_entries
from hatkit.cli import main
from hatkit.graph6 import write_graph6
from hatkit.graphs import from_edge_list, relabel

from conftest import random_regular

SEEDS = (1, 2, 3, 4)
HEADER = b">>graph6<<"


def random_graph6(rng, n):
    """graph6 of a graph on n vertices, each pair an edge with one
    probability drawn per graph."""
    p = rng.random()
    return write_graph6(from_edge_list(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]))


def valid_graph6(rng):
    """graph6 texts of order 0 to 14, the order-0 graph first."""
    small = [e.graph() for e in builtin_entries() if e.graph().n <= 14]
    yield "?"
    for _ in range(5):
        yield random_graph6(rng, rng.randrange(15))
    for n, k in ((rng.choice(range(4, 15, 2)), 3), (rng.randrange(5, 15), 4)):
        yield write_graph6(random_regular(rng, n, k))
    for g in rng.sample(small, 3):
        yield write_graph6(relabel(g, rng.sample(range(g.n), g.n)))


def corrupt(rng, data):
    """data with one or two bytes overwritten, inserted or deleted (odds
    2:1:1), a new byte being graph6's 63..126 or any byte with equal odds."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(data) + 1)
        op = rng.choice((0, 1, 2, 2)) if data else 1
        byte = rng.randrange(63, 127) if rng.random() < 0.5 else rng.randrange(256)
        if op == 1:
            data.insert(i, byte)
        elif op == 0:
            del data[min(i, len(data) - 1)]
        else:
            data[min(i, len(data) - 1)] = byte
    return bytes(data)


def wrong_census(rng):
    """The bytes of a census JSON document, or of its text cut short, of
    some wrong shape or with a wrong expected block; an entry it holds is
    named "g"."""
    entry = {"name": "g", "graph6": random_graph6(rng, rng.randint(0, 8))}
    broken = dict(entry)
    key = rng.choice(["name", "graph6", "expected", "extra"])
    broken[key] = rng.choice(
        [None, 1, [], "", "C", "é", {"valence": "3"}, {"nope": 1}])
    document = rng.choice([
        [], {}, 1, "x", None, {"entries": None}, {"entries": 1},
        {"entries": [1]}, {"entries": {"g": entry}}, {"entries": []},
        {"entries": [broken]}, {"entries": [entry, broken]},
        {"entries": [entry, dict(entry)]},
        {"entries": [dict(entry, expected=rng.choice(
            [[1], "x", {"girth": None}, {"valence": 3}, {"nope": 1},
             {"aut_order": "1"}, {"vertices": -1}]))]},
    ])
    text = json.dumps(document)
    if rng.random() < 0.2:
        text = text[:rng.randrange(len(text) + 1)]
    return text.encode("utf-8")


def cases(seed):
    """(label, file name, bytes, entry) for one seed: the file is a
    graph6 file when entry is None, else a census read for that entry."""
    rng = random.Random(seed)
    graph6 = list(valid_graph6(rng))
    for i, text in enumerate(graph6):
        yield f"valid {text!r}", f"valid{i}.g6", text.encode() + b"\n", None
    for i in range(12):
        data = rng.choice(graph6).encode() + b"\n"
        if rng.random() < 0.3:
            data = HEADER + data
        data = corrupt(rng, data)
        yield f"corrupted {data!r}", f"bad{i}.g6", data, None
    for i in range(12):
        data = wrong_census(rng)
        yield f"census {data!r}", f"census{i}.json", data, "g"


def run(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_keeps_error_contract(seed, tmp_path, monkeypatch, capsys):
    # an entry name that is no census entry is read as a file path
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    for label, name, data, entry in cases(seed):
        (tmp_path / name).write_bytes(data)
        source, census = (name, "builtin") if entry is None else (entry, name)
        runs = [["verify", "all", "--census", name],
                ["analyze", source, "--census", census],
                ["dart", source, "--census", census]]
        for argv in runs:
            report.unlink(missing_ok=True)
            if run(capsys, argv + ["--out", str(report)]) != 2:
                entries = json.loads(report.read_text())["entries"]
                errors = [e.get("error") or "" for e in entries]
                assert not any(e.startswith("engine error") for e in errors), (
                    label, argv, errors)


def test_order_zero_is_drawn_first():
    """Every seed draws the order-0 graph, the one input whose dart run
    once ended in a traceback."""
    for seed in SEEDS:
        label, _, data, _ = next(cases(seed))
        assert data == b"?\n", label
