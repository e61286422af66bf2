"""Bundled census of small named graphs and constructions for them.

The cubic entries are the classical small arc-transitive cubic graphs
(built from generalized Petersen parameters, LCF codes, or the Kneser
triple-system description of the Coxeter graph); the tetravalent control
is the order-27 half-arc-transitive graph on Z9 x Z3.  Every expected
property stored alongside an entry is re-derived by the verification
suites, never trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files
from itertools import combinations

from .errors import MalformedCensus
from .graphs import Graph, from_edge_list
from .graph6 import load_graph6_file, parse_graph6, write_graph6
from .records import JsonRecord


def complete_graph(n) -> Graph:
    return from_edge_list(n, combinations(range(n), 2))


def complete_bipartite(a, b) -> Graph:
    return from_edge_list(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def generalized_petersen(n, k) -> Graph:
    """Outer cycle 0..n-1, inner vertices n..2n-1 with chords of step k."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return from_edge_list(2 * n, edges)


def lcf_graph(shifts, repeats) -> Graph:
    """Cubic graph from an LCF code: a Hamiltonian cycle plus the chord
    i -> i + shifts[i mod len(shifts)]."""
    n = len(shifts) * repeats
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((min(i, j), max(i, j)))
    return from_edge_list(n, sorted(
        (min(a, b), max(a, b)) for a, b in edges))


def coxeter_graph() -> Graph:
    """Triples from a 7-point set that are not lines of the Fano plane
    (lines {i, i+1, i+3} mod 7), adjacent when disjoint."""
    lines = {frozenset(((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    triples = [t for t in combinations(range(7), 3)
               if frozenset(t) not in lines]
    edges = []
    for a, b in combinations(range(len(triples)), 2):
        if not set(triples[a]) & set(triples[b]):
            edges.append((a, b))
    return from_edge_list(len(triples), edges)


def holt_graph() -> Graph:
    """The order-27 tetravalent graph on Z9 x Z3 with (x, y) adjacent to
    (x +- 4**y, y + 1); its full automorphism group is half-arc-transitive."""
    def idx(x, y):
        return 9 * (y % 3) + (x % 9)

    edges = set()
    for x in range(9):
        for y in range(3):
            step = pow(4, y, 9)
            for x2 in (x + step, x - step):
                a, b = idx(x, y), idx(x2, y + 1)
                edges.add((min(a, b), max(a, b)))
    return from_edge_list(27, sorted(edges))


@dataclass
class CensusEntry(JsonRecord):
    name: str
    graph6: str
    expected: dict | None = None

    def graph(self) -> Graph:
        return parse_graph6(self.graph6)


def build_builtin_entries():
    """Reconstruct the bundled census from the named constructions."""
    cubic = [
        ("k4", complete_graph(4),
         {"girth": 3, "bipartite": False, "aut_order": 24}),
        ("k33", complete_bipartite(3, 3),
         {"girth": 4, "bipartite": True, "aut_order": 72}),
        ("cube", generalized_petersen(4, 1),
         {"girth": 4, "bipartite": True, "aut_order": 48}),
        ("petersen", generalized_petersen(5, 2),
         {"girth": 5, "bipartite": False, "aut_order": 120}),
        ("heawood", lcf_graph([5, -5], 7),
         {"girth": 6, "bipartite": True, "aut_order": 336}),
        ("mobius_kantor", generalized_petersen(8, 3),
         {"girth": 6, "bipartite": True, "aut_order": 96}),
        ("pappus", lcf_graph([5, 7, -7, 7, -7, -5], 3),
         {"girth": 6, "bipartite": True, "aut_order": 216}),
        ("desargues", generalized_petersen(10, 3),
         {"girth": 6, "bipartite": True, "aut_order": 240}),
        ("dodecahedron", generalized_petersen(10, 2),
         {"girth": 5, "bipartite": False, "aut_order": 120}),
        ("nauru", generalized_petersen(12, 5),
         {"girth": 6, "bipartite": True, "aut_order": 144}),
        ("coxeter", coxeter_graph(),
         {"girth": 7, "bipartite": False, "aut_order": 336}),
    ]
    entries = []
    for name, g, extra in cubic:
        expected = {"vertices": g.n, "valence": 3,
                    "two_arc_transitive": True}
        expected.update(extra)
        entries.append(CensusEntry(name=name, graph6=write_graph6(g),
                                   expected=expected))
    holt = holt_graph()
    entries.append(CensusEntry(
        name="holt", graph6=write_graph6(holt),
        expected={"vertices": 27, "valence": 4, "bipartite": False,
                  "aut_order": 54, "half_arc_transitive": True}))
    return entries


def _json_entries(source, data):
    """Entries of a census JSON document: an object whose "entries" is a
    list, or the list itself, of objects with distinct string names, a
    string graph6 and an optional expected object."""
    try:
        data = json.loads(data)
    except ValueError as exc:       # also a bad UTF-8 byte
        raise MalformedCensus(f"{source}: {exc}") from exc
    items = data.get("entries") if isinstance(data, dict) else data
    if not isinstance(items, list):
        raise MalformedCensus(f"{source}: 'entries' is not a list")
    entries = []
    first_index = {}
    for i, item in enumerate(items):
        if not (isinstance(item, dict)
                and isinstance(item.get("name"), str)
                and isinstance(item.get("graph6"), str)
                and isinstance(item.get("expected"), (dict, type(None)))):
            raise MalformedCensus(
                f"{source}: entry {i} is not an object with string 'name' "
                "and 'graph6' and an optional 'expected' object")
        j = first_index.setdefault(item["name"], i)
        if j != i:
            raise MalformedCensus(
                f"{source}: entries {j} and {i} are both named "
                f"{item['name']!r}")
        entries.append(CensusEntry(name=item["name"], graph6=item["graph6"],
                                   expected=item.get("expected")))
    return entries


def builtin_entries():
    """The committed census data file, parsed."""
    path = files("hatkit").joinpath("data/census.json")
    return _json_entries(str(path), path.read_bytes())


def census_json_text():
    """Serialized form of the regenerated census (committed verbatim)."""
    data = {"entries": [e.to_json_dict() for e in build_builtin_entries()]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_census(source) -> list:
    """Entries from 'builtin', a census JSON file, or a graph6 line file."""
    if source == "builtin":
        return builtin_entries()
    with open(source, "rb") as fh:
        data = fh.read()
    if data.lstrip()[:1] in (b"{", b"["):
        return _json_entries(source, data)
    return [CensusEntry(name=f"line{lineno}", graph6=write_graph6(g))
            for lineno, g in load_graph6_file(source)]
