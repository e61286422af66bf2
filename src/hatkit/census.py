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
from itertools import combinations

from .errors import MalformedCensus, MalformedGraph6, WrongParameters
from .graphs import Graph, from_edge_list
from .graph6 import _GRAPH6, load_graph6_file, parse_graph6, write_graph6
from .records import Record


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


class CensusEntry(Record):
    """A named graph with its optional expected properties.  The graph6
    string is parsed once, when the entry is made (MalformedGraph6 unless
    it is graph6), unless the parsed graph is given.  The parsed graph is
    no field: it is left out of ==, the repr and the JSON form."""

    name: str
    graph6: str
    expected: dict | None

    def __init__(self, name, graph6, expected=None, parsed=None):
        super().__init__(name=name, graph6=graph6, expected=expected)
        self.parsed = parse_graph6(graph6) if parsed is None else parsed

    def graph(self) -> Graph:
        return self.parsed


def pgl2_graph(p) -> Graph:
    """The cubic graph of PGL(2, p) for a prime p = 3 (mod 4): the
    3-subsets of the projective line PG(1, p), {a, b, c} adjacent to
    {a, b, c'} for c' the harmonic conjugate of c with respect to a and
    b.  With [x, y] the 2x2 determinant, c' = [a, c] b + [b, c] a solves
    [a, c][b, c'] + [a, c'][b, c] = 0.  PGL(2, p) is sharply 3-transitive
    on the line and keeps harmonic conjugates, so it acts regularly on
    the 2-arcs of this graph of order p(p^2 - 1)/6: a 2-arc through
    {a, b, c} is an ordering of a, b and c.  p = 7 gives the Klein cubic
    graph; p = 5, 13, 17 and 29 give disconnected graphs.  Point x < p
    is (x, 1), point p is (1, 0)."""
    if p < 3 or p % 4 != 3 or any(p % d == 0 for d in range(3, p, 2)):
        raise WrongParameters(f"p = {p} is not a prime = 3 (mod 4)")
    points = [(x, 1) for x in range(p)] + [(1, 0)]

    def det(u, v):
        return (u[0] * v[1] - u[1] * v[0]) % p

    triples = list(combinations(range(p + 1), 3))
    vertex = {t: i for i, t in enumerate(triples)}
    edges = set()
    for t in triples:
        for c in t:
            a, b = (points[x] for x in t if x != c)
            ac, bc = det(a, points[c]), det(b, points[c])
            x, y = ac * b[0] + bc * a[0], ac * b[1] + bc * a[1]
            conj = x * pow(y, -1, p) % p if y % p else p
            u, v = vertex[t], vertex[tuple(sorted({*t} - {c} | {conj}))]
            edges.add((min(u, v), max(u, v)))
    return from_edge_list(len(triples), sorted(edges))


def pgl2_entry(p) -> CensusEntry:
    """Census entry pgl2_<p> of pgl2_graph(p).  Its expected block is
    derived from p, not from the graph: p(p^2 - 1)/6 vertices, valence 3,
    2-arc-transitive, and Aut = PGL(2, p) of order p(p^2 - 1)."""
    g = pgl2_graph(p)
    order = p * (p * p - 1)
    return CensusEntry(
        name=f"pgl2_{p}", graph6=write_graph6(g), parsed=g,
        expected={"vertices": order // 6, "valence": 3, "aut_order": order,
                  "two_arc_transitive": True})


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
    graph6 string and an optional expected object."""
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
        try:
            entries.append(CensusEntry(name=item["name"],
                                       graph6=item["graph6"],
                                       expected=item.get("expected")))
        except MalformedGraph6 as exc:
            raise MalformedCensus(
                f"{source}: entry {i} ({item['name']!r}): {exc}") from exc
    return entries


def builtin_entries():
    """The committed census data file, parsed."""
    # imported here, so that only the builtin census pays for the import
    from importlib.resources import files
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
    # "[" and "{" are graph6's size bytes for n = 28 and 60: the file is
    # JSON only when a line, past a graph6 header, holds a byte outside
    # graph6's 63..126, as the quotes, colons and commas of JSON are
    if data.lstrip()[:1] in (b"{", b"[") and b"".join(
            line.strip().removeprefix(b">>graph6<<")
            for line in data.splitlines()).translate(None, _GRAPH6):
        return _json_entries(source, data)
    return [CensusEntry(name=f"line{lineno}", graph6=write_graph6(g), parsed=g)
            for lineno, g in load_graph6_file(source)]
