"""Benchmark inputs: the stress census, the relabeled analyze file, and the
expected values every output is checked against.

Expected values come from the tables below (literature values for the
Foster census of cubic symmetric graphs, Conder & Dobcsanyi 2002) and from
the `expected` block of hatkit's bundled census data; hatkit's own output is
never the reference.  `self_test` checks the tables against the
constructions with the benchmark's own graph code.
"""

from __future__ import annotations

import json
from collections import deque

from hatkit.census import (
    builtin_entries,
    coxeter_graph,
    generalized_petersen,
    lcf_graph,
)
from hatkit.graph6 import write_graph6
from hatkit.graphs import bipartite_double, from_edge_list, relabel

# name -> (construction, vertices, girth, bipartite, |Aut|, 2-arc-transitive);
# every graph is cubic and arc-transitive.  F026 is the negative control.
STRESS_TABLE = {
    "f026": (lambda: lcf_graph([-7, 7], 13), 26, 6, True, 78, False),
    "dyck": (lambda: lcf_graph([5, -5, 13, -13], 8), 32, 6, True, 192, True),
    "tutte8cage": (lambda: lcf_graph([-13, -9, 7, -7, 9, 13], 5),
                   30, 8, True, 1440, True),
    "gp24_5": (lambda: generalized_petersen(24, 5), 48, 8, True, 288, True),
    "dodecahedron_double": (
        lambda: bipartite_double(generalized_petersen(10, 2)),
        40, 8, True, 480, True),
    "coxeter_double": (lambda: bipartite_double(coxeter_graph()),
                       56, 8, True, 672, True),
    "foster": (lambda: lcf_graph([17, -9, 37, -37, 9, -17], 15),
               90, 10, True, 4320, True),
}

# Graphs of STRESS_TABLE that analyze-relabeled adds to the builtin census.
ANALYZE_EXTRA = ("dyck", "coxeter_double", "foster")
ANALYZE_RELABELINGS = 2         # random relabelings of each named graph
ANALYZE_RANDOM = {3: 4, 4: 4}   # valence -> random connected graphs
RANDOM_ORDER = (110, 130)       # vertex-count range of the random graphs


def stress_expected(name):
    """The census `expected` block of a stress graph, from STRESS_TABLE."""
    _, n, girth, bipartite, order, two_arc = STRESS_TABLE[name]
    return {"vertices": n, "valence": 3, "bipartite": bipartite,
            "girth": girth, "aut_order": order,
            "two_arc_transitive": two_arc}


def _bfs_girth(adj):
    best = None
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def _two_colourable(adj):
    colour = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in colour:
                colour[w] = 1 - colour[u]
                queue.append(w)
            elif colour[w] == colour[u]:
                return False
    return len(colour) == len(adj)


def self_test():
    """Check STRESS_TABLE against the constructions; raise on a mismatch.

    Vertex count, valence, girth and bipartiteness are recomputed here.  The
    group orders are checked against Tutte's theorem: a cubic arc-transitive
    graph whose group is regular on s-arcs (s <= 5) has |Aut| = 3 n 2^(s-1),
    so it is 2-arc-transitive exactly when s >= 2.
    """
    for name, (build, n, girth, bipartite, order, two_arc) in (
            STRESS_TABLE.items()):
        adj = build().adj
        derived = (len(adj), {len(row) for row in adj}, _bfs_girth(adj),
                   _two_colourable(adj))
        if derived != (n, {3}, girth, bipartite):
            raise AssertionError(f"stress table row {name}: table says "
                                 f"{(n, {3}, girth, bipartite)}, construction "
                                 f"gives {derived}")
        if order not in {3 * n << k for k in range(5)}:
            raise AssertionError(f"stress table row {name}: |Aut| = {order} "
                                 f"is not 3 n 2^(s-1) for n = {n}")
        if two_arc != (order >= 6 * n):
            raise AssertionError(f"stress table row {name}: 2-arc-transitive "
                                 f"= {two_arc} contradicts |Aut| = {order}")


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_regular(n, valence, rng):
    """Uniform simple connected `valence`-regular graph on n vertices
    (configuration model with rejection)."""
    while True:
        stubs = [v for v in range(n) for _ in range(valence)]
        rng.shuffle(stubs)
        edges = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            key = (min(a, b), max(a, b))
            if a == b or key in edges:
                break
            edges.add(key)
        else:
            adj = [[] for _ in range(n)]
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            if _bfs_reach(adj) == n:
                return from_edge_list(n, sorted(edges))


def _bfs_reach(adj):
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def write_stress_census(path):
    """The 7-graph stress census in construction labeling; returns the
    entry names."""
    entries = [{"name": name, "graph6": write_graph6(row[0]()),
                "expected": stress_expected(name)}
               for name, row in STRESS_TABLE.items()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=2, sort_keys=True)
    return [e["name"] for e in entries]


def _analyze_fields(expected):
    """Census `expected` keys translated to analyze-record fields."""
    fields = {"vertices": "order", "valence": "regular_valence",
              "bipartite": "bipartite", "girth": "girth"}
    out = {fields[k]: v for k, v in expected.items() if k in fields}
    if "aut_order" in expected:
        out["aut_order"] = str(expected["aut_order"])
    for key in ("two_arc_transitive", "half_arc_transitive"):
        if key in expected:
            out["transitivity." + key] = expected[key]
    return out


def write_analyze_file(path, rng):
    """A graph6 file for analyze-relabeled, drawn from `rng`.

    Returns one (source name, expected fields) pair per line: random
    relabelings of every builtin graph and of ANALYZE_EXTRA, plus random
    connected cubic and 4-regular graphs of order about 120.
    """
    named = [(e.name, e.graph(), e.expected) for e in builtin_entries()]
    named += [(name, STRESS_TABLE[name][0](), stress_expected(name))
              for name in ANALYZE_EXTRA]
    lines, sources = [], []
    for name, g, expected in named:
        for _ in range(ANALYZE_RELABELINGS):
            lines.append(write_graph6(_shuffled(g, rng)))
            sources.append((name, _analyze_fields(expected)))
    for valence, count in ANALYZE_RANDOM.items():
        for i in range(count):
            n = rng.randrange(RANDOM_ORDER[0], RANDOM_ORDER[1] + 1, 2)
            lines.append(write_graph6(random_regular(n, valence, rng)))
            sources.append((f"random{valence}_{i}", {
                "order": n, "size": n * valence // 2,
                "regular_valence": valence, "connected": True}))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return sources
