import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatkit
from hatkit.census import (
    builtin_entries,
    complete_bipartite,
    complete_graph,
    coxeter_graph,
    generalized_petersen,
    holt_graph,
    lcf_graph,
)
from hatkit.altcycles import Orientation, alternating_cycles
from hatkit.dartgraph import dart_graph
from hatkit.graphs import bipartite_double, from_edge_list
from hatkit.perms import schreier_sims


# The seven cubic symmetric graphs of the benchmark's stress census
# (bench/inputs.py STRESS_TABLE), up to the Foster graph on 90 vertices.
# All but the first, F026, are 2-arc-transitive.
STRESS_NAMES = ("f026", "dyck", "tutte8cage", "gp24_5", "dodecahedron_double",
                "coxeter_double", "foster")
STRESS_GRAPHS = (
    lambda: lcf_graph([-7, 7], 13),
    lambda: lcf_graph([5, -5, 13, -13], 8),
    lambda: lcf_graph([-13, -9, 7, -7, 9, 13], 5),
    lambda: generalized_petersen(24, 5),
    lambda: bipartite_double(generalized_petersen(10, 2)),
    lambda: bipartite_double(coxeter_graph()),
    lambda: lcf_graph([17, -9, 37, -37, 9, -17], 15),
)
STRESS_AUT_ORDERS = (78, 192, 1440, 288, 480, 672, 4320)

# Every builtin and stress cubic 2-arc-transitive graph, by name.
TWO_ARC_CUBIC = {e.name: e.graph for e in builtin_entries()
                 if e.expected["valence"] == 3
                 and e.expected["two_arc_transitive"]}
TWO_ARC_CUBIC.update(zip(STRESS_NAMES[1:], STRESS_GRAPHS[1:]))


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def random_regular(rng, n, k=3):
    """A simple k-regular graph on n vertices (configuration model with
    rejection; not necessarily connected)."""
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])
                 if a != b}
        if len(edges) == k * n // 2:
            return from_edge_list(n, sorted(edges))


def dart_index(labeling):
    """Each dart's position in labeling.darts, looked up in a dict: the
    test-side reference for the library's 3 u + adj[u].index(v)."""
    return {d: i for i, d in enumerate(labeling.darts)}


def reversed_darts(labeling):
    """The dart reversal (u, v) -> (v, u) on a dart graph's vertices: the
    reference that altcycles.antipodal_involution of the natural
    orientation's alternating cycles must equal."""
    index = dart_index(labeling)
    return tuple(index[v, u] for u, v in labeling.darts)


def lift_chain(lifted):
    """A stabiliser chain of a dartgraph.LiftedGroup, built from its
    generators by full closure: the reference that tests read the lift's
    levels, orbits and sifts from, as the lift itself keeps no chain."""
    return schreier_sims(lifted.generators, degree=lifted.degree)


class ForgedOrientation:
    """A stand-in for an Orientation as psi_isomorphism reads one: d's
    graph, with in_adj[v] the neighbours x for which is_head(v, x) holds
    (x in d.in_adj[v] by default) and out_adj the one given (d's by
    default).  It lets a test break the premise that a check of psi rests
    on: that d is one orientation, read alike wherever psi reads it
    (in_adj to choose the images, out_adj to check the arcs)."""

    def __init__(self, d, is_head=None, out_adj=None):
        g = self.graph = d.graph
        is_head = is_head or (lambda v, x: x in d.in_adj[v])
        self.in_adj = tuple(tuple(x for x in g.adj[v] if is_head(v, x))
                            for v in range(g.n))
        self.out_adj = out_adj or d.out_adj


def psi_faults():
    """(check, g, d, dec) for each of psi_isomorphism's four checks, in
    order: g is Dart(Petersen), dec the alternating cycles of its natural
    orientation, and d an orientation that breaks the premise the check
    rests on, so that psi fails at that check.

    - psi_unique_head: the natural orientation with the darts of the
      outer 5-cycle reversed, a 2-in/2-out orientation that no group
      induces;
    - psi_bijective: the natural orientation, where the pair (u, w) of
      the reconstruction's dart 0 = (0, C) has u heading each of its four
      edges and w none, so the darts (0, C) and (C, 0) both map to u;
    - psi_preserves_adjacency: the natural orientation with the heads at
      u and w read reversed, so those two darts swap images;
    - psi_orientation_compatible: the natural orientation, whose out_adj
      is its reverse's, so every natural arc maps against it.
    """
    g, natural, labeling = dart_graph(generalized_petersen(5, 2))
    dec = alternating_cycles(natural)
    index = dart_index(labeling)
    step = [index[(i, (i + 1) % 5)] for i in range(5)]
    flip = {(step[i], step[(i + 1) % 5]) for i in range(5)}
    mixed = Orientation(g, [(h, t) if (t, h) in flip else (t, h)
                            for t, h in natural.arcs])
    pair = (0, dec.cycle_graph.adj[0][0])
    u, w = (v for v in range(g.n) if dec.cycles_at_vertex[v] == pair)

    def one_head(v, x):
        return v == u or (v != w and x in natural.in_adj[v])

    def swapped_heads(v, x):
        return (x in natural.in_adj[v]) != (v in (u, w))

    return [
        ("psi_unique_head", g, mixed, dec),
        ("psi_bijective", g, ForgedOrientation(natural, is_head=one_head),
         dec),
        ("psi_preserves_adjacency", g,
         ForgedOrientation(natural, is_head=swapped_heads), dec),
        ("psi_orientation_compatible", g,
         ForgedOrientation(natural, out_adj=natural.reverse().out_adj), dec),
    ]


def alternating_system(cycles):
    """(g, arcs) whose alternating cycles are the given ones: on each
    cycle the vertices at even positions are tails and those at odd
    positions heads, so arcs directs each cycle edge away from its even
    end.  Each vertex must be a tail on one cycle and a head on another."""
    arcs = [(x, y) if i % 2 == 0 else (y, x) for c in cycles
            for i, (x, y) in enumerate(zip(c, c[1:] + c[:1]))]
    return from_edge_list(1 + max(map(max, cycles)), arcs), arcs


class RawOrientation:
    """An orientation as alternating_cycles reads it (graph, in_adj,
    out_adj, arcs), with none of Orientation's checks: the arcs given and
    the in- and out-adjacency of all of them, on the graph given."""

    def __init__(self, graph, arcs, walked=None):
        self.graph, self.arcs = graph, tuple(arcs)
        self.in_adj = tuple(tuple(t for t, h in self.arcs if h == v)
                            for v in range(graph.n))
        self.out_adj = tuple(tuple(h for t, h in self.arcs if t == v)
                             for v in range(graph.n))
        if walked is not None:
            self.arcs = tuple(walked)


# Four alternating 6-cycles on 12 vertices, each vertex a tail on one and
# a head on another, where cycles meet in 1, 2 or 3 vertices.
MIXED_ATTACHMENT = ((2, 0, 3, 7, 9, 1), (7, 2, 4, 8, 0, 10),
                    (8, 5, 11, 4, 1, 6), (5, 9, 6, 11, 10, 3))
# The two alternating 8-cycles of the wreath C_4[2K1] in its spiral
# orientation: they meet in all eight vertices (a = 2r).
SPIRAL_WREATH = ((2, 4, 6, 1, 3, 5, 7, 0), (0, 3, 4, 7, 1, 2, 5, 6))


def alt_faults():
    """(check, g, d) for the alt_* checks of alternating_cycles that a
    2-in/2-out orientation reaches only past Orientation's checks, or
    through a decomposition of unusual shape:

    - alt_cycle_length_even: the triangle with each edge directed both
      ways, so its one walk closes after 3 steps;
    - alt_two_cycles_per_vertex: Dart(K4)'s natural orientation, whose
      walks start only from arcs off its first alternating cycle, so that
      cycle is never walked;
    - alt_cycles_partition_edges: Dart(K4) with one edge more, oriented
      by the natural arcs alone;
    - alt_attachment_constant: MIXED_ATTACHMENT, a valid orientation;
    - alt_attachment_at_most_radius: two disjoint spiral wreaths C_4[2K1],
      a valid orientation with four cycles and a = 8 > r = 4.

    alt_attachment_divides_2r is unreachable: once the walks are simple
    (alt_walk_simple) and each vertex lies on two distinct cycles
    (alt_two_cycles_per_vertex), the 2r vertices of a cycle c split into
    its intersections with the other cycles, each of the one size a
    (alt_attachment_constant), so a divides 2r."""
    triangle = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    both_ways = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
    dart, natural, _ = dart_graph(complete_graph(4))
    first = set(alternating_cycles(natural).cycles[0])
    off_first = [(t, h) for t, h in natural.arcs
                 if not {t, h} <= first]
    u, v = next((u, v) for u in range(dart.n) for v in range(u + 1, dart.n)
                if not dart.has_edge(u, v))
    bigger = from_edge_list(dart.n, dart.edges + ((u, v),))
    twice = SPIRAL_WREATH + tuple(tuple(v + 8 for v in c)
                                  for c in SPIRAL_WREATH)
    return [
        ("alt_cycle_length_even", triangle,
         RawOrientation(triangle, both_ways, walked=both_ways[:3])),
        ("alt_two_cycles_per_vertex", dart,
         RawOrientation(dart, natural.arcs, walked=off_first)),
        ("alt_cycles_partition_edges", bigger,
         RawOrientation(bigger, natural.arcs)),
        ("alt_attachment_constant",
         *_validated(*alternating_system(MIXED_ATTACHMENT))),
        ("alt_attachment_at_most_radius",
         *_validated(*alternating_system(twice))),
    ]


def _validated(g, arcs):
    return g, Orientation(g, arcs)


def unevenly_spaced():
    """(g, arcs): Dart(K4) rebuilt with two heads of its first alternating
    cycle swapped.  Every vertex keeps its two cycles and its role (head or
    tail) on each, so the walks, their lengths and the intersection sizes
    are as before, but on that cycle the two vertices it shares with one
    other cycle are no longer opposite: alternating_cycles fails
    alt_intersection_spacing.  The swap joins opposite vertices of the
    cycle, which no dart graph edge joins, so g is simple."""
    g, natural, _ = dart_graph(complete_graph(4))
    cycles = [list(c) for c in alternating_cycles(natural).cycles]
    heads = [{x for x, y in zip(c, c[1:] + c[:1]) if y in natural.in_adj[x]}
             for c in cycles]
    cycles[0][0], cycles[0][2] = cycles[0][2], cycles[0][0]
    arcs = [(y, x) if x in heads[i] else (x, y)
            for i, c in enumerate(cycles) for x, y in zip(c, c[1:] + c[:1])]
    return from_edge_list(g.n, arcs), arcs


def run_optimized(code):
    """Run code under python -O with this hatkit importable; return the
    words it printed."""
    src = str(Path(hatkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def k33():
    return complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def petersen():
    return generalized_petersen(5, 2)


@pytest.fixture(scope="session")
def heawood():
    return lcf_graph([5, -5], 7)


@pytest.fixture(scope="session")
def pappus():
    return lcf_graph([5, 7, -7, 7, -7, -5], 3)


@pytest.fixture(scope="session")
def coxeter():
    return coxeter_graph()


@pytest.fixture(scope="session")
def holt():
    return holt_graph()


@pytest.fixture()
def serial_pool(monkeypatch):
    """Replace the process pool with an executor that maps serially in
    this process; returns the list of max_workers each pool asked for."""
    asked = []

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        SerialExecutor)
    return asked
