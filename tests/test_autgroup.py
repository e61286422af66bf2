import copy
import hashlib
import importlib
import random
from bisect import bisect_left, insort
from collections import Counter
from itertools import combinations, permutations
from math import prod
from operator import getitem
from pathlib import Path

import pytest

from hatkit.errors import NotAutomorphisms, StructureViolation, TooLarge
from hatkit.graph6 import parse_graph6, write_graph6
from hatkit.graphs import (Graph, bipartite_double, from_edge_list,
                           is_connected, isomorphism_fault, line_graph,
                           relabel)
from hatkit.perms import compose, from_cycles, schreier_sims
from hatkit import autgroup, perms
from hatkit.autgroup import (
    arc_orbits,
    automorphism_group,
    canonical_form,
    is_isomorphic,
    transitivity_report,
    unit_partition,
)
from hatkit.cli import _EntryAnalysis
from hatkit.census import (builtin_entries, complete_graph, holt_graph,
                           lcf_graph, pgl2_graph)
from hatkit.altcycles import (alternating_cycles, cycle_images,
                              half_arc_orientation)
from hatkit.dartgraph import dart_graph, lift_automorphisms

from conftest import (STRESS_AUT_ORDERS, STRESS_GRAPHS, cycle_graph,
                      lift_chain, path_graph, random_regular, reversed_darts,
                      run_optimized)

FRUCHT = ([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2], 1)   # cubic, |Aut| = 1


def pinned_graphs():
    """The builtin and stress graphs, each with its known |Aut|."""
    pairs = [(e.graph(), e.expected["aut_order"]) for e in builtin_entries()]
    pairs += [(build(), order)
              for build, order in zip(STRESS_GRAPHS, STRESS_AUT_ORDERS)]
    return pairs


def brute_force_aut_order(g):
    """Count adjacency-preserving permutations by full enumeration."""
    count = 0
    for p in permutations(range(g.n)):
        if all(p[v] in g.nbrs[p[u]] for u, v in g.edges):
            count += 1
    return count


def random_graph(rng, n, p=0.5):
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return from_edge_list(n, edges)


def random_ordered_partition(rng, n):
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, 5), n - 1)))
    return tuple(tuple(verts[a:b]) for a, b in zip([0] + cuts, cuts + [n]))


def reference_refine(g, partition):
    """The coarsest equitable refinement the direct way: every round signs
    every non-singleton cell with a Counter of neighbour cell ids."""
    cells = [tuple(sorted(cell)) for cell in partition]
    while True:
        cell_id = [0] * g.n
        for i, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = i
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(Counter(cell_id[w] for w in g.adj[v]).items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        cells = new_cells
        if not changed:
            return tuple(cells)


def test_refine_regular_unit():
    c5 = cycle_graph(5)
    assert refine(c5, unit_partition(c5)) == (tuple(range(5)),)


def test_refine_path_splits():
    p3 = path_graph(3)
    assert refine(p3, unit_partition(p3)) == ((0, 2), (1,))


def test_refine_petersen_individualized(petersen):
    refined = refine(petersen, ((0,), tuple(range(1, 10))))
    assert refined == ((0,), (1, 4, 5), (2, 3, 6, 7, 8, 9))


def test_refine_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        once = refine(g, unit_partition(g))
        assert refine(g, once) == once


def test_refine_matches_reference():
    """Re-signing only the cells a split can reach leaves every ordered
    partition as signing every cell in every round does."""
    rng = random.Random(8)
    graphs = [e.graph() for e in builtin_entries()]
    graphs += [build() for build in STRESS_GRAPHS]
    graphs += [random_regular(rng, rng.randrange(20, 61, 2)) for _ in range(4)]
    graphs += [random_graph(rng, rng.randint(1, 14), rng.random())
               for _ in range(80)]
    for g in graphs:
        for _ in range(5):
            partition = random_ordered_partition(rng, g.n)
            assert refine(g, partition) == reference_refine(g, partition)


def pair_signature(ids):
    """The sorted (cell index, neighbour count) pairs of a vertex, from
    the sorted cell indices of its neighbours: the signature split parts
    are ordered by."""
    sig = []
    for c in ids:
        if sig and sig[-1][0] == c:
            sig[-1][1] += 1
        else:
            sig.append([c, 1])
    return sig


def reference_refine_traced(g, cells, first=None, best=None, moved=None,
                            rounds=None):
    """The refinement kernel as it was before it counted into the new parts:
    every round re-sorts the neighbour cell indices of every vertex in
    every cell next to a vertex whose cell split in the round before.
    rounds, when given, collects the trace length after each round that
    split a cell."""
    adj = g.adj
    trace = []
    on_first = first is not None
    # -1, 0, 1: the trace is below, equal to so far, above best's
    order = 0 if best is not None else 1 if on_first else -1

    def dropped(event):
        nonlocal on_first, order
        k = len(trace)
        trace.append(event)
        if on_first and event != first[k]:
            on_first = False
        if order == 0 and event != best[k]:
            order = 1 if event > best[k] else -1
        return order > 0 and not on_first

    cell_id = [0] * g.n
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = i
        dirty = (range(len(cells)) if moved is None
                 else {cell_id[w] for v in moved for w in adj[v]})
        new_cells = []
        moved = []      # vertices of the cells split in this round
        for i, cell in enumerate(cells):
            if len(cell) == 1 or i not in dirty:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                ids = tuple(sorted([cell_id[w] for w in adj[v]]))
                groups.setdefault(ids, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            moved.extend(cell)
            parts = [groups[ids]
                     for ids in sorted(groups, key=pair_signature)]
            if dropped((len(new_cells), *map(len, parts))):
                return None
            new_cells.extend(map(tuple, parts))
        if not moved:
            break
        if rounds is not None:
            rounds.append(len(trace))
        cells = new_cells
    if dropped(()):
        return None
    return tuple(cells), tuple(trace)


def kernel_graphs(rng):
    """The builtin and stress graphs, seeded random cubic and 4-regular
    graphs and seeded random graphs of order up to 14."""
    graphs = [g for g, _ in pinned_graphs()]
    graphs += [random_regular(rng, rng.randrange(20, 61, 2), k)
               for k in (3, 3, 4, 4)]
    graphs += [random_graph(rng, rng.randint(1, 14), rng.random())
               for _ in range(60)]
    return graphs


def refine_kernel(g, cells, first=None, best=None, moved=None):
    """autgroup's kernel on cells given as sorted tuples: (partition,
    trace), or None when the kernel drops the refinement."""
    node = autgroup._Partition(g.n, cells)
    trace = autgroup._refine_in_place(g, node, first, best, moved)
    return None if trace is None else (node.partition(), trace)


def refine(g, partition):
    """The coarsest equitable refinement of an ordered partition, as the
    search computes it."""
    return refine_kernel(g, [tuple(sorted(cell)) for cell in partition])[0]


def target_cell(partition):
    """The index of the first largest cell, None when the partition is
    discrete: the search's target."""
    best = None
    for i, cell in enumerate(partition):
        if len(cell) > (1 if best is None else len(partition[best])):
            best = i
    return best


def smallest_cell(partition):
    """The index of the first smallest cell that is not a singleton, None
    when the partition is discrete."""
    best = None
    for i, cell in enumerate(partition):
        if len(cell) > 1 and (best is None or len(cell) < len(partition[best])):
            best = i
    return best


def individualize(partition, index, v):
    """The partition with v split off the front of cell index."""
    cell = partition[index]
    rest = tuple(w for w in cell if w != v)
    return partition[:index] + ((v,), rest) + partition[index + 1:]


def search_nodes(g, rng, width=6):
    """(partition, children) along a seeded random path from the root of
    an IR tree of g that individualizes in the first smallest non-singleton
    cell, partitions equitable; children are up to width (vertex,
    individualized partition) pairs from that cell.  The path is longer
    than one down the search's tree, whose target is the first largest
    cell, so it reaches more small cells and more dropped children; the
    kernel meets its reference in any cell."""
    partition = reference_refine_traced(g, list(unit_partition(g)))[0]
    while True:
        index = smallest_cell(partition)
        if index is None:
            return
        cell = partition[index]
        children = [(v, individualize(partition, index, v))
                    for v in rng.sample(cell, min(width, len(cell)))]
        yield partition, children
        v, child = rng.choice(children)
        partition = reference_refine_traced(g, child, None, None, (v,))[0]


def assert_node_consistent(node, n):
    """The carried state of a node agrees with its partition: each cell
    sorted and named by its end, names in order, cell_id and free right
    for every vertex."""
    assert sorted(node.cell_at) == node.names
    end = -1
    for name, cell in zip(node.names, node.partition()):
        end += len(cell)
        assert name == end and list(cell) == sorted(cell)
        for v in cell:
            assert node.cell_id[v] == name
            assert node.free[v] == (len(cell) > 1)
    assert end == n - 1


def test_partition_state_matches_tuple_reference():
    """Along seeded random paths down an IR tree of each graph
    (search_nodes), a node's target is the tuple partition's first
    largest cell; a child individualizes v as the tuple partition does,
    renaming only v, and leaves its parent unchanged; refined in place,
    it holds the reference's partition, its state consistent; a discrete
    node's cell_id is the leaf's labeling, each vertex's position."""
    rng = random.Random(55)
    children = leaves = 0
    for g in kernel_graphs(rng):
        for partition, nodes in search_nodes(g, rng):
            node = autgroup._Partition(g.n, partition)
            index = target_cell(partition)
            assert node.cell_at[node.target()] == partition[index]
            for v, child in nodes:
                got = node.child(v)
                assert got.partition() == child
                assert_node_consistent(got, g.n)
                assert [u for u in range(g.n)
                        if got.cell_id[u] != node.cell_id[u]] == [v]
                autgroup._refine_in_place(g, got, None, None, (v,))
                assert got.partition() == reference_refine_traced(g, child)[0]
                assert_node_consistent(got, g.n)
                if got.target() is None:
                    leaves += 1
                    assert [got.cell_id[c[0]] for c in got.partition()] == \
                        list(range(g.n))
                children += 1
            assert node.partition() == partition
            assert_node_consistent(node, g.n)
    assert children > 700 and leaves > 100


def test_flat_key_orders_like_pair_signature():
    """Over seeded random sorted multisets of names, of different lengths
    and with repeats, the flat key orders and compares equal exactly as
    the (cell, count) pair lists do.  The plain sorted lists do not: they
    put [1, 1, 5] before [1, 2, 2], whose pairs come first."""
    rng = random.Random(56)
    top = 9
    keys = []
    for _ in range(300):
        ids = sorted(rng.choices(range(rng.randint(1, top)),
                                 k=rng.randint(0, 7)))
        keys.append((ids, autgroup._flat_key(list(ids), top),
                     pair_signature(ids)))
    equal = plain_wrong = 0
    for (ids1, flat1, pairs1), (ids2, flat2, pairs2) in combinations(keys, 2):
        assert (flat1 < flat2) == (pairs1 < pairs2)
        assert (flat1 == flat2) == (pairs1 == pairs2)
        equal += pairs1 == pairs2
        plain_wrong += (ids1 < ids2) != (pairs1 < pairs2)
    assert equal > 500 and plain_wrong > 5000
    assert [1, 1, 5] < [1, 2, 2]
    assert pair_signature([1, 2, 2]) < pair_signature([1, 1, 5])
    assert autgroup._flat_key([1, 2, 2], top) < autgroup._flat_key([1, 1, 5],
                                                                   top)


def test_refine_kernel_matches_reference_on_partitions():
    """The counting kernel gives today's partition and trace on seeded
    random ordered partitions, with no moved vertices."""
    rng = random.Random(41)
    for g in kernel_graphs(rng):
        for _ in range(5):
            cells = [tuple(sorted(cell))
                     for cell in random_ordered_partition(rng, g.n)]
            assert refine_kernel(g, cells) == reference_refine_traced(
                g, cells)


def test_refine_kernel_matches_reference_on_children():
    """The kernel gives today's partition and trace on the children
    (v individualized, moved=(v,)) of equitable partitions, at every
    level of a seeded random path down an IR tree of each graph."""
    rng = random.Random(42)
    children = 0
    for g in kernel_graphs(rng) * 3:
        for _, nodes in search_nodes(g, rng):
            for v, child in nodes:
                got = refine_kernel(g, child, None, None, (v,))
                assert got == reference_refine_traced(g, child, None, None,
                                                      (v,))
                assert got == reference_refine_traced(g, child)
                children += 1
    assert children > 1500


def drop_index(trace, first, best):
    """The index of the event at which a refinement with this full trace
    is dropped against first and best, else None."""
    on_first, order = first is not None, 0 if best is not None else (
        1 if first is not None else -1)
    for k, event in enumerate(trace):
        if on_first and event != first[k]:
            on_first = False
        if order == 0 and event != best[k]:
            order = 1 if event > best[k] else -1
        if order > 0 and not on_first:
            return k
    return None


def test_refine_kernel_matches_reference_when_dropping():
    """With the traces of sibling nodes as first and best, the kernel
    returns today's (partition, trace) or None, at the same event: the
    drop path is taken, at the end of a round and in the middle of one."""
    rng = random.Random(43)
    drops = mid_round = 0
    for g in kernel_graphs(rng):
        for _, nodes in search_nodes(g, rng):
            traces = [reference_refine_traced(g, child, None, None, (v,))[1]
                      for v, child in nodes]
            for v, child in nodes:
                rounds = []
                full = reference_refine_traced(g, child, None, None, (v,),
                                               rounds)[1]
                for first in traces + [None]:
                    for best in traces + [None]:
                        got = refine_kernel(g, child, first, best, (v,))
                        assert got == reference_refine_traced(
                            g, child, first, best, (v,))
                        k = drop_index(full, first, best)
                        assert (got is None) == (k is not None)
                        if k is not None:
                            drops += 1
                            mid_round += full[k] != () and k + 1 not in rounds
    assert drops > 400 and mid_round > 100


def circulant(n, jumps):
    return from_edge_list(n, [(v, (v + s) % n) for v in range(n)
                              for s in jumps])


def test_refine_kernel_remainders_match_reference(monkeypatch):
    """Above kernel_graphs' 90 vertices the kernel gives the reference's
    partition and trace on the children of the root and of the next node
    down a seeded random path of the circulant C(400; 1, 2), and on the
    root's children of a seeded random cubic graph of order 500, which
    are discrete.  A split cell's uncounted remainder is cut from the
    sorted cell between its hits when they are few against the cell, and
    filtered from the cell otherwise: both run here."""
    slices = filtered = 0
    real_bisect, real_filter = autgroup.bisect_left, autgroup.filterfalse

    def counted_bisect(a, x, *lo):
        # the slice loop is the kernel's only bisect from a lower bound
        nonlocal slices
        slices += bool(lo)
        return real_bisect(a, x, *lo)

    def counted_filter(*args):
        nonlocal filtered
        filtered += 1
        return real_filter(*args)

    monkeypatch.setattr(autgroup, "bisect_left", counted_bisect)
    monkeypatch.setattr(autgroup, "filterfalse", counted_filter)
    rng = random.Random(57)
    cells = []      # the cell count of each node whose children were checked
    for g in (circulant(400, (1, 2)), random_regular(rng, 500)):
        for _, (partition, nodes) in zip(range(2), search_nodes(g, rng, 3)):
            cells.append(len(partition))
            for v, child in nodes:
                assert refine_kernel(g, child, None, None, (v,)) == \
                    reference_refine_traced(g, child, None, None, (v,))
    assert cells == [1, 201, 1]
    assert slices and filtered


def counting_refine_reference(g, cells, first=None, best=None, moved=None):
    """The refinement kernel as it was before it ignored neighbours in
    singleton cells: every neighbour of a moved vertex is counted, and
    the cells of one vertex are skipped only when their splits are
    looked for."""
    adj = g.adj
    trace = []
    on_first = first is not None
    # -1, 0, 1: the trace is below, equal to so far, above best's
    order = 0 if best is not None else 1 if on_first else -1

    def dropped(event):
        nonlocal on_first, order
        k = len(trace)
        trace.append(event)
        if on_first and event != first[k]:
            on_first = False
        if order == 0 and event != best[k]:
            order = 1 if event > best[k] else -1
        return order > 0 and not on_first

    cell_at, starts, cell_id = {}, [], [0] * g.n
    start = 0
    for cell in cells:
        cell_at[start] = cell = tuple(cell)
        starts.append(start)
        for v in cell:
            cell_id[v] = start
        start += len(cell)
    if moved is None:
        moved = [v for cell in cell_at.values() for v in cell]
    while True:
        counts = {}
        for w in moved:
            part = cell_id[w]
            for u in adj[w]:
                ids = counts.get(u)
                if ids is None:
                    counts[u] = [part]
                else:
                    ids.append(part)
        touched = {}
        for u in counts:
            touched.setdefault(cell_id[u], []).append(u)
        splits = []
        for start in sorted(touched):
            cell = cell_at[start]
            if len(cell) == 1:
                continue
            hit = sorted(touched[start])
            groups = {}
            for v in hit:
                groups.setdefault(tuple(counts[v]), []).append(v)
            if len(hit) < len(cell):
                groups[()] = [v for v in cell if v not in counts]
            if len(groups) > 1:
                splits.append((start, groups.values()))
        if not splits:
            break
        moved, renamed = [], []
        for start, parts in splits:
            parts = sorted(parts, key=lambda part: pair_signature(
                sorted([cell_id[w] for w in adj[part[0]]])))
            event = (bisect_left(starts, start), *map(len, parts))
            if dropped(event):
                return None
            largest = max(range(len(parts)), key=lambda i: len(parts[i]))
            for i, part in enumerate(parts):
                cell_at[start] = part = tuple(part)
                if i:
                    insort(starts, start)
                    renamed.append((start, part))
                if i != largest:
                    moved.extend(part)
                start += len(part)
        for start, part in renamed:
            for v in part:
                cell_id[v] = start
    if dropped(()):
        return None
    return tuple(cell_at[start] for start in starts), tuple(trace)


def partition_with_singletons(rng, n):
    """A seeded random ordered partition of 0..n-1, each cell sorted,
    whose first cells are up to n/2 singletons, the rest cut into at most
    four cells."""
    verts = list(range(n))
    rng.shuffle(verts)
    k = rng.randint(0, n // 2)
    rest = verts[k:]
    cuts = sorted(rng.sample(range(1, len(rest)),
                             min(rng.randint(0, 3), max(len(rest) - 1, 0))))
    cells = [(v,) for v in verts[:k]]
    cells += [tuple(sorted(rest[a:b]))
              for a, b in zip([0] + cuts, cuts + [len(rest)])]
    rng.shuffle(cells)
    return [cell for cell in cells if cell]


def test_refine_matches_counting_reference_on_partitions():
    """Ignoring neighbours in singleton cells leaves the partition and
    trace of every refinement as counting them did, on seeded random
    ordered partitions with and without many singletons."""
    rng = random.Random(51)
    singletons = 0
    for g in kernel_graphs(rng):
        for _ in range(4):
            for cells in ([tuple(sorted(cell)) for cell in
                           random_ordered_partition(rng, g.n)],
                          partition_with_singletons(rng, g.n)):
                singletons += sum(len(cell) == 1 for cell in cells)
                assert refine_kernel(g, cells) == \
                    counting_refine_reference(g, cells)
    assert singletons > 1500


def test_refine_matches_counting_reference_on_children():
    """On the children of the nodes along seeded random paths down each
    graph's IR tree, with the traces of sibling children as first and
    best, the kernel returns the reference's (partition, trace), or drops
    the child as it does."""
    rng = random.Random(52)
    checked = drops = 0
    for g in kernel_graphs(rng):
        for _, nodes in search_nodes(g, rng):
            traces = [counting_refine_reference(g, child, None, None, (v,))[1]
                      for v, child in nodes]
            for v, child in nodes:
                for first in traces[:2] + [None]:
                    for best in traces[-2:] + [None]:
                        got = refine_kernel(g, child, first, best, (v,))
                        assert got == counting_refine_reference(
                            g, child, first, best, (v,))
                        checked += 1
                        drops += got is None
    assert checked > 5000 and drops > 100


def test_search_matches_reference_refine(monkeypatch):
    """Full searches with the counting kernel and with today's refinement
    find the same generators, canonical labeling, first path and traces,
    on 400 seeded random graphs and on 3- and 4-regular graphs up to
    order 130."""
    rng = random.Random(44)
    graphs = [random_graph(rng, rng.randint(1, 24), rng.random())
              for _ in range(400)]
    graphs += [random_regular(rng, n, k) for k in (3, 4)
               for n in (16, 30, 50, 76, 100, 130)]

    def search(g):
        s = autgroup._Search(g).run()
        return s.aut_gens, s.best_pi, s.first_path, s.first_traces, s.best

    results = [search(g) for g in graphs]
    calls = []

    def reference_kernel(g, node, first=None, best=None, moved=None):
        """The search's kernel, on the node's partition by the reference."""
        calls.append(moved)
        got = reference_refine_traced(g, list(node.partition()), first, best,
                                      moved)
        if got is None:
            return None
        refined = autgroup._Partition(g.n, got[0])
        for slot in autgroup._Partition.__slots__:
            setattr(node, slot, getattr(refined, slot))
        return got[1]

    monkeypatch.setattr(autgroup, "_refine_in_place", reference_kernel)
    for g, result in zip(graphs, results):
        assert search(g) == result
    assert calls


def test_leaf_key_orders_like_graph6():
    """For graphs of one order the leaf key orders like graph6, through
    the long header (n >= 63) and with and without padding."""
    rng = random.Random(6)
    for n in range(1, 71):
        g = random_graph(rng, n, rng.random())
        labelings = [tuple(range(n))] * 2
        for _ in range(4):
            pi = list(range(n))
            rng.shuffle(pi)
            labelings.append(tuple(pi))
        leaves = [(autgroup._leaf_key(g, pi),
                   write_graph6(relabel(g, pi)).encode("ascii"))
                  for pi in labelings]
        for (key1, enc1), (key2, enc2) in combinations(leaves, 2):
            assert (key1 < key2) == (enc1 < enc2)
            assert (key1 == key2) == (enc1 == enc2)


class BreadthFirstOrbitSearch(autgroup._Search):
    """The search with the orbit test it had before the target cell's
    orbits came from perms.orbits: for each candidate, a breadth-first
    sweep from the explored candidates under the generators that fix the
    path."""

    def _explore(self, node, path, traces):
        name = node.target()
        if name is None:
            return self._leaf(node, path, traces)
        depth = len(path)
        explored = []
        for v in node.cell_at[name]:
            if explored and self._in_explored_orbit(v, explored, path):
                continue
            child = node.child(v)
            trace = autgroup._refine_in_place(
                self.g, child, *self._references(traces), (v,))
            if trace is not None:
                back = self._explore(child, path + (v,), traces + (trace,))
                if back < depth:
                    return back
            explored.append(v)
        return depth

    def _in_explored_orbit(self, v, explored, prefix):
        gens = [a for a in self.aut_gens if all(a[q] == q for q in prefix)]
        if not gens:
            return False
        seen = set(explored)
        queue = list(explored)
        while queue:
            x = queue.pop()
            for a in gens:
                y = a[x]
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False


def test_search_orbit_test_matches_breadth_first_reference():
    """Pruning by the target cell's orbits gives the generators, first
    path, canonical labeling and certificate of the per-candidate
    breadth-first orbit test, on seeded random 3- and 4-regular graphs
    and on relabeled builtin and stress graphs."""
    rng = random.Random(46)
    graphs = [random_regular(rng, n, k) for k in (3, 4)
              for n in (12, 20, 40, 80)]
    graphs += [relabel(g, tuple(rng.sample(range(g.n), g.n)))
               for g, _ in pinned_graphs()]

    def result(search):
        result = autgroup._SearchResult(search.run())
        return (result.generators, result.first_path, result.labeling,
                result.certificate)

    for g in graphs:
        assert result(autgroup._Search(g)) == \
            result(BreadthFirstOrbitSearch(g))


class UnsplitRootSearch(autgroup._Search):
    """The search as it was before the root split: it explores from the
    coarsest equitable refinement of the unit partition."""

    def run(self):
        if self.g.n == 0:
            self.first_path = self.best_pi = ()
            return self
        root = autgroup._Partition(self.g.n, unit_partition(self.g))
        autgroup._refine_in_place(self.g, root)
        self._explore(root, (), ())
        return self


def group_and_orbits(search):
    """(|G|, orbit partition) of the group the search's generators
    generate, with the chain built on its first path."""
    search.run()
    group = schreier_sims(search.aut_gens, degree=search.g.n,
                          base=search.first_path)
    return group.order, perms.orbits(range(search.g.n), group.generators,
                                     getitem)


def test_root_split_matches_unsplit_reference():
    """Splitting the root by sphere sizes leaves |Aut| and the orbit
    partition as exploring from the equitable root does, on seeded random
    3- and 4-regular graphs of order 12 to 130 and on random graphs that
    are not regular."""
    rng = random.Random(47)
    graphs = [random_regular(rng, n, k) for k in (3, 4)
              for n in (12, 14, 20, 30, 40, 60, 80, 110, 130)]
    graphs += [random_graph(rng, rng.randint(2, 24), rng.random())
               for _ in range(150)]
    for g in graphs:
        assert group_and_orbits(autgroup._Search(g)) == \
            group_and_orbits(UnsplitRootSearch(g))


def test_root_split_leaves_vertex_transitive_search_unchanged():
    """On the builtin and stress graphs, all vertex-transitive, the
    sphere sizes are constant: the root, generators, first path, labeling
    and certificate are those of the unsplit search."""
    for g, _ in pinned_graphs():
        root = refine(g, unit_partition(g))
        assert autgroup._split_by_spheres(g, root) == list(root)
        split, unsplit = autgroup._Search(g).run(), UnsplitRootSearch(g).run()
        assert (split.aut_gens, split.first_path, split.best_pi) == \
            (unsplit.aut_gens, unsplit.first_path, unsplit.best_pi)


def test_split_by_spheres_orders_parts():
    """On a path of 7 vertices the equitable root pairs the vertices by
    distance from the middle, and sphere sizes split no pair.  The
    Frucht graph's equitable root is one cell; its split parts are sorted,
    share one value each and follow in increasing order of it, and one
    more refinement makes the root discrete."""
    p7 = path_graph(7)
    root = refine(p7, unit_partition(p7))
    assert autgroup._split_by_spheres(p7, root) == list(root)
    sizes = autgroup._sphere_sizes(p7)
    assert sizes[3] == (2, 2, 2)
    assert sizes[0] == (1, 1, 1)
    frucht = lcf_graph(*FRUCHT)
    root = refine(frucht, unit_partition(frucht))
    assert root == (tuple(range(12)),)
    parts = autgroup._split_by_spheres(frucht, root)
    sizes = autgroup._sphere_sizes(frucht)
    values = [{sizes[v] for v in part} for part in parts]
    assert len(parts) > 1 and all(len(value) == 1 for value in values)
    assert [min(value) for value in values] == sorted(
        min(value) for value in values)
    assert all(list(part) == sorted(part) for part in parts)
    assert all(len(cell) == 1 for cell in refine(frucht, parts))


def bfs_sphere_sizes(g, v):
    """(|S_1(v)|, ..., |S_d(v)|) by a breadth-first search from v: the
    root invariant as it was computed before the bitset sweep."""
    seen, frontier, sizes = {v}, [v], []
    for _ in range(autgroup._SPHERE_DEPTH):
        sphere = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    sphere.append(w)
        sizes.append(len(sphere))
        frontier = sphere
    return tuple(sizes)


def test_sphere_sizes_match_bfs_reference():
    """The bitset sweep gives every vertex the sphere sizes of a
    breadth-first search, on seeded random graphs of order 0 to 130:
    regular and not, connected and not, and on the builtin and stress
    graphs."""
    rng = random.Random(53)
    graphs = [g for g, _ in pinned_graphs()]
    graphs += [random_graph(rng, n, rng.choice((0.02, 0.05, 0.2, 0.6)))
               for n in list(range(12)) + [rng.randint(12, 130)
                                           for _ in range(40)]]
    graphs += [random_regular(rng, n, k) for k in (3, 4)
               for n in (12, 20, 50, 90, 130)]
    # disjoint unions of two regular graphs: regular and disconnected
    for k, (a, b) in ((3, (10, 20)), (4, (15, 40)), (3, (60, 70))):
        g, h = random_regular(rng, a, k), random_regular(rng, b, k)
        graphs.append(from_edge_list(a + b, list(g.edges) + [
            (u + a, v + a) for u, v in h.edges]))
    kinds = set()
    for g in graphs:
        sizes = autgroup._sphere_sizes(g)
        assert sizes == [bfs_sphere_sizes(g, v) for v in range(g.n)]
        kinds.add((len(set(g.degrees())) <= 1, is_connected(g)))
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_root_split_certificates_invariant():
    """Relabelings of seeded random regular and non-regular graphs get the
    certificate of the graph, and is_isomorphic maps each graph onto its
    relabeling with a verified isomorphism."""
    rng = random.Random(48)
    graphs = [random_regular(rng, rng.randrange(12, 131, 2), k)
              for k in (3, 3, 4, 4)]
    graphs += [random_graph(rng, rng.randint(2, 30), rng.random())
               for _ in range(40)]
    for g in graphs:
        _, certificate = canonical_form(g)
        for _ in range(2):
            h = relabel(g, tuple(rng.sample(range(g.n), g.n)))
            assert canonical_form(h)[1] == certificate
            mapping = is_isomorphic(g, h)
            assert mapping is not None
            assert isomorphism_fault(mapping, g, h) == ""


def test_root_split_refines_regular_graphs_at_most_twice(monkeypatch):
    """On random regular graphs of order 110 to 130 the unit partition is
    equitable and is not refined; the sphere sizes leave at most one
    refinement below the split root's: the search makes at most 2
    refinements, and none of them receives the unit partition.  On
    graphs that are not regular, a path and seeded random graphs of mixed
    degrees, the first refinement still receives it."""
    received = []
    real = autgroup._refine_in_place

    def counted(g, node, *args):
        received.append(node.partition())
        return real(g, node, *args)

    monkeypatch.setattr(autgroup, "_refine_in_place", counted)
    rng = random.Random(49)
    for i in range(20):
        g = random_regular(rng, rng.randrange(110, 131, 2), 3 + i % 2)
        received.clear()
        autgroup._Search(g).run()
        assert received
        assert len(received) <= 2
        assert unit_partition(g) not in received
    irregular = [path_graph(7)]
    while len(irregular) < 6:
        g = random_graph(rng, rng.randint(5, 30), rng.random())
        if len(set(g.degrees())) > 1:
            irregular.append(g)
    for g in irregular:
        received.clear()
        autgroup._Search(g).run()
        assert received[0] == unit_partition(g)


def test_search_results_pinned():
    """Canonical labelings and certificates of the builtin and stress
    graphs, pinned by digest, and their generator lists, pinned by a
    separate digest, each generating a group of the known |Aut|."""
    results, generators = hashlib.sha256(), hashlib.sha256()
    for g, order in pinned_graphs():
        result = autgroup._analysis(g)
        results.update(repr((result.labeling, result.certificate)).encode())
        generators.update(repr(result.generators).encode())
        assert schreier_sims(result.generators, degree=g.n).order == order
    assert results.hexdigest() == (
        "27c7a763ecbeed225097cd62306546659b35051fae2ebb2c4fa7b8530b913102")
    assert generators.hexdigest() == (
        "c41d8a12d1c4f3f749e13f4e54a7b8f32e4ff2e7db66b8c530904ccda4a91386")


def test_search_results_pinned_beyond_census(tmp_path, monkeypatch):
    """Generators, first path, first cells, canonical labeling and
    certificate of every graph of the benchmark's relabeled analyze file
    for seeds 1 to 3 and of PGL(2, 7) and PGL(2, 11), pinned by one
    digest: relabeled and random regular graphs, whose searches branch
    and prune far more than those of the census labelings."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    inputs = importlib.import_module("inputs")
    graphs = []
    for seed in (1, 2, 3):
        path = tmp_path / f"relabeled-{seed}.g6"
        inputs.write_analyze_file(path, random.Random(seed))
        graphs += map(parse_graph6, path.read_text(encoding="ascii").split())
    graphs += [pgl2_graph(7), pgl2_graph(11)]
    assert len(graphs) == 116
    digest = hashlib.sha256()
    for g in graphs:
        search = autgroup._SearchResult(autgroup._Search(g).run())
        digest.update(repr((search.generators, search.first_path,
                            search.first_cells, search.labeling,
                            search.certificate)).encode())
    assert digest.hexdigest() == (
        "2b4c27888370bfbb4472ba3ee94c665cb9393f0177d6a3e75ca08adf92df1f4d")


def test_search_generators_strong_on_first_path():
    """The first leaf's path is a base on which the search's generators
    are already strong: the closure adds no strong generator and no base
    point, under two seeded relabelings of each graph too."""
    rng = random.Random(12)
    for g, order in pinned_graphs():
        for h in [g] + [relabel(g, tuple(rng.sample(range(g.n), g.n)))
                        for _ in range(2)]:
            result = autgroup._analysis(h)
            group = schreier_sims(result.generators, degree=h.n,
                                  base=result.first_path)
            assert group.order == order
            assert group.base == result.first_path
            assert group._strong == group.generators


def test_search_leaves_equivalent_subtrees(monkeypatch):
    """A search leaves a subtree once one of its leaves repeats a key seen
    outside it.  On one relabeled Foster graph the search before that
    early exit made 133 refinements and kept 54 generators; the counter
    wraps the refinement core the search calls."""
    foster = STRESS_GRAPHS[-1]()
    rng = random.Random(2)
    p = list(range(foster.n))
    rng.shuffle(p)
    g = relabel(foster, tuple(p))
    calls = []
    real = autgroup._refine_in_place

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(autgroup, "_refine_in_place", counted)
    autgroup._analysis.cache_clear()
    result = autgroup._analysis(g)
    assert calls
    assert len(calls) < 133
    assert len(result.generators) < 54
    assert automorphism_group(g).order == 4320


def asymmetric_graphs():
    """The Frucht graph and seeded random cubic and 4-regular graphs of
    order at least 100, each with |Aut| = 1."""
    rng = random.Random(13)
    return [lcf_graph(*FRUCHT)] + [random_regular(rng, n, k) for n, k in
                                   ((102, 3), (120, 3), (100, 4), (110, 4))]


def test_search_prunes_by_refinement_trace(monkeypatch):
    """With |Aut| = 1 every root child is inequivalent, and a search
    ranking all leaves by key alone refines each to a leaf: n leaves.
    Comparing refinement traces with the first and best path's drops
    most of them before their leaves."""
    keys = []
    real = autgroup._leaf_key

    def counted(g, pi):
        keys.append(pi)
        return real(g, pi)

    monkeypatch.setattr(autgroup, "_leaf_key", counted)
    for g in asymmetric_graphs():
        autgroup._analysis.cache_clear()
        keys.clear()
        assert automorphism_group(g).order == 1
        assert len(keys) < g.n


def test_pruned_search_certificates_invariant():
    """Certificates of the asymmetric graphs do not depend on the
    labelling, and is_isomorphic finds each relabelling with a verified
    mapping."""
    rng = random.Random(14)
    for g in asymmetric_graphs():
        _, certificate = canonical_form(g)
        for _ in range(3):
            h = relabel(g, tuple(rng.sample(range(g.n), g.n)))
            assert canonical_form(h)[1] == certificate
            mapping = is_isomorphic(g, h)
            assert mapping is not None
            assert isomorphism_fault(mapping, g, h) == ""


def test_search_encodes_one_leaf(monkeypatch):
    """The search ranks leaves by key and encodes only the winning leaf,
    from its bit layout, on the first read of its certificate: no encode
    before it, one encode however often it is read, and no relabel."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(autgroup, "_encode",
                        counted("_encode", autgroup._encode))
    monkeypatch.setattr(autgroup, "relabel", counted("relabel", relabel))
    autgroup._analysis.cache_clear()
    foster = STRESS_GRAPHS[-1]()
    result = autgroup._analysis(foster)
    assert counts == {}
    assert result.certificate == write_graph6(
        relabel(foster, result.labeling)).encode("ascii")
    assert result.certificate is result.certificate
    assert counts == {"_encode": 1}


def test_leaf_pair_check_runs_under_optimize():
    """The leaf-pair automorphism check is a raise, not an assert: with
    every leaf given one key, the Frucht graph (|Aut| = 1) pairs two
    leaves that differ by a non-automorphism, and the search fails under
    python -O, naming the check.  The root split is disabled, since it
    makes the Frucht graph's root discrete: one leaf, no pair."""
    code = (
        "import sys\n"
        "from hatkit import autgroup\n"
        "from hatkit.census import lcf_graph\n"
        "from hatkit.errors import StructureViolation\n"
        "autgroup._leaf_key = lambda g, pi: 0\n"
        "autgroup._split_by_spheres = lambda g, partition: list(partition)\n"
        f"g = lcf_graph{FRUCHT}\n"
        "try:\n"
        "    autgroup.automorphism_group(g)\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(':', 1)\n"
        "    print(sys.flags.optimize, type(exc).__name__, name,\n"
        "          'non-edge' in detail)\n"
    )
    assert run_optimized(code) == ["1", "StructureViolation",
                                   "leaf_pair_automorphism", "True"]


@pytest.mark.parametrize("build,order", [
    (lambda: from_edge_list(4, [(a, b) for a, b in combinations(range(4), 2)]), 24),
    (lambda: cycle_graph(5), 10),
    (lambda: path_graph(3), 2),
    (lambda: from_edge_list(1, []), 1),
    (lambda: from_edge_list(0, []), 1),
])
def test_automorphism_orders_known(build, order):
    assert automorphism_group(build()).order == order


def test_automorphism_group_petersen(petersen):
    group = automorphism_group(petersen)
    assert group.order == 120
    for gen in group.generators:
        assert all(gen[v] in petersen.nbrs[gen[u]] for u, v in petersen.edges)


def oracle_random_graphs():
    rng = random.Random(2024)
    return [random_graph(rng, rng.randint(1, 7)) for _ in range(60)]


def test_oracle_equivalence_random():
    for g in oracle_random_graphs():
        assert automorphism_group(g).order == brute_force_aut_order(g)


def test_canonical_form_stability():
    # certificate soundness over 200 relabeled pairs
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        images = list(range(g.n))
        rng.shuffle(images)
        h = relabel(g, tuple(images))
        assert canonical_form(g)[1] == canonical_form(h)[1]
        mapping = is_isomorphic(g, h)
        assert mapping is not None
        assert all(mapping[v] in h.nbrs[mapping[u]] for u, v in g.edges)
        assert len({mapping[u] for u in range(g.n)}) == g.n


def test_canonical_relabeled_graph_matches_certificate(k4):
    canon, cert = canonical_form(k4)
    from hatkit.graph6 import write_graph6
    assert cert == write_graph6(canon).encode("ascii")


def test_canonical_form_idempotent():
    # a canonically relabeled graph is its own canonical form
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        canon, cert = canonical_form(g)
        canon2, cert2 = canonical_form(canon)
        assert cert2 == cert and canon2 == canon


def test_not_isomorphic_cases():
    p3 = path_graph(3)
    k3 = cycle_graph(3)
    assert is_isomorphic(p3, k3) is None
    c6 = cycle_graph(6)
    two_triangles = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert is_isomorphic(c6, two_triangles) is None
    assert canonical_form(c6)[1] != canonical_form(two_triangles)[1]


def test_dart_k4_not_double_of_line_graph(k4):
    dart, _, _ = dart_graph(k4)
    double = bipartite_double(line_graph(k4)[0])
    assert dart.n == double.n == 12
    assert is_isomorphic(dart, double) is None


def test_too_large():
    g = Graph(10_001, [[] for _ in range(10_001)])
    with pytest.raises(TooLarge):
        automorphism_group(g)


def oracle_regular_graphs():
    """25 seeded regular graphs of order 4, 6 or 8, each a union of up to
    three random perfect matchings."""
    rng = random.Random(77)
    built = []
    while len(built) < 25:
        n = rng.choice((4, 6, 8))
        k = rng.choice((2, 3))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = set()
        # union of k random perfect matchings / 2-factors, keep if simple k-regular
        for _ in range(k):
            rng.shuffle(perm)
            for i in range(0, n - 1, 2):
                a, b = perm[i], perm[i + 1]
                edges.add((min(a, b), max(a, b)))
        g = from_edge_list(n, sorted(edges))
        if len({d for d in g.degrees()}) == 1:
            built.append(g)
    return built


def test_oracle_equivalence_regular_graphs():
    # regular graphs keep the unit partition equitable, exercising the
    # search rather than the refinement
    for g in oracle_regular_graphs():
        assert automorphism_group(g).order == brute_force_aut_order(g)


def test_unique_srg_9_4_1_2():
    # the 3x3 rook graph and the Paley graph of GF(9) are both strongly
    # regular with parameters (9,4,1,2); that graph is unique, so the two
    # constructions must agree up to isomorphism, with |Aut| = 72
    rook = from_edge_list(9, [(3 * r + c, 3 * r + c2)
                              for r in range(3)
                              for c in range(3) for c2 in range(c + 1, 3)]
                          + [(3 * r + c, 3 * r2 + c)
                             for c in range(3)
                             for r in range(3) for r2 in range(r + 1, 3)])
    # GF(9) = Z3[x]/(x^2 + 1): element (a, b) is a + bx
    def mul(p, q):
        (a, b), (c, d) = p, q
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    elements = [(a, b) for a in range(3) for b in range(3)]
    squares = {mul(e, e) for e in elements if e != (0, 0)}
    idx = {e: i for i, e in enumerate(elements)}
    paley = from_edge_list(9, [
        (idx[p], idx[q]) for p in elements for q in elements
        if idx[p] < idx[q]
        and ((p[0] - q[0]) % 3, (p[1] - q[1]) % 3) in squares])
    group = automorphism_group(rook)
    assert group.order == 72
    assert is_isomorphic(rook, paley) is not None


def test_transitivity_petersen(petersen):
    group = automorphism_group(petersen)
    report = transitivity_report(group, petersen)
    assert report.vertex_transitive and report.edge_transitive
    assert report.arc_transitive and report.two_arc_transitive
    assert not report.half_arc_transitive
    assert report.arc_orbit_count == 1


def test_transitivity_trivial_group(k4):
    trivial = schreier_sims([], degree=4)
    report = transitivity_report(trivial, k4)
    assert not any([report.vertex_transitive, report.edge_transitive,
                    report.arc_transitive, report.two_arc_transitive,
                    report.half_arc_transitive])
    assert report.arc_orbit_count == 12


def test_transitivity_lifted_dart_k4(k4):
    group = automorphism_group(k4)
    dart, _, labeling = dart_graph(k4)
    lifted = lift_automorphisms(k4, group, labeling)
    report = transitivity_report(lift_chain(lifted), dart)
    assert report.vertex_transitive and report.edge_transitive
    assert not report.arc_transitive
    assert report.half_arc_transitive
    assert report.arc_orbit_count == 2


def test_transitivity_implications_random():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        report = transitivity_report(automorphism_group(g), g)
        if report.two_arc_transitive:
            assert report.arc_transitive
        if report.arc_transitive:
            assert report.edge_transitive
        assert report.half_arc_transitive == (
            report.vertex_transitive and report.edge_transitive
            and not report.arc_transitive)


def _reference_orbit_count(items, gens, act):
    """Orbits of items under the generators, by a closure of its own."""
    left = set(items)
    count = 0
    while left:
        count += 1
        queue = [left.pop()]
        while queue:
            x = queue.pop()
            for s in gens:
                y = act(s, x)
                if y in left:
                    left.remove(y)
                    queue.append(y)
    return count


def _reference_transitivity(gens, g):
    """The five flags and the arc orbit count from separate vertex, edge,
    arc and 2-arc sweeps."""
    def act(s, t):
        return tuple(s[x] for x in t)

    def act_edge(s, e):
        return tuple(sorted(act(s, e)))

    arcs = [(u, v) for u in range(g.n) for v in g.adj[u]]
    two_arcs = [(u, v, w) for u, v in arcs for w in g.adj[v] if w != u]
    vertex_t = _reference_orbit_count(range(g.n), gens,
                                      lambda s, v: s[v]) <= 1
    edge_t = _reference_orbit_count(g.edges, gens, act_edge) <= 1
    arc_count = _reference_orbit_count(arcs, gens, act)
    arc_t = arc_count <= 1
    two_arc_t = arc_t and _reference_orbit_count(two_arcs, gens, act) <= 1
    return {
        "vertex_transitive": vertex_t,
        "edge_transitive": edge_t,
        "arc_transitive": arc_t,
        "two_arc_transitive": two_arc_t,
        "half_arc_transitive": vertex_t and edge_t and not arc_t,
        "arc_orbit_count": arc_count,
    }


_EXTRA_REFERENCE_CASES = {
    # edgeless: edge, arc and 2-arc transitivity hold vacuously
    "edgeless-3-s3": (from_edge_list(3, []), [(1, 0, 2), (1, 2, 0)]),
    # two arc orbits that are each other's reverse, not vertex-transitive
    "path-plus-isolated": (from_edge_list(4, [(0, 1), (1, 2)]),
                           [(2, 1, 0, 3)]),
    # two arc orbits, each its own reverse: not edge-transitive
    "two-edges-flipped": (from_edge_list(4, [(0, 1), (2, 3)]),
                          [(1, 0, 2, 3), (0, 1, 3, 2)]),
}
_REFERENCE_CASES = (
    [f"{entry.name}-{kind}" for entry in builtin_entries()
     for kind in ("aut", "trivial", "one-generator")]
    + ["dart-k4-lift", "dart-petersen-lift"] + list(_EXTRA_REFERENCE_CASES))


def _reference_case(case):
    """(group, graph) for a case name of _REFERENCE_CASES."""
    if case in _EXTRA_REFERENCE_CASES:
        g, gens = _EXTRA_REFERENCE_CASES[case]
        return schreier_sims(gens, degree=g.n), g
    if case.startswith("dart-"):
        base = next(e for e in builtin_entries()
                    if e.name == case.split("-")[1]).graph()
        dart, _, labeling = dart_graph(base)
        return lift_chain(lift_automorphisms(base, automorphism_group(base),
                                             labeling)), dart
    name, kind = case.split("-", 1)
    g = next(e for e in builtin_entries() if e.name == name).graph()
    aut = automorphism_group(g)
    gens = {"aut": aut.generators, "trivial": [],
            "one-generator": aut.generators[:1]}[kind]
    return (aut if kind == "aut" else schreier_sims(gens, degree=g.n)), g


@pytest.mark.parametrize("case", _REFERENCE_CASES)
def test_transitivity_matches_reference_sweeps(case):
    """Every flag read from the one arc sweep agrees with separate
    vertex, edge, arc and 2-arc orbit sweeps: each builtin graph (Holt
    included) under Aut(g), the trivial group and one generator of
    Aut(g), the lifted dart actions of K4 and Petersen, and small
    degenerate actions."""
    group, g = _reference_case(case)
    expected = _reference_transitivity(group.generators, g)
    report = transitivity_report(group, g)
    assert {key: getattr(report, key) for key in expected} == expected


def sweep_transitivity_report(group, g):
    """transitivity_report by orbit sweeps: a breadth-first vertex orbit
    of 0, the arc orbits swept under the generators and, for at most one
    arc orbit, the 2-arc orbits swept too."""
    if group.degree != g.n:
        raise NotAutomorphisms(
            f"group degree {group.degree} != vertex count {g.n}")
    gens = group.generators
    arc_orbit_list = arc_orbits(gens, g)
    vertex_t = g.n <= 1 or len(
        perms.orbits([0], gens, getitem)[0]) == g.n
    arc_t = len(arc_orbit_list) <= 1
    edge_t = arc_t or (
        len(arc_orbit_list) == 2
        and {(b, a) for a, b in arc_orbit_list[0]} == set(arc_orbit_list[1]))
    two_arcs = ((u, v, w) for v in range(g.n) for u in g.adj[v]
                for w in g.adj[v] if u != w)
    two_arc_t = arc_t and len(perms.orbits(
        two_arcs, gens, lambda s, t: (s[t[0]], s[t[1]], s[t[2]]))) <= 1
    return autgroup.TransitivityReport(
        vertex_transitive=vertex_t,
        edge_transitive=edge_t,
        arc_transitive=arc_t,
        two_arc_transitive=two_arc_t,
        half_arc_transitive=vertex_t and edge_t and not arc_t,
        arc_orbit_count=len(arc_orbit_list),
        arc_orbits=arc_orbit_list,
    )


def assert_matches_sweep(group, g):
    """transitivity_report equals the sweep in every field, arc_orbits
    included; returns the report."""
    report = transitivity_report(group, g)
    assert report == sweep_transitivity_report(group, g)
    return report


def rebased(group, rng):
    """The group's chain rebuilt on a random first base point, once by
    full closure and once stopped at the group's order."""
    b = rng.randrange(group.degree)
    return (schreier_sims(group.generators, degree=group.degree, base=[b]),
            schreier_sims(group.generators, degree=group.degree, base=[b],
                          order_bound=group.order))


def builtin_and_stress_graphs():
    return ([(e.name, e.graph()) for e in builtin_entries()]
            + [(f"stress{i}", build()) for i, build in
               enumerate(STRESS_GRAPHS)])


def test_transitivity_matches_sweep_under_aut():
    """Every builtin and stress graph under Aut(g), its chain as the
    search builds it and rebuilt on a random first base point; Holt's
    point stabiliser has two suborbits on the neighbours of its base
    point, so its arcs fall into two orbits."""
    rng = random.Random(19)
    for name, g in builtin_and_stress_graphs():
        aut = automorphism_group(g)
        report = assert_matches_sweep(aut, g)
        assert report.vertex_transitive
        assert report.arc_orbit_count == (2 if name == "holt" else 1)
        for group in rebased(aut, rng):
            assert group.order == aut.order
            assert_matches_sweep(group, g)


def test_transitivity_matches_sweep_on_lifts_and_cycle_actions():
    """The lifted action on the dart graph of every cubic builtin and
    stress graph (a chain of the lifted generators, built here), also
    rebuilt on a random first base point, and the action on the
    alternating cycles of each dart graph and of Holt.  The lift is
    half-arc-transitive exactly when the base is 2-arc-transitive, which
    F026 is not."""
    rng = random.Random(19)
    actions = []
    for name, g in builtin_and_stress_graphs():
        aut = automorphism_group(g)
        if name == "holt":
            d = half_arc_orientation(g, transitivity_report(aut, g))
            actions.append((aut, alternating_cycles(g, d)))
            continue
        dart, natural, labeling = dart_graph(g)
        lifted = lift_chain(lift_automorphisms(g, aut, labeling))
        report = assert_matches_sweep(lifted, dart)
        assert report.half_arc_transitive == transitivity_report(
            aut, g).two_arc_transitive
        for group in rebased(lifted, rng):
            assert_matches_sweep(group, dart)
        actions.append((lifted, alternating_cycles(dart, natural)))
    for group, dec in actions:
        action = schreier_sims(cycle_images(group, dec),
                               degree=len(dec.cycles))
        assert_matches_sweep(action, dec.cycle_graph)


def test_transitivity_matches_sweep_on_subgroups():
    """Groups generated by random subsets of Aut(g)'s strong generators,
    some rebuilt on a random first base point, and three fixed groups,
    one of each kind whatever strong generators the search picks:
    Aut(Holt), transitive but not arc-transitive; A4 on K4, arc- but not
    2-arc-transitive; and one generator of K4 with a fixed point,
    intransitive."""
    rng = random.Random(19)
    kinds = Counter()
    for _, g in builtin_and_stress_graphs():
        strong = automorphism_group(g).strong_generators
        for _ in range(6):
            gens = rng.sample(strong, rng.randint(1, min(3, len(strong))))
            base = [rng.randrange(g.n)] if rng.random() < 0.5 else []
            group = schreier_sims(gens, degree=g.n, base=base)
            report = assert_matches_sweep(group, g)
            kinds[(report.vertex_transitive, report.arc_transitive,
                   report.two_arc_transitive)] += 1
    holt, k4 = holt_graph(), complete_graph(4)
    fixed = [
        (automorphism_group(holt), holt, (True, False, False)),
        (schreier_sims([from_cycles(4, [(0, 1, 2)]),
                        from_cycles(4, [(0, 1), (2, 3)])]),
         k4, (True, True, False)),
        (schreier_sims([from_cycles(4, [(1, 2, 3)])]), k4,
         (False, False, False)),
    ]
    for group, g, kind in fixed:
        report = assert_matches_sweep(group, g)
        assert (report.vertex_transitive, report.arc_transitive,
                report.two_arc_transitive) == kind
        kinds[kind] += 1
    assert kinds[(False, False, False)]
    assert kinds[(True, False, False)]
    assert kinds[(True, True, False)]


def test_transitivity_matches_sweep_on_small_and_trivial_groups():
    """The trivial group on every builtin graph and on n = 0, 1 and 2;
    K2 and the edgeless graph on two vertices under the swap; 2K4, a
    disconnected vertex-transitive graph, under its automorphism group
    and under Aut(K4) acting on one copy."""
    cases = [(schreier_sims([], degree=g.n), g)
             for _, g in builtin_and_stress_graphs()]
    k2, empty2 = from_edge_list(2, [(0, 1)]), from_edge_list(2, [])
    for g in (from_edge_list(0, []), from_edge_list(1, []), k2, empty2):
        cases.append((schreier_sims([], degree=g.n), g))
    swap = schreier_sims([(1, 0)])
    cases += [(swap, k2), (swap, empty2)]
    two_k4 = from_edge_list(8, [e for i in (0, 4) for e in
                                combinations(range(i, i + 4), 2)])
    aut = automorphism_group(two_k4)
    assert aut.order == 2 * 24 * 24
    one_copy = schreier_sims([g for g in aut.strong_generators
                              if all(g[v] == v for v in range(4, 8))],
                             degree=8)
    cases += [(aut, two_k4), (one_copy, two_k4)]
    for group, g in cases:
        assert_matches_sweep(group, g)
    assert transitivity_report(aut, two_k4).two_arc_transitive
    assert not transitivity_report(one_copy, two_k4).vertex_transitive


def test_transitivity_rejects_non_automorphisms(k4):
    p3_group = schreier_sims([from_cycles(4, [(0, 1)])])
    bad = schreier_sims([from_cycles(4, [(0, 1, 2, 3)])])
    g = path_graph(4)
    with pytest.raises(NotAutomorphisms):
        transitivity_report(bad, g)
    del p3_group


def test_arc_orbits_cases(k4, k33):
    at = automorphism_group(k4)
    assert len(arc_orbits(at.generators, k4)) == 1
    trivial = schreier_sims([], degree=4)
    assert len(arc_orbits(trivial.generators, k4)) == 12
    group = automorphism_group(k33)
    dart, _, labeling = dart_graph(k33)
    lifted = lift_automorphisms(k33, group, labeling)
    orbits = arc_orbits(lifted.generators, dart)
    assert len(orbits) == 2
    assert sorted(map(len, orbits)) == [36, 36]
    assert {(b, a) for a, b in orbits[0]} == set(orbits[1])


def test_arc_orbits_rejects_non_automorphisms(k33):
    dart, _, labeling = dart_graph(k33)
    tau = reversed_darts(labeling)
    assert len(arc_orbits([tau], dart)) == 36
    bad = from_cycles(dart.n, [(0, 1)])
    with pytest.raises(NotAutomorphisms):
        arc_orbits([tau, bad], dart)
    with pytest.raises(NotAutomorphisms):
        arc_orbits([tau[:-1]], dart)


def test_chain_built_only_for_automorphism_group(monkeypatch, petersen):
    """Isomorphism tests and canonical forms read the search alone; an
    entry's analysis builds its Aut(g) chain once, however often it is
    read."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return schreier_sims(*args, **kwargs)

    monkeypatch.setattr(autgroup, "schreier_sims", counted)
    p = tuple((3 * v + 1) % petersen.n for v in range(petersen.n))
    relabeled = relabel(petersen, p)
    assert relabeled != petersen
    assert is_isomorphic(petersen, relabeled) is not None
    canonical_form(petersen)
    assert calls == []
    analysis = _EntryAnalysis(petersen)
    assert analysis.group.order == 120
    assert analysis.group.order == 120
    assert len(calls) == 1


ISOMORPHISM_MAPPING_FAULT = (
    "isomorphism_mapping: edge (0, 4) maps to the non-edge (1, 2)")


def test_isomorphism_mapping_names_check(monkeypatch, petersen):
    """A labeling that does not carry h onto its certificate's graph,
    under a matching certificate, fails isomorphism_mapping with the
    first edge of g that the mapping breaks."""
    relabeled = relabel(petersen, tuple(reversed(range(petersen.n))))
    real = autgroup._analysis

    def forged(g):
        """relabeled's search result with the first two images of its
        labeling swapped: the certificate, read first, still matches."""
        result = copy.copy(real(g))
        if g == relabeled:
            result.certificate
            a, b, *rest = result.labeling
            result.labeling = (b, a, *rest)
        return result

    monkeypatch.setattr(autgroup, "_analysis", forged)
    with pytest.raises(StructureViolation) as info:
        is_isomorphic(petersen, relabeled)
    assert str(info.value) == ISOMORPHISM_MAPPING_FAULT


def test_isomorphism_mapping_check_runs_under_optimize():
    """isomorphism_mapping is a raise, not an assert."""
    code = (
        "import copy, sys\n"
        "from hatkit import autgroup\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.errors import StructureViolation\n"
        "from hatkit.graphs import relabel\n"
        "g = generalized_petersen(5, 2)\n"
        "h = relabel(g, tuple(reversed(range(g.n))))\n"
        "real = autgroup._analysis\n"
        "def forged(x):\n"
        "    result = copy.copy(real(x))\n"
        "    if x == h:\n"
        "        result.certificate\n"
        "        a, b, *rest = result.labeling\n"
        "        result.labeling = (b, a, *rest)\n"
        "    return result\n"
        "autgroup._analysis = forged\n"
        "try:\n"
        "    autgroup.is_isomorphic(g, h)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert run_optimized(code) == ["1"] + ISOMORPHISM_MAPPING_FAULT.split()


ODD_VALENCE_FAULT = ("odd_valence_arc_transitive: 3-valent, 1 vertex orbit, "
                     "edge-transitive, yet 2 arc orbits")


def test_odd_valence_arc_transitive_names_check(monkeypatch, k4):
    """Two arc orbits that are each other's reverse make a vertex- and
    edge-transitive action on a cubic graph that is not arc-transitive:
    odd_valence_arc_transitive fails with the valence and the count."""
    def forged(group, g):
        """Transitive on vertices, with two arc orbits: the arcs (u, v)
        with u < v, and their reverses."""
        up = tuple((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
        return True, (up, tuple((v, u) for u, v in up)), False

    monkeypatch.setattr(autgroup, "_arc_action", forged)
    with pytest.raises(StructureViolation) as info:
        transitivity_report(automorphism_group(k4), k4)
    assert str(info.value) == ODD_VALENCE_FAULT


def test_odd_valence_arc_transitive_check_runs_under_optimize():
    """odd_valence_arc_transitive is a raise, not an assert."""
    code = (
        "import sys\n"
        "from hatkit import autgroup\n"
        "from hatkit.census import complete_graph\n"
        "from hatkit.errors import StructureViolation\n"
        "def forged(group, g):\n"
        "    up = tuple((u, v) for u in range(g.n) for v in g.adj[u] "
        "if u < v)\n"
        "    return True, (up, tuple((v, u) for u, v in up)), False\n"
        "autgroup._arc_action = forged\n"
        "g = complete_graph(4)\n"
        "try:\n"
        "    autgroup.transitivity_report(autgroup.automorphism_group(g), g)\n"
        "except StructureViolation as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert run_optimized(code) == ["1"] + ODD_VALENCE_FAULT.split()


def cell_bound(g):
    """U: the product of the sizes of the target cells along the first
    path of g's search."""
    return prod(len(cell) for cell in autgroup._analysis(g).first_cells)


def chain_graphs():
    """The builtin and stress graphs, one seeded relabeling of each, the
    dart graphs of the connected cubic ones, and the graphs of
    test_oracle_equivalence_random."""
    rng = random.Random(31)
    pinned = [g for g, _ in pinned_graphs()]
    graphs = pinned + [relabel(g, tuple(rng.sample(range(g.n), g.n)))
                       for g in pinned]
    graphs += [dart_graph(g)[0] for g in pinned
               if set(g.degrees()) == {3} and is_connected(g)]
    return graphs + oracle_random_graphs()


def test_bounded_chain_matches_closure_reference():
    """Aut(g)'s chain, built under the cell bound, equals the full
    closure on the first path in order, base, strong generators and
    basic orbits, and gives the same contains verdicts on products of
    generators and on random permutations."""
    rng = random.Random(32)
    graphs = chain_graphs()
    assert sum(g.n == 270 for g in graphs) == 1    # Dart(Foster)
    for g in graphs:
        result = autgroup._analysis(g)
        group = automorphism_group(g)
        reference = schreier_sims(result.generators, degree=g.n,
                                  base=result.first_path)
        assert group.order == reference.order
        assert group.base == reference.base == result.first_path
        assert group.strong_generators == reference.strong_generators
        assert group.basic_orbits == reference.basic_orbits
        samples = [tuple(rng.sample(range(g.n), g.n)) for _ in range(3)]
        for _ in range(3):
            p = tuple(range(g.n))
            for _ in range(4):
                if group.generators:
                    p = compose(p, rng.choice(group.generators))
            samples.append(p)
        for p in samples:
            assert group.contains(p) == reference.contains(p)


@pytest.fixture()
def strip_calls(monkeypatch):
    """The argument tuples of every perms._strip call the test makes."""
    calls = []
    real = perms._strip

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perms, "_strip", counted)
    return calls


def test_bounded_chain_sifts_nothing(strip_calls):
    """On the builtin and stress graphs and their relabelings the cell
    bound equals |Aut(g)|, so the build stops before the closure: no
    Schreier generator is sifted."""
    rng = random.Random(33)
    for g, order in pinned_graphs():
        for h in (g, relabel(g, tuple(rng.sample(range(g.n), g.n)))):
            autgroup._analysis.cache_clear()
            assert automorphism_group(h).order == cell_bound(h) == order
    assert strip_calls == []


def paley_graph(q):
    """The Paley graph of the prime q = 1 mod 4: x ~ y when x - y is a
    nonzero square mod q."""
    squares = {x * x % q for x in range(1, q)}
    return from_edge_list(q, [(x, y) for x in range(q)
                              for y in range(x + 1, q) if y - x in squares])


BEYOND_CENSUS = {
    "dart_foster": (lambda: dart_graph(STRESS_GRAPHS[-1]())[0], 8640),
    "pgl2_11": (lambda: pgl2_graph(11), 1320),
    "paley29": (lambda: paley_graph(29), 29 * 28 // 2),
}


@pytest.mark.parametrize("name", BEYOND_CENSUS)
def test_canonical_form_and_exact_bound_beyond_census(strip_calls, name):
    """Two seeded relabelings of Dart(Foster) (270 vertices), PGL(2, 11)
    (220) and Paley(29) have equal certificates and |Aut|, is_isomorphic
    maps one onto the other by a verified isomorphism, and the cell bound
    is exactly |Aut|, so the chain's build sifts no Schreier generator."""
    build, order = BEYOND_CENSUS[name]
    rng = random.Random(name)
    g = build()
    pair = [relabel(g, tuple(rng.sample(range(g.n), g.n))) for _ in range(2)]
    autgroup._analysis.cache_clear()
    for h in pair:
        assert automorphism_group(h).order == cell_bound(h) == order
    assert canonical_form(pair[0])[1] == canonical_form(pair[1])[1]
    mapping = is_isomorphic(*pair)
    assert mapping is not None
    assert isomorphism_fault(mapping, *pair) == ""
    assert strip_calls == []
    autgroup._analysis.cache_clear()


# seeded random regular graphs whose cell bound exceeds |Aut(g)|: (seed,
# order, valence, bound, |Aut(g)|)
LOOSE_BOUND_GRAPHS = [(0, 8, 5, 96, 60), (1, 8, 4, 32, 16),
                      (8, 8, 3, 32, 12)]


@pytest.mark.parametrize("seed,n,k,bound,order", LOOSE_BOUND_GRAPHS)
def test_loose_cell_bound_runs_closure(strip_calls, seed, n, k, bound,
                                       order):
    """Where the cell bound exceeds |Aut(g)| the build cannot stop at it:
    the closure sifts Schreier generators and the order matches the
    brute-force oracle."""
    g = random_regular(random.Random(seed), n, k)
    autgroup._analysis.cache_clear()
    assert cell_bound(g) == bound
    assert automorphism_group(g).order == brute_force_aut_order(g) == order
    assert strip_calls


def test_cell_bound_never_below_order():
    """U >= |Aut(g)| on every oracle graph, |Aut(g)| by brute force."""
    for g in oracle_random_graphs() + oracle_regular_graphs():
        assert cell_bound(g) >= brute_force_aut_order(g)
    for g, order in pinned_graphs():
        assert cell_bound(g) == order


def shrunk_cells(cells, level):
    """cells with the last vertex of the one at level removed."""
    return cells[:level] + (cells[level][:-1],) + cells[level + 1:]


@pytest.mark.parametrize("level", [0, -1])
def test_orbit_outside_cell_names_check(monkeypatch, petersen, level):
    """With the first or the last recorded target cell of Petersen's first
    path shrunk, the basic orbit of its level reaches the dropped vertex,
    and aut_orbit_in_first_cell fails with the level and that vertex."""
    autgroup._analysis.cache_clear()
    result = autgroup._analysis(petersen)
    assert len(result.first_path) == len(result.first_cells) > 1
    level %= len(result.first_path)
    dropped = result.first_cells[level][-1]
    monkeypatch.setattr(result, "first_cells",
                        shrunk_cells(result.first_cells, level))
    with pytest.raises(StructureViolation) as info:
        automorphism_group(petersen)
    assert str(info.value) == (
        f"aut_orbit_in_first_cell: level {level} orbit of "
        f"{result.first_path[level]} reaches {dropped}, outside its "
        "target cell")
    autgroup._analysis.cache_clear()


@pytest.mark.parametrize("level", [0, -1])
def test_orbit_outside_cell_builds_one_chain(monkeypatch, petersen, level):
    """When the bounded build stops at OrderBoundExceeded, with the first
    or the last target cell of Petersen's first path shrunk, the check
    runs on the partial chain the error carries: one chain is built, and
    the witness is the one a check of the full closure gives."""
    autgroup._analysis.cache_clear()
    result = autgroup._analysis(petersen)
    path = result.first_path
    cells = shrunk_cells(result.first_cells, level % len(path))
    monkeypatch.setattr(result, "first_cells", cells)
    real = autgroup.schreier_sims
    bounds = []

    def counted(*args, **kwargs):
        bounds.append(kwargs.get("order_bound"))
        return real(*args, **kwargs)

    monkeypatch.setattr(autgroup, "schreier_sims", counted)
    with pytest.raises(StructureViolation) as info:
        automorphism_group(petersen)
    assert bounds == [prod(map(len, cells))]
    closure = real(result.generators, degree=petersen.n, base=path)
    with pytest.raises(StructureViolation) as reference:
        autgroup._check_orbits_in_cells(closure, path, cells)
    assert str(info.value) == str(reference.value)
    autgroup._analysis.cache_clear()


def test_orbit_outside_cell_check_runs_under_optimize():
    """aut_orbit_in_first_cell is a raise, not an assert."""
    code = (
        "import sys\n"
        "from hatkit import autgroup\n"
        "from hatkit.census import generalized_petersen\n"
        "from hatkit.errors import StructureViolation\n"
        "g = generalized_petersen(5, 2)\n"
        "result = autgroup._analysis(g)\n"
        "cells = result.first_cells\n"
        "result.first_cells = (cells[0][:-1],) + cells[1:]\n"
        "try:\n"
        "    autgroup.automorphism_group(g)\n"
        "except StructureViolation as exc:\n"
        "    name, detail = str(exc).split(':', 1)\n"
        "    print(sys.flags.optimize, name, detail.split(',')[0])\n"
    )
    assert run_optimized(code) == ["1", "aut_orbit_in_first_cell", "level",
                                   "0", "orbit", "of", "0", "reaches", "9"]
