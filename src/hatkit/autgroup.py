"""Automorphism groups, canonical forms and transitivity classification.

The engine is an individualization-refinement backtracking search.  The
refinement is the coarsest equitable refinement (every vertex of a cell
has the same number of neighbours in every cell); after its first round
it counts neighbours only in the parts the round before created, less
the largest part of each split cell (nauty's splitter counting, McKay
and Piperno 2014), and it ignores neighbours in singleton cells, which
cannot split.  The target cell is the first largest cell and its
vertices are individualized in increasing order; a large target makes a
short first path, as in Traces (McKay and Piperno 2014), and the rule
reads only the cell sizes, so it is isomorphism invariant and nodes with
equal traces target one position, all that the arguments below ask.
Discovered automorphisms prune sibling branches whose candidate lies in
the orbit of an already explored candidate under the subgroup fixing the
current individualization prefix pointwise.

The search carries each node's refined partition down to its children
(`_Partition`): the cells, each a sorted tuple named by its end (the
position of its last vertex), the names in order, each vertex's cell
name and the flags of the non-singleton cells.  A child copies these at
C level, individualizes its vertex and refines the copy in place;
nothing is rebuilt from a tuple of cells.  Names order like cell
indices, so signatures and trace positions keep their values.
Individualizing v renames only v, a split renames only its parts
before the last, which keeps the cell's name, and at a leaf each
vertex's name is its position, the labeling.  Split parts are ordered
by a flat key that orders exactly like the (cell, count) signature
(`_refine_in_place` has the proof).

The root is the coarsest equitable refinement of the unit partition, split
further by a vertex invariant when it is not discrete (McKay and Piperno
2014 use invariants the same way).  On a regular graph the unit partition
is already equitable, as every vertex has its k neighbours in the one
cell, so it is not refined.  Each non-singleton cell is split by the
sizes |S_1(v)|, |S_2(v)|, |S_3(v)| of the distance spheres around its
vertices, the parts ordered by that value and each kept sorted, and the
result is refined once more.  The sizes of all vertices are computed in
one sweep over int bitsets of the distance balls (`_sphere_sizes`).
Sphere sizes are isomorphism invariant, so the root, like the equitable
one, is carried onto the root of g's image by every isomorphism and
mapped onto itself cell by cell by every automorphism; these two facts
are all that the arguments below ask of the root, and they hold
unchanged.  On a regular graph with a small group the equitable root is
one cell, and the split usually makes it discrete.  On a
vertex-transitive graph the value is constant and the root is the
equitable one.

Every refinement leaves a trace: one event per split, the position of
the first part in the new partition and the sizes of the parts in order.
A node's traces are those of the refinements on its path, one per level.
Refinement commutes with isomorphisms, so an automorphism that maps one
node onto another gives both the same traces; and nodes whose traces
agree have equal cell sizes, so they individualize at one position and
their children's traces compare level by level.

Each leaf is a discrete partition, read as a relabeling of the graph.
It is ranked by its traces, then by the integer key of the relabeled
upper triangle (`_leaf_key`), which orders like the graph6 strings of
the relabeled graphs but costs O(|E|) Python steps (and a C-level read
of its n(n-1)/16 bytes) and builds no graph.  Two leaves
with equal keys differ by an automorphism, so their traces agree too.
The canonical leaf is the minimum of (traces, key) over all leaves, and
the certificate is the graph6 string of the graph relabeled by it,
encoded once per search from that leaf's bit layout, with no relabeled
graph built.  Isomorphic graphs have isomorphic search trees
with the same traces and keys, hence the same certificate.

The search keeps the traces of the first leaf and of the best leaf so
far (McKay and Piperno, "Practical graph isomorphism, II", 2014).  While
a child is refined, its trace is compared event by event with each of
the two at the child's level, as long as the parent's traces are that
leaf's.  The child is dropped as soon as its trace has left the first
leaf's and is greater than the best leaf's.  A node whose traces follow
the first leaf's but not the best's lies above the best leaf, which is
never above the first; a node that follows neither lies below it, since
one above it that left the first path was dropped.  A dropped child
counts as explored: the children in its orbit carry its traces.

- The global minimum leaf is never dropped.  Its (traces, key) is never
  above the best's, so no prefix of its traces exceeds the best path's
  prefix at that level.
- Automorphic images of nodes of the first path carry the first path's
  traces and are never dropped, so the argument below, that the
  generators are strong on the first path, holds for the pruned search.
- Orbit pruning and the unwind below skip only a subtree that an
  automorphism maps onto one explored earlier.  Automorphisms preserve
  traces and keys, and the best leaf only improves, so the image of each
  skipped node was reached, or dropped against a best no better than
  the current one.  The skipped subtree holds no leaf below the best,
  and the first leaf in search order among the minimal ones is reached.

When a leaf repeats the key of an earlier leaf, the automorphism between
the two is recorded and the search leaves the current subtree at once,
resuming with the next child of the two paths' deepest common ancestor A.
Both children of A were individualized in A's target cell, so they sit
at one position in both leaves: the automorphism fixes A's path and maps
one child onto the other, and the current child's subtree onto the
other's, traces and keys included.  The minimum (traces, key) and the
first leaf reaching it do not change.  Below a node of the first path, a
child in the orbit of the first child under the node's stabiliser is
either pruned as lying in the orbit of explored children, or its subtree
ends in a repeat of a key seen below an earlier child.  So the
generators that fix a prefix of the first path are transitive on that
orbit: they are a strong generating set on the first path, which is a
base because its leaf is discrete.  automorphism_group builds Aut(g)'s
chain on that base.

The chain is built under a proven order bound U, the product of the
sizes of the target cells C_0, ..., C_{k-1} along the first path
b_0, ..., b_{k-1}, whatever generators the search found.  An automorphism
fixing b_0, ..., b_{i-1} maps the partition of the node at level i onto
itself cell by cell, so the orbit of b_i under the pointwise stabiliser
of b_0, ..., b_{i-1} lies in C_i; the first leaf is discrete, so the
stabiliser of the whole path is trivial, and |Aut(g)| is the product of
those orbit sizes, at most U.  The chain of the search's generators S,
each checked to be an automorphism (leaf_pair_automorphism, before the
search records it), has a basic-orbit product L with
L <= |<S>| <= |Aut(g)| <= U.  L = U therefore proves the chain complete
and <S> = Aut(g), and schreier_sims stops as soon as its basic orbits
fill the cells, sifting no Schreier generator.  When the generators are
not strong, or U exceeds |Aut(g)|, L stays below U and the build runs
the full closure.  Either way the chain's base must be the first path
and each basic orbit must lie in its level's cell (the named check
aut_orbit_in_first_cell); a refinement that is not equivariant fails it
whenever a found automorphism shows it, and so does every L above U.
An L above U stops the build (OrderBoundExceeded) and the check runs on
the partial chain, the only chain built: a base longer than the path
fails it at once, and on the path's base, orbits all inside their cells
would give L <= U, so one of them leaves its cell.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import accumulate, filterfalse
from math import prod
from operator import getitem, or_, sub

from .errors import (
    NotAutomorphisms,
    OrderBoundExceeded,
    StructureViolation,
    TooLarge,
    check_fault,
)
from .graphs import Graph, edge_map_fault, relabel, valence
from .graph6 import _bit_layout, _encode
from .records import Record
from .perms import (
    PermGroup,
    compose,
    identity,
    inverse,
    is_identity,
    orbits,
    schreier_sims,
)

_MAX_VERTICES = 10_000
_SPHERE_DEPTH = 3       # distance spheres measured by the root invariant

def unit_partition(g: Graph) -> tuple:
    """The ordered partition of 0..n-1 into one cell, as a tuple of
    cells, each a tuple of vertices."""
    return (tuple(range(g.n)),) if g.n else ()


class _Partition:
    """An ordered partition of 0..n-1 into sorted cells, in the form the
    search carries from a node to its children.

    Each cell is named by its end, the position of its last vertex in the
    ordered partition, so names order like cell indices.  cell_at maps
    each name to its cell, names lists the names in order, cell_id maps
    each vertex to its cell's name, and free[v] is 1 while v's cell is not
    a singleton.  A child is a C-level copy of these, with one vertex
    split off the front of its cell; the rest of the cell keeps its name.
    """

    __slots__ = ("cell_at", "names", "cell_id", "free")

    def __init__(self, n, cells):
        self.names = [end - 1 for end in accumulate(map(len, cells))]
        self.cell_at = dict(zip(self.names, cells))
        self.cell_id, self.free = [0] * n, bytearray(n)
        for name, cell in self.cell_at.items():
            for v in cell:
                self.cell_id[v], self.free[v] = name, len(cell) > 1

    def partition(self) -> tuple:
        return tuple(map(self.cell_at.__getitem__, self.names))

    def target(self):
        """The name of the first largest cell, None when the partition is
        discrete: a large target makes a short first path."""
        sizes = list(map(sub, self.names, [-1] + self.names))
        large = max(sizes, default=1)
        return self.names[sizes.index(large)] if large > 1 else None

    def child(self, v):
        """A copy with v individualized: ..., (v,), cell - {v}, ..."""
        child = _Partition.__new__(_Partition)
        child.cell_at, child.names = self.cell_at.copy(), self.names[:]
        child.cell_id, child.free = self.cell_id[:], self.free[:]
        end = self.cell_id[v]
        cell = self.cell_at[end]
        i = cell.index(v)
        rest = child.cell_at[end] = cell[:i] + cell[i + 1:]
        name = child.cell_id[v] = end - len(rest)
        child.cell_at[name] = (v,)
        child.names.insert(bisect_left(self.names, end), name)
        child.free[v], child.free[rest[0]] = 0, len(rest) > 1
        return child


def _flat_key(ids, top):
    """The names ids sorted, each repeat of a name overwritten by top, a
    value above every name (see _refine_in_place)."""
    ids = sorted(ids)
    i = len(ids) - 1
    while i > 0:
        if ids[i] == ids[i - 1]:
            ids[i] = top
        i -= 1
    return ids


def _refine_in_place(g, node, first=None, best=None, moved=None):
    """Coarsest equitable refinement of the ordered partition node, in
    place, returning the trace.

    Cells split by the multiset of (cell index, neighbour count) pairs of
    their vertices; split parts are ordered by ascending signature, so the
    result depends only on the isomorphism type of (g, node).

    Each round splits the cells by their vertices' neighbour counts in
    some cells of the partition the round starts from.  The first round
    counts in every cell, which signs every cell in full.  Every cell of a
    later round's partition is uniform against the partition before it,
    so the round splits it exactly by the counts in the parts the round
    before created; the largest part of each split cell is left out,
    since a count in it is the old count minus those in the other parts.
    Only the neighbours of counted parts are looked at, and of those only
    the ones in cells that are not singletons.  Split parts are ordered
    by the signature of one vertex each.

    moved lists whole cells one after another, such that two vertices of
    one cell with equal neighbour counts in each of those cells have equal
    counts in every cell; the first round counts in them, in every cell
    when moved is None.  A child of a search node passes its
    individualized vertex v: the parent's partition was equitable, so a
    vertex's count in the rest of v's old cell is its old count there
    minus its count in {v}.

    Cells are named by their ends, which order like their indices, so
    signatures compare as with indices.  A split gives its last part the
    old cell's name and renames only the vertices of the parts before it.
    In a child's first round the untouched vertices of a split cell have
    the greatest key, as they have no neighbour in {v}, which is named
    below the rest of v's old cell: they come last and keep their name.
    A cell of two vertices that split becomes two singletons by comparing
    the two vertices' keys, without the grouping dict or the general split
    loop; in the search of Foster's LCF labeling (11 refinements) 199 of
    the 289 splits are such.  A trace event's position is the cell's rank
    among the names.  Each split is applied as it is found, in the order
    of the names, but cell_id is renamed only after the round, since keys
    read the names the round started from.

    A cell's hits are its vertices with a neighbour in the counted parts,
    grouped by cell as they are counted; the rest of the cell is one
    part.  When the hits are fewer than an eighth of the cell, that part
    is cut from the sorted cell as the slices between the sorted hits,
    one bisection each, so the split costs O(hits) Python steps however
    large the cell; otherwise a C-level filter over the cell is faster.

    Split parts are ordered by a flat key: the sorted names of one
    vertex's neighbours' cells, each repeat of a name written as top, a
    value above every name.  It orders like the signature, the list of
    (cell, count) pairs.  Two keys are equal exactly when the pair lists
    are, as the key spells out each pair.  At the first index where two
    keys differ, either both start a new run, at two different names, and
    the pair lists differ first in those names in the same order, or one
    key continues a run (top) that the other has ended (with a greater
    name, or its end), and the pair lists differ first in that run's
    count, the longer run's list being the greater.

    The trace has one event per split, in the order the splits happen:
    the position of the first part in the new partition, then the sizes
    of the parts in order.  It ends with the empty event, which is below
    every other, so traces compare as tuples.  Like the partition, the
    trace depends only on the isomorphism type of (g, cells).

    first and best are the traces of the search's first and best leaf at
    this level, each None once the node's traces differ from that leaf's
    at an earlier level.  A node with first but no best lies above the
    best leaf; one with neither lies below it.  The refinement stops and
    returns None as soon as the trace has left first and is greater than
    best; node is then left part-refined.  With neither, nothing can drop
    the node, and its events are only recorded.
    """
    adj = g.adj
    trace = []
    record = trace.append
    on_first = first is not None
    watched = on_first or best is not None
    # -1, 0, 1: the trace is below, equal to so far, above best's
    order = 0 if best is not None else 1 if on_first else -1

    def dropped():
        """Whether the event just recorded drops the node."""
        nonlocal on_first, order
        k = len(trace) - 1
        event = trace[k]
        if on_first and event != first[k]:
            on_first = False
        if order == 0 and event != best[k]:
            order = 1 if event > best[k] else -1
        return order > 0 and not on_first

    # a singleton cannot split, so neighbours in singletons are not counted
    cell_at, names, cell_id, free = node.cell_at, node.names, node.cell_id, node.free
    part_id, top = cell_id.__getitem__, g.n
    if moved is None:
        moved = [v for name in names for v in cell_at[name]]
    while True:
        # moved lists each part whole, so equal counts into the parts give
        # equal lists of part ids
        counts, touched = {}, {}
        for w in moved:
            part = cell_id[w]
            for u in adj[w]:
                if free[u]:
                    ids = counts.get(u)
                    if ids is None:
                        counts[u] = [part]
                        touched.setdefault(cell_id[u], []).append(u)
                    else:
                        ids.append(part)
        moved, renamed = [], []
        # names already holds the parts made earlier in this round
        for end in sorted(touched):
            cell, hit = cell_at[end], touched[end]
            if len(cell) == 2:
                a, b = cell
                if len(hit) == 2 and counts[a] == counts[b]:
                    continue
                # two singletons, ordered by their keys; the second is counted
                if (_flat_key(map(part_id, adj[b]), top)
                        < _flat_key(map(part_id, adj[a]), top)):
                    a, b = b, a
                index = bisect_left(names, end)
                record((index, 1, 1))
                if watched and dropped():
                    return None
                cell_at[end - 1], cell_at[end] = (a,), (b,)
                names.insert(index, end - 1)
                renamed.append((end - 1, (a,)))
                moved.append(b)
                free[a] = free[b] = 0
                continue
            hit.sort()                      # cells are sorted, parts too
            groups = {}
            for v in hit:
                groups.setdefault(tuple(counts[v]), []).append(v)
            if len(hit) < len(cell):
                if 8 * len(hit) < len(cell):
                    # the slices of the sorted cell between the hits
                    rest, start = [], 0
                    for v in hit:
                        i = bisect_left(cell, v, start)
                        rest += cell[start:i]
                        start = i + 1
                    rest += cell[start:]
                else:
                    rest = filterfalse(counts.__contains__, cell)
                groups[()] = rest
            if len(groups) == 1:
                continue
            parts = sorted(map(tuple, groups.values()), key=lambda part:
                           _flat_key(map(part_id, adj[part[0]]), top))
            sizes = list(map(len, parts))
            index = bisect_left(names, end)
            record((index, *sizes))
            if watched and dropped():
                return None
            largest = sizes.index(max(sizes))
            name = end - len(cell)
            for i, part in enumerate(parts):
                name += sizes[i]
                cell_at[name] = part
                if name != end:
                    names.insert(index + i, name)
                    renamed.append((name, part))
                if i != largest:
                    moved += part
                free[part[0]] = sizes[i] > 1
        if not moved:           # every split counts one of its parts
            break
        for name, part in renamed:
            for v in part:
                cell_id[v] = name
    record(())
    if watched and dropped():
        return None
    return tuple(trace)


def _sphere_sizes(g):
    """[(|S_1(v)|, ..., |S_d(v)|) for v = 0..n-1], d = _SPHERE_DEPTH: the
    numbers of vertices at distance 1, ..., d from each vertex.

    All vertices are swept at once.  ball_r(v), the vertices within
    distance r of v, is held as an int bitset: ball_r(v) is ball_{r-1}(v)
    or'ed with ball_{r-1}(u) over the neighbours u of v, and |S_r(v)| is
    |ball_r(v)| - |ball_{r-1}(v)|, where |ball_1(v)| = 1 + deg v.  The
    deepest balls are counted and not kept."""
    adj = g.adj
    balls = [1 << v for v in range(g.n)]
    inner, spheres = [1] * g.n, []
    for r in range(1, _SPHERE_DEPTH + 1):
        get = balls.__getitem__
        grown = (reduce(or_, map(get, nbrs), ball)
                 for ball, nbrs in zip(balls, adj))
        if r < _SPHERE_DEPTH:
            grown = balls = list(grown)
        outer = ([1 + len(nbrs) for nbrs in adj] if r == 1
                 else list(map(int.bit_count, grown)))
        spheres.append(map(sub, outer, inner))
        inner = outer
    return list(zip(*spheres))


def _split_by_spheres(g, partition):
    """The cells of partition, each split by its vertices' sphere sizes
    into parts in increasing order of them, each part sorted."""
    sizes = _sphere_sizes(g)
    cells = []
    for cell in partition:
        parts = {}
        for v in cell:
            parts.setdefault(sizes[v], []).append(v)
        cells.extend(tuple(parts[value]) for value in sorted(parts))
    return cells


def _leaf_key(g, pi):
    """Sum of 2^(L-1-pos(i, j)) over the edges ij, i < j, of g relabeled
    by pi, where L = n(n-1)/2 and pos(i, j) = j(j-1)/2 + i.

    It is graph6's bit layout of the relabeled edges (`_bit_layout`) read
    as one big-endian integer, less its zero padding.  graph6 writes the
    same bits after a header fixed by n, so for graphs of one order the
    key orders exactly like graph6.
    """
    buf, padding = _bit_layout(g.n, g.edges, pi)
    return int.from_bytes(buf, "big") >> padding


class _Search:
    """One full IR search over a graph: automorphism generators plus the
    leaf of minimum (traces, key)."""

    def __init__(self, g):
        self.g = g
        self.aut_gens = []
        self._gen_set = set()
        self.leaves = {}          # leaf key -> (labeling, path) of first leaf
        self.first_path = None
        self.first_cells = []     # target cells of the nodes of that path
        self.first_traces = None  # per-level refinement traces of that path
        self.best = None          # (per-level traces, key) of the best leaf
        self.best_pi = None

    def run(self):
        root = _Partition(self.g.n, unit_partition(self.g))
        # every vertex of a regular graph has its k neighbours in the one
        # cell: the unit partition is already equitable
        if valence(self.g) is None:
            _refine_in_place(self.g, root)
        if root.target() is not None:
            cells = _split_by_spheres(self.g, root.partition())
            if len(cells) > len(root.names):
                root = _Partition(self.g.n, cells)
                _refine_in_place(self.g, root)
        self._explore(root, (), ())
        return self

    def _explore(self, node, path, traces):
        """Search the subtree below path, whose node is refined; returns
        the depth to unwind to, below len(path) when a leaf showed this
        subtree equivalent to one explored before."""
        name = node.target()
        if name is None:
            return self._leaf(node, path, traces)
        depth = len(path)
        cell = node.cell_at[name]
        if self.first_path is None:
            # no leaf yet: every node so far lies on the first path
            self.first_cells.append(cell)
        # An automorphism fixing the path pointwise maps the node's partition,
        # hence the target cell, onto itself.  So the cell's orbits under the
        # generators found so far that fix the path, each named by its least
        # vertex, lie in orbits of the path's stabiliser.  A union-find over
        # the cell merges along each new such generator; before the first,
        # every vertex is its own orbit.
        explored, done, root, known = [], set(), {}, 0

        def find(x):
            while x in root:    # with path halving
                root[x] = x = root.get(root[x], root[x])
            return x

        for v in cell:
            if explored and len(self.aut_gens) > known:
                for a in self.aut_gens[known:]:
                    if all(a[q] == q for q in path):
                        for w in cell:
                            x, y = find(w), find(a[w])
                            if x != y:
                                root[max(x, y)] = min(x, y)
                known = len(self.aut_gens)
                done = {find(w) for w in explored}
            orbit = find(v)
            if orbit in done:
                continue
            child = node.child(v)
            trace = _refine_in_place(self.g, child, *self._references(traces), (v,))
            if trace is not None:
                back = self._explore(child, path + (v,), traces + (trace,))
                if back < depth:
                    return back
            explored.append(v)
            done.add(orbit)
        return depth

    def _references(self, traces):
        """The first and the best leaf's traces one level below a node
        with these traces, each None unless the node's traces are that
        leaf's so far; both None before the first leaf."""
        if self.first_traces is None:
            return None, None
        depth = len(traces)
        return tuple(ref[depth] if ref[:depth] == traces else None
                     for ref in (self.first_traces, self.best[0]))

    def _leaf(self, node, path, traces):
        """Record a leaf, a discrete node, whose cell names are the
        vertices' positions; returns the depth of the deepest common
        ancestor with the first leaf of equal key, else len(path)."""
        pi = tuple(node.cell_id)
        if self.first_path is None:
            self.first_path = path
            self.first_traces = traces
        key = _leaf_key(self.g, pi)
        if self.best is None or (traces, key) < self.best:
            self.best = traces, key
            self.best_pi = pi
        seen = self.leaves.get(key)
        if seen is None:
            self.leaves[key] = pi, path
            return len(path)
        other, other_path = seen
        aut = compose(pi, inverse(other))
        if not is_identity(aut) and aut not in self._gen_set:
            check_fault("leaf_pair_automorphism",
                        edge_map_fault(aut, self.g, self.g))
            self._gen_set.add(aut)
            self.aut_gens.append(aut)
        # aut fixes the common prefix and maps this path's next vertex onto
        # the other's, so the rest of this subtree repeats seen keys.
        return next(i for i, (v, w) in enumerate(zip(path, other_path))
                    if v != w)


class _SearchResult:
    """What one IR search leaves behind: the automorphism generators, the
    path of the first leaf and the target cells along it, and the
    canonical labeling and certificate, the certificate encoded on its
    first read (canonical_form and is_isomorphic read it).  The leaf
    table is not kept, and no chain: automorphism_group builds one per
    call.  _analysis keeps the result of the graph in hand only."""

    __slots__ = ("generators", "first_path", "first_cells", "labeling",
                 "_g", "_certificate")

    def __init__(self, search):
        self.generators = tuple(search.aut_gens)
        self.first_path = search.first_path
        self.first_cells = tuple(search.first_cells)
        self.labeling = search.best_pi
        self._g = search.g
        self._certificate = None

    @property
    def certificate(self):
        if self._certificate is None:
            self._certificate = _encode(self._g.n, self._g.edges, self.labeling)
        return self._certificate


def _check_vertex_bound(g: Graph):
    """TooLarge unless the search may run on g."""
    if g.n > _MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the {_MAX_VERTICES} vertex bound")


@lru_cache(maxsize=1)
def _analysis(g: Graph) -> _SearchResult:
    _check_vertex_bound(g)
    return _SearchResult(_Search(g).run())


def _check_orbits_in_cells(group, path, cells):
    """The named check aut_orbit_in_first_cell: the chain's base is the
    first path and each basic orbit lies in its level's target cell."""
    if group.base != path:
        raise StructureViolation(
            f"aut_orbit_in_first_cell: base {group.base} is not the first "
            f"path {path}")
    for level, (orbit, cell) in enumerate(zip(group.basic_orbits, cells)):
        cell = set(cell)
        stray = next((x for x in orbit if x not in cell), None)
        if stray is not None:
            raise StructureViolation(
                f"aut_orbit_in_first_cell: level {level} orbit of "
                f"{path[level]} reaches {stray}, outside its target cell")


def automorphism_group(g: Graph) -> PermGroup:
    """The full automorphism group, with exact BSGS-certified order.

    Each call builds the stabiliser chain from the search's generators,
    on the base of the search's first path and under the order bound of
    its target cells (see the module docstring).  The chain is the
    caller's to keep (cli._EntryAnalysis.group holds one entry's);
    isomorphism tests and canonical forms read the search alone.
    """
    result = _analysis(g)
    path, cells = result.first_path, result.first_cells
    try:
        group = schreier_sims(result.generators, degree=g.n, base=path,
                              order_bound=prod(map(len, cells)))
    except OrderBoundExceeded as exc:
        # L > U, and orbits inside their cells give L <= U: some basic
        # orbit of the partial chain left its cell, and the check names
        # the level and the vertex
        _check_orbits_in_cells(exc.group, path, cells)
        raise
    _check_orbits_in_cells(group, path, cells)
    return group


def canonical_form(g: Graph):
    """(canonically relabeled graph, certificate bytes).

    Certificates of two graphs coincide exactly when the graphs are
    isomorphic; the certificate is the graph6 encoding of the relabeled
    graph.
    """
    result = _analysis(g)
    return relabel(g, result.labeling), result.certificate


def is_isomorphic(g: Graph, h: Graph):
    """A vertex bijection g -> h when one exists, else None.

    The returned tuple maps each vertex of g to a vertex of h and is
    verified to carry edges to edges bijectively.
    """
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return None
    if g == h:
        return identity(g.n)
    search_g, search_h = _analysis(g), _analysis(h)
    if search_g.certificate != search_h.certificate:
        return None
    mapping = compose(search_g.labeling, inverse(search_h.labeling))
    check_fault("isomorphism_mapping", edge_map_fault(mapping, g, h))
    return mapping


class TransitivityReport(Record):
    """How a supplied group acts on a graph.

    half_arc_transitive means vertex- and edge- but not arc-transitive;
    the flags always satisfy two_arc => arc => edge.  arc_orbits is the
    orbit partition of the arcs, ordered by smallest arc.
    """

    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    two_arc_transitive: bool
    half_arc_transitive: bool
    arc_orbit_count: int
    arc_orbits: tuple

    _hidden = frozenset({"arc_orbits"})


def _check_automorphisms(generators, g):
    """NotAutomorphisms unless each generator is an automorphism of g,
    naming the first that is not: its index and its degree, or the first
    edge it maps to a non-edge."""
    for i, gen in enumerate(generators):
        fault = (f"it has degree {len(gen)}, the graph order {g.n}"
                 if len(gen) != g.n else edge_map_fault(gen, g, g))
        if fault:
            raise NotAutomorphisms(
                f"generator {i} does not preserve adjacency: {fault}")


def _pair_act(s, pair):
    return s[pair[0]], s[pair[1]]


def arc_orbits(generators, g: Graph):
    """Orbit partition of the 2|E| arcs under the group the generators
    generate, ordered by smallest arc.

    Orbits need generators only, so no stabiliser chain is built; each
    generator must be an automorphism of g.
    """
    _check_automorphisms(generators, g)
    arcs = [(u, v) for u in range(g.n) for v in g.adj[u]]
    return tuple(orbits(arcs, generators, _pair_act))


def _arc_action(group: PermGroup, g: Graph):
    """(vertex_transitive, arc_orbits, two_arc_transitive) of a group of
    automorphisms of g of degree g.n, with arc_orbits as arc_orbits
    gives it and two_arc_transitive at most one 2-arc orbit for an action
    with at most one arc orbit.

    A transitive group with one suborbit is read off its chain, with no
    sweep.  Let b = base[0] and G_b the stabiliser of b.  The group is
    transitive exactly when b's basic orbit is every vertex.  Then every
    arc orbit meets the arcs out of b in one G_b-orbit on the neighbours
    of b (a suborbit), so one suborbit makes every arc one orbit.  Every
    2-arc orbit meets the 2-arcs through b in one G_b-orbit on ordered
    pairs of distinct neighbours of b, so an arc-transitive action is
    2-arc-transitive exactly when those k(k-1) pairs form one G_b-orbit.

    G_b is generated by the strong generators S that fix b.  Write
    H_i for the group generated by those fixing base[:i], so H_0 = G,
    and D_i for level i's basic orbit, the orbit of base[i] under H_i
    or, in a build stopped early, under a subgroup of it.  H_(i+1) fixes
    base[i], so |H_i| = |base[i]^(H_i)| |(H_i)_base[i]| >= |D_i|
    |H_(i+1)|, and |G| >= the product of the |D_i|.  After a full
    closure S is strong and H_1 = G_b.  A build stopped at a proven
    order_bound has product = bound >= |G|, so every inequality is
    tight; at level 0 that reads D_0 = b^G and |G_b| = |H_1|, and
    H_1 <= G_b gives H_1 = G_b.

    The trivial group (empty base) has every arc as its own orbit; any
    other group, intransitive or with more than one suborbit, is swept by
    arc_orbits.
    """
    if not group.base:
        arcs = tuple(((u, v),) for u in range(g.n) for v in g.adj[u])
        return g.n <= 1, arcs, not arcs     # no arcs, no 2-arcs
    b, size, stabiliser = group.first_level()
    suborbits = orbits(g.adj[b], stabiliser, getitem)
    if size < g.n or len(suborbits) > 1:
        arc_orbit_list = arc_orbits(group.generators, g)
        two_arcs = ((u, v, w) for v in range(g.n) for u in g.adj[v]
                    for w in g.adj[v] if u != w)  # swept only when arc_t
        two_arc_t = len(arc_orbit_list) <= 1 and len(orbits(
            two_arcs, group.generators,
            lambda s, t: (s[t[0]], s[t[1]], s[t[2]]))) <= 1
        return size == g.n, arc_orbit_list, two_arc_t
    _check_automorphisms(group.generators, g)
    arc_orbit_list = (tuple((x, y) for x in range(g.n)
                            for y in g.adj[x]),) if suborbits else ()
    pairs = [(u, w) for u in g.adj[b] for w in g.adj[b] if u != w]
    return True, arc_orbit_list, len(orbits(pairs, stabiliser,
                                            _pair_act)) <= 1


def transitivity_report(group: PermGroup, g: Graph) -> TransitivityReport:
    """Orbit-count classification of the action of a group of
    automorphisms of g.  Transitivity means at most one orbit.  An edge
    orbit is an arc orbit together with its reverse, so the action is
    edge-transitive exactly when there is at most one arc orbit, or two
    that are each other's reverse.  A transitive group whose first base
    point's stabiliser has one orbit on its neighbours is arc-transitive,
    read off the stabiliser chain, and it is 2-arc-transitive when that
    stabiliser is transitive on ordered pairs of distinct neighbours of
    the base point (proof at _arc_action); the trivial group needs no
    sweep, and every other group has its arcs swept.  2-arc-transitivity
    is read only for an action with at most one arc orbit, so
    two_arc => arc => edge always holds.
    """
    if group.degree != g.n:
        raise NotAutomorphisms(
            f"group degree {group.degree} != vertex count {g.n}")
    vertex_t, arc_orbit_list, two_arc_t = _arc_action(group, g)
    arc_t = len(arc_orbit_list) <= 1
    edge_t = arc_t or (
        len(arc_orbit_list) == 2
        and {(b, a) for a, b in arc_orbit_list[0]} == set(arc_orbit_list[1]))

    k = valence(g)
    if k is not None and k % 2 and vertex_t and edge_t and not arc_t:
        # vertex- and edge-transitive on odd valence forces arc-transitive
        raise StructureViolation(
            f"odd_valence_arc_transitive: {k}-valent, 1 vertex orbit, "
            f"edge-transitive, yet {len(arc_orbit_list)} arc orbits")

    return TransitivityReport(
        vertex_transitive=vertex_t,
        edge_transitive=edge_t,
        arc_transitive=arc_t,
        two_arc_transitive=two_arc_t,
        half_arc_transitive=vertex_t and edge_t and not arc_t,
        arc_orbit_count=len(arc_orbit_list),
        arc_orbits=arc_orbit_list,
    )
