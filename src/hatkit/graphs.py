"""Immutable simple graphs and the derived constructions built from them."""

from __future__ import annotations

from collections import deque

from .errors import (
    DuplicateEdge,
    EmptyEdgeSet,
    LoopEdge,
    VertexOutOfRange,
)


class Graph:
    """Simple undirected graph on the vertex set {0, ..., n-1}.

    Instances are immutable after construction and compare/hash by exact
    labeled structure.  Adjacency lists are kept sorted.
    """

    __slots__ = ("n", "adj", "nbrs", "_edges")

    def __init__(self, n, adj):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = tuple(tuple(sorted(row)) for row in adj)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        edges = []
        for u, row in enumerate(adj):
            prev = -1
            for v in row:
                if not 0 <= v < n:
                    raise VertexOutOfRange(f"neighbour {v} of {u} outside 0..{n - 1}")
                if v == u:
                    raise LoopEdge(f"loop at vertex {u}")
                if v == prev:
                    raise DuplicateEdge(f"repeated neighbour {v} of {u}")
                prev = v
                if u < v:
                    edges.append((u, v))
        nbrs = tuple(frozenset(row) for row in adj)
        for u, v in edges:
            if u not in nbrs[v]:
                raise ValueError(f"adjacency not symmetric on ({u}, {v})")
        m = sum(len(row) for row in adj)
        if m != 2 * len(edges):
            raise ValueError("adjacency not symmetric")
        self.n = n
        self.adj = adj
        self.nbrs = nbrs
        self._edges = tuple(edges)

    @property
    def edges(self):
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        return self._edges

    @property
    def m(self):
        return len(self._edges)

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, v):
        """True when {u, v} is an edge; False for a vertex outside 0..n-1."""
        return 0 <= u < self.n and v in self.nbrs[u]

    def degrees(self):
        return tuple(len(row) for row in self.adj)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n, edges):
    """Build a Graph from a vertex count and an iterable of vertex pairs.
    Graph rejects a loop (LoopEdge) and a pair listed twice, in either
    order (DuplicateEdge)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, adj)


def relabel(g, perm):
    """Image of g under a vertex bijection (perm[v] is the new name of v)."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise ValueError("relabeling is not a bijection on the vertex set")
    return from_edge_list(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def non_edge_text(p, edge):
    """The witness text of an edge (u, v) that p maps to a non-edge."""
    u, v = edge
    return f"edge ({u}, {v}) maps to the non-edge ({p[u]}, {p[v]})"


def edge_map_fault(p, g, h):
    """The first edge of g that p does not carry to an edge of h, with
    its image, as text; "" when p carries every edge to an edge."""
    edge = next(((u, v) for u, v in g.edges if p[v] not in h.nbrs[p[u]]),
                None)
    return "" if edge is None else non_edge_text(p, edge)


def _bijection_fault(p, g, n, m):
    """The order, size and bijectivity texts of isomorphism_fault for p
    against a graph of order n and size m; "" when p is a bijection
    between graphs of equal order and size."""
    if (len(p), g.n, g.m) != (n, n, m):
        return (f"{len(p)} images between graphs of (order, size) "
                f"({g.n}, {g.m}) and ({n}, {m})")
    preimage = {}
    for v, w in enumerate(p):
        if not 0 <= w < n:
            return f"vertex {v} maps to {w}, outside 0..{n - 1}"
        u = preimage.setdefault(w, v)
        if u != v:
            return f"vertices {u} and {v} both map to {w}"
    return ""


def _isomorphism_fault(p, g, n, m, non_edge):
    """isomorphism_fault of p against a graph h of order n and size m in
    which the distinct vertices a and b are not adjacent exactly when
    non_edge(a, b) holds; h itself need not be built."""
    fault = _bijection_fault(p, g, n, m)
    if fault:
        return fault
    edge = next(((u, v) for u, v in g.edges if non_edge(p[u], p[v])), None)
    return "" if edge is None else non_edge_text(p, edge)


def isomorphism_fault(p, g, h):
    """Why p is no vertex bijection g -> h that maps edges onto edges, as
    text: the orders and sizes when they differ, a vertex whose image lies
    outside h or is another's, or an edge that maps to a non-edge; ""
    when p is an isomorphism."""
    return _bijection_fault(p, g, h.n, h.m) or edge_map_fault(p, g, h)


def is_connected(g):
    if g.n == 0:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n


def is_regular(g, k):
    return all(len(row) == k for row in g.adj)


def _two_color(g):
    """BFS 2-coloring of every component: (color, parent, clash), where
    parent[v] is the BFS tree parent of v (a root is its own parent) and
    clash is the first edge found joining two vertices of one color, or
    None when g is bipartite."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        parent[start] = start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return color, parent, (u, v)
    return color, parent, None


def parts_or_odd_walk(g):
    """(is_bipartite(g), walk) from one two-colouring: the parts and None
    for a bipartite graph, else None and a closed walk of odd length
    witnessing non-bipartiteness, as a vertex list whose first and last
    entries coincide; consecutive entries are adjacent."""
    color, parent, clash = _two_color(g)
    if clash is None:
        return (tuple(v for v in range(g.n) if color[v] == 0),
                tuple(v for v in range(g.n) if color[v] == 1)), None
    up, vp = [clash[0]], [clash[1]]
    for path in (up, vp):
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
    # the clash joins two vertices of one BFS level, so the paths have
    # one length and part below their shared stem, which is dropped
    # (parity is preserved)
    while up[-2] == vp[-2]:
        up.pop()
        vp.pop()
    return None, up[::-1] + vp


def is_bipartite(g):
    """A bipartition (part0, part1) with part0 containing vertex 0 of each
    component, or None when the graph has an odd cycle."""
    return parts_or_odd_walk(g)[0]


def girth(g, roots=None):
    """Length of a shortest cycle, or None for a forest.

    One BFS per root r, every vertex when roots is None: a non-tree edge
    xy closes a walk of length dist(r, x) + dist(r, y) + 1 through r that
    contains a cycle, and the BFS from a vertex of a shortest cycle finds
    one of exactly its length.  Seen in BFS order, the edges at x close
    walks of length at least 2 dist(r, x) + 1, apart from edges back to
    the previous level, which were read from their other end; so a BFS
    stops once that reaches the best length so far, and the search stops
    at the first triangle, as a simple graph has no shorter cycle.

    roots may instead hold one vertex of each orbit of a group of
    automorphisms of g.  The answer is the same: a shortest cycle C
    passes through some vertex v, an automorphism a carries v onto the
    root r of its orbit, and a(C) is a shortest cycle through r.
    """
    best = None
    for r in range(g.n) if roots is None else roots:
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[r] = 0
        queue = deque([r])
        while queue:
            x = queue.popleft()
            dx = dist[x]
            if best is not None and 2 * dx + 1 >= best:
                break
            for y in g.adj[x]:
                if dist[y] == -1:
                    dist[y] = dx + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    length = dx + dist[y] + 1
                    if best is None or length < best:
                        best = length
        if best == 3:
            break
    return best


def line_graph(g):
    """Line graph plus the labeling of its vertices by edges of g.

    Vertex i of the result is edges[i]; two vertices are adjacent exactly
    when the corresponding edges share an endpoint.  Row i is the edges
    at the two ends of edges[i], less i itself, which is the only edge
    at both in a simple graph.
    """
    edges = g.edges
    if not edges:
        raise EmptyEdgeSet("line graph needs at least one edge")
    at = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        at[u].append(i)
        at[v].append(i)
    adj = [[j for j in at[u] + at[v] if j != i]
           for i, (u, v) in enumerate(edges)]
    return Graph(len(edges), adj), edges


def bipartite_double(g):
    """Canonical double cover: vertices (v, s) with s in {0, 1} stored as
    v + s*n, and (u, 0) ~ (v, 1) for every edge uv of g."""
    n = g.n
    return Graph(2 * n, [[v + n for v in row] for row in g.adj] + list(g.adj))
