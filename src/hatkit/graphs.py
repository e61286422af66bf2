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
        return v in self.nbrs[u]

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
    """Build a Graph from a vertex count and an iterable of vertex pairs."""
    adj = [[] for _ in range(n)]
    seen = set()
    for pair in edges:
        u, v = tuple(pair)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, adj)


def relabel(g, perm):
    """Image of g under a vertex bijection (perm[v] is the new name of v)."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise ValueError("relabeling is not a bijection on the vertex set")
    return from_edge_list(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def maps_edges(p, g, h):
    """True when every edge uv of g maps to an edge p[u]p[v] of h."""
    return all(p[v] in h.nbrs[p[u]] for u, v in g.edges)


def is_isomorphism(p, g, h):
    """True when p is a vertex bijection g -> h that maps edges onto edges."""
    return (g.m == h.m and len(p) == g.n and sorted(p) == list(range(h.n))
            and maps_edges(p, g, h))


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


def is_bipartite(g):
    """A bipartition (part0, part1) with part0 containing vertex 0 of each
    component, or None when the graph has an odd cycle."""
    color, _, clash = _two_color(g)
    if clash is not None:
        return None
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return part0, part1


def odd_closed_walk(g):
    """A closed walk of odd length witnessing non-bipartiteness, or None.

    The walk is returned as a vertex list whose first and last entries
    coincide; consecutive entries are adjacent.
    """
    _, parent, clash = _two_color(g)
    if clash is None:
        return None
    up, vp = [clash[0]], [clash[1]]
    for path in (up, vp):
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
    walk = up[::-1] + vp
    # trim shared tree prefix; parity is preserved
    while len(walk) >= 4 and walk[0] == walk[-1] and walk[1] == walk[-2]:
        walk = walk[1:-1]
    return walk


def girth(g):
    """Length of a shortest cycle, or None for a forest.

    Computed as min over edges (u, v) of 1 + dist(u, v) in the graph with
    that edge removed.
    """
    best = None
    for u, v in g.edges:
        dist = [-1] * g.n
        dist[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            if best is not None and dist[x] + 1 >= best:
                continue
            for y in g.adj[x]:
                if (x, y) == (u, v) or (x, y) == (v, u):
                    continue
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if dist[v] != -1 and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def line_graph(g):
    """Line graph plus the labeling of its vertices by edges of g.

    Vertex i of the result is edges[i]; two vertices are adjacent exactly
    when the corresponding edges share an endpoint.
    """
    edges = g.edges
    if not edges:
        raise EmptyEdgeSet("line graph needs at least one edge")
    index = {e: i for i, e in enumerate(edges)}
    out = set()
    for v in range(g.n):
        incident = [index[(min(v, w), max(v, w))] for w in g.adj[v]]
        for a in range(len(incident)):
            for b in range(a + 1, len(incident)):
                i, j = incident[a], incident[b]
                out.add((min(i, j), max(i, j)))
    return from_edge_list(len(edges), sorted(out)), edges


def bipartite_double(g):
    """Canonical double cover: vertices (v, s) with s in {0, 1} stored as
    v + s*n, and (u, 0) ~ (v, 1) for every edge uv of g."""
    n = g.n
    out = []
    for u, v in g.edges:
        out.append((u, v + n))
        out.append((v, u + n))
    return from_edge_list(2 * n, out)
