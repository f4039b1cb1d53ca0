"""Defining graphs: validation, atomicity, graph primitives, constructions.

A defining graph is a finite simplicial graph.  Vertex identifiers are
strings; the generator order used everywhere downstream is the sorted order
of the identifiers.
"""

import json
from dataclasses import dataclass

__all__ = [
    "DefiningGraph",
    "GraphError",
    "InsufficientRadius",
    "InvariantError",
    "AtomicityReport",
    "check_atomic",
    "girth",
    "orthogonal_complement",
    "cut_vertices",
    "is_connected",
    "isomorphism",
    "count_isomorphisms",
    "automorphism_group_order",
    "double_along_closed_star",
    "glue_k_copies_along_star",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "pentagon",
    "dodecahedron",
    "dodecahedron_double",
]


class GraphError(ValueError):
    """Invalid graph input or violated precondition."""


class InsufficientRadius(GraphError):
    """A computation needs cells beyond the radius of the given ball."""


class InvariantError(Exception):
    """A structural invariant failed: a bug, not a bad input.  Deliberately
    not a GraphError, so the CLI reports it with exit code 3."""


class DefiningGraph:
    """Finite simplicial graph: unique vertices, loop-free undirected edges."""

    __slots__ = ("vertices", "edges", "_adj", "_hash")

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise GraphError("duplicate vertex identifiers")
        vset = set(vertices)
        norm = set()
        for e in edges:
            a, b = e
            a, b = str(a), str(b)
            if a == b:
                raise GraphError("loop edge {%s,%s}" % (a, b))
            if a not in vset or b not in vset:
                raise GraphError("edge endpoint %r is not a declared vertex" % (a if a not in vset else b,))
            norm.add((a, b) if a < b else (b, a))
        self.vertices = vertices
        self.edges = tuple(sorted(norm))
        adj = {v: set() for v in vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._hash = hash((tuple(sorted(vertices)), self.edges))

    def __eq__(self, other):
        return (
            isinstance(other, DefiningGraph)
            and sorted(self.vertices) == sorted(other.vertices)
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "DefiningGraph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, a, b):
        return b in self._adj.get(a, ())

    def has_vertex(self, v):
        return v in self._adj

    def sorted_vertices(self):
        return tuple(sorted(self.vertices))

    def closed_star(self, v):
        """v, its neighbors, and the edges incident to v."""
        if v not in self._adj:
            raise GraphError("unknown vertex %r" % (v,))
        verts = {v} | set(self._adj[v])
        edges = {tuple(sorted((v, u))) for u in self._adj[v]}
        return verts, edges

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(
                "invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
            ) from exc
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise GraphError('graph JSON must be {"vertices": [...], "edges": [[a,b], ...]}')
        return cls(data["vertices"], data["edges"])

    def to_json(self):
        data = {
            "vertices": sorted(self.vertices),
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(data, sort_keys=True)

    def to_dot(self, name="G"):
        lines = ["graph %s {" % name]
        for v in sorted(self.vertices):
            lines.append('  "%s";' % v)
        for a, b in self.edges:
            lines.append('  "%s" -- "%s";' % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# basic invariants
# ---------------------------------------------------------------------------

def is_connected(g):
    if not g.vertices:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(g.vertices)


def _bfs_dist(g, src, skip_edge=None):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if skip_edge and tuple(sorted((v, u))) == skip_edge:
                    continue
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def girth(g):
    """Length of the shortest embedded cycle; math.inf for forests."""
    import math

    best = math.inf
    for e in g.edges:
        a, b = e
        dist = _bfs_dist(g, a, skip_edge=e)
        if b in dist:
            best = min(best, dist[b] + 1)
    return best


def orthogonal_complement(g, vs):
    """Vertices adjacent to every member of vs (Eq.-style complement)."""
    vs = set(vs)
    for v in vs:
        if not g.has_vertex(v):
            raise GraphError("unknown vertex %r" % (v,))
    out = set(g.vertices)
    for v in vs:
        out &= set(g.neighbors(v))
    return out


def cut_vertices(g):
    """Vertices whose removal disconnects g.  Requires g connected."""
    if not is_connected(g):
        raise GraphError("cut_vertices requires a connected graph")
    cuts = set()
    for v in g.vertices:
        rest = [u for u in g.vertices if u != v]
        if not rest:
            continue
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for u in g.neighbors(x):
                if u != v and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(rest):
            cuts.add(v)
    return cuts


def _short_cycles(g):
    """Embedded cycles of length 3 and 4, canonical form, sorted."""
    out = []
    order = {v: i for i, v in enumerate(sorted(g.vertices))}
    for a in sorted(g.vertices):
        for b in sorted(g.neighbors(a)):
            if order[b] <= order[a]:
                continue
            for c in sorted(g.neighbors(b)):
                if order[c] <= order[b]:
                    continue
                if g.has_edge(a, c):
                    out.append((a, b, c))
    for a in sorted(g.vertices):
        nbrs = sorted(n for n in g.neighbors(a) if order[n] > order[a])
        for i, b in enumerate(nbrs):
            for d in nbrs[i + 1 :]:
                for c in sorted(set(g.neighbors(b)) & set(g.neighbors(d))):
                    if c != a and order[c] > order[a]:
                        out.append((a, b, c, d))
    return out


@dataclass(frozen=True)
class AtomicityReport:
    is_atomic: bool
    failures: tuple

    def to_json_obj(self):
        return {"is_atomic": self.is_atomic, "failures": [dict(f) for f in self.failures]}


def check_atomic(g):
    """Check connectivity, minimal valence 2, girth >= 5, and that no closed
    vertex star separates; every failure is witnessed in the report."""
    if not g.vertices:
        raise GraphError("empty graph: atomicity undefined")
    failures = []
    if not is_connected(g):
        failures.append({"kind": "disconnected"})
    for v in sorted(g.vertices):
        if g.degree(v) < 2:
            failures.append({"kind": "vertex_of_valence_lt_2", "vertex": v})
    for cyc in _short_cycles(g):
        failures.append({"kind": "short_cycle", "cycle": list(cyc), "length": len(cyc)})
    for v in sorted(g.vertices):
        star_verts, _ = g.closed_star(v)
        rest = [u for u in g.vertices if u not in star_verts]
        if not rest:
            # an empty complement does not count as separated
            continue
        seen = {rest[0]}
        stack = [rest[0]]
        restset = set(rest)
        while stack:
            x = stack.pop()
            for u in g.neighbors(x):
                if u in restset and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(rest):
            failures.append({"kind": "separating_closed_star", "vertex": v})
    return AtomicityReport(is_atomic=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# isomorphism / automorphisms
# ---------------------------------------------------------------------------

def _distance_profile(g):
    prof = {}
    for v in g.vertices:
        dist = _bfs_dist(g, v)
        row = sorted(dist.get(u, -1) for u in g.vertices)
        nbr_degs = sorted(g.degree(u) for u in g.neighbors(v))
        prof[v] = (g.degree(v), tuple(nbr_degs), tuple(row))
    return prof


def _isomorphism_search(g1, g2, count_all):
    """Backtracking vertex-map search.  Returns (count, first_witness)."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return 0, None
    p1, p2 = _distance_profile(g1), _distance_profile(g2)
    from collections import Counter

    if Counter(p1.values()) != Counter(p2.values()):
        return 0, None
    # order source vertices to stay connected to the mapped part
    verts = sorted(g1.vertices, key=lambda v: (p1[v], v))
    order = []
    placed = set()
    pool = list(verts)
    while pool:
        nxt = None
        for v in pool:
            if any(u in placed for u in g1.neighbors(v)):
                nxt = v
                break
        if nxt is None:
            nxt = pool[0]
        order.append(nxt)
        placed.add(nxt)
        pool.remove(nxt)

    mapping = {}
    used = set()
    count = 0
    witness = None

    def extend(i):
        nonlocal count, witness
        if i == len(order):
            count += 1
            if witness is None:
                witness = dict(mapping)
            return not count_all
        v = order[i]
        for w in sorted(g2.vertices):
            if w in used or p2[w] != p1[v]:
                continue
            ok = True
            for u in g1.neighbors(v):
                if u in mapping and not g2.has_edge(mapping[u], w):
                    ok = False
                    break
            if ok:
                for u in g1.vertices:
                    if u in mapping and not g1.has_edge(v, u) and g2.has_edge(mapping[u], w):
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    extend(0)
    return count, witness


def isomorphism(g1, g2):
    """A witness vertex bijection preserving edges both ways, or None."""
    _, wit = _isomorphism_search(g1, g2, count_all=False)
    return wit


def count_isomorphisms(g1, g2):
    n, _ = _isomorphism_search(g1, g2, count_all=True)
    return n


def automorphism_group_order(g):
    return count_isomorphisms(g, g)


def is_isomorphism(g1, g2, mapping):
    """Validate a vertex map as a graph isomorphism."""
    if sorted(mapping) != sorted(g1.vertices):
        return False
    if sorted(mapping.values()) != sorted(g2.vertices):
        return False
    for a in g1.vertices:
        for b in g1.vertices:
            if a < b and g1.has_edge(a, b) != g2.has_edge(mapping[a], mapping[b]):
                return False
    return True


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def glue_k_copies_along_star(g, v, k):
    """k copies of g identified along the closed star of v.

    Identified vertices keep their names; vertex x outside the closed star
    becomes ``x#i`` in copy i.
    """
    if not g.has_vertex(v):
        raise GraphError("unknown vertex %r" % (v,))
    if k < 2:
        raise GraphError("k must be >= 2")
    star_verts, _ = g.closed_star(v)

    def name(x, i):
        return x if x in star_verts else "%s#%d" % (x, i)

    verts = []
    seen = set()
    edges = set()
    for i in range(1, k + 1):
        for x in g.vertices:
            nx = name(x, i)
            if nx not in seen:
                seen.add(nx)
                verts.append(nx)
        for a, b in g.edges:
            edges.add(tuple(sorted((name(a, i), name(b, i)))))
    return DefiningGraph(verts, edges)


def double_along_closed_star(g, v):
    """Two copies of g glued along the closed star of v."""
    return glue_k_copies_along_star(g, v, 2)


def _double_along_subgraph(g, shared_verts, shared_edges):
    shared_verts = set(shared_verts)
    shared_edges = {tuple(sorted(e)) for e in shared_edges}

    def name(x, i):
        return x if x in shared_verts else "%s#%d" % (x, i)

    verts = []
    seen = set()
    edges = set()
    for i in (1, 2):
        for x in g.vertices:
            nx = name(x, i)
            if nx not in seen:
                seen.add(nx)
                verts.append(nx)
        for a, b in g.edges:
            if (a, b) in shared_edges:
                edges.add((a, b))
            else:
                edges.add(tuple(sorted((name(a, i), name(b, i)))))
    return DefiningGraph(verts, edges)


def cycle_graph(n, prefix="v"):
    verts = ["%s%d" % (prefix, i) for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return DefiningGraph(verts, edges)


def path_graph(labels):
    labels = list(labels)
    return DefiningGraph(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def star_graph(center, leaves):
    return DefiningGraph([center] + list(leaves), [(center, leaf) for leaf in leaves])


def pentagon():
    """The 5-cycle a-b-c-d-e-a, the smallest atomic graph."""
    return DefiningGraph("a b c d e".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])


def dodecahedron():
    """1-skeleton of the dodecahedron as the generalized Petersen graph
    GP(10,2): outer 10-cycle o0..o9, spokes to i0..i9, inner edges i_j-i_{j+2}."""
    outer = ["o%d" % j for j in range(10)]
    inner = ["i%d" % j for j in range(10)]
    edges = []
    for j in range(10):
        edges.append((outer[j], outer[(j + 1) % 10]))
        edges.append((outer[j], inner[j]))
        edges.append((inner[j], inner[(j + 2) % 10]))
    return DefiningGraph(outer + inner, edges)


def dodecahedron_double():
    """Two copies of the dodecahedron 1-skeleton glued along one pentagonal
    face (the inner cycle i0-i2-i4-i6-i8): 2*20 - 5 = 35 vertices."""
    g = dodecahedron()
    face = ["i0", "i2", "i4", "i6", "i8"]
    face_edges = [(face[j], face[(j + 1) % 5]) for j in range(5)]
    return _double_along_subgraph(g, face, face_edges)
