"""Defining graphs: validation, atomicity, graph primitives, constructions.

A defining graph is a finite simplicial graph.  Vertex identifiers are
strings.  The graph is the one index of its vertices: ``order`` is the
sorted tuple of identifiers, the generator order used everywhere
downstream, ``index`` maps an identifier to its position there, and
``masks[i]`` is the int bitmask of the neighbours of ``order[i]`` over
``order``.  All three are built once, with the graph, and the graph keeps
no other adjacency: ``neighbors``, ``degree``, ``has_edge``,
``has_vertex`` and ``closed_star`` read ``index`` and ``masks``.
Connectivity and the short-cycle search of the atomicity check work on the
masks, and words, cycles and flat-space balls read them instead of
building their own.  ``_pair_masks`` builds the same masks from position
pairs for the small graphs other checks walk: Whitehead graphs, diagram
cores, chord crossings and flat-space links.
"""

import functools
import json
import math
from collections import namedtuple

from . import _kernels

__all__ = [
    "DefiningGraph",
    "GraphError",
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


class InvariantError(Exception):
    """A structural invariant failed: a bug, not a bad input.  Deliberately
    not a GraphError, so the CLI reports it with exit code 3."""


class DefiningGraph:
    """Finite simplicial graph: unique vertices, loop-free undirected edges,
    with its vertex order, index and neighbour bitmasks."""

    __slots__ = ("vertices", "edges", "order", "index", "masks", "_hash")

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
        self.order = tuple(sorted(vertices))
        self.index = index = {v: i for i, v in enumerate(self.order)}
        self.masks = tuple(_pair_masks(len(vertices), [(index[a], index[b]) for a, b in self.edges]))
        self._hash = hash((self.order, self.edges))

    def __eq__(self, other):
        return isinstance(other, DefiningGraph) and self.order == other.order and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "DefiningGraph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    def neighbors(self, v):
        """The frozenset of neighbours of v; KeyError for an unknown v."""
        return frozenset(map(self.order.__getitem__, _bits(self.masks[self.index[v]])))

    def degree(self, v):
        return self.masks[self.index[v]].bit_count()

    def has_edge(self, a, b):
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and self.masks[i] >> j & 1 == 1

    def has_vertex(self, v):
        return v in self.index

    def sorted_vertices(self):
        return self.order

    def closed_star(self, v):
        """v, its neighbors, and the edges incident to v."""
        if v not in self.index:
            raise GraphError("unknown vertex %r" % (v,))
        nbrs = self.neighbors(v)
        return {v} | nbrs, {(v, u) if v < u else (u, v) for u in nbrs}

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
        vertices, edges = data["vertices"], data["edges"]
        if not isinstance(vertices, list) or not all(map(_is_name, vertices)):
            raise GraphError('"vertices" must be a list of strings or integers')
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_name, e)) for e in edges
        ):
            raise GraphError('"edges" must be a list of [a, b] pairs of strings or integers')
        return cls(vertices, edges)

    def to_json(self):
        data = {
            "vertices": list(self.order),
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(data, sort_keys=True)

    def to_dot(self, name="G"):
        lines = ["graph %s {" % name]
        for v in self.order:
            lines.append('  "%s";' % v)
        for a, b in self.edges:
            lines.append('  "%s" -- "%s";' % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _pair_masks(n, pairs):
    """The neighbour bitmasks of positions 0..n-1 joined by the position
    pairs: bit j of ``masks[i]`` is set iff (i, j) or (j, i) is a pair."""
    masks = [0] * n
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _bits(x):
    """The set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        x ^= low
        out.append(low.bit_length() - 1)
    return out


def _is_name(x):
    """A vertex identifier in graph JSON: a string or an integer, not a bool."""
    return isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool))


# ---------------------------------------------------------------------------
# basic invariants
# ---------------------------------------------------------------------------

def _connected(masks, keep):
    """Whether the subgraph induced on the vertex bitmask keep is connected,
    by flooding from its lowest vertex; an empty keep counts as connected."""
    seen = frontier = keep & -keep
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & keep & ~seen
        seen |= new
        frontier |= new
    return seen == keep


def _full(g):
    """The bitmask of every vertex of g."""
    return (1 << len(g.order)) - 1


def is_connected(g):
    return _connected(g.masks, _full(g))


def girth(g):
    """Length of the shortest embedded cycle; math.inf for forests.

    One bitmask BFS per root.  A vertex at depth d with two neighbours at
    depth d - 1 closes a cycle of length at most 2d, and one with a
    neighbour at depth d a cycle of length at most 2d + 1.  A shortest
    cycle is isometric, so from a root on it the first such vertex gives
    exactly its length."""
    masks = g.masks
    best = math.inf
    for r in range(len(masks)):
        prev, front, seen, d = 1 << r, masks[r], masks[r] | 1 << r, 1
        while front and 2 * d < best:
            nxt, x = 0, front
            while x:
                low = x & -x
                x ^= low
                m = masks[low.bit_length() - 1]
                up = m & prev
                if up & (up - 1):
                    best = 2 * d
                    break
                if m & front:
                    best = 2 * d + 1
                nxt |= m
            prev, front, d = front, nxt & ~seen, d + 1
            seen |= front
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
    full = _full(g)
    return {v for i, v in enumerate(g.order) if not _connected(g.masks, full & ~(1 << i))}


def _short_cycles(g):
    """Embedded cycles a-b-c and a-b-c-d of length 3 and 4, each from its
    least vertex a with b < the last vertex: triangles by (a, b, c), then
    4-cycles by (a, b, d, c)."""
    cycles = _kernels.enumerate_cycle_lists(g.masks, 4)
    cycles.sort(key=lambda t: (len(t), t[0], t[1], t[-1], t[2]))
    return [tuple(g.order[i] for i in t) for t in cycles]


class AtomicityReport(namedtuple("AtomicityReport", "is_atomic failures")):
    __slots__ = ()

    def to_json_obj(self):
        return {"is_atomic": self.is_atomic, "failures": [dict(f) for f in self.failures]}


def check_atomic(g):
    """Check connectivity, minimal valence 2, girth >= 5, and that no closed
    vertex star separates; every failure is witnessed in the report.

    The reports of the 256 most recent graphs are kept, keyed by the graph's
    content, so the commands of one session that check the same graph, or
    an equal one loaded again, share one check.  A report is shared: treat
    it as read-only."""
    if not g.vertices:
        raise GraphError("empty graph: atomicity undefined")
    return _atomicity(g)


@functools.lru_cache(maxsize=256)
def _atomicity(g):
    failures = []
    if not is_connected(g):
        failures.append({"kind": "disconnected"})
    for v in g.order:
        if g.degree(v) < 2:
            failures.append({"kind": "vertex_of_valence_lt_2", "vertex": v})
    for cyc in _short_cycles(g):
        failures.append({"kind": "short_cycle", "cycle": list(cyc), "length": len(cyc)})
    full = _full(g)
    for i, v in enumerate(g.order):
        # an empty complement counts as connected, so it does not separate
        if not _connected(g.masks, full & ~g.masks[i] & ~(1 << i)):
            failures.append({"kind": "separating_closed_star", "vertex": v})
    return AtomicityReport(is_atomic=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# isomorphism / automorphisms
# ---------------------------------------------------------------------------

def isomorphism(g1, g2):
    """A witness vertex bijection preserving edges both ways, with its keys
    in ``g1.vertices`` order, or None; see ``raagqi._search``."""
    from ._search import isomorphism as search

    perm = search(g1.masks, g2.masks)
    if perm is None:
        return None
    return {v: g2.order[perm[g1.index[v]]] for v in g1.vertices}


def count_isomorphisms(g1, g2):
    """Number of isomorphisms g1 -> g2: |Aut(g1)| if one exists, else 0."""
    return 0 if isomorphism(g1, g2) is None else automorphism_group_order(g1)


def automorphism_group_order(g):
    """|Aut(g)|, by orbits up a stabilizer chain; see ``raagqi._search``."""
    from ._search import automorphism_group_order as order

    return order(g.masks)


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

def _glue(g, shared, k):
    """k copies of g identified along the vertex set shared.

    Shared vertices, and so the edges between them, keep their names;
    vertex x outside shared becomes ``x#i`` in copy i.
    """

    def name(x, i):
        return x if x in shared else "%s#%d" % (x, i)

    copies = range(1, k + 1)
    verts = [name(x, i) for i in copies for x in g.vertices if i == 1 or x not in shared]
    edges = [(name(a, i), name(b, i)) for i in copies for a, b in g.edges]
    return DefiningGraph(verts, edges)


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
    return _glue(g, star_verts, k)


def double_along_closed_star(g, v):
    """Two copies of g glued along the closed star of v."""
    return glue_k_copies_along_star(g, v, 2)


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
    return _glue(dodecahedron(), {"i0", "i2", "i4", "i6", "i8"}, 2)
