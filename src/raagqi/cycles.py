"""Embedded cycles of a defining graph: shortcuts, tightness, Whitehead graphs.

A cycle is tight when it admits no 1-shortcut (a chord) and no 2-shortcut
(a length-2 path between cycle vertices whose distance along the cycle
exceeds 2).  The Whitehead graph at a vertex v records which pairs of link
directions are joined by some tight cycle through v; scanning all embedded
cycle lengths up to the vertex count makes the computation exact.  One pass
over the tight cycles collects the link pairs of every vertex at once, and
``whitehead_graph`` and ``check_whitehead_lemma`` both read it.
"""

from collections import OrderedDict, namedtuple

from . import _kernels
from .graphs import GraphError, cut_vertices, girth, is_connected

__all__ = [
    "EmbeddedCycle",
    "enumerate_cycles",
    "tight_cycles",
    "find_shortcut",
    "is_tight",
    "WhiteheadGraph",
    "whitehead_graph",
    "check_whitehead_lemma",
    "check_coloring_lemma",
]


class EmbeddedCycle:
    """Embedded cycle stored canonically: starts at its least vertex, in the
    orientation whose second vertex is smaller."""

    __slots__ = ("graph", "vertices")

    def __init__(self, graph, vertices):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise GraphError("cycle revisits a vertex")
        for i, v in enumerate(vs):
            if not graph.has_edge(v, vs[(i + 1) % len(vs)]):
                raise GraphError("consecutive cycle vertices %r,%r not adjacent" % (v, vs[(i + 1) % len(vs)]))
        self.graph = graph
        self.vertices = _canonical(vs)

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, EmbeddedCycle) and self.graph == other.graph and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "Cycle(%s)" % "-".join(self.vertices)

    def edges(self):
        vs = self.vertices
        return [tuple(sorted((vs[i], vs[(i + 1) % len(vs)]))) for i in range(len(vs))]

    def distance_along(self, u, v):
        """Edges along the shorter arc between two cycle vertices."""
        i, j = self.vertices.index(u), self.vertices.index(v)
        d = abs(i - j)
        return min(d, len(self.vertices) - d)


def _kernel_cycles(graph, raw):
    """The kernel's cycles as ``EmbeddedCycle`` objects, built without the
    constructor's checks: each index tuple is an embedded cycle of the
    graph in canonical position (least index first, second below last), and
    ``graph.order`` is sorted, so the names are in canonical position too."""
    order = graph.order
    out = []
    for t in raw:
        cyc = object.__new__(EmbeddedCycle)
        cyc.graph = graph
        cyc.vertices = tuple([order[i] for i in t])
        out.append(cyc)
    return out


def _canonical(vs):
    """Least rotation or reflection of a cycle of distinct vertices: it
    starts at the least vertex and goes on to the smaller of its two
    neighbours on the cycle."""
    i = vs.index(min(vs))
    r = vs[i:] + vs[:i]
    return r if r[1] < r[-1] else r[:1] + r[:0:-1]


def enumerate_cycles(graph, max_len):
    """All embedded cycles of length <= max_len, canonical and sorted."""
    if max_len < 3:
        raise GraphError("max_len must be at least 3")
    out = _kernel_cycles(graph, _kernels.enumerate_cycle_lists(graph.masks, max_len, tight_only=False))
    out.sort(key=lambda c: (len(c), c.vertices))
    return out


def _diameter_at_most_2(graph):
    """Every two vertices are equal, adjacent or have a common neighbour."""
    masks = graph.masks
    full = (1 << len(masks)) - 1
    return all(_kernels._neighbours_of(m, masks) | m | 1 << i == full for i, m in enumerate(masks))


def tight_cycles(graph, max_len=None):
    """All tight cycles of length <= max_len (default: the vertex count,
    which is exact since embedded cycles cannot be longer)."""
    if max_len is not None and max_len < 3:
        raise GraphError("max_len must be at least 3")
    cap = len(graph.vertices) if max_len is None else min(max_len, len(graph.vertices))
    # in a graph of diameter <= 2, two vertices at cycle distance 3 on a
    # cycle of length >= 6 are joined by a chord or a common neighbour, a
    # 1- or 2-shortcut, so no tight cycle is longer than 5
    if cap > 5 and _diameter_at_most_2(graph):
        cap = 5
    return _tight_cycles(graph, cap)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize cycles")


class _CycleListCache:
    """``functools.lru_cache`` for a function of (graph, cap) that returns
    a list of cycles, bounded in lists and in the cycles they hold.  The
    newest list is kept whatever its length, since its caller holds it."""

    def __init__(self, fn, maxsize, max_cycles):
        self._fn = fn
        self.maxsize = maxsize
        self.max_cycles = max_cycles
        self.cache_clear()

    def __call__(self, graph, cap):
        key = (graph, cap)
        lists = self._lists
        hit = lists.get(key)
        if hit is not None:
            # the stored key stays: an equal graph is not kept as well
            self._hits += 1
            lists.move_to_end(key)
            return hit
        self._misses += 1
        hit = lists[key] = self._fn(graph, cap)
        self._cycles += len(hit)
        while len(lists) > self.maxsize or (self._cycles > self.max_cycles and len(lists) > 1):
            self._cycles -= len(lists.popitem(last=False)[1])
        return hit

    def cache_info(self):
        return CacheInfo(self._hits, self._misses, self.maxsize, len(self._lists), self._cycles)

    def cache_clear(self):
        self._lists = OrderedDict()
        self._hits = self._misses = self._cycles = 0


def _tight_cycle_list(graph, cap):
    """The tight cycles of length <= cap."""
    out = _kernel_cycles(graph, _kernels.enumerate_cycle_lists(graph.masks, cap, tight_only=True))
    out.sort(key=lambda c: (len(c), c.vertices))
    return out


# the tight cycles of the most recent graphs: GP(50, 2) has 40,758
_tight_cycles = _CycleListCache(_tight_cycle_list, maxsize=256, max_cycles=1 << 16)


def find_shortcut(graph, cycle, i):
    """An i-shortcut for the cycle: an edge-path of length exactly i whose
    endpoints lie on the cycle at cycle-distance > i.  Returns the path as a
    vertex list, or None."""
    if i < 1:
        raise GraphError("shortcut length must be >= 1")
    if not isinstance(cycle, EmbeddedCycle):
        cycle = EmbeddedCycle(graph, cycle)
    on_cycle = set(cycle.vertices)

    def extend(path):
        if len(path) == i + 1:
            last = path[-1]
            if last in on_cycle and cycle.distance_along(path[0], last) > i:
                return list(path)
            return None
        for nxt in sorted(graph.neighbors(path[-1])):
            if nxt in path:
                continue
            found = extend(path + [nxt])
            if found:
                return found
        return None

    for start in cycle.vertices:
        found = extend([start])
        if found:
            return found
    return None


def is_tight(graph, cycle):
    """No 1-shortcuts and no 2-shortcuts."""
    if not isinstance(cycle, EmbeddedCycle):
        cycle = EmbeddedCycle(graph, cycle)
    return _kernels.tight_check_ints([graph.index[v] for v in cycle.vertices], graph.masks)


class WhiteheadGraph(namedtuple("WhiteheadGraph", "base vertices edges")):
    """The base vertex, its sorted link (a tuple) and the edges (a
    frozenset of sorted pairs)."""

    __slots__ = ()

    def is_connected(self):
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for u in adj[x]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    def to_dot(self):
        lines = ['graph "Wh(%s)" {' % self.base]
        for v in self.vertices:
            lines.append('  "%s";' % v)
        for a, b in sorted(self.edges):
            lines.append('  "%s" -- "%s";' % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def whitehead_graph(graph, v, max_len=None):
    """Graph on the link of v joining directions traversed by a tight cycle."""
    if not graph.has_vertex(v):
        raise GraphError("unknown vertex %r" % (v,))
    return _whitehead(graph, v, _link_pairs(graph, max_len))


def _whitehead(graph, v, pairs):
    return WhiteheadGraph(base=v, vertices=tuple(sorted(graph.neighbors(v))), edges=frozenset(pairs[v]))


def _link_pairs(graph, max_len):
    """The Whitehead edges of every vertex in one pass over the tight
    cycles: v maps to the set of sorted pairs (a, b) with a, v, b
    consecutive on a tight cycle of length <= max_len."""
    pairs = {v: set() for v in graph.order}
    for cyc in tight_cycles(graph, max_len):
        a, v = cyc.vertices[-2:]
        for b in cyc.vertices:
            pairs[v].add((a, b) if a < b else (b, a))
            a, v = v, b
    return pairs


def check_whitehead_lemma(graph):
    """Per-vertex check that Wh(v) is connected exactly when v is not a cut
    vertex; requires a connected graph of girth >= 5."""
    if not is_connected(graph):
        raise GraphError("whitehead lemma check requires a connected graph")
    if girth(graph) < 5:
        raise GraphError("whitehead lemma check requires girth >= 5")
    cuts = cut_vertices(graph)
    pairs = _link_pairs(graph, None)
    table = {}
    passed = True
    for v in graph.sorted_vertices():
        connected = _whitehead(graph, v, pairs).is_connected()
        is_cut = v in cuts
        agree = connected == (not is_cut)
        table[v] = {"wh_connected": connected, "is_cut_vertex": is_cut, "agree": agree}
        passed = passed and agree
    return {"passed": passed, "vertices": table}


def check_coloring_lemma(graph, coloring):
    """Three-color edge test: with every two gray edges sharing a vertex and
    every tight cycle black-or-gray or white-or-gray, the whole graph must be
    black-or-gray or white-or-gray."""
    from .graphs import check_atomic

    if not check_atomic(graph).is_atomic:
        raise GraphError("coloring lemma applies to atomic graphs")
    colors = {}
    for e in graph.edges:
        c = coloring.get(e, coloring.get((e[1], e[0])))
        if c not in ("black", "white", "gray"):
            raise GraphError("edge %r is missing a black/white/gray color" % (e,))
        colors[e] = c

    grays = [e for e, c in colors.items() if c == "gray"]
    hyp1 = all(set(a) & set(b) for a in grays for b in grays)

    hyp2 = True
    for cyc in tight_cycles(graph):
        seen = {colors[e] for e in cyc.edges()}
        if not (seen <= {"black", "gray"} or seen <= {"white", "gray"}):
            hyp2 = False
            break

    all_colors = set(colors.values())
    conclusion = all_colors <= {"black", "gray"} or all_colors <= {"white", "gray"}
    return {
        "valid_hypotheses": hyp1 and hyp2,
        "hypothesis_gray_pairs": hyp1,
        "hypothesis_tight_cycles": hyp2,
        "conclusion_holds": conclusion,
    }
