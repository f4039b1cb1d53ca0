"""Finite pieces of the flat space of a RAAG and its coarse geometry.

Vertices of the flat space are cosets: group elements (cone vertices),
cosets of one-generator subgroups (singular vertices), and cosets of
edge subgroups (flat vertices).  Squares are (g, g<u>, g<u,w>, g<w>).

The 1-skeleton is locally infinite (a singular vertex has a cone neighbor
for every power of its generator), so finite balls are built from a budget:
``build_ball(graph, radius)`` materializes every coset incident to a cone
vertex reachable from the identity by at most ``(radius-2)//2`` syllable
moves u^k with |k| <= (radius-2)//2, together with all edges and squares
among those cells.  Radius 2 is exactly one fundamental domain, the closed
star of the identity cone (1 + |V| + |E| cells); it holds the whole dual
disk diagram of a cycle lifted through that domain, so the ``diagram`` and
``taut`` commands build nothing larger unless asked to.

A ball indexes each cell by the tuple ``(gens, codes)``: ``gens`` is the
sorted tuple of generator names of the coset's subgroup (empty for a cone,
one name for a singular, an edge for a flat vertex), the tuple
``CosetKey.gens`` holds, and ``codes`` is the letter codes of the stripped
normal-form representative.  ``find(key)`` is one lookup of
``(key.gens, key.rep.codes)``; codes are plain ints, not bytes, so graph
size has no byte limit.

Turn, coarse-distance and parallel-set queries take coset keys and no ball:
they are answered algebraically from centralizer-coset membership, which is
exact.  The ball hosts cell-level queries (links, squares, hyperplanes,
diagrams).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import GraphError, _girth, orthogonal_complement
from .words import GroupElement, CosetKey, context_for, in_special_subgroup, in_subgroup_product

__all__ = [
    "FlatBall",
    "build_ball",
    "classify_turn",
    "coarse_length",
    "coarse_distance",
    "CoarseDistance",
    "same_parallel_set",
    "parallel_set_slice",
    "classify_parallel_intersection",
    "quarter_plane_case",
    "FullEdgePath",
]

# a cell's kind, indexed by the number of generators in its key
_KINDS = ("cone", "singular", "flat")


def _syllables(codes):
    count = 0
    prev = -1
    for c in codes:
        g = (c - 1) >> 1
        if g != prev:
            count += 1
            prev = g
    return count


class FlatBall:
    """A finite, deterministic chunk of the flat space around the identity."""

    def __init__(self, graph, radius):
        if radius < 2:
            raise GraphError("radius must be at least 2")
        self.graph = graph
        self.radius = radius
        self.complete_radius = radius - 2
        self.budget = (radius - 2) // 2
        self.ctx = context_for(graph)
        self._build()
        self._hyperplanes = None

    # -- construction -------------------------------------------------------

    def _build(self):
        ctx = self.ctx
        gens = ctx.generators
        n = len(gens)
        edge_pairs = [
            (ctx.index[a], ctx.index[b]) for a, b in self.graph.edges
        ]
        edge_pairs = [(min(p), max(p)) for p in edge_pairs]
        edge_pairs.sort()

        from .words import syllable_ball

        cones = syllable_ball(self.graph, self.budget, self.budget)
        self.cones = cones

        index = {}
        vkeys = []

        def add(key):
            i = index.get(key)
            if i is None:
                i = len(vkeys)
                index[key] = i
                vkeys.append(key)
            return i

        sing_mask = [1 << i for i in range(n)]
        flat_mask = [(1 << u) | (1 << w) for u, w in edge_pairs]
        # one gens tuple per subgroup, shared by every cell key that names it
        sing_gens = [(v,) for v in gens]
        flat_gens = [(gens[u], gens[w]) for u, w in edge_pairs]

        edge_rows = []
        square_rows = []
        cone_bounds = []
        for g in cones:
            codes = g.codes
            support = 0
            for c in codes:
                support |= 1 << ((c - 1) >> 1)
            ci = add(((), codes))
            cone_bounds.append((ci, len(square_rows)))
            srefs = []
            for u in range(n):
                # stripping only ever removes letters of the stripped
                # generators, so it is the identity when they do not occur
                rep = codes if not support & sing_mask[u] else ctx.strip(codes, sing_mask[u])
                si = add((sing_gens[u], rep))
                srefs.append(si)
                edge_rows.append((ci, si))
            for k, (u, w) in enumerate(edge_pairs):
                rep = codes if not support & flat_mask[k] else ctx.strip(codes, flat_mask[k])
                fi = add((flat_gens[k], rep))
                edge_rows.append((srefs[u], fi))
                edge_rows.append((srefs[w], fi))
                square_rows.append((ci, srefs[u], fi, srefs[w]))
        self._cone_square_start = {ci: start for ci, start in cone_bounds}
        self._squares_per_cone = len(edge_pairs)

        self.vkeys = vkeys
        self.index = index
        self.nvertices = len(vkeys)
        edges = np.asarray(edge_rows, dtype=np.int64)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        enc = lo * self.nvertices + hi
        enc = np.unique(enc)
        self.edge_lo = (enc // self.nvertices).astype(np.int64)
        self.edge_hi = (enc % self.nvertices).astype(np.int64)
        self._edge_enc = enc
        self.nedges = enc.shape[0]
        self.squares = np.asarray(square_rows, dtype=np.int64)

    # -- vertex/edge lookups ------------------------------------------------

    def kind_of(self, i):
        return _KINDS[len(self.vkeys[i][0])]

    def gens_of(self, i):
        return self.vkeys[i][0]

    def rep_of(self, i):
        return GroupElement(self.ctx, self.vkeys[i][1], _canonical=True)

    def key_of(self, i):
        gens, codes = self.vkeys[i]
        return CosetKey(_KINDS[len(gens)], gens, GroupElement(self.ctx, codes, _canonical=True))

    def find(self, key):
        """Index of a CosetKey in the ball, or -1."""
        return self.index.get((key.gens, key.rep.codes), -1)

    def __contains__(self, key):
        return self.find(key) >= 0

    def edge_id(self, i, j):
        lo, hi = (i, j) if i < j else (j, i)
        enc = lo * self.nvertices + hi
        p = int(np.searchsorted(self._edge_enc, enc))
        if p >= self._edge_enc.shape[0] or self._edge_enc[p] != enc:
            raise GraphError("edge not present in ball")
        return p

    def vertices_by_kind(self, kind):
        k = _KINDS.index(kind)
        return [i for i, (gens, _) in enumerate(self.vkeys) if len(gens) == k]

    def is_interior(self, i):
        """Conservative interior flag: the cells this vertex's link needs are
        guaranteed present."""
        gens, codes = self.vkeys[i]
        if not gens:
            return True
        return _syllables(codes) <= max(0, self.budget - 2)

    # -- links --------------------------------------------------------------

    def squares_at_cone(self, ci):
        start = self._cone_square_start.get(ci)
        if start is None:
            raise GraphError("not a cone vertex of this ball")
        return self.squares[start : start + self._squares_per_cone]

    def cone_link_graph(self, ci):
        """Barycentric-subdivision-shaped boundary of the cone star: singular
        and flat cells at the cone, with their incidences."""
        nodes = set()
        edges = set()
        for row in self.squares_at_cone(ci):
            _, s1, f, s2 = (int(x) for x in row)
            nodes.update((s1, f, s2))
            edges.add((min(s1, f), max(s1, f)))
            edges.add((min(s2, f), max(s2, f)))
        return nodes, edges

    def vertex_link_graph(self, vi):
        """Square-complex link: nodes are incident ball edges, link edges are
        square corners at the vertex."""
        nodes = set()
        mask = (self.edge_lo == vi) | (self.edge_hi == vi)
        for p in np.where(mask)[0]:
            other = int(self.edge_hi[p] if self.edge_lo[p] == vi else self.edge_lo[p])
            nodes.add(other)
        edges = set()
        sq = self.squares
        for col, (x, y) in ((0, (1, 3)), (1, (0, 2)), (2, (1, 3)), (3, (0, 2))):
            for row in sq[np.where(sq[:, col] == vi)[0]]:
                a, b = int(row[x]), int(row[y])
                edges.add((min(a, b), max(a, b)))
        return nodes, edges

    # -- hyperplanes ----------------------------------------------------------

    def hyperplanes(self):
        """(edge -> component root) array plus the set of crossing component
        pairs; computed from square opposite-edge identifications."""
        if self._hyperplanes is not None:
            return self._hyperplanes
        sq = self.squares
        e_cs1 = self._edge_ids(sq[:, 0], sq[:, 1])
        e_cs2 = self._edge_ids(sq[:, 0], sq[:, 3])
        e_s1f = self._edge_ids(sq[:, 1], sq[:, 2])
        e_s2f = self._edge_ids(sq[:, 3], sq[:, 2])
        pairs = np.concatenate(
            [
                np.stack([e_cs1, e_s2f], axis=1),
                np.stack([e_cs2, e_s1f], axis=1),
            ]
        )
        root = _kernels.union_find(self.nedges, pairs)
        cross = set()
        ra = root[e_cs1]
        rb = root[e_cs2]
        for a, b in zip(ra.tolist(), rb.tolist()):
            cross.add((a, b) if a < b else (b, a))
        self._hyperplanes = (root, cross)
        return self._hyperplanes

    def _edge_ids(self, ii, jj):
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        enc = lo * self.nvertices + hi
        pos = np.searchsorted(self._edge_enc, enc)
        pos = np.minimum(pos, self._edge_enc.shape[0] - 1)
        if not np.all(self._edge_enc[pos] == enc):
            raise GraphError("square edge missing from ball edge set")
        return pos

    def incident_edges(self, vi):
        """(edge_id, other_endpoint) pairs at a vertex, via a lazy CSR."""
        if not hasattr(self, "_csr"):
            ends = np.concatenate([self.edge_lo, self.edge_hi])
            others = np.concatenate([self.edge_hi, self.edge_lo])
            eids = np.concatenate([np.arange(self.nedges), np.arange(self.nedges)])
            order = np.argsort(ends, kind="stable")
            self._csr_ends = ends[order]
            self._csr_others = others[order]
            self._csr_eids = eids[order]
            self._csr = True
        lo = int(np.searchsorted(self._csr_ends, vi, side="left"))
        hi = int(np.searchsorted(self._csr_ends, vi, side="right"))
        return [(int(self._csr_eids[k]), int(self._csr_others[k])) for k in range(lo, hi)]

    # -- summary ------------------------------------------------------------

    def stats(self):
        counts = {"cone": 0, "singular": 0, "flat": 0}
        for gens, _ in self.vkeys:
            counts[_KINDS[len(gens)]] += 1
        return {
            "radius": self.radius,
            "complete_radius": self.complete_radius,
            "budget": self.budget,
            "vertices": self.nvertices,
            "vertices_by_type": counts,
            "edges": int(self.nedges),
            "squares": int(self.squares.shape[0]),
        }


def build_ball(graph, radius):
    """Build the finite flat-space ball for the given budget radius."""
    from .graphs import is_connected

    if not is_connected(graph):
        raise GraphError("build_ball requires a connected graph")
    return FlatBall(graph, radius)


def _link_girth(nodes, edges):
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return _girth(adj, edges)


def verify_ball_structure(ball):
    """Structural checks of a ball: square typing, cone links isomorphic to
    the barycentric subdivision of the defining graph, and interior vertex
    links of girth >= 4.  Returns a report dict with an overall flag."""
    import numpy as np

    graph = ball.graph
    nV, nE = len(graph.vertices), len(graph.edges)
    # a cell's kind is the number of generators in its key
    kinds = np.array([len(gens) for gens, _ in ball.vkeys], dtype=np.int8)
    sq = ball.squares
    squares_typed = bool(
        (kinds[sq[:, 0]] == 0).all()
        and (kinds[sq[:, 1]] == 1).all()
        and (kinds[sq[:, 2]] == 2).all()
        and (kinds[sq[:, 3]] == 1).all()
    )

    # every cone link must be the barycentric subdivision of the graph:
    # one singular per vertex, one flat per edge, incidences matching
    cone_links_ok = True
    bad_cones = 0
    subdivided = set()
    for ci in ball.vertices_by_kind("cone"):
        rows = ball.squares_at_cone(ci)
        sing_kind = {}
        flat_kind = {}
        ok = True
        for row in rows:
            s1, f, s2 = int(row[1]), int(row[2]), int(row[3])
            u1 = ball.gens_of(s1)[0]
            u2 = ball.gens_of(s2)[0]
            fe = ball.gens_of(f)
            if set((u1, u2)) != set(fe):
                ok = False
                break
            for s, u in ((s1, u1), (s2, u2)):
                if sing_kind.setdefault(u, s) != s:
                    ok = False
            if flat_kind.setdefault(fe, f) != f:
                ok = False
            if not ok:
                break
        if ok:
            ok = len(sing_kind) == nV and len(flat_kind) == nE and len(rows) == nE
        if ok:
            subdivided.add(ci)
        else:
            cone_links_ok = False
            bad_cones += 1
    interior = [
        i
        for i in range(ball.nvertices)
        if ball.vkeys[i][0] and ball.is_interior(i)
    ]
    links_girth_ok = True
    bad_links = 0
    for vi in interior:
        nodes, edges = ball.vertex_link_graph(vi)
        g = _link_girth(nodes, edges)
        if g < 4:
            links_girth_ok = False
            bad_links += 1
    # every subdivided cone link is the same graph, so one girth serves them
    cone_girth_checked = 0
    subdivision_girth = None
    for ci in ball.vertices_by_kind("cone")[:50]:
        if ci not in subdivided:
            g = _link_girth(*ball.cone_link_graph(ci))
        else:
            if subdivision_girth is None:
                subdivision_girth = _link_girth(*ball.cone_link_graph(ci))
            g = subdivision_girth
        if g < 4:
            links_girth_ok = False
            bad_links += 1
        cone_girth_checked += 1
    passed = squares_typed and cone_links_ok and links_girth_ok
    return {
        "passed": passed,
        "squares_typed": squares_typed,
        "cone_links_isomorphic": cone_links_ok,
        "bad_cones": bad_cones,
        "interior_links_checked": len(interior) + cone_girth_checked,
        "links_girth_ok": links_girth_ok,
        "bad_links": bad_links,
    }


# ---------------------------------------------------------------------------
# turns, paths, parallel sets
# ---------------------------------------------------------------------------

def _check_key(kind, key):
    if not isinstance(key, CosetKey) or key.kind != kind:
        raise GraphError("expected a %s coset key" % kind)


def singular_contained_in_flat(s, f):
    """Coset containment g<u> <= h<x,y>."""
    _check_key("singular", s)
    _check_key("flat", f)
    if s.gens[0] not in f.gens:
        return False
    return in_special_subgroup(f.rep.inverse() * s.rep, set(f.gens))


def stabilizers_equal(s1, s2):
    """Whether two singular cosets have the same infinite-cyclic stabilizer:
    same generator u and representatives in the same coset of the centralizer
    of u (the star subgroup)."""
    _check_key("singular", s1)
    _check_key("singular", s2)
    if s1.gens != s2.gens:
        return False
    u = s1.gens[0]
    g = s1.rep.ctx.graph
    star = {u} | set(g.neighbors(u))
    return in_special_subgroup(s2.rep.inverse() * s1.rep, star)


class FullEdgePath:
    """Alternating flat, singular, flat, ... , flat key sequence."""

    def __init__(self, keys):
        keys = list(keys)
        if len(keys) < 3 or len(keys) % 2 == 0:
            raise GraphError("a full-edge path alternates flat/singular and ends on a flat")
        for i, k in enumerate(keys):
            _check_key("flat" if i % 2 == 0 else "singular", k)
        for i in range(1, len(keys), 2):
            if not (
                singular_contained_in_flat(keys[i], keys[i - 1])
                and singular_contained_in_flat(keys[i], keys[i + 1])
            ):
                raise GraphError("consecutive cells are not incident at position %d" % i)
        self.keys = keys

    @property
    def flats(self):
        return self.keys[0::2]

    @property
    def singulars(self):
        return self.keys[1::2]

    def turns(self):
        """legal/illegal classification at each interior flat vertex."""
        out = []
        sing = self.singulars
        for t in range(len(sing) - 1):
            out.append("illegal" if stabilizers_equal(sing[t], sing[t + 1]) else "legal")
        return out


def classify_turn(e1, e2):
    """Turn type for two full edges (f, s, f') sharing a flat endpoint."""
    f1a, s1, f1b = e1
    f2a, s2, f2b = e2
    shared = {f1a, f1b} & {f2a, f2b}
    if not shared:
        raise GraphError("full edges do not share a flat vertex")
    if (s1, {f1a, f1b}) == (s2, {f2a, f2b}):
        raise GraphError("the two full edges coincide")
    for f, s in ((f1a, s1), (f1b, s1), (f2a, s2), (f2b, s2)):
        if not singular_contained_in_flat(s, f):
            raise GraphError("not a full edge: singular not contained in flat")
    return "illegal" if stabilizers_equal(s1, s2) else "legal"


def coarse_length(path):
    """Number of legal turns along the path, plus one."""
    if not isinstance(path, FullEdgePath):
        path = FullEdgePath(path)
    return sum(1 for t in path.turns() if t == "legal") + 1


def same_parallel_set(f1, f2):
    """Whether two standard flats lie in a common parallel set: a shared
    defining generator u with representatives in the same centralizer coset."""
    _check_key("flat", f1)
    _check_key("flat", f2)
    if f1 == f2:
        return False
    g = f1.rep.ctx.graph
    for u in set(f1.gens) & set(f2.gens):
        star = {u} | set(g.neighbors(u))
        if in_special_subgroup(f2.rep.inverse() * f1.rep, star):
            return True
    return False


@dataclass(frozen=True)
class CoarseDistance:
    value: int
    certified: bool
    lower_bound: int

    def __repr__(self):
        if self.certified:
            return "D=%d" % self.value
        return "unknown(>=%d)" % self.lower_bound


def _star_sets(graph):
    return {v: {v} | set(graph.neighbors(v)) for v in graph.vertices}


def coarse_distance(f1, f2, max_search=6):
    """Minimal coarse length of a full-edge path between two flat vertices.

    A coarse-length-m connection exists iff there is a walk t_1 .. t_m in the
    defining graph (consecutive vertices distinct and adjacent) with t_1 a
    generator of f1, t_m a generator of f2, and rep(f1)^-1 rep(f2) in the
    centralizer product C(t_1) C(t_2) ... C(t_m).  This is ball-independent
    and exact; ``unknown`` is only returned past ``max_search``.
    """
    _check_key("flat", f1)
    _check_key("flat", f2)
    if f1 == f2:
        return CoarseDistance(0, True, 0)
    graph = f1.rep.ctx.graph
    stars = _star_sets(graph)
    w = f1.rep.inverse() * f2.rep
    targets = set(f2.gens)
    for m in range(1, max_search + 1):
        walks = [[t] for t in f1.gens]
        for _ in range(m - 1):
            walks = [wk + [t] for wk in walks for t in graph.neighbors(wk[-1])]
        for wk in walks:
            if wk[-1] not in targets:
                continue
            if in_subgroup_product(w, [stars[t] for t in wk]):
                return CoarseDistance(m, True, m)
    return CoarseDistance(max_search + 1, False, max_search + 1)


def parallel_set_slice(ball, s):
    """Flat vertices of the ball lying in the parallel set of the singular
    coset s, i.e. flats whose stabilizer contains the stabilizer of s."""
    _check_key("singular", s)
    u = s.gens[0]
    star = {u} | set(ball.graph.neighbors(u))
    out = []
    for i, (gens, _) in enumerate(ball.vkeys):
        if len(gens) != 2 or u not in gens:
            continue
        f = ball.key_of(i)
        if in_special_subgroup(s.rep.inverse() * f.rep, star):
            out.append(f)
    out.sort()
    return out


def stalling_reachable_flats(ball, f):
    """Ball flats reachable from f by full-edge paths with no legal turn
    (BFS through the ball's cells).  Dual oracle for same_parallel_set."""
    _check_key("flat", f)
    start = ball.find(f)
    if start < 0:
        raise GraphError("flat vertex not in ball")
    # state: (flat index, stabilizer class) where the class is the singular
    # key of the last full edge; closure over illegal turns only
    sq = ball.squares
    by_flat = {}
    by_sing = {}
    for r in range(sq.shape[0]):
        s1, fi, s2 = int(sq[r, 1]), int(sq[r, 2]), int(sq[r, 3])
        by_flat.setdefault(fi, set()).update((s1, s2))
        by_sing.setdefault(s1, set()).add(fi)
        by_sing.setdefault(s2, set()).add(fi)
    seen_flats = {start}
    frontier = [(start, None)]
    seen_states = set()
    while frontier:
        nxt = []
        for fi, stab in frontier:
            for si in by_flat.get(fi, ()):
                skey = ball.key_of(si)
                if stab is not None and not stabilizers_equal(stab, skey):
                    continue
                for fj in by_sing.get(si, ()):
                    state = (fj, skey)
                    if state in seen_states:
                        continue
                    seen_states.add(state)
                    seen_flats.add(fj)
                    nxt.append((fj, skey))
        frontier = nxt
    return {ball.key_of(i) for i in seen_flats}


# ---------------------------------------------------------------------------
# parallel-set intersections and quarter-plane labels
# ---------------------------------------------------------------------------

def classify_parallel_intersection(graph, u, v):
    """How the parallel sets of two standard geodesics through a common point
    meet: 'equal', a 'standard_flat', or 'small'."""
    for x in (u, v):
        if not graph.has_vertex(x):
            raise GraphError("unknown vertex %r" % (x,))
    if u == v:
        return "equal"
    if graph.has_edge(u, v):
        return "standard_flat"
    return "small"


def quarter_plane_case(graph, label_alpha, label_beta):
    """Trichotomy for a quarter-plane label (a join of two vertex sets),
    decided by the sizes of the orthogonal complements."""
    alpha = set(label_alpha)
    beta = set(label_beta)
    if not alpha or not beta:
        raise GraphError("quarter-plane labels must be nonempty")
    if alpha & beta:
        raise GraphError("quarter-plane label sides must be disjoint")
    for a in alpha:
        for b in beta:
            if not graph.has_edge(a, b):
                raise GraphError("label is not a join: {%s,%s} not an edge" % (a, b))
    na = len(orthogonal_complement(graph, alpha))
    nb = len(orthogonal_complement(graph, beta))
    if na == 1 and nb == 1:
        return "case1"
    if (na == 1) != (nb == 1):
        return "case2"
    return "case3"
