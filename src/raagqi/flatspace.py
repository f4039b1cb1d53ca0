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
star of the identity cone (1 + |V| + |E| cells).  Dual disk diagrams need
no ball: ``diagrams.build_diagram`` names, crosses and walks across
hyperplanes by coset algebra, so the ``diagram`` and ``taut`` commands
build none.

A ball names each cell by the pair (cone, slot).  The slot is one of the
1 + |V| + |E| special subgroups (trivial, one generator, one edge); the
cone is the coset's stripped representative, which is always a cone of the
ball: stripping deletes the right-movable letters over the slot's
generators, and since a reduced word is a subword of every word for its
element, what is left is again a product of at most ``budget`` syllables
u^k with |k| <= budget.  So a ball is int arrays indexed by cone and slot,
built with one right-to-left scan per cone and no coset-stripping call;
``find(key)`` is one cone lookup plus arithmetic, and the ``(gens, codes)``
key of ``vkeys[i]`` and the ``CosetKey`` of ``key_of(i)`` are built on
demand.

Turn, coarse-distance and parallel-set queries take coset keys and no ball:
they are answered algebraically, and exactly, from membership in products
of star subgroups.  One search, ``words._connections``, finds the walks of
the defining graph that join two flats at a given coarse length;
``coarse_distance``, ``same_parallel_set`` and the cut searches of
``diagrams`` are loops over it, and the stripping and factoring of
``words`` behind it each make one pass over a normal form.  The ball hosts
cell-level queries (links, squares, hyperplanes).  It names the
hyperplane dual to the edge (g, g<u>) by algebra, as (u, g<lk u>), and
numbers it by its least edge (``FlatBall.hyperplanes``).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, InvariantError, orthogonal_complement
from .words import (
    _KINDS,
    CosetKey,
    _check_key,
    _connections,
    _in_mask,
    context_for,
    singular_contained_in_flat,
    stabilizers_equal,
    syllable_ball,
)

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

class FlatBall:
    """A finite, deterministic chunk of the flat space around the identity.

    Cell ``i`` is the coset of cone ``_cell_cone[i]`` in the special
    subgroup of slot ``_cell_slot[i]``: slot 0 is the trivial subgroup,
    slots ``1..|V|`` the generators and the remaining ``|E|`` slots the
    edges of the defining graph, all in sorted generator order.  The cone
    is the coset's stripped representative, and ``_cell[c, s]`` is the id
    of the coset of cone ``c`` in slot ``s``.
    """

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
        # the edges are sorted pairs of names, so their index pairs are
        # sorted too
        edge_pairs = [(ctx.index[a], ctx.index[b]) for a, b in self.graph.edges]
        nslots = 1 + n + len(edge_pairs)
        eu = np.array([u for u, _ in edge_pairs], dtype=np.int64)
        ew = np.array([w for _, w in edge_pairs], dtype=np.int64)
        self._edge_gens = (eu, ew)
        self._slot_gens = [()] + [(v,) for v in gens] + [(gens[u], gens[w]) for u, w in edge_pairs]
        self._slot_of = {g: s for s, g in enumerate(self._slot_gens)}
        self._slot_kind = np.array([len(g) for g in self._slot_gens], dtype=np.int8)
        # the flat slots at each generator, with the other end of their edge
        flats_at = [[] for _ in range(n)]
        for k, (u, w) in enumerate(edge_pairs):
            flats_at[u].append((1 + n + k, w))
            flats_at[w].append((1 + n + k, u))

        cones = syllable_ball(self.graph, self.budget, self.budget)
        self.cones = cones
        ncones = len(cones)
        cone_id = {g.codes: c for c, g in enumerate(cones)}
        self._cone_id = cone_id

        def cone_without(codes, drop):
            # A reduced word is a subword of every word for its element, so
            # deleting letters from a cone's normal form leaves a product of
            # at most `budget` syllables u^k with |k| <= budget: a cone.
            c = cone_id.get(tuple(x for i, x in enumerate(codes) if i not in drop))
            if c is None:
                raise InvariantError("a stripped coset representative is not a cone of the ball")
            return c

        # rep[c, s] is the cone that represents the coset of cone c in slot s.
        # Coset stripping deletes the right-movable letters over the slot's
        # generators.  They all commute with those generators, so deleting
        # them unblocks no other letter (one pass is the fixpoint), and the
        # result is still in shortlex normal form: no normal form call.
        star = ctx.star_masks
        syllables = []
        rows, cols, reps = [], [], []
        for c, g in enumerate(cones):
            codes = g.codes
            later = 0
            prev = -1
            count = 0
            tail = {}  # generator -> positions of its right-movable letters
            for i in range(len(codes) - 1, -1, -1):
                x = (codes[i] - 1) >> 1
                if x != prev:
                    count += 1
                    prev = x
                if not later & ~star[x]:
                    tail.setdefault(x, []).append(i)
                later |= 1 << x
            syllables.append(count)
            for x, drop in tail.items():
                r = cone_without(codes, drop)
                rows.append(c)
                cols.append(1 + x)
                reps.append(r)
                for slot, y in flats_at[x]:
                    if y in tail:
                        if y < x:
                            continue
                        r_flat = cone_without(codes, drop + tail[y])
                    else:
                        r_flat = r
                    rows.append(c)
                    cols.append(slot)
                    reps.append(r_flat)
        self._syllables = np.array(syllables, dtype=np.int64)
        rep = np.repeat(np.arange(ncones, dtype=np.int64), nslots).reshape(ncones, nslots)
        rep[rows, cols] = reps

        # Cones come sorted by (length, codes) and a representative is never
        # longer than its cone, so every cell first appears at its own
        # representative: in row-major order, cell ids count the positions
        # where rep[c, s] == c.
        own = rep == np.arange(ncones)[:, None]
        slots = np.arange(nslots)
        if not own[rep, slots].all():
            raise InvariantError("a coset representative does not represent itself")
        first = np.cumsum(own, dtype=np.int64).reshape(ncones, nslots)
        first -= 1
        cell = first[rep, slots]
        del first, rep
        cone_of, slot_of = np.nonzero(own)
        self._cell = cell
        self._cell_cone = cone_of.astype(np.int32)
        self._cell_slot = slot_of.astype(np.int32)
        self.nvertices = nv = cone_of.shape[0]
        del cone_of, slot_of

        cone = cell[:, 0]
        sing = cell[:, 1 : 1 + n]
        flat = cell[:, 1 + n :]
        # every cone-singular edge is new; a singular-flat edge is listed
        # once, at the cone that represents the singular
        mu, mw = own[:, 1 + eu], own[:, 1 + ew]

        def edge_ends():
            yield np.repeat(cone, n), sing.ravel()
            for side, m in ((eu, mu), (ew, mw)):
                yield sing[:, side][m], flat[m]

        enc = np.empty(sing.size + int(mu.sum()) + int(mw.sum()), dtype=np.int64)
        at = 0
        for a, b in edge_ends():
            part = enc[at : at + a.size]
            np.minimum(a, b, out=part)
            part *= nv
            part += np.maximum(a, b)
            at += a.size
        del a, b, mu, mw, own
        enc.sort()
        self._edge_enc = enc
        self.nedges = enc.shape[0]
        squares = np.empty((ncones, len(edge_pairs), 4), dtype=np.int64)
        squares[:, :, 0] = cone[:, None]
        squares[:, :, 1] = sing[:, eu]
        squares[:, :, 2] = flat
        squares[:, :, 3] = sing[:, ew]
        self.squares = squares.reshape(-1, 4)

    # -- vertex/edge lookups ------------------------------------------------

    @functools.cached_property
    def vkeys(self):
        """Each cell's ``(gens, codes)`` key, built on first use."""
        cones, slot_gens = self.cones, self._slot_gens
        return [
            (slot_gens[s], cones[c].codes)
            for c, s in zip(self._cell_cone.tolist(), self._cell_slot.tolist())
        ]

    @functools.cached_property
    def edge_lo(self):
        """Lower endpoint of each edge; edges are sorted by (lo, hi)."""
        return self._edge_enc // self.nvertices

    @functools.cached_property
    def edge_hi(self):
        return self._edge_enc % self.nvertices

    def kind_of(self, i):
        return _KINDS[self._slot_kind[self._cell_slot[i]]]

    def gens_of(self, i):
        return self._slot_gens[self._cell_slot[i]]

    def rep_of(self, i):
        return self.cones[self._cell_cone[i]]

    def key_of(self, i):
        gens = self.gens_of(i)
        return CosetKey(_KINDS[len(gens)], gens, self.rep_of(i))

    def find(self, key):
        """Index of a CosetKey in the ball, or -1."""
        slot = self._slot_of.get(key.gens)
        c = self._cone_id.get(key.rep.codes)
        if slot is None or c is None:
            return -1
        i = int(self._cell[c, slot])
        return i if self._cell_cone[i] == c else -1

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
        return np.flatnonzero(self._slot_kind[self._cell_slot] == k).tolist()

    def is_interior(self, i):
        """Conservative interior flag: the cells this vertex's link needs are
        guaranteed present."""
        if self._cell_slot[i] == 0:
            return True
        return bool(self._syllables[self._cell_cone[i]] <= max(0, self.budget - 2))

    # -- links --------------------------------------------------------------

    def squares_at_cone(self, ci):
        if not 0 <= ci < self.nvertices or self._cell_slot[ci] != 0:
            raise GraphError("not a cone vertex of this ball")
        per_cone = len(self._edge_gens[0])
        start = int(self._cell_cone[ci]) * per_cone
        return self.squares[start : start + per_cone]

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

    # -- hyperplanes ----------------------------------------------------------

    def hyperplanes(self):
        """The (edge -> hyperplane id) array, computed once per ball.

        A square (g, g<u>, g<u,w>, g<w>) makes (g, g<u>) parallel to
        (g<w>, g<u,w>); as w is in lk u, both are dual to the hyperplane
        labelled (u, g<lk u>).  Deleting the right-movable lk(u)-letters of g
        one generator at a time walks through cones of the ball and parallel
        edges to (P, P<u>), P the stripped representative of g<lk u>; so the
        labels are exactly the hyperplanes of the ball.

        The id of (u, P) is the edge id of (P, P<u>), the least edge of its
        class.  Proof: let Q be P without its right-movable u-letters, so
        Q<u> = P<u>.  Q has no right-movable letter of st(u), so it is the
        unique shortest element of Q<st u>, which holds the representative of
        every cell on the class.  Cells are numbered by (cone, slot), cones by
        (length, codes) and flat slots after singular ones.  So the lower end
        of (P, P<u>) is the cone P if Q = P, else the singular Q<u>, and no
        other edge of the class reaches down to it: the cone Q and the
        singular Q<u> lie on (P, P<u>) alone, and the class's other cells at
        cone Q are flats, or singulars g<w> (g in P<lk u>, w in lk u) that
        strip to Q only if Q = P.

        ``lab[c, u]``, the cone of c<lk u>, follows c to the cone of c<x> for
        right-movable lk(u)-generators x, by pointer jumping.  Which
        hyperplanes cross is not stored: ``diagrams`` decides it by algebra
        for the few hyperplanes a diagram meets.
        """
        if self._hyperplanes is not None:
            return self._hyperplanes
        n = len(self.ctx.generators)
        eu, ew = self._edge_gens
        cell = self._cell
        cones = np.arange(cell.shape[0])
        rep = self._cell_cone[cell[:, 1 : 1 + n]]
        moved = rep != cones[:, None]
        lab = np.repeat(cones[:, None], n, axis=1)
        for u, x in zip(np.r_[eu, ew].tolist(), np.r_[ew, eu].tolist()):
            lab[moved[:, x], u] = rep[moved[:, x], x]
        nxt = np.take_along_axis(lab, lab, axis=0)
        while not np.array_equal(nxt, lab):
            lab, nxt = nxt, np.take_along_axis(nxt, nxt, axis=0)
        hid = np.take_along_axis(self._edge_ids(cell[:, :1], cell[:, 1 : 1 + n]), lab, axis=0)

        # crossed[s, t]: the generator crossed by an edge from slot s up to
        # slot t; each edge reads its id at the cone of its lower end, slot s
        flats = np.arange(1 + n, len(self._slot_gens))
        crossed = np.zeros((1 + n, len(self._slot_gens)), dtype=np.int64)
        crossed[0, 1 : 1 + n] = np.arange(n)
        crossed[1 + eu, flats] = ew
        crossed[1 + ew, flats] = eu
        lo, hi = np.divmod(self._edge_enc, self.nvertices)
        s_lo, s_hi = self._cell_slot[lo], self._cell_slot[hi]
        cone = self._cell_cone[np.where(s_lo < s_hi, lo, hi)]
        del lo, hi
        root = hid[cone, crossed[np.minimum(s_lo, s_hi), np.maximum(s_lo, s_hi)]]
        del s_lo, s_hi, cone
        self._hyperplanes = root
        return root

    def _edge_ids(self, ii, jj):
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        enc = lo * self.nvertices + hi
        pos = np.searchsorted(self._edge_enc, enc)
        pos = np.minimum(pos, self._edge_enc.shape[0] - 1)
        if not np.all(self._edge_enc[pos] == enc):
            raise GraphError("edge missing from ball edge set")
        return pos

    @functools.cached_property
    def _csr(self):
        """Edge ends sorted by vertex: (ends, other ends, edge ids)."""
        ends = np.concatenate([self.edge_lo, self.edge_hi])
        others = np.concatenate([self.edge_hi, self.edge_lo])
        eids = np.concatenate([np.arange(self.nedges), np.arange(self.nedges)])
        order = np.argsort(ends, kind="stable")
        return ends[order], others[order], eids[order]

    def incident_edges(self, vi):
        """(edge_id, other_endpoint) pairs at a vertex, via a lazy CSR."""
        ends, others, eids = self._csr
        lo = int(np.searchsorted(ends, vi, side="left"))
        hi = int(np.searchsorted(ends, vi, side="right"))
        return list(zip(eids[lo:hi].tolist(), others[lo:hi].tolist()))

    # -- summary ------------------------------------------------------------

    def stats(self):
        counts = np.bincount(self._slot_kind[self._cell_slot], minlength=len(_KINDS))
        return {
            "radius": self.radius,
            "complete_radius": self.complete_radius,
            "budget": self.budget,
            "vertices": self.nvertices,
            "vertices_by_type": dict(zip(_KINDS, counts.tolist())),
            "edges": int(self.nedges),
            "squares": int(self.squares.shape[0]),
        }


def build_ball(graph, radius):
    """Build the finite flat-space ball for the given budget radius."""
    from .graphs import is_connected

    if not is_connected(graph):
        raise GraphError("build_ball requires a connected graph")
    return FlatBall(graph, radius)


def _has_loop_or_triangle(edges):
    """Whether a link, given by its set of edges, has girth < 4."""
    adj = {}
    for a, b in edges:
        if a == b:
            return True
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return any(adj[a] & adj[b] for a, b in edges)


def verify_ball_structure(ball):
    """Structural checks of a ball: square typing, cone links isomorphic to
    the barycentric subdivision of the defining graph, and interior vertex
    links of girth >= 4, i.e. with no loop and no triangle.  Returns a report
    dict with an overall flag."""
    n = len(ball.graph.vertices)
    slot = ball._cell_slot
    kinds = ball._slot_kind[slot]
    sq = ball.squares
    squares_typed = bool(
        (kinds[sq[:, 0]] == 0).all()
        and (kinds[sq[:, 1]] == 1).all()
        and (kinds[sq[:, 2]] == 2).all()
        and (kinds[sq[:, 3]] == 1).all()
    )

    # every cone link must be the barycentric subdivision of the graph: one
    # singular per vertex, one flat per edge, incidences matching.  Row k of
    # a cone's squares is read as (cone, s1, f, s2).
    eu, ew = ball._edge_gens
    ncones, nE = len(ball.cones), len(eu)
    rows = sq.reshape(ncones, nE, 4)
    s1, f, s2 = rows[:, :, 1], rows[:, :, 2], rows[:, :, 3]
    typed = (kinds[s1] == 1) & (kinds[f] == 2) & (kinds[s2] == 1)
    u1 = np.where(typed, slot[s1] - 1, 0)
    u2 = np.where(typed, slot[s2] - 1, 0)
    k = np.where(typed, slot[f] - 1 - n, 0)
    ok = (typed & (((u1 == eu[k]) & (u2 == ew[k])) | ((u1 == ew[k]) & (u2 == eu[k])))).all(axis=1)
    ok &= (np.sort(k, axis=1) == np.arange(nE)).all(axis=1)
    # each generator names one singular cell per cone, the coset of the cone
    # in its slot; this also holds on a graph with no edges
    cone = np.arange(ncones)[:, None]
    sing = ball._cell[:, 1 : 1 + n]
    ok &= (sing[cone, u1] == s1).all(axis=1) & (sing[cone, u2] == s2).all(axis=1)
    bad_cones = int(ncones - ok.sum())
    cone_links_ok = bad_cones == 0

    # interior vertex links, from the square rows at interior vertices only:
    # a square with v in column j joins the cells in columns j - 1 and j + 1
    lim = max(0, ball.budget - 2)
    interior = np.flatnonzero((kinds > 0) & (ball._syllables <= lim)[ball._cell_cone])
    inside = np.zeros(ball.nvertices, dtype=bool)
    inside[interior] = True
    links = {v: set() for v in interior.tolist()}
    for j in range(4):
        hit = sq[inside[sq[:, j]]]
        for v, a, b in zip(hit[:, j].tolist(), hit[:, j - 1].tolist(), hit[:, (j + 1) % 4].tolist()):
            links[v].add((a, b) if a < b else (b, a))
    bad_links = sum(1 for edges in links.values() if _has_loop_or_triangle(edges))
    # every subdivided cone link is the same graph, so one check serves them
    cone_girth_checked = min(50, ncones)
    subdivision_short = None
    for c in range(cone_girth_checked):
        ci = int(ball._cell[c, 0])
        if not ok[c]:
            short = _has_loop_or_triangle(ball.cone_link_graph(ci)[1])
        else:
            if subdivision_short is None:
                subdivision_short = _has_loop_or_triangle(ball.cone_link_graph(ci)[1])
            short = subdivision_short
        bad_links += short
    links_girth_ok = bad_links == 0
    passed = squares_typed and cone_links_ok and links_girth_ok
    return {
        "passed": passed,
        "squares_typed": squares_typed,
        "cone_links_isomorphic": cone_links_ok,
        "bad_cones": bad_cones,
        "interior_links_checked": len(links) + cone_girth_checked,
        "links_girth_ok": links_girth_ok,
        "bad_links": bad_links,
    }


# ---------------------------------------------------------------------------
# turns, paths, parallel sets
# ---------------------------------------------------------------------------

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
    """Whether two distinct standard flats lie in a common parallel set:
    a connection of coarse length 1."""
    _check_key("flat", f1)
    _check_key("flat", f2)
    return f1 != f2 and next(_connections(f1, f2, 1), None) is not None


@dataclass(frozen=True)
class CoarseDistance:
    value: int
    certified: bool
    lower_bound: int

    def __repr__(self):
        if self.certified:
            return "D=%d" % self.value
        return "unknown(>=%d)" % self.lower_bound


def coarse_distance(f1, f2, max_search=6):
    """Minimal coarse length of a full-edge path between two flat vertices:
    the least m with a connection (see ``words._connections``).  Exact;
    ``unknown`` is only returned past ``max_search``.
    """
    _check_key("flat", f1)
    _check_key("flat", f2)
    if f1 == f2:
        return CoarseDistance(0, True, 0)
    for m in range(1, max_search + 1):
        if next(_connections(f1, f2, m), None) is not None:
            return CoarseDistance(m, True, m)
    return CoarseDistance(max_search + 1, False, max_search + 1)


def parallel_set_slice(ball, s):
    """Flat vertices of the ball lying in the parallel set of the singular
    coset s, i.e. flats whose stabilizer contains the stabilizer of s."""
    _check_key("singular", s)
    u = s.gens[0]
    star = ball.ctx.star_masks[ball.ctx.index[u]]
    slots = [k for k, gens in enumerate(ball._slot_gens) if len(gens) == 2 and u in gens]
    inv = s.rep.inverse()
    out = []
    for i in np.flatnonzero(np.isin(ball._cell_slot, slots)).tolist():
        f = ball.key_of(i)
        if _in_mask((inv * f.rep).codes, star):
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
