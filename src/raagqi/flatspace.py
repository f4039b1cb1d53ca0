"""Finite balls of the flat space of a RAAG.

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
u^k with |k| <= budget.  So a ball is a table of cell ids indexed by cone
and slot, kept in stdlib ``array('i')`` integers.  The cones are grown as
the syllable tree of ``words.syllable_ball``, whose nodes carry each
cone's right-movable letters as one block per generator and its syllable
count: the build makes no scan, no normal-form and no coset-stripping
call.  A cone keeps every slot that its right-movable letters do not move:
those cells get the next ids in one bulk fill, and only the few moved
slots are copied one by one from the row of the cone that represents them,
found by deleting whole blocks (the last block leaves the tree parent).
``stats()`` counts edges without listing them, and the cone elements of
``cones``, the sorted edge list and the ``CosetKey`` of ``key_of(i)`` are
built on demand.  The module needs only the standard library.

The ball hosts cell-level queries (links, squares, hyperplanes).  It names
the hyperplane dual to the edge (g, g<u>) by algebra, as (u, g<lk u>), and
numbers it by its least edge (``FlatBall.hyperplanes``).  Turns, coarse
length and distance and parallel sets need no ball and live in ``coarse``.
"""

import functools
from array import array
from operator import itemgetter

# bound here too because the benchmark's tracer wraps them by these names
from .coarse import classify_turn, coarse_distance, coarse_length, same_parallel_set  # noqa: F401
from .graphs import GraphError, InvariantError
from .words import _KINDS, CosetKey, GroupElement, _check_key, _in_mask, context_for, _syllable_tree

__all__ = ["FlatBall", "build_ball", "verify_ball_structure", "parallel_set_slice"]


class FlatBall:
    """A finite, deterministic chunk of the flat space around the identity.

    Cell ``i`` is the coset of cone ``_cell_cone[i]`` in the special
    subgroup of slot ``_cell_slot[i]``: slot 0 is the trivial subgroup,
    slots ``1..|V|`` the generators and the remaining ``|E|`` slots the
    edges of the defining graph, all in sorted generator order.  The cone
    is the coset's stripped representative, and ``_cell[c * nslots + s]``
    is the id of the coset of cone ``c`` in slot ``s``.  All three are
    ``array('i')``.  ``squares`` is the flat ``array('i')`` of the square
    rows (cone, s1, flat, s2), |E| rows per cone in cone order: row ``r`` is
    ``squares[4 * r : 4 * r + 4]``.  The edges are listed only when first
    asked for.
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
        self._nslots = nslots = 1 + n + len(edge_pairs)
        self._edge_gens = (tuple(u for u, _ in edge_pairs), tuple(w for _, w in edge_pairs))
        self._slot_gens = [()] + [(v,) for v in gens] + [(gens[u], gens[w]) for u, w in edge_pairs]
        self._slot_kind = bytes(len(g) for g in self._slot_gens)
        # the flat slots at each generator, with the other end of their edge
        self._flats_at = flats_at = [[] for _ in range(n)]
        for k, (u, w) in enumerate(edge_pairs):
            flats_at[u].append((1 + n + k, w))
            flats_at[w].append((1 + n + k, u))

        tree = _syllable_tree(ctx, self.budget, self.budget)
        self._cone_codes = cone_codes = [node[0] for node in tree]
        ncones = len(tree)
        cone_id = dict(zip(cone_codes, range(ncones)))

        def layout(mask):
            # The generators of a cone's right-movable letters (its tail);
            # the slots the tail moves to other cones, in increasing order,
            # each with the index of its representative in `reps` below (a
            # tail block, or a pair of blocks that a flat slot deletes
            # together); those pairs; the slots the cone keeps; and the
            # singular-flat edges that the moved singulars take along.
            tail = tuple(x for x in range(n) if (mask >> x) & 1)
            at = {x: i for i, x in enumerate(tail)}
            rep = {1 + x: at[x] for x in tail}
            pairs = []
            for k, (u, w) in enumerate(edge_pairs):
                if u in at and w in at:
                    rep[1 + n + k] = len(tail) + len(pairs)
                    pairs.append((at[u], at[w]))
                elif u in at or w in at:
                    rep[1 + n + k] = at[u] if u in at else at[w]
            own = array("i", (s for s in range(nslots) if s not in rep))
            return tail, tuple(sorted(rep.items())), pairs, own, sum(len(flats_at[x]) for x in tail)

        layouts = {}

        # The coset of cone c in slot s is represented by the cone without
        # its right-movable letters over the slot's generators: whole blocks
        # of the tree node, deleted by slicing.  They all commute with those
        # generators, so deleting them unblocks no other letter (one pass is
        # the fixpoint), and the result is still in shortlex normal form: no
        # normal form call.  A reduced word is a subword of every word for
        # its element, so what is left is a product of at most `budget`
        # syllables u^k with |k| <= budget: a cone.  Cones come sorted by
        # (length, codes) and a representative is never longer than its
        # cone, so every cell first appears at its own representative: the
        # cells a cone keeps get the next ids in slot order, and a moved
        # slot copies the id from the row of an earlier cone.  A cell is
        # interior if its cone has at most budget - 2 syllables; `interior`
        # maps each interior cell to the cones of its coset.
        lim = max(0, self.budget - 2)
        cell, cell_slot = array("i"), array("i")
        bases = [0]  # bases[c]: the first cell id of cone c
        tails = []
        interior = {}
        inner = bytearray(ncones)  # the cones with at most budget - 2 syllables
        # Each cone has |V| cone-singular edges, and one singular-flat edge
        # per flat at each singular it keeps (an edge is listed at the cone
        # that represents its singular): a moved singular x takes deg(x).
        nsingular = ncones * n
        nedges = ncones * (n + 2 * len(edge_pairs))
        for c, (codes, mask, blocks, nsyl, parent, _) in enumerate(tree):
            lay = layouts.get(mask)
            if lay is None:
                lay = layouts[mask] = layout(mask)
            tail, plan, pairs, own, degrees = lay
            tails.append(tail)
            base = bases[c]
            top = base + len(own)
            bases.append(top)
            row = list(range(base, top))
            if blocks:
                try:
                    # the last block is the tree's last step: deleting it
                    # leaves the parent
                    reps = []
                    for _, s, e in blocks[:-1]:
                        reps.append(cone_id[codes[:s] + codes[e:]])
                    reps.append(cone_id[parent])
                    for i, j in pairs:
                        _, s1, e1 = blocks[i]
                        _, s2, e2 = blocks[j]
                        if s2 < s1:
                            s1, e1, s2, e2 = s2, e2, s1, e1
                        reps.append(cone_id[codes[:s1] + codes[e1:s2] + codes[e2:]])
                except KeyError:
                    raise InvariantError("a stripped coset representative is not a cone of the ball") from None
                for s, i in plan:
                    r = reps[i]
                    v = cell[r * nslots + s]
                    if not bases[r] <= v < bases[r + 1]:
                        raise InvariantError("a coset representative does not represent itself")
                    row.insert(s, v)
                    if inner[r]:
                        interior[v].append(c)
                nsingular -= len(tail)
                nedges -= degrees
            if nsyl <= lim:
                inner[c] = 1
                for v in range(base + 1, top):
                    interior[v] = [c]
            cell.fromlist(row)
            cell_slot.extend(own)
        cell_cone = array("i")
        for c in range(ncones):
            cell_cone += array("i", (c,)) * (bases[c + 1] - bases[c])
        self._cell, self._cell_cone, self._cell_slot = cell, cell_cone, cell_slot
        self._tails = tails
        self._interior = interior
        self.nvertices = len(cell_cone)
        self._nsingular = nsingular
        self.nedges = nedges

    @functools.cached_property
    def cones(self):
        """The cone elements, in cone order; built on first use."""
        ctx = self.ctx
        return [GroupElement(ctx, codes, _canonical=True) for codes in self._cone_codes]

    def _row(self, c):
        return self._cell[c * self._nslots : (c + 1) * self._nslots]

    @functools.cached_property
    def squares(self):
        """Square rows (cone, s1, flat, s2), one per cone and edge (u, w) of
        the defining graph, flattened: row ``c * |E| + k`` is
        ``squares[4 * row : 4 * row + 4]``.  Corner j of edge k's rows, over
        all cones, is one column of the cell table."""
        eu, ew = self._edge_gens
        n, nE, nslots = len(self.ctx.generators), len(eu), self._nslots
        out = array("i", bytes(16 * len(self._cone_codes) * nE))
        for k, corners in enumerate(zip([0] * nE, [1 + u for u in eu], range(1 + n, nslots), [1 + w for w in ew])):
            for j, s in enumerate(corners):
                out[4 * k + j :: 4 * nE] = self._cell[s::nslots]
        return out

    # -- vertex/edge lookups ------------------------------------------------

    @functools.cached_property
    def _edges(self):
        """The edges sorted by (lo, hi), as codes lo * nvertices + hi in an
        ``array('q')``, and the hyperplane label of each edge (see
        ``hyperplanes``).  Every cone-singular edge is listed at its cone; a
        singular-flat edge is listed once, at the cone that keeps the
        singular."""
        n = len(self.ctx.generators)
        nv = self.nvertices
        scale = len(self._cone_codes) * n
        at_kept = {}  # tail -> (singular slot, flat slot, generator crossed)
        packed = []
        for c, (tail, lab) in enumerate(zip(self._tails, self._labels())):
            flat_edges = at_kept.get(tail)
            if flat_edges is None:
                flat_edges = at_kept[tail] = [
                    (1 + u, slot, w) for u in range(n) if u not in tail for slot, w in self._flats_at[u]
                ]
            row = self._row(c).tolist()
            cone = row[0]
            ids = [p * n + u for u, p in enumerate(lab)]
            packed += [(cone * nv + s if cone < s else s * nv + cone) * scale + i for s, i in zip(row[1 : 1 + n], ids)]
            packed += [
                (row[a] * nv + row[b] if row[a] < row[b] else row[b] * nv + row[a]) * scale + ids[w]
                for a, b, w in flat_edges
            ]
        packed.sort()
        return array("q", [x // scale for x in packed]), array("i", [x % scale for x in packed])

    def _labels(self):
        """``labels[c][u]``: the cone of c<lk u>.  The right-movable
        lk(u)-letters x of c are deleted one generator at a time, and the
        cone of c<x> comes earlier, so one pass in cone order suffices."""
        n = len(self.ctx.generators)
        nbrs = [[u for _, u in at] for at in self._flats_at]
        nslots, cell, cell_cone = self._nslots, self._cell, self._cell_cone
        labels = []
        for c, tail in enumerate(self._tails):
            lab = [c] * n
            for x in tail:
                up = labels[cell_cone[cell[c * nslots + 1 + x]]]
                for u in nbrs[x]:
                    lab[u] = up[u]
            labels.append(lab)
        return labels

    @functools.cached_property
    def edge_lo(self):
        """Lower endpoint of each edge; edges are sorted by (lo, hi)."""
        nv = self.nvertices
        return array("i", [e // nv for e in self._edges[0]])

    @functools.cached_property
    def edge_hi(self):
        nv = self.nvertices
        return array("i", [e % nv for e in self._edges[0]])

    def kind_of(self, i):
        return _KINDS[self._slot_kind[self._cell_slot[i]]]

    def gens_of(self, i):
        return self._slot_gens[self._cell_slot[i]]

    def rep_of(self, i):
        return self.cones[self._cell_cone[i]]

    def key_of(self, i):
        gens = self.gens_of(i)
        return CosetKey(_KINDS[len(gens)], gens, self.rep_of(i))

    # -- links --------------------------------------------------------------

    def squares_at_cone(self, ci):
        """The square rows at a cone vertex, as 4-tuples."""
        if not 0 <= ci < self.nvertices or self._cell_slot[ci] != 0:
            raise GraphError("not a cone vertex of this ball")
        per_cone = len(self._edge_gens[0])
        start = 4 * self._cell_cone[ci] * per_cone
        sq = self.squares
        return [tuple(sq[r : r + 4]) for r in range(start, start + 4 * per_cone, 4)]

    def cone_link_graph(self, ci):
        """Barycentric-subdivision-shaped boundary of the cone star: singular
        and flat cells at the cone, with their incidences."""
        nodes = set()
        edges = set()
        for _, s1, f, s2 in self.squares_at_cone(ci):
            nodes.update((s1, f, s2))
            edges.add((min(s1, f), max(s1, f)))
            edges.add((min(s2, f), max(s2, f)))
        return nodes, edges

    # -- hyperplanes ----------------------------------------------------------

    def hyperplanes(self):
        """The (edge -> hyperplane id) ``array('i')``, computed once per ball.

        A square (g, g<u>, g<u,w>, g<w>) makes (g, g<u>) parallel to
        (g<w>, g<u,w>); as w is in lk u, both are dual to the hyperplane
        labelled (u, g<lk u>).  Deleting the right-movable lk(u)-letters of g
        one generator at a time walks through cones of the ball and parallel
        edges to (P, P<u>), P the stripped representative of g<lk u>; so the
        labels are exactly the hyperplanes of the ball.  An edge is labelled
        at the cone of its lower-dimensional end, by the generator it
        crosses, and a hyperplane's id is the least id of its edges.  Which
        hyperplanes cross is not stored: ``diagrams`` decides it by algebra
        for the few hyperplanes a diagram meets.
        """
        if self._hyperplanes is None:
            labels = self._edges[1]
            first = dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))
            self._hyperplanes = array("i", map(first.__getitem__, labels))
        return self._hyperplanes

    # -- summary ------------------------------------------------------------

    def stats(self):
        ncones = len(self._cone_codes)
        return {
            "radius": self.radius,
            "complete_radius": self.complete_radius,
            "budget": self.budget,
            "vertices": self.nvertices,
            "vertices_by_type": dict(
                zip(_KINDS, (ncones, self._nsingular, self.nvertices - ncones - self._nsingular))
            ),
            "edges": self.nedges,
            "squares": ncones * len(self._edge_gens[0]),
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


def _square_rows_ok(ball, c, sq):
    """(typed, cone link is the subdivision) for the square rows at cone c.

    Row k is read as (cone, s1, f, s2).  The columns must hold a cone, a
    singular, a flat and a singular.  The flats' edges must be a permutation
    of the graph's edges, each flat's edge must join the generators of its
    row's singulars, and each singular must be the coset of cone c in its
    slot.
    """
    n = len(ball.graph.vertices)
    eu, ew = ball._edge_gens
    nE = len(eu)
    slot, kind = ball._cell_slot, ball._slot_kind
    row = ball._row(c)
    typed = linked = True
    seen = []
    for r in range(4 * c * nE, 4 * (c + 1) * nE, 4):
        cone, s1, f, s2 = sq[r : r + 4]
        if kind[slot[cone]] != 0:
            typed = False
        if (kind[slot[s1]], kind[slot[f]], kind[slot[s2]]) != (1, 2, 1):
            typed = linked = False
            continue
        u1, u2, k = slot[s1] - 1, slot[s2] - 1, slot[f] - 1 - n
        if (u1, u2) not in ((eu[k], ew[k]), (ew[k], eu[k])) or row[1 + u1] != s1 or row[1 + u2] != s2:
            linked = False
        seen.append(k)
    return typed, linked and sorted(seen) == list(range(nE))


def verify_ball_structure(ball):
    """Structural checks of a ball: square typing, cone links isomorphic to
    the barycentric subdivision of the defining graph, and interior vertex
    links of girth >= 4, i.e. with no loop and no triangle.  Returns a report
    dict with an overall flag.

    The square rows are first compared in bulk with the cell table: column
    j of the rows of edge k, across all cones, with the table's column of
    the slot that the corner names.  Where they agree and every table entry
    lies in its own slot, the rows are typed and each cone link is the
    subdivision; the rows of any other cone are checked one by one.  The
    link of an interior cell is read from the rows at the cones of its
    coset, at the corner where a cell of its slot lies, when one of those
    cones is suspect: read from agreeing rows alone, a link is bipartite.
    """
    n = len(ball.graph.vertices)
    eu, ew = ball._edge_gens
    ncones, nE, nslots = len(ball._cone_codes), len(eu), ball._nslots
    cell, slot = ball._cell, ball._cell_slot
    sq = ball.squares

    # cones whose table row or square rows are not the ones the table makes;
    # slots are gathered by itemgetter and columns compared as strided
    # memoryviews, so neither pass makes a Python loop or copy per entry
    suspect = set()
    chunk = max(1, (1 << 16) // nslots)  # table rows per pass
    in_order = tuple(range(nslots)) * chunk
    for c0 in range(0, ncones, chunk):
        rows = cell[c0 * nslots : (c0 + chunk) * nslots]
        got = itemgetter(*rows)(slot) if len(rows) > 1 else (slot[rows[0]],)
        if got != in_order[: len(got)]:
            suspect.update(c0 + i // nslots for i, s in enumerate(got) if s != i % nslots)
    sq_view, cell_view = memoryview(sq), memoryview(cell)
    for k in range(nE):
        for j, s in enumerate((0, 1 + eu[k], 1 + n + k, 1 + ew[k])):
            col, want = sq_view[4 * k + j :: 4 * nE], cell_view[s::nslots]
            if col != want:
                suspect.update(c for c in range(ncones) if col[c] != want[c])
    squares_typed = True
    ok = [True] * ncones
    for c in suspect:
        typed, ok[c] = _square_rows_ok(ball, c, sq)
        squares_typed &= typed
    bad_cones = ncones - sum(ok)
    cone_links_ok = bad_cones == 0

    # interior vertex links, from the square rows at the cones of each
    # interior cell: a square with v in column j joins the cells in columns
    # j - 1 and j + 1.  corners[s] lists (j, j - 1, j + 1) as offsets into a
    # cone's rows, for each row column where a cell of slot s lies.  At a
    # cone that is not suspect, every row entry is the table's cell of the
    # column's slot, so each link edge that the cone's rows give joins a
    # slot-0 cell to a flat (v singular), or a cell of one end of v's edge
    # to a cell of the other (v flat).  A link read from such rows alone is
    # bipartite, with no loop and no triangle; so only the cells with a
    # suspect cone in their coset are read.
    corners = [[] for _ in range(nslots)]
    for k in range(nE):
        r = 4 * k
        corners[1 + eu[k]].append((r + 1, r, r + 2))
        corners[1 + n + k].append((r + 2, r + 1, r + 3))
        corners[1 + ew[k]].append((r + 3, r + 2, r))
    bad_links = 0
    for v, at in ball._interior.items() if suspect else ():
        if suspect.isdisjoint(at):
            continue
        edges = set()
        for c in at:
            base = 4 * nE * c
            for j, i, k in corners[slot[v]]:
                if sq[base + j] == v:
                    a, b = sq[base + i], sq[base + k]
                    edges.add((a, b) if a < b else (b, a))
        bad_links += _has_loop_or_triangle(edges)
    # every subdivided cone link is the same graph, so one check serves them
    cone_girth_checked = min(50, ncones)
    subdivision_short = None
    for c in range(cone_girth_checked):
        ci = cell[c * nslots]
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
        "interior_links_checked": len(ball._interior) + cone_girth_checked,
        "links_girth_ok": links_girth_ok,
        "bad_links": bad_links,
    }


def parallel_set_slice(ball, s):
    """Flat vertices of the ball lying in the parallel set of the singular
    coset s, i.e. flats whose stabilizer contains the stabilizer of s."""
    _check_key("singular", s)
    u = s.gens[0]
    star = ball.ctx.star_masks[ball.ctx.index[u]]
    slots = {k for k, gens in enumerate(ball._slot_gens) if len(gens) == 2 and u in gens}
    inv = s.rep.inverse()
    out = []
    for i, slot in enumerate(ball._cell_slot):
        if slot not in slots:
            continue
        f = ball.key_of(i)
        if _in_mask((inv * f.rep).codes, star):
            out.append(f)
    out.sort()
    return out

