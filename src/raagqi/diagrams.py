"""Dual disk diagrams of full-edge cycles, shell counting, cuts, tautness.

A closed full-edge cycle crosses a sequence of hyperplanes; pulling those
hyperplanes back through a disk filling gives a system of chords on the
boundary circle.  No two chords cross twice, no three pairwise cross, and
the diagram is unique, so it can be built combinatorially: pair up
same-hyperplane boundary crossings without same-class interleaving, cross
two arcs exactly when their positions interleave, and read the regions off
the chord arrangement.  Regions map to vertices of the flat space (blocks);
the core is the set of regions not touching the boundary circle.

The diagram needs no ball: its three questions are coset algebra on
``(gens, codes)`` cell keys and generator bitmasks.  The hyperplane dual to
the edge from a cone g to the singular g<v>, and to the edge from a
singular h<u> to the flat h<u,v>, is labelled (v, g<lk v>) (resp.
(v, h<lk v>)), stored as v's index and the stripped representative.  Two
hyperplanes (u, P) and (w, Q) cross iff u ~ w and P^-1 Q is in
<lk u><lk w>, and the block across (u, P) from a cell is read off the
factoring of the cell's representative against P in <u><lk u>
(``_block_across``).  A hyperplane is numbered index(u) + |V| k, k the
shortlex rank of P among the diagram's representatives.  The lift of a
graph cycle v_0 ... v_{n-1} through the identity fundamental domain
crosses the hyperplanes (v_j, <lk v_j>), numbered by the indices of the
v_j, and its reduced diagram is the cone over the cycle (arc j pairs
boundary positions 2j and 2j-3 mod 2n, n crossings, and one core region,
the identity cone).

Cuts and quasi-cuts are short coarse connections between flats of a cycle.
``_cut_pass`` finds all three kinds in one pass over the flat pairs, around
the one connection search, ``words._connections``, whose product factors
seed the quasi-cut witness.  Arc coarse lengths are read off the cycle's
legal-turn flags (``coarse.FullEdgeCycle``).

Two bounded memos serve the report's lifts.  Quasi-cut candidates depend on
the first flat's representative, the walk and its factors, not on the
cycle, so they are kept on the word context (CANDIDATES_MAX lists, the
oldest dropped first) and a cycle only tests its flats against them.  A
diagram's chord arrangement depends on the chord positions alone, the same
for every lift of an n-cycle; ``_arrangement`` keeps the ARRANGEMENTS_MAX
most recent as immutable values.
"""

from collections import deque, namedtuple
from functools import cmp_to_key, lru_cache

from .coarse import FullEdgeCycle
from .graphs import GraphError, InvariantError
from . import _kernels
from .words import _KINDS, CosetKey, GroupElement, _connections, _factors_by_masks, _in_mask

__all__ = [
    "lift_cycle",
    "DiskDiagram",
    "build_diagram",
    "ShellReport",
    "shell_report",
    "find_icut",
    "find_quasicut",
    "find_cuts",
    "is_taut",
    "verify_taut_diagram_lemma",
]

# chord arrangements kept by ``_arrangement``, and quasi-cut candidate
# lists kept per word context
ARRANGEMENTS_MAX = 256
CANDIDATES_MAX = 1 << 14


def lift_cycle(graph, gamma):
    """Lift an embedded cycle of the defining graph to the full-edge cycle
    through the identity fundamental domain."""
    from .cycles import EmbeddedCycle
    from .words import identity

    if not isinstance(gamma, EmbeddedCycle):
        gamma = EmbeddedCycle(graph, gamma)
    elif gamma.graph is not graph and gamma.graph != graph:
        gamma = EmbeddedCycle(graph, gamma.vertices)
    # the identity is the stripped representative of every coset through it
    e = identity(graph)
    vs = gamma.vertices
    n = len(vs)
    flats = [CosetKey("flat", tuple(sorted((vs[i], vs[(i + 1) % n]))), e) for i in range(n)]
    sings = [CosetKey("singular", (vs[(i + 1) % n],), e) for i in range(n)]
    return FullEdgeCycle(flats, sings)


# ---------------------------------------------------------------------------
# diagram construction
# ---------------------------------------------------------------------------

# ``vertex`` is the (gens, codes) key of the region's flat-space cell
Region = namedtuple(
    "Region", "face_id kind vertex boundary_segment sides in_core", defaults=("?", None, -1, (), False)
)


class DiskDiagram(namedtuple("DiskDiagram", "cycle arcs crossings regions core region_adjacency")):
    """A dual disk diagram: ``arcs`` lists (pos_a, pos_b, hyperplane_root)
    with pos_a < pos_b, ``crossings`` is a set of arc pairs (i, j), ``core``
    lists face ids and ``region_adjacency`` maps a face id to {face id:
    shared edge count}."""

    __slots__ = ()

    def core_regions(self):
        return [r for r in self.regions if r.in_core]

    def signature(self):
        """Canonical content for uniqueness comparisons."""
        return (
            tuple(self.arcs),
            tuple(sorted(self.crossings)),
            tuple(sorted((r.kind, tuple(sorted(r.sides))) for r in self.regions)),
        )

    def to_json_obj(self):
        return {
            "boundary_length": 2 * len(self.cycle),
            "arcs": [{"from": a, "to": b, "hyperplane": int(h)} for a, b, h in self.arcs],
            "crossings": sorted([list(p) for p in self.crossings]),
            "regions": [
                {"id": r.face_id, "kind": r.kind, "core": r.in_core, "sides": len(r.sides)}
                for r in self.regions
            ],
            "core_size": len(self.core),
        }


def _interleaved(a, b):
    (p1, p2), (q1, q2) = a, b
    return (p1 < q1 < p2) != (p1 < q2 < p2)


def _noncrossing_matchings(positions):
    """Perfect matchings of circle positions with no same-class crossing."""
    positions = sorted(positions)
    if not positions:
        return [[]]
    if len(positions) == 2:
        return [[tuple(positions)]]
    out = []
    first = positions[0]
    rest = positions[1:]
    for k, q in enumerate(rest):
        inside = rest[:k]
        outside = rest[k + 1 :]
        if len(inside) % 2:
            continue
        for mi in _noncrossing_matchings(inside):
            for mo in _noncrossing_matchings(outside):
                out.append([(first, q)] + mi + mo)
    return out


def _matching_choices(by_class):
    """(hyperplane, candidate pairings) for each crossed hyperplane, in the
    order ``build_diagram`` tries them.  The diagram is unique, so its output
    does not depend on this order."""
    choices = []
    for h in sorted(by_class):
        ms = _noncrossing_matchings(by_class[h])
        if not ms:
            raise InvariantError("no valid arc pairing for a hyperplane")
        choices.append((h, ms))
    return choices


def build_diagram(cycle):
    """The reduced dual disk diagram of an embedded full-edge cycle.

    Raises ``InvariantError`` when the assembled diagram breaks the
    square-complex structure.
    """
    n = len(cycle)
    ctx = cycle.flats[0].rep.ctx
    # boundary edge at position 2i: (f_i, s_i); at 2i+1: (s_i, f_{i+1})
    labels = []
    for i in range(n):
        s = (cycle.singulars[i].gens, cycle.singulars[i].rep.codes)
        labels.append(_edge_label(ctx, s, cycle.flats[i].gens))
        labels.append(_edge_label(ctx, s, cycle.flats[(i + 1) % n].gens))
    reps = sorted({p for _, p in labels}, key=lambda p: (len(p), p))
    rank = {p: k for k, p in enumerate(reps)}
    number = {lab: lab[0] + len(ctx.generators) * rank[lab[1]] for lab in labels}
    label_of = {h: lab for lab, h in number.items()}
    classes = [number[lab] for lab in labels]

    by_class = {}
    for p, h in enumerate(classes):
        by_class.setdefault(h, []).append(p)
    for h, ps in by_class.items():
        if len(ps) % 2:
            raise InvariantError("a closed cycle crosses a hyperplane an odd number of times")

    choices = _matching_choices(by_class)
    hs = sorted(label_of)
    cross_classes = {
        (h1, h2)
        for k, h1 in enumerate(hs)
        for h2 in hs[k + 1 :]
        if _crosses(ctx, label_of[h1], label_of[h2])
    }

    def fits(acc, new):
        # interleaved arcs must be distinct crossing hyperplanes.  The arcs
        # of acc are consistent, and the new arcs, one hyperplane's
        # noncrossing pairing, do not interleave: only pairs of a new and
        # an old arc are checked
        for a, b, h in new:
            for c, d, g in acc:
                if (a < c < b) != (a < d < b) and (g == h or (min(g, h), max(g, h)) not in cross_classes):
                    return False
        return True

    # depth first over the hyperplanes, each trying its pairings in order,
    # as a recursive search would but with no stack frame per hyperplane:
    # untried[k] holds the pairings of hyperplane k not yet tried, and its
    # arcs begin at arcs[start[k]]
    arcs, untried, start = [], [], []
    k = 0
    while k < len(choices):
        h, ms = choices[k]
        if k == len(untried):
            untried.append(iter(ms))
            start.append(len(arcs))
        del arcs[start[k] :]
        for m in untried[k]:
            new = [(a, b, h) for a, b in m]
            if fits(arcs, new):
                arcs += new
                k += 1
                break
        else:
            untried.pop()
            start.pop()
            if not untried:
                raise InvariantError("no consistent dual diagram pairing")
            k -= 1
    arcs.sort()
    arr = _arrangement(2 * n, tuple((a, b) for a, b, _ in arcs))
    regions, core, adjacency = _type_regions(ctx, cycle, [label_of[h] for _, _, h in arcs], arr)
    diagram = DiskDiagram(
        cycle=cycle,
        arcs=arcs,
        crossings=arr.crossings,
        regions=regions,
        core=core,
        region_adjacency=adjacency,
    )
    _check_diagram_observations(diagram, arr)
    return diagram


# Indexed by face id (None at the outer face): ``sides`` lists a face's edge
# labels, ``boundary`` its first boundary segment or -1 (a core face), and
# ``across`` a (piece number, arc, face) triple per chord piece shared with
# another face.  ``seg_face`` maps a boundary segment to its face,
# ``adjacency`` lists (face, ((face, shared pieces), ...)), ``crossing_faces``
# the four faces at each crossing and ``corner_faces`` the faces with three
# nodes, one a crossing.
Arrangement = namedtuple(
    "Arrangement", "crossings faces sides boundary across seg_face core adjacency crossing_faces corner_faces"
)


@lru_cache(maxsize=ARRANGEMENTS_MAX)
def _arrangement(nb, chords):
    """The arrangement of the chords, sorted (a, b) position pairs, on a
    circle with nb boundary points: crossings, faces and the checks that
    need nothing else.  Raises ``InvariantError`` when three chords
    pairwise cross, and what ``_arrangement_faces`` raises."""
    m = len(chords)
    crossings = frozenset(
        (i, j) for i in range(m) for j in range(i + 1, m) if _interleaved(chords[i], chords[j])
    )
    crossed = [set() for _ in range(m)]
    for i, j in crossings:
        crossed[i].add(j)
        crossed[j].add(i)
    if any(crossed[i] & crossed[j] for i, j in crossings):
        raise InvariantError("three pairwise-crossing arcs: not a flat-space diagram")
    faces, face_edges, seg_face, edge_faces, face_nodes = _arrangement_faces(nb, chords, crossings)

    nfaces = max(faces, default=-1) + 2
    sides, boundary, across = [None] * nfaces, [None] * nfaces, [None] * nfaces
    piece = {lab: k for k, lab in enumerate(edge_faces)}
    for fid in faces:
        labs = sides[fid] = tuple(face_edges[fid])
        boundary[fid] = next((lab[1] for lab in labs if lab[0] == "seg"), -1)
        shared = []
        for lab in labs:
            both = edge_faces[lab]
            if lab[0] == "arc" and len(both) == 2:
                shared.append((piece[lab], lab[1], both[0] if both[1] == fid else both[1]))
        across[fid] = tuple(shared)
    adjacency = {}
    for lab, fs in edge_faces.items():
        if lab[0] == "arc" and len(fs) == 2:
            a, b = fs
            adjacency.setdefault(a, {}).setdefault(b, 0)
            adjacency.setdefault(b, {}).setdefault(a, 0)
            adjacency[a][b] += 1
            adjacency[b][a] += 1
    node_faces = {}
    corner_faces = set()
    for fid, nodes in face_nodes.items():
        crossing_nodes = [u for u in nodes if u[0] == "x"]
        for u in crossing_nodes:
            node_faces.setdefault(u, set()).add(fid)
        if len(nodes) == 3 and len(crossing_nodes) == 1:
            corner_faces.add(fid)
    return Arrangement(
        crossings=crossings,
        faces=tuple(faces),
        sides=tuple(sides),
        boundary=tuple(boundary),
        across=tuple(across),
        seg_face=tuple(seg_face.get(k) for k in range(nb)),
        core=tuple(fid for fid in faces if boundary[fid] < 0),
        adjacency=tuple((a, tuple(nbrs.items())) for a, nbrs in adjacency.items()),
        # a crossing with the outer face around it cannot occur
        crossing_faces=tuple(tuple(fs) for fs in node_faces.values() if len(fs) == 4),
        corner_faces=frozenset(corner_faces),
    )


def _arrangement_faces(nb, arcs, crossings):
    """Faces of the chord arrangement on a circle with nb boundary points.

    Edges are ("seg", k) circle segments or ("arc", arc_id, step) chord
    pieces.  Returns inner face ids, their edge label walks, the segment to
    face map, the edge label to faces map, and the node walks per face.
    """
    per_arc = {i: [] for i in range(len(arcs))}
    for i, j in crossings:
        per_arc[i].append(j)
        per_arc[j].append(i)

    def inside(chord, pos):
        a, b = arcs[chord][:2]
        return a < pos < b

    def order_on(i):
        # chords crossing arc i are pairwise disjoint (no arc triangles), so
        # "y lies beyond x as seen from the start of i" is a total order
        a1 = arcs[i][0]

        def cmp(x, y):
            if x == y:
                return 0
            return -1 if inside(x, arcs[y][0]) != inside(x, a1) else 1

        return sorted(per_arc[i], key=cmp_to_key(cmp))

    arc_nodes = {}
    for i in range(len(arcs)):
        path = [("b", arcs[i][0])]
        for j in order_on(i):
            path.append(("x", min(i, j), max(i, j)))
        path.append(("b", arcs[i][1]))
        arc_nodes[i] = path

    # Nodes are numbered as they first appear and edges as they are added.
    # Half-edge 2e runs along edge e from its first end to its second, 2e + 1
    # back; out[u] lists the half-edges leaving node u in the order they
    # were added, which is the order faces are traced in.
    node_id = {}
    nodes = []
    out = []
    labels = []
    head = []  # head node of each half-edge

    def add_edge(a, b, label):
        for x in (a, b):
            if x not in node_id:
                node_id[x] = len(nodes)
                nodes.append(x)
                out.append([])
        ia, ib = node_id[a], node_id[b]
        out[ia].append(len(head))
        out[ib].append(len(head) + 1)
        head.extend((ib, ia))
        labels.append(label)

    for k in range(nb):
        add_edge(("b", k), ("b", (k + 1) % nb), ("seg", k))
    for i, path in arc_nodes.items():
        for t in range(len(path) - 1):
            add_edge(path[t], path[t + 1], ("arc", i, t))

    def anchor(h):
        # the boundary position a chord piece points toward; a chord is
        # added from its first end, so even half-edges run toward its second
        lab = labels[h >> 1]
        return arcs[lab[1]][1 - (h & 1)], nodes[head[h]], lab

    # the rotation at each node, and each half-edge's position in the
    # rotation at its tail
    pos = [0] * len(head)
    rotations = []
    for u, hs in enumerate(out):
        if nodes[u][0] == "b":
            # the segment on, the chord, the segment back
            after = node_id.get(("b", (nodes[u][1] + 1) % nb))
            rot = sorted(hs, key=lambda h: 1 if labels[h >> 1][0] != "seg" else 0 if head[h] == after else 2)
        else:
            # only chords meet at a crossing
            rot = sorted(hs, key=anchor)
        for idx, h in enumerate(rot):
            pos[h] = idx
        rotations.append(rot)
    # the half-edge u -> v continues along the half-edge before v -> u in
    # the rotation at v
    nxt = [rotations[head[h]][pos[h ^ 1] - 1] for h in range(len(head))]

    faces = []
    face_of = [-1] * len(nxt)
    for hs in out:
        for he in hs:
            if face_of[he] >= 0:
                continue
            fid = len(faces)
            walk = []
            cur = he
            while face_of[cur] < 0:
                face_of[cur] = fid
                walk.append(cur)
                cur = nxt[cur]
            if cur != he:
                raise InvariantError("face tracing failed to close")
            faces.append(walk)

    if len(nodes) - len(labels) + len(faces) != 2:
        raise InvariantError("arrangement failed the Euler check")

    outer = face_of[1]  # the half-edge b_1 -> b_0 along segment 0
    seg_face = {}
    edge_faces = {}
    face_edges = {}
    face_nodes = {}
    for fid, walk in enumerate(faces):
        if fid == outer:
            continue
        labs = [labels[h >> 1] for h in walk]
        face_edges[fid] = labs
        face_nodes[fid] = [nodes[head[h ^ 1]] for h in walk]
        for lab in labs:
            edge_faces.setdefault(lab, []).append(fid)
            if lab[0] == "seg":
                if lab[1] in seg_face:
                    raise GraphError("cycle required: a region meets the boundary twice")
                seg_face[lab[1]] = fid
    inner = [fid for fid in range(len(faces)) if fid != outer]
    return inner, face_edges, seg_face, edge_faces, face_nodes


def _type_regions(ctx, cycle, arc_labels, arr):
    n = len(cycle)
    # boundary faces carry the vertex of their boundary segment: between
    # crossings k and k+1 the boundary runs through s_i (k = 2i) or f_{i+1}
    vertex_of = {}
    for k in range(2 * n):
        fid = arr.seg_face[k]
        if fid is None:
            raise InvariantError("boundary segment lost its region")
        i, odd = divmod(k, 2)
        key = cycle.singulars[i] if not odd else cycle.flats[(i + 1) % n]
        x = (key.gens, key.rep.codes)
        if fid in vertex_of and vertex_of[fid] != x:
            raise GraphError("cycle required: boundary region is not a single block")
        vertex_of[fid] = x

    # crossing a hyperplane back returns to the same cell, so each piece of
    # an arc is crossed once, from the side reached first
    crossed = set()
    pending = deque(fid for fid in arr.faces if fid in vertex_of)
    while pending:
        fid = pending.popleft()
        x = vertex_of[fid]
        for piece, arc, other in arr.across[fid]:
            if piece in crossed:
                continue
            crossed.add(piece)
            y = _block_across(ctx, x, arc_labels[arc])
            if other in vertex_of:
                if vertex_of[other] != y:
                    raise InvariantError("region propagation conflict: diagram is inconsistent")
            else:
                vertex_of[other] = y
                pending.append(other)

    regions = []
    for fid in arr.faces:
        if fid not in vertex_of:
            raise InvariantError("region not reached by propagation")
        x = vertex_of[fid]
        seg = arr.boundary[fid]
        regions.append(Region(fid, _KINDS[len(x[0])], x, seg, arr.sides[fid], seg < 0))
    if not arr.core:
        raise GraphError("empty core: the boundary is not an embedded cycle")
    return regions, list(arr.core), {a: dict(nbrs) for a, nbrs in arr.adjacency}


# ---------------------------------------------------------------------------
# hyperplanes by coset algebra
# ---------------------------------------------------------------------------

def _edge_label(ctx, x, up):
    """The hyperplane dual to the edge from the cell x = (gens, h) up to the
    cell with generators ``up``, one generator v more: (index of v,
    stripped representative of h<lk v>).  The generators of x are in lk v,
    so any representative h of x names that coset."""
    gens, h = x
    v = ctx.index[up[0] if up[0] not in gens else up[-1]]
    return v, ctx.strip(h, ctx.comm_masks[v])


def _crosses(ctx, a, b):
    """Whether the hyperplanes labelled a = (u, P) and b = (w, Q) cross: some
    square (g, g<u>, g<u,w>, g<w>) has g in P<lk u> and in Q<lk w>, that is,
    u ~ w and P^-1 Q is in <lk u><lk w>."""
    (u, p), (w, q) = a, b
    comm = ctx.comm_masks
    if not comm[u] >> w & 1:
        return False
    return _factors_by_masks(ctx, ctx.quotient(p, q), [comm[u], comm[w]]) is not None


def _u_factor(ctx, g, label):
    """The <u> factor a of g^-1 P = a l in <u><lk u>, for the label (u, P),
    or None: g a is the cone of g<u> whose edge to g<u> is dual to (u, P).
    <u><lk u> is the direct product <st u>, so g^-1 P is in it iff its
    letters are in st u, and a is then its u-letters."""
    u, p = label
    w = ctx.quotient(g, p)
    if not _in_mask(w, ctx.star_masks[u]):
        return None
    return tuple(c for c in w if _kernels.letter_gen(c) == u)


def _block_across(ctx, x, label):
    """The cell across the hyperplane labelled (u, P) from the cell x, a
    (gens, codes) key whose star the hyperplane meets:

    - cone g: the singular g<u>, iff g<lk u> = P<lk u>;
    - singular g<u>: the cone g a, a the <u> factor of g^-1 P in <u><lk u>;
    - singular g<v>, v in lk u: the flat g<u,v>, iff g<lk u> = P<lk u>;
    - flat g<u,v>: the singular (g a)<v>, a as for g<u>.

    Two cosets of <lk u> are equal iff their stripped representatives are.
    Any other case is an ``InvariantError``: the diagram's region typing
    only asks across a hyperplane that bounds the region.
    """
    gens, g = x
    u, p = label
    comm = ctx.comm_masks
    name = ctx.generators[u]
    if not gens:
        if ctx.strip(g, comm[u]) == p:
            return (name,), ctx.strip(g, 1 << u)
    elif len(gens) == 1:
        v = ctx.index[gens[0]]
        if v == u:
            a = _u_factor(ctx, g, label)
            if a is not None:
                return (), ctx.nf(g + a)
        elif comm[u] >> v & 1 and ctx.strip(g, comm[u]) == p:
            pair = (name, gens[0]) if u < v else (gens[0], name)
            return pair, ctx.strip(g, 1 << u | 1 << v)
    elif name in gens:
        other = gens[1] if gens[0] == name else gens[0]
        a = _u_factor(ctx, g, label)
        if a is not None:
            return (other,), ctx.strip(ctx.nf(g + a), 1 << ctx.index[other])
    raise InvariantError("the hyperplane does not meet the star of the region's vertex")


def _check_diagram_observations(diagram, arr):
    """Square-complex structure transported to the diagram: around every arc
    crossing sit one cone, one flat and two singular regions; every corner
    region is flat; cone regions are interior."""
    kind = {r.face_id: r.kind for r in diagram.regions}
    for fs in arr.crossing_faces:
        if sorted(kind[f] for f in fs) != ["cone", "flat", "singular", "singular"]:
            raise InvariantError("crossing regions are not cone+flat+two singulars")
    for r in diagram.regions:
        if r.in_core:
            continue
        if r.face_id in arr.corner_faces and r.kind != "flat":
            raise InvariantError("corner region is not a flat region")
        if r.kind == "cone":
            raise InvariantError("cone region touches the boundary")


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

ShellRecord = namedtuple("ShellRecord", "face_id sides boundary_corners internal_edges score shell_class")


class ShellReport(namedtuple("ShellReport", "records total_score case ladder")):
    __slots__ = ()

    def to_json_obj(self):
        return {
            "records": [
                {
                    "region": r.face_id,
                    "sides": r.sides,
                    "corners_on_boundary": r.boundary_corners,
                    "internal_edges": r.internal_edges,
                    "score": r.score,
                    "class": r.shell_class,
                }
                for r in self.records
            ],
            "total_score": self.total_score,
            "case": self.case,
            "ladder": self.ladder,
        }


def shell_report(diagram):
    """Per-core-region side and corner counts, the Gauss-Bonnet score
    C_i - n_i + 4, the shells alternative realized, and ladder detection."""
    core = set(diagram.core)
    if not core:
        raise GraphError("empty core")
    edge_users = {}
    for r in diagram.regions:
        if r.in_core:
            for lab in r.sides:
                edge_users.setdefault(lab, []).append(r.face_id)
    shared = {lab for lab, fs in edge_users.items() if len(fs) == 2}
    recs = []
    by_face = {r.face_id: r for r in diagram.regions}
    for fid in sorted(core):
        sides = list(by_face[fid].sides)
        m = len(sides)
        internal = sum(1 for lab in sides if lab in shared)
        corners = 0
        for t in range(m):
            if sides[t] not in shared and sides[(t + 1) % m] not in shared:
                corners += 1
        score = corners - m + 4
        cls = {0: "0-shell", 1: "1-shell", 2: "2-shell"}.get(internal, "none")
        recs.append(
            ShellRecord(
                face_id=fid,
                sides=m,
                boundary_corners=corners,
                internal_edges=internal,
                score=score,
                shell_class=cls,
            )
        )
    total = sum(r.score for r in recs)
    ones = sum(1 for r in recs if r.shell_class == "1-shell")
    twos = sum(1 for r in recs if r.shell_class == "2-shell")
    if len(recs) == 1:
        case = "single_cell"
    elif ones >= 2:
        case = "two_1shells"
    elif ones >= 1 and twos >= 2:
        case = "one_1shell_two_2shells"
    elif twos >= 4:
        case = "four_2shells"
    else:
        case = "other"
    # ladder: the core cells chain up so that P_i and P_j share an edge iff
    # |i-j| <= 1; the two chain ends are then the diagram's 1-shells
    ladder = len(recs) >= 2 and _is_ladder(diagram, core)
    return ShellReport(records=recs, total_score=total, case=case, ladder=ladder)


def _is_ladder(diagram, core):
    adj = {f: set() for f in core}
    for a, nbrs in diagram.region_adjacency.items():
        if a not in core:
            continue
        for b in nbrs:
            if b in core:
                adj[a].add(b)
    degs = sorted(len(v) for v in adj.values())
    if degs != [1, 1] + [2] * (len(core) - 2):
        return False
    start = next(f for f in core if len(adj[f]) == 1)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(core)


# ---------------------------------------------------------------------------
# cuts and tautness
# ---------------------------------------------------------------------------

def _cut_pass(cycle, kinds):
    """Yield (kind, cut) for the first cut of each kind in ``kinds`` (1, 2
    for i-cuts, 3 for the quasi-cut), in one pass over the flat pairs
    p < q.  A pair's arc lengths and quotient serve all kinds, and each
    kind's cut is the one that a pass for that kind alone finds first."""
    if not isinstance(cycle, FullEdgeCycle):
        raise GraphError("expected a FullEdgeCycle")
    n = len(cycle)
    ctx = cycle.flats[0].rep.ctx
    want = set(kinds)
    cycle_flats = {(k.gens, k.rep.codes) for k in cycle.flats} if 3 in want else None
    legal = cycle._legal_prefix
    for p in range(n):
        fp = cycle.flats[p]
        for q in range(p + 1, n):
            # the shorter of the arcs f_p -> f_q and f_q -> f_p, as in
            # ``arc_coarse_length``
            shortest = min(legal[q] - legal[p + 1], legal[n + p] - legal[q + 1]) + 1
            icuts = [i for i in (1, 2) if i in want and shortest > i]
            quasi = 3 in want and min(q - p, n - (q - p)) >= 2
            if not (icuts or quasi):
                continue
            fq = cycle.flats[q]
            w = ctx.quotient(fp.rep.codes, fq.rep.codes)
            for i in icuts:
                hit = next(_connections(fp, fq, i, w), None)
                if hit is not None:
                    cut = {"kind": "%d-cut" % i, "v": p, "w": q, "coarse_length": i}
                    if i == 1:
                        cut["shared_generators"] = sorted(set(fp.gens) & set(fq.gens))
                    else:
                        cut["via_edge"] = hit[0]
                    want.discard(i)
                    yield i, cut
            if quasi:
                for walk, factors in _connections(fp, fq, 3, w):
                    wit = _quasicut_witness(cycle_flats, fp, walk, factors)
                    if wit is not None:
                        want.discard(3)
                        yield 3, {
                            "kind": "quasi-cut",
                            "v": p,
                            "w": q,
                            "coarse_length": 3,
                            "via_path": walk,
                            "interior_flats": [k.label() for k in wit],
                        }
                        break
            if not want:
                return


def find_icut(cycle, i):
    """An i-cut: flat vertices v, w on the cycle joined by a full-edge path
    of coarse length i while both cycle arcs have coarse length > i.  The
    connections of ``words._connections`` are exact, so None means
    there is no i-cut."""
    if i not in (1, 2):
        raise GraphError("only 1-cuts and 2-cuts are meaningful")
    return next(_cut_pass(cycle, (i,)), (i, None))[1]


def find_quasicut(cycle):
    """A coarse-length-3 connection between non-adjacent cycle flats whose
    interior avoids the cycle's flat vertices.  By the quasi-cut lemma such
    a connection already forces a 1- or 2-cut somewhere, so tautness must
    reject it; it is exactly how 2-shortcuts of the defining graph surface
    in the flat space.

    The search is not exhaustive: for each connection it tries the
    canonical factorization and its one-letter centralizer twists (see
    ``_quasicut_candidates``).  None means that no such candidate avoids the
    cycle's flats, not that no quasi-cut exists.
    """
    return next(_cut_pass(cycle, (3,)), (3, None))[1]


def find_cuts(cycle):
    """The first 1-cut, 2-cut and quasi-cut of the cycle, each None if
    there is none, from one pass over its flat pairs: {"cut_1": ...,
    "cut_2": ..., "quasi_cut": ...}."""
    found = dict(_cut_pass(cycle, (1, 2, 3)))
    return {"cut_1": found.get(1), "cut_2": found.get(2), "quasi_cut": found.get(3)}


def _twist_letters(mask):
    """g^+1, g^-1 for each generator index g in mask, in sorted order."""
    out = []
    while mask:
        low = mask & -mask
        g = low.bit_length() - 1
        out += (_kernels.letter(g, 1), _kernels.letter(g, -1))
        mask ^= low
    return out


def _quasicut_witness(cycle_flats, fp, walk, factors):
    """The first candidate of ``_quasicut_candidates`` whose turning flats
    both avoid the cycle's flats (a set of (gens, codes)), as coset keys, or
    None."""
    ctx = fp.rep.ctx
    memo = ctx.quasicut_candidates
    key = (fp.rep.codes, walk, tuple(factors))
    cands = memo.get(key)
    if cands is None:
        if len(memo) >= CANDIDATES_MAX:
            del memo[next(iter(memo))]
        cands = memo[key] = _quasicut_candidates(ctx, fp.rep.codes, walk, factors)
    for k1, k2s in cands:
        if k1 in cycle_flats:
            continue
        for k2 in k2s:
            if k2 not in cycle_flats:
                return [
                    CosetKey("flat", gens, GroupElement(ctx, codes, _canonical=True))
                    for gens, codes in (k1, k2)
                ]
    return None


def _quasicut_candidates(ctx, rep, walk, factors):
    """The turning flats c1<x,t>, c2<t,z> that may realize the connection
    along the walk (x, t, z), as ((gens, codes) of c1, ((gens, codes) of
    c2, ...)) pairs in the order they are tried.  They depend on rep(fp),
    the walk and its factors, not on the cycle, whose flats are tested
    afterwards.

    With P = rep(fp) and the walk's factors a1 a2 a3 (aj in C(tj)), the
    candidates are c1 = P alpha and c2 = P alpha beta with alpha in C(x),
    beta in C(t) and the rest of the product in C(z): first alpha = a1,
    then the twists a1 g^s for g in st(x) and s = +1, -1; for each alpha,
    beta is the C(t) factor of alpha^-1 a1 a2 a3, then its twists beta h^s.
    Twists that cannot pass or that repeat a candidate are left out, which
    leaves the first witness unchanged:

    - The rest after beta h^s is h^-s times a C(z) factor, so it lies in
      C(z) only for h in st(z); and h in {t, z} leaves c2 unchanged.  So h
      runs over the common neighbours of t and z only.
    - g in {x, t} leaves c1 unchanged and, since g is in st(t), leaves
      the rest g^-s alpha^-1 a1 a2 a3 in the same coset of C(t), so its
      C(z) factor, the minimal representative of that coset, is unchanged
      too: the candidate repeats the untwisted one.
    - g outside st(t) | st(z) cannot pass: a2 a3 has its support in
      st(t) | st(z), so no letter cancels g^-s and g is in the support of
      g^-s a2 a3, an invariant of the element, while every element of
      C(t) C(z) has its support in st(t) | st(z).  On a graph of girth at
      least 5, such as an atomic one, no g and no h is left.
    - An alpha whose rest has no factoring in C(t) C(z) gives no c2.
    """
    nf, strip = ctx.nf, ctx.strip
    x, t, z = walk
    ix, it, iz = ctx.index[x], ctx.index[t], ctx.index[z]
    xt, tz = tuple(sorted((x, t))), tuple(sorted((t, z)))
    m_xt, m_tz = (1 << ix) | (1 << it), (1 << it) | (1 << iz)
    st_t, st_z = ctx.star_masks[it], ctx.star_masks[iz]
    tz_masks = (st_t, st_z)
    a1, a2, a3 = factors
    pa0, rest0 = nf(rep + a1), nf(a2 + a3)
    beta_twists = [None] + _twist_letters(ctx.comm_masks[it] & ctx.comm_masks[iz])
    out = []
    for g in [None] + _twist_letters(ctx.star_masks[ix] & (st_t | st_z) & ~m_xt):
        if g is None:
            pa, rest = pa0, rest0
        else:
            pa, rest = nf(pa0 + (g,)), nf((_kernels.letter_inv(g),) + rest0)
        fac = _factors_by_masks(ctx, rest, tz_masks)
        if fac is None:
            continue
        pab = nf(pa + fac[0])
        k2s = tuple((tz, strip(pab if h is None else nf(pab + (h,)), m_tz)) for h in beta_twists)
        out.append(((xt, strip(pa, m_xt)), k2s))
    return tuple(out)


def is_taut(cycle):
    """No 1-cut, no 2-cut, and no quasi-cut."""
    return next(_cut_pass(cycle, (1, 2, 3)), None) is None


def verify_taut_diagram_lemma(cycle):
    """For a taut cycle, the diagram core must be a single cell."""
    if not is_taut(cycle):
        raise GraphError("verify_taut_diagram_lemma requires a taut cycle")
    d = build_diagram(cycle)
    return len(d.core) == 1
