import copy
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import raagqi._kernels as K
import raagqi.coarse as CO
import raagqi.flatspace as FS
import raagqi.graphs as G
import raagqi.words as W
from raagqi.graphs import DefiningGraph, GraphError, star_graph
from raagqi.words import flat_key, identity, normal_form, singular_key

from ball_helpers import edge_id, find, incident_edges, is_interior, vertices_by_kind, vkeys
from conftest import small_connected_graphs


def test_radius_validation(pentagon):
    with pytest.raises(GraphError):
        FS.build_ball(pentagon, 1)
    with pytest.raises(GraphError):
        FS.build_ball(DefiningGraph(["a", "b"], []), 2)


def test_fundamental_domain_counts(pentagon):
    b = FS.build_ball(pentagon, 2)
    st = b.stats()
    assert st["vertices"] == 11
    assert st["vertices_by_type"] == {"cone": 1, "singular": 5, "flat": 5}
    assert st["squares"] == 5
    assert st["complete_radius"] == 0


def test_ball_determinism(pentagon):
    b1 = FS.build_ball(pentagon, 5)
    b2 = FS.build_ball(pentagon, 5)
    assert vkeys(b1) == vkeys(b2)
    assert b1.edge_lo == b2.edge_lo and b1.edge_hi == b2.edge_hi
    assert b1.squares == b2.squares


def test_ball_structure_pentagon(pentagon_ball6):
    rep = FS.verify_ball_structure(pentagon_ball6)
    assert rep == {
        "passed": True,
        "squares_typed": True,
        "cone_links_isomorphic": True,
        "bad_cones": 0,
        "interior_links_checked": 60,
        "links_girth_ok": True,
        "bad_links": 0,
    }


def test_cone_link_is_barycentric_subdivision(pentagon):
    b = FS.build_ball(pentagon, 4)
    assert b.stats()["vertices"] == 91
    for ci in vertices_by_kind(b, "cone"):
        nodes, edges = b.cone_link_graph(ci)
        sing = {i for i in nodes if b.kind_of(i) == "singular"}
        flat = {i for i in nodes if b.kind_of(i) == "flat"}
        assert len(sing) == 5 and len(flat) == 5
        # every link edge joins a singular of kind u to a flat containing u
        for a, bb in edges:
            s, f = (a, bb) if b.kind_of(a) == "singular" else (bb, a)
            assert b.gens_of(s)[0] in b.gens_of(f)
        # each flat meets exactly its two endpoint singulars
        deg = {f: 0 for f in flat}
        for a, bb in edges:
            f = a if b.kind_of(a) == "flat" else bb
            deg[f] += 1
        assert set(deg.values()) == {2}


def test_key_lookup_roundtrip(pentagon_ball6, pentagon):
    e = identity(pentagon)
    k = flat_key(e, "a", "b")
    i = find(pentagon_ball6, k)
    assert i >= 0
    assert pentagon_ball6.key_of(i) == k
    missing = flat_key(normal_form(pentagon, "a b c a b c"), "d", "e")
    j = find(pentagon_ball6, missing)
    assert j == -1 or pentagon_ball6.key_of(j) == missing


@pytest.mark.parametrize(
    "graph, radius",
    [(G.pentagon(), 4), (star_graph("b", ["a", "c", "d"]), 2), (G.cycle_graph(130), 4)],
    ids=["pentagon-r4", "K13-r2", "C130-r4"],
)
def test_cell_key_roundtrip(graph, radius):
    # a cell's key is (gens, codes): the coset's generators and the stripped
    # normal form of its representative, with no limit on the letter codes
    ball = FS.build_ball(graph, radius)
    for i in range(ball.nvertices):
        key = ball.key_of(i)
        assert find(ball, key) == i
        assert key == W.coset_key(ball.rep_of(i), ball.kind_of(i), ball.gens_of(i))


# ---------------------------------------------------------------------------
# reference ball: one coset strip per cell, cells keyed by (gens, codes) in a
# dict, edges deduplicated by a set; and the per-row structure check
# ---------------------------------------------------------------------------

def _syllables(codes):
    return sum(1 for i, c in enumerate(codes) if i == 0 or (c - 1) >> 1 != (codes[i - 1] - 1) >> 1)


def reference_ball(graph, radius):
    ctx = W.context_for(graph)
    gens = ctx.generators
    n = len(gens)
    edge_pairs = sorted(tuple(sorted((ctx.index[a], ctx.index[b]))) for a, b in graph.edges)
    budget = (radius - 2) // 2
    index, vkeys = {}, []

    def add(key):
        if key not in index:
            index[key] = len(vkeys)
            vkeys.append(key)
        return index[key]

    edge_rows, square_rows, cone_start, singular_of = [], [], {}, {}
    for g in W.syllable_ball(graph, budget, budget):
        codes = g.codes
        support = 0
        for c in codes:
            support |= 1 << ((c - 1) >> 1)
        ci = add(((), codes))
        cone_start[ci] = len(square_rows)
        srefs = []
        for u in range(n):
            mask = 1 << u
            si = add(((gens[u],), codes if not support & mask else ctx.strip(codes, mask)))
            srefs.append(si)
            edge_rows.append((ci, si))
        singular_of[ci] = dict(zip(gens, srefs))
        for u, w in edge_pairs:
            mask = (1 << u) | (1 << w)
            fi = add(((gens[u], gens[w]), codes if not support & mask else ctx.strip(codes, mask)))
            edge_rows += [(srefs[u], fi), (srefs[w], fi)]
            square_rows.append((ci, srefs[u], fi, srefs[w]))
    nv = len(vkeys)
    enc = sorted({min(a, b) * nv + max(a, b) for a, b in edge_rows})
    counts = {"cone": 0, "singular": 0, "flat": 0}
    for key_gens, _ in vkeys:
        counts[("cone", "singular", "flat")[len(key_gens)]] += 1
    stats = {
        "radius": radius,
        "complete_radius": radius - 2,
        "budget": budget,
        "vertices": nv,
        "vertices_by_type": counts,
        "edges": len(enc),
        "squares": len(square_rows),
    }
    return {
        "graph": graph,
        "budget": budget,
        "vkeys": vkeys,
        "edge_lo": [e // nv for e in enc],
        "edge_hi": [e % nv for e in enc],
        "squares": square_rows,
        "cone_start": cone_start,
        "singular_of": singular_of,
        "stats": stats,
    }


def reference_structure(ref):
    vkeys, sq = ref["vkeys"], ref["squares"]
    nV, nE = len(ref["graph"].vertices), len(ref["graph"].edges)
    kinds = [len(key_gens) for key_gens, _ in vkeys]
    squares_typed = all(kinds[row[j]] == want for row in sq for j, want in enumerate((0, 1, 2, 1)))

    def girth(edges):
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return G._girth(adj, edges)

    def cone_rows(ci):
        return sq[ref["cone_start"][ci] : ref["cone_start"][ci] + nE]

    cones = [i for i, (key_gens, _) in enumerate(vkeys) if not key_gens]
    bad_cones = 0
    subdivided = set()
    for ci in cones:
        sing_kind, flat_kind, ok = {}, {}, True
        for _, s1, f, s2 in cone_rows(ci):
            if (kinds[s1], kinds[f], kinds[s2]) != (1, 2, 1):
                ok = False
                break
            u1, u2, fe = vkeys[s1][0][0], vkeys[s2][0][0], vkeys[f][0]
            own = ref["singular_of"][ci]
            if (
                {u1, u2} != set(fe)
                or (own[u1], own[u2]) != (s1, s2)
                or sing_kind.setdefault(u1, s1) != s1
                or sing_kind.setdefault(u2, s2) != s2
                or flat_kind.setdefault(fe, f) != f
            ):
                ok = False
                break
        if ok and len(sing_kind) == nV and len(flat_kind) == nE:
            subdivided.add(ci)
        else:
            bad_cones += 1
    lim = max(0, ref["budget"] - 2)
    interior = [i for i, (key_gens, codes) in enumerate(vkeys) if key_gens and _syllables(codes) <= lim]
    rows_with = {}  # (cell, column) -> the square rows with the cell there
    for row in sq:
        for col, x in enumerate(row):
            rows_with.setdefault((x, col), []).append(row)
    bad_links = 0
    for vi in interior:
        edges = set()
        for col in range(4):
            for row in rows_with.get((vi, col), ()):
                a, b = row[col - 1], row[(col + 1) % 4]
                edges.add((min(a, b), max(a, b)))
        bad_links += girth(edges) < 4
    subdivision_girth = None
    for ci in cones[:50]:
        if ci in subdivided and subdivision_girth is not None:
            bad_links += subdivision_girth < 4
            continue
        edges = set()
        for _, s1, f, s2 in cone_rows(ci):
            edges |= {(min(s1, f), max(s1, f)), (min(s2, f), max(s2, f))}
        g = girth(edges)
        if ci in subdivided:
            subdivision_girth = g
        bad_links += g < 4
    return {
        "passed": squares_typed and bad_cones == 0 and bad_links == 0,
        "squares_typed": squares_typed,
        "cone_links_isomorphic": bad_cones == 0,
        "bad_cones": bad_cones,
        "interior_links_checked": len(interior) + len(cones[:50]),
        "links_girth_ok": bad_links == 0,
        "bad_links": bad_links,
    }


def assert_matches_reference(graph, radius):
    ball = FS.build_ball(graph, radius)
    ref = reference_ball(graph, radius)
    assert vkeys(ball) == ref["vkeys"]
    assert list(ball.edge_lo) == ref["edge_lo"]
    assert list(ball.edge_hi) == ref["edge_hi"]
    assert list(ball.squares) == [x for row in ref["squares"] for x in row]
    assert ball.stats() == ref["stats"]
    assert FS.verify_ball_structure(ball) == reference_structure(ref)


@pytest.mark.parametrize(
    "graph, radius",
    [
        (G.pentagon(), 6),
        (G.pentagon(), 8),
        (G.dodecahedron(), 4),
        (G.dodecahedron_double(), 4),
        (star_graph("b", ["a", "c", "d"]), 2),
        (G.cycle_graph(130), 4),
    ],
    ids=["pentagon-r6", "pentagon-r8", "dodecahedron-r4", "dd-r4", "K13-r2", "C130-r4"],
)
def test_build_matches_strip_reference(graph, radius):
    assert_matches_reference(graph, radius)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 6]))
@settings(max_examples=30, deadline=None)
def test_build_matches_strip_reference_on_random_graphs(seed, radius):
    # connected graphs on 2..6 vertices: a random tree plus random extra
    # edges, so triangles and larger cliques occur
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(rng.randint(2, 6))]
    edges = {(verts[rng.randrange(i)], verts[i]) for i in range(1, len(verts))}
    for i, a in enumerate(verts):
        for b in verts[i + 1 :]:
            if rng.random() < 0.3:
                edges.add((a, b))
    assert_matches_reference(G.DefiningGraph(verts, sorted(edges)), radius)


@pytest.mark.parametrize("ball_name", ["pentagon_ball6", "dd_ball6"])
def test_stripped_representatives_are_cones(ball_name, request):
    # the invariant that lets a ball name each cell by (cone, slot)
    ball = request.getfixturevalue(ball_name)
    ctx = ball.ctx
    cones = {g.codes for g in ball.cones}
    masks = [1 << i for i in range(len(ctx.generators))]
    masks += [ctx.gen_mask(e) for e in ball.graph.edges]
    for codes in cones:
        support = 0
        for c in codes:
            support |= 1 << ((c - 1) >> 1)
        for mask in masks:
            if support & mask:
                assert ctx.strip(codes, mask) in cones


def test_ball_build_makes_no_strip_calls(monkeypatch, pentagon, dodeca):
    def refuse(*args):
        raise AssertionError("a ball build stripped a coset representative")

    monkeypatch.setattr(W.WordContext, "strip", refuse)
    monkeypatch.setattr(K, "strip_coset_codes", refuse)
    for graph, radius in ((pentagon, 6), (dodeca, 4)):
        ball = FS.build_ball(graph, radius)
        assert FS.verify_ball_structure(ball)["passed"]


# ---------------------------------------------------------------------------
# the structure check must be able to fail
# ---------------------------------------------------------------------------

def _square(ball, row, col):
    """Entry (row, col) of the stored square rows."""
    return ball.squares[4 * row + col]


def _quiet_rows(ball):
    """Square rows past the first 50 cones whose cells are all outside the
    interior: corrupting one changes no link that the check reads from
    other rows."""
    per_cone = len(ball.graph.edges)
    for r in range(50 * per_cone, len(ball.squares) // 4):
        if not any(is_interior(ball, _square(ball, r, col)) for col in (1, 2, 3)):
            yield r


def _corrupted(ball, row, col, cell):
    bad = copy.copy(ball)
    bad.squares = array("i", ball.squares)
    bad.squares[4 * row + col] = cell
    return bad


def _donor(ball, row, col, want):
    """A cell in column col of a quiet row at another cone, chosen by want."""
    per_cone = len(ball.graph.edges)
    for r in _quiet_rows(ball):
        x = _square(ball, r, col)
        if r // per_cone != row // per_cone and want(x):
            return x
    raise AssertionError("no donor cell")


def test_structure_check_rejects_another_cones_flat(pentagon_ball6):
    ball = pentagon_ball6
    row = next(_quiet_rows(ball))
    edge = ball.gens_of(_square(ball, row, 2))
    flat = _donor(ball, row, 2, lambda x: ball.gens_of(x) != edge)
    rep = FS.verify_ball_structure(_corrupted(ball, row, 2, flat))
    assert rep["squares_typed"] is True
    assert rep["cone_links_isomorphic"] is False
    assert rep["bad_cones"] == 1
    assert rep["passed"] is False


def test_structure_check_rejects_a_cone_in_the_flat_column(pentagon_ball6):
    ball = pentagon_ball6
    row = next(_quiet_rows(ball))
    rep = FS.verify_ball_structure(_corrupted(ball, row, 2, _square(ball, row, 0)))
    assert rep["squares_typed"] is False
    assert rep["passed"] is False


def test_structure_check_rejects_a_broken_singular(pentagon_ball6):
    ball = pentagon_ball6
    row = next(_quiet_rows(ball))
    s1 = _square(ball, row, 1)
    other = _donor(ball, row, 1, lambda x: x != s1 and ball.gens_of(x) == ball.gens_of(s1))
    rep = FS.verify_ball_structure(_corrupted(ball, row, 1, other))
    assert rep["squares_typed"] is True
    assert rep["cone_links_isomorphic"] is False
    assert rep["bad_cones"] == 1
    assert rep["passed"] is False


@pytest.mark.parametrize(
    "graph, radius",
    [(G.pentagon(), 6), (DefiningGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]), 6)],
    ids=["pentagon-r6", "triangle-pendant-r6"],
)
def test_structure_check_matches_reference_on_corrupted_squares(graph, radius):
    # one entry of the stored squares replaced by a cone or a cell outside
    # the interior, half the time one of the entry's own kind: the bulk
    # comparison must flag the row and report what the per-row check does
    ball = FS.build_ball(graph, radius)
    ref = reference_ball(graph, radius)
    assert FS.verify_ball_structure(ball) == reference_structure(ref)
    donors = {}
    for i in range(ball.nvertices):
        if ball.kind_of(i) == "cone" or not is_interior(ball, i):
            donors.setdefault(ball.kind_of(i), []).append(i)
    every = [i for cells in donors.values() for i in cells]
    rng = random.Random(17)
    failed = 0
    for _ in range(300):
        row, col = rng.randrange(len(ref["squares"])), rng.randrange(4)
        kind = ball.kind_of(_square(ball, row, col))
        cell = rng.choice(donors[kind] if rng.random() < 0.5 else every)
        rows = list(ref["squares"])
        rows[row] = rows[row][:col] + (cell,) + rows[row][col + 1 :]
        rep = FS.verify_ball_structure(_corrupted(ball, row, col, cell))
        assert rep == reference_structure(dict(ref, squares=rows))
        failed += not rep["passed"]
    assert 100 < failed < 300


def test_structure_check_sees_a_loop_in_an_interior_link(pentagon):
    # a square at an interior flat whose first singular is made equal to its
    # second gives that flat's link a loop
    ball = FS.build_ball(pentagon, 6)
    ref = reference_ball(pentagon, 6)
    row = next(r for r in range(len(ref["squares"])) if is_interior(ball, _square(ball, r, 2)))
    rows = list(ref["squares"])
    rows[row] = rows[row][:1] + rows[row][3:] + rows[row][2:]
    rep = FS.verify_ball_structure(_corrupted(ball, row, 1, _square(ball, row, 3)))
    assert rep == reference_structure(dict(ref, squares=rows))
    assert rep["links_girth_ok"] is False and rep["bad_links"] >= 1


def test_structure_check_on_a_one_vertex_graph():
    # no edges, so no squares: each cone link is the one singular vertex
    ball = FS.build_ball(DefiningGraph(["a"], []), 4)
    assert FS.verify_ball_structure(ball) == {
        "passed": True,
        "squares_typed": True,
        "cone_links_isomorphic": True,
        "bad_cones": 0,
        "interior_links_checked": 4,
        "links_girth_ok": True,
        "bad_links": 0,
    }


# ---------------------------------------------------------------------------
# hyperplanes: the algebraic labels against a union-find over the squares
# ---------------------------------------------------------------------------

def _uf_core(parent, pairs):
    """Reference union-find: sequential unions by least root, then full
    path compression."""
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    for i in range(len(parent)):
        r = i
        while parent[r] != r:
            r = parent[r]
        while parent[i] != r:
            nxt = parent[i]
            parent[i] = r
            i = nxt
    return 0


def assert_hyperplanes_match_union_find(ball):
    # each square (c, s1, f, s2) makes (c, s1) parallel to (s2, f) and (c, s2)
    # to (s1, f); which hyperplanes cross is checked by the coset-algebra
    # oracle of test_diagrams
    sq = ball.squares
    cs1, cs2, s1f, s2f = (
        [edge_id(ball, sq[r + i], sq[r + j]) for r in range(0, len(sq), 4)]
        for i, j in ((0, 1), (0, 3), (1, 2), (3, 2))
    )
    expect = list(range(ball.nedges))
    _uf_core(expect, list(zip(cs1, s2f)) + list(zip(cs2, s1f)))
    root = ball.hyperplanes()
    assert root.typecode == "i"
    assert list(root) == expect
    # each id is the least edge id of its class
    assert all(root[e] <= e and root[root[e]] == root[e] for e in range(ball.nedges))


@pytest.mark.parametrize(
    "graph, radius",
    [
        (G.pentagon(), 6),
        (G.pentagon(), 8),
        (G.dodecahedron(), 4),
        (G.dodecahedron(), 6),
        (G.dodecahedron_double(), 4),
        (G.dodecahedron_double(), 6),
        (DefiningGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]), 4),
        (DefiningGraph(["a"], []), 2),
        (DefiningGraph(["a"], []), 6),
    ],
    ids=["pentagon-r6", "pentagon-r8", "dodecahedron-r4", "dodecahedron-r6", "dd-r4", "dd-r6",
         "triangle-pendant-r4", "vertex-r2", "vertex-r6"],
)
def test_hyperplanes_match_union_find(graph, radius):
    assert_hyperplanes_match_union_find(FS.build_ball(graph, radius))


@given(small_connected_graphs(), st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_hyperplanes_match_union_find_on_random_graphs(graph, radius):
    assert_hyperplanes_match_union_find(FS.build_ball(graph, radius))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_link_short_cycle_check_matches_girth(pairs):
    # a link as a set of edges, loops included: girth < 4 means a loop or a
    # triangle
    edges = {(min(a, b), max(a, b)) for a, b in pairs}
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    assert FS._has_loop_or_triangle(edges) == (G._girth(adj, edges) < 4)


def test_classify_turn(pentagon):
    e = identity(pentagon)
    fab = flat_key(e, "a", "b")
    fae = flat_key(e, "a", "e")
    fbc = flat_key(e, "b", "c")
    sa = singular_key(e, "a")
    sb = singular_key(e, "b")
    bga = singular_key(normal_form(pentagon, "b"), "a")
    fbae = flat_key(normal_form(pentagon, "b"), "a", "e")

    # two distinct full edges through one singular vertex: same stabilizer
    k13 = star_graph("b", ["a", "c", "d"])
    e13 = identity(k13)
    s13 = singular_key(e13, "b")
    assert (
        CO.classify_turn(
            (flat_key(e13, "a", "b"), s13, flat_key(e13, "b", "c")),
            (flat_key(e13, "b", "c"), s13, flat_key(e13, "b", "d")),
        )
        == "illegal"
    )
    # the reversed copy of one full edge is rejected
    with pytest.raises(GraphError):
        CO.classify_turn((fae, sa, fab), (fab, sa, fae))
    # different kinds at the shared flat: trivial intersection
    assert CO.classify_turn((fae, sa, fab), (fab, sb, fbc)) == "legal"
    # translate along the commuting direction: equal stabilizers, illegal
    assert CO.classify_turn((fae, sa, fab), (fab, bga, fbae)) == "illegal"
    with pytest.raises(GraphError):
        CO.classify_turn((fae, sa, fab), (fbc, sb, flat_key(e, "c", "d")))


def test_full_edge_path_and_coarse_length(pentagon):
    e = identity(pentagon)
    path = CO.FullEdgePath([flat_key(e, "a", "b"), singular_key(e, "b"), flat_key(e, "b", "c")])
    assert CO.coarse_length(path) == 1

    stalling = CO.FullEdgePath(
        [
            flat_key(e, "a", "e"),
            singular_key(e, "a"),
            flat_key(e, "a", "b"),
            singular_key(normal_form(pentagon, "b"), "a"),
            flat_key(normal_form(pentagon, "b"), "a", "e"),
        ]
    )
    assert [t for t in stalling.turns()] == ["illegal"]
    assert CO.coarse_length(stalling) == 1

    two_turns = CO.FullEdgePath(
        [
            flat_key(e, "a", "b"),
            singular_key(e, "b"),
            flat_key(e, "b", "c"),
            singular_key(e, "c"),
            flat_key(e, "c", "d"),
        ]
    )
    assert CO.coarse_length(two_turns) == 2
    with pytest.raises(GraphError):
        CO.FullEdgePath([flat_key(e, "a", "b"), singular_key(e, "c"), flat_key(e, "c", "d")])


def test_coarse_distance(pentagon):
    e = identity(pentagon)
    fab = flat_key(e, "a", "b")
    fae = flat_key(e, "a", "e")
    fcd = flat_key(e, "c", "d")
    assert CO.coarse_distance(fab, fab).value == 0
    d = CO.coarse_distance(fab, fae)
    assert d.value == 1 and d.certified
    d = CO.coarse_distance(fab, fcd)
    assert d.value == 2 and d.certified


def test_coarse_distance_metric_properties(pentagon):
    e = identity(pentagon)
    flats = [flat_key(normal_form(pentagon, w), u, v)
             for w in ("", "a", "b c", "c")
             for (u, v) in (("a", "b"), ("c", "d"), ("a", "e"))]
    flats = sorted(set(flats))
    dist = {}
    for f1 in flats:
        for f2 in flats:
            r = CO.coarse_distance(f1, f2)
            assert r.certified
            dist[(f1, f2)] = r.value
    for f1 in flats:
        for f2 in flats:
            assert dist[(f1, f2)] == dist[(f2, f1)]
            for f3 in flats:
                assert dist[(f1, f3)] <= dist[(f1, f2)] + dist[(f2, f3)]


def test_same_parallel_set_examples(pentagon):
    e = identity(pentagon)
    fab = flat_key(e, "a", "b")
    fae = flat_key(e, "a", "e")
    fcd = flat_key(e, "c", "d")
    assert CO.same_parallel_set(fab, fae)
    assert not CO.same_parallel_set(fab, fcd)
    assert not CO.same_parallel_set(fab, fab)
    # a^5 <a,e> is the same coset as <a,e>
    assert flat_key(normal_form(pentagon, "a^5"), "a", "e") == fae


def stalling_reachable_flats(ball, f):
    """Ball flats reachable from f by full-edge paths with no legal turn
    (BFS through the ball's cells).  Dual oracle for same_parallel_set."""
    start = find(ball, f)
    assert start >= 0, "flat vertex not in ball"
    # state: (flat index, stabilizer class) where the class is the singular
    # key of the last full edge; closure over illegal turns only
    sq = ball.squares
    by_flat = {}
    by_sing = {}
    for r in range(0, len(sq), 4):
        s1, fi, s2 = sq[r + 1 : r + 4]
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
                if stab is not None and not W.stabilizers_equal(stab, skey):
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


def test_same_parallel_set_agrees_with_stalling_bfs(pentagon):
    ball = FS.build_ball(pentagon, 8)
    e = identity(pentagon)
    start = flat_key(e, "a", "b")
    reach = stalling_reachable_flats(ball, start)
    # BFS reachability implies the algebraic relation
    for f in reach:
        if f != start:
            assert CO.same_parallel_set(start, f)
    # and conversely for translates of bounded size
    for w in ("", "a", "b", "a b", "b^2", "a^-1 b", "a^3"):
        g = normal_form(pentagon, w)
        for (u, v) in pentagon.edges:
            f = flat_key(g, u, v)
            if f == start or find(ball, f) < 0:
                continue
            if CO.same_parallel_set(start, f) and len(f.rep) <= 2:
                assert f in reach, f.label()


def test_parallel_set_slice(pentagon):
    b2 = FS.build_ball(pentagon, 2)
    e = identity(pentagon)
    sl = FS.parallel_set_slice(b2, singular_key(e, "a"))
    assert {k.label() for k in sl} == {"flat[1]<a,b>", "flat[1]<a,e>"}


def test_parallel_set_slice_translation_invariance(pentagon):
    ball = FS.build_ball(pentagon, 8)
    e = identity(pentagon)
    sa = singular_key(e, "a")
    sl = set(FS.parallel_set_slice(ball, sa))
    a = W.generator(pentagon, "a")
    for k in (1, 2, 3):
        t = a ** k
        for f in sl:
            tf = flat_key(t * f.rep, *f.gens)
            if find(ball, tf) >= 0:
                assert tf in sl


def test_parallel_set_separates_ball(pentagon, pentagon_ball6):
    # removing the closed star of a parallel-set slice disconnects the
    # remaining cones into at least two parts (truncated separation)
    ball = pentagon_ball6
    e = identity(pentagon)
    sa = singular_key(e, "a")
    # slice cells: flats of the parallel set plus their whole stars
    slice_flats = {find(ball, f) for f in FS.parallel_set_slice(ball, sa)}
    slice_flats.discard(-1)
    near = incident_edges(ball)
    removed = set(slice_flats)
    for fi in list(slice_flats):
        for eid, other in near[fi]:
            removed.add(other)
    comp = {}
    nxt = 0
    for start in range(ball.nvertices):
        if start in removed or start in comp:
            continue
        nxt += 1
        comp[start] = nxt
        stack = [start]
        while stack:
            x = stack.pop()
            for _, y in near[x]:
                if y not in removed and y not in comp:
                    comp[y] = nxt
                    stack.append(y)
    cone_comps = {comp[i] for i in vertices_by_kind(ball, "cone") if i in comp}
    assert len(cone_comps) >= 2


def test_classify_parallel_intersection(pentagon):
    assert CO.classify_parallel_intersection(pentagon, "a", "a") == "equal"
    assert CO.classify_parallel_intersection(pentagon, "a", "b") == "standard_flat"
    assert CO.classify_parallel_intersection(pentagon, "a", "c") == "small"
    with pytest.raises(GraphError):
        CO.classify_parallel_intersection(pentagon, "a", "zz")


def test_quarter_plane_case(pentagon):
    edge = DefiningGraph(["u", "w"], [("u", "w")])
    assert CO.quarter_plane_case(edge, {"u"}, {"w"}) == "case1"
    assert CO.quarter_plane_case(pentagon, {"a"}, {"b"}) == "case3"
    k13 = star_graph("b", ["a", "c", "d"])
    assert CO.quarter_plane_case(k13, {"a", "c", "d"}, {"b"}) == "case2"
    with pytest.raises(GraphError):
        CO.quarter_plane_case(pentagon, {"a"}, {"c"})  # not a join
    with pytest.raises(GraphError):
        CO.quarter_plane_case(pentagon, set(), {"b"})


def test_interior_flag(pentagon_ball6):
    b = pentagon_ball6
    ints = [i for i in range(b.nvertices) if is_interior(b, i) and b.kind_of(i) != "cone"]
    assert ints
    for i in ints:
        assert len(b.rep_of(i)) == 0


def test_traced_flatspace_names_are_the_coarse_functions():
    # the benchmark's tracer wraps these four by name in flatspace, and
    # every other module's binding of the same object with them
    for name in ("classify_turn", "coarse_length", "coarse_distance", "same_parallel_set"):
        assert getattr(FS, name) is getattr(CO, name)


# the names the package exported before the coarse geometry left flatspace
PACKAGE_EXPORTS = (
    "DefiningGraph GraphError InvariantError AtomicityReport check_atomic girth orthogonal_complement "
    "cut_vertices isomorphism automorphism_group_order double_along_closed_star glue_k_copies_along_star "
    "pentagon dodecahedron dodecahedron_double GroupElement CosetKey normal_form identity generator multiply "
    "invert in_special_subgroup coset_key FlatBall build_ball classify_turn coarse_length coarse_distance "
    "same_parallel_set parallel_set_slice classify_parallel_intersection quarter_plane_case"
).split()


def test_package_exports_still_resolve():
    import raagqi

    for name in PACKAGE_EXPORTS:
        assert hasattr(raagqi, name), name
    for name in ("classify_turn", "coarse_length", "coarse_distance", "same_parallel_set"):
        assert getattr(raagqi, name) is getattr(CO, name)
    assert raagqi.build_ball is FS.build_ball and raagqi.FlatBall is FS.FlatBall
