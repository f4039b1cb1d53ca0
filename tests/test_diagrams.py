import random
from functools import cmp_to_key
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import raagqi as rq
import raagqi.cycles as C
import raagqi.diagrams as D
import raagqi.flatspace as FS
from raagqi.graphs import DefiningGraph, GraphError, InsufficientRadius, InvariantError, cycle_graph
from raagqi.words import (
    cone_key,
    coset_key,
    flat_key,
    generator,
    identity,
    in_special_subgroup,
    normal_form,
    singular_key,
    subgroup_product_factors,
)

from conftest import small_connected_graphs


def eight_cycle_fixtures(ball, limit=12):
    """Deterministic embedded 8-cycles through id<a,b> in the pentagon ball;
    these wrap two cone blocks and a shared parallel set."""
    by_sing = {}
    by_flat = {}
    sq = ball.squares
    for r in range(sq.shape[0]):
        s1, f, s2 = int(sq[r, 1]), int(sq[r, 2]), int(sq[r, 3])
        by_sing.setdefault(s1, set()).add(f)
        by_sing.setdefault(s2, set()).add(f)
        by_flat.setdefault(f, set()).update((s1, s2))

    def short(i):
        return len(ball.vkeys[i][1]) <= 2

    def full_edges(fi):
        out = []
        for s in sorted(by_flat.get(fi, ())):
            for fj in sorted(by_sing[s]):
                if fj != fi and short(fj):
                    out.append((s, fj))
        return out

    start = ball.find(flat_key(identity(ball.graph), "a", "b"))
    found = []

    def dfs(path_f, path_s):
        if len(found) >= limit:
            return
        if len(path_f) == 8:
            for s, fj in full_edges(path_f[-1]):
                if fj == start and s not in path_s:
                    found.append((tuple(path_f), tuple(path_s) + (s,)))
            return
        for s, fj in full_edges(path_f[-1]):
            if fj in path_f or s in path_s or fj == start:
                continue
            dfs(path_f + [fj], path_s + [s])

    dfs([start], [])
    cycles = []
    for pf, ps in found:
        cycles.append(
            D.FullEdgeCycle([ball.key_of(i) for i in pf], [ball.key_of(i) for i in ps])
        )
    return cycles


def test_lift_validation(pentagon):
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    assert len(cyc) == 5
    e = identity(pentagon)
    # a backtracking "cycle" through one square is rejected
    with pytest.raises(GraphError):
        D.FullEdgeCycle(
            [flat_key(e, "a", "b"), flat_key(e, "b", "c"), flat_key(e, "a", "b")],
            [singular_key(e, "b"), singular_key(e, "b"), singular_key(e, "b")],
        )


def test_pentagon_lift_diagram(pentagon, pentagon_ball6):
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    d = D.build_diagram(pentagon_ball6, cyc)
    assert len(d.arcs) == 5
    assert len(d.crossings) == 5
    assert len(d.core) == 1
    core = d.core_regions()[0]
    assert len(core.sides) == 5
    rep = D.shell_report(d)
    assert rep.case == "single_cell"
    assert rep.total_score == 4
    assert rep.records[0].boundary_corners == 5
    assert not rep.ladder


def test_pentagon_lift_fits_in_fundamental_domain_ball(pentagon):
    small = FS.build_ball(pentagon, 2)
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    d = D.build_diagram(small, D.lift_cycle(pentagon, gamma))
    assert len(d.core) == 1


def test_pentagon_lift_cuts_and_tautness(pentagon, pentagon_ball6):
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    assert D.find_icut(cyc, 1) is None
    assert D.find_icut(cyc, 2) is None
    assert D.find_quasicut(cyc) is None
    assert D.is_taut(cyc)
    assert D.verify_taut_diagram_lemma(pentagon_ball6, cyc)
    with pytest.raises(GraphError):
        D.find_icut(cyc, 0)


def test_eight_cycle_fixtures_have_cuts_and_multicell_cores(pentagon, pentagon_ball6):
    cycles = eight_cycle_fixtures(pentagon_ball6)
    assert cycles
    for cyc in cycles:
        cut = D.find_icut(cyc, 1)
        assert cut is not None and cut["kind"] == "1-cut"
        assert not D.is_taut(cyc)
        d = D.build_diagram(pentagon_ball6, cyc)
        assert len(d.core) >= 2
        rep = D.shell_report(d)
        assert rep.total_score >= 4
        assert rep.case == "two_1shells"
        assert rep.ladder
        ones = [r for r in rep.records if r.shell_class == "1-shell"]
        assert len(ones) == 2


def test_insufficient_radius_is_reported(pentagon, pentagon_ball6):
    cyc = eight_cycle_fixtures(pentagon_ball6, limit=1)[0]
    small = FS.build_ball(pentagon, 2)
    with pytest.raises(GraphError) as err:
        D.build_diagram(small, cyc)
    assert isinstance(err.value, InsufficientRadius)
    assert "insufficient radius" in str(err.value)


def test_broken_arrangement_is_an_invariant_error():
    # two interleaved chords declared not to cross cannot bound a planar
    # arrangement: a bug in the caller, not a bad input
    with pytest.raises(InvariantError) as err:
        D._arrangement_faces(4, [(0, 2, 0), (1, 3, 1)], set())
    assert not isinstance(err.value, GraphError)


def test_lifted_cycle_diagrams_are_cones_in_the_fundamental_domain(
    pentagon, dodeca, dodeca_double, pentagon_ball6, dd_ball6
):
    # the default lift radius is 2 because a lifted cycle's diagram is the
    # cone over it at the identity cone; pin that on every embedded cycle,
    # and that the identity star and balls of radius 2, 4 and 6 give the same
    # diagram, hyperplane ids (the crossed vertices' indices) and region
    # vertices included
    assert D.DEFAULT_LIFT_RADIUS == 2
    checked = 0
    for g, max_len, big in ((pentagon, 10, pentagon_ball6), (dodeca, 10, None), (dodeca_double, 9, dd_ball6)):
        star = D.IdentityStar(g)
        small = FS.build_ball(g, D.DEFAULT_LIFT_RADIUS)
        balls = [small, FS.build_ball(g, 4)] + ([big] if big is not None else [])
        assert star.nvertices == small.nvertices == 1 + len(g.vertices) + len(g.edges)
        for gamma in C.enumerate_cycles(g, max_len):
            cyc = D.lift_cycle(g, gamma)
            n = len(cyc)
            d = D.build_diagram(star, cyc)
            spans = {frozenset((a, b)) for a, b, _ in d.arcs}
            assert len(d.arcs) == n
            assert spans == {frozenset((2 * j % (2 * n), (2 * j - 3) % (2 * n))) for j in range(n)}
            assert sorted(h for _, _, h in d.arcs) == sorted(g.index[v] for v in gamma.vertices)
            assert len(d.crossings) == n
            assert len(d.core) == 1
            assert small.key_of(d.core_regions()[0].vertex) == cone_key(identity(g))
            for ball in balls:
                other = D.build_diagram(ball, cyc)
                assert other.to_json_obj() == d.to_json_obj()
                assert other.signature() == d.signature()
                assert [r.vertex for r in other.regions] == [r.vertex for r in d.regions]
            checked += 1
    assert checked == 227


def test_diagram_uniqueness_under_matching_order(pentagon, pentagon_ball6):
    ordered = D._matching_choices

    def build_shuffled(cyc, seed):
        # permute the hyperplane order and each hyperplane's pairings
        used = []

        def shuffled(by_class):
            rng = random.Random(seed)
            choices = ordered(by_class)
            rng.shuffle(choices)
            used.append(seed)
            return [(h, rng.sample(ms, len(ms))) for h, ms in choices]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_matching_choices", shuffled)
            d = D.build_diagram(pentagon_ball6, cyc)
        assert used == [seed]
        return d

    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    base = D.build_diagram(pentagon_ball6, cyc).signature()
    for seed in range(5):
        assert build_shuffled(cyc, seed).signature() == base
    eight = eight_cycle_fixtures(pentagon_ball6, limit=3)
    for cyc in eight:
        base = D.build_diagram(pentagon_ball6, cyc).signature()
        for seed in range(4):
            assert build_shuffled(cyc, seed).signature() == base


def test_arc_sides_follow_block_structure(pentagon, pentagon_ball6):
    # one side of every arc alternates singular/cone regions, the other
    # singular/flat, and the flat-side flats share a parallel set
    cycles = [D.lift_cycle(pentagon, C.enumerate_cycles(pentagon, 5)[0])]
    cycles += eight_cycle_fixtures(pentagon_ball6, limit=4)
    for cyc in cycles:
        d = D.build_diagram(pentagon_ball6, cyc)
        by_face = {r.face_id: r for r in d.regions}
        for aid in range(len(d.arcs)):
            sides = {}
            for r in d.regions:
                for lab in r.sides:
                    if lab[0] == "arc" and lab[1] == aid:
                        sides.setdefault(lab[2], set()).add(r.face_id)
            left_kinds = set()
            right_kinds = set()
            flats = []
            for step, fs in sides.items():
                fs = sorted(fs)
                if len(fs) != 2:
                    continue
                k1, k2 = by_face[fs[0]].kind, by_face[fs[1]].kind
                ks = {k1, k2}
                assert "singular" in ks
                other = (ks - {"singular"}).pop() if len(ks) == 2 else "singular"
                if other == "flat":
                    flats.extend(f for f in fs if by_face[f].kind == "flat")
                left_kinds.add(other)
            # flats along one side of the arc lie in one parallel set
            keyed = [pentagon_ball6.key_of(by_face[f].vertex) for f in set(flats)]
            for i in range(len(keyed)):
                for j in range(i + 1, len(keyed)):
                    assert keyed[i] == keyed[j] or FS.same_parallel_set(keyed[i], keyed[j])


def test_dodeca_double_shortcut_cycle_is_not_taut(dodeca_double):
    # a 9-cycle through the shared pentagon, one arc in each copy, with the
    # 2-shortcut i0 - i2 - i4 through the doubling locus
    g = dodeca_double
    cyc9 = None
    for c in C.enumerate_cycles(g, 9):
        vs = set(c.vertices)
        if {"i0", "i4"} <= vs and "i2" not in vs and not C.is_tight(g, c):
            if C.find_shortcut(g, c, 2) == ["i0", "i2", "i4"] or C.find_shortcut(g, c, 2) == [
                "i4",
                "i2",
                "i0",
            ]:
                cyc9 = c
                break
    assert cyc9 is not None
    lift = D.lift_cycle(g, cyc9)
    assert not D.is_taut(lift)
    qc = D.find_quasicut(lift)
    c2 = D.find_icut(lift, 2)
    assert qc is not None or c2 is not None


def test_tight_iff_taut_small_scan(pentagon):
    for gamma in C.enumerate_cycles(pentagon, 5):
        lift = D.lift_cycle(pentagon, gamma)
        assert C.is_tight(pentagon, gamma) == D.is_taut(lift)


# ---------------------------------------------------------------------------
# the quasi-cut search against its unpruned form
# ---------------------------------------------------------------------------

def reference_connections(f1, f2, m):
    """Every walk from f1.gens through sorted neighbours, kept when it ends
    in f2.gens and rep(f1)^-1 rep(f2) factors over its star subgroups."""
    graph = f1.rep.ctx.graph
    walks = [(t,) for t in f1.gens]
    for _ in range(m - 1):
        walks = [wk + (t,) for wk in walks for t in sorted(graph.neighbors(wk[-1]))]
    w = f1.rep.inverse() * f2.rep
    for wk in walks:
        if wk[-1] not in f2.gens:
            continue
        factors = subgroup_product_factors(w, [graph.neighbors(t) | {t} for t in wk])
        if factors is not None:
            yield wk, factors


def reference_witness(cycle_flats, fp, walk, factors):
    """Every alpha twist in C(x), factored before c1 is tested, then every
    beta twist in C(t), each tested for the rest lying in C(z)."""
    graph = fp.rep.ctx.graph
    x, t, z = walk
    star_x, star_t, star_z = (graph.neighbors(v) | {v} for v in walk)

    def twists(a, rest, star):
        yield a, rest
        for g in sorted(star):
            for s in (1, -1):
                yield a * generator(graph, g, s), generator(graph, g, -s) * rest

    for alpha, rest in twists(factors[0], factors[1] * factors[2], star_x):
        fac = subgroup_product_factors(rest, [star_t, star_z])
        if fac is None:
            continue
        k1 = flat_key(fp.rep * alpha, x, t)
        if k1 in cycle_flats:
            continue
        for beta, last in twists(fac[0], fac[1], star_t):
            if not in_special_subgroup(last, star_z):
                continue
            k2 = flat_key(fp.rep * alpha * beta, t, z)
            if k2 in cycle_flats:
                continue
            return [k1, k2]
    return None


def reference_quasicut(cycle):
    n = len(cycle)
    cycle_flats = set(cycle.flats)
    for p in range(n):
        for q in range(p + 1, n):
            if min(q - p, n - (q - p)) < 2:
                continue
            fp, fq = cycle.flats[p], cycle.flats[q]
            for walk, factors in reference_connections(fp, fq, 3):
                wit = reference_witness(cycle_flats, fp, walk, factors)
                if wit is not None:
                    return {
                        "kind": "quasi-cut",
                        "v": p,
                        "w": q,
                        "coarse_length": 3,
                        "via_path": walk,
                        "interior_flats": [k.label() for k in wit],
                    }
    return None


def translated(cycle, g):
    """The full-edge cycle g * cycle: every flat and singular rep times g."""
    return D.FullEdgeCycle(
        [flat_key(g * k.rep, *k.gens) for k in cycle.flats],
        [singular_key(g * k.rep, k.gens[0]) for k in cycle.singulars],
    )


def random_element(rng, graph):
    verts = graph.sorted_vertices()
    return normal_form(graph, [(rng.choice(verts), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_quasicut_search_matches_reference(seed):
    # dense graphs on 5..8 vertices, so triangles and 4-cycles occur and the
    # twists by common neighbours are exercised; each lift also translated by
    # a random element, so the cycle flats have non-identity representatives
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(rng.randint(5, 8))]
    p = rng.choice((0.35, 0.5, 0.65))
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < p]
    graph = DefiningGraph(verts, edges)
    cycles = C.enumerate_cycles(graph, 7)
    for gamma in rng.sample(cycles, min(len(cycles), 6)):
        lift = D.lift_cycle(graph, gamma)
        for cyc in (lift, translated(lift, random_element(rng, graph))):
            assert D.find_quasicut(cyc) == reference_quasicut(cyc)


def test_quasicut_search_matches_reference_on_golden_cycles():
    # the non-tight dodecahedron and doubled-dodecahedron cycles of
    # tests/golden: a 2-cut 8-cycle, a quasi-cut 9-cycle, and the dd 9-cycle
    # whose 2-shortcut i0 - i2 - i4 is a quasi-cut
    rng = random.Random(2024)
    found = 0
    for graph, names in (
        (rq.dodecahedron(), "i3,i1,i9,i7,o7,o6,o5,i5"),
        (rq.dodecahedron(), "o6,o7,i7,i9,o9,o0,i0,i8,i6"),
        (rq.dodecahedron_double(), "i0,i8,i6,i4,o4#1,o3#1,o2#1,o1#1,o0#1"),
    ):
        lift = D.lift_cycle(graph, names.split(","))
        for cyc in (lift, translated(lift, random_element(rng, graph))):
            got = D.find_quasicut(cyc)
            assert got == reference_quasicut(cyc)
            found += got is not None
    assert found >= 2


# ---------------------------------------------------------------------------
# region typing against the per-edge scan it replaced
# ---------------------------------------------------------------------------

def reference_block_across(ball, x, h):
    """The scan over every edge at x, each edge's hyperplane root read from
    the root array."""
    root = ball.hyperplanes()[0]
    hits = {other for eid, other in ball.incident_edges(x) if int(root[eid]) == h}
    if not hits:
        raise InsufficientRadius("insufficient radius: hyperplane missing at a region vertex")
    if len(hits) != 1:
        raise InvariantError("hyperplane crosses a block star more than once")
    return hits.pop()


def reference_diagram(ball, cycle):
    with mock.patch.object(D, "_block_across", reference_block_across):
        return D.build_diagram(ball, cycle)


def assert_diagram_matches_reference(ball, cycle):
    got = D.build_diagram(ball, cycle)
    ref = reference_diagram(ball, cycle)
    assert got.signature() == ref.signature()
    assert got.to_json_obj() == ref.to_json_obj()
    return got


GOLDEN_CYCLES = (
    (rq.pentagon, "a,b,c,d,e"),
    (rq.dodecahedron, "i3,i1,i9,i7,o7,o6,o5,i5"),
    (rq.dodecahedron, "o6,o7,i7,i9,o9,o0,i0,i8,i6"),
    (rq.dodecahedron, "o4,i4,i6,o6,o5"),
    (rq.dodecahedron_double, "i0,i8,i6,i4,o4#1,o3#1,o2#1,o1#1,o0#1"),
)


def test_region_typing_matches_reference_on_golden_and_tight_lifts(pentagon, dodeca, dodeca_double):
    for make, names in GOLDEN_CYCLES:
        graph = make()
        assert_diagram_matches_reference(FS.build_ball(graph, 2), D.lift_cycle(graph, names.split(",")))
    checked = 0
    for graph in (pentagon, dodeca, dodeca_double):
        # one ball, so the hyperplane map is shared by all its lifts
        ball = FS.build_ball(graph, D.DEFAULT_LIFT_RADIUS)
        for gamma in C.tight_cycles(graph, 10):
            assert_diagram_matches_reference(ball, D.lift_cycle(graph, gamma))
            checked += 1
    assert checked == 54


def test_region_typing_matches_reference_on_translated_lifts(pentagon, dodeca, pentagon_ball6):
    # lifts moved off the identity cone by one letter, in radius-4 balls
    for graph in (pentagon, dodeca):
        ball = FS.build_ball(graph, 4)
        small = FS.build_ball(graph, 2)
        for gamma in C.tight_cycles(graph, 10)[:6]:
            lift = D.lift_cycle(graph, gamma)
            for v in graph.order[:3]:
                for s in (1, -1):
                    moved = translated(lift, normal_form(graph, [(v, s)]))
                    assert len(assert_diagram_matches_reference(ball, moved).core) == 1
                    with pytest.raises(InsufficientRadius):
                        D.build_diagram(small, moved)
    # multi-cell cores: regions typed by propagation across inner arcs
    for cyc in eight_cycle_fixtures(pentagon_ball6, limit=4):
        assert len(assert_diagram_matches_reference(pentagon_ball6, cyc).core) > 1


def test_block_across_matches_reference_at_every_vertex(pentagon):
    # every (vertex, hyperplane) pair of a ball: the unique block across, or
    # InsufficientRadius where the hyperplane does not meet the vertex's star
    ball = FS.build_ball(pentagon, 4)
    hyperplanes = sorted(set(ball.hyperplanes()[0].tolist()))
    missing = 0
    for x in range(ball.nvertices):
        for h in hyperplanes:
            try:
                expect = reference_block_across(ball, x, h)
            except InsufficientRadius:
                with pytest.raises(InsufficientRadius):
                    D._block_across(ball, x, h)
                missing += 1
            else:
                assert D._block_across(ball, x, h) == expect
    assert 0 < missing < ball.nvertices * len(hyperplanes)


def test_block_across_rejects_two_blocks_across_one_hyperplane(pentagon):
    # a vertex meets each hyperplane in at most one edge; a map with two
    # other ends for one id is a broken invariant, not a missing cell
    ball = FS.build_ball(pentagon, 2)
    x = int(ball._cell[0, 0])
    (h, (y,)), *_ = ball.blocks_across(x).items()
    assert D._block_across(ball, x, h) == y
    with mock.patch.object(ball, "blocks_across", lambda vi: {h: [y, y + 1]}):
        with pytest.raises(InvariantError):
            D._block_across(ball, x, h)


def test_arc_coarse_length_matches_direct_sum(pentagon, pentagon_ball6):
    def direct(cycle, p, q):
        n = len(cycle)
        return sum(cycle._legal[(p + k) % n] for k in range(1, (q - p - 1) % n + 1)) + 1

    rng = random.Random(7)
    cycles = eight_cycle_fixtures(pentagon_ball6, limit=3)
    for n in range(3, 13):
        graph = cycle_graph(n)
        lift = D.lift_cycle(graph, graph.vertices)
        # lifted graph cycles turn legally everywhere; other patterns are
        # set on fresh lifts before the running counts are first read
        cycles.append(lift)
        for _ in range(3):
            other = D.lift_cycle(graph, graph.vertices)
            other.__dict__["_legal"] = [rng.random() < 0.5 for _ in range(n)]
            cycles.append(other)
    for cycle in cycles:
        n = len(cycle)
        for p in range(n):
            for q in range(n):
                assert cycle.arc_coarse_length(p, q) == direct(cycle, p, q)


# ---------------------------------------------------------------------------
# the identity star against the radius-2 ball
# ---------------------------------------------------------------------------

def assert_star_matches_ball(graph):
    ball = FS.build_ball(graph, 2)
    star = D.IdentityStar(graph)
    nv = ball.nvertices
    assert star.nvertices == nv
    letters = [generator(graph, v, s) for v in graph.order for s in (1, -1)]
    outside = 0
    for i in range(nv):
        key = ball.key_of(i)
        assert star.find(key) == i
        assert star.kind_of(i) == ball.kind_of(i)
        # the same ids in the same order, so a scan of either map agrees
        assert list(star.blocks_across(i).items()) == list(ball.blocks_across(i).items())
        for x in letters:
            moved = coset_key(x * key.rep, key.kind, key.gens)
            assert star.find(moved) == ball.find(moved)
            outside += star.find(moved) == -1
        for j in range(nv):
            try:
                expect = ball.edge_id(i, j)
            except GraphError:
                with pytest.raises(GraphError):
                    star.edge_id(i, j)
            else:
                assert star.edge_id(i, j) == expect
    root, crossings = star.hyperplanes()
    ball_root, ball_crossings = ball.hyperplanes()
    assert list(root) == ball_root.tolist()
    assert crossings == ball_crossings
    # the hyperplane dual to (1, 1<v>) is numbered by v's index, and two
    # hyperplanes cross exactly along the edges of the graph
    assert [root[star.edge_id(0, 1 + k)] for k in range(len(graph.order))] == list(range(len(graph.order)))
    assert crossings == {(graph.index[a], graph.index[b]) for a, b in graph.edges}
    # a translated cone is always outside; a coset can absorb the letter
    assert outside >= len(letters)


@pytest.mark.parametrize("make", [rq.pentagon, rq.dodecahedron, rq.dodecahedron_double])
def test_identity_star_matches_radius_2_ball(make):
    assert_star_matches_ball(make())


@given(small_connected_graphs())
@settings(max_examples=100, deadline=None)
def test_identity_star_matches_radius_2_ball_on_random_graphs(graph):
    assert_star_matches_ball(graph)


def test_identity_star_requires_a_connected_graph():
    with pytest.raises(GraphError):
        D.IdentityStar(DefiningGraph(["a", "b"], []))


# ---------------------------------------------------------------------------
# the face tracer against its tuple-keyed form
# ---------------------------------------------------------------------------

def reference_arrangement_faces(nb, arcs, crossings):
    """The face tracer on node, label and half-edge tuples, with ``index``
    lookups into each rotation and arc."""
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
        nodes = [("b", arcs[i][0])]
        for j in order_on(i):
            nodes.append(("x", min(i, j), max(i, j)))
        nodes.append(("b", arcs[i][1]))
        arc_nodes[i] = nodes

    adj = {}

    def add_edge(u, v, label):
        adj.setdefault(u, []).append((v, label))
        adj.setdefault(v, []).append((u, label))

    for k in range(nb):
        add_edge(("b", k), ("b", (k + 1) % nb), ("seg", k))
    for i, nodes in arc_nodes.items():
        for t in range(len(nodes) - 1):
            add_edge(nodes[t], nodes[t + 1], ("arc", i, t))

    def anchor(u, v, lab):
        # boundary position that the ray u -> v points toward
        if lab[0] == "seg":
            return v[1]
        i = lab[1]
        nodes = arc_nodes[i]
        ui, vi = nodes.index(u), nodes.index(v)
        return arcs[i][1] if vi > ui else arcs[i][0]

    rotations = {}
    for u, nbrs in adj.items():
        if u[0] == "b":
            k = u[1]
            ordered = []
            for v, lab in nbrs:
                if lab[0] == "seg":
                    rank = 0 if v == ("b", (k + 1) % nb) else 2
                else:
                    rank = 1
                ordered.append((rank, v, lab))
            ordered.sort(key=lambda t: t[0])
            rotations[u] = [(v, lab) for _, v, lab in ordered]
        else:
            ks = sorted(((anchor(u, v, lab), v, lab) for v, lab in nbrs))
            rotations[u] = [(v, lab) for _, v, lab in ks]

    next_he = {}
    for u, nbrs in adj.items():
        for v, lab in nbrs:
            rot = rotations[v]
            idx = rot.index((u, lab))
            w, lab2 = rot[(idx - 1) % len(rot)]
            next_he[(u, v, lab)] = (v, w, lab2)

    faces = []
    face_of_he = {}
    for he in list(next_he):
        if he in face_of_he:
            continue
        fid = len(faces)
        walk = []
        cur = he
        while cur not in face_of_he:
            face_of_he[cur] = fid
            walk.append(cur)
            cur = next_he[cur]
        if cur != he:
            raise InvariantError("face tracing failed to close")
        faces.append(walk)

    nverts = len(adj)
    nedges = sum(len(x) for x in adj.values()) // 2
    if nverts - nedges + len(faces) != 2:
        raise InvariantError("arrangement failed the Euler check")

    outer = face_of_he[(("b", 1 % nb), ("b", 0), ("seg", 0))]
    seg_face = {}
    edge_faces = {}
    face_edges = {}
    face_nodes = {}
    for fid, walk in enumerate(faces):
        if fid == outer:
            continue
        labs = [lab for _, _, lab in walk]
        face_edges[fid] = labs
        face_nodes[fid] = [u for u, _, _ in walk]
        for lab in labs:
            edge_faces.setdefault(lab, []).append(fid)
            if lab[0] == "seg":
                if lab[1] in seg_face:
                    raise GraphError("cycle required: a region meets the boundary twice")
                seg_face[lab[1]] = fid
    inner = [fid for fid in range(len(faces)) if fid != outer]
    return inner, face_edges, seg_face, edge_faces, face_nodes


def outcome(fn, *args):
    try:
        return fn(*args)
    except (GraphError, InvariantError) as exc:
        return type(exc), str(exc)


def assert_faces_match_reference(nb, arcs, crossings):
    got = outcome(D._arrangement_faces, nb, arcs, crossings)
    assert got == outcome(reference_arrangement_faces, nb, arcs, crossings)
    if isinstance(got[0], list):
        # the same dict orders too: faces are numbered and typed in them
        for a, b in zip(got[1:], reference_arrangement_faces(nb, arcs, crossings)[1:]):
            assert list(a.items()) == list(b.items())
    return got


def test_arrangement_faces_match_reference_on_diagrams(pentagon, dodeca, dodeca_double, pentagon_ball6):
    diagrams = []
    for g, max_len in ((pentagon, 10), (dodeca, 10), (dodeca_double, 9)):
        star = D.IdentityStar(g)
        diagrams += [D.build_diagram(star, D.lift_cycle(g, gamma)) for gamma in C.enumerate_cycles(g, max_len)]
    # multi-cell cores
    diagrams += [D.build_diagram(pentagon_ball6, cyc) for cyc in eight_cycle_fixtures(pentagon_ball6, limit=12)]
    for d in diagrams:
        assert isinstance(assert_faces_match_reference(2 * len(d.cycle), d.arcs, d.crossings)[0], list)
    assert len(diagrams) == 239
    assert_faces_match_reference(4, [(0, 2, 0), (1, 3, 1)], set())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_arrangement_faces_match_reference_on_random_chords(seed):
    # random perfect matchings of 2..16 boundary points, crossing where the
    # chords interleave, some with one crossing dropped or a false one added
    rng = random.Random(seed)
    points = list(range(2 * rng.randint(1, 8)))
    rng.shuffle(points)
    arcs = sorted((min(a, b), max(a, b), rng.randrange(4)) for a, b in zip(points[::2], points[1::2]))
    pairs = [(i, j) for i in range(len(arcs)) for j in range(i + 1, len(arcs))]
    crossings = {(i, j) for i, j in pairs if D._interleaved(arcs[i][:2], arcs[j][:2])}
    edit = rng.random()
    if edit < 0.1 and crossings:
        crossings.discard(rng.choice(sorted(crossings)))
    elif edit < 0.2 and pairs:
        crossings.add(rng.choice(pairs))
    assert_faces_match_reference(len(points), arcs, crossings)
