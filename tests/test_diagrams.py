import random
from functools import cache, cmp_to_key
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import raagqi as rq
import raagqi.coarse as CO
import raagqi.cycles as C
import raagqi.diagrams as D
import raagqi.flatspace as FS
from raagqi.graphs import DefiningGraph, GraphError, InvariantError, cycle_graph
from raagqi.words import (
    _KINDS,
    GroupElement,
    context_for,
    coset_key,
    flat_key,
    generator,
    identity,
    in_special_subgroup,
    normal_form,
    singular_key,
    subgroup_product_factors,
)

from ball_helpers import edge_id, find, incident_edges, vkeys
from conftest import small_connected_graphs


def eight_cycle_fixtures(ball, limit=12):
    """Deterministic embedded 8-cycles through id<a,b> in the pentagon ball;
    these wrap two cone blocks and a shared parallel set."""
    by_sing = {}
    by_flat = {}
    sq = ball.squares
    for r in range(0, len(sq), 4):
        s1, f, s2 = sq[r + 1 : r + 4]
        by_sing.setdefault(s1, set()).add(f)
        by_sing.setdefault(s2, set()).add(f)
        by_flat.setdefault(f, set()).update((s1, s2))

    def short(i):
        return len(vkeys(ball)[i][1]) <= 2

    def full_edges(fi):
        out = []
        for s in sorted(by_flat.get(fi, ())):
            for fj in sorted(by_sing[s]):
                if fj != fi and short(fj):
                    out.append((s, fj))
        return out

    start = find(ball, flat_key(identity(ball.graph), "a", "b"))
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
            CO.FullEdgeCycle([ball.key_of(i) for i in pf], [ball.key_of(i) for i in ps])
        )
    return cycles


def test_lift_validation(pentagon):
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    assert len(cyc) == 5
    # the lift reads its keys from the cycle: a cycle of another graph is
    # checked against this one, and one of an equal graph is accepted
    with pytest.raises(GraphError):
        D.lift_cycle(pentagon, C.enumerate_cycles(rq.dodecahedron(), 5)[0])
    twin = DefiningGraph(pentagon.vertices, pentagon.edges)
    assert [k.label() for k in D.lift_cycle(twin, gamma).flats] == [k.label() for k in cyc.flats]
    e = identity(pentagon)
    # a backtracking "cycle" through one square is rejected
    with pytest.raises(GraphError):
        CO.FullEdgeCycle(
            [flat_key(e, "a", "b"), flat_key(e, "b", "c"), flat_key(e, "a", "b")],
            [singular_key(e, "b"), singular_key(e, "b"), singular_key(e, "b")],
        )


def key_of(graph, vertex):
    """The CosetKey of a region's (gens, codes) vertex."""
    gens, codes = vertex
    return coset_key(GroupElement(context_for(graph), codes, _canonical=True), _KINDS[len(gens)], gens)


def test_pentagon_lift_diagram(pentagon):
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    d = D.build_diagram(cyc)
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
    # every region of the lift's diagram is a cell of the radius-2 ball
    small = FS.build_ball(pentagon, 2)
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    d = D.build_diagram(D.lift_cycle(pentagon, gamma))
    assert len(d.core) == 1
    assert {r.vertex for r in d.regions} <= set(vkeys(small))


def test_pentagon_lift_cuts_and_tautness(pentagon):
    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    assert D.find_icut(cyc, 1) is None
    assert D.find_icut(cyc, 2) is None
    assert D.find_quasicut(cyc) is None
    assert D.is_taut(cyc)
    assert D.verify_taut_diagram_lemma(cyc)
    with pytest.raises(GraphError):
        D.find_icut(cyc, 0)


def test_eight_cycle_fixtures_have_cuts_and_multicell_cores(pentagon, pentagon_ball6):
    cycles = eight_cycle_fixtures(pentagon_ball6)
    assert cycles
    for cyc in cycles:
        cut = D.find_icut(cyc, 1)
        assert cut is not None and cut["kind"] == "1-cut"
        assert not D.is_taut(cyc)
        d = D.build_diagram(cyc)
        assert len(d.core) >= 2
        rep = D.shell_report(d)
        assert rep.total_score >= 4
        assert rep.case == "two_1shells"
        assert rep.ladder
        ones = [r for r in rep.records if r.shell_class == "1-shell"]
        assert len(ones) == 2


def test_broken_arrangement_is_an_invariant_error():
    # two interleaved chords declared not to cross cannot bound a planar
    # arrangement: a bug in the caller, not a bad input
    with pytest.raises(InvariantError) as err:
        D._arrangement_faces(4, [(0, 2, 0), (1, 3, 1)], set())
    assert not isinstance(err.value, GraphError)


def test_lifted_cycle_diagrams_are_cones_in_the_fundamental_domain(pentagon, dodeca, dodeca_double):
    # a lifted cycle's diagram is the cone over it at the identity cone; pin
    # that on every embedded cycle, with the hyperplane ids (the crossed
    # vertices' indices), and every region a cell of the radius-2 ball, the
    # identity cone's closed star, of the kind that ball gives it
    checked = 0
    for g, max_len in ((pentagon, 10), (dodeca, 10), (dodeca_double, 9)):
        small = FS.build_ball(g, 2)
        kinds = {key: small.kind_of(i) for i, key in enumerate(vkeys(small))}
        for gamma in C.enumerate_cycles(g, max_len):
            cyc = D.lift_cycle(g, gamma)
            n = len(cyc)
            d = D.build_diagram(cyc)
            spans = {frozenset((a, b)) for a, b, _ in d.arcs}
            assert len(d.arcs) == n
            assert spans == {frozenset((2 * j % (2 * n), (2 * j - 3) % (2 * n))) for j in range(n)}
            assert sorted(h for _, _, h in d.arcs) == sorted(g.index[v] for v in gamma.vertices)
            assert len(d.crossings) == n
            assert len(d.core) == 1
            assert d.core_regions()[0].vertex == ((), ())
            assert all(kinds[r.vertex] == r.kind for r in d.regions)
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
            d = D.build_diagram(cyc)
        assert used == [seed]
        return d

    gamma = C.enumerate_cycles(pentagon, 5)[0]
    cyc = D.lift_cycle(pentagon, gamma)
    base = D.build_diagram(cyc).signature()
    for seed in range(5):
        assert build_shuffled(cyc, seed).signature() == base
    eight = eight_cycle_fixtures(pentagon_ball6, limit=3)
    for cyc in eight:
        base = D.build_diagram(cyc).signature()
        for seed in range(4):
            assert build_shuffled(cyc, seed).signature() == base


def test_arc_sides_follow_block_structure(pentagon, pentagon_ball6):
    # one side of every arc alternates singular/cone regions, the other
    # singular/flat, and the flat-side flats share a parallel set
    cycles = [D.lift_cycle(pentagon, C.enumerate_cycles(pentagon, 5)[0])]
    cycles += eight_cycle_fixtures(pentagon_ball6, limit=4)
    for cyc in cycles:
        d = D.build_diagram(cyc)
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
            keyed = [key_of(pentagon, by_face[f].vertex) for f in set(flats)]
            for i in range(len(keyed)):
                for j in range(i + 1, len(keyed)):
                    assert keyed[i] == keyed[j] or CO.same_parallel_set(keyed[i], keyed[j])


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
    return CO.FullEdgeCycle(
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
# the coset algebra against a flat-space ball: hyperplane root ids, squares
# and the edge scan at a vertex
# ---------------------------------------------------------------------------

def reference_block_across(ball, x, h):
    """The scan over every edge at x, each edge's hyperplane root read from
    the root array: the other end, or None where h misses x's star."""
    root = ball.hyperplanes()
    hits = {other for eid, other in incident_edges(ball)[x] if int(root[eid]) == h}
    if len(hits) > 1:
        raise InvariantError("hyperplane crosses a block star more than once")
    return hits.pop() if hits else None


def ball_labels(ball):
    """{root id: algebraic label} over the ball's edges, each labelled from
    its lower end; the labels and root ids name the same classes."""
    root = ball.hyperplanes().tolist()
    keys = vkeys(ball)
    labels = {}
    for e, (a, b) in enumerate(zip(ball.edge_lo.tolist(), ball.edge_hi.tolist())):
        x, y = (keys[a], keys[b]) if len(keys[a][0]) < len(keys[b][0]) else (keys[b], keys[a])
        lab = D._edge_label(ball.ctx, x, y[0])
        assert labels.setdefault(root[e], lab) == lab
    assert len(set(labels.values())) == len(labels)
    return labels


def ball_crossings(ball):
    """Root id pairs of the two cone edges of each square."""
    root = ball.hyperplanes()
    sq = ball.squares
    a = [root[edge_id(ball, sq[r], sq[r + 1])] for r in range(0, len(sq), 4)]
    b = [root[edge_id(ball, sq[r], sq[r + 3])] for r in range(0, len(sq), 4)]
    return {(min(x, y), max(x, y)) for x, y in zip(a, b)}


def reference_diagram(ball, cycle):
    """``build_diagram`` with its three questions answered by the ball: root
    ids for labels, squares for crossings, the edge scan for blocks across."""
    root = ball.hyperplanes()
    cell = {key: i for i, key in enumerate(vkeys(ball))}
    crossings = ball_crossings(ball)

    def label(ctx, x, up):
        y = (up, ctx.strip(x[1], ctx.gen_mask(up)))
        return int(root[edge_id(ball, cell[x], cell[y])]), ()

    def crosses(ctx, a, b):
        return (min(a[0], b[0]), max(a[0], b[0])) in crossings

    def across(ctx, x, lab):
        y = reference_block_across(ball, cell[x], lab[0])
        if y is None:
            raise InvariantError("hyperplane missing at a region vertex")
        return vkeys(ball)[y]

    with mock.patch.multiple(D, _edge_label=label, _crosses=crosses, _block_across=across):
        return D.build_diagram(cycle)


def region_view(d):
    return [(r.face_id, r.kind, r.vertex, r.sides, r.in_core) for r in d.regions]


def assert_diagram_matches_reference(ball, cycle):
    got = D.build_diagram(cycle)
    ref = reference_diagram(ball, cycle)
    # algebraic numbers and least edge ids name the same hyperplanes
    assert [arc[:2] for arc in got.arcs] == [arc[:2] for arc in ref.arcs]
    ids = dict(zip((arc[2] for arc in got.arcs), (arc[2] for arc in ref.arcs)))
    assert len(set(ids.values())) == len(ids) == len({arc[2] for arc in got.arcs})
    assert got.crossings == ref.crossings
    assert region_view(got) == region_view(ref)
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
        lift = D.lift_cycle(graph, names.split(","))
        ball = FS.build_ball(graph, 2)
        # on a lift both numberings give the crossed vertex's index
        got = assert_diagram_matches_reference(ball, lift)
        assert got.to_json_obj() == reference_diagram(ball, lift).to_json_obj()
    checked = 0
    for graph in (pentagon, dodeca, dodeca_double):
        ball = FS.build_ball(graph, 2)
        for gamma in C.tight_cycles(graph, 10):
            assert_diagram_matches_reference(ball, D.lift_cycle(graph, gamma))
            checked += 1
    assert checked == 54


def test_region_typing_matches_reference_on_translated_lifts(pentagon, dodeca, pentagon_ball6):
    # lifts moved off the identity cone by one letter, in radius-4 balls;
    # their diagrams leave the radius-2 ball
    for graph in (pentagon, dodeca):
        ball = FS.build_ball(graph, 4)
        small = set(vkeys(FS.build_ball(graph, 2)))
        for gamma in C.tight_cycles(graph, 10)[:6]:
            lift = D.lift_cycle(graph, gamma)
            for v in graph.order[:3]:
                for s in (1, -1):
                    moved = translated(lift, normal_form(graph, [(v, s)]))
                    d = assert_diagram_matches_reference(ball, moved)
                    assert len(d.core) == 1
                    assert not {r.vertex for r in d.regions} <= small
    # multi-cell cores: regions typed by propagation across inner arcs
    for cyc in eight_cycle_fixtures(pentagon_ball6, limit=4):
        assert len(assert_diagram_matches_reference(pentagon_ball6, cyc).core) > 1


def test_block_across_matches_reference_at_every_vertex(pentagon):
    # every (vertex, hyperplane) pair of a ball: the unique block across, or
    # an InvariantError where the hyperplane misses the vertex's star; a
    # hyperplane that meets the star only outside the ball gives a cell
    # outside it
    ball = FS.build_ball(pentagon, 4)
    cells = set(vkeys(ball))
    labels = ball_labels(ball)
    missing = outside = 0
    for x, key in enumerate(vkeys(ball)):
        for h, lab in labels.items():
            expect = reference_block_across(ball, x, h)
            try:
                got = D._block_across(ball.ctx, key, lab)
            except InvariantError:
                assert expect is None
                missing += 1
            else:
                if expect is None:
                    assert got not in cells
                    outside += 1
                else:
                    assert got == vkeys(ball)[expect]
    assert 0 < missing < ball.nvertices * len(labels)
    assert outside > 0


def test_block_across_rejects_a_hyperplane_away_from_the_cell(pentagon):
    # region typing only asks across a hyperplane that bounds the region;
    # any other question is a broken invariant, not a bad input
    ctx = context_for(pentagon)
    a, c = pentagon.index["a"], pentagon.index["c"]
    cone, sing_a, sing_b, flat_ab = ((), ()), (("a",), ()), (("b",), ()), (("a", "b"), ())
    letter_c = generator(pentagon, "c").codes
    assert D._block_across(ctx, cone, (c, ())) == (("c",), ())
    for x, lab in (
        (cone, (c, generator(pentagon, "a").codes)),  # a is not in lk c
        (sing_a, (c, ())),  # c is neither a nor a neighbour of a
        (sing_a, (a, letter_c)),  # c is not in <a><lk a>
        (sing_b, (a, letter_c)),  # b is in lk a, but c<lk a> is not <lk a>
        (flat_ab, (c, ())),  # c is not a generator of the flat
        (flat_ab, (a, letter_c)),
    ):
        with pytest.raises(InvariantError) as err:
            D._block_across(ctx, x, lab)
        assert not isinstance(err.value, GraphError)


def test_arc_coarse_length_matches_direct_sum(pentagon, pentagon_ball6):
    def direct(flags, p, q):
        n = len(flags)
        return sum(flags[(p + k) % n] for k in range(1, (q - p - 1) % n + 1)) + 1

    rng = random.Random(7)
    cases = []
    for cycle in eight_cycle_fixtures(pentagon_ball6, limit=3):
        # the turn at f_i, between s_{i-1} and s_i, as classify_turn reads it
        f, s, n = cycle.flats, cycle.singulars, len(cycle)
        turns = [CO.classify_turn((f[i - 1], s[i - 1], f[i]), (f[i], s[i], f[(i + 1) % n])) for i in range(n)]
        cases.append((cycle, [t == "legal" for t in turns]))
    for n in range(3, 13):
        graph = cycle_graph(n)
        # lifted graph cycles turn legally everywhere; other patterns are
        # set as the shared legal-turn flags of fresh lifts, before the
        # running counts are first read
        cases.append((D.lift_cycle(graph, graph.vertices), [True] * n))
        for _ in range(3):
            other = D.lift_cycle(graph, graph.vertices)
            other._legal = [rng.random() < 0.5 for _ in range(n)]
            cases.append((other, other._legal))
    for cycle, flags in cases:
        assert cycle._legal == flags
        n = len(cycle)
        for p in range(n):
            for q in range(n):
                assert cycle.arc_coarse_length(p, q) == direct(flags, p, q)


def test_open_paths_and_cycle_arcs_agree(pentagon_ball6):
    # the open path f_p, s_p, ..., f_q has the coarse length of the forward
    # cycle arc f_p -> f_q, a whole lap when p = q: both are validated and
    # turn by the same rule
    cycles = eight_cycle_fixtures(pentagon_ball6, limit=3)
    assert all(not all(c._legal) for c in cycles)  # each turns illegally somewhere
    for n in (3, 4, 5, 8, 13):
        graph = cycle_graph(n)
        cycles.append(D.lift_cycle(graph, graph.vertices))
    for cycle in cycles:
        n = len(cycle)
        for p in range(n):
            for q in range(n):
                keys = [cycle.flats[p]]
                for k in range(p, p + (q - p - 1) % n + 1):
                    keys += [cycle.singulars[k % n], cycle.flats[(k + 1) % n]]
                assert CO.coarse_length(keys) == cycle.arc_coarse_length(p, q)


def test_long_lift_diagram_is_the_cone_over_the_cycle():
    # the pairing search is a loop: a lift of a 1200-cycle crosses 1200
    # hyperplanes, more than the default recursion limit of stack frames
    n = 1200
    graph = cycle_graph(n)
    d = D.build_diagram(D.lift_cycle(graph, graph.vertices))
    assert len(d.core) == 1
    spans = sorted(tuple(sorted((2 * j, (2 * j - 3) % (2 * n)))) for j in range(n))
    assert [(a, b) for a, b, _ in d.arcs] == spans


def crossing_cone(graph, a, b):
    """The shortest cone g in P<lk u> and in Q<lk w>, whose square
    (g, g<u>, g<u,w>, g<w>) is dual to both hyperplanes (u, P) and (w, Q), as
    codes; None if they do not cross.  Every such cone lies in g<lk u & lk w>,
    and a ball that holds one of them holds the shortest."""
    (u, p), (w, q) = a, b
    ctx = context_for(graph)
    names = graph.order
    if not graph.has_edge(names[u], names[w]):
        return None
    lk_u, lk_w = graph.neighbors(names[u]), graph.neighbors(names[w])
    P, Q = GroupElement(ctx, p, _canonical=True), GroupElement(ctx, q, _canonical=True)
    factors = subgroup_product_factors(P.inverse() * Q, [lk_u, lk_w])
    if factors is None:
        return None
    return ctx.strip((P * factors[0]).codes, ctx.gen_mask(lk_u & lk_w))


def assert_coset_algebra_matches_ball(graph, radius):
    """The algebraic label, crossing and block across against the ball:
    labels name the root id classes one-to-one; two hyperplanes cross in the
    ball iff they cross algebraically at a cone of the ball; and at every
    cell, each hyperplane of its edges leads to the edge's other end, while
    a hyperplane of a neighbour's edges only is an InvariantError or leads
    out of the ball."""
    ball = FS.build_ball(graph, radius)
    ctx = ball.ctx
    labels = ball_labels(ball)
    crossings = ball_crossings(ball)
    cones = {codes for gens, codes in vkeys(ball) if not gens}
    by_gen = [[] for _ in graph.order]
    for h in sorted(labels):
        by_gen[labels[h][0]].append(h)
    algebraic = 0
    for u, hs in enumerate(by_gen):
        for w in range(u, len(by_gen)):
            pairs = [(h1, h2) for h1 in hs for h2 in by_gen[w] if h1 < h2]
            if not ctx.comm_masks[u] >> w & 1:
                # one generator, or two that span no square
                pairs = pairs[:3]
            for h1, h2 in pairs:
                got = D._crosses(ctx, labels[h1], labels[h2])
                cone = crossing_cone(graph, labels[h1], labels[h2])
                assert got == (cone is not None)
                assert ((h1, h2) in crossings) == (got and cone in cones)
                algebraic += got
    assert algebraic >= len(crossings)

    cells = set(vkeys(ball))
    root = ball.hyperplanes().tolist()
    near = [{root[e]: y for e, y in incident_edges(ball)[x]} for x in range(ball.nvertices)]
    for x, key in enumerate(vkeys(ball)):
        for h, y in near[x].items():
            assert D._block_across(ctx, key, labels[h]) == vkeys(ball)[y]
        for h in {h for y in near[x].values() for h in near[y]} - near[x].keys():
            try:
                got = D._block_across(ctx, key, labels[h])
            except InvariantError:
                continue
            assert got not in cells


@pytest.mark.parametrize(
    "make, radius",
    [(rq.pentagon, 6), (rq.dodecahedron, 4), (rq.dodecahedron_double, 4)],
    ids=["pentagon-r6", "dodecahedron-r4", "dd-r4"],
)
def test_coset_algebra_matches_ball(make, radius):
    assert_coset_algebra_matches_ball(make(), radius)


@given(small_connected_graphs())
@settings(max_examples=40, deadline=None)
def test_coset_algebra_matches_ball_on_random_graphs(graph):
    assert_coset_algebra_matches_ball(graph, 4)


@cache
def lifted_cycles(make):
    graph = make()
    return graph, [D.lift_cycle(graph, gamma) for gamma in C.enumerate_cycles(graph, 9)]


@given(
    st.sampled_from([rq.pentagon, rq.dodecahedron, rq.dodecahedron_double]),
    st.integers(0, 2**16),
    st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from((1, -1))), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_translated_lift_has_the_translated_diagram(make, pick, word):
    # x * lift has the lift's arcs (the same crossed generators), crossings
    # and region kinds, and each region vertex is x times the lift's
    graph, lifts = lifted_cycles(make)
    lift = lifts[pick % len(lifts)]
    n = len(graph.order)
    x = normal_form(graph, [(graph.order[i % n], s) for i, s in word])
    d, moved = D.build_diagram(lift), D.build_diagram(translated(lift, x))
    assert [(a, b, h % n) for a, b, h in moved.arcs] == d.arcs
    assert moved.crossings == d.crossings
    assert [(r.face_id, r.kind, r.sides, r.in_core) for r in moved.regions] == [
        (r.face_id, r.kind, r.sides, r.in_core) for r in d.regions
    ]
    for r, m in zip(d.regions, moved.regions):
        key = coset_key(x * GroupElement(x.ctx, r.vertex[1], _canonical=True), r.kind, r.vertex[0])
        assert m.vertex == (key.gens, key.rep.codes)


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
        diagrams += [D.build_diagram(D.lift_cycle(g, gamma)) for gamma in C.enumerate_cycles(g, max_len)]
    # multi-cell cores
    diagrams += [D.build_diagram(cyc) for cyc in eight_cycle_fixtures(pentagon_ball6, limit=12)]
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


# ---------------------------------------------------------------------------
# the one-pass cut search and the memoized arrangement against the per-pair
# walk enumeration and the diagram built with nothing kept between calls
# ---------------------------------------------------------------------------

def reference_icut(cycle, i):
    """An i-cut from its own pass over the flat pairs, with every walk
    enumerated per pair."""
    n = len(cycle)
    for p in range(n):
        for q in range(p + 1, n):
            if not (cycle.arc_coarse_length(p, q) > i and cycle.arc_coarse_length(q, p) > i):
                continue
            fp, fq = cycle.flats[p], cycle.flats[q]
            for walk, _ in reference_connections(fp, fq, i):
                cut = {"kind": "%d-cut" % i, "v": p, "w": q, "coarse_length": i}
                if i == 1:
                    cut["shared_generators"] = sorted(set(fp.gens) & set(fq.gens))
                else:
                    cut["via_edge"] = walk
                return cut
    return None


def reference_build_diagram(cycle):
    """``build_diagram`` as it was before its arrangement was memoized: every
    trial pairing checked against all arcs, crossings, faces and region
    typing computed afresh for each cycle."""
    n = len(cycle)
    ctx = cycle.flats[0].rep.ctx
    labels = []
    for i in range(n):
        s = (cycle.singulars[i].gens, cycle.singulars[i].rep.codes)
        labels.append(D._edge_label(ctx, s, cycle.flats[i].gens))
        labels.append(D._edge_label(ctx, s, cycle.flats[(i + 1) % n].gens))
    reps = sorted({p for _, p in labels}, key=lambda p: (len(p), p))
    rank = {p: k for k, p in enumerate(reps)}
    number = {lab: lab[0] + len(ctx.generators) * rank[lab[1]] for lab in labels}
    label_of = {h: lab for lab, h in number.items()}
    by_class = {}
    for p, lab in enumerate(labels):
        by_class.setdefault(number[lab], []).append(p)
    if any(len(ps) % 2 for ps in by_class.values()):
        raise InvariantError("a closed cycle crosses a hyperplane an odd number of times")
    choices = D._matching_choices(by_class)
    hs = sorted(label_of)
    cross_classes = {
        (h1, h2) for k, h1 in enumerate(hs) for h2 in hs[k + 1 :] if D._crosses(ctx, label_of[h1], label_of[h2])
    }

    def consistent(arcs):
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                if D._interleaved(arcs[i][:2], arcs[j][:2]):
                    if arcs[i][2] == arcs[j][2]:
                        return False
                    if (min(arcs[i][2], arcs[j][2]), max(arcs[i][2], arcs[j][2])) not in cross_classes:
                        return False
        return True

    def assemble(k, acc):
        if k == len(choices):
            return list(acc)
        h, ms = choices[k]
        for m in ms:
            trial = acc + [(a, b, h) for a, b in m]
            if consistent(trial):
                got = assemble(k + 1, trial)
                if got is not None:
                    return got
        return None

    arcs = assemble(0, [])
    if arcs is None:
        raise InvariantError("no consistent dual diagram pairing")
    arcs.sort()
    crossings = {(i, j) for i in range(len(arcs)) for j in range(i + 1, len(arcs)) if D._interleaved(arcs[i][:2], arcs[j][:2])}
    for i, j in crossings:
        for k in range(len(arcs)):
            if k not in (i, j) and (min(i, k), max(i, k)) in crossings and (min(j, k), max(j, k)) in crossings:
                raise InvariantError("three pairwise-crossing arcs: not a flat-space diagram")
    faces, face_edges, seg_face, edge_faces, face_nodes = D._arrangement_faces(2 * n, arcs, crossings)

    vertex_of = {}
    for k in range(2 * n):
        fid = seg_face.get(k)
        if fid is None:
            raise InvariantError("boundary segment lost its region")
        i, odd = divmod(k, 2)
        key = cycle.singulars[i] if not odd else cycle.flats[(i + 1) % n]
        x = (key.gens, key.rep.codes)
        if fid in vertex_of and vertex_of[fid] != x:
            raise GraphError("cycle required: boundary region is not a single block")
        vertex_of[fid] = x
    pending = [fid for fid in faces if fid in vertex_of]
    while pending:
        fid = pending.pop(0)
        for lab in face_edges[fid]:
            both = edge_faces[lab]
            if lab[0] != "arc" or len(both) != 2:
                continue
            other = both[0] if both[1] == fid else both[1]
            y = D._block_across(ctx, vertex_of[fid], label_of[arcs[lab[1]][2]])
            if other in vertex_of:
                if vertex_of[other] != y:
                    raise InvariantError("region propagation conflict: diagram is inconsistent")
            else:
                vertex_of[other] = y
                pending.append(other)
    regions, core, adjacency = [], [], {}
    for fid in faces:
        if fid not in vertex_of:
            raise InvariantError("region not reached by propagation")
        x = vertex_of[fid]
        segs = [lab[1] for lab in face_edges[fid] if lab[0] == "seg"]
        regions.append(D.Region(fid, _KINDS[len(x[0])], x, segs[0] if segs else -1, tuple(face_edges[fid]), not segs))
        if not segs:
            core.append(fid)
    for lab, fs in edge_faces.items():
        if lab[0] == "arc" and len(fs) == 2:
            a, b = fs
            adjacency.setdefault(a, {}).setdefault(b, 0)
            adjacency.setdefault(b, {}).setdefault(a, 0)
            adjacency[a][b] += 1
            adjacency[b][a] += 1
    if not core:
        raise GraphError("empty core: the boundary is not an embedded cycle")

    by_face = {r.face_id: r for r in regions}
    node_faces = {}
    for fid, nodes in face_nodes.items():
        for u in nodes:
            if u[0] == "x":
                node_faces.setdefault(u, set()).add(fid)
    for fs in node_faces.values():
        if len(fs) == 4 and sorted(by_face[f].kind for f in fs) != ["cone", "flat", "singular", "singular"]:
            raise InvariantError("crossing regions are not cone+flat+two singulars")
    for r in regions:
        if r.in_core:
            continue
        nodes = face_nodes[r.face_id]
        if len(nodes) == 3 and sum(1 for u in nodes if u[0] == "x") == 1 and r.kind != "flat":
            raise InvariantError("corner region is not a flat region")
        if r.kind == "cone":
            raise InvariantError("cone region touches the boundary")
    return D.DiskDiagram(cycle, arcs, crossings, regions, core, adjacency)


def diagram_view(d):
    if isinstance(d, tuple) and not isinstance(d, D.DiskDiagram):
        return d  # an (error type, message) outcome
    return d.to_json_obj(), region_view(d), d.region_adjacency


def assert_cuts_and_diagram_match_reference(cyc):
    expect = {
        "cut_1": reference_icut(cyc, 1),
        "cut_2": reference_icut(cyc, 2),
        "quasi_cut": reference_quasicut(cyc),
    }
    # twice: the second pass reads the walk table and the candidate memo
    for _ in range(2):
        assert D.find_icut(cyc, 1) == expect["cut_1"]
        assert D.find_icut(cyc, 2) == expect["cut_2"]
        assert D.find_quasicut(cyc) == expect["quasi_cut"]
        assert D.find_cuts(cyc) == expect
        assert D.is_taut(cyc) == all(c is None for c in expect.values())
        assert diagram_view(outcome(D.build_diagram, cyc)) == diagram_view(outcome(reference_build_diagram, cyc))
    return expect


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cut_pass_and_diagram_match_the_per_pair_reference(pentagon_ball6, seed):
    # lifts of tight and non-tight cycles of dense random graphs, each also
    # translated, and the non-lift 8-cycles of the pentagon with their
    # 1-cuts; connections beyond the kept walk length as well
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(rng.randint(5, 8))]
    p = rng.choice((0.35, 0.5, 0.65))
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < p]
    graph = DefiningGraph(verts, edges)
    cycles = [c for c in C.enumerate_cycles(graph, 8) if len(c) > 3]
    tested = []
    for gamma in rng.sample(cycles, min(len(cycles), 5)):
        lift = D.lift_cycle(graph, gamma)
        tested += [lift, translated(lift, random_element(rng, graph))]
    tested.append(rng.choice(eight_cycle_fixtures(pentagon_ball6, limit=4)))
    for cyc in tested:
        assert_cuts_and_diagram_match_reference(cyc)
        fp, fq = rng.sample(cyc.flats, 2)
        for m in range(1, 6):
            got = [(walk, list(f)) for walk, f in D._connections(fp, fq, m)]
            assert got == [(walk, [x.codes for x in f]) for walk, f in reference_connections(fp, fq, m)]


def test_cut_pass_matches_the_reference_on_golden_and_report_cycles(pentagon_ball6):
    # every kind of first cut occurs (the 1-cuts on the pentagon's 8-cycles),
    # and the report's first 25 tight lifts of the dodecahedron are taut
    # with single-cell cores
    found = {"cut_1": 0, "cut_2": 0, "quasi_cut": 0}
    cycles = [D.lift_cycle(make(), names.split(",")) for make, names in GOLDEN_CYCLES]
    for cyc in cycles + eight_cycle_fixtures(pentagon_ball6, limit=4):
        for kind, cut in assert_cuts_and_diagram_match_reference(cyc).items():
            found[kind] += cut is not None
    assert all(found.values()), found
    graph = rq.dodecahedron()
    for gamma in C.tight_cycles(graph, 10)[:25]:
        lift = D.lift_cycle(graph, gamma)
        assert assert_cuts_and_diagram_match_reference(lift) == dict.fromkeys(found)
        assert len(D.build_diagram(lift).core) == 1


def test_diagrams_sharing_an_arrangement_alias_nothing_mutable(pentagon, dodeca):
    # two pentagon lifts over different graphs read one memoized
    # arrangement; what they share is immutable, and changing what either
    # owns leaves the other and a later diagram as they were
    faces = [c for c in C.enumerate_cycles(dodeca, 5)]
    d1 = D.build_diagram(D.lift_cycle(pentagon, C.enumerate_cycles(pentagon, 5)[0]))
    d2 = D.build_diagram(D.lift_cycle(dodeca, faces[0]))
    before = diagram_view(d2)
    assert isinstance(d1.crossings, frozenset) and d1.crossings == d2.crossings
    for field in ("arcs", "regions", "core", "region_adjacency"):
        assert getattr(d1, field) is not getattr(d2, field)
    for a in d1.region_adjacency:
        assert d1.region_adjacency[a] is not d2.region_adjacency[a]
    assert all(isinstance(r.sides, tuple) for r in d1.regions)
    d1.arcs.append((0, 1, 99))
    d1.regions.pop()
    d1.core.append(99)
    for nbrs in d1.region_adjacency.values():
        nbrs.clear()
    assert diagram_view(d2) == before
    d3 = D.build_diagram(D.lift_cycle(dodeca, faces[0]))
    assert diagram_view(d3) == before
    assert diagram_view(d3) == diagram_view(reference_build_diagram(D.lift_cycle(dodeca, faces[0])))


def test_arrangement_and_candidate_memos_are_bounded(monkeypatch):
    # the arrangements of lifted n-cycles, n = 4 .. 263
    for n in range(4, 264):
        D._arrangement(2 * n, tuple(sorted(tuple(sorted((2 * j % (2 * n), (2 * j - 3) % (2 * n)))) for j in range(n))))
    info = D._arrangement.cache_info()
    assert info.maxsize == D.ARRANGEMENTS_MAX == 256 and info.currsize <= info.maxsize
    # the candidate memo of a context keeps at most CANDIDATES_MAX lists,
    # over relabelled graphs that each have their own context
    monkeypatch.setattr(D, "CANDIDATES_MAX", 8)
    for i in range(5):
        graph = rq.dodecahedron()
        graph = DefiningGraph(["r%d_%s" % (i, v) for v in graph.vertices], [("r%d_%s" % (i, a), "r%d_%s" % (i, b)) for a, b in graph.edges])
        ctx = context_for(graph)
        for gamma in C.tight_cycles(graph, 10)[:10]:
            D.is_taut(D.lift_cycle(graph, gamma))
            assert len(ctx.quasicut_candidates) <= 8
        assert len(ctx.quasicut_candidates) == 8


def test_observation_checks_read_the_memoized_arrangement(dodeca):
    # retyping one region of a lift's diagram breaks each structure check:
    # the crossing around the core, and, with the crossing checks left
    # out, a corner and a boundary cone
    d = D.build_diagram(D.lift_cycle(dodeca, C.enumerate_cycles(dodeca, 5)[0]))
    arr = D._arrangement(2 * len(d.cycle), tuple((a, b) for a, b, _ in d.arcs))
    D._check_diagram_observations(d, arr)
    corner = next(r for r in d.regions if r.face_id in arr.corner_faces)
    core = d.core_regions()[0]
    boundary = next(r for r in d.regions if not r.in_core and r.kind == "singular")
    no_crossings = arr._replace(crossing_faces=())
    for r, kind, checked, message in (
        (core, "flat", arr, "crossing regions are not cone"),
        (corner, "singular", no_crossings, "corner region is not a flat region"),
        (boundary, "cone", no_crossings, "cone region touches the boundary"),
    ):
        regions = [x._replace(kind=kind) if x is r else x for x in d.regions]
        with pytest.raises(InvariantError, match=message):
            D._check_diagram_observations(d._replace(regions=regions), checked)
