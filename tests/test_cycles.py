import random

import pytest
from hypothesis import given, settings, strategies as st

import raagqi._kernels as K
import raagqi.cycles as C
import raagqi.graphs as G
from raagqi.graphs import DefiningGraph, GraphError

from conftest import corpus, random_corpus_graph, wedge_of_cycles


def hexagon_with_diagonal():
    g = G.cycle_graph(6, prefix="h")
    verts = list(g.vertices) + ["m"]
    # the path h0 - m - h3 keeps the girth at 5 while shortcutting the hexagon
    edges = list(g.edges) + [("h0", "m"), ("m", "h3")]
    return DefiningGraph(verts, edges)


def test_enumerate_cycles_pentagon(pentagon):
    assert len(C.enumerate_cycles(pentagon, 5)) == 1
    assert C.enumerate_cycles(pentagon, 4) == []
    with pytest.raises(GraphError):
        C.enumerate_cycles(pentagon, 2)


def test_enumerate_cycles_dodecahedron(dodeca):
    faces = C.enumerate_cycles(dodeca, 5)
    assert len(faces) == 12
    census = {}
    for c in C.enumerate_cycles(dodeca, 9):
        census[len(c)] = census.get(len(c), 0) + 1
    assert census == {5: 12, 8: 30, 9: 20}


def test_enumeration_matches_networkx():
    import networkx as nx

    for g in corpus(10, seed=21):
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(g.vertices)
        expect = set()
        for cyc in nx.simple_cycles(nxg, length_bound=8):
            if len(cyc) >= 3:
                expect.add(C.EmbeddedCycle(g, tuple(cyc)).vertices)
        got = {c.vertices for c in C.enumerate_cycles(g, 8)}
        assert got == expect


def test_canonical_form_is_rotation_reflection_invariant(pentagon):
    base = ("a", "b", "c", "d", "e")
    for rot in range(5):
        seq = base[rot:] + base[:rot]
        assert C.EmbeddedCycle(pentagon, seq) == C.EmbeddedCycle(pentagon, base)
        assert C.EmbeddedCycle(pentagon, tuple(reversed(seq))) == C.EmbeddedCycle(pentagon, base)


def canonical_reference(vs):
    """Least of all 2n rotations and reflections of the cycle."""
    n = len(vs)
    best = None
    for rot in range(n):
        for seq in (vs[rot:] + vs[:rot], (vs[rot:] + vs[:rot])[:1] + tuple(reversed((vs[rot:] + vs[:rot])[1:]))):
            if best is None or seq < best:
                best = seq
    return best


@given(st.lists(st.text("abcxyz0123", min_size=1, max_size=3), min_size=3, max_size=12, unique=True))
@settings(max_examples=300, deadline=None)
def test_canonical_rotation_matches_all_rotations_search(names):
    vs = tuple(names)
    assert C._canonical(vs) == canonical_reference(vs)
    assert C._canonical(tuple(reversed(vs))) == canonical_reference(vs)


def test_cycle_validation(pentagon):
    with pytest.raises(GraphError):
        C.EmbeddedCycle(pentagon, ("a", "b", "c"))  # c not adjacent to a
    with pytest.raises(GraphError):
        C.EmbeddedCycle(pentagon, ("a", "b", "a", "e"))


def test_find_shortcut(pentagon):
    pent = C.enumerate_cycles(pentagon, 5)[0]
    assert C.find_shortcut(pentagon, pent, 1) is None
    assert C.find_shortcut(pentagon, pent, 2) is None
    with pytest.raises(GraphError):
        C.find_shortcut(pentagon, pent, 0)

    g = hexagon_with_diagonal()
    hexc = C.EmbeddedCycle(g, tuple("h%d" % i for i in range(6)))
    sc = C.find_shortcut(g, hexc, 2)
    assert sc is not None and len(sc) == 3
    assert sc[0] in hexc.vertices and sc[-1] in hexc.vertices
    assert not C.is_tight(g, hexc)
    assert C.is_tight(pentagon, pent)


def reference_find_shortcut(graph, cycle, i):
    """The first i-shortcut by a recursive depth-first search over sorted
    neighbour names, starting from each cycle vertex in cycle order."""
    vs = cycle.vertices

    def distance_along(u, v):
        d = abs(vs.index(u) - vs.index(v))
        return min(d, len(vs) - d)

    def extend(path):
        if len(path) == i + 1:
            last = path[-1]
            if last in vs and distance_along(path[0], last) > i:
                return list(path)
            return None
        for nxt in sorted(graph.neighbors(path[-1])):
            if nxt in path:
                continue
            found = extend(path + [nxt])
            if found:
                return found
        return None

    for start in vs:
        found = extend([start])
        if found:
            return found
    return None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_find_shortcut_matches_the_recursive_search(seed):
    # dense random graphs, so that cycles have chords and shortcuts of
    # every length, some running through other cycle vertices
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    verts = ["v%d" % k for k in range(n)]
    p = rng.uniform(0.2, 0.7)
    g = DefiningGraph(verts, [(a, b) for k, a in enumerate(verts) for b in verts[k + 1 :] if rng.random() < p])
    cycles = C.enumerate_cycles(g, n)
    for cyc in rng.sample(cycles, min(3, len(cycles))):
        for i in range(1, 5):
            assert C.find_shortcut(g, cyc, i) == reference_find_shortcut(g, cyc, i)


def test_find_shortcut_walks_long_paths_without_recursion(pentagon):
    # a 1,100-vertex path hung from a: every shortcut search from a cycle
    # vertex runs down it, 1050 vertices deep, and finds no end
    path = ["p%d" % k for k in range(1100)]
    edges = list(pentagon.edges) + [("a", path[0])] + list(zip(path, path[1:]))
    g = DefiningGraph(list(pentagon.vertices) + path, edges)
    assert C.find_shortcut(g, "abcde", 1050) is None
    assert C.find_shortcut(g, "abcde", 2) is None


def test_is_tight_matches_shortcut_definition():
    for g in corpus(15, seed=31):
        for cyc in C.enumerate_cycles(g, min(8, len(g.vertices))):
            expect = C.find_shortcut(g, cyc, 1) is None and C.find_shortcut(g, cyc, 2) is None
            assert C.is_tight(g, cyc) == expect


def test_tight_cycles_equals_filtered_enumeration(dodeca_double):
    # the 70-cycle has more vertices than a 64-bit mask holds
    for g in corpus(8, seed=41) + [G.pentagon(), G.cycle_graph(70)]:
        cap = len(g.vertices)
        expect = {c.vertices for c in C.enumerate_cycles(g, cap) if C.is_tight(g, c)}
        got = {c.vertices for c in C.tight_cycles(g, cap)}
        assert got == expect
    # the pruned search agrees with filtering on the big graph up to length 9
    expect = {c.vertices for c in C.enumerate_cycles(dodeca_double, 9) if C.is_tight(dodeca_double, c)}
    got = {c.vertices for c in C.tight_cycles(dodeca_double, 9)}
    assert got == expect


def uncapped_tight_cycles(g):
    """The tight-cycle search at cap |V|, straight from the kernel."""
    order, masks = g.order, g.masks
    raw = K.enumerate_cycle_lists(masks, len(order), tight_only=True)
    return sorted(((len(t), tuple(order[i] for i in t)) for t in raw))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_tight_cycles_capped_on_diameter_two_graphs(seed):
    # dense random graphs on 4..11 vertices, most of diameter <= 2, where
    # the search stops at length 5; the others must not be capped
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(rng.randint(4, 11))]
    p = rng.choice((0.3, 0.45, 0.6, 0.8))
    g = DefiningGraph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < p])
    got = [(len(c), c.vertices) for c in C.tight_cycles(g)]
    assert got == uncapped_tight_cycles(g)
    if C._diameter_at_most_2(g):
        assert all(n <= 5 for n, _ in got)
        assert C.tight_cycles(g) is C.tight_cycles(g, 5)


def test_diameter_two_cap_on_moore_graphs(hoffman_singleton):
    petersen = G.DefiningGraph(
        ["u%d" % j for j in range(5)] + ["w%d" % j for j in range(5)],
        [("u%d" % j, "u%d" % ((j + 1) % 5)) for j in range(5)]
        + [("u%d" % j, "w%d" % j) for j in range(5)]
        + [("w%d" % j, "w%d" % ((j + 2) % 5)) for j in range(5)],
    )
    for g, count in ((petersen, 12), (hoffman_singleton, 1260)):
        assert C._diameter_at_most_2(g)
        got = C.tight_cycles(g)
        assert len(got) == count
        assert [(len(c), c.vertices) for c in got] == uncapped_tight_cycles(g)
    assert not C._diameter_at_most_2(G.dodecahedron())


def test_dodecahedron_double_tight_cycles_stay_in_one_copy(dodeca_double):
    def copy_tags(cyc):
        return {v.split("#")[1] for v in cyc.vertices if "#" in v}

    cycles = C.tight_cycles(dodeca_double)
    assert cycles
    for cyc in cycles:
        assert len(copy_tags(cyc)) <= 1


def test_whitehead_pentagon(pentagon):
    for v in pentagon.vertices:
        wh = C.whitehead_graph(pentagon, v)
        assert set(wh.vertices) == pentagon.neighbors(v)
        assert len(wh.edges) == 1


def test_whitehead_dodeca_double(dodeca_double):
    for v in dodeca_double.vertices:
        wh = C.whitehead_graph(dodeca_double, v)
        deg = dodeca_double.degree(v)
        if deg == 3:
            assert len(wh.edges) == 3  # complete graph on the link
        else:
            assert deg == 4
            assert len(wh.edges) == 5  # a square with one diagonal
            missing = {
                (a, b)
                for a in wh.vertices
                for b in wh.vertices
                if a < b and (a, b) not in wh.edges
            }
            assert len(missing) == 1
            (a, b) = missing.pop()
            # the missing pair crosses the two dodecahedron copies
            assert {a.split("#")[-1], b.split("#")[-1]} == {"1", "2"}


def test_whitehead_monotone_in_max_len(dodeca_double):
    v = next(v for v in dodeca_double.vertices if dodeca_double.degree(v) == 4)
    prev = set()
    for cap in (5, 7, 10, 20, 35):
        edges = C.whitehead_graph(dodeca_double, v, cap).edges
        assert prev <= edges
        prev = edges
    assert prev == C.whitehead_graph(dodeca_double, v).edges


def test_whitehead_lemma(pentagon, dodeca_double):
    assert C.check_whitehead_lemma(pentagon)["passed"]
    assert C.check_whitehead_lemma(dodeca_double)["passed"]
    w = wedge_of_cycles(5, 5)
    rep = C.check_whitehead_lemma(w)
    assert rep["passed"]
    assert rep["vertices"]["p0"]["is_cut_vertex"]
    assert not rep["vertices"]["p0"]["wh_connected"]
    with pytest.raises(GraphError):
        C.check_whitehead_lemma(G.cycle_graph(4))


def whitehead_edges_reference(graph, v, max_len=None):
    """The per-vertex scan: the link pair of v on each tight cycle through v."""
    edges = set()
    for cyc in C.tight_cycles(graph, max_len):
        vs = cyc.vertices
        if v in vs:
            k = vs.index(v)
            edges.add(tuple(sorted((vs[k - 1], vs[(k + 1) % len(vs)]))))
    return frozenset(edges)


def assert_whitehead_pass_matches_scan(g, max_len):
    for v in g.order:
        wh = C.whitehead_graph(g, v, max_len)
        assert wh.vertices == tuple(sorted(g.neighbors(v)))
        assert wh.edges == whitehead_edges_reference(g, v, max_len)
    if max_len is None:
        table = C.check_whitehead_lemma(g)["vertices"]
        for v in g.order:
            ref = C.WhiteheadGraph(v, tuple(sorted(g.neighbors(v))), whitehead_edges_reference(g, v))
            assert table[v]["wh_connected"] == ref.is_connected()


def test_whitehead_connectivity_on_small_links():
    assert C.WhiteheadGraph("v", (), frozenset()).is_connected()
    assert C.WhiteheadGraph("v", ("a",), frozenset()).is_connected()
    assert not C.WhiteheadGraph("v", ("a", "b"), frozenset()).is_connected()
    assert C.WhiteheadGraph("v", ("a", "b", "c"), frozenset({("a", "c"), ("b", "c")})).is_connected()
    assert not C.WhiteheadGraph("v", ("a", "b", "c", "d"), frozenset({("a", "c"), ("b", "d")})).is_connected()


@pytest.mark.parametrize("max_len", [None, 5, 9])
def test_whitehead_pass_matches_per_vertex_scan_on_dd(dodeca_double, max_len):
    assert_whitehead_pass_matches_scan(dodeca_double, max_len)


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 5, 8]))
@settings(max_examples=60, deadline=None)
def test_whitehead_pass_matches_per_vertex_scan_on_random_graphs(seed, max_len):
    assert_whitehead_pass_matches_scan(random_corpus_graph(random.Random(seed)), max_len)


def test_coloring_lemma(pentagon, dodeca_double):
    allblack = {e: "black" for e in pentagon.edges}
    rep = C.check_coloring_lemma(pentagon, allblack)
    assert rep["valid_hypotheses"] and rep["conclusion_holds"]

    onewhite = dict(allblack)
    onewhite[pentagon.edges[0]] = "white"
    rep = C.check_coloring_lemma(pentagon, onewhite)
    assert not rep["hypothesis_tight_cycles"]

    # copy-1 black, copy-2 white, shared pentagon gray: two gray edges need
    # not share a vertex, so hypothesis (1) fails
    coloring = {}
    for e in dodeca_double.edges:
        tags = {v.split("#")[1] for v in e if "#" in v}
        if not tags:
            coloring[e] = "gray"
        elif tags == {"1"}:
            coloring[e] = "black"
        else:
            coloring[e] = "white"
    rep = C.check_coloring_lemma(dodeca_double, coloring)
    assert not rep["hypothesis_gray_pairs"]

    with pytest.raises(GraphError):
        C.check_coloring_lemma(G.cycle_graph(4), {e: "black" for e in G.cycle_graph(4).edges})
    with pytest.raises(GraphError):
        C.check_coloring_lemma(pentagon, {})


def test_tight_cycle_cache_is_bounded():
    for i in range(300):
        C.tight_cycles(G.cycle_graph(5, prefix="bound%d_" % i))
    info = C._tight_cycles.cache_info()
    assert info.maxsize == 256 and info.currsize <= info.maxsize


def test_tight_cycle_cache_is_bounded_in_cycles(monkeypatch):
    # relabelled dodecahedra, 18 tight cycles each: the cache keeps at most
    # max_cycles cycles besides the newest list, which it always keeps
    cache = C._tight_cycles
    assert cache.max_cycles == 1 << 16
    monkeypatch.setattr(cache, "max_cycles", 100)
    cache.cache_clear()
    base = G.dodecahedron()

    def relabelled(i):
        return G.DefiningGraph(
            ["c%d_%s" % (i, v) for v in base.vertices],
            [("c%d_%s" % (i, a), "c%d_%s" % (i, b)) for a, b in base.edges],
        )

    graphs = [relabelled(i) for i in range(9)]
    per = len(C.tight_cycles(base))
    keep = 100 // per
    cache.cache_clear()
    for i, g in enumerate(graphs[:8]):
        assert len(C.tight_cycles(g)) == per
        info = cache.cache_info()
        assert info.currsize == min(i + 1, keep) and info.cycles == per * info.currsize <= 100
    # a hit makes a list the newest, so the next eviction passes it by
    oldest = graphs[8 - keep]
    C.tight_cycles(oldest)
    C.tight_cycles(graphs[8])
    misses = cache.cache_info().misses
    C.tight_cycles(oldest)
    assert cache.cache_info().misses == misses
    # a hit by an equal graph keeps the stored graph, not both
    twin = relabelled(8)
    assert C.tight_cycles(twin) is C.tight_cycles(graphs[8])
    assert all(key[0] is not twin for key in cache._lists)
    # a list longer than the bound is still kept, alone
    monkeypatch.setattr(cache, "max_cycles", 10)
    C.tight_cycles(graphs[0])
    assert cache.cache_info()[3:] == (1, per)
    cache.cache_clear()


def test_tight_cycles_rejects_caps_below_3(pentagon):
    for cap in (2, 0, -3):
        with pytest.raises(GraphError, match="max_len must be at least 3"):
            C.tight_cycles(pentagon, cap)
        with pytest.raises(GraphError, match="max_len must be at least 3"):
            C.whitehead_graph(pentagon, "a", cap)
    assert len(C.tight_cycles(pentagon, 3)) == 0
    assert len(C.tight_cycles(pentagon)) == 1
    # a graph too small for any cycle still has an empty default scan
    assert C.tight_cycles(DefiningGraph(["a", "b"], [("a", "b")])) == []


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_kernel_cycles_need_no_check(seed, tight_only):
    # the kernel's index tuples, wrapped without the constructor's checks,
    # are the cycles the constructor makes of them
    rng = random.Random(seed)
    verts = rng.sample(["v%d" % i for i in range(12)], rng.randint(3, 8))
    p = rng.choice((0.25, 0.4, 0.6, 0.85))
    g = DefiningGraph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < p])
    raw = K.enumerate_cycle_lists(g.masks, len(verts), tight_only=tight_only)
    got = C._kernel_cycles(g, raw)
    want = [C.EmbeddedCycle(g, [g.order[i] for i in t]) for t in raw]
    assert [(c.graph, c.vertices) for c in got] == [(c.graph, c.vertices) for c in want]
    assert got == want
