import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raagqi._kernels as K
import raagqi.graphs as G
from raagqi.graphs import DefiningGraph, GraphError

from conftest import corpus, wedge_of_cycles


def test_validation_rejects_bad_input():
    with pytest.raises(GraphError):
        DefiningGraph(["a", "a"], [])
    with pytest.raises(GraphError):
        DefiningGraph(["a", "b"], [("a", "a")])
    with pytest.raises(GraphError):
        DefiningGraph(["a", "b"], [("a", "c")])


def test_edges_are_deduplicated_and_sorted():
    g = DefiningGraph(["b", "a"], [("b", "a"), ("a", "b")])
    assert g.edges == (("a", "b"),)


def test_pentagon_is_atomic(pentagon):
    rep = G.check_atomic(pentagon)
    assert rep.is_atomic
    assert rep.failures == ()


def test_path_fails_valence():
    g = G.path_graph(["a", "b", "c"])
    rep = G.check_atomic(g)
    assert not rep.is_atomic
    assert {"kind": "vertex_of_valence_lt_2", "vertex": "a"} in [dict(f) for f in rep.failures]


def test_empty_graph_is_an_error():
    with pytest.raises(GraphError):
        G.check_atomic(DefiningGraph([], []))


def test_doubled_pentagon_has_separating_star(pentagon):
    dp = G.double_along_closed_star(pentagon, "a")
    assert len(dp.vertices) == 7
    assert len(dp.edges) == 8
    rep = G.check_atomic(dp)
    assert not rep.is_atomic
    kinds = {f["kind"] for f in rep.failures}
    assert kinds == {"separating_closed_star"}
    assert any(f["kind"] == "separating_closed_star" and f["vertex"] == "a" for f in rep.failures)


def test_double_counts_match_star_size(pentagon):
    for v in pentagon.vertices:
        star_verts, star_edges = pentagon.closed_star(v)
        d = G.double_along_closed_star(pentagon, v)
        assert len(d.vertices) == 2 * 5 - len(star_verts)
        assert len(d.edges) == 2 * 5 - len(star_edges)


def test_star_graph_doubles_to_itself():
    g = G.star_graph("b", ["a", "c", "d"])
    assert G.isomorphism(G.double_along_closed_star(g, "b"), g) is not None


def test_glue_k():
    p = G.pentagon()
    g2 = G.glue_k_copies_along_star(p, "a", 2)
    assert G.isomorphism(g2, G.double_along_closed_star(p, "a")) is not None
    g3 = G.glue_k_copies_along_star(p, "a", 3)
    assert len(g3.vertices) == 9
    assert len(g3.edges) == 11
    for k in (2, 3, 4):
        gk = G.glue_k_copies_along_star(p, "a", k)
        rep = G.check_atomic(gk)
        assert not rep.is_atomic
        assert any(f["kind"] == "separating_closed_star" for f in rep.failures)
    with pytest.raises(GraphError):
        G.glue_k_copies_along_star(p, "a", 1)


def test_girth():
    assert G.girth(G.pentagon()) == 5
    tree = G.path_graph(["a", "b", "c", "d"])
    assert G.girth(tree) == math.inf
    assert G.girth(G.dodecahedron()) == 5
    sq = G.cycle_graph(4)
    assert G.girth(sq) == 4


def girth_reference(adj, edges):
    """Shortest cycle of the graph with adjacency map adj and edge list
    edges, by one BFS per edge a-b that does not cross it; math.inf for
    forests.  A loop edge (a, a) counts as a cycle of length 1."""
    best = math.inf
    for a, b in edges:
        dist = {a: 0}
        frontier = [a]
        while frontier and b not in dist:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in dist and (v, u) != (a, b):
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        if b in dist:
            best = min(best, dist[b] + 1)
    return best


@given(st.integers(1, 14), st.floats(0, 0.6), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_girth_matches_the_per_edge_reference(n, p, forest, seed):
    # forests, as random trees with some edges dropped, must give math.inf
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(n)]
    if forest:
        edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n) if rng.random() > p / 2]
    else:
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < p]
    g = DefiningGraph(verts, edges)
    adj = {v: g.neighbors(v) for v in g.vertices}
    assert G.girth(g) == girth_reference(adj, g.edges)
    if forest:
        assert G.girth(g) == math.inf


def test_girth_matches_cycle_enumeration():
    from raagqi.cycles import enumerate_cycles

    for g in corpus(12, seed=7) + [G.dodecahedron()]:
        cyc = enumerate_cycles(g, len(g.vertices))
        expect = min((len(c) for c in cyc), default=math.inf)
        assert G.girth(g) == expect


def test_orthogonal_complement(pentagon):
    assert G.orthogonal_complement(pentagon, {"a"}) == {"b", "e"}
    assert G.orthogonal_complement(pentagon, {"a", "c"}) == {"b"}
    assert G.orthogonal_complement(pentagon, {"a", "b"}) == set()
    with pytest.raises(GraphError):
        G.orthogonal_complement(pentagon, {"zz"})


def test_orthogonal_complement_antitone(pentagon):
    import itertools

    vs = pentagon.vertices
    for r in (1, 2):
        for sub in itertools.combinations(vs, r):
            for bigger in itertools.combinations(vs, r + 1):
                if set(sub) <= set(bigger):
                    assert G.orthogonal_complement(pentagon, bigger) <= G.orthogonal_complement(
                        pentagon, sub
                    )


def test_cut_vertices(pentagon, dodeca_double):
    assert G.cut_vertices(pentagon) == set()
    w = wedge_of_cycles(5, 5)
    assert G.cut_vertices(w) == {"p0"}
    assert G.cut_vertices(dodeca_double) == set()
    with pytest.raises(GraphError):
        G.cut_vertices(DefiningGraph(["a", "b"], []))


def test_atomic_graphs_have_no_cut_vertices_or_separating_closed_edges():
    # consequence asserted over every atomic graph in the corpus
    atomics = [G.pentagon(), G.dodecahedron_double()] + [
        g for g in corpus(40, seed=11) if G.check_atomic(g).is_atomic
    ]
    assert atomics
    for g in atomics:
        assert G.cut_vertices(g) == set()
        for a, b in g.edges:
            keep = [v for v in g.vertices if v not in (a, b)]
            if not keep:
                continue
            seen = {keep[0]}
            stack = [keep[0]]
            while stack:
                x = stack.pop()
                for u in g.neighbors(x):
                    if u in keep and u not in seen and x in keep:
                        seen.add(u)
                        stack.append(u)
            assert len(seen) == len(keep), "separating closed edge in an atomic graph"


def test_isomorphism_witness_and_count(pentagon):
    relab = DefiningGraph(
        ["x1", "x2", "x3", "x4", "x5"],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x5", "x1")],
    )
    wit = G.isomorphism(pentagon, relab)
    assert wit is not None
    assert G.is_isomorphism(pentagon, relab, wit)
    assert G.isomorphism(pentagon, G.cycle_graph(6)) is None
    assert G.count_isomorphisms(pentagon, relab) == 10


def test_automorphism_orders(pentagon, dodeca, dodeca_double, tutte_coxeter, hoffman_singleton):
    assert G.automorphism_group_order(pentagon) == 10
    assert G.automorphism_group_order(DefiningGraph(["a", "b"], [("a", "b")])) == 2
    assert G.automorphism_group_order(dodeca) == 120
    # the Petersen graph as the Kneser graph K(5, 2): 2-subsets, joined when disjoint
    pairs = ["%d%d" % p for p in itertools.combinations(range(5), 2)]
    petersen = DefiningGraph(pairs, [(a, b) for a, b in itertools.combinations(pairs, 2) if not set(a) & set(b)])
    assert G.automorphism_group_order(petersen) == 120
    assert G.automorphism_group_order(dodeca_double) == 20
    assert G.automorphism_group_order(tutte_coxeter) == 1440
    assert G.automorphism_group_order(hoffman_singleton) == 252000
    assert G.automorphism_group_order(DefiningGraph([], [])) == 1
    assert G.isomorphism(DefiningGraph([], []), DefiningGraph([], [])) == {}
    assert G.isomorphism(hoffman_singleton, tutte_coxeter) is None


def test_isomorphism_is_an_equivalence():
    gs = corpus(8, seed=3)
    for g in gs:
        wit = G.isomorphism(g, g)
        assert wit is not None and G.is_isomorphism(g, g, wit)
    g1, g2 = gs[0], gs[1]
    w12 = G.isomorphism(g1, g2)
    if w12 is not None:
        w21 = G.isomorphism(g2, g1)
        assert w21 is not None
    # composition of witnesses is a witness
    relab = DefiningGraph([v + "_r" for v in g1.vertices], [(a + "_r", b + "_r") for a, b in g1.edges])
    w1 = G.isomorphism(g1, relab)
    w2 = G.isomorphism(relab, g1)
    comp = {v: w2[w1[v]] for v in g1.vertices}
    assert G.is_isomorphism(g1, g1, comp)


def test_dodecahedron_double(dodeca_double):
    assert len(dodeca_double.vertices) == 35
    assert len(dodeca_double.edges) == 55
    assert G.girth(dodeca_double) == 5
    assert G.check_atomic(dodeca_double).is_atomic


def test_json_round_trip(pentagon):
    text = pentagon.to_json()
    again = DefiningGraph.from_json(text)
    assert again == pentagon
    assert again.to_json() == text  # byte stable
    with pytest.raises(GraphError) as err:
        DefiningGraph.from_json("{bad")
    assert "line 1" in str(err.value)


def test_dot_output(pentagon):
    dot = pentagon.to_dot()
    assert dot.startswith("graph")
    assert '"a" -- "b";' in dot


def _glue_reference(g, shared_verts, shared_edges, k):
    """The gluing loop of the earlier constructions, kept as the oracle:
    shared edges were added under their own names."""
    shared_edges = {tuple(sorted(e)) for e in shared_edges}

    def name(x, i):
        return x if x in shared_verts else "%s#%d" % (x, i)

    verts, seen, edges = [], set(), set()
    for i in range(1, k + 1):
        for x in g.vertices:
            if name(x, i) not in seen:
                seen.add(name(x, i))
                verts.append(name(x, i))
        for a, b in g.edges:
            edges.add((a, b) if (a, b) in shared_edges else tuple(sorted((name(a, i), name(b, i)))))
    return DefiningGraph(verts, edges)


def test_gluing_matches_the_reference_construction():
    face = ["i0", "i2", "i4", "i6", "i8"]
    ref = _glue_reference(G.dodecahedron(), set(face), [(face[j], face[(j + 1) % 5]) for j in range(5)], 2)
    dd = G.dodecahedron_double()
    assert dd.vertices == ref.vertices and dd.edges == ref.edges
    rng = random.Random(17)
    for _ in range(400):
        verts = ["v%d" % i for i in range(rng.randint(1, 9))]
        rng.shuffle(verts)
        g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < 0.4])
        v, k = rng.choice(verts), rng.randint(2, 4)
        star, _ = g.closed_star(v)
        glued, ref = G.glue_k_copies_along_star(g, v, k), _glue_reference(g, star, (), k)
        assert glued.vertices == ref.vertices and glued.edges == ref.edges


# -- the set-based graph layer, kept as the oracle for the bitmask one --------

def _connected_reference(g, keep):
    keep = set(keep)
    if not keep:
        return True
    start = next(iter(keep))
    seen = {start}
    stack = [start]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u in keep and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(keep)


def _short_cycles_reference(g):
    out = []
    order = {v: i for i, v in enumerate(sorted(g.vertices))}
    for a in sorted(g.vertices):
        for b in sorted(g.neighbors(a)):
            if order[b] <= order[a]:
                continue
            for c in sorted(g.neighbors(b)):
                if order[c] <= order[b]:
                    continue
                if g.has_edge(a, c):
                    out.append((a, b, c))
    for a in sorted(g.vertices):
        nbrs = sorted(n for n in g.neighbors(a) if order[n] > order[a])
        for i, b in enumerate(nbrs):
            for d in nbrs[i + 1 :]:
                for c in sorted(set(g.neighbors(b)) & set(g.neighbors(d))):
                    if c != a and order[c] > order[a]:
                        out.append((a, b, c, d))
    return out


def _adj_masks_reference(g):
    order = tuple(sorted(g.vertices))
    idx = {v: i for i, v in enumerate(order)}
    masks = [0] * len(order)
    for v in order:
        for u in g.neighbors(v):
            masks[idx[v]] |= 1 << idx[u]
    return order, masks


def _diameter_at_most_2_reference(g):
    for v in g.vertices:
        reach = {v} | g.neighbors(v)
        for u in g.neighbors(v):
            reach |= g.neighbors(u)
        if len(reach) != len(g.vertices):
            return False
    return True


def _check_atomic_reference(g):
    failures = []
    if not _connected_reference(g, g.vertices):
        failures.append({"kind": "disconnected"})
    for v in sorted(g.vertices):
        if g.degree(v) < 2:
            failures.append({"kind": "vertex_of_valence_lt_2", "vertex": v})
    for cyc in _short_cycles_reference(g):
        failures.append({"kind": "short_cycle", "cycle": list(cyc), "length": len(cyc)})
    for v in sorted(g.vertices):
        star_verts, _ = g.closed_star(v)
        if not _connected_reference(g, set(g.vertices) - star_verts):
            failures.append({"kind": "separating_closed_star", "vertex": v})
    return tuple(failures)


def assert_graph_layer_matches_reference(g):
    from raagqi.cycles import _diameter_at_most_2

    assert (g.order, list(g.masks)) == _adj_masks_reference(g)
    assert G.check_atomic(g).failures == _check_atomic_reference(g)
    connected = G.is_connected(g)
    assert connected == _connected_reference(g, g.vertices)
    if connected:
        assert G.cut_vertices(g) == {v for v in g.vertices if not _connected_reference(g, set(g.vertices) - {v})}
    assert _diameter_at_most_2(g) == _diameter_at_most_2_reference(g)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_graph_layer_matches_set_based_reference(seed):
    # 1..9 vertices whose sorted order is not their numbering ("v10" < "v2"),
    # from sparse (isolated vertices, several pieces) to dense (triangles and
    # 4-cycles, some with chords)
    rng = random.Random(seed)
    verts = rng.sample(["v%d" % i for i in range(12)], rng.randint(1, 9))
    p = rng.choice((0.1, 0.25, 0.4, 0.6, 0.85))
    g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
    assert_graph_layer_matches_reference(g)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_vertex_queries_match_a_set_reference(seed):
    # the queries read only index and masks; the reference is built here
    # from the edge list, and asked about names the graph does not have
    rng = random.Random(seed)
    verts = rng.sample(["v%d" % i for i in range(12)], rng.randint(0, 9))
    p = rng.choice((0.1, 0.3, 0.6, 0.9))
    g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
    adj = {v: set() for v in verts}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    names = verts + ["v12", "x", ""]
    for v in names:
        known = v in adj
        assert g.has_vertex(v) is known
        for u in names:
            assert g.has_edge(v, u) is (known and u in adj[v])
        if known:
            nbrs = g.neighbors(v)
            assert isinstance(nbrs, frozenset) and nbrs == adj[v]
            assert g.degree(v) == len(adj[v])
            assert g.closed_star(v) == ({v} | adj[v], {tuple(sorted((v, u))) for u in adj[v]})
        else:
            with pytest.raises(KeyError):
                g.neighbors(v)
            with pytest.raises(KeyError):
                g.degree(v)
            with pytest.raises(GraphError):
                g.closed_star(v)


def _petersen():
    pairs = ["%d%d" % p for p in itertools.combinations(range(5), 2)]
    return DefiningGraph(pairs, [(a, b) for a, b in itertools.combinations(pairs, 2) if not set(a) & set(b)])


def _heawood():
    """LCF notation [5, -5]^7: cubic, girth 6."""
    verts = ["h%d" % i for i in range(14)]
    edges = [(verts[i], verts[(i + 1) % 14]) for i in range(14)]
    edges += [(verts[i], verts[(i + (5 if i % 2 == 0 else -5)) % 14]) for i in range(14)]
    return DefiningGraph(verts, edges)


@pytest.mark.parametrize("name", ["petersen", "heawood", "tutte_coxeter", "hoffman_singleton", "dd", "cycle70"])
def test_graph_layer_matches_reference_on_named_graphs(name, request):
    g = {
        "petersen": _petersen,
        "heawood": _heawood,
        "tutte_coxeter": lambda: request.getfixturevalue("tutte_coxeter"),
        "hoffman_singleton": lambda: request.getfixturevalue("hoffman_singleton"),
        "dd": G.dodecahedron_double,
        # wider than a 64-bit mask
        "cycle70": lambda: G.cycle_graph(70),
    }[name]()
    assert_graph_layer_matches_reference(g)


def test_json_integer_vertices_become_strings():
    g = DefiningGraph.from_json('{"vertices": [2, 10, "a"], "edges": [[2, 10], ["a", 2]]}')
    assert g.order == ("10", "2", "a")
    assert g.edges == (("10", "2"), ("2", "a"))


# -- the isomorphism engine against a joint-refinement reference -------------

def _refine_reference(sides):
    ncolours = len({x for _, c in sides for x in c.values()})
    while True:
        sigs = [{v: (c[v], tuple(sorted(c[u] for u in g.neighbors(v)))) for v in g.vertices} for g, c in sides]
        rank = {sig: i for i, sig in enumerate(sorted({sig for s in sigs for sig in s.values()}))}
        colourings = [{v: rank[sig] for v, sig in s.items()} for s in sigs]
        sizes = Counter(colourings[0].values())
        if any(Counter(c.values()) != sizes for c in colourings[1:]):
            return None
        if len(rank) == ncolours:
            return colourings
        ncolours = len(rank)
        sides = [(g, c) for (g, _), c in zip(sides, colourings)]


def _target_cell_reference(c):
    cells = {}
    for v, x in c.items():
        cells.setdefault(x, []).append(v)
    big = [(len(vs), x) for x, vs in cells.items() if len(vs) > 1]
    if not big:
        return None
    x = min(big)[1]
    return x, sorted(cells[x])


def _match_reference(g1, c1, g2, c2):
    refined = _refine_reference([(g1, c1), (g2, c2)])
    if refined is None:
        return None
    c1, c2 = refined
    cell = _target_cell_reference(c1)
    if cell is None:
        image = {x: w for w, x in c2.items()}
        mapping = {v: image[x] for v, x in c1.items()}
        return mapping if G.is_isomorphism(g1, g2, mapping) else None
    x, (v, *_) = cell
    for w in sorted(u for u, y in c2.items() if y == x):
        mapping = _match_reference(g1, {**c1, v: -1}, g2, {**c2, w: -1})
        if mapping is not None:
            return mapping
    return None


def _aut_order_reference(g, c, gens):
    cell = _target_cell_reference(c)
    if cell is None:
        return 1
    _, (v, *rest) = cell

    def orbit():
        seen, stack = {v}, [v]
        while stack:
            x = stack.pop()
            for m in gens:
                if m[x] not in seen:
                    seen.add(m[x])
                    stack.append(m[x])
        return seen

    stab = _aut_order_reference(g, _refine_reference([(g, {**c, v: -1})])[0], gens)
    seen = orbit()
    for w in rest:
        if w not in seen:
            mapping = _match_reference(g, {**c, v: -1}, g, {**c, w: -1})
            if mapping is not None:
                gens.append(mapping)
                seen = orbit()
    return len(seen) * stab


def assert_isomorphism_matches_reference(g1, g2):
    ref = _match_reference(g1, dict.fromkeys(g1.vertices, 0), g2, dict.fromkeys(g2.vertices, 0))
    got = G.isomorphism(g1, g2)
    # the engines search in different orders, so the witnesses may differ;
    # each must be an isomorphism, keyed in g1.vertices order
    assert (got is None) == (ref is None)
    if got is not None:
        assert G.is_isomorphism(g1, g2, got)
        assert list(got) == list(g1.vertices)
    order = G.automorphism_group_order(g1)
    assert order == _aut_order_reference(g1, _refine_reference([(g1, dict.fromkeys(g1.vertices, 0))])[0], [])
    assert G.count_isomorphisms(g1, g2) == (0 if ref is None else order)


def _relabelled(g, rng, prefix):
    """g under fresh shuffled names, declared in a shuffled order."""
    names = ["%s%d" % (prefix, i) for i in range(len(g.vertices))]
    rng.shuffle(names)
    new = dict(zip(g.vertices, names))
    verts = list(new.values())
    rng.shuffle(verts)
    return DefiningGraph(verts, [(new[a], new[b]) for a, b in g.edges])


def _one_edge_moved(g, rng):
    """g with one edge deleted and one non-edge added, or None if g is
    complete or empty."""
    non_edges = [e for e in itertools.combinations(g.order, 2) if not g.has_edge(*e)]
    if not g.edges or not non_edges:
        return None
    edges = list(g.edges)
    edges.remove(rng.choice(edges))
    return DefiningGraph(g.vertices, edges + [rng.choice(non_edges)])


@pytest.mark.parametrize(
    "name",
    ["pentagon", "petersen", "dodecahedron", "dd", "heawood", "tutte_coxeter", "hoffman_singleton", "double", "glue3"],
)
def test_isomorphism_engine_matches_reference_on_named_graphs(name, request):
    g = {
        "pentagon": G.pentagon,
        "petersen": _petersen,
        "dodecahedron": G.dodecahedron,
        "dd": G.dodecahedron_double,
        "heawood": _heawood,
        "tutte_coxeter": lambda: request.getfixturevalue("tutte_coxeter"),
        "hoffman_singleton": lambda: request.getfixturevalue("hoffman_singleton"),
        "double": lambda: G.double_along_closed_star(G.pentagon(), "c"),
        "glue3": lambda: G.glue_k_copies_along_star(G.dodecahedron(), "i3", 3),
    }[name]()
    rng = random.Random(name)
    assert_isomorphism_matches_reference(g, g)
    assert_isomorphism_matches_reference(g, _relabelled(g, rng, "n"))
    assert_isomorphism_matches_reference(_relabelled(g, rng, "m"), g)
    if len(g.vertices) <= 20:
        moved = _one_edge_moved(g, rng)
        assert_isomorphism_matches_reference(g, moved)
        assert_isomorphism_matches_reference(moved, g)


def test_isomorphism_engine_matches_reference_on_the_random_corpus():
    gs = corpus(12, seed=11)
    rng = random.Random(11)
    for g, h in zip(gs, gs[1:] + gs[:1]):
        assert_isomorphism_matches_reference(g, _relabelled(g, rng, "x"))
        assert_isomorphism_matches_reference(g, h)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_isomorphism_engine_matches_reference(seed):
    # relabelled copies, one-edge changes (often non-isomorphic with equal
    # degree sequences) and graphs of a different size
    rng = random.Random(seed)
    verts = rng.sample(["v%d" % i for i in range(12)], rng.randint(1, 9))
    p = rng.choice((0.2, 0.35, 0.5, 0.7))
    g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
    assert_isomorphism_matches_reference(g, _relabelled(g, rng, "w"))
    moved = _one_edge_moved(g, rng)
    if moved is not None:
        assert_isomorphism_matches_reference(g, moved)
    bigger = DefiningGraph(list(g.vertices) + ["extra"], list(g.edges))
    assert_isomorphism_matches_reference(g, bigger)
    assert_isomorphism_matches_reference(bigger, g)


# -- the engine against independent oracles ----------------------------------

def _brute_force_isomorphisms(g1, g2):
    """The number of vertex bijections g1 -> g2 that map edges onto edges,
    over all permutations."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return 0
    edges = set(g2.edges)
    count = 0
    for image in itertools.permutations(g2.order):
        m = dict(zip(g1.order, image))
        count += all(tuple(sorted((m[a], m[b]))) in edges for a, b in g1.edges)
    return count


@given(st.integers(0, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_engine_matches_brute_force_on_small_graphs(n, seed):
    rng = random.Random(seed)
    verts = ["v%d" % i for i in range(n)]
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
    # a random graph with as many edges often has the same degree sequence
    pairs = list(itertools.combinations(verts, 2))
    other = DefiningGraph(verts, rng.sample(pairs, len(g.edges)))
    order = _brute_force_isomorphisms(g, g)
    assert G.automorphism_group_order(g) == order
    for h in (_relabelled(g, rng, "u"), _one_edge_moved(g, rng), _relabelled(other, rng, "w")):
        if h is None:
            continue
        count = _brute_force_isomorphisms(g, h)
        wit = G.isomorphism(g, h)
        assert (wit is not None) == (count > 0)
        assert wit is None or G.is_isomorphism(g, h, wit)
        assert G.count_isomorphisms(g, h) == count


@pytest.mark.parametrize("k", [50, 1200])
def test_star_automorphisms_are_all_leaf_permutations(k):
    # a stabilizer chain as deep as the star has leaves, searched in a loop
    star = G.star_graph("c", ["l%d" % i for i in range(k)])
    assert G.automorphism_group_order(star) == math.factorial(k)
    h = _relabelled(star, random.Random(k), "s")
    wit = G.isomorphism(star, h)
    assert wit is not None and h.degree(wit["c"]) == k and sorted(wit.values()) == sorted(h.vertices)


@pytest.mark.parametrize("n", [3, 4, 5, 12, 70, 300])
def test_cycle_automorphisms_are_the_dihedral_group(n):
    assert G.automorphism_group_order(G.cycle_graph(n)) == 2 * n


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_automorphism_order_is_relabelling_invariant(n, seed):
    # random graphs and unions of equal cycles, whose cells refinement cannot
    # split
    rng = random.Random(seed)
    if rng.random() < 0.5:
        verts = ["v%d" % i for i in range(n)]
        p = rng.choice((0.05, 0.1, 0.3, 0.5))
        g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
    else:
        k = max(3, n // 4)
        verts = ["c%d_%d" % (j, i) for j in range(4) for i in range(k)]
        g = DefiningGraph(verts, [(verts[j * k + i], verts[j * k + (i + 1) % k]) for j in range(4) for i in range(k)])
    h = _relabelled(g, rng, "r")
    order = G.automorphism_group_order(g)
    assert G.automorphism_group_order(h) == order
    wit = G.isomorphism(g, h)
    assert wit is not None and G.is_isomorphism(g, h, wit)
    assert G.count_isomorphisms(h, g) == order


@pytest.mark.parametrize("name", ["petersen", "dodecahedron", "dd", "heawood", "tutte_coxeter", "double"])
def test_one_edge_moved_is_non_isomorphic_exactly_when_the_reference_says_so(name, request):
    g = {
        "petersen": _petersen,
        "dodecahedron": G.dodecahedron,
        "dd": G.dodecahedron_double,
        "heawood": _heawood,
        "tutte_coxeter": lambda: request.getfixturevalue("tutte_coxeter"),
        "double": lambda: G.double_along_closed_star(G.pentagon(), "c"),
    }[name]()
    rng = random.Random(name)
    start = dict.fromkeys(g.vertices, 0)
    for _ in range(8):
        moved = _one_edge_moved(g, rng)
        ref = _match_reference(g, start, moved, dict.fromkeys(moved.vertices, 0))
        assert (G.isomorphism(g, moved) is None) == (ref is None)
        h = _relabelled(moved, rng, "e")
        assert (G.isomorphism(h, g) is None) == (ref is None)


def test_check_atomic_is_kept_per_graph(monkeypatch):
    # an equal graph loaded separately shares the first report: no cycle
    # search and no separation check runs again
    text = G.cycle_graph(9, prefix="kept").to_json()
    first = G.check_atomic(DefiningGraph.from_json(text))

    def refuse(*args, **kwargs):
        raise AssertionError("check_atomic searched the graph again")

    monkeypatch.setattr(K, "enumerate_cycle_lists", refuse)
    monkeypatch.setattr(G, "_connected", refuse)
    again = DefiningGraph.from_json(text)
    assert G.check_atomic(again) == first
    assert G.check_atomic(again).to_json_obj() == first.to_json_obj()


def test_check_atomic_cache_is_bounded():
    for i in range(300):
        G.check_atomic(G.cycle_graph(5, prefix="atomic_bound%d_" % i))
    info = G._atomicity.cache_info()
    assert info.maxsize == 256 and info.currsize <= info.maxsize
