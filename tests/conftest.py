import random

import pytest
from hypothesis import strategies as st

import raagqi as rq
from raagqi import graphs as G


@pytest.fixture(scope="session")
def pentagon():
    return rq.pentagon()


@pytest.fixture(scope="session")
def dodeca():
    return rq.dodecahedron()


@pytest.fixture(scope="session")
def dodeca_double():
    return rq.dodecahedron_double()


@pytest.fixture(scope="session")
def pentagon_ball6(pentagon):
    return rq.build_ball(pentagon, 6)


@pytest.fixture(scope="session")
def dd_ball6(dodeca_double):
    return rq.build_ball(dodeca_double, 6)


@pytest.fixture(scope="session")
def tutte_coxeter():
    """The Tutte-Coxeter graph, LCF notation [-13, -9, 7, -7, 9, 13]^5:
    cubic, girth 8, |Aut| = 1440."""
    shifts = [-13, -9, 7, -7, 9, 13] * 5
    verts = ["t%d" % i for i in range(30)]
    edges = [(verts[i], verts[(i + 1) % 30]) for i in range(30)]
    edges += [(verts[i], verts[(i + shifts[i]) % 30]) for i in range(30)]
    return G.DefiningGraph(verts, edges)


@pytest.fixture(scope="session")
def hoffman_singleton():
    """Robertson's construction of the Hoffman-Singleton graph: pentagons
    P_h and pentagrams Q_i (h, i in Z/5), with P_h[j] joined to
    Q_i[h*i + j]: 7-regular, girth 5, |Aut| = 252000."""
    verts, edges = [], []
    for h in range(5):
        for j in range(5):
            verts += ["P%d_%d" % (h, j), "Q%d_%d" % (h, j)]
            edges.append(("P%d_%d" % (h, j), "P%d_%d" % (h, (j + 1) % 5)))
            edges.append(("Q%d_%d" % (h, j), "Q%d_%d" % (h, (j + 2) % 5)))
            edges += [("P%d_%d" % (h, j), "Q%d_%d" % (i, (h * i + j) % 5)) for i in range(5)]
    return G.DefiningGraph(verts, edges)


def wedge_of_cycles(n1, n2):
    """Two cycles sharing exactly one vertex."""
    v1 = ["p%d" % i for i in range(n1)]
    v2 = ["q%d" % i for i in range(n2 - 1)]
    edges = [(v1[i], v1[(i + 1) % n1]) for i in range(n1)]
    chain = [v1[0]] + v2
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges.append((v2[-1], v1[0]))
    return G.DefiningGraph(v1 + v2, edges)


def theta_graph(l1, l2, l3):
    """Two hubs joined by three disjoint paths of the given lengths."""
    verts = ["u", "w"]
    edges = []
    for name, ln in (("x", l1), ("y", l2), ("z", l3)):
        chain = ["u"] + ["%s%d" % (name, i) for i in range(ln - 1)] + ["w"]
        verts += chain[1:-1]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return G.DefiningGraph(verts, edges)


def random_corpus_graph(rng):
    """Random connected graph with <= 12 vertices, girth >= 5 and minimal
    valence 2: cycles, cycles with long chords, wedges, theta graphs."""
    kind = rng.randrange(4)
    if kind == 0:
        g = G.cycle_graph(rng.randint(5, 12))
    elif kind == 1:
        n = rng.randint(9, 12)
        g = G.cycle_graph(n)
        verts = list(g.vertices)
        edges = list(g.edges)
        for _ in range(rng.randrange(3)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            d = min((i - j) % n, (j - i) % n)
            cand = tuple(sorted((verts[i], verts[j])))
            if d >= 4 and cand not in edges:
                trial = G.DefiningGraph(verts, edges + [cand])
                if G.girth(trial) >= 5:
                    edges.append(cand)
        g = G.DefiningGraph(verts, edges)
    elif kind == 2:
        n1 = rng.randint(5, 7)
        n2 = rng.randint(5, min(13 - n1, 8))
        g = wedge_of_cycles(n1, n2)
    else:
        ls = sorted(rng.randint(3, 5) for _ in range(3))
        while ls[0] + ls[1] < 5:
            ls = sorted(rng.randint(3, 5) for _ in range(3))
        g = theta_graph(*ls)
        if len(g.vertices) > 12:
            g = theta_graph(3, 3, 3)
    assert G.is_connected(g)
    assert G.girth(g) >= 5
    assert min(g.degree(v) for v in g.vertices) >= 2
    assert len(g.vertices) <= 12
    return g


def corpus(n, seed=20260809):
    rng = random.Random(seed)
    return [random_corpus_graph(rng) for _ in range(n)]


@st.composite
def small_connected_graphs(draw):
    """A random tree on 1..7 vertices plus random extra edges: pendant
    vertices, triangles and larger cliques all occur."""
    verts = ["v%d" % i for i in range(draw(st.integers(1, 7)))]
    edges = {(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, len(verts))}
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return G.DefiningGraph(verts, sorted(edges))
