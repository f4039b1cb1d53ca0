"""Output checks made apart from raagqi.

Graph facts come from networkx and from known constants; group facts from a
small canonical form for RAAG words kept here (cancellation of x ... x^-1
across commuting letters, then the Foata normal form of the reduced word).
Each ``check_*`` function raises ``CheckFailed`` on a wrong answer.  The
checks never look at hyperplane ids or cell indices, which are artefacts of
one ball, and only at facts that hold for every labelling of a graph.
"""

import networkx as nx

from workloads import adjacency, is_tight

# |Aut| of the named graphs.
AUT_ORDER = {
    "pentagon": 10,
    "petersen": 120,
    "dodecahedron": 120,
    "dd": 20,
    "heawood": 336,
    "tutte_coxeter": 1440,
    "hoffman_singleton": 252000,
}
# Tight cycles of the Hoffman-Singleton graph: its 1260 pentagons.
HS_TIGHT_CYCLES = 1260


class CheckFailed(Exception):
    pass


def expect(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


# ---------------------------------------------------------------------------
# RAAG words: letters are (generator, sign); adj[v] is the set of neighbours
# ---------------------------------------------------------------------------

def reduce_word(word, adj):
    """Cancel x ... x^-1 pairs whose letters in between all commute with x,
    until none is left.  Reduced words of one element differ only by
    commuting adjacent letters."""
    w = list(word)
    i = 0
    while i < len(w):
        g, s = w[i]
        for j in range(i + 1, len(w)):
            h, t = w[j]
            if h == g:
                if t == -s:
                    del w[j], w[i]
                    i = -1
                break
            if h not in adj[g]:
                break
        i += 1
    return w


def foata_key(word, adj):
    """Foata normal form of a reduced word: layer k holds the letters whose
    longest chain of non-commuting predecessors has length k."""
    depth = []
    layers = []
    for k, (g, s) in enumerate(word):
        d = 0
        for j in range(k):
            h = word[j][0]
            if h == g or h not in adj[g]:
                d = max(d, depth[j] + 1)
        depth.append(d)
        if d == len(layers):
            layers.append([])
        layers[d].append((g, s))
    return tuple(tuple(sorted(layer)) for layer in layers)


def syllable_ball_size(graph, budget):
    """Number of elements reachable from 1 by at most ``budget`` right
    multiplications by u^k, 0 < |k| <= budget: the cone vertices of a ball."""
    adj = adjacency(graph)
    moves = [[(v, s)] * k for v in graph["vertices"] for s in (1, -1) for k in range(1, budget + 1)]
    seen = {()}
    frontier = [[]]
    for _ in range(budget):
        nxt = []
        for w in frontier:
            for m in moves:
                r = reduce_word(w + m, adj)
                key = foata_key(r, adj)
                if key not in seen:
                    seen.add(key)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# graph facts
# ---------------------------------------------------------------------------

def to_nx(graph):
    G = nx.Graph()
    G.add_nodes_from(graph["vertices"])
    G.add_edges_from(map(tuple, graph["edges"]))
    return G


def edge_set(cycle):
    n = len(cycle)
    return frozenset(frozenset((cycle[i], cycle[(i + 1) % n])) for i in range(n))


class GraphFacts:
    """Label-invariant facts of one graph, computed once with networkx."""

    def __init__(self, graph, gid=None):
        self.graph = graph
        self.G = G = to_nx(graph)
        self.n = G.number_of_nodes()
        self.m = G.number_of_edges()
        self.connected = nx.is_connected(G)
        self.low_valence = {v for v in G if G.degree(v) < 2}
        self.short_cycles = sum(1 for _ in nx.simple_cycles(G, length_bound=4))
        self.separating_stars = set()
        for v in G:
            rest = set(G) - set(G[v]) - {v}
            if rest and not nx.is_connected(G.subgraph(rest)):
                self.separating_stars.add(v)
        self.is_atomic = (
            self.connected and not self.low_valence and not self.short_cycles and not self.separating_stars
        )
        self.girth = nx.girth(G)
        self.cut_vertices = set(nx.articulation_points(G)) if self.connected else None
        self.gid = gid
        self._tight = {}
        self._aut = None

    def tight_cycles(self, max_len):
        """Edge sets of the tight cycles of length <= max_len (all if None)."""
        cap = self.n if max_len is None else min(max_len, self.n)
        if cap not in self._tight:
            self._tight[cap] = {
                edge_set(c) for c in nx.simple_cycles(self.G, length_bound=cap) if is_tight(self.G, c)
            }
        return self._tight[cap]

    def aut_order(self):
        if self._aut is None:
            if self.gid in AUT_ORDER:
                self._aut = AUT_ORDER[self.gid]
            else:
                gm = nx.algorithms.isomorphism.GraphMatcher(self.G, self.G)
                self._aut = sum(1 for _ in gm.isomorphisms_iter())
        return self._aut


def is_isomorphism(g1, g2, mapping):
    """True iff ``mapping`` is a bijection V1 -> V2 carrying E1 onto E2."""
    if sorted(mapping) != sorted(g1["vertices"]) or sorted(mapping.values()) != sorted(g2["vertices"]):
        return False
    e1 = {frozenset((mapping[a], mapping[b])) for a, b in g1["edges"]}
    return e1 == {frozenset(e) for e in g2["edges"]}


# ---------------------------------------------------------------------------
# checks of CLI outputs; ``back`` maps the output's vertex names to the
# names of the graph the facts were computed on
# ---------------------------------------------------------------------------

class _Identity(dict):
    def __missing__(self, key):
        return key


_SAME_NAMES = _Identity()


def check_atomic(out, facts, back=None):
    back = back or _SAME_NAMES
    expect(out["is_atomic"] == facts.is_atomic, "is_atomic %s, networkx says %s", out["is_atomic"], facts.is_atomic)
    kinds = {f["kind"] for f in out["failures"]}
    want = set()
    if not facts.connected:
        want.add("disconnected")
    if facts.low_valence:
        want.add("vertex_of_valence_lt_2")
    if facts.short_cycles:
        want.add("short_cycle")
    if facts.separating_stars:
        want.add("separating_closed_star")
    expect(kinds == want, "failure kinds %s, expected %s", sorted(kinds), sorted(want))
    for kind, want_vertices in (("vertex_of_valence_lt_2", facts.low_valence),
                                ("separating_closed_star", facts.separating_stars)):
        got = {back[f["vertex"]] for f in out["failures"] if f["kind"] == kind}
        expect(got == want_vertices, "%s at %s, expected %s", kind, sorted(got), sorted(want_vertices))
    shorts = sum(1 for f in out["failures"] if f["kind"] == "short_cycle")
    expect(shorts == facts.short_cycles, "%d short cycles, expected %d", shorts, facts.short_cycles)


def check_tight(out, facts, max_len, back=None):
    back = back or _SAME_NAMES
    got = [edge_set([back[v] for v in c]) for c in out["cycles"]]
    expect(out["count"] == len(got), "count %d but %d cycles listed", out["count"], len(got))
    expect(len(set(got)) == len(got), "a tight cycle is listed twice")
    want = facts.tight_cycles(max_len)
    expect(set(got) == want, "%d tight cycles, networkx finds %d", len(set(got)), len(want))
    if facts.gid == "hoffman_singleton":
        expect(len(got) == HS_TIGHT_CYCLES, "Hoffman-Singleton has %d tight cycles, not %d", HS_TIGHT_CYCLES, len(got))


def check_whitehead(out, facts, vertex, back=None):
    """Whitehead's lemma: for a connected graph of girth >= 5, Wh(v) is
    connected exactly when v is not a cut vertex."""
    back = back or _SAME_NAMES
    v = back[out["vertex"]]
    expect(v == vertex, "Whitehead graph of %s, asked for %s", v, vertex)
    link = {back[u] for u in out["link"]}
    expect(link == set(facts.G[v]), "link of %s is %s", v, sorted(link))
    for a, b in out["edges"]:
        expect(back[a] in link and back[b] in link and a != b, "edge %s-%s is not in the link", a, b)
    expect(out["connected"] == (v not in facts.cut_vertices),
           "Wh(%s) connected=%s but cut vertex=%s", v, out["connected"], v in facts.cut_vertices)


def check_classify(out, g1, g2, f1, f2, isomorphic):
    """``isomorphic`` is networkx's verdict on the pair."""
    if not (f1.is_atomic and f2.is_atomic):
        expect(out["verdict"] == "out_of_scope", "verdict %s for a non-atomic pair", out["verdict"])
        return
    if isomorphic:
        expect(out["verdict"] == "quasi_isometric_with_isomorphism", "verdict %s for isomorphic atomic graphs", out["verdict"])
        expect(is_isomorphism(g1, g2, out["witness"]), "the witness is not an isomorphism")
    else:
        expect(out["verdict"] == "not_quasi_isometric", "verdict %s for non-isomorphic atomic graphs", out["verdict"])


def check_out_group(out, facts):
    """|Out| = 2^|V| * |Aut| for an atomic graph."""
    aut = facts.aut_order()
    expect(out["aut_order"] == aut, "|Aut| = %s, expected %d", out["aut_order"], aut)
    expect(out["h_order"] == 2 ** facts.n, "h_order %s, expected 2^%d", out["h_order"], facts.n)
    expect(out["out_order"] == 2 ** facts.n * aut, "|Out| = %s, expected 2^%d * %d", out["out_order"], facts.n, aut)


def check_ball(out, graph, radius, cones):
    """``cones`` is the number of cone vertices by ``syllable_ball_size``."""
    budget = (radius - 2) // 2
    expect(out["radius"] == radius and out["budget"] == budget, "radius/budget %s/%s", out["radius"], out["budget"])
    by_type = out["vertices_by_type"]
    expect(by_type["cone"] == cones, "%d cones, the canonical form gives %d", by_type["cone"], cones)
    expect(out["vertices"] == sum(by_type.values()), "vertex count is not the sum of the kinds")
    expect(out["squares"] == cones * len(graph["edges"]), "%d squares, expected cones*|E| = %d",
           out["squares"], cones * len(graph["edges"]))
    checks = out.get("link_conditions", out.get("structure"))
    expect(checks["passed"] and checks["squares_typed"] and checks["cone_links_isomorphic"] and checks["links_girth_ok"],
           "structure checks failed: %s", checks)


def check_taut(out, facts, cycle):
    """The lift of an embedded cycle is taut iff the cycle is tight; a taut
    diagram has a one-cell core; a lift that is not taut has a cut."""
    expect(edge_set(out["cycle"]) == edge_set(cycle), "cycle echoed as %s", out["cycle"])
    tight = is_tight(facts.G, cycle)
    expect(out["tight_in_graph"] == tight, "tight_in_graph %s, networkx says %s", out["tight_in_graph"], tight)
    expect(out["taut_in_flat_space"] == tight, "taut %s for a cycle with tight=%s", out["taut_in_flat_space"], tight)
    if tight:
        expect(out.get("core_single_cell") is True, "a taut cycle without a one-cell core")
    else:
        expect(any(out[k] is not None for k in ("cut_1", "cut_2", "quasi_cut")), "a cycle that is not taut has no cut")


def check_diagram(out, facts, cycle):
    """Arcs of a lifted n-cycle pair boundary positions 2j and 2j-3 mod 2n;
    regions = 1 + arcs + crossings; the shell score is at least 4."""
    n = len(cycle)
    nb = 2 * n
    expect(out["boundary_length"] == nb, "boundary length %s for a %d-cycle", out["boundary_length"], n)
    arcs = [(a["from"], a["to"]) for a in out["arcs"]]
    pairs = {frozenset(p) for p in arcs}
    want = {frozenset((2 * j % nb, (2 * j - 3) % nb)) for j in range(n)}
    expect(pairs == want and len(arcs) == n, "arcs %s do not pair 2j with 2j-3", sorted(map(sorted, pairs)))

    def crosses(p, q):
        a, b = sorted(p)
        return (a < q[0] < b) != (a < q[1] < b)

    crossings = sum(1 for i in range(n) for j in range(i + 1, n) if crosses(arcs[i], arcs[j]))
    expect(len(out["crossings"]) == crossings, "%d crossings, the arcs give %d", len(out["crossings"]), crossings)
    expect(len(out["regions"]) == 1 + n + crossings, "%d regions, expected 1 + arcs + crossings = %d",
           len(out["regions"]), 1 + n + crossings)
    expect(out["shells"]["total_score"] >= 4, "shell score %s < 4", out["shells"]["total_score"])
    if is_tight(facts.G, cycle):
        expect(out["core_size"] == 1, "a tight cycle with a core of %s cells", out["core_size"])


def check_report(out, facts, cones, back=None):
    """Every section of ``report`` against networkx and the canonical form."""
    back = back or _SAME_NAMES
    sec = out["sections"]
    for name, s in sec.items():
        expect(s["ok"], "report section %s failed: %s", name, s.get("error"))
    g = sec["graph"]["data"]
    girth = "inf" if facts.girth == float("inf") else facts.girth
    expect((g["vertices"], g["edges"], g["girth"], g["connected"]) == (facts.n, facts.m, girth, facts.connected),
           "graph section %s", g)
    check_atomic(sec["atomicity"]["data"], facts, back)
    t = sec["tight_cycles"]["data"]
    want = facts.tight_cycles(t["max_length_scanned"])
    expect(t["count"] == len(want), "report counts %d tight cycles, networkx %d", t["count"], len(want))
    by_len = {}
    for c in want:
        by_len[str(len(c))] = by_len.get(str(len(c)), 0) + 1
    expect(t["by_length"] == by_len, "tight cycles by length %s, expected %s", t["by_length"], by_len)
    w = sec["whitehead"]["data"]
    expect(w["lemma_passed"], "Whitehead lemma reported as failed")
    for v, row in w["vertices"].items():
        cut = back[v] in facts.cut_vertices
        expect(row["is_cut_vertex"] == cut and row["wh_connected"] == (not cut), "Whitehead row of %s: %s", v, row)
    check_ball(sec["flat_ball"]["data"], facts.graph, 4, cones)
    if facts.is_atomic:
        tv = sec["taut_verification"]["data"]
        expect(tv["cycles_checked"] == min(25, len(want)), "%s lifts checked", tv["cycles_checked"])
        expect(tv["all_tight_lifts_taut"] and tv["cores_single_cell"], "taut verification %s", tv)
        check_out_group(sec["out_group"]["data"], facts)
    else:
        for name in ("taut_verification", "out_group"):
            expect("skipped" in sec[name]["data"], "section %s ran on a non-atomic graph", name)


def check_fault(fault, rc, stderr, timed_out):
    """F1 fails with OverflowError (exit 3); F3 runs past its time limit."""
    if fault == "F1":
        expect(rc == 3 and "OverflowError" in stderr, "F1 failed otherwise: exit %s, %s", rc, stderr.strip())
    elif fault == "F3":
        expect(timed_out, "F3 failed otherwise: exit %s, %s", rc, stderr.strip())
    else:
        raise CheckFailed("unexpected failure: exit %s, timed out %s, %s" % (rc, timed_out, stderr.strip()))
