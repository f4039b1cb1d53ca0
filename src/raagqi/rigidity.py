"""Rigidity consequences as decision procedures and bundled reports.

For atomic defining graphs, quasi-isometry of the groups is decided by graph
isomorphism; outside the atomic class the classifier refuses to extrapolate
(doubling along a closed star yields commensurable, hence quasi-isometric,
groups with non-isomorphic graphs).  The outer automorphism group of an
atomic RAAG is an extension of the graph automorphisms by the generator
inversions, so its order is 2^|V| * |Aut|.

Both questions go to one individualization-refinement engine,
``raagqi._search``: each graph is refined alone on ordered partitions by a
splitter queue, one first path of individualized vertices serves the
isomorphism search and every level of the stabilizer chain, and |Aut| is
the product of the orbits up that chain.  A witness is accepted only if it
maps every neighbour mask onto the image vertex's mask.
"""

import json
from collections import namedtuple

from .graphs import (
    GraphError,
    check_atomic,
    girth,
    automorphism_group_order,
    is_connected,
    is_isomorphism,
    isomorphism,
)

__all__ = [
    "QiClassification",
    "classify_qi",
    "OutGroupReport",
    "out_group",
    "edges_to_isomorphism",
    "run_report",
]


class QiClassification(namedtuple("QiClassification", "verdict witness reason atomicity")):
    """``verdict`` is quasi_isometric_with_isomorphism, not_quasi_isometric
    or out_of_scope; ``atomicity`` holds the two atomicity reports."""

    __slots__ = ()

    def to_json_obj(self):
        return {
            "verdict": self.verdict,
            "witness": self.witness,
            "reason": self.reason,
            "atomicity": [r.to_json_obj() for r in self.atomicity],
        }


def classify_qi(g1, g2):
    """Decide quasi-isometry of the two RAAGs when both graphs are atomic;
    report out_of_scope otherwise (never claiming non-QI)."""
    r1, r2 = check_atomic(g1), check_atomic(g2)
    if not (r1.is_atomic and r2.is_atomic):
        which = []
        if not r1.is_atomic:
            which.append("first")
        if not r2.is_atomic:
            which.append("second")
        return QiClassification(
            verdict="out_of_scope",
            witness=None,
            reason="%s input graph not atomic; the rigidity theorem does not apply" % " and ".join(which),
            atomicity=(r1, r2),
        )
    wit = isomorphism(g1, g2)
    if wit is None:
        return QiClassification(
            verdict="not_quasi_isometric",
            witness=None,
            reason="both graphs atomic and not isomorphic",
            atomicity=(r1, r2),
        )
    return QiClassification(
        verdict="quasi_isometric_with_isomorphism",
        witness=dict(sorted(wit.items())),
        reason="both graphs atomic and isomorphic",
        atomicity=(r1, r2),
    )


class OutGroupReport(namedtuple("OutGroupReport", "h_order aut_order out_order extension")):
    __slots__ = ()

    def to_json_obj(self):
        return {
            "h_order": self.h_order,
            "aut_order": self.aut_order,
            "out_order": self.out_order,
            "extension": self.extension,
        }


def out_group(g):
    """Order data of Out(G) for an atomic defining graph."""
    if not check_atomic(g).is_atomic:
        raise GraphError("out_group requires an atomic graph")
    h = 2 ** len(g.vertices)
    aut = automorphism_group_order(g)
    return OutGroupReport(
        h_order=h,
        aut_order=aut,
        out_order=h * aut,
        extension="1 -> (Z/2)^%d -> Out(G) -> Aut(Gamma) -> 1" % len(g.vertices),
    )


def _norm_edge(e):
    a, b = e
    return (a, b) if a <= b else (b, a)


def edges_to_isomorphism(g1, g2, edge_map):
    """Reconstruct the vertex isomorphism inducing an adjacency-preserving
    edge bijection: the image of a vertex is the common vertex of the images
    of its edges (unique once there are no 3- or 4-cycles)."""
    for g in (g1, g2):
        if any(g.degree(v) < 2 for v in g.vertices):
            raise GraphError("edge-map induction requires minimal valence 2")
        if girth(g) < 4:
            raise GraphError("edge-map induction requires girth >= 4")
    emap = {_norm_edge(k): _norm_edge(v) for k, v in edge_map.items()}
    if sorted(emap) != sorted(g1.edges):
        raise GraphError("edge map domain is not the edge set of the first graph")
    if sorted(emap.values()) != sorted(g2.edges):
        raise GraphError("edge map image is not a bijection onto the second edge set")
    for e1 in g1.edges:
        for e2 in g1.edges:
            if e1 < e2 and set(e1) & set(e2):
                if not set(emap[e1]) & set(emap[e2]):
                    raise GraphError(
                        "edge map does not preserve adjacency: %r,%r -> %r,%r"
                        % (e1, e2, emap[e1], emap[e2])
                    )
    phi = {}
    for v in g1.vertices:
        at_v = [emap[_norm_edge((v, u))] for u in g1.neighbors(v)]
        common = set(at_v[0])
        for e in at_v[1:]:
            common &= set(e)
        if len(common) != 1:
            raise GraphError("edge map is not induced by an isomorphism at vertex %r" % (v,))
        phi[v] = common.pop()
    if not is_isomorphism(g1, g2, phi):
        raise GraphError("reconstructed vertex map is not an isomorphism")
    for e in g1.edges:
        if _norm_edge((phi[e[0]], phi[e[1]])) != emap[e]:
            raise GraphError("reconstructed map does not induce the edge map")
    return phi


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

def run_report(g, ball_radius=4, max_cycle_len=None, taut_cap=25):
    """Full analysis bundle.  A section whose precondition fails (a
    GraphError) is reported as ``ok: false`` and the others still run; any
    other exception, such as an InvariantError, propagates."""
    from . import cycles as cy
    from . import diagrams as dg
    from . import flatspace as fs

    bundle = {"sections": {}}

    def section(name, fn):
        try:
            bundle["sections"][name] = {"ok": True, "data": fn()}
        except GraphError as exc:
            bundle["sections"][name] = {"ok": False, "error": "%s" % exc}

    def s_graph():
        gg = girth(g)
        return {
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "girth": "inf" if gg == float("inf") else gg,
            "min_valence": min((g.degree(v) for v in g.vertices), default=0),
            "connected": is_connected(g),
        }

    section("graph", s_graph)

    section("atomicity", lambda: check_atomic(g).to_json_obj())
    atomicity = bundle["sections"]["atomicity"]

    def s_tight():
        cycles = cy.tight_cycles(g, max_cycle_len)
        by_len = {}
        for c in cycles:
            by_len[str(len(c))] = by_len.get(str(len(c)), 0) + 1
        cap = len(g.vertices) if max_cycle_len is None else max_cycle_len
        return {"count": len(cycles), "by_length": by_len, "max_length_scanned": cap}

    section("tight_cycles", s_tight)

    def s_whitehead():
        table = cy.check_whitehead_lemma(g)
        return {
            "lemma_passed": table["passed"],
            "vertices": {
                v: {"wh_connected": row["wh_connected"], "is_cut_vertex": row["is_cut_vertex"]}
                for v, row in table["vertices"].items()
            },
        }

    section("whitehead", s_whitehead)

    def s_ball():
        ball = fs.build_ball(g, ball_radius)
        st = ball.stats()
        st["structure"] = fs.verify_ball_structure(ball)
        return st

    section("flat_ball", s_ball)

    if atomicity["ok"] and atomicity["data"]["is_atomic"]:

        def s_taut():
            checked = 0
            all_taut = True
            single_cell = True
            for gamma in cy.tight_cycles(g, max_cycle_len)[:taut_cap]:
                lift = dg.lift_cycle(g, gamma)
                taut = dg.is_taut(lift)
                all_taut = all_taut and taut
                if taut:
                    single_cell = single_cell and len(dg.build_diagram(lift).core) == 1
                checked += 1
            return {"cycles_checked": checked, "all_tight_lifts_taut": all_taut, "cores_single_cell": single_cell}

        section("taut_verification", s_taut)

        def s_out():
            return out_group(g).to_json_obj()

        section("out_group", s_out)
    else:
        skip = {"ok": True, "data": {"skipped": "requires an atomic graph"}}
        bundle["sections"]["taut_verification"] = skip
        bundle["sections"]["out_group"] = skip

    return bundle


def report_json(bundle):
    return json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n"
