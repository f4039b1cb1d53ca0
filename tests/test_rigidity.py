import random

import pytest

import raagqi.graphs as G
import raagqi.rigidity as R
from raagqi.graphs import DefiningGraph, GraphError

from conftest import corpus


def relabel(g, suffix="_r"):
    m = {v: v + suffix for v in g.vertices}
    return m, DefiningGraph([m[v] for v in g.vertices], [(m[a], m[b]) for a, b in g.edges])


def test_classify_qi_verdicts(pentagon, dodeca_double):
    _, p2 = relabel(pentagon)
    res = R.classify_qi(pentagon, p2)
    assert res.verdict == "quasi_isometric_with_isomorphism"
    assert G.is_isomorphism(pentagon, p2, res.witness)

    res = R.classify_qi(pentagon, dodeca_double)
    assert res.verdict == "not_quasi_isometric"

    dp = G.double_along_closed_star(pentagon, "a")
    res = R.classify_qi(pentagon, dp)
    assert res.verdict == "out_of_scope"
    assert res.witness is None


def test_classify_qi_is_symmetric(pentagon, dodeca_double):
    _, p2 = relabel(pentagon)
    pairs = [(pentagon, p2), (pentagon, dodeca_double), (pentagon, G.double_along_closed_star(pentagon, "a"))]
    for g1, g2 in pairs:
        r12 = R.classify_qi(g1, g2)
        r21 = R.classify_qi(g2, g1)
        assert r12.verdict == r21.verdict
        if r12.witness:
            # the inverse of the reverse witness is again a witness
            inv = {v: k for k, v in r21.witness.items()}
            assert G.is_isomorphism(g1, g2, inv)


def test_out_group(pentagon, dodeca_double, hoffman_singleton):
    rep = R.out_group(pentagon)
    assert rep.h_order == 32
    assert rep.aut_order == 10
    assert rep.out_order == 320
    rep = R.out_group(dodeca_double)
    assert rep.h_order == 2 ** 35
    assert rep.out_order == rep.h_order * rep.aut_order
    rep = R.out_group(hoffman_singleton)
    assert rep.aut_order == 252000
    assert rep.out_order == 2 ** 50 * 252000
    with pytest.raises(GraphError):
        R.out_group(G.double_along_closed_star(pentagon, "a"))


def test_edges_to_isomorphism_round_trip(pentagon):
    rot = {"a": "b", "b": "c", "c": "d", "d": "e", "e": "a"}
    emap = {e: tuple(sorted((rot[e[0]], rot[e[1]]))) for e in pentagon.edges}
    assert R.edges_to_isomorphism(pentagon, pentagon, emap) == rot
    ident = {e: e for e in pentagon.edges}
    assert R.edges_to_isomorphism(pentagon, pentagon, ident) == {v: v for v in pentagon.vertices}


def test_edges_to_isomorphism_random_round_trips(dodeca_double):
    # every automorphism-induced edge bijection is recovered exactly
    g = dodeca_double
    m, g2 = relabel(g)
    emap = {e: tuple(sorted((m[e[0]], m[e[1]]))) for e in g.edges}
    phi = R.edges_to_isomorphism(g, g2, emap)
    assert phi == m
    # composing there and back yields the identity
    back = {tuple(sorted((m[a], m[b]))): (a, b) for a, b in g.edges}
    psi = R.edges_to_isomorphism(g2, g, back)
    assert all(psi[phi[v]] == v for v in g.vertices)


def test_edges_to_isomorphism_rejects_bad_maps(pentagon):
    emap = {e: e for e in pentagon.edges}
    broken = dict(emap)
    # swap images of two non-adjacent edges: adjacency preservation fails
    broken[("a", "b")] = ("c", "d")
    broken[("c", "d")] = ("a", "b")
    with pytest.raises(GraphError):
        R.edges_to_isomorphism(pentagon, pentagon, broken)
    with pytest.raises(GraphError):
        R.edges_to_isomorphism(G.path_graph(["a", "b", "c"]), G.path_graph(["a", "b", "c"]), {})
    tri = G.cycle_graph(3)
    with pytest.raises(GraphError):
        R.edges_to_isomorphism(tri, tri, {e: e for e in tri.edges})


def test_edge_maps_of_corpus_automorphisms(pentagon):
    rng = random.Random(17)
    graphs = [g for g in corpus(6, seed=5) if G.girth(g) >= 4] + [pentagon]
    for g in graphs:
        if any(g.degree(v) < 2 for v in g.vertices):
            continue
        m, g2 = relabel(g)
        emap = {e: tuple(sorted((m[e[0]], m[e[1]]))) for e in g.edges}
        assert R.edges_to_isomorphism(g, g2, emap) == m


def test_run_report_pentagon(pentagon):
    bundle = R.run_report(pentagon, ball_radius=4)
    s = bundle["sections"]
    assert s["atomicity"]["data"]["is_atomic"]
    assert s["tight_cycles"]["data"]["count"] == 1
    assert s["whitehead"]["data"]["lemma_passed"]
    assert s["flat_ball"]["data"]["structure"]["passed"]
    assert s["taut_verification"]["data"]["all_tight_lifts_taut"]
    assert s["taut_verification"]["data"]["cores_single_cell"]
    assert s["out_group"]["data"]["out_order"] == 320


def test_run_report_non_atomic_skips(pentagon):
    dp = G.double_along_closed_star(pentagon, "a")
    bundle = R.run_report(dp, ball_radius=4)
    s = bundle["sections"]
    assert not s["atomicity"]["data"]["is_atomic"]
    assert s["out_group"]["data"].get("skipped")
    assert s["taut_verification"]["data"].get("skipped")


def test_run_report_deterministic(pentagon):
    a = R.report_json(R.run_report(pentagon, ball_radius=4))
    b = R.report_json(R.run_report(pentagon, ball_radius=4))
    assert a == b


def test_run_report_fails_sections_only_on_graph_errors(pentagon, monkeypatch, capsys, tmp_path):
    import raagqi.cycles as C
    from raagqi.cli import main

    def raising(exc):
        def fn(*args, **kwargs):
            raise exc
        return fn

    monkeypatch.setattr(C, "tight_cycles", raising(GraphError("no cycles today")))
    s = R.run_report(pentagon, ball_radius=2)["sections"]
    assert s["tight_cycles"] == {"ok": False, "error": "no cycles today"}
    assert s["flat_ball"]["ok"] and s["out_group"]["ok"]

    monkeypatch.setattr(C, "tight_cycles", raising(G.InvariantError("broken invariant")))
    with pytest.raises(G.InvariantError):
        R.run_report(pentagon, ball_radius=2)
    path = tmp_path / "pentagon.json"
    path.write_text(pentagon.to_json())
    assert main(["report", str(path), "--radius", "2"]) == 3
    assert "InvariantError: broken invariant" in capsys.readouterr().err
