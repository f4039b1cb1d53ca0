"""Each output check accepts raagqi's answer and rejects one wrong answer.

    python3 -m pytest perfbench -q
"""

import copy
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from raagqi import cli, graphs  # noqa: E402

PENTAGON = workloads.from_raagqi(graphs.pentagon())
PETERSEN = workloads.petersen()


@pytest.fixture
def run_cli(monkeypatch, capsys):
    def run(graph, command, *args):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph)))
        assert cli.main([command, "-", *args, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    return run


def rejects(check, *args):
    with pytest.raises(ref.CheckFailed):
        check(*args)


def test_canonical_form_counts_cones_like_raagqi():
    adj = ref.adjacency(PENTAGON)
    # a and b commute in the pentagon RAAG, so a b a^-1 = b
    assert ref.foata_key(ref.reduce_word([("a", 1), ("b", 1), ("a", -1)], adj), adj) == ((("b", 1),),)
    # a and c do not
    assert len(ref.reduce_word([("a", 1), ("c", 1), ("a", -1)], adj)) == 3
    assert ref.foata_key([("a", 1), ("b", 1)], adj) == ref.foata_key([("b", 1), ("a", 1)], adj)
    from raagqi.words import syllable_ball

    assert ref.syllable_ball_size(PENTAGON, 2) == len(syllable_ball(graphs.pentagon(), 2, 2))


def test_known_constants_agree_with_networkx():
    for gid, build in (("petersen", workloads.petersen), ("heawood", workloads.heawood)):
        facts = ref.GraphFacts(build())
        assert facts.aut_order() == ref.AUT_ORDER[gid]
    hs = ref.GraphFacts(workloads.hoffman_singleton(), "hoffman_singleton")
    assert (hs.n, hs.m, hs.girth, hs.is_atomic) == (50, 175, 5, True)
    assert len(hs.tight_cycles(5)) == ref.HS_TIGHT_CYCLES


def test_check_atomic(run_cli):
    out = run_cli(PETERSEN, "check-atomic")
    facts = ref.GraphFacts(PETERSEN)
    ref.check_atomic(out, facts)
    rejects(ref.check_atomic, dict(out, is_atomic=False), facts)


def test_check_atomic_witnesses(run_cli):
    g = workloads.from_raagqi(graphs.double_along_closed_star(graphs.pentagon(), "a"))
    g["edges"].append(["a", "c#1"])  # the triangle a-b-c#1
    out = run_cli(g, "check-atomic")
    facts = ref.GraphFacts(g)
    ref.check_atomic(out, facts)
    wrong = copy.deepcopy(out)
    wrong["failures"] = [f for f in wrong["failures"] if f["kind"] != "short_cycle"]
    rejects(ref.check_atomic, wrong, facts)


def test_check_tight(run_cli):
    out = run_cli(PETERSEN, "tight-cycles", "--max-len", "10")
    facts = ref.GraphFacts(PETERSEN)
    ref.check_tight(out, facts, 10)
    wrong = dict(out, cycles=out["cycles"][1:], count=out["count"] - 1)
    rejects(ref.check_tight, wrong, facts, 10)


def test_check_tight_maps_names_back(run_cli):
    g, back = workloads.relabel(PETERSEN, random.Random(0), "n")
    out = run_cli(g, "tight-cycles", "--max-len", "10")
    facts = ref.GraphFacts(PETERSEN)
    ref.check_tight(out, facts, 10, back)
    rejects(ref.check_tight, out, facts, 10)  # names not mapped back


def test_check_whitehead(run_cli):
    out = run_cli(PETERSEN, "whitehead", "--vertex", "u0")
    facts = ref.GraphFacts(PETERSEN)
    ref.check_whitehead(out, facts, "u0")
    rejects(ref.check_whitehead, dict(out, connected=False), facts, "u0")


def test_check_classify():
    from raagqi.rigidity import classify_qi

    g2, _ = workloads.relabel(PETERSEN, random.Random(1), "m")
    out = classify_qi(graphs.DefiningGraph.from_json(json.dumps(PETERSEN)),
                      graphs.DefiningGraph.from_json(json.dumps(g2))).to_json_obj()
    facts = ref.GraphFacts(PETERSEN)
    ref.check_classify(out, PETERSEN, g2, facts, facts, True)
    wit = dict(out["witness"])
    wit["u0"], wit["u1"] = wit["u1"], wit["u0"]
    rejects(ref.check_classify, dict(out, witness=wit), PETERSEN, g2, facts, facts, True)
    rejects(ref.check_classify, dict(out, verdict="not_quasi_isometric"), PETERSEN, g2, facts, facts, True)


def test_check_out_group(run_cli):
    out = run_cli(PETERSEN, "out-group")
    facts = ref.GraphFacts(PETERSEN, "petersen")
    ref.check_out_group(out, facts)
    rejects(ref.check_out_group, dict(out, aut_order=60, out_order=60 * out["h_order"]), facts)


def test_check_ball(run_cli):
    out = run_cli(PENTAGON, "flat-ball", "--radius", "6")
    cones = ref.syllable_ball_size(PENTAGON, 2)
    ref.check_ball(out, PENTAGON, 6, cones)
    by_type = dict(out["vertices_by_type"], cone=cones + 1)
    rejects(ref.check_ball, dict(out, vertices_by_type=by_type, vertices=out["vertices"] + 1), PENTAGON, 6, cones)


def test_check_taut(run_cli):
    facts = ref.GraphFacts(PENTAGON)
    out = run_cli(PENTAGON, "taut", "--cycle", "a,b,c,d,e")
    ref.check_taut(out, facts, ["a", "b", "c", "d", "e"])
    rejects(ref.check_taut, dict(out, taut_in_flat_space=False), facts, ["a", "b", "c", "d", "e"])


def test_check_taut_needs_a_cut_when_not_tight():
    # the 8-cycle around two adjacent faces of the dodecahedron has a chord
    dodeca = workloads.from_raagqi(graphs.dodecahedron())
    cycle = "i0,i2,i4,i6,i8,o8,o9,o0".split(",")
    out = {"cycle": cycle, "tight_in_graph": False, "taut_in_flat_space": False,
           "cut_1": None, "cut_2": None, "quasi_cut": None}
    rejects(ref.check_taut, out, ref.GraphFacts(dodeca), cycle)


def test_check_diagram(run_cli):
    facts = ref.GraphFacts(PENTAGON)
    cycle = ["c", "b", "a", "e", "d"]
    out = run_cli(PENTAGON, "diagram", "--cycle", ",".join(cycle))
    ref.check_diagram(out, facts, cycle)
    wrong = copy.deepcopy(out)
    wrong["arcs"][0]["to"] = (wrong["arcs"][0]["to"] + 1) % 10
    rejects(ref.check_diagram, wrong, facts, cycle)
    rejects(ref.check_diagram, dict(out, regions=out["regions"][1:]), facts, cycle)


def test_check_report(run_cli):
    out = run_cli(PETERSEN, "report", "--max-len", "10")
    facts = ref.GraphFacts(PETERSEN, "petersen")
    cones = ref.syllable_ball_size(PETERSEN, 1)
    ref.check_report(out, facts, cones)
    wrong = copy.deepcopy(out)
    wrong["sections"]["tight_cycles"]["data"]["count"] += 1
    rejects(ref.check_report, wrong, facts, cones)


def test_check_fault():
    ref.check_fault("F1", 3, "internal error: OverflowError: Python int too large to convert to C long", False)
    ref.check_fault("F3", None, "", True)
    rejects(ref.check_fault, "F1", 2, "error: something else", False)
    rejects(ref.check_fault, "F3", 3, "internal error", False)
    rejects(ref.check_fault, None, 3, "internal error", False)
