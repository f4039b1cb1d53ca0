import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import raagqi as rq
import raagqi.cycles as C
import raagqi.flatspace as FS
from raagqi.cli import build_parser, main
from raagqi.graphs import cycle_graph


@pytest.fixture()
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(rq.pentagon().to_json())
    return str(path)


@pytest.fixture()
def doubled_file(tmp_path):
    path = tmp_path / "doubled.json"
    path.write_text(rq.double_along_closed_star(rq.pentagon(), "a").to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_atomic(capsys, pentagon_file, doubled_file):
    code, out, _ = run(capsys, "check-atomic", pentagon_file)
    assert code == 0 and "atomic" in out
    code, out, _ = run(capsys, "check-atomic", doubled_file, "--json")
    assert code == 0
    assert json.loads(out)["is_atomic"] is False


def test_tight_cycles(capsys, pentagon_file):
    code, out, _ = run(capsys, "tight-cycles", pentagon_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["cycles"] == [["a", "b", "c", "d", "e"]]


def test_tight_cycles_beyond_64_vertices(capsys, tmp_path):
    path = tmp_path / "c70.json"
    path.write_text(cycle_graph(70).to_json())
    code, out, _ = run(capsys, "tight-cycles", str(path), "--json")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_whitehead(capsys, pentagon_file):
    code, out, _ = run(capsys, "whitehead", pentagon_file, "--vertex", "a", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["connected"] and data["edges"] == [["b", "e"]]
    code, out, _ = run(capsys, "whitehead", pentagon_file, "--vertex", "a", "--dot")
    assert code == 0 and out.startswith("graph")


def test_flat_ball_stats(capsys, pentagon_file):
    code, out, _ = run(capsys, "flat-ball", pentagon_file, "--radius", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 11 and data["squares"] == 5
    assert data["link_conditions"]["passed"]


def test_flat_ball_beyond_128_vertices(capsys, tmp_path):
    # letter codes of 130 generators run past 255; cell keys have no byte limit
    path = tmp_path / "c130.json"
    path.write_text(cycle_graph(130).to_json())
    code, out, _ = run(capsys, "flat-ball", str(path), "--radius", "4", "--json")
    assert code == 0
    assert json.loads(out)["link_conditions"]["passed"]


def test_flat_ball_radius_error(capsys, pentagon_file):
    code, _, err = run(capsys, "flat-ball", pentagon_file, "--radius", "1")
    assert code == 2
    assert "radius" in err


def test_diagram_and_taut(capsys, pentagon_file):
    code, out, _ = run(capsys, "diagram", pentagon_file, "--cycle", "a,b,c,d,e", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["core_size"] == 1
    assert data["shells"]["case"] == "single_cell"
    code, out, _ = run(capsys, "taut", pentagon_file, "--cycle", "a,b,c,d,e", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tight_in_graph"] and data["taut_in_flat_space"] and data["core_single_cell"]


@pytest.mark.parametrize("command", ["taut", "diagram"])
@pytest.mark.parametrize("radius", ["0", "1"])
def test_lifted_cycle_commands_reject_small_radius(capsys, pentagon_file, command, radius):
    # the diagram is built by coset algebra, with no ball, so these commands
    # take no --radius: any radius, a small one included, is a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, pentagon_file, "--cycle", "a,b,c,d,e", "--radius", radius, "--json"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --radius" in out.err


@pytest.mark.parametrize("command", ["taut", "diagram"])
def test_lifted_cycle_commands_require_a_connected_graph(capsys, tmp_path, command):
    # a pentagon plus an isolated vertex: the cycle is fine, the graph is not
    path = tmp_path / "pentagon_plus.json"
    pentagon = rq.pentagon()
    path.write_text(rq.DefiningGraph(list(pentagon.vertices) + ["f"], pentagon.edges).to_json())
    code, out, err = run(capsys, command, str(path), "--cycle", "a,b,c,d,e", "--json")
    assert code == 2 and out == ""
    assert "requires a connected graph" in err


@pytest.mark.parametrize("max_len", ["2", "0", "-3"])
def test_cycle_commands_reject_caps_below_3(capsys, pentagon_file, max_len):
    code, out, err = run(capsys, "tight-cycles", pentagon_file, "--max-len", max_len)
    assert code == 2 and out == ""
    assert "max_len must be at least 3" in err
    code, out, err = run(capsys, "whitehead", pentagon_file, "--vertex", "a", "--max-len", max_len, "--json")
    assert code == 2 and out == ""
    assert "max_len must be at least 3" in err
    code, out, _ = run(capsys, "report", pentagon_file, "--max-len", max_len)
    assert code == 0
    sections = json.loads(out)["sections"]
    for name in ("tight_cycles", "taut_verification"):
        assert sections[name] == {"ok": False, "error": "max_len must be at least 3"}
    assert sections["whitehead"]["ok"] and sections["out_group"]["ok"]


def test_report_on_the_empty_graph_marks_atomicity_failed(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": []}))
    code, out, err = run(capsys, "report", str(path))
    assert code == 0 and err == ""
    sections = json.loads(out)["sections"]
    assert sections["atomicity"] == {"ok": False, "error": "empty graph: atomicity undefined"}
    skipped = {"ok": True, "data": {"skipped": "requires an atomic graph"}}
    assert sections["taut_verification"] == sections["out_group"] == skipped
    assert sections["graph"]["ok"] and sections["graph"]["data"]["vertices"] == 0


@pytest.mark.parametrize(
    "graph", [{"vertices": [], "edges": []}, {"vertices": ["a", "b"], "edges": [["a", "b"]]}], ids=["empty", "K2"]
)
def test_report_without_a_cap_scans_a_tiny_graph(capsys, tmp_path, graph):
    # no --max-len: the default cap is |V| < 3, which scans nothing rather
    # than failing the "at least 3" check meant for a user's cap
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "report", str(path))
    assert code == 0 and err == ""
    data = {"count": 0, "by_length": {}, "max_length_scanned": len(graph["vertices"])}
    assert json.loads(out)["sections"]["tight_cycles"] == {"ok": True, "data": data}


@pytest.fixture()
def dodeca_eight(tmp_path):
    """A dodecahedron file and one of its 8-cycles, whose lift is not taut."""
    dodeca = rq.dodecahedron()
    path = tmp_path / "dodecahedron.json"
    path.write_text(dodeca.to_json())
    return str(path), ",".join(next(c for c in C.enumerate_cycles(dodeca, 8) if len(c) == 8).vertices)


def test_lifted_cycle_commands_build_no_large_ball(capsys, monkeypatch, pentagon_file, dodeca_eight):
    # a lift's diagram is built by coset algebra: no ball at all
    built = []

    class CountedBall(FS.FlatBall):
        def __init__(self, graph, radius):
            built.append(radius)
            super().__init__(graph, radius)

    monkeypatch.setattr(FS, "FlatBall", CountedBall)
    path, eight = dodeca_eight

    code, out, _ = run(capsys, "taut", pentagon_file, "--cycle", "a,b,c,d,e", "--json")
    assert code == 0 and json.loads(out)["core_single_cell"]
    code, out, _ = run(capsys, "taut", path, "--cycle", eight, "--json")
    assert code == 0
    data = json.loads(out)
    assert not data["taut_in_flat_space"] and "core_single_cell" not in data
    code, out, _ = run(capsys, "diagram", pentagon_file, "--cycle", "a,b,c,d,e", "--json")
    assert code == 0 and json.loads(out)["core_size"] == 1
    code, out, _ = run(capsys, "diagram", path, "--cycle", eight, "--json")
    assert code == 0 and json.loads(out)["core_size"] == 1
    assert built == []


@pytest.fixture()
def triangle_file(tmp_path):
    # a triangle a,b,c with a pendant vertex d
    path = tmp_path / "triangle.json"
    path.write_text(rq.DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]).to_json())
    return str(path)


@pytest.mark.parametrize("command", ["taut", "diagram"])
@pytest.mark.parametrize("cycle", ["a,b,c", "c,b,a"])
def test_lifted_cycle_commands_reject_a_triangle(capsys, triangle_file, command, cycle):
    # a precondition (exit 2), not an internal error
    code, out, err = run(capsys, command, triangle_file, "--cycle", cycle, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: cycle a,b,c is a triangle")


def test_classify_and_out_group(capsys, pentagon_file, doubled_file):
    code, out, _ = run(capsys, "classify-qi", pentagon_file, doubled_file, "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "out_of_scope"
    code, out, _ = run(capsys, "out-group", pentagon_file, "--json")
    assert code == 0
    assert json.loads(out)["out_order"] == 320
    code, _, err = run(capsys, "out-group", doubled_file)
    assert code == 2 and "atomic" in err


def test_construct(capsys, pentagon_file):
    code, out, _ = run(capsys, "construct", "double", "--graph", pentagon_file, "--vertex", "a")
    assert code == 0
    g = rq.DefiningGraph.from_json(out)
    assert len(g.vertices) == 7
    code, out, _ = run(capsys, "construct", "glue-k", "--graph", pentagon_file, "--vertex", "a", "-k", "3")
    assert len(rq.DefiningGraph.from_json(out).vertices) == 9
    code, out, _ = run(capsys, "construct", "dodeca-double")
    assert len(rq.DefiningGraph.from_json(out).vertices) == 35
    code, _, err = run(capsys, "construct", "double")
    assert code == 1


def test_normal_form(capsys, pentagon_file):
    code, out, _ = run(capsys, "normal-form", pentagon_file, "--word", "a b a^-1 c")
    assert code == 0 and out.strip() == "b c"
    code, _, err = run(capsys, "normal-form", pentagon_file, "--word", "zz")
    assert code == 2


def test_normal_form_rejects_an_empty_exponent(capsys, pentagon_file):
    code, out, err = run(capsys, "normal-form", pentagon_file, "--word", "a^")
    assert code == 2 and out == ""
    assert "bad exponent" in err


def test_report_deterministic(capsys, pentagon_file):
    code, out1, _ = run(capsys, "report", pentagon_file, "--radius", "4")
    assert code == 0
    code, out2, _ = run(capsys, "report", pentagon_file, "--radius", "4")
    assert out1 == out2
    data = json.loads(out1)
    assert data["sections"]["out_group"]["data"]["out_order"] == 320


def test_bad_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "check-atomic", str(bad))
    assert code == 1 and "line" in err
    code, _, err = run(capsys, "check-atomic", str(tmp_path / "missing.json"))
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": ["a", "b"], "edges": [["a"]]}',
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}',
        '{"vertices": ["a", "b"], "edges": 5}',
        '{"vertices": "abc", "edges": []}',
        '{"vertices": [null], "edges": []}',
        '{"vertices": [true, false], "edges": []}',
    ],
)
def test_malformed_graph_json_is_an_input_error(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "check-atomic", "-")
    assert code == 1 and out == ""
    assert err.startswith("input error:")


def test_out_group_hoffman_singleton(capsys, tmp_path, hoffman_singleton):
    path = tmp_path / "hs.json"
    path.write_text(hoffman_singleton.to_json())
    code, out, _ = run(capsys, "out-group", str(path), "--json")
    assert code == 0
    assert json.loads(out)["aut_order"] == 252000


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def fresh_process(argv, entry=("-m", "raagqi.cli")):
    """Exit code and stdout of ``python <entry> <argv>`` in a new interpreter
    that imports this checkout's raagqi; ``entry`` defaults to the CLI."""
    src = str(pathlib.Path(rq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *entry] + argv, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def test_repeated_main_calls_match_fresh_processes(tmp_path, pentagon_file):
    # one parser serves every call: no option or default may carry over from
    # one command to the next, in either order
    dodeca = tmp_path / "dodecahedron.json"
    dodeca.write_text(rq.dodecahedron().to_json())
    calls = [
        ["taut", str(dodeca), "--cycle", "i3,i1,i9,i7,o7,o6,o5,i5", "--json"],
        ["check-atomic", pentagon_file],
        ["whitehead", pentagon_file, "--vertex", "a", "--dot"],
        ["report", pentagon_file],
    ]
    expect = {tuple(argv): fresh_process(argv) for argv in calls}
    for order in (calls, calls[::-1]):
        for argv in order:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            assert (code, out.getvalue()) == expect[tuple(argv)]


def test_classify_qi_output_does_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # the witness is read off list positions, never off the iteration order
    # of a set or dict of names
    g = rq.dodecahedron()
    names = {v: "x%s" % v[::-1] for v in g.vertices}
    copy = rq.DefiningGraph([names[v] for v in reversed(g.order)], [(names[a], names[b]) for a, b in g.edges])
    paths = [tmp_path / "g.json", tmp_path / "copy.json"]
    paths[0].write_text(g.to_json())
    paths[1].write_text(copy.to_json())
    argv = ["classify-qi", str(paths[0]), str(paths[1]), "--json"]
    outs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        outs.append(fresh_process(argv))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert json.loads(outs[0][1])["verdict"] == "quasi_isometric_with_isomorphism"


ENGINE_PROBE = """
import contextlib, io, json, sys
from raagqi.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), "raagqi._search" in sys.modules])
print(json.dumps(seen))
"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["taut", "{g}", "--cycle", "a,b,c,d,e"], False),
        (["diagram", "{g}", "--cycle", "a,b,c,d,e"], False),
        (["flat-ball", "{g}", "--radius", "2"], False),
        (["out-group", "{g}"], True),
    ],
)
def test_only_isomorphism_commands_import_the_search_engine(pentagon_file, argv, loads):
    argv = [a.format(g=pentagon_file) for a in argv]
    code, out = fresh_process([json.dumps([argv])], entry=("-c", ENGINE_PROBE))
    assert (code, json.loads(out)) == (0, [[0, loads]])


NUMPY_PROBE = """
import contextlib, io, json, sys
from raagqi.cli import main
# dataclasses pulls inspect, ast, dis and tokenize into a process
HEAVY = {"dataclasses", "inspect"}
seen = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seen.append([main(argv), "numpy" in sys.modules, out.getvalue(), sorted(HEAVY & set(sys.modules))])
print(json.dumps(seen))
"""


def test_commands_that_build_no_ball_do_not_import_numpy(pentagon_file, doubled_file, dodeca_eight):
    # no command imports numpy, the ones that build a ball included
    path, eight = dodeca_eight
    calls = [
        ["check-atomic", pentagon_file],
        ["tight-cycles", pentagon_file],
        ["whitehead", pentagon_file, "--vertex", "a"],
        ["classify-qi", pentagon_file, doubled_file],
        ["out-group", pentagon_file],
        ["construct", "double", "--graph", pentagon_file, "--vertex", "a"],
        ["normal-form", pentagon_file, "--word", "a b a^-1 c"],
        ["taut", pentagon_file, "--cycle", "a,b,c,d,e"],
        ["taut", path, "--cycle", eight],
        ["diagram", pentagon_file, "--cycle", "a,b,c,d,e"],
        ["report", pentagon_file],
        ["flat-ball", pentagon_file, "--radius", "4", "--dot"],
        ["flat-ball", pentagon_file, "--radius", "2"],
    ]
    code, out = fresh_process([json.dumps(calls)], entry=("-c", NUMPY_PROBE))
    assert code == 0
    seen = json.loads(out)
    assert [s[:2] for s in seen] == [[0, False]] * len(calls)
    # neither is loaded by any command, flat-ball, taut, diagram, report and
    # classify-qi among them
    assert [s[3] for s in seen] == [[]] * len(calls)
    assert [s[2] for s in seen[7:9]] == ["taut\n", "not taut\n"]
    assert json.loads(seen[9][2])["core_size"] == 1
    code, out = fresh_process([], entry=("-c", "import sys, raagqi.diagrams; print('numpy' in sys.modules)"))
    assert (code, out) == (0, "False\n")


NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import raagqi
from raagqi.cli import main
seen = [raagqi.build_ball is raagqi.flatspace.build_ball]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seen.append([main(argv), out.getvalue()])
print(json.dumps(seen))
"""


def test_ball_commands_run_where_numpy_cannot_be_imported(pentagon_file):
    calls = [["flat-ball", pentagon_file, "--radius", "4", "--dot"], ["report", pentagon_file]]
    code, out = fresh_process([json.dumps(calls)], entry=("-c", NO_NUMPY))
    assert code == 0
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    assert json.loads(out) == [
        True,
        [0, (golden / "flat_ball_pentagon_4.out").read_text(encoding="utf-8")],
        [0, (golden / "report_pentagon.out").read_text(encoding="utf-8")],
    ]
