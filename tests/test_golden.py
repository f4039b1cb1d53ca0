"""CLI outputs pinned byte for byte.

The files in ``golden/`` hold the stdout of each case below.  They were
written once and the tests never rewrite them, so a change that moves a cut
witness (``shared_generators``, ``via_edge``, ``via_path``,
``interior_flats``), a diagram, a report or a flat-space ball shows up
here.
"""

import contextlib
import io
import pathlib

import pytest

import raagqi as rq
from raagqi.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

GRAPHS = {
    "pentagon": rq.pentagon,
    "dodecahedron": rq.dodecahedron,
    "dd": rq.dodecahedron_double,
    "pentagon_double": lambda: rq.double_along_closed_star(rq.pentagon(), "a"),
}

# name -> (graph, command, arguments after the graph file)
CASES = {
    "taut_pentagon": ("pentagon", "taut", ["--cycle", "a,b,c,d,e", "--json"]),
    # non-tight lifts whose 2-shortcuts surface as 2-cuts
    "taut_dodecahedron_8": ("dodecahedron", "taut", ["--cycle", "i3,i1,i9,i7,o7,o6,o5,i5", "--json"]),
    "taut_dodecahedron_9": ("dodecahedron", "taut", ["--cycle", "o6,o7,i7,i9,o9,o0,i0,i8,i6", "--json"]),
    # one arc in each copy; the 2-shortcut i0 - i2 - i4 surfaces as a quasi-cut
    "taut_dd_9": ("dd", "taut", ["--cycle", "i0,i8,i6,i4,o4#1,o3#1,o2#1,o1#1,o0#1", "--json"]),
    "diagram_dodecahedron_face": ("dodecahedron", "diagram", ["--cycle", "o4,i4,i6,o6,o5", "--json"]),
    "report_pentagon": ("pentagon", "report", []),
    "report_pentagon_double": ("pentagon_double", "report", []),
    "flat_ball_pentagon_4": ("pentagon", "flat-ball", ["--radius", "4", "--dot"]),
    "flat_ball_dodecahedron_4": ("dodecahedron", "flat-ball", ["--radius", "4", "--json"]),
}


def cli_output(name, tmp_dir):
    """Exit code and stdout of one case, run in process."""
    graph, command, args = CASES[name]
    path = pathlib.Path(tmp_dir) / (graph + ".json")
    path.write_text(GRAPHS[graph]().to_json())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path)] + args)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, out = cli_output(name, tmp_path)
    assert code == 0
    assert out == (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
