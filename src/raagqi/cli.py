"""Command-line interface.

Exit codes: 0 computed, 1 input error, 2 precondition/out-of-scope,
3 internal invariant violation.
"""

import argparse
import functools
import json
import sys

from .graphs import DefiningGraph, GraphError, is_connected


class InputError(Exception):
    pass


def _load_graph(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return DefiningGraph.from_json(text)
    except GraphError as exc:
        raise InputError(str(exc)) from exc


def _emit(args, obj, text=None):
    if getattr(args, "json", False) or text is None:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(text)


def _parse_cycle(graph, spec):
    names = [t for t in spec.replace(",", " ").split() if t]
    for v in names:
        if not graph.has_vertex(v):
            raise InputError("unknown cycle vertex %r" % (v,))
    return names


def cmd_check_atomic(args):
    from .graphs import check_atomic

    g = _load_graph(args.graph)
    rep = check_atomic(g)
    _emit(
        args,
        rep.to_json_obj(),
        "atomic" if rep.is_atomic else "not atomic (%d failures)" % len(rep.failures),
    )
    return 0


def cmd_tight_cycles(args):
    from .cycles import tight_cycles

    g = _load_graph(args.graph)
    cycles = tight_cycles(g, args.max_len)
    obj = {"count": len(cycles), "cycles": [list(c.vertices) for c in cycles]}
    _emit(args, obj, "\n".join("-".join(c.vertices) for c in cycles) or "(none)")
    return 0


def cmd_whitehead(args):
    from .cycles import whitehead_graph

    g = _load_graph(args.graph)
    if not g.has_vertex(args.vertex):
        raise InputError("unknown vertex %r" % (args.vertex,))
    wh = whitehead_graph(g, args.vertex, args.max_len)
    if args.dot:
        print(wh.to_dot(), end="")
        return 0
    connected = wh.is_connected()
    obj = {
        "vertex": wh.base,
        "link": list(wh.vertices),
        "edges": sorted([list(e) for e in wh.edges]),
        "connected": connected,
    }
    _emit(args, obj, "Wh(%s): %d link vertices, %d edges, %s" % (
        wh.base, len(wh.vertices), len(wh.edges),
        "connected" if connected else "disconnected"))
    return 0


def cmd_flat_ball(args):
    from .flatspace import build_ball, verify_ball_structure

    g = _load_graph(args.graph)
    ball = build_ball(g, args.radius)
    if args.dot:
        _print_ball_dot(ball)
        return 0
    st = ball.stats()
    st["link_conditions"] = verify_ball_structure(ball)
    _emit(args, st, None)
    return 0


def _print_ball_dot(ball):
    shapes = {"cone": "point", "singular": "circle", "flat": "box"}
    lines = ["graph flatball {"]
    for i in range(ball.nvertices):
        lines.append('  v%d [shape=%s, label="%s"];' % (i, shapes[ball.kind_of(i)], ball.key_of(i).label()))
    for k in range(ball.nedges):
        lines.append("  v%d -- v%d;" % (int(ball.edge_lo[k]), int(ball.edge_hi[k])))
    lines.append("}")
    print("\n".join(lines))


def _lifted_cycle(args):
    """The graph, the cycle and its lift through the identity fundamental
    domain, for ``taut`` and ``diagram``."""
    from .cycles import EmbeddedCycle
    from .diagrams import lift_cycle

    g = _load_graph(args.graph)
    gamma = EmbeddedCycle(g, _parse_cycle(g, args.cycle))
    if len(gamma) == 3:
        # three pairwise-crossing hyperplanes: no square complex holds them
        raise GraphError(
            "cycle %s is a triangle: the defining graph is the link of every cone, "
            "so the flat space is not CAT(0) there and the lift has no disk diagram"
            % ",".join(gamma.vertices)
        )
    if not is_connected(g):
        raise GraphError("a lifted-cycle diagram requires a connected graph")
    return g, gamma, lift_cycle(g, gamma)


def cmd_diagram(args):
    from .diagrams import build_diagram, shell_report

    _, _, cyc = _lifted_cycle(args)
    d = build_diagram(cyc)
    if args.dot:
        print(_diagram_dot(d), end="")
        return 0
    obj = d.to_json_obj()
    obj["shells"] = shell_report(d).to_json_obj()
    _emit(args, obj, None)
    return 0


def _diagram_dot(d):
    import math

    nb = 2 * len(d.cycle)
    lines = ["graph diagram {", "  node [shape=point];"]
    for k in range(nb):
        x = math.cos(2 * math.pi * k / nb)
        y = math.sin(2 * math.pi * k / nb)
        lines.append('  b%d [pos="%.4f,%.4f!"];' % (k, x, y))
    for i, (a, b, h) in enumerate(d.arcs):
        lines.append('  b%d -- b%d [label="h%d"];' % (a, b, h))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_taut(args):
    from .cycles import is_tight
    from .diagrams import build_diagram, find_cuts

    g, gamma, cyc = _lifted_cycle(args)
    # the cut searches are algebraic and need no ball; one pass finds the
    # first cut of each kind, and tautness (no 1-cut, 2-cut or quasi-cut)
    # is read off the results
    cuts = find_cuts(cyc)
    taut = all(c is None for c in cuts.values())
    obj = {
        "cycle": list(gamma.vertices),
        "tight_in_graph": is_tight(g, gamma),
        "taut_in_flat_space": taut,
        **cuts,
    }
    if taut:
        obj["core_single_cell"] = len(build_diagram(cyc).core) == 1
    _emit(args, obj, "taut" if taut else "not taut")
    return 0


def cmd_classify_qi(args):
    from .rigidity import classify_qi

    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    res = classify_qi(g1, g2)
    _emit(args, res.to_json_obj(), res.verdict)
    return 0


def cmd_out_group(args):
    from .rigidity import out_group

    g = _load_graph(args.graph)
    rep = out_group(g)
    _emit(args, rep.to_json_obj(), "|Out| = %d = 2^|V| * %d" % (rep.out_order, rep.aut_order))
    return 0


def cmd_construct(args):
    from .graphs import (
        dodecahedron_double,
        double_along_closed_star,
        glue_k_copies_along_star,
    )

    if args.kind == "dodeca-double":
        g = dodecahedron_double()
    else:
        if not args.graph or not args.vertex:
            raise InputError("construct %s requires --graph and --vertex" % args.kind)
        base = _load_graph(args.graph)
        if args.kind == "double":
            g = double_along_closed_star(base, args.vertex)
        else:
            g = glue_k_copies_along_star(base, args.vertex, args.k)
    if args.dot:
        print(g.to_dot(), end="")
    else:
        print(g.to_json())
    return 0


def cmd_normal_form(args):
    from .words import normal_form

    g = _load_graph(args.graph)
    x = normal_form(g, args.word)
    obj = {"word": x.word_str(), "length": len(x), "support": sorted(x.support())}
    _emit(args, obj, x.word_str())
    return 0


def cmd_report(args):
    from .rigidity import report_json, run_report

    g = _load_graph(args.graph)
    bundle = run_report(g, ball_radius=args.radius, max_cycle_len=args.max_len)
    sys.stdout.write(report_json(bundle))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call of ``main`` gets a fresh namespace."""
    ap = argparse.ArgumentParser(prog="raagqi", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="JSON output")
        return p

    p = add("check-atomic", cmd_check_atomic)
    p.add_argument("graph")

    p = add("tight-cycles", cmd_tight_cycles)
    p.add_argument("graph")
    p.add_argument("--max-len", type=int, default=None)

    p = add("whitehead", cmd_whitehead)
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--dot", action="store_true")

    p = add("flat-ball", cmd_flat_ball)
    p.add_argument("graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--dot", action="store_true")

    p = add("diagram", cmd_diagram)
    p.add_argument("graph")
    p.add_argument("--cycle", required=True, help="comma-separated vertex cycle")
    p.add_argument("--dot", action="store_true")

    p = add("taut", cmd_taut)
    p.add_argument("graph")
    p.add_argument("--cycle", required=True)

    p = add("classify-qi", cmd_classify_qi)
    p.add_argument("graph1")
    p.add_argument("graph2")

    p = add("out-group", cmd_out_group)
    p.add_argument("graph")

    p = add("construct", cmd_construct)
    p.add_argument("kind", choices=["double", "glue-k", "dodeca-double"])
    p.add_argument("--graph")
    p.add_argument("--vertex")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--dot", action="store_true")

    p = add("normal-form", cmd_normal_form)
    p.add_argument("graph")
    p.add_argument("--word", required=True)

    p = add("report", cmd_report)
    p.add_argument("graph")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--max-len", type=int, default=None)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1
    except GraphError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation: test-visible signal
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
