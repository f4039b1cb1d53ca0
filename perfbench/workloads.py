"""Inputs of the three benchmark workloads, generated from a seed.

Run as a script, this module is the benchmark's set-up step: it imports
raagqi once, builds every graph of one workload and writes the graphs and
the operation list into a directory::

    PYTHONPATH=src python3 perfbench/workloads.py --workload cycle_cells --seed 1 --out DIR

An operation is a dict ``{"name", "argv", "check", "fault"}``, plus what its
check or runner needs (``max_len``, ``radius``, ``limit_s``).  ``argv`` is a
raagqi CLI argument list whose graph arguments are ``{"graph": gid, "copy":
k}`` (see ``round_graphs``) and whose vertex arguments are ``{"vertex": [gid,
name]}``.  ``check`` names the output check in ``reference.py``; ``fault``
names the known program fault the operation hits (F1, F3) or is None.
"""

import argparse
import json
import os
import random
import sys

import tracing

WORKLOADS = ("cycle_cells", "ball_build", "graph_corpus")

# F3: out-group on Hoffman-Singleton enumerates 252000 automorphisms one by
# one; the operation runs under this limit and counts it in full.
F3_LIMIT_S = 1.0


# ---------------------------------------------------------------------------
# graphs, as {"vertices": [...], "edges": [[a, b], ...]}
# ---------------------------------------------------------------------------

def graph_dict(vertices, edges):
    return {"vertices": [str(v) for v in vertices], "edges": [[str(a), str(b)] for a, b in edges]}


def from_raagqi(g):
    return graph_dict(g.vertices, g.edges)


def petersen():
    outer = ["u%d" % j for j in range(5)]
    inner = ["w%d" % j for j in range(5)]
    edges = []
    for j in range(5):
        edges += [(outer[j], outer[(j + 1) % 5]), (outer[j], inner[j]), (inner[j], inner[(j + 2) % 5])]
    return graph_dict(outer + inner, edges)


def heawood():
    """Incidence graph of the Fano plane: point p_i lies on lines l_i, l_{i-1}, l_{i-3}."""
    edges = [("p%d" % ((i + d) % 7), "l%d" % i) for i in range(7) for d in (0, 1, 3)]
    return graph_dict(["p%d" % i for i in range(7)] + ["l%d" % i for i in range(7)], edges)


def tutte_coxeter():
    """LCF notation [-13, -9, 7, -7, 9, 13]^5."""
    lcf = [-13, -9, 7, -7, 9, 13]
    edges = set()
    for i in range(30):
        for j in ((i + 1) % 30, (i + lcf[i % 6]) % 30):
            edges.add((min(i, j), max(i, j)))
    return graph_dict(["t%d" % i for i in range(30)], [("t%d" % a, "t%d" % b) for a, b in sorted(edges)])


def hoffman_singleton():
    """Pentagons P_h and pentagrams Q_i, with P_h[j] adjacent to Q_i[h*i+j mod 5]."""
    vertices, edges = [], []
    for h in range(5):
        for j in range(5):
            vertices += ["P%d_%d" % (h, j), "Q%d_%d" % (h, j)]
            edges.append(("P%d_%d" % (h, j), "P%d_%d" % (h, (j + 1) % 5)))
            edges.append(("Q%d_%d" % (h, j), "Q%d_%d" % (h, (j + 2) % 5)))
            for i in range(5):
                edges.append(("P%d_%d" % (h, j), "Q%d_%d" % (i, (h * i + j) % 5)))
    return graph_dict(vertices, edges)


def _far_apart(adj, a, b, radius):
    """True iff b is more than ``radius`` steps from a."""
    seen, frontier = {a}, [a]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return b not in seen


def random_girth5(rng, n, chords):
    """A Hamiltonian n-cycle plus ``chords`` random chords, each joining
    vertices at distance >= 4, so the girth stays >= 5.  Whether the graph
    is atomic depends on the draw."""
    while True:
        adj = {i: {(i - 1) % n, (i + 1) % n} for i in range(n)}
        added = 0
        for _ in range(100 * chords):
            a, b = rng.sample(range(n), 2)
            if _far_apart(adj, a, b, 3):
                adj[a].add(b)
                adj[b].add(a)
                added += 1
                if added == chords:
                    names = ["r%02d" % k for k in rng.sample(range(n), n)]
                    edges = [(names[a], names[b]) for a in adj for b in adj[a] if a < b]
                    return graph_dict(names, edges)


def adjacency(graph):
    adj = {v: set() for v in graph["vertices"]}
    for a, b in graph["edges"]:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def closed_star_separates(graph):
    """True iff removing some closed vertex star leaves a nonempty,
    disconnected graph (the last atomicity condition)."""
    adj = adjacency(graph)
    for v in adj:
        rest = set(adj) - adj[v] - {v}
        if not rest:
            continue
        start = next(iter(rest))
        seen, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()] & rest:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != rest:
            return True
    return False


def relabel(graph, rng, prefix):
    """A copy of ``graph`` under a random renaming; returns (graph, new->old)."""
    old = list(graph["vertices"])
    new = ["%s%d" % (prefix, k) for k in rng.sample(range(len(old)), len(old))]
    fwd = dict(zip(old, new))
    out = graph_dict(new, [(fwd[a], fwd[b]) for a, b in graph["edges"]])
    return out, {v: k for k, v in fwd.items()}


def cycles_up_to(graph, max_len):
    """Embedded cycles of length <= max_len, each once, as vertex lists."""
    order = {v: i for i, v in enumerate(graph["vertices"])}
    adj = adjacency(graph)
    out = []

    def extend(path, on_path):
        head = path[-1]
        for u in adj[head]:
            if u == path[0] and len(path) >= 3 and order[path[1]] < order[path[-1]]:
                out.append(list(path))
            elif u not in on_path and order[u] > order[path[0]] and len(path) < max_len:
                on_path.add(u)
                path.append(u)
                extend(path, on_path)
                path.pop()
                on_path.discard(u)

    for v in graph["vertices"]:
        extend([v], {v})
    return out


def is_tight(adj, cycle):
    """No 1-shortcut (a chord) and no 2-shortcut (a 2-path joining cycle
    vertices more than 2 apart along it); ``adj`` maps a vertex to its
    neighbours."""
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}

    def along(a, b):
        d = abs(pos[a] - pos[b])
        return min(d, n - d)

    for a in cycle:
        for b in adj[a]:
            if b in pos and along(a, b) > 1:
                return False
            for c in adj[b]:
                if c != a and c in pos and along(a, c) > 2:
                    return False
    return True


def _shuffled_cycle(rng, cycle):
    k = rng.randrange(len(cycle))
    c = cycle[k:] + cycle[:k]
    return c[::-1] if rng.random() < 0.5 else c


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Graph copies 0 and 1 get fresh random names in every graph_corpus round;
# copy ORIGINAL keeps the generated names.  Operations whose cost depends on
# the vertex order but not on earlier rounds (out-group, the fault inputs)
# use ORIGINAL, so their cost does not move from round to round.
ORIGINAL = 2


def G(gid, copy=0):
    return {"graph": gid, "copy": copy}


def V(gid, name):
    return {"vertex": [gid, name]}


def op(name, argv, check, fault=None, **extra):
    return dict(name=name, argv=argv, check=check, fault=fault, **extra)


def cycle_cells(seed):
    """`taut` and `diagram` on lifted cycles at the default radius.  The
    doubled-dodecahedron face is fixed.  The dodecahedron contributes five
    operations on cycles of fixed kinds and lengths, so the median operation
    is a dodecahedron one and its cost does not depend on the seed; which
    cycles, their rotation and their direction come from the seed."""
    from raagqi import graphs

    rng = random.Random(seed)
    graphs_ = {
        "pentagon": from_raagqi(graphs.pentagon()),
        "dodecahedron": from_raagqi(graphs.dodecahedron()),
        "dd": from_raagqi(graphs.dodecahedron_double()),
    }
    cycles = cycles_up_to(graphs_["dodecahedron"], 10)
    adj = adjacency(graphs_["dodecahedron"])
    faces = [c for c in cycles if len(c) == 5]
    tight10 = [c for c in cycles if len(c) == 10 and is_tight(adj, c)]
    loose = {n: [c for c in cycles if len(c) == n and not is_tight(adj, c)] for n in (8, 9)}
    pent = graphs_["pentagon"]["vertices"]

    def cycle_op(command, gid, choices):
        c = _shuffled_cycle(rng, rng.choice(choices))
        return op("%s:%s" % (command, gid), [command, G(gid), "--cycle", ",".join(c)], command)

    ops = [
        op("taut:dd", ["taut", G("dd"), "--cycle", "i0,i2,i4,i6,i8"], "taut"),
        cycle_op("taut", "dodecahedron", faces),
        cycle_op("taut", "dodecahedron", tight10),
        cycle_op("taut", "dodecahedron", loose[8]),
        cycle_op("diagram", "dodecahedron", faces),
        cycle_op("diagram", "dodecahedron", loose[9]),
        cycle_op("taut", "pentagon", [pent]),
        cycle_op("diagram", "pentagon", [pent]),
    ]
    return graphs_, ops


def ball_build(seed):
    """`flat-ball` on a shallow, a deep and a wide ball; the vertex names
    come from the seed, the ball sizes do not depend on them.  Each
    operation takes 4-7 s, so a run holds several passes and every figure
    is a median over them."""
    from raagqi import graphs

    rng = random.Random(seed)
    base = {
        "hoffman_singleton": hoffman_singleton(),
        "pentagon": from_raagqi(graphs.pentagon()),
        "dodecahedron": from_raagqi(graphs.dodecahedron()),
    }
    graphs_ = {gid: relabel(g, rng, "x")[0] for gid, g in base.items()}
    ops = [
        op("flat-ball:hoffman_singleton:4", ["flat-ball", G("hoffman_singleton"), "--radius", "4"], "ball", radius=4),
        op("flat-ball:pentagon:8", ["flat-ball", G("pentagon"), "--radius", "8"], "ball", radius=8),
        op("flat-ball:dodecahedron:6", ["flat-ball", G("dodecahedron"), "--radius", "6"], "ball", radius=6),
    ]
    return graphs_, ops


# The random corpus has a fixed atomic/non-atomic split, since `report`
# does more work on atomic graphs and the split would otherwise move the
# round time from seed to seed.
CORPUS_ATOMIC = 7
CORPUS_NON_ATOMIC = 3
CORPUS_VERTICES = 16
CORPUS_CHORDS = 6


def graph_corpus(seed):
    """Named atomic graphs, two non-atomic constructions, a seeded random
    corpus, and the F1/F3 inputs, sent through ``raagqi.cli.main`` in one
    process.  Every round relabels the graphs (see ``round_graphs``), so no
    round answers from an earlier round's cache."""
    from raagqi import graphs

    rng = random.Random(seed)
    named = {
        "pentagon": from_raagqi(graphs.pentagon()),
        "petersen": petersen(),
        "dodecahedron": from_raagqi(graphs.dodecahedron()),
        "dd": from_raagqi(graphs.dodecahedron_double()),
        "heawood": heawood(),
        "tutte_coxeter": tutte_coxeter(),
        "hoffman_singleton": hoffman_singleton(),
    }
    graphs_ = dict(named)
    pv = rng.choice(graphs.pentagon().vertices)
    dv = rng.choice(graphs.dodecahedron().vertices)
    graphs_["double"] = from_raagqi(graphs.double_along_closed_star(graphs.pentagon(), pv))
    graphs_["glue3"] = from_raagqi(graphs.glue_k_copies_along_star(graphs.dodecahedron(), dv, 3))
    want = {True: CORPUS_ATOMIC, False: CORPUS_NON_ATOMIC}
    corpus = []
    while any(want.values()):
        g = random_girth5(rng, CORPUS_VERTICES, CORPUS_CHORDS)
        atomic = not closed_star_separates(g)
        if want[atomic]:
            want[atomic] -= 1
            gid = "random%d" % len(corpus)
            corpus.append(gid)
            graphs_[gid] = g
    graphs_["c70"] = from_raagqi(graphs.cycle_graph(70))

    def vertex(gid):
        return V(gid, rng.choice(graphs_[gid]["vertices"]))

    ops = []
    for gid in named:
        ops.append(op("check-atomic:" + gid, ["check-atomic", G(gid)], "atomic"))
    for gid in named:
        cap = 5 if gid == "hoffman_singleton" else 10
        ops.append(op("tight-cycles:" + gid, ["tight-cycles", G(gid), "--max-len", str(cap)], "tight", max_len=cap))
    for gid in named:
        ops.append(op("whitehead:" + gid, ["whitehead", G(gid), "--vertex", vertex(gid)], "whitehead"))
    for gid in named:
        if gid != "hoffman_singleton":
            ops.append(op("out-group:" + gid, ["out-group", G(gid, ORIGINAL)], "out_group"))
    for gid in ("petersen", "dodecahedron", "dd", "heawood", "tutte_coxeter", "hoffman_singleton"):
        ops.append(op("classify-qi:%s~copy" % gid, ["classify-qi", G(gid), G(gid, 1)], "classify"))
    for a, b in (("petersen", "dodecahedron"), ("dodecahedron", "dd")):
        ops.append(op("classify-qi:%s~%s" % (a, b), ["classify-qi", G(a), G(b)], "classify"))
    for gid in ("pentagon", "petersen", "dodecahedron", "heawood"):
        ops.append(op("report:" + gid, ["report", G(gid), "--max-len", "10"], "report"))
    for gid, base in (("double", "pentagon"), ("glue3", "dodecahedron")):
        ops.append(op("check-atomic:" + gid, ["check-atomic", G(gid)], "atomic"))
        ops.append(op("tight-cycles:" + gid, ["tight-cycles", G(gid), "--max-len", "10"], "tight", max_len=10))
        ops.append(op("whitehead:" + gid, ["whitehead", G(gid), "--vertex", vertex(gid)], "whitehead"))
        ops.append(op("classify-qi:%s~%s" % (gid, base), ["classify-qi", G(gid), G(base)], "classify"))
        ops.append(op("report:" + gid, ["report", G(gid), "--max-len", "10"], "report"))
    for k, gid in enumerate(corpus):
        other = corpus[(k + 1) % len(corpus)]
        ops.append(op("check-atomic:" + gid, ["check-atomic", G(gid)], "atomic"))
        ops.append(op("tight-cycles:" + gid, ["tight-cycles", G(gid)], "tight", max_len=None))
        ops.append(op("whitehead:" + gid, ["whitehead", G(gid), "--vertex", vertex(gid)], "whitehead"))
        ops.append(op("classify-qi:%s~copy" % gid, ["classify-qi", G(gid), G(gid, 1)], "classify"))
        ops.append(op("classify-qi:%s~%s" % (gid, other), ["classify-qi", G(gid), G(other)], "classify"))
        ops.append(op("report:" + gid, ["report", G(gid), "--max-len", "10"], "report"))
    ops.append(op("tight-cycles:c70", ["tight-cycles", G("c70", ORIGINAL)], "tight", fault="F1", max_len=None))
    ops.append(op("out-group:hoffman_singleton", ["out-group", G("hoffman_singleton", ORIGINAL)], "out_group",
                  fault="F3", limit_s=F3_LIMIT_S))
    return graphs_, ops


def round_graphs(graphs, ops, seed, index):
    """The graphs of round ``index`` of a graph_corpus run: every (graph,
    copy) the operations name, under a renaming drawn for this round (copy
    ORIGINAL keeps its names).  Maps (gid, copy) to (graph, new->old)."""
    rng = random.Random("%d/%d" % (seed, index))
    used = sorted({(a["graph"], a["copy"]) for o in ops for a in o["argv"] if isinstance(a, dict) and "graph" in a})
    out = {}
    for gid, copy in used:
        g = graphs[gid]
        if copy == ORIGINAL:
            out[(gid, copy)] = (g, {v: v for v in g["vertices"]})
        else:
            out[(gid, copy)] = relabel(g, rng, "nm"[copy])
    return out


GENERATORS = {"cycle_cells": cycle_cells, "ball_build": ball_build, "graph_corpus": graph_corpus}


def write_inputs(workload, seed, out):
    graphs_, ops = GENERATORS[workload](seed)
    os.makedirs(os.path.join(out, "graphs"), exist_ok=True)
    for gid, g in graphs_.items():
        with open(os.path.join(out, "graphs", gid + ".json"), "w") as fh:
            json.dump(g, fh)
    with open(os.path.join(out, "ops.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh)


def load_inputs(out):
    with open(os.path.join(out, "ops.json")) as fh:
        spec = json.load(fh)
    graphs_ = {}
    for name in os.listdir(os.path.join(out, "graphs")):
        with open(os.path.join(out, "graphs", name)) as fh:
            graphs_[name[: -len(".json")]] = json.load(fh)
    return graphs_, spec["ops"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    # importing every layer once is part of set-up, as for a user's session
    tracing.import_raagqi()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
