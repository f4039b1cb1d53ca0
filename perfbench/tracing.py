"""Per-layer spans for the traced benchmark run.

``install`` wraps public functions and methods of the raagqi layers (and
every other raagqi module's binding of the same function object) in timing
spans.  Spans carry a name, start, end and parent; they are aggregated in
memory, per (name, parent), and written out once at the end.  A span's self
time is its duration minus the time its child spans cover; a metric such as
``flatspace.build_ball_s`` sums the durations of the outermost spans of its
group, so a nested call of the same group is not counted twice.

Run as a script it is a traced stand-in for the ``raagqi`` command::

    PYTHONPATH=src python3 perfbench/tracing.py --out trace.json -- taut g.json --cycle a,b,c,d,e
"""

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "rigidity", "diagrams", "flatspace", "cycles", "graphs", "words")

# (module, attribute or Class.method, metric group or None); a group G is
# reported as G_s (seconds in its outermost spans) and G_calls
TARGETS = [
    ("cli", "main", None),
    ("rigidity", "run_report", "rigidity.run_report"),
    ("rigidity", "out_group", "rigidity.out_group"),
    ("rigidity", "classify_qi", "rigidity.classify_qi"),
    ("rigidity", "edges_to_isomorphism", None),
    ("rigidity", "report_json", None),
    ("diagrams", "build_diagram", "diagrams.build_diagram"),
    ("diagrams", "is_taut", "diagrams.cut_search"),
    ("diagrams", "find_icut", "diagrams.cut_search"),
    ("diagrams", "find_quasicut", "diagrams.cut_search"),
    ("diagrams", "lift_cycle", None),
    ("diagrams", "shell_report", None),
    ("diagrams", "verify_taut_diagram_lemma", None),
    ("flatspace", "build_ball", "flatspace.build_ball"),
    ("flatspace", "FlatBall.hyperplanes", "flatspace.hyperplanes"),
    ("flatspace", "verify_ball_structure", "flatspace.verify"),
    ("flatspace", "classify_turn", None),
    ("flatspace", "coarse_length", None),
    ("flatspace", "coarse_distance", None),
    ("flatspace", "same_parallel_set", None),
    ("flatspace", "parallel_set_slice", None),
    ("cycles", "tight_cycles", "cycles.tight_cycles"),
    ("cycles", "whitehead_graph", "cycles.whitehead"),
    ("cycles", "check_whitehead_lemma", "cycles.whitehead"),
    ("cycles", "enumerate_cycles", None),
    ("cycles", "is_tight", None),
    ("cycles", "find_shortcut", None),
    ("graphs", "check_atomic", "graphs.check_atomic"),
    ("graphs", "isomorphism", "graphs.isomorphism"),
    ("graphs", "count_isomorphisms", "graphs.automorphism"),
    ("graphs", "automorphism_group_order", "graphs.automorphism"),
    ("graphs", "girth", None),
    ("graphs", "cut_vertices", None),
    ("graphs", "is_connected", None),
    ("graphs", "double_along_closed_star", None),
    ("graphs", "glue_k_copies_along_star", None),
    ("words", "WordContext.nf", "words.nf"),
    ("words", "WordContext.strip", "words.strip"),
    ("words", "in_subgroup_product", "words.product"),
    ("words", "subgroup_product_factors", "words.product"),
    ("words", "normal_form", None),
    ("words", "coset_key", None),
    ("words", "syllable_ball", None),
    ("words", "cayley_ball", None),
    ("words", "in_special_subgroup", None),
    ("words", "context_for", None),
]

# the per-layer metrics of one traced run, with their units
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "rigidity.run_report_s": "s",
    "rigidity.out_group_s": "s",
    "rigidity.classify_qi_s": "s",
    "rigidity.self_s": "s",
    "diagrams.build_diagram_s": "s",
    "diagrams.cut_search_s": "s",
    "diagrams.self_s": "s",
    "flatspace.build_ball_s": "s",
    "flatspace.hyperplanes_s": "s",
    "flatspace.verify_s": "s",
    "flatspace.cells": "count",
    "flatspace.self_s": "s",
    "cycles.tight_cycles_s": "s",
    "cycles.whitehead_s": "s",
    "cycles.self_s": "s",
    "graphs.check_atomic_s": "s",
    "graphs.isomorphism_s": "s",
    "graphs.automorphism_s": "s",
    "graphs.self_s": "s",
    "words.nf_calls": "count",
    "words.nf_distinct": "count",
    "words.nf_s": "s",
    "words.strip_calls": "count",
    "words.strip_s": "s",
    "words.product_calls": "count",
    "words.product_s": "s",
    "words.self_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER = list(PER_LAYER_UNITS)


def import_raagqi():
    """Import every raagqi layer; returns the seconds it took."""
    t0 = time.perf_counter()
    for layer in LAYERS:
        importlib.import_module("raagqi." + layer)
    return time.perf_counter() - t0


class Tracer:
    """Spans of one process (or one graph_corpus round), aggregated as they close."""

    def __init__(self):
        self.stack = []  # frames: [span name, child seconds]
        self.open_groups = defaultdict(int)
        self.group_s = defaultdict(float)
        self.group_calls = defaultdict(int)
        self.layer_self_s = defaultdict(float)
        self.spans = {}  # (name, parent) -> [count, total s, self s]
        self.nf_inputs = set()
        self.cells = 0
        self._undo = []

    def _wrap(self, fn, name, layer, group):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if group:
                tracer.open_groups[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_s = dur - frame[1]
                tracer.layer_self_s[layer] += self_s
                rec = tracer.spans.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += self_s
                if group:
                    tracer.open_groups[group] -= 1
                    if not tracer.open_groups[group]:
                        tracer.group_s[group] += dur
                        tracer.group_calls[group] += 1
            if group == "words.nf":
                tracer.nf_inputs.add((id(args[0]), tuple(args[1])))
            elif group == "flatspace.build_ball":
                tracer.cells += result.nvertices
            return result

        return span

    def install(self):
        """Wrap every target, in its own module and wherever another raagqi
        module bound the same function object."""
        modules = [m for k, m in sys.modules.items() if k == "raagqi" or k.startswith("raagqi.")]
        for layer, attr, group in TARGETS:
            mod = sys.modules["raagqi." + layer]
            name = "%s.%s" % (layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, layer, group))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, layer, group)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def summary(self):
        metrics = {"words.nf_distinct": len(self.nf_inputs), "flatspace.cells": self.cells}
        for group, v in self.group_s.items():
            metrics[group + "_s"] = v
            metrics[group + "_calls"] = self.group_calls[group]
        for layer, v in self.layer_self_s.items():
            metrics[layer + ".self_s"] = v
        return {
            "metrics": metrics,
            "spans": [
                {"name": name, "parent": parent, "count": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
            ],
        }


def layer_metrics(summaries, passes, import_s):
    """Per-pass per-layer metrics from the summaries of one or more traced
    processes; ``import_s`` lists their import times."""
    total = defaultdict(float)
    for s in summaries:
        for name, v in s["metrics"].items():
            total[name] += v
    out = {name: total[name] / passes for name in PER_LAYER}
    out["cli.import_s"] = statistics.median(import_s)
    return out


def main(argv):
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: tracing.py --out FILE -- <raagqi arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[1], argv[3:]
    import_s = import_raagqi()
    tracer = Tracer()
    tracer.install()
    try:
        rc = sys.modules["raagqi.cli"].main(cli_args)
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
