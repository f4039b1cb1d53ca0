"""End-to-end and per-layer benchmark of raagqi.

    python3 perfbench/run.py --workload cycle_cells --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; raagqi is imported from ``src/``.
The run first times the set-up (import raagqi and generate the inputs from
the seed) in several fresh processes, then runs as many whole passes over
the workload's operations as end within ``--seconds``, checks every output
against references computed apart from raagqi (``reference.py``), and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
op_p50_s, peak_rss_mb).  With ``--trace 1`` every operation is run twice,
plain and under the tracer of ``tracing.py``, and the metrics are the
per-layer ones plus ``trace.overhead_s``.  See README.md for the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# one interpreter start varies by a tenth or more, so set-up is the median of
# several fresh processes
SETUP_RUNS = 9
# a guard against a hung operation; no operation comes near it
OP_KILL_S = 150.0


class Proc:
    def __init__(self, rc, t, out, err, rss_mb):
        self.rc, self.t, self.out, self.err, self.rss_mb = rc, t, out, err, rss_mb


def spawn(cmd, env, err_path, kill_after=OP_KILL_S):
    """Run a child to completion; returns its exit code, wall time, output
    and peak resident set size."""
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(kill_after, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            p.stdout.close()
            if p.returncode is None:
                p.kill()
                p.wait()
    t = time.perf_counter() - t0
    with open(err_path) as fh:
        err_text = fh.read()
    return Proc(p.returncode, t, out.decode(), err_text, usage.ru_maxrss / 1024.0)


def time_setup(workload, seed, wdir, env):
    times = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--out", wdir]
        proc = spawn(cmd, env, os.path.join(wdir, "setup.err"))
        if proc.rc != 0:
            raise SystemExit("set-up failed (exit %s): %s" % (proc.rc, proc.err.strip()))
        times.append(proc.t)
    return statistics.median(times)


class Checker:
    """Output checks of one run, with the reference facts computed once per
    graph.  Collects failed operations and check failures."""

    def __init__(self, graphs):
        self.graphs = graphs
        self._facts = {}
        self._cones = {}
        self._iso = {}
        self.failed = 0
        self.attempted = 0
        self.errors = []

    def facts(self, gid):
        if gid not in self._facts:
            self._facts[gid] = reference.GraphFacts(self.graphs[gid], gid)
        return self._facts[gid]

    def cones(self, gid, radius):
        key = (gid, radius)
        if key not in self._cones:
            self._cones[key] = reference.syllable_ball_size(self.graphs[gid], (radius - 2) // 2)
        return self._cones[key]

    def isomorphic(self, a, b):
        if a == b:
            return True
        if (a, b) not in self._iso:
            self._iso[(a, b)] = reference.nx.is_isomorphic(self.facts(a).G, self.facts(b).G)
        return self._iso[(a, b)]

    def op(self, op, rc, out, err, timed_out, check):
        """Count one attempted operation; ``check(obj)`` checks its output."""
        self.attempted += 1
        try:
            if rc != 0 or timed_out:
                self.failed += 1
                reference.check_fault(op["fault"], rc, err, timed_out)
            else:
                check(json.loads(out))
        except reference.CheckFailed as exc:
            self.errors.append("%s: %s" % (op["name"], exc))
        except (ValueError, KeyError, TypeError) as exc:
            self.errors.append("%s: malformed output: %r" % (op["name"], exc))


def cli_check(checker, op):
    argv = op["argv"]
    gid = next(a["graph"] for a in argv if isinstance(a, dict))
    if op["check"] == "ball":
        return lambda o: reference.check_ball(o, checker.graphs[gid], op["radius"], checker.cones(gid, op["radius"]))
    cycle = argv[argv.index("--cycle") + 1].split(",")
    fn = reference.check_taut if op["check"] == "taut" else reference.check_diagram
    return lambda o: fn(o, checker.facts(gid), cycle)


def run_cli_op(op, k, wdir, traced, env):
    argv = [a if isinstance(a, str) else os.path.join(wdir, "graphs", a["graph"] + ".json") for a in op["argv"]]
    argv.append("--json")
    name = "op-%d%s" % (k, "-traced" if traced else "")
    if traced:
        trace_path = os.path.join(wdir, name + ".trace.json")
        cmd = [sys.executable, os.path.join(HERE, "tracing.py"), "--out", trace_path, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "raagqi.cli", *argv]
    proc = spawn(cmd, env, os.path.join(wdir, name + ".err"))
    if traced:
        with open(trace_path) as fh:
            proc.trace = json.load(fh)
    return proc


def another_pass_fits(start, pass_times, seconds):
    """True if one more pass, as long as the longest so far, ends within
    ``seconds`` of ``start``: a run holds whole passes and ends on time."""
    return time.perf_counter() - start + max(pass_times) <= seconds


def run_cli_workload(ops, wdir, seconds, trace, env):
    """Whole passes over the CLI operations, one fresh process each, one
    after another, as a user would send them.  Returns (procs, traced procs
    or None) per pass.  With ``trace`` each operation's traced run follows
    its plain run, so that the two meet the same machine load and their
    difference is the tracing overhead."""
    passes, pass_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain, traced = [], []
        for k, op in enumerate(ops):
            plain.append(run_cli_op(op, k, wdir, False, env))
            if trace:
                traced.append(run_cli_op(op, k, wdir, True, env))
        passes.append((plain, traced if trace else None))
        pass_times.append(time.perf_counter() - t0)
        if not another_pass_fits(start, pass_times, seconds):
            return passes


def check_cli_passes(graphs, ops, passes):
    checker = Checker(graphs)
    for plain, traced in passes:
        for procs in (plain, traced or ()):
            for op, proc in zip(ops, procs):
                checker.op(op, proc.rc, proc.out, proc.err, False, cli_check(checker, op))
    return checker


def run_session(wdir, seed, seconds, trace, env):
    results = os.path.join(wdir, "session.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--inputs", wdir, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--results", results]
    proc = spawn(cmd, env, os.path.join(wdir, "session.err"), kill_after=seconds + OP_KILL_S)
    if proc.rc != 0:
        raise SystemExit("graph_corpus session failed (exit %s): %s" % (proc.rc, proc.err.strip()[-2000:]))
    with open(results) as fh:
        lines = [json.loads(line) for line in fh]
    return lines[0]["import_s"], lines[1:]


def check_session(graphs, ops, seed, rounds):
    checker = Checker(graphs)
    for rnd in rounds:
        names = workloads.round_graphs(graphs, ops, seed, rnd["index"])
        for op, res in zip(ops, rnd["ops"]):
            checker.op(op, res["rc"], res["out"], res["err"], res["timed_out"], session_check(checker, op, names))
    return checker


def session_check(checker, op, names):
    tokens = [a for a in op["argv"] if isinstance(a, dict) and "graph" in a]
    gid = tokens[0]["graph"]
    graph, back = names[(gid, tokens[0]["copy"])]
    kind = op["check"]
    if kind == "atomic":
        return lambda o: reference.check_atomic(o, checker.facts(gid), back)
    if kind == "tight":
        return lambda o: reference.check_tight(o, checker.facts(gid), op["max_len"], back)
    if kind == "whitehead":
        vertex = next(a["vertex"][1] for a in op["argv"] if isinstance(a, dict) and "vertex" in a)
        return lambda o: reference.check_whitehead(o, checker.facts(gid), vertex, back)
    if kind == "out_group":
        return lambda o: reference.check_out_group(o, checker.facts(gid))
    if kind == "report":
        return lambda o: reference.check_report(o, checker.facts(gid), checker.cones(gid, 4), back)
    other = tokens[1]["graph"]
    graph2 = names[(other, tokens[1]["copy"])][0]
    return lambda o: reference.check_classify(
        o, graph, graph2, checker.facts(gid), checker.facts(other), checker.isomorphic(gid, other))


def end_to_end(setup_s, plain, peak_rss_mb):
    """``plain`` holds, per untraced pass, (seconds, succeeded) per
    operation.  ``wall_s`` is one pass with every operation at its median
    time over the run's passes, so a spike in one pass moves it little."""
    op_medians = [statistics.median(ts[k][0] for ts in plain) for k in range(len(plain[0]))]
    op_times = [t for ts in plain for t, ok in ts if ok]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(op_medians), "unit": "s"},
        "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(summaries, import_s, overheads):
    """``overheads`` holds, per traced pass, its operations' time minus that
    of the same operations untraced."""
    values = tracing.layer_metrics(summaries, len(overheads), import_s)
    values["trace.overhead_s"] = statistics.median(overheads)
    return {name: {"value": values[name], "unit": tracing.PER_LAYER_UNITS[name]} for name in tracing.PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "raagqi", "cli.py")):
        print("raagqi sources not found under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    wdir = os.path.join(OUT, args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    setup_s = time_setup(args.workload, args.seed, wdir, env)
    graphs, ops = workloads.load_inputs(wdir)

    if args.workload == "graph_corpus":
        import_s, rounds = run_session(wdir, args.seed, args.seconds, args.trace, env)
        checker = check_session(graphs, ops, args.seed, rounds)
        plain = [[(o["t"], o["rc"] == 0 and not o["timed_out"]) for o in r["ops"]] for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        summaries, import_times = [r["trace"] for r in traced], [import_s]
        # rounds alternate plain, traced
        overheads = [sum(o["t"] for o in r["ops"]) - sum(t for t, _ in ts) for r, ts in zip(traced, plain)]
        # the module caches keep every round's relabelled graphs, so the
        # process grows with the number of rounds; one round is the pass
        peak_rss_mb = rounds[0]["maxrss_kb"] / 1024.0
    else:
        passes = run_cli_workload(ops, wdir, args.seconds, args.trace, env)
        checker = check_cli_passes(graphs, ops, passes)
        plain = [[(p.t, p.rc == 0) for p in procs] for procs, _ in passes]
        summaries = [p.trace for _, traced in passes if traced for p in traced]
        import_times = [s["import_s"] for s in summaries]
        overheads = [sum(p.t for p in traced) - sum(p.t for p in procs) for procs, traced in passes if traced]
        peak_rss_mb = max(p.rss_mb for procs, _ in passes for p in procs)

    for k, op in enumerate(ops):
        median = statistics.median(ts[k][0] for ts in plain)
        print("op %-36s median %.3f s" % (op["name"], median), file=sys.stderr)
    if args.trace:
        metrics = per_layer(summaries, import_times, overheads)
    else:
        metrics = end_to_end(setup_s, plain, peak_rss_mb)

    for msg in checker.errors[:20]:
        print("check failed: " + msg, file=sys.stderr)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
