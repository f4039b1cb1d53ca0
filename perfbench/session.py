"""The graph_corpus workload: one long-lived process that sends every
operation through ``raagqi.cli.main`` in-process, in whole rounds, as many
as end within the run time.

Each round first writes freshly relabelled copies of the graphs (untimed;
see ``workloads.round_graphs``), then runs the operations in their fixed
order.  With ``--trace 1`` every round is a pair: one plain round, then one
under the tracer.  One JSON line per round is appended to ``--results``,
with the process's peak resident set size so far.

    PYTHONPATH=src python3 perfbench/session.py --inputs DIR --seed 1 --seconds 40 --trace 0 --results FILE
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import tracing
import workloads


class OpTimeout(BaseException):
    """Raised by the timer of an operation with a time limit.  It derives
    from BaseException so that the CLI's catch-all does not turn it into an
    exit code."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def resolve(argv, paths, names):
    """CLI arguments with graph tokens replaced by file paths and vertex
    tokens by the vertex's name in this round."""
    out = []
    for a in argv:
        if isinstance(a, str):
            out.append(a)
        elif "graph" in a:
            out.append(paths[(a["graph"], a["copy"])])
        else:
            gid, v = a["vertex"]
            out.append(names[(gid, 0)][v])
    return out


def run_op(cli_main, argv, limit_s):
    stdout, stderr = io.StringIO(), io.StringIO()
    timed_out = False
    rc = None
    t0 = time.perf_counter()
    if limit_s:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli_main(argv + ["--json"])
    except OpTimeout:
        timed_out = True
    finally:
        if limit_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
    t = time.perf_counter() - t0
    return {"rc": rc, "t": t, "timed_out": timed_out, "out": stdout.getvalue(), "err": stderr.getvalue()}


def run_round(graphs, ops, seed, index, workdir, traced):
    import raagqi.cli

    paths, names = {}, {}
    for (gid, copy), (g, back) in workloads.round_graphs(graphs, ops, seed, index).items():
        path = os.path.join(workdir, "%s.%d.json" % (gid, copy))
        with open(path, "w") as fh:
            json.dump(g, fh)
        paths[(gid, copy)] = path
        names[(gid, copy)] = {old: new for new, old in back.items()}
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    try:
        for op in ops:
            argv = resolve(op["argv"], paths, names)
            res = run_op(raagqi.cli.main, argv, op.get("limit_s"))
            res["name"] = op["name"]
            results.append(res)
            if tracer:
                tracer.stack.clear()  # a timed-out operation leaves its spans open
    finally:
        if tracer:
            tracer.uninstall()
    return {"index": index, "traced": traced, "ops": results, "trace": tracer.summary() if tracer else None,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", required=True)
    args = ap.parse_args()

    import_s = tracing.import_raagqi()
    graphs, ops = workloads.load_inputs(args.inputs)
    workdir = os.path.join(args.inputs, "round")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    index = 0
    longest = 0.0
    with open(args.results, "w") as fh:
        fh.write(json.dumps({"import_s": import_s}) + "\n")
        while True:
            t0 = time.perf_counter()
            for traced in (False, True) if args.trace else (False,):
                rec = run_round(graphs, ops, args.seed, index, workdir, traced)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                index += 1
            # start another round only if it ends on time
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > args.seconds:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
