"""Time one online round of `learner.run` under two source trees.

    python3 tools/round_cost.py PARENT_ROOT CHANGE_ROOT [--shape P:S ...] \\
        [--T N] [--runs N]

Each ROOT is the root of a source tree, such as a fresh `git archive` of a
commit, holding `src/aogd`. A shape P:S is a DSM problem of p = P played
by the seeds 0 .. S-1 in lockstep, under `a_ogd_convex` with beta = 2/3
and the checkpoints of `metrics.checkpoint_grid(T)`; the default shapes are
16:1, 8:4, 8:10 and 2:3.

Each run starts one fresh interpreter per side, with the BLAS thread
variables at 1; the parent's runs first in odd runs, the change's in even
ones, so that drift of the machine's speed favours neither side. The
interpreter plays every shape once at a short horizon, so that imports and
lazy set-up finish untimed, then times one `learner.run` call of T rounds
per shape; the cost of a round is that wall time divided by T (the
stream's draw and the schedule's arrays are inside it, a small share).

It prints per shape each side's median microseconds per round over the
runs and in how many runs the change read lower (ties count for neither).
Every run also digests the bytes of each field of the returned `Trace`;
the script exits 1 when the two sides' digests of a shape differ in any
run, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SHAPES = ("16:1", "8:4", "8:10", "2:3")
WARMUP_T = 50
RUN_TIMEOUT_S = 600

# One side's run: argv is T followed by the shapes (p, S); prints one JSON
# list of {"us_per_round", "digest"}, one per shape.
WORKER = """
import hashlib, json, sys, time
import aogd
from aogd import learner
from aogd.metrics import checkpoint_grid
from aogd.problems import DsmProblem
from aogd.schedules import Regime, ScheduleParams

def play(p, S, T):
    problem = DsmProblem(p)
    schedule = ScheduleParams(beta=2.0 / 3.0, regime=Regime.CONVEX,
                              constants=problem.constants)
    start = time.perf_counter()
    trace = learner.run(problem, schedule, T, list(range(S)),
                        checkpoint_grid(T))
    return time.perf_counter() - start, trace

T = int(sys.argv[1])
shapes = [tuple(map(int, s.split(":"))) for s in sys.argv[2:]]
for p, S in shapes:
    play(p, S, min(T, %d))
out = []
for p, S in shapes:
    seconds, trace = play(p, S, T)
    h = hashlib.sha256()
    for column in vars(trace).values():
        h.update(column.tobytes())
    out.append({"us_per_round": seconds / T * 1e6, "digest": h.hexdigest()})
print(aogd.__file__)
print(json.dumps(out))
""" % WARMUP_T


def parse_shape(text: str) -> str:
    p, sep, S = text.partition(":")
    if not (sep and p.isdigit() and S.isdigit() and int(p) >= 2 and int(S) >= 1):
        raise argparse.ArgumentTypeError("expected P:S, with P >= 2 and S >= 1")
    return f"{int(p)}:{int(S)}"


def run_side(root: str, T: int, shapes: list[str]) -> list[dict]:
    """One fresh interpreter's timings of every shape, from `root`'s tree."""
    src = os.path.join(os.path.abspath(root), "src")
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, "-c", WORKER, str(T), *shapes]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) != 2:
        raise RuntimeError(f"the run from {root} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    if not os.path.abspath(lines[0]).startswith(src + os.sep):
        raise RuntimeError(f"the run from {root} imported aogd from {lines[0]}")
    return json.loads(lines[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--shape", type=parse_shape, action="append")
    parser.add_argument("--T", type=int, default=2000)
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv)
    if args.T < 1 or args.runs < 1:
        parser.error("--T and --runs must be >= 1")
    shapes = args.shape or list(DEFAULT_SHAPES)
    roots = {"parent": args.parent_root, "change": args.change_root}

    times = {side: [[] for _ in shapes] for side in roots}
    differ = []
    for k in range(1, args.runs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        results = {side: run_side(roots[side], args.T, shapes) for side in order}
        for i, shape in enumerate(shapes):
            for side in roots:
                times[side][i].append(results[side][i]["us_per_round"])
            if results["parent"][i]["digest"] != results["change"][i]["digest"]:
                differ.append(f"run {k}, shape {shape}")

    print(f"DSM a_ogd_convex, beta = 2/3, T = {args.T}, {args.runs} runs; "
          "median us per round")
    print(f"{'p:S':>7} {'parent':>9} {'change':>9}  change lower in")
    for i, shape in enumerate(shapes):
        parent, change = times["parent"][i], times["change"][i]
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"{shape:>7} {statistics.median(parent):9.1f} "
              f"{statistics.median(change):9.1f}  {lower} of {args.runs}")
    for where in differ:
        print(f"trace bytes differ: {where}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
