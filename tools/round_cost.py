"""Time one online round of `learner.run` under two source trees.

    python3 tools/round_cost.py PARENT_ROOT CHANGE_ROOT [--shape P:S ...] \\
        [--T N] [--runs N]

Each ROOT is a source tree, such as a fresh `git archive` of a commit,
given as its root or its `src/`. A shape P:S is a DSM problem of p = P
played by the seeds 0 .. S-1 in lockstep, and a shape en:S the elastic
net with rho = 1 on acceptance criterion 9's data played by S seeds; each
runs under `a_ogd_convex` with beta = 2/3 and the checkpoints of
`metrics.checkpoint_grid(T)`. The data's libsvm file is written once, by
`compare_outputs.write_dataset` into a temporary directory, and both
sides read that file. The default shapes are 16:1, 8:4, 8:10, 2:3 and
en:3.

Each run starts one fresh interpreter per side by `trees.run_child`, the
parent's first in odd runs and the change's in even ones. The interpreter
plays every shape once at a short horizon, so that imports and lazy set-up
finish untimed, then times one `learner.run` call of T rounds per shape;
the cost of a round is that wall time divided by T (the stream's draw and
the schedule's arrays are inside it, a small share).

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
import sys
import tempfile

from compare_outputs import write_dataset
from trees import package_root, run_child, sides_in_order

DEFAULT_SHAPES = ("16:1", "8:4", "8:10", "2:3", "en:3")
WARMUP_T = 50

# One side's run: argv is T, the elastic net's dataset and the shapes (p or
# "en", S); prints one JSON list of {"us_per_round", "digest"}, one per
# shape.
WORKER = """
import hashlib, json, sys, time
import aogd
from aogd import learner
from aogd.ingest import load_dataset
from aogd.metrics import checkpoint_grid
from aogd.problems import DsmProblem, ElasticNetProblem
from aogd.schedules import Regime, ScheduleParams

def play(p, S, T):
    problem = (ElasticNetProblem(*data, rho=1.0) if p == "en"
               else DsmProblem(int(p)))
    schedule = ScheduleParams(beta=2.0 / 3.0, regime=Regime.CONVEX,
                              constants=problem.constants)
    start = time.perf_counter()
    trace = learner.run(problem, schedule, T, list(range(S)),
                        checkpoint_grid(T))
    return time.perf_counter() - start, trace

T = int(sys.argv[1])
data = load_dataset(sys.argv[2]).dense()
shapes = [(p, int(S)) for p, S in (s.split(":") for s in sys.argv[3:])]
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
    if not (sep and (p == "en" or p.isdigit() and int(p) >= 2)
            and S.isdigit() and int(S) >= 1):
        raise argparse.ArgumentTypeError(
            "expected P:S or en:S, with P >= 2 and S >= 1")
    return f"{p if p == 'en' else int(p)}:{int(S)}"


def run_side(root: str, T: int, dataset: str, shapes: list[str]) -> list[dict]:
    """One fresh interpreter's timings of every shape, from `root`'s tree,
    the elastic net's data read from `dataset`."""
    origin, result = run_child(root, "-c", WORKER, str(T), dataset, *shapes,
                               lines=2).stdout.splitlines()[-2:]
    if not os.path.abspath(origin).startswith(package_root(root) + os.sep):
        raise RuntimeError(f"the run from {root} imported aogd from {origin}")
    return json.loads(result)


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
    with tempfile.TemporaryDirectory() as workdir:
        dataset = os.path.join(workdir, "criterion9.libsvm")
        write_dataset(dataset)
        for k in range(1, args.runs + 1):
            results = {side: run_side(roots[side], args.T, dataset, shapes)
                       for side in sides_in_order(k)}
            for i, shape in enumerate(shapes):
                for side in roots:
                    times[side][i].append(results[side][i]["us_per_round"])
                if (results["parent"][i]["digest"]
                        != results["change"][i]["digest"]):
                    differ.append(f"run {k}, shape {shape}")

    print(f"DSM p:S and elastic net en:S, a_ogd_convex, beta = 2/3, "
          f"T = {args.T}, {args.runs} runs; median us per round")
    print(f"{'shape':>7} {'parent':>9} {'change':>9}  change lower in")
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
