"""Run the benchmark on two source trees and write their paired summary.

    python3 tools/bench_pair.py PARENT_ROOT CHANGE_ROOT --label prN \\
        --seeds N [N ...] [--traced WORKLOAD:SEED --traced-metric NAME ...] \\
        [--what TEXT]

Each ROOT is a source tree, such as a fresh `git archive` of a commit,
given as its root or its `src/`: its root holds `perfbench/run.py` and
`BENCHMARK.json`. For each workload of the parent's `BENCHMARK.json` and
each input seed, the script runs (by `trees.run_child`)

    python3 perfbench/run.py --workload W --seed N --seconds 5 --trace 0

once per side, from that side's package directory, the parent first on
odd seeds and the change first on even seeds.

It writes `BENCH_<label>.json` in the current directory. Per workload and
side it records the operations attempted and failed over all seeds,
whether every run was correct, and for each end-to-end metric of
`BENCHMARK.json` its median, its quartiles (`statistics.quantiles`,
exclusive) and its value at each seed, in seed order. Per workload and
metric, `<metric>_change_lower_pairs` counts the seeds at which the
change read lower than the parent; ties count for neither.

With `--traced W:SEED`, it then runs `perfbench/run.py --trace 1` on that
workload and seed three times per side, alternating with the parent first,
and records the median and the value of each run of every
`--traced-metric`. It exits non-zero, writing nothing, when a run fails
to give a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from trees import THREADS, package_root, run_child, sides_in_order

SECONDS = 5
TRACED_RUNS = 3


def quartiles(values: list[float]) -> dict:
    """Median, exclusive quartiles and the values themselves, to 6 places."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": round(statistics.median(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6),
            "per_seed": [round(v, 6) for v in values]}


def summarize_workload(results: dict, metrics: list[str]) -> dict:
    """The summary of one workload from `results`, side -> the result each
    seed's run printed, in seed order."""
    summary = {}
    for side, runs in results.items():
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs)}
        for name in metrics:
            entry[name] = quartiles([r["metrics"][name]["value"] for r in runs])
        summary[side] = entry
    for name in metrics:
        pairs = list(zip(summary["parent"][name]["per_seed"],
                         summary["change"][name]["per_seed"]))
        lower = sum(change < parent for parent, change in pairs)
        summary[f"{name}_change_lower_pairs"] = f"{lower}/{len(pairs)}"
    return summary


def summarize_traced(runs: list[dict], metrics: list[str]) -> dict:
    """One side's traced runs: whether each was correct, and the median and
    per-run values of each named per-layer metric."""
    entry = {"correct": all(r["correct"] for r in runs)}
    for name in metrics:
        values = [round(r["metrics"][name]["value"], 6) for r in runs]
        entry[name] = {"median": statistics.median(values), "per_run": values}
    return entry


def run_bench(root: str, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One `perfbench/run.py` run from `root`: its JSON result and the first
    line of its stderr, the machine facts."""
    proc = run_child(root, os.path.join(root, "perfbench", "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(SECONDS), "--trace", str(trace), lines=1)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr.splitlines()[0]


def parse_traced(text: str) -> tuple[str, int]:
    workload, sep, seed = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected WORKLOAD:SEED")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--traced", type=parse_traced)
    parser.add_argument("--traced-metric", action="append", default=[])
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    roots = {side: os.path.dirname(package_root(path)) for side, path
             in (("parent", args.parent_root), ("change", args.change_root))}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]

    machine = None
    summary = {}
    for workload in workloads:
        results = {"parent": [], "change": []}
        for seed in args.seeds:
            for side in sides_in_order(seed):
                result, facts = run_bench(roots[side], workload, seed, 0)
                results[side].append(result)
                machine = machine or json.loads(facts)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} run_s {runs[-1]['metrics']['run_s']['value']:.4f}"
                for side, runs in results.items()), file=sys.stderr)
        summary[workload] = summarize_workload(results, metrics)

    bench = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {SECONDS} --trace 0",
        "environment": THREADS,
        "trees": "each side a source tree run from its own root",
        "order": "per input seed and workload, the parent ran first on odd "
                 "seeds and the change first on even seeds",
        "machine": machine,
        "input_seeds": args.seeds,
        "workloads": summary,
    }
    if args.traced:
        workload, seed = args.traced
        runs = {"parent": [], "change": []}
        for k in range(1, TRACED_RUNS + 1):
            for side in sides_in_order(k):
                runs[side].append(run_bench(roots[side], workload, seed, 1)[0])
        bench["traced_command"] = (
            f"python3 perfbench/run.py --workload {workload} --seed {seed} "
            f"--seconds {SECONDS} --trace 1")
        bench["traced_order"] = (f"{TRACED_RUNS} runs per side, alternating, "
                                 "the parent first in even runs")
        bench["traced"] = {workload: {"seed": seed, **{
            side: summarize_traced(side_runs, args.traced_metric)
            for side, side_runs in runs.items()}}}
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
