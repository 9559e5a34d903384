"""Regenerate reference.json: the outcome of every operation of every
workload, for input seeds 0..REFERENCE_SEEDS-1, at the current commit.

    python3 perfbench/record_reference.py [--workload NAME ...] [--seeds A:B]

Selected entries are merged into the existing file, which is rewritten
after every seed. Only rerun this for a change that is meant to alter
the program's numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
REFERENCE = os.path.join(HERE, "reference.json")


def record(wl, w, input_seed: int, workdir: str) -> dict:
    """Outcomes of one run of every variant, keyed variant -> seed."""
    counters = wl.SolveCounters()
    configs = wl.prepare(w, input_seed, workdir)
    counters.install()
    try:
        entry = {}
        for variant, config in configs:
            counters.reset()
            rc, _, err = wl.call_aogd_run(config)
            outcomes = wl.read_outcomes(variant, w.problem_seeds(input_seed),
                                        os.path.join(workdir, "out"), rc,
                                        counters.solutions)
            bad = [o.seed for o in outcomes if not o.ok]
            if bad or counters.solves != (0 if w.warm else len(counters.solutions)):
                raise RuntimeError(f"{w.name} seed {input_seed} {variant}: "
                                   f"failed seeds {bad}, {err}")
            entry[variant] = {str(o.seed): o.record() for o in outcomes}
        return entry
    finally:
        counters.uninstall()


def main():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, HERE)
    import workloads as wl

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seeds", default=f"0:{wl.REFERENCE_SEEDS}")
    args = parser.parse_args()
    lo, hi = (int(s) for s in args.seeds.split(":"))
    if not 0 <= lo < hi <= wl.REFERENCE_SEEDS:
        parser.error(f"--seeds must lie within 0:{wl.REFERENCE_SEEDS}")

    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    workdir = os.path.join(HERE, ".work", f"record-{os.getpid()}")
    try:
        for name in args.workload or sorted(wl.WORKLOADS):
            for input_seed in range(lo, hi):
                entry = record(wl, wl.WORKLOADS[name], input_seed, workdir)
                shutil.rmtree(workdir)
                reference.setdefault(name, {})[str(input_seed)] = entry
                with open(REFERENCE, "w") as fh:
                    json.dump(reference, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"{name} seed {input_seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
