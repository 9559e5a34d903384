"""Set-up probe, run in a fresh interpreter by run.py.

Times what a user pays before the first `aogd run` can start: importing the
package, writing the config and dataset and, for a warm workload, filling
the offline cache. The time is rescaled to the reference machine's speed by
the calibration kernel, timed right before and right after. Prints one JSON
line: {"setup_s": ..., "raw_s": ..., "configs": ...}.

    python3 perfbench/probe.py --workload NAME --seed N --dir DIR
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibration  # noqa: E402  (pure Python: imports nothing heavy)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        help="workload spec as JSON (see workloads.Workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    before = calibration.calibrate()
    start = time.perf_counter()
    import workloads  # imports numpy and aogd: part of the timed set-up

    spec = json.loads(args.workload)
    spec["variants"] = tuple(spec["variants"])
    configs = workloads.prepare(workloads.Workload(**spec), args.seed, args.dir)
    raw_s = time.perf_counter() - start
    setup_s = calibration.rescale(raw_s, before, calibration.calibrate())
    print(json.dumps({"setup_s": setup_s, "raw_s": raw_s, "configs": configs}))


if __name__ == "__main__":
    main()
