"""Wall time and peak memory of one `aogd run`, in a fresh interpreter.

    python3 tools/peak_memory.py CONFIG [--T N] [--seeds 0,1,2] [--src DIR]

Runs `aogd run CONFIG` into a temporary output directory in a child Python
with the BLAS thread pools set to one thread, and prints one JSON line: the
wall seconds of the child, its peak resident set size (`ru_maxrss`) in MB,
and as `import_s` the wall seconds of a second child, in the same
environment, that only runs `import aogd.cli`: the startup share of
`wall_s`. `--T` and `--seeds` override the config as `aogd run` does. `--src`
names the directory that holds the `aogd` package (a checkout's `src/` or
its root; default: this checkout), so that two trees can be compared on the
same config.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

from compare_outputs import package_root

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--T", default=None)
    parser.add_argument("--seeds", default=None)
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"))
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=package_root(args.src))
    env.update({name: "1" for name in BLAS_THREADS})
    with tempfile.TemporaryDirectory() as out:
        command = [sys.executable, "-m", "aogd.cli", "run", args.config,
                   "--output", out]
        for flag in ("T", "seeds"):
            if getattr(args, flag) is not None:
                command += [f"--{flag}", getattr(args, flag)]
        start = time.perf_counter()
        done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
    if done.returncode != 0:
        return done.returncode
    # the largest resident set of any waited-for child: the only one so far
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import aogd.cli"], env=env,
                   check=True)
    import_s = time.perf_counter() - start
    print(json.dumps({"config": args.config, "T": args.T, "seeds": args.seeds,
                      "wall_s": round(wall, 3), "import_s": round(import_s, 3),
                      "peak_rss_mb": round(peak_kb / 1024.0, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
