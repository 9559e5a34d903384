"""Wall time and peak memory of one `aogd run`, in a fresh interpreter.

    python3 tools/peak_memory.py CONFIG [--T N] [--seeds 0,1,2] [--src DIR]

Runs `aogd run CONFIG` into a temporary output directory in a child Python
started by `trees.run_child` with no time limit, working in the caller's
directory so that relative paths in CONFIG keep their meaning. It prints
one JSON line: the wall seconds of the child, its peak resident set size
(`ru_maxrss`) in MB, and as `import_s` the wall seconds of a second child,
in the same environment, that only runs `import aogd.cli`: the startup
share of `wall_s`. `--T` and `--seeds` override the config as `aogd run`
does. `--src` names the tree, its root or its `src/` (default: this
checkout), so that two trees can be compared on the same config; a failed
run returns the child's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

from trees import run_child

# aogd.cli in the directory named first, with "" (the cwd) off sys.path
IN_CALLERS_DIR = ("import os, runpy, sys; sys.path[:] = filter(None, "
                  "sys.path); os.chdir(sys.argv.pop(1)); runpy.run_module("
                  "'aogd.cli', run_name='__main__', alter_sys=True)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--T", default=None)
    parser.add_argument("--seeds", default=None)
    parser.add_argument("--src", default=os.path.join(__file__, "../.."))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as out:
        command = ["-c", IN_CALLERS_DIR, os.getcwd(), "run", args.config,
                   "--output", out]
        for flag in ("T", "seeds"):
            if getattr(args, flag) is not None:
                command += [f"--{flag}", getattr(args, flag)]
        start = time.perf_counter()
        done = run_child(args.src, *command, exit_code=None, timeout=None)
        wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return done.returncode
    # the largest resident set of any waited-for child: the only one so far
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    start = time.perf_counter()
    run_child(args.src, "-c", "import aogd.cli")
    import_s = time.perf_counter() - start
    print(json.dumps({"config": args.config, "T": args.T, "seeds": args.seeds,
                      "wall_s": round(wall, 3), "import_s": round(import_s, 3),
                      "peak_rss_mb": round(peak_kb / 1024.0, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
