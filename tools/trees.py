"""The tools' one runner for source trees, given as a root or a `src/`. A
child is a fresh interpreter with PYTHONPATH the tree's package directory
and the BLAS thread variables at 1. It starts from that directory, so no
other `aogd` on the caller's path shadows it."""

import os
import subprocess
import sys

THREADS = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def package_root(path: str) -> str:
    """The directory that holds the `aogd` package of the tree at path."""
    for candidate in map(os.path.abspath, (path, os.path.join(path, "src"))):
        if os.path.isfile(os.path.join(candidate, "aogd", "__init__.py")):
            return candidate
    raise SystemExit(f"no aogd package under {path}")


def run_child(tree: str, *args: str, exit_code: int | None = 0,
              lines: int = 0, timeout: float | None = 600):
    """`python ARGS` on tree's package, its output captured as text. A run
    past `timeout` seconds (None: no limit), an exit code but `exit_code`
    (None: any) or fewer than `lines` lines of stdout stops the tool, exit
    code 1, naming ARGS (less a -c program), the tree and its stderr."""
    src = package_root(tree)
    shown = " ".join(arg for arg in args if "\n" not in arg) + f" under {tree}"
    try:
        done = subprocess.run([sys.executable, *args], cwd=src,
                              env=dict(os.environ, PYTHONPATH=src, **THREADS),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{shown} ran past {timeout} s") from None
    if exit_code is not None and done.returncode != exit_code:
        why = f"exited {done.returncode}, not {exit_code}"
    elif len(done.stdout.splitlines()) < lines:
        why = f"printed fewer than {lines} lines"
    else:
        return done
    raise SystemExit(f"{shown} {why}:\n{done.stderr.strip()}")


def sides_in_order(k: int) -> tuple[str, str]:
    """Which side runs first in the k-th pair of runs: the parent if k is
    odd, so that drift of the machine's speed favours neither side."""
    return ("parent", "change") if k % 2 else ("change", "parent")
