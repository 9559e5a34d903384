"""Source trees for the tests of tools/: a copy of this checkout's package
that marks its import, and a working directory whose own `aogd` must not
be imported."""

import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# a config of a run of well under a second, less its output_dir
TINY_DSM = {"problem": {"kind": "dsm", "p": 2}, "algorithm": "a_ogd_convex",
            "beta": 2.0 / 3.0, "T": 100, "seeds": [0], "checkpoints": 4}


def named_tree(tmp_path: Path) -> Path:
    """A copy of this checkout's package whose import leaves a file `ran`
    next to its `__init__.py`."""
    tree = tmp_path / "tree"
    shutil.copytree(SRC / "aogd", tree / "aogd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "aogd" / "__init__.py", "a") as fh:
        fh.write("\nimport pathlib\n"
                 "pathlib.Path(__file__).with_name('ran').touch()\n")
    return tree


def decoy_cwd(tmp_path: Path) -> Path:
    """A directory holding an `aogd` package that fails to import."""
    cwd = tmp_path / "cwd"
    (cwd / "aogd").mkdir(parents=True)
    (cwd / "aogd" / "__init__.py").write_text(
        "raise ImportError('the decoy aogd was imported')\n")
    return cwd
