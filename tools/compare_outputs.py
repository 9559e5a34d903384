"""Compare the outputs of `aogd run` and `aogd solve-offline` under two
source trees.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a source tree, its `src/` or its root, whose children
`trees.run_child` starts. The script runs a fixed matrix of 24 configs
under both trees, each in a fresh output directory, and reports every seed
CSV or `aggregate.csv` whose bytes differ (with every column whose
numbers moved, and the largest relative and largest absolute difference
in each) and every manifest key whose value differs, with the echoed
`config.output_dir` masked. For numbers it prints the relative difference.
After each config's cold run, each tree runs the config twice more into the
same output directory: warm, where every offline comparator is read back
from the cache, then torn, after every file under `offline_cache/` has been
cut to half its bytes, where every comparator must be solved again.
Every seed CSV, `aggregate.csv` or manifest whose bytes either run changes
is reported with the bytes that differ: the comparators must survive their
round trip through the cache, and a torn cache file must never be served.
It also runs `aogd solve-offline` (seed 0) on two of those configs, DSM p=8
and criterion 9's elastic net, at t in {1, 37, 1000}, and reports every key
of its JSON that differs: the objective and x_star, which no manifest
records, come from the solver's evaluation path alone. Last, it
runs 6 configs that must fail under both trees, at each stage of a
failure: a misspelt key (`algoritm`, caught by the key-set check), beta 7.0
(caught by the range check), an elastic-net dataset path that does not
exist (past the check, when the dataset is read) and three malformed
copies of criterion 9's file (`MALFORMED`): line 3 with a NaN value and
line 5 with an unknown label, where line 3 must be named; a decreasing
index on line 200, past the parser's first blocks of lines; and a line
with a token without a colon before a two-colon token. Each must exit 1
(any other exit code stops the script), and every key of the failed
manifests that differs, the `error` text among them, is reported, with
the echoed `config.output_dir` masked. It exits 0 when all outputs match
and 1 otherwise.

The matrix: DSM p=8, T=1000 x {convex, strongly convex, fixed_ogd, convex
with a c1=1 gamma-shift} x {2, 10 seeds}; DSM p=8, T=1000, fixed_ogd with
a c1=1 gamma-shift, 2 seeds, once more with the integers theta=2 and
c1=1 in place of 2.0 and 1.0; DSM p=8, T=1000, fixed_ogd with eta=1.5,
theta=2, mu=0.05, 3 seeds (a step so long that the ball projection clips
nearly every row, where the other DSM configs clip in few rounds);
DSM p=16, T=2000, convex, 2 seeds;
DSM p=3, T=100 (shorter than one 256-round chunk), convex, 3 seeds;
DSM p=2, T=300 (the smallest p, with the most row/column-sum ties),
convex, 3 seeds;
elastic net on acceptance criterion 9's synthetic dataset (500 rows, 20
features, generator seed 7), T=300 x {convex, fixed_ogd, gamma-shift} x
{3, 9 seeds}; the same data, convex, T=2000 (four rounds per example),
3 seeds; elastic net, convex, T=300, 3 seeds, on a sparse file of 400
rows whose feature indices have gaps, with label-only rows, trailing
comments, blank lines and a max_rows of 300, past which a larger feature
index appears (criterion 9's file is dense and plain, so it exercises none
of these); the same with that file's lines ended by CRLF; elastic net, convex,
T=300, 3 seeds, on a dense file of 200 rows and 12 features with labels of
both signs, where about 40% of the features are zeros spelt `-0`, `-0.0`
or `0` (rows with signed zeros). A run of both trees, cold, warm and
torn, takes about a minute on 2 CPUs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from trees import run_child

BETA = 2.0 / 3.0
FIXED_OGD = {"kind": "fixed_ogd", "eta": 0.05, "theta": 2.0, "mu": 0.05}
SOLVE_OFFLINE_CONFIGS = ("dsm_p8_convex_s2", "elasticnet_convex_s3")
SOLVE_OFFLINE_T = (1, 37, 1000)
VARIANTS = {
    "convex": {"algorithm": "a_ogd_convex"},
    "strongly_convex": {"algorithm": "a_ogd_strongly_convex"},
    "fixed_ogd": {"algorithm": FIXED_OGD},
    "shift": {"algorithm": "a_ogd_convex", "gamma_shift": {"c1": 1.0}},
}


def criterion9_data():
    """Acceptance criterion 9's labels (+-1.0) and features, 500 x 20: a
    sparse linear separator (6 of 20 weights nonzero) with label noise."""
    rng = np.random.default_rng(7)
    n, d = 500, 20
    w = rng.normal(size=d)
    w[6:] = 0.0
    u = rng.normal(size=(n, d)) * 0.3
    y = np.where(u @ w + 0.1 * rng.normal(size=n) > 0, 1.0, -1.0)
    return y, u


def write_dataset(path):
    """Acceptance criterion 9's libsvm file, its features to 6 places."""
    y, u = criterion9_data()
    with open(path, "w") as fh:
        for label, row in zip(y, u):
            fh.write(("+1 " if label > 0 else "-1 ")
                     + " ".join(f"{j + 1}:{v:.6f}" for j, v in enumerate(row))
                     + "\n")


def write_sparse_dataset(path: str, n: int = 400, d: int = 30, seed: int = 11):
    """A libsvm file with index gaps, label-only rows, all four label
    spellings, trailing comments and blank lines; rows past 300 also use
    index d + 5."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    with open(path, "w") as fh:
        for i in range(n):
            idx = np.flatnonzero(rng.uniform(size=d) < (0.3 if i % 13 else 0.0))
            if i >= 300:
                idx = np.append(idx, d + 4)
            vals = rng.normal(size=idx.size)
            w_row = w[idx[idx < d]] @ vals[idx < d]
            label = str(rng.choice(["+1", "1"] if w_row > 0 else ["-1", "0"]))
            fh.write(label + "".join(f" {j + 1}:{v!r}"
                                     for j, v in zip(idx.tolist(), vals.tolist()))
                     + ("  # comment 1:2" if i % 7 == 0 else "") + "\n")
            if i % 11 == 0:
                fh.write("\n" if i % 2 else "  \t\n")


def write_signed_zero_dataset(path: str):
    """A dense libsvm file of 200 rows and 12 features with labels of both
    signs, in which about 40% of the features are zeros spelt `-0`, `-0.0`
    or `0`."""
    rng = np.random.default_rng(13)
    w = rng.normal(size=12)
    with open(path, "w") as fh:
        for _ in range(200):
            u = rng.normal(size=12)
            zeros = rng.choice(["-0", "-0.0", "0"], size=12)
            spelt = [str(z) if rng.uniform() < 0.4 else repr(v)
                     for z, v in zip(zeros, u.tolist())]
            fh.write(("+1" if w @ u > 0 else "-1")
                     + "".join(f" {j + 1}:{v}" for j, v in enumerate(spelt))
                     + "\n")


def config_matrix(dataset: str, sparse_dataset: str, sparse_crlf_dataset: str,
                  signed_zero_dataset: str) -> dict[str, dict]:
    configs = {}
    for variant in VARIANTS:
        for n_seeds in (2, 10):
            configs[f"dsm_p8_{variant}_s{n_seeds}"] = dict(
                problem={"kind": "dsm", "p": 8}, T=1000,
                seeds=list(range(n_seeds)), **VARIANTS[variant])
    configs["dsm_p8_fixed_ogd_shift_s2"] = dict(
        problem={"kind": "dsm", "p": 8}, T=1000, seeds=[0, 1],
        algorithm=FIXED_OGD, gamma_shift={"c1": 1.0})
    # the same run with integer theta and c1, which the config passes on
    # uncast to the schedule and the shift
    configs["dsm_p8_fixed_ogd_shift_int_s2"] = dict(
        problem={"kind": "dsm", "p": 8}, T=1000, seeds=[0, 1],
        algorithm=dict(FIXED_OGD, theta=2), gamma_shift={"c1": 1})
    configs["dsm_p8_fixed_ogd_clipped_s3"] = dict(
        problem={"kind": "dsm", "p": 8}, T=1000, seeds=[0, 1, 2],
        algorithm=dict(FIXED_OGD, eta=1.5))
    for name, p, T, n_seeds in (("dsm_p16_convex_s2", 16, 2000, 2),
                                ("dsm_p3_convex_s3_short", 3, 100, 3),
                                ("dsm_p2_convex_s3", 2, 300, 3)):
        configs[name] = dict(problem={"kind": "dsm", "p": p}, T=T,
                             seeds=list(range(n_seeds)), **VARIANTS["convex"])
    for variant in ("convex", "fixed_ogd", "shift"):
        for n_seeds in (3, 9):
            configs[f"elasticnet_{variant}_s{n_seeds}"] = dict(
                problem={"kind": "elasticnet", "dataset": dataset, "rho": 1.0},
                T=300, seeds=list(range(n_seeds)), **VARIANTS[variant])
    # four rounds per example: most examples are drawn several times
    configs["elasticnet_convex_s3_T2000"] = dict(
        problem={"kind": "elasticnet", "dataset": dataset, "rho": 1.0},
        T=2000, seeds=[0, 1, 2], **VARIANTS["convex"])
    configs["elasticnet_sparse_convex_s3"] = dict(
        problem={"kind": "elasticnet", "dataset": sparse_dataset, "rho": 1.0,
                 "max_rows": 300},
        T=300, seeds=[0, 1, 2], **VARIANTS["convex"])
    configs["elasticnet_sparse_crlf_convex_s3"] = dict(
        configs["elasticnet_sparse_convex_s3"],
        problem=dict(configs["elasticnet_sparse_convex_s3"]["problem"],
                     dataset=sparse_crlf_dataset))
    configs["elasticnet_signed_zero_convex_s3"] = dict(
        problem={"kind": "elasticnet", "dataset": signed_zero_dataset,
                 "rho": 1.0},
        T=300, seeds=[0, 1, 2], **VARIANTS["convex"])
    return {name: dict(cfg, beta=BETA) for name, cfg in configs.items()}


def write_edited(path: str, source: str, edits: dict[int, str],
                 newline: str = "\n"):
    """A copy of the libsvm file `source` with line i (1-based) replaced by
    edits[i] and every line ended by `newline`."""
    lines = Path(source).read_text().split("\n")[:-1]
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + newline for line in lines))


# malformed copies of criterion 9's file: {name: {line number: new text}}
MALFORMED = {
    # line 5's label is read before line 3's values are: line 3 is named
    "two_bad_lines": {3: "+1 1:0.5 2:nan", 5: "2 1:1"},
    "past_first_blocks": {200: "-1 5:1 3:1"},
    # a token without a colon, then one with two: as many colons as tokens
    "token_split": {7: "-1 1 2:3:4"},
}


def failing_configs(configs: dict[str, dict], missing: str,
                    malformed: dict[str, str]) -> dict[str, dict]:
    """Configs that fail: at the key-set check, at the range check and,
    past the check, when the dataset at `missing` or each file of
    `malformed` ({name: path}) is read."""
    dsm = configs["dsm_p8_convex_s2"]
    elasticnet = configs["elasticnet_convex_s3"]

    def reading(dataset: str) -> dict:
        return dict(elasticnet, problem=dict(elasticnet["problem"],
                                             dataset=dataset))

    return {
        "fail_misspelt_key": {("algoritm" if k == "algorithm" else k): v
                              for k, v in dsm.items()},
        "fail_beta": dict(dsm, beta=7.0),
        "fail_missing_dataset": reading(missing),
        **{f"fail_{name}": reading(path) for name, path in malformed.items()},
    }


def run_cli(src: str, verb: str, cfg: dict, out: str, *flags: str,
            exit_code: int = 0) -> str:
    """`aogd VERB CONFIG FLAGS...` under src, with cfg written to
    out/config.json and its output directory out/out; returns stdout. Any
    exit code but `exit_code` stops the script."""
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(dict(cfg, output_dir=os.path.join(out, "out")), fh)
    return run_child(src, "-m", "aogd.cli", verb, cfg_path, *flags,
                     exit_code=exit_code).stdout


def flatten(value, prefix=""):
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for k, v in items:
            yield from flatten(v, f"{prefix}{k}.")
    else:
        yield prefix[:-1], value


def describe(a, b) -> str:
    text = f"{a!r} -> {b!r}"
    # JSON numbers; a bool, whose type is not int, gets no relative difference
    if type(a) in (int, float) and type(b) in (int, float) and a != 0:
        text += f" (rel {abs(b - a) / abs(a):.2e})"
    return text


def csv_difference(parent: str, change: str) -> str:
    """Every column in which the numbers of two CSVs of one shape differ,
    with its largest relative and largest absolute difference (NaN on both
    sides is a match; 0 against nonzero is inf)."""
    with open(parent) as fh:
        header = fh.readline().strip().split(",")
    a, b = (np.genfromtxt(p, delimiter=",", skip_header=1, ndmin=2)
            for p in (parent, change))
    if a.shape != b.shape:
        return f" (shape {a.shape} -> {b.shape})"
    if np.any(np.isnan(a) != np.isnan(b)):
        return " (NaN in one tree only)"
    same = (a == b) | np.isnan(a)
    diff = np.where(same, 0.0, np.abs(b - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(same, 0.0, diff / np.abs(a))
    moved = [f"{header[col]} max rel {rel[:, col].max():.2e}, "
             f"max abs {diff[:, col].max():.2e}"
             for col in np.flatnonzero(~same.all(axis=0))]
    return f" ({'; '.join(moved)})" if moved else " (same numbers)"


def read_manifest(out: str) -> dict:
    manifest = json.loads(Path(out, "manifest.json").read_text())
    manifest["config"]["output_dir"] = "<output_dir>"
    return manifest


def compare_values(label: str, parent: dict, change: dict) -> list[str]:
    """The keys of two JSON documents, flattened, whose values differ."""
    a, b = dict(flatten(parent)), dict(flatten(change))
    diffs = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            diffs.append(f"{label} {key}: only in one tree")
        # NaN != NaN: a NaN on both sides is a match
        elif a[key] != b[key] and not (a[key] != a[key] and b[key] != b[key]):
            diffs.append(f"{label} {key}: {describe(a[key], b[key])}")
    return diffs


def outputs(out_dir: str) -> dict[str, bytes]:
    """The bytes of every CSV and of the manifest in out_dir."""
    return {f: Path(out_dir, f).read_bytes() for f in os.listdir(out_dir)
            if f.endswith(".csv") or f == "manifest.json"}


def compare(name: str, parent_out: str, change_out: str) -> list[str]:
    a, b = outputs(parent_out), outputs(change_out)
    diffs = []
    for f in sorted((a.keys() | b.keys()) - {"manifest.json"}):
        if f not in a or f not in b:
            diffs.append(f"{name}/{f}: only in one tree")
        elif a[f] != b[f]:
            paths = (os.path.join(d, f) for d in (parent_out, change_out))
            diffs.append(f"{name}/{f}: bytes differ{csv_difference(*paths)}")
    return diffs + compare_values(f"{name}/manifest.json", *map(
        read_manifest, (parent_out, change_out)))


def rerun_differences(label: str, src: str, cfg: dict,
                      out: str) -> dict[str, list[str]]:
    """Run cfg twice more under src into out, the directory of its cold run:
    warm, then torn, with every file under offline_cache/ first cut to half
    its bytes. For each run, list every CSV or manifest whose bytes differ
    from the cold run's."""
    out_dir = os.path.join(out, "out")
    cache_dir = os.path.join(out_dir, "offline_cache")
    cold = outputs(out_dir)
    found = {}
    for run in ("warm", "torn"):
        if run == "torn":
            for f in os.listdir(cache_dir):
                with open(os.path.join(cache_dir, f), "r+b") as fh:
                    fh.truncate(os.fstat(fh.fileno()).st_size // 2)
        run_cli(src, "run", cfg, out)
        again = outputs(out_dir)
        diffs = found[run] = []
        for f in sorted(cold.keys() | again.keys()):
            a, b = cold.get(f), again.get(f)
            if a is None or b is None:
                diffs.append(f"{label}/{f}: only in the "
                             f"{run if a is None else 'cold'} run")
            elif a != b:
                moved = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
                diffs.append(f"{label}/{f}: {run} run differs from cold in "
                             f"{len(moved)} bytes (first at {moved[:1]}), "
                             f"length {len(a)} -> {len(b)}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        dataset, sparse_dataset, sparse_crlf_dataset, signed_zero_dataset = (
            os.path.join(workdir, f"{name}.libsvm")
            for name in ("data", "sparse", "sparse_crlf", "signed_zero"))
        write_dataset(dataset)
        write_sparse_dataset(sparse_dataset)
        write_edited(sparse_crlf_dataset, sparse_dataset, {}, newline="\r\n")
        write_signed_zero_dataset(signed_zero_dataset)
        malformed = {name: os.path.join(workdir, f"{name}.libsvm")
                     for name in MALFORMED}
        for name, path in malformed.items():
            write_edited(path, dataset, MALFORMED[name])
        configs = config_matrix(dataset, sparse_dataset, sparse_crlf_dataset,
                                signed_zero_dataset)
        trees = tuple(zip(("parent", "change"), argv))
        diffs = []

        def report(label: str, found: list[str]):
            print(f"{label}: "
                  + (f"{len(found)} differences" if found else "identical"))
            diffs.extend(found)

        for name, cfg in configs.items():
            outs = [os.path.join(workdir, tree, name) for tree, _ in trees]
            for (_, src), out in zip(trees, outs):
                run_cli(src, "run", cfg, out)
            report(name, compare(name, *(os.path.join(out, "out")
                                         for out in outs)))
            reruns = [rerun_differences(f"{name} ({tree})", src, cfg, out)
                      for (tree, src), out in zip(trees, outs)]
            for run in ("warm", "torn"):
                report(f"{name} {run}",
                       [diff for found in reruns for diff in found[run]])
        for name in SOLVE_OFFLINE_CONFIGS:
            for t in SOLVE_OFFLINE_T:
                label = f"solve-offline {name} t={t}"
                parent_json, change_json = (json.loads(run_cli(
                    src, "solve-offline", configs[name],
                    os.path.join(workdir, tree, f"{name}_t{t}"),
                    "--t", str(t))) for tree, src in trees)
                report(label, compare_values(label, parent_json, change_json))
        failing = failing_configs(configs,
                                  os.path.join(workdir, "missing.libsvm"),
                                  malformed)
        for name, cfg in failing.items():
            outs = [os.path.join(workdir, tree, name) for tree, _ in trees]
            for (_, src), out in zip(trees, outs):
                run_cli(src, "run", cfg, out, exit_code=1)
            report(name, compare_values(
                f"{name}/manifest.json",
                *(read_manifest(os.path.join(out, "out")) for out in outs)))
    for line in diffs:
        print(line)
    print(f"{len(configs)} configs, each run cold, warm and torn, "
          f"{len(SOLVE_OFFLINE_CONFIGS) * len(SOLVE_OFFLINE_T)} solve-offline "
          f"prefixes, {len(failing)} failing configs, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
