"""The `aogd run` benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
`src/`. A closed loop drives `aogd.cli.main(["run", ...])` in-process, one
call at a time, for S seconds, and checks every output against
`reference.json`. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced samples and prints the
per-layer metrics. Exits 0 with a result, also when outputs are wrong
(`correct` false); exits non-zero without one when it cannot run. The last line of stdout is the JSON result; a summary
and the machine facts go to stderr. Workloads, metrics and the layer table
are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5   # fresh interpreters per run; setup_s is their median
MIN_SAMPLES = 3    # timed samples (pairs, when traced) even past --seconds
PROBE_TIMEOUT_S = 40

# (name, unit) of every per-layer metric, in output order.
LAYER_METRICS = [
    ("offline.solve_offline.s", "s"),
    ("offline.solve_offline.calls", "count"),
    ("offline.iterations", "count"),
    ("offline.converged_frac", "frac"),
    ("offline.cache_hit_frac", "frac"),
    ("offline.cache_read.s", "s"),
    ("offline.project_birkhoff.calls", "count"),
    ("offline.project_birkhoff.s", "s"),
    ("offline.project_elasticnet_ball.calls", "count"),
    ("offline.project_elasticnet_ball.s", "s"),
    ("problems.loss.offline.calls", "count"),
    ("problems.loss.offline.s", "s"),
    ("problems.loss.learner.s", "s"),
    ("problems.loss.metrics.calls", "count"),
    ("projections.g_max.calls", "count"),
    ("projections.g_max.s", "s"),
    ("projections.g_max.us_per_call", "us"),
    ("projections.project_ball.calls", "count"),
    ("projections.project_ball.s", "s"),
    ("projections.project_ball.clipped_frac", "frac"),
    ("learner.run.s", "s"),
    ("learner.run.self_s", "s"),
    ("learner.step.s", "s"),
    ("learner.rounds", "count"),
    ("metrics.accumulate.s", "s"),
    ("metrics.accumulate.self_s", "s"),
    ("experiment.self_s", "s"),
    ("experiment.build_problem.calls", "count"),
    ("experiment.build_problem.s", "s"),
    ("ingest.load_dataset.calls", "count"),
    ("ingest.load_dataset.s", "s"),
    ("ingest.dense.s", "s"),
    ("problems.materialize.s", "s"),
    ("schedules.s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
]


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_probe(w, input_seed: int, workdir: str) -> dict:
    """Set up the workload in a fresh interpreter; returns the probe's
    {"setup_s", "configs"}."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"),
           "--workload", json.dumps(asdict(w)), "--seed", str(input_seed),
           "--dir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    """Timed samples of one workload, each checked by the correctness gate.

    A sample is one `aogd run` call per variant, into `<workdir>/out`. A cold
    workload writes the inputs of the sample's input seed and starts from an
    empty output directory. A warm one reuses the configs and the offline
    cache that set-up made.
    """

    def __init__(self, wl, w, workdir, warm_configs, reference):
        self.wl, self.w, self.workdir = wl, w, workdir
        self.warm_configs = warm_configs
        self.reference = reference   # input seed -> variant -> seed -> outcome
        self.counters = wl.SolveCounters()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}   # input seed -> output digests of its first sample
        self.offline = {}   # offline counters of the last sample
        self.kernels = []   # calibration kernel times, in order

    def sample(self, input_seed: int, wrap=None, scale=False):
        """Run one sample. Returns the seconds spent inside `aogd run` and,
        with `scale`, the same seconds rescaled call by call by the
        calibration kernel timed just before and just after each call."""
        from calibration import calibrate, rescale

        wl, w = self.wl, self.w
        out_dir = os.path.join(self.workdir, "out")
        if w.warm:
            configs = self.warm_configs
        else:
            wl.clear_outputs(self.workdir)
            configs = wl.prepare(w, input_seed, self.workdir)
        reference = self.reference.get(str(input_seed))
        gc.collect()  # start each sample with the same heap
        if scale and not self.kernels:
            self.kernels.append(calibrate())
        seconds = scaled = 0.0
        digests = []
        calls = solves = iterations = converged = 0
        for variant, config in configs:
            self.counters.reset()
            rc, dt, err = wl.call_aogd_run(config, wrap)
            seconds += dt
            if scale:
                self.kernels.append(calibrate())
                scaled += rescale(dt, *self.kernels[-2:])
            if rc != 0:
                self.errors.append(f"{variant}: exit {rc}: {err.strip()}")
            sols = self.counters.solutions
            calls += len(sols)
            solves += self.counters.solves
            iterations += sum(s.iterations for s in sols)
            converged += sum(bool(s.tolerance_met) for s in sols)
            # a cold run must solve every comparator, a warm one none
            cache_ok = bool(sols) and self.counters.solves == (0 if w.warm else len(sols))
            if sols and not cache_ok:
                self.errors.append(
                    f"{variant}: {len(sols) - self.counters.solves}/{len(sols)} "
                    f"cache hits on a {'warm' if w.warm else 'cold'} workload")
            for outcome in wl.read_outcomes(variant, w.problem_seeds(input_seed),
                                            out_dir, rc, sols):
                self.attempted += 1
                if not (cache_ok and wl.gate(outcome, reference)):
                    self.failed += 1
            digests.append(wl.digest_dir(out_dir))
        if self.digests.setdefault(input_seed, digests) != digests:
            self.errors.append(f"outputs of input seed {input_seed} differ "
                               "from its first sample's")
        self.offline = {
            "offline.iterations": iterations,
            "offline.converged_frac": converged / calls if calls else 0.0,
            "offline.cache_hit_frac": (calls - solves) / calls if calls else 0.0,
        }
        return seconds, scaled


def layer_metrics(tracer, offline: dict) -> dict:
    """Per-layer values of one traced sample (the trace.* ones are added by
    the caller)."""
    stats = tracer.stats

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] if name in stats else 0.0

    def own(name):
        return stats[name][2] if name in stats else 0.0

    values = dict(offline)
    for name in ("offline.solve_offline", "offline.project_birkhoff",
                 "offline.project_elasticnet_ball", "problems.loss.offline",
                 "projections.g_max", "projections.project_ball",
                 "experiment.build_problem", "ingest.load_dataset"):
        values[name + ".calls"] = calls(name)
        values[name + ".s"] = total(name)
    for name in ("offline.cache_read", "problems.loss.learner", "learner.run",
                 "learner.step", "metrics.accumulate", "ingest.dense",
                 "problems.materialize", "schedules"):
        values[name + ".s"] = total(name)
    for name in ("learner.run", "metrics.accumulate", "experiment"):
        values[name + ".self_s"] = own(name)
    values["problems.loss.metrics.calls"] = calls("problems.loss.metrics")
    values["learner.rounds"] = calls("learner.step")
    g_calls = calls("projections.g_max")
    values["projections.g_max.us_per_call"] = (
        1e6 * total("projections.g_max") / g_calls if g_calls else 0.0)
    b_calls = calls("projections.project_ball")
    values["projections.project_ball.clipped_frac"] = (
        tracer.clipped / b_calls if b_calls else 0.0)
    return values


def traced_run(bench, input_seed: int, seconds: float) -> dict:
    """Alternate untraced and traced samples of one input seed, so that the
    counts repeat exactly; per-layer values are the mean over the traced
    samples, and the tracing overhead is the median paired difference."""
    from spans import Tracer

    tracer = Tracer()
    untraced, traced, layers, self_sums = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        untraced.append(bench.sample(input_seed)[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(bench.sample(input_seed, wrap=tracer.root)[0])
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer, bench.offline))
        self_sums.append(tracer.self_seconds())
    values = {name: statistics.fmean(sample[name] for sample in layers)
              for name in layers[0]}
    values["trace.run_s"] = statistics.fmean(traced)
    values["trace.untraced_run_s"] = statistics.fmean(untraced)
    values["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced, untraced))
    values["trace.self_sum_s"] = statistics.fmean(self_sums)
    slack = abs(values["trace.overhead_s"]) + 1e-3
    for run_s, self_sum in zip(traced, self_sums):
        if abs(run_s - self_sum) > slack:
            bench.errors.append(f"layer self times sum to {self_sum:.6f} s, "
                                f"traced run took {run_s:.6f} s")
    print(f"traced samples: {len(traced)}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}


def timed_run(bench, input_seed: int, seconds: float, setup: list[float]) -> dict:
    """The closed loop. A cold workload moves to the next input seed with
    every sample, so that a run's median covers many inputs rather than one
    seed's solver path; a warm one stays on the seed whose cache set-up
    filled. `run_s` is the median of the calibrated sample times."""
    raw, scaled = [], []
    start = time.perf_counter()
    while len(raw) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        k = 0 if bench.w.warm else len(raw)
        r, c = bench.sample((input_seed + k) % bench.wl.REFERENCE_SEEDS,
                            scale=True)
        raw.append(r)
        scaled.append(c)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"samples: {len(raw)}  raw: {[round(t, 3) for t in raw]}  "
          f"scaled: {[round(t, 3) for t in scaled]}  "
          f"calib: {[round(t, 4) for t in bench.kernels]}  "
          f"setup_s: {[round(t, 3) for t in setup]}  offline: {bench.offline}",
          file=sys.stderr)
    return {
        "run_s": {"value": statistics.median(scaled), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None, table=None, reference=None) -> int:
    """`table` and `reference` replace the shipped workloads and
    reference.json; the benchmark's own tests pass tiny ones."""
    if not os.path.isfile(os.path.join(SRC, "aogd", "__init__.py")):
        print(f"error: no aogd package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads as wl

    table = table or wl.WORKLOADS
    args = parse_args(argv, table)
    w = table[args.workload]
    input_seed = args.seed % wl.REFERENCE_SEEDS
    if reference is None:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh).get(w.name, {})
    print(json.dumps(machine_facts()), file=sys.stderr)

    workroot = os.path.join(HERE, ".work", f"{w.name}-{os.getpid()}")
    try:
        probes = [run_probe(w, input_seed, os.path.join(workroot, f"setup{k}"))
                  for k in range(1 if args.trace else SETUP_PROBES)]
        bench = Bench(wl, w, os.path.join(workroot, "setup0"),
                      [tuple(c) for c in probes[0]["configs"]], reference)
        bench.counters.install()
        try:
            if args.trace:
                metrics = traced_run(bench, input_seed, args.seconds)
            else:
                metrics = timed_run(bench, input_seed, args.seconds,
                                    [p["setup_s"] for p in probes])
        finally:
            bench.counters.uninstall()
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    for error in bench.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
