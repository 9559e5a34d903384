"""The benchmark's tracer wraps program names by attribute; a refactor that
removes or renames one must fail the unit tests, not only the benchmark."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from aogd import learner, offline
from aogd.experiment import run_experiment
from aogd.problems import DsmProblem, ElasticNetProblem
from aogd.schedules import FixedScheduleParams
from compare_outputs import write_dataset

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_rounds_and_uninstalls():
    tracer = load_spans().Tracer()
    originals = (learner.run, learner.step, learner.g_max, learner.project_ball)
    tracer.install()
    try:
        assert learner.step is not originals[1]
        T = 7
        trace = learner.run(DsmProblem(2), FixedScheduleParams(0.1, 1.0, 0.1), T,
                            seeds=[0, 1, 2], checkpoints=range(1, T + 1))
    finally:
        tracer.uninstall()
    assert (learner.run, learner.step, learner.g_max,
            learner.project_ball) == originals
    assert trace.lam.shape == (T, 3)
    assert tracer.stats["learner.run"][0] == 1
    # the benchmark's learner.rounds is the count of step calls: one per
    # batched round of all seeds, not one per seed
    for name in ("learner.step", "projections.g_max",
                 "projections.project_ball", "problems.loss.learner"):
        assert tracer.stats[name][0] == T, name


def test_tracer_counts_the_offline_projections():
    # the problems call both projections through `offline`, where the
    # tracer wraps them; a name bound at import would count 0
    rng = np.random.default_rng(0)
    features = rng.normal(size=(20, 4))
    labels = np.where(features[:, 0] > 0, 1.0, -1.0)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for problem in (DsmProblem(3),
                        ElasticNetProblem(labels, features, rho=0.5)):
            offline.solve_offline(problem.materialize(10, [1]), 10)
    finally:
        tracer.uninstall()
    for name in ("offline.project_birkhoff", "offline.project_elasticnet_ball"):
        assert tracer.stats[name][0] > 0, name


def test_every_wrapped_name_is_called(tmp_path, monkeypatch):
    # a name the program imports but no longer calls would read 0 in its
    # layer metric without failing a run: count the calls made through
    # each name the tracer wraps over one cold run of each problem
    spans = load_spans()
    names = [(owner, attr) for owner, attr, _, _ in spans.SPANS]
    names += [(learner, "project_ball"), (offline, "solve_offline_cached")]
    names += [(owner, "loss") for owner in spans.LOSS_OWNERS]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in names:
        monkeypatch.setattr(owner, attr, counted((owner, attr),
                                                 getattr(owner, attr)))
    data = tmp_path / "data.libsvm"
    write_dataset(data)
    for name, problem in (("dsm", {"kind": "dsm", "p": 3}),
                          ("elasticnet", {"kind": "elasticnet",
                                          "dataset": str(data), "rho": 1.0})):
        run_experiment({"problem": problem, "algorithm": "a_ogd_convex",
                        "beta": 2.0 / 3.0, "T": 40, "seeds": [0, 1],
                        "output_dir": str(tmp_path / name), "checkpoints": 6})
    uncalled = [f"{owner.__name__}.{attr}" for owner, attr in names
                if not calls[owner, attr]]
    assert uncalled == []
