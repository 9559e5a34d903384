"""Spans around the public functions of each `aogd` module, from outside.

Each name is wrapped where its caller looks it up (a module attribute or a
method on the class), so the program's code is not touched. A span records
its start, its parent span and the time its children cover; on close it
gets its name and end and adds its duration and its self time (duration
minus the time its child spans cover) to per-name totals. Loss calls are named after the layer that made them: the offline
solver, the online learner or the regret accounting.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from aogd import experiment, ingest, learner, metrics, offline, problems

# (owner, attribute, span name, loss context set while the span is open)
SPANS = [
    (experiment, "build_problem", "experiment.build_problem", None),
    (experiment, "load_dataset", "ingest.load_dataset", None),
    (ingest.Dataset, "dense", "ingest.dense", None),
    (experiment, "schedule_arrays", "schedules", None),
    (experiment, "check_conditions", "schedules", None),
    (experiment, "schedule_sums", "schedules", None),
    (learner, "schedule_arrays", "schedules", None),
    (metrics, "loss_regret_bound", "schedules", None),
    (metrics, "constraint_regret_bound", "schedules", None),
    (learner, "run", "learner.run", "learner"),
    (learner, "step", "learner.step", None),
    (learner, "g_max", "projections.g_max", None),
    (offline, "solve_offline", "offline.solve_offline", "offline"),
    (offline, "project_birkhoff", "offline.project_birkhoff", None),
    (offline, "project_elasticnet_ball", "offline.project_elasticnet_ball", None),
    (metrics, "accumulate", "metrics.accumulate", "metrics"),
    (problems.DsmProblem, "materialize", "problems.materialize", None),
    (problems.ElasticNetProblem, "materialize", "problems.materialize", None),
]
LOSS_OWNERS = (problems.DsmProblem, problems.ElasticNetProblem)


class Tracer:
    def __init__(self):
        self.stack = []       # open spans: [start, parent span, child seconds]
        self.context = "other"
        self.clipped = 0      # project_ball calls that moved the iterate
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self._saved = []

    def reset(self):
        self.stats.clear()
        self.clipped = 0

    def _open(self):
        span = [0.0, self.stack[-1] if self.stack else None, 0.0]
        self.stack.append(span)
        span[0] = time.perf_counter()
        return span

    def _close(self, name, span):
        """End the innermost span and add it to `name`'s totals."""
        duration = time.perf_counter() - span[0]
        self.stack.pop()
        st = self.stats[name]
        st[0] += 1
        st[1] += duration
        st[2] += duration - span[2]
        if span[1] is not None:
            span[1][2] += duration

    def root(self, thunk):
        """Run `thunk` as the root span; its self time is what the `aogd run`
        call spends outside every wrapped layer."""
        span = self._open()
        try:
            return thunk()
        finally:
            self._close("experiment", span)

    def _wrap(self, name, fn, context):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open()
            saved = tracer.context
            if context is not None:
                tracer.context = context
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.context = saved
                tracer._close(name, span)
        return wrapper

    def _wrap_loss(self, fn):
        tracer = self

        def loss(*args, **kwargs):
            span = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close("problems.loss." + tracer.context, span)
        return loss

    def _wrap_project_ball(self, fn):
        tracer = self

        def project_ball(x, R, *args, **kwargs):
            span = tracer._open()
            try:
                return fn(x, R, *args, **kwargs)
            finally:
                tracer._close("projections.project_ball", span)
                if float(np.linalg.norm(x)) > R:
                    tracer.clipped += 1
        return project_ball

    def _wrap_solve_cached(self, fn):
        """The cached solve is named by what it did: a cache read, or a solve
        followed by a cache write."""
        tracer = self

        def solve_offline_cached(*args, **kwargs):
            span = tracer._open()
            solves = tracer.stats["offline.solve_offline"][0]
            try:
                return fn(*args, **kwargs)
            finally:
                hit = tracer.stats["offline.solve_offline"][0] == solves
                tracer._close("offline.cache_read" if hit
                              else "offline.cache_write", span)
        return solve_offline_cached

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for owner, attr, name, context in SPANS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), context))
        for owner in LOSS_OWNERS:
            self._patch(owner, "loss", self._wrap_loss(owner.loss))
        self._patch(learner, "project_ball",
                    self._wrap_project_ball(learner.project_ball))
        self._patch(offline, "solve_offline_cached",
                    self._wrap_solve_cached(offline.solve_offline_cached))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> float:
        return sum(st[2] for st in self.stats.values())
