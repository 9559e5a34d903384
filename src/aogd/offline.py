"""Offline optima and exact feasible-set projections for regret accounting.

The online learner never projects onto the feasible set; these projections
exist only to compute the comparator x* = argmin over the feasible set of
the average loss on a stream prefix. Where the prefix supplies that
minimizer in closed form (DSM: the prefix mean S/t), it is returned after
one projection certifies it; otherwise x* is found by accelerated projected
gradient (FISTA momentum with gradient restart) at the constant step 1/L,
L the prefix's bound on the Lipschitz constant of its gradient.
Birkhoff-polytope projection uses Dykstra's
alternating projections (plain alternating projection would converge to a
feasible point, not the Euclidean projection); the elastic-net ball
projection has a closed form in the KKT multiplier once its support is
known. Solutions are cached on disk under a key over the problem spec, the
dataset's bytes, the seed, t and the source of the code that computes them,
the solver's settings among it, so that a stale file is re-solved.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .projections import all_finite


@dataclass(frozen=True)
class OfflineSolution:
    x_star: np.ndarray
    # f_1(x_star) + ... + f_t(x_star), as the solver evaluated it
    loss_sum: float
    iterations: int
    # the gradient-mapping norm of the last iteration, at step min(step, 1);
    # of a closed-form minimizer, at step 1
    mapping_norm: float

    @property
    def tolerance_met(self) -> bool:  # derived, so never stored or read back
        return self.mapping_norm < _SOLVE_TOL


_BIRKHOFF_TOL = 1e-10
_BIRKHOFF_MAX_ITER = 10000
_SOLVE_TOL = 1e-8
_SOLVE_MAX_ITER = 5000
# the modules whose source a cached comparator depends on: the solver and
# projections, the problems' prefix losses and the dataset reader
_KEYED_SOURCES = ("offline.py", "problems.py", "ingest.py")


def _project_doubly_stochastic_affine(X: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {X : X @ 1 = 1, X.T @ 1 = 1}."""
    p = X.shape[0]
    r = X.sum(axis=1) - 1.0
    c = X.sum(axis=0) - 1.0
    s = X.sum() - p
    return X - (r[:, None] + c[None, :]) / p + s / p**2


def project_birkhoff(A: np.ndarray) -> np.ndarray:
    """Euclidean projection of A onto the doubly-stochastic matrices.

    Dykstra's algorithm alternating between the affine set {X1=1, X.T 1=1}
    (closed form) and the nonnegative orthant, with the correction term on
    the orthant half-step. Stops when successive full sweeps differ by less
    than _BIRKHOFF_TOL in Frobenius norm.
    """
    A = np.asarray(A, dtype=float)
    if not all_finite(A):
        raise ValueError("input matrix must be finite")
    # every sweep binds X to new arrays and writes none in place, so
    # neither A nor a previous sweep's X needs a copy, and the X returned
    # is never A
    X = prev = A
    q = np.zeros_like(A)  # correction for the orthant (the non-affine set)
    for _ in range(_BIRKHOFF_MAX_ITER):
        Y = _project_doubly_stochastic_affine(X)
        Z = np.maximum(Y + q, 0.0)
        q = Y + q - Z
        X = Z
        if np.linalg.norm(X - prev) < _BIRKHOFF_TOL:
            return X
        prev = X
    return X


def elasticnet_value(x: np.ndarray):
    """||x||_1 + 0.5 ||x||_2^2 of each row of x."""
    return np.add.reduce(np.abs(x), axis=-1) + 0.5 * np.vecdot(x, x)


def project_elasticnet_ball(v: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 + 0.5 ||x||_2^2 <= rho}.

    For infeasible v the projection is x(nu) = soft_threshold(v, nu)/(1+nu)
    with nu > 0 the multiplier at which the constraint is tight. With
    a = |v| sorted in descending order and the support {1..k}, tightness
    gives sum_{i<=k} (1 + a_i)^2 = (2 rho + k) (1 + nu)^2, so
    nu_k = sqrt(sum_{i<=k} (1 + a_i)^2 / (2 rho + k)) - 1; the support is
    the k with nu_k < a_k, and they form a prefix.
    """
    v = np.asarray(v, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    # |v| serves the finiteness check, the feasibility test (the terms of
    # elasticnet_value) and the soft threshold
    abs_v = np.abs(v)
    if not all_finite(abs_v):
        raise ValueError("input vector must be finite")
    if np.add.reduce(abs_v, axis=-1) + 0.5 * np.vecdot(v, v) <= rho:
        return v.copy()
    a = np.sort(abs_v)[::-1]
    nus = np.sqrt(np.cumsum((1.0 + a) ** 2)
                  / (2.0 * rho + np.arange(1, a.size + 1))) - 1.0
    nu = max(float(nus[np.count_nonzero(nus < a) - 1]), 0.0)
    # soft threshold at nu, scaled by 1 / (1 + nu)
    return np.sign(v) * np.maximum(abs_v - nu, 0.0) / (1.0 + nu)


def solve_offline(problem, t: int, j: int = 0) -> OfflineSolution:
    """Minimize the average loss of the first t rounds of seed j's stream
    over the feasible set.

    A prefix whose `minimizer()` gives a point is not iterated: that point
    is returned with iterations=0 and its unit-step gradient-mapping norm
    ||project_feasible(x - grad(x)) - x||, the stopping rule at step 1, so
    that a wrong closed form still misses the tolerance. Any other prefix
    is minimized by `_accelerated_descent`. The problem must have its first
    t rounds materialized: its `prefix_loss` counts them once, and every
    evaluation reads that count. The solution's `loss_sum` is the prefix
    sum of the evaluation at x_star, and its `tolerance_met` derives from
    its mapping norm.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    prefix = problem.prefix_loss(t, j)
    x = prefix.minimizer()
    if x is not None:
        loss_sum, grad = prefix(x)
        diff = problem.project_feasible(x - grad / t) - x
        mapping_norm = math.sqrt(float(diff @ diff))
        iterations = 0
    else:
        x, loss_sum, iterations, mapping_norm = _accelerated_descent(
            problem, prefix, t)
    return OfflineSolution(x_star=x, loss_sum=loss_sum, iterations=iterations,
                           mapping_norm=mapping_norm)


def _accelerated_descent(problem, prefix, t: int):
    """(x, prefix sum at x, iterations, gradient-mapping norm) of prefix / t
    minimized over the feasible set by accelerated projected gradient (FISTA
    momentum, Beck & Teboulle 2009) with gradient restart (O'Donoghue &
    Candes 2015): each iteration takes a projected step from the
    extrapolated point y and restarts the momentum when the step turns
    against the previous move. The step is the constant 1/L of Beck &
    Teboulle's constant-step form, L the prefix's `smoothness()` bound.
    Stops when the gradient-mapping norm at y, taken at step min(step, 1),
    falls below _SOLVE_TOL, or after _SOLVE_MAX_ITER iterations. That norm
    bounds the unit-step mapping whatever the step, so a bound L that is
    not one can slow or stall the solve but not pass a point the rule
    rejects.
    The prefix is evaluated once at each y and once at the last iterate.
    """
    x = y = problem.project_feasible(np.zeros(problem.dim))
    gy = prefix(y)[1] / t
    smoothness = prefix.smoothness()
    # with L = 0 the gradient is constant and any step is exact
    step = 1.0 / smoothness if smoothness > 0.0 else 1.0
    k = 1.0
    for it in range(1, _SOLVE_MAX_ITER + 1):
        x_new = problem.project_feasible(y - step * gy)
        diff = x_new - y
        # np.linalg.norm(diff) is sqrt(diff @ diff): the same bits. The
        # norm of the step-s mapping, ||diff|| / s, falls as s grows while
        # ||diff|| does not, so for a step above 1 dividing by 1 bounds the
        # unit-step mapping, and dividing by the step would not
        mapping_norm = math.sqrt(float(diff @ diff)) / min(step, 1.0)
        if mapping_norm < _SOLVE_TOL:
            break
        move = x_new - x
        if float(diff @ move) < 0.0:  # (y - x_new).(x_new - x) > 0: restart
            k = 1.0
        k_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * k * k))
        momentum = (k - 1.0) / k_next
        # x_new + 0.0 * move would turn a -0.0 entry into +0.0
        y = x_new if momentum == 0.0 else x_new + momentum * move
        gy = prefix(y)[1] / t
        x, k = x_new, k_next
    return x_new, prefix(x_new)[0], it, mapping_norm


@functools.cache
def _source_digest() -> str:
    """sha256 over the source files of the modules in _KEYED_SOURCES, read
    once per process."""
    digest = hashlib.sha256()
    for name in _KEYED_SOURCES:
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def cache_key(spec: dict) -> str:
    """Digest of what a cached comparator depends on besides its stream and
    t: the problem spec, with the sha256 of the dataset file's bytes in
    place of its path, and the source of the code that computes it, the
    solver's settings among it (`_source_digest`). Computed once per run;
    `solve_offline_cached` folds in the seed and t.
    """
    spec = dict(spec)
    if "dataset" in spec:
        with open(spec["dataset"], "rb") as fh:
            spec["dataset"] = hashlib.sha256(fh.read()).hexdigest()
    key = {"problem": spec, "source": _source_digest()}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def _read_cached(path: str, file_key: str, dim: int):
    """The solution a cache file holds, or None where the file is missing,
    is not a JSON object with `file_key` (a stale key, a truncated write),
    lacks a field of `OfflineSolution` or holds one of the wrong type: an
    x_star that is not a vector of `dim` finite numbers, an `iterations`
    that is not an int, or a `loss_sum` or `mapping_norm` that is not a
    finite float."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError:  # not JSON
            return None
    if not (isinstance(data, dict) and data.get("key") == file_key):
        return None
    try:
        values = {f.name: data[f.name] for f in fields(OfflineSolution)}
        values["x_star"] = np.asarray(values["x_star"], dtype=float)
    except (KeyError, TypeError, ValueError):  # a field missing or not numeric
        return None
    sol = OfflineSolution(**values)
    # bool is a subclass of int, so the types are compared, not isinstance
    if (sol.x_star.shape != (dim,) or not all_finite(sol.x_star)
            or type(sol.iterations) is not int
            or not all(type(v) is float and math.isfinite(v)
                       for v in (sol.loss_sum, sol.mapping_norm))):
        return None
    return sol


def solve_offline_cached(problem, t: int, cache_dir: str, key: str,
                         seed: int, j: int = 0) -> OfflineSolution:
    """Disk-cached solve_offline of seed j; writes via atomic rename. `key`
    is the run's `cache_key` and `seed` row j's seed. The file is named by
    seed and t; the key it stores is its only identity, and a file that
    `_read_cached` cannot read back as a solution of `problem.dim` entries
    under that key is re-solved and overwritten."""
    path = os.path.join(cache_dir, f"seed{seed}_t{t}.json")
    file_key = hashlib.sha256(f"{key} seed={seed} t={t}".encode()).hexdigest()
    sol = _read_cached(path, file_key, problem.dim)
    if sol is not None:
        return sol
    sol = solve_offline(problem, t, j=j)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # json.dumps takes the C encoder, which json.dump never does; the
            # bytes are the same
            entry = {f.name: getattr(sol, f.name) for f in fields(sol)}
            fh.write(json.dumps({"key": file_key, **entry,
                                 "x_star": sol.x_star.tolist()}))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return sol
