"""Offline optima and exact feasible-set projections for regret accounting.

The online learner never projects onto the feasible set; these projections
exist only to compute the comparator x* = argmin over the feasible set of
the average loss on a stream prefix. Where the prefix supplies that
minimizer in closed form (DSM: the prefix mean S/t), it is returned after
one projection certifies it; otherwise x* is found by spectral projected
gradient: Barzilai-Borwein steps, the first at 1/L with L the prefix's bound
on the Lipschitz constant of its gradient, under a nonmonotone line search.
Birkhoff-polytope projection uses Dykstra's
alternating projections (plain alternating projection would converge to a
feasible point, not the Euclidean projection); the elastic-net ball
projection has a closed form in the KKT multiplier once its support is
known. A run's solutions are cached on disk in one file, read once before
its solves and written once after them if any was solved, sealed by a
digest over the problem spec, the dataset's bytes, the source of every
module of the package (the solver's settings among it) and the file's own
bytes, so that a stale, torn or edited file is re-solved.
"""

from __future__ import annotations

import collections
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
    # the gradient-mapping norm at x_star, at step min(step, 1); of a
    # closed-form minimizer, at step 1
    mapping_norm: float

    @property
    def tolerance_met(self) -> bool:  # derived, so never stored or read back
        return self.mapping_norm < _SOLVE_TOL


_BIRKHOFF_TOL = 1e-10
_BIRKHOFF_MAX_ITER = 10000
_SOLVE_TOL = 1e-8
_SOLVE_MAX_ITER = 5000
# the spectral solve's line search and step bounds
_SPG_MEMORY = 10  # the nonmonotone test's window of average values
_SPG_DECREASE = 1e-4  # Armijo's sufficient-decrease fraction
_SPG_MIN_MOVE = 2.0 ** -30  # the shortest fraction of d a search tries
_SPG_STEP_MIN, _SPG_STEP_MAX = 1e-10, 1e10


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
    is minimized by `_spectral_descent`, whose mapping norm is taken at the
    x_star it returns. The problem must have its first t rounds
    materialized: its `prefix_loss` counts them once, and every evaluation
    reads that count. The solution's `loss_sum` is the prefix sum of the
    evaluation at x_star, and its `tolerance_met` derives from its mapping
    norm.
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
        x, loss_sum, iterations, mapping_norm = _spectral_descent(
            problem, prefix, t)
    return OfflineSolution(x_star=x, loss_sum=loss_sum, iterations=iterations,
                           mapping_norm=mapping_norm)


def _spectral_descent(problem, prefix, t: int):
    """(x, prefix sum at x, iterations, gradient-mapping norm at x) of
    prefix / t minimized over the feasible set by spectral projected
    gradient (Birgin, Martinez & Raydan 2000). Each iteration projects
    x - step * grad, with the Barzilai-Borwein step s.s / s.y of the
    average objective (Barzilai & Borwein 1988), 1/L at the start, L the
    prefix's `smoothness()` bound. It then moves along the projected
    direction d by a nonmonotone Armijo search: to the projection output
    itself, or else to x plus the first halving of d whose average value
    is below the largest of the last _SPG_MEMORY ones by the sufficient
    decrease.
    Stops when the gradient-mapping norm at x, ||d|| / min(step, 1), falls
    below _SOLVE_TOL, at iteration _SOLVE_MAX_ITER, or when a search has
    halved d down to _SPG_MIN_MOVE without a decrease; x is not moved
    after the norm is taken. That norm bounds the unit-step mapping
    whatever the step, so no step can pass a point the rule rejects.
    The prefix is evaluated once at the start and once at each point a
    search tries: iterations + halvings times on a converged solve, whose
    stopping iteration evaluates nothing.
    """
    x = problem.project_feasible(np.zeros(problem.dim))
    total, grad = prefix(x)
    grad = grad / t
    recent = collections.deque([total / t], maxlen=_SPG_MEMORY)
    smoothness = prefix.smoothness()
    # with L = 0 the gradient is constant and any step is exact
    step = 1.0 / smoothness if smoothness > 0.0 else 1.0
    for it in range(1, _SOLVE_MAX_ITER + 1):
        trial = problem.project_feasible(x - step * grad)
        d = trial - x
        # the norm of the step-s mapping, ||d|| / s, falls as s grows while
        # ||d|| does not, so for a step above 1 dividing by 1 bounds the
        # unit-step mapping, and dividing by the step would not
        mapping_norm = math.sqrt(float(d @ d)) / min(step, 1.0)
        if mapping_norm < _SOLVE_TOL or it == _SOLVE_MAX_ITER:
            break
        bound, slope = max(recent), _SPG_DECREASE * float(grad @ d)
        a, x_new = 1.0, trial
        total_new, grad_new = prefix(x_new)
        while total_new / t > bound + a * slope:
            if a <= _SPG_MIN_MOVE:
                return x, total, it, mapping_norm
            a *= 0.5
            x_new = x + a * d
            total_new, grad_new = prefix(x_new)
        grad_new = grad_new / t
        s = x_new - x
        sy = float(s @ (grad_new - grad))
        # s.y <= 0 only where the objective is linear along s, up to rounding
        step = (min(max(float(s @ s) / sy, _SPG_STEP_MIN), _SPG_STEP_MAX)
                if sy > 0.0 else _SPG_STEP_MAX)
        x, total, grad = x_new, total_new, grad_new
        recent.append(total / t)
    return x, total, it, mapping_norm


@functools.cache
def _source_digest() -> str:
    """sha256 over the name and source of every module of the package, in
    name order, read once per process: no module the comparator depends on
    can be left out."""
    digest = hashlib.sha256()
    package = os.path.dirname(__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source = hashlib.sha256(fh.read()).hexdigest()
            digest.update(f"{name} {source}\n".encode())
    return digest.hexdigest()


def cache_key(spec: dict) -> str:
    """Digest of what a cached comparator depends on besides its stream and
    t: the problem spec, with the sha256 of the dataset file's bytes in
    place of its path, and the source of the code that computes it, the
    solver's settings among it (`_source_digest`). Computed once per run;
    the cache file keys each entry by its seed and t.
    """
    spec = dict(spec)
    if "dataset" in spec:
        with open(spec["dataset"], "rb") as fh:
            spec["dataset"] = hashlib.sha256(fh.read()).hexdigest()
    key = {"problem": spec, "source": _source_digest()}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def _seal(key: str, body: bytes) -> bytes:
    """The first line of a cache file: the sha256 of the run's key and of
    every byte that follows the line."""
    digest = hashlib.sha256(key.encode() + b"\n")
    digest.update(body)
    return digest.hexdigest().encode()


# the fields of an entry's JSON header: every field but x_star, which
# follows as raw bytes (tolerance_met is derived, so not a field)
_HEADER_FIELDS = tuple(f.name for f in fields(OfflineSolution)
                       if f.name != "x_star")


def load_solutions(path: str,
                   key: str) -> dict[tuple[int, int], OfflineSolution]:
    """The comparators of the cache file at path, by (seed, t). A missing
    file, or one whose seal does not match its bytes under `key` (another
    run's file, a torn write, an edit), gives {}; a file that cannot be
    read raises. A matching seal means this module's own writer wrote
    those bytes, so nothing else is checked."""
    try:
        with open(path, "rb") as fh:
            seal, _, body = fh.read().partition(b"\n")
    except FileNotFoundError:
        return {}
    if seal != _seal(key, body):
        return {}
    header, _, rows = body.partition(b"\n")
    entries = json.loads(header)
    x_stars = np.frombuffer(rows, dtype="<f8").reshape(len(entries), -1)
    return {(e["seed"], e["t"]): OfflineSolution(
                x_star=x, **{name: e[name] for name in _HEADER_FIELDS})
            for e, x in zip(entries, x_stars)}


def store_solutions(path: str, key: str,
                    solutions: dict[tuple[int, int], OfflineSolution]):
    """Write the comparators of `solutions`, keyed (seed, t), to path by
    atomic rename: the `_seal` line, one JSON list of every entry's seed,
    t and header fields in (seed, t) order, then their x_star rows in the
    same order as little-endian float64 bytes, which round-trip bit for
    bit."""
    items = sorted(solutions.items())  # the keys are distinct
    # json.dumps takes the C encoder, which json.dump never does
    header = json.dumps([
        {"seed": seed, "t": t,
         **{name: getattr(sol, name) for name in _HEADER_FIELDS}}
        for (seed, t), sol in items]).encode()
    rows = np.stack([sol.x_star for _, sol in items]).astype("<f8").tobytes()
    body = header + b"\n" + rows
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_seal(key, body) + b"\n" + body)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def solve_offline_cached(problem, t: int, cache: dict, seed: int,
                         j: int = 0) -> OfflineSolution:
    """Row j's comparator at t: `cache[seed, t]`, with `seed` row j's seed
    and `cache` the map `load_solutions` returns; on a miss, the
    `solve_offline` result, added to the cache for `store_solutions`."""
    sol = cache.get((seed, t))
    if sol is None:
        sol = cache[seed, t] = solve_offline(problem, t, j=j)
    return sol
