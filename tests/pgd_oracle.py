"""Reference oracle for the offline comparator: plain projected gradient.

`offline.solve_offline` replaces this loop's step rule by spectral steps
(Barzilai-Borwein, starting at 1/L from the prefix's smoothness bound) under
a nonmonotone line search; the tests compare the two. The oracle keeps a
monotone backtracking test and on purpose the old step rule: it starts at
1, doubles the step after each iteration up to a cap of 1 and divides the
mapping by the step itself, so that it stays an independent reference that
reads no bound. Capped at the unit step, it can run out of iterations on a
loose elastic-net ball, where the objective is flat; its last point is
feasible all the same. It takes each step from the last iterate, and it
never reads the prefix's `minimizer()`, so that it is the reference for
DSM's closed form S/t too.
"""

import numpy as np

from aogd.offline import _SOLVE_MAX_ITER, _SOLVE_TOL, OfflineSolution


def solve_offline_pgd(problem, t: int, j: int = 0) -> OfflineSolution:
    """Projected gradient descent with backtracking for the average loss of
    the first t rounds of seed j's stream over the feasible set."""
    if t < 1:
        raise ValueError("t must be >= 1")
    prefix = problem.prefix_loss(t, j)

    def evaluate(x):  # the prefix sum, the average loss and its gradient
        total, grad = prefix(x)
        return total, total / t, grad / t

    x = problem.project_feasible(np.zeros(problem.dim))
    step = 1.0
    sx, fx, gx = evaluate(x)
    for it in range(1, _SOLVE_MAX_ITER + 1):
        # backtracking on the projected step
        while True:
            x_new = problem.project_feasible(x - step * gx)
            diff = x_new - x
            s_new, f_new, g_new = evaluate(x_new)
            if f_new <= fx + gx @ diff + 0.5 / step * float(diff @ diff) + 1e-14:
                break
            step *= 0.5
            if step < 1e-14:
                break
        mapping_norm = float(np.linalg.norm(x_new - x)) / step
        x, sx, fx, gx = x_new, s_new, f_new, g_new
        if mapping_norm < _SOLVE_TOL:
            return OfflineSolution(x_star=x, loss_sum=sx, iterations=it,
                                   mapping_norm=mapping_norm)
        step = min(step * 2.0, 1.0)
    return OfflineSolution(x_star=x, loss_sum=sx, iterations=_SOLVE_MAX_ITER,
                           mapping_norm=mapping_norm)
