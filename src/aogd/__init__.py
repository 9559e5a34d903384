"""Adaptive online gradient descent for convex problems with long-term constraints."""

from .learner import Trace, run, step
from .metrics import RegretReport, accumulate, bound_compliance, fit_rate_exponent
from .offline import OfflineSolution, project_birkhoff, project_elasticnet_ball, solve_offline
from .problems import (DsmConstraints, DsmProblem, ElasticNetBudget,
                       ElasticNetProblem)
from .projections import g_max, project_ball, project_nonneg
from .schedules import (FixedScheduleParams, ProblemConstants, Regime,
                        ScheduleParams, check_conditions,
                        constraint_regret_bound, eta_at, loss_regret_bound,
                        mu_at, schedule_sums, theta_at)

__all__ = [
    "DsmConstraints", "DsmProblem", "ElasticNetBudget", "ElasticNetProblem",
    "FixedScheduleParams", "OfflineSolution",
    "ProblemConstants", "Regime", "RegretReport", "ScheduleParams", "Trace",
    "accumulate", "bound_compliance", "check_conditions",
    "constraint_regret_bound", "eta_at", "fit_rate_exponent", "g_max",
    "loss_regret_bound", "mu_at",
    "project_ball", "project_birkhoff", "project_elasticnet_ball",
    "project_nonneg", "run", "schedule_sums", "solve_offline", "step",
    "theta_at",
]

__version__ = "0.1.0"
