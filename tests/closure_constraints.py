"""Reference oracle for the constraint protocol: one Python closure per
component.

The program evaluates its constraints as arrays (`DsmConstraints`,
`ElasticNetBudget`); the tests compare those against this plain form, and
use it for small hand-written constraint sets. Like the program's, its
`values` and `subgradient` take one x (d,) or a batch X (S, d), and go
through a batch row by row.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Constraint:
    """One convex constraint component: value and a subgradient at x."""

    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered collection of constraint components g_j."""

    components: Sequence[Constraint]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("constraint set needs at least one component")

    def __len__(self):
        return len(self.components)

    def values(self, x: np.ndarray) -> np.ndarray:
        rows = np.reshape(x, (-1, x.shape[-1]))
        out = np.array([[c.value(r) for c in self.components] for r in rows],
                       dtype=float)
        return out.reshape(*x.shape[:-1], len(self))

    def subgradient(self, x: np.ndarray, j) -> np.ndarray:
        rows, js = np.reshape(x, (-1, x.shape[-1])), np.reshape(j, -1)
        out = np.array([self.components[k].subgradient(r)
                        for r, k in zip(rows, js.tolist())], dtype=float)
        return out.reshape(x.shape[:-1] + out.shape[1:])


def elasticnet_closure(rho):
    """The budget ||x||_1 + 0.5 ||x||_2^2 - rho <= 0 as one closure."""
    return ConstraintSet(components=[
        Constraint(value=lambda x: float(np.sum(np.abs(x)) + 0.5 * x @ x - rho),
                   subgradient=lambda x: np.sign(x) + x),
    ])
