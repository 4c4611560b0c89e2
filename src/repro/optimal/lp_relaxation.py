"""LP relaxation of the optimal-matching integer program.

Relaxing ``x_{i,j} in {0,1}`` to ``x_{i,j} in [0,1]`` in program (1)-(4)
yields a linear program solvable in polynomial time whose optimum is an
*upper bound* on the true optimal social welfare.  The bound serves two
purposes in this repository:

* cross-checking the exact solvers in tests (``exact <= LP bound``), and
* estimating the proposed algorithm's optimality gap on markets too large
  to solve exactly (the paper could not report Fig. 7-scale gaps at all).

The quadratic interference constraint ``x_{i,j} * x_{i,j'} = 0`` for each
interfering pair is linearised the standard way as
``x_{i,j} + x_{i,j'} <= 1``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.market import SpectrumMarket
from repro.errors import SolverError

__all__ = ["lp_relaxation_bound"]


def lp_relaxation_bound(market: SpectrumMarket) -> float:
    """Solve the LP relaxation of (1)-(4) and return its optimal value.

    Variables are indexed ``x[channel * N + buyer]``.  Uses scipy's HiGHS
    backend.  Raises :class:`~repro.errors.SolverError` if the LP solver
    reports failure (should not happen for well-formed markets: the LP is
    always feasible, e.g. ``x = 0``).
    """
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    num_buyers = market.num_buyers
    num_channels = market.num_channels
    num_vars = num_buyers * num_channels
    utilities = market.utilities

    # linprog minimises, so negate the welfare objective.
    objective = np.zeros(num_vars)
    for channel in range(num_channels):
        for buyer in range(num_buyers):
            objective[channel * num_buyers + buyer] = -float(
                utilities[buyer, channel]
            )

    rows: List[int] = []
    constraint_rows = 0
    matrix = lil_matrix((0, num_vars))

    # Count constraints first: one per buyer + one per (channel, edge).
    edge_constraints = sum(
        market.graph(channel).num_edges for channel in range(num_channels)
    )
    total_rows = num_buyers + edge_constraints
    matrix = lil_matrix((total_rows, num_vars))
    upper = np.ones(total_rows)

    row = 0
    # Constraint (2): each buyer holds at most one channel.
    for buyer in range(num_buyers):
        for channel in range(num_channels):
            matrix[row, channel * num_buyers + buyer] = 1.0
        row += 1
    # Constraint (3), linearised: interfering pairs can't share a channel.
    for channel in range(num_channels):
        for j, k in market.graph(channel).edges():
            matrix[row, channel * num_buyers + j] = 1.0
            matrix[row, channel * num_buyers + k] = 1.0
            row += 1

    result = linprog(
        objective,
        A_ub=matrix.tocsr(),
        b_ub=upper,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return float(-result.fun)
