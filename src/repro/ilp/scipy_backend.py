"""scipy/HiGHS backend for the integer-program models.

The paper solves its ILPs with LP_solve; our primary artefact is the
pure-Python solver in :mod:`repro.ilp.branch_bound` (it exposes the
iteration counts Figures 14-15 plot).  For larger end-to-end runs this
module offers ``scipy.optimize.milp`` (HiGHS) as a fast drop-in
backend producing the same optima.
"""

from __future__ import annotations

import time

import numpy as np

from .branch_bound import SolveResult, SolveStats, build_matrices
from .model import IntegerProgram


#: ``scipy.optimize.milp`` status codes that are not success, mapped
#: to typed :class:`SolveResult` statuses; any other code (4, "other",
#: and codes a future scipy may add) is reported as ``"numerical"``.
_MILP_STATUS = {1: "time-limit", 2: "infeasible", 3: "unbounded"}


def solve_scipy(problem: IntegerProgram) -> SolveResult:
    """Solve with ``scipy.optimize.milp``; same result contract as
    :func:`repro.ilp.branch_bound.solve_branch_bound`."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    start = time.perf_counter()
    mat = build_matrices(problem)
    n = len(mat.names)
    stats = SolveStats(
        num_variables=problem.num_variables,
        num_constraints=problem.num_constraints,
    )
    if n == 0:
        stats.wall_time = time.perf_counter() - start
        return SolveResult(
            status="optimal",
            values={},
            objective=problem.objective_constant,
            stats=stats,
        )

    constraints = []
    if len(mat.a_ub):
        constraints.append(
            LinearConstraint(mat.a_ub, -np.inf * np.ones(len(mat.b_ub)), mat.b_ub)
        )
    if len(mat.a_eq):
        constraints.append(LinearConstraint(mat.a_eq, mat.b_eq, mat.b_eq))

    result = milp(
        c=mat.c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(np.zeros(n), np.ones(n)),
    )
    stats.wall_time = time.perf_counter() - start
    if not result.success:
        return SolveResult(
            status=_MILP_STATUS.get(result.status, "numerical"), stats=stats
        )
    values = {name: int(round(result.x[j])) for j, name in enumerate(mat.names)}
    return SolveResult(
        status="optimal",
        values=values,
        objective=float(result.fun) + problem.objective_constant,
        stats=stats,
    )
