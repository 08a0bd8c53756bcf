"""Capacitated minimum power cover: solvers, oracle, baseline, harness.

The package namespace holds the instance types, the solvers, the checkers
and the sweep harness. Internals (the step-wise ascent, candidate disks, the
order table, JSON helpers) are imported from their submodules, for example
`cmpc.primal_dual.init_solver` or `cmpc.model.order_table`.
"""

from .bench import ExperimentConfig, ResultRow, run_experiment, write_csv
from .certify import check_charging, dual_objective, verify_dual_feasibility
from .generate import GenConfig, gen_instance
from .metrics import validate
from .model import Instance, InsufficientCapacityError, Point, PowerParams, Server, User, dump_instance, load_instance
from .primal_dual import AscentStalledError, CapacityInvariantError, pd_solve
from .reference import ncs_solve, opt_solve
from .solution import Solution

__all__ = [
    "AscentStalledError",
    "CapacityInvariantError",
    "ExperimentConfig",
    "GenConfig",
    "Instance",
    "InsufficientCapacityError",
    "Point",
    "PowerParams",
    "ResultRow",
    "Server",
    "Solution",
    "User",
    "check_charging",
    "dual_objective",
    "dump_instance",
    "gen_instance",
    "load_instance",
    "ncs_solve",
    "opt_solve",
    "pd_solve",
    "run_experiment",
    "validate",
    "verify_dual_feasibility",
    "write_csv",
]
