"""Solution validation and the quantities reported by the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Instance
from .solution import Solution


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a solution against the covering constraints.

    Violation codes, one per faulty user or server: "coverage" (user not
    assigned to any server), "containment" (assigned to a server whose disk
    excludes it), "no-disk" (assigned to a server that selected no disk),
    "capacity" (server over capacity).
    """

    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(instance: Instance, solution: Solution) -> ValidationReport:
    """Check the paper's constraints from the coordinates alone.

    User u, assigned to server s, is covered iff its distance from s,
    math.hypot of the coordinate differences, is at most `solution.radius[s]`;
    a user at exactly the radius is inside, whichever side of the disk's
    boundary user it falls in the order table's tiebreak.
    """
    violations: list[tuple[str, str]] = []
    m, radii = instance.m, solution.radius
    (sx, sy), (ux, uy) = instance.server_xy.T.tolist(), instance.user_xy.T.tolist()
    for u, (x, y, s) in enumerate(zip(ux, uy, solution.assignment, strict=True)):
        if s < 0 or s >= m:
            violations.append(("coverage", f"user {u} is not assigned to any server"))
        elif radii[s] is None:
            violations.append(("no-disk", f"user {u} assigned to server {s} which selected no disk"))
        elif math.hypot(x - sx[s], y - sy[s]) > radii[s]:
            violations.append(("containment", f"server {s}'s disk does not contain assigned user {u}"))

    for s, (load, capacity) in enumerate(zip(solution.loads(), instance.capacity.tolist())):
        if load > capacity:
            violations.append(("capacity", f"server {s} serves {load} users, capacity {capacity}"))
    return ValidationReport(violations=tuple(violations))


def util_variance(instance: Instance, solution: Solution) -> float:
    """Spread of per-server load around the balanced value n/m.

    Computed on raw served-user counts: sum((load_i - n/m)^2) / m.
    """
    m = instance.m
    target = instance.n / m
    loads = solution.loads()
    return sum((load - target) ** 2 for load in loads) / m


def approximation_ratio(alg_power: float, opt_power: float) -> float:
    """alg/opt, with the all-zero case (users on top of servers) as 1."""
    if opt_power <= 0:
        if alg_power <= 0:
            return 1.0
        raise ValueError(
            f"degenerate instance: optimum power {opt_power} but algorithm power {alg_power}"
        )
    return alg_power / opt_power
