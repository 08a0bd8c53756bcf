"""Solution validation and the quantities reported by the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, order_key
from .solution import Solution


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a solution against the covering constraints.

    Violation codes: "coverage" (user not assigned to any server),
    "containment" (assigned to a server whose disk excludes it), "capacity"
    (server over capacity), "no-disk" (assigned to a server that selected no
    disk).
    """

    coverage_ok: bool
    capacity_ok: bool
    single_disk_ok: bool
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(instance: Instance, solution: Solution) -> ValidationReport:
    violations: list[tuple[str, str]] = []
    coverage_ok = True
    capacity_ok = True
    single_disk_ok = True

    for u in range(instance.n):
        s = solution.assignment[u]
        if s < 0 or s >= instance.m:
            coverage_ok = False
            violations.append(("coverage", f"user {u} is not assigned to any server"))
            continue
        disk = solution.chosen[s]
        if disk is None:
            coverage_ok = False
            single_disk_ok = False
            violations.append(("no-disk", f"user {u} assigned to server {s} which selected no disk"))
            continue
        key = order_key(instance.servers[s], instance.users[u])
        if not key <= disk.key:
            coverage_ok = False
            violations.append(("coverage", f"user {u} lies outside server {s}'s chosen disk"))
            violations.append(("containment", f"server {s}'s disk does not contain assigned user {u}"))

    loads = solution.loads()
    for s, srv in enumerate(instance.servers):
        if loads[s] > srv.capacity:
            capacity_ok = False
            violations.append(("capacity", f"server {s} serves {loads[s]} users, capacity {srv.capacity}"))

    return ValidationReport(
        coverage_ok=coverage_ok,
        capacity_ok=capacity_ok,
        single_disk_ok=single_disk_ok,
        violations=tuple(violations),
    )


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
