"""Brute-force reference computations and hand-made duals, independent of the library's solvers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from cmpc import Instance


def assignment_power(instance: Instance, assign: tuple[int, ...]) -> float | None:
    """Total power of serving each user from assign[u], or None if overloaded.

    Each server's disk reaches its farthest assigned user.
    """
    m = instance.m
    loads = [0] * m
    for s in assign:
        loads[s] += 1
    for s in range(m):
        if loads[s] > instance.servers[s].capacity:
            return None
    total = 0.0
    for s in range(m):
        radius = 0.0
        hit = False
        sx, sy = instance.servers[s].pos.x, instance.servers[s].pos.y
        for u, srv in enumerate(assign):
            if srv != s:
                continue
            hit = True
            radius = max(radius, math.hypot(instance.users[u].pos.x - sx, instance.users[u].pos.y - sy))
        if hit:
            total += instance.params.c * radius**instance.params.alpha
    return total


def flat_enumeration_optimum(instance: Instance) -> float:
    """Minimum power over all m^n user->server assignments."""
    best = math.inf
    for assign in itertools.product(range(instance.m), repeat=instance.n):
        value = assignment_power(instance, assign)
        if value is not None:
            best = min(best, value)
    return best


def brute_force_assignment_exists(allowed: list[list[int]], capacities: list[int]) -> bool:
    """Whether any assignment respects the allowed sets and capacities."""
    n = len(allowed)
    m = len(capacities)
    for assign in itertools.product(range(m), repeat=n):
        if any(assign[u] not in allowed[u] for u in range(n)):
            continue
        loads = [0] * m
        for s in assign:
            loads[s] += 1
        if all(loads[s] <= capacities[s] for s in range(m)):
            return True
    return False


@dataclass(frozen=True)
class ManualDuals:
    """Hand-specified dual values for feeding the feasibility checker.

    `gamma` maps (user, disk_index) to an individual price; absent pairs are 0.
    """

    theta: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    gamma: dict[tuple[int, int], float] = field(default_factory=dict)

    def gamma_members_array(self, disk_index: int, members: np.ndarray) -> np.ndarray:
        return np.array([self.gamma.get((int(h), disk_index), 0.0) for h in members], dtype=np.float64)
