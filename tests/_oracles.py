"""Brute-force reference computations and hand-made duals, independent of the library's solvers.

Also holds the per-disk and per-segment checker loops that the blocked
`verify_dual_feasibility` and `charge_breakdown` replaced, as references for
differential tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from cmpc import Instance
from cmpc.model import order_table
from cmpc.primal_dual import DualViolation


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

    def gamma_block(self, lo: int, hi: int, members: np.ndarray) -> np.ndarray:
        return np.array(
            [[self.gamma.get((int(h), idx), 0.0) for h in members] for idx in range(lo, hi)],
            dtype=np.float64,
        ).reshape(hi - lo, len(members))


def reference_dual_violations(instance: Instance, duals, tol: float = 1e-7) -> list[DualViolation]:
    """verify_dual_feasibility by one gamma_block call and Python loop per disk."""
    m, n = instance.m, instance.n
    table = order_table(instance)
    theta = np.asarray(duals.theta, dtype=np.float64)
    beta = np.asarray(duals.beta, dtype=np.float64)
    mu = np.asarray(duals.mu, dtype=np.float64)
    violations: list[DualViolation] = []

    for h in np.nonzero(theta < -tol)[0].tolist():
        violations.append(DualViolation("negative user price", float(-theta[h]), user=h))
    for idx in np.nonzero(beta < -tol)[0].tolist():
        violations.append(DualViolation("negative flat price", float(-beta[idx]), disk=idx))
    for s in np.nonzero(mu < -tol)[0].tolist():
        violations.append(DualViolation("negative slack price", float(-mu[s]), server=s))

    for idx in range(m * n):
        s, rank = divmod(idx, n)
        members = table.order[s, : rank + 1]
        gammas = np.asarray(duals.gamma_block(idx, idx + 1, members)[0], dtype=np.float64)
        slack = theta[members] - beta[idx] - gammas
        for pos in np.nonzero((gammas < -tol) | (slack > tol))[0].tolist():
            h, g = int(members[pos]), float(gammas[pos])
            if g < -tol:
                violations.append(DualViolation("negative individual price", -g, user=h, disk=idx))
            if slack[pos] > tol:
                violations.append(DualViolation("user price exceeds disk prices", float(slack[pos]), user=h, disk=idx))
        lhs = instance.servers[s].capacity * beta[idx] + float(gammas.sum())
        budget_slack = lhs - table.power[s, rank] - mu[s]
        if budget_slack > tol:
            violations.append(DualViolation("disk budget exceeded", float(budget_slack), disk=idx))
    return violations


def reference_charge_breakdown(instance: Instance, trace, duals, event_index: int) -> dict[int, float]:
    """charge_breakdown by one Python pass over the members per trace segment."""
    ev = trace[event_index]
    members = order_table(instance).order[ev.server, : ev.rank + 1].tolist()
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)
    g = float(duals.gamma_start[ev.disk_index])

    charges = {h: float(max(0.0, covered_at[h] - g)) for h in members}

    if g > 0:
        timeline: list[tuple[float, int]] = [(0.0, instance.servers[ev.server].capacity)]
        for other in trace:
            if other.server == ev.server:
                timeline.append((other.clock, other.remaining_after))
        cuts = sorted({0.0} | {e.clock for e in trace if e.clock < g}) + [g]
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                continue
            kp = next(kp for start, kp in reversed(timeline) if start <= a)
            paying = [h for h in members if covered_at[h] > a][:kp]
            for h in paying:
                charges[h] += b - a
    return charges
