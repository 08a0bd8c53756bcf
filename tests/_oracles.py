"""Brute-force reference computations and hand-made duals, independent of the library's solvers.

Also holds the scalar per-pair order key and power law that the order table
must equal bit for bit, and, as references for differential tests, a
per-disk, per-member loop over the covering dual's constraints with gamma
prices in the ascent's closed form, which `verify_dual_feasibility` checks
by running maxima and prefix sums, the per-segment loop that
`charge_breakdown` replaced, the `next_event` that built every m*n array
afresh on each event, which the in-place one replaced, the `finalize` that
took one prefix sum per run of equal gamma start, which the one summing up
to m runs at a time replaced, and the exact search before its reach bound,
capacity prune and private-user leaf test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cmpc import Instance, PowerParams, Server, User
from cmpc.model import _TIEBREAK_STRIDE, OrderTable, order_table
from cmpc.certify import CHECK_TOL, DualViolation
from cmpc.primal_dual import AscentStalledError
from cmpc.reference import OptResult, feasible_assignment
from cmpc.solution import make_solution


@dataclass(frozen=True, order=True)
class OrderKey:
    """Strict total order on a server's candidate radii.

    Keys compare lexicographically: distance first, then the cosine of the
    angle between the server->user vector and the x-axis, then a tiebreak
    that encodes (sign of the y-offset descending, user id ascending).
    Larger key means larger (virtual) radius; a disk contains exactly the
    users whose key is <= the boundary user's key.
    """

    dist: float
    cosine: float
    tiebreak: int


def order_key(server: Server, user: User) -> OrderKey:
    """Radius-order key of `user` as seen from `server`.

    A coincident pair (distance 0) gets cosine 0 by convention, keeping the
    zero-radius disk well defined.
    """
    dx = user.pos.x - server.pos.x
    dy = user.pos.y - server.pos.y
    dist = math.hypot(dx, dy)
    cosine = dx / dist if dist > 0 else 0.0
    sign_y = (dy > 0) - (dy < 0)
    tiebreak = (1 - sign_y) * _TIEBREAK_STRIDE + user.id
    return OrderKey(dist, cosine, tiebreak)


def power(params: PowerParams, r: float) -> float:
    """Transmission power needed for coverage radius r: c * r**alpha."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return params.c * r**params.alpha


def table_key(table: OrderTable, server: int, rank: int) -> OrderKey:
    """The order key of `server`'s disk at `rank`, read from the table."""
    return OrderKey(
        float(table.dist[server, rank]),
        float(table.cosine[server, rank]),
        int(table.tiebreak[server, rank]),
    )


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

    Individual prices take the ascent's closed form: gamma[h, disk] =
    max(0, theta[h] - gamma_start[disk]), none where the start is NaN.
    """

    theta: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    gamma_start: np.ndarray


def reference_dual_violations(instance: Instance, duals) -> list[DualViolation]:
    """verify_dual_feasibility by one Python loop per disk over its members,
    to within the same CHECK_TOL times the largest candidate power."""
    m, n = instance.m, instance.n
    table = order_table(instance)
    tol = CHECK_TOL * float(table.power.max())
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
        start = float(duals.gamma_start[idx])
        gammas = np.maximum(theta[members] - (math.inf if math.isnan(start) else start), 0.0)
        slack = theta[members] - beta[idx] - gammas
        for pos in np.nonzero(slack > tol)[0].tolist():
            violations.append(DualViolation("user price exceeds disk prices", float(slack[pos]), user=int(members[pos]), disk=idx))
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


def next_event_reference(duals) -> tuple[float, list[int]]:
    """next_event with fresh arrays on every event: the census from
    isnan(covered_at) gathered in rank order, integer rates."""
    census = np.cumsum(np.isnan(duals.covered_at)[duals.table.order], axis=1)
    room = duals.remaining_capacity[:, None]
    leaves_beta = ((census <= room) | (room == 0)).ravel()
    duals.gamma_start[np.isnan(duals.gamma_start) & leaves_beta] = duals.clock
    rates = np.minimum(room, census).ravel()
    positive = rates > 0
    if not positive.any():
        raise AscentStalledError("no disk can ascend but users remain uncovered")
    residual = duals.powers - duals.lhs
    delta = max(float(np.min(residual[positive] / rates[positive])), 0.0)
    after = residual - rates * delta
    duals.lhs += rates * delta
    duals.clock += delta
    return delta, np.flatnonzero(positive & (after <= duals.tight_tol)).tolist()


def finalize_mu_by_runs(duals) -> np.ndarray:
    """finalize's mu by one prefix sum of max(0, theta - g) over
    order[s, :hi] per run [lo, hi) of ranks of server s with gamma start g."""
    m, n = duals.table.order.shape
    theta = duals.theta[duals.table.order]
    starts = duals.gamma_start.reshape(m, n)
    lhs = duals.capacity[:, None] * duals.beta.reshape(m, n)
    for s in range(m):
        edges = [0, *(np.flatnonzero(np.diff(starts[s])) + 1).tolist(), n]
        for lo, hi in zip(edges, edges[1:]):
            gamma = np.maximum(theta[s, :hi] - starts[s, lo], 0.0)
            lhs[s, lo:hi] += np.cumsum(gamma)[lo:hi]
    return np.maximum(0.0, (lhs - duals.table.power).max(axis=1))


def opt_solve_reference(instance: Instance) -> OptResult:
    """opt_solve pruning on accumulated power alone, with no node budget:
    the same depth-first order, each server's options cheapest first."""
    if not instance.has_sufficient_capacity():
        return OptResult(status="infeasible", nodes_explored=0)
    n, m = instance.n, instance.m
    table = order_table(instance)
    power = table.power.tolist()
    capacity = [srv.capacity for srv in instance.servers]
    all_users_mask = (1 << n) - 1
    member_mask = []
    for s in range(m):
        mask = 0
        for h in table.order[s].tolist():
            mask |= 1 << h
            member_mask.append(mask)
    options = [[None] + sorted(range(n), key=lambda t: (power[s][t], t)) for s in range(m)]
    nodes = 0
    best_power = math.inf
    best = None

    def descend(s, power_so_far, choice, covered, cap):
        nonlocal nodes, best_power, best
        nodes += 1
        if power_so_far >= best_power:
            return
        if s == m:
            if covered != all_users_mask or cap < n:
                return
            assignment = feasible_assignment(choice, instance)
            if assignment is not None:
                best_power = power_so_far
                best = (list(choice), assignment)
            return
        for rank in options[s]:
            if rank is None:
                choice.append(None)
                descend(s + 1, power_so_far, choice, covered, cap)
            else:
                extra = power[s][rank]
                if power_so_far + extra >= best_power:
                    break
                choice.append(rank)
                descend(s + 1, power_so_far + extra, choice, covered | member_mask[s * n + rank], cap + capacity[s])
            choice.pop()

    descend(0, 0.0, [], 0, 0)
    if best is None:
        return OptResult(status="infeasible", nodes_explored=nodes)
    choice, assignment = best
    ranks = [-1 if rank is None else rank for rank in choice]
    return OptResult(status="optimal", nodes_explored=nodes, solution=make_solution(instance, ranks, assignment))
