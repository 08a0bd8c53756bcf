"""Reference solvers: exhaustive exact optimum and the nearest-server greedy.

The exact solver enumerates one radius choice per server (one of its n
candidate disks, or none) depth first, with branch-and-bound pruning. The
incumbent starts one ulp above the greedy cover's power. A node is pruned
when its power so far plus the least power that reaches its dearest
uncovered user (reach_costs) meets the incumbent, or when the servers still
to choose cannot hold the users that the chosen ones cannot: those outside
every chosen disk, and those beyond the chosen servers' capacity. A leaf
that covers every user is checked by Hall's condition for each server alone
(private_users_fit) and then by capacitated bipartite matching. Every prune
is admissible, in floating point too, so the search returns the first
optimal leaf in its order, as exhaustive enumeration does. It is meant for
desk-scale instances; a node budget turns overruns into an explicit "budget
exceeded" outcome instead of an open-ended search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Instance, OrderTable, key_order, order_table, require_capacity
from .solution import Solution, make_solution

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class OptResult:
    """Outcome of the exact search."""

    status: str  # "optimal" | "budget_exceeded" | "infeasible"
    nodes_explored: int
    solution: Optional[Solution] = None

    @property
    def value(self) -> float:
        if self.solution is None:
            raise ValueError(f"no solution available (status: {self.status})")
        return self.solution.total_power

    def to_json_dict(self) -> dict:
        out = {"status": self.status, "nodes_explored": self.nodes_explored}
        if self.solution is not None:
            out["solution"] = self.solution.to_json_dict()
        return out


def feasible_assignment(ranks: list[Optional[int]], instance: Instance) -> Optional[list[int]]:
    """Capacity-respecting user->server assignment under the chosen disks.

    `ranks[s]` is the rank of server s's chosen disk in the order table, or
    None when the server is off. Each user may go to any server whose chosen
    disk contains it; a server holds at most its capacity. Solved as
    bipartite matching with server-side capacities (augmenting paths);
    returns the assignment or None.
    """
    n = instance.n
    m = instance.m
    order = order_table(instance).order
    allowed: list[list[int]] = [[] for _ in range(n)]
    for s, rank in enumerate(ranks):
        if rank is None:
            continue
        for h in order[s, : rank + 1].tolist():
            allowed[h].append(s)

    capacity = instance.capacity.tolist()
    served: list[list[int]] = [[] for _ in range(m)]
    assignment = [-1] * n

    def augment(user: int, banned: set[int]) -> bool:
        for s in allowed[user]:
            if s in banned:
                continue
            banned.add(s)
            if len(served[s]) < capacity[s]:
                served[s].append(user)
                assignment[user] = s
                return True
            for rider in served[s]:
                if augment(rider, banned):
                    served[s].remove(rider)
                    served[s].append(user)
                    assignment[user] = s
                    return True
        return False

    for user in range(n):
        if not augment(user, set()):
            return None
    return assignment


def reach_costs(table: OrderTable) -> np.ndarray:
    """reach_cost[s, h]: the least power any server s' >= s pays for a disk containing user h.

    Server s' reaches h at the earliest with its disk at rank rank[s', h];
    the array is that disk's power, minimised over the servers from s on.
    """
    to_user = table.power[np.arange(table.power.shape[0])[:, None], table.rank]
    return np.minimum.accumulate(to_user[::-1], axis=0)[::-1]


def private_users_fit(masks: list[int], capacity: list[int]) -> bool:
    """Whether each server can hold the users that only its disk contains.

    `masks[s]` is the bit set of the users inside server s's chosen disk (0
    when it is off) and `capacity[s]` its capacity. A user inside one chosen
    disk alone must go to that server, so this is Hall's condition for each
    server on its own: necessary for feasible_assignment to succeed, not
    sufficient.
    """
    covered = shared = 0
    for mask in masks:
        shared |= covered & mask
        covered |= mask
    for mask, cap in zip(masks, capacity):
        if (mask & ~shared).bit_count() > cap:
            return False
    return True


def opt_solve(instance: Instance, budget: int = DEFAULT_NODE_BUDGET) -> OptResult:
    """Exact minimum-power cover by exhaustive radius enumeration.

    Every server independently picks one of its n distinct candidate disks or
    stays off, in depth-first order with servers in id order and each
    server's options cheapest first. The incumbent starts just above the
    power of ncs_solve's cover; a node is pruned when a lower bound on the
    power of every leaf below it reaches the incumbent, and a leaf is
    validated with feasible_assignment once it covers every user, holds n
    users in total and no server's private users exceed its capacity. A
    spent node budget yields status "budget_exceeded" with no solution,
    mirroring an external solver's time cutoff; `nodes_explored` is then the
    budget. Raises ValueError unless `budget` is an int >= 1.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(f"node budget must be an int, got {budget!r}")
    if budget < 1:
        raise ValueError(f"node budget must be >= 1, got {budget}")
    if not instance.has_sufficient_capacity():
        return OptResult(status="infeasible", nodes_explored=0)

    n, m = instance.n, instance.m
    table = order_table(instance)
    power = table.power.tolist()
    capacity = instance.capacity.tolist()

    # member_mask[s * n + t]: bit set of the users inside server s's disk at rank t.
    member_mask = []
    for s in range(m):
        mask = 0
        for h in table.order[s].tolist():
            mask |= 1 << h
            member_mask.append(mask)

    # Per-server ranks sorted by power so cheap subtrees come first; "off"
    # (None) is the zero-power first option.
    options: list[list[Optional[int]]] = [[None] + sorted(range(n), key=row.__getitem__) for row in power]

    # Admissible bounds: a node at server s is pruned only when no leaf below
    # it could pass the leaf tests, so the first optimal leaf in search order
    # is still the one returned. The incumbent only falls, and a leaf passes
    # only below it. A covering leaf below reaches each user h
    # not yet covered with a disk of some server s' >= s, which costs at
    # least reach_cost[s, h]. Its power is the node's power plus its own
    # servers' powers, summed left to right; every term is >= 0 and rounding
    # is monotone, so fl(P + p) >= fl(P + q) for p >= q >= 0, and each
    # partial sum stays >= the node's. So every covering leaf below has power
    # >= fl(power_so_far + max over uncovered h of reach_cost[s, h]). reach[s]
    # holds the bounds dearest first, so a node stops at its first uncovered
    # user. A leaf's matching sends each user not yet covered to a server
    # s' >= s, and the servers already chosen hold at most cap users, all
    # inside their disks: at most min(cap, |covered|). So no leaf below
    # passes once the users left over exceed suffix_capacity[s], the
    # capacity of servers s..m-1. It is on integers only. At a leaf that
    # capacity is 0, so a leaf passes only when it covers every user and
    # cap >= n. A node, a leaf too, is entered only below the incumbent, so
    # it needs no test of its own power: the root's 0 is below the
    # incumbent, which is above the greedy cover's power >= 0; "off" is each
    # node's first child, entered at the node's power before the incumbent
    # can move; and every other child has just passed power_so_far + extra <
    # best_power.
    reach_cost = reach_costs(table)
    dearest = np.argsort(-reach_cost, axis=1, kind="stable")
    reach = [[(costs[h], 1 << h) for h in users] for costs, users in zip(reach_cost.tolist(), dearest.tolist())]
    suffix_capacity = list(itertools.accumulate(capacity[::-1]))[::-1] + [0]

    # The greedy cover is a feasible leaf of this search, and its total_power
    # is that leaf's power summed left to right as power_so_far is. An
    # incumbent one ulp above it lets that leaf and every cheaper one pass,
    # the first optimal leaf among them, so the bound holds from the start.
    nodes = 0
    best_power = math.nextafter(ncs_solve(instance).total_power, math.inf)
    best: Optional[tuple[list[Optional[int]], list[int]]] = None
    exhausted = False

    def descend(s: int, power_so_far: float, choice: list[Optional[int]], covered: int, cap: int) -> None:
        nonlocal nodes, best_power, best, exhausted
        if nodes == budget:
            exhausted = True
            return
        nodes += 1
        if n - min(cap, covered.bit_count()) > suffix_capacity[s]:
            return
        if s == m:
            masks = [0 if rank is None else member_mask[srv * n + rank] for srv, rank in enumerate(choice)]
            if not private_users_fit(masks, capacity):
                return
            assignment = feasible_assignment(choice, instance)
            if assignment is not None:
                best_power = power_so_far
                best = (list(choice), assignment)
            return
        for bound, bit in reach[s]:
            if not covered & bit:
                if power_so_far + bound >= best_power:
                    return
                break
        for rank in options[s]:
            if rank is None:
                choice.append(None)
                descend(s + 1, power_so_far, choice, covered, cap)
            else:
                extra = power[s][rank]
                if power_so_far + extra >= best_power:
                    break  # options are power-sorted: every later one prunes too
                choice.append(rank)
                descend(s + 1, power_so_far + extra, choice, covered | member_mask[s * n + rank], cap + capacity[s])
            choice.pop()
            if exhausted:
                return

    descend(0, 0.0, [], 0, 0)

    if exhausted:
        return OptResult(status="budget_exceeded", nodes_explored=nodes)
    choice, assignment = best  # never None: the greedy cover's leaf passes unless a cheaper one did
    ranks = [-1 if rank is None else rank for rank in choice]
    return OptResult(status="optimal", nodes_explored=nodes, solution=make_solution(instance, ranks, assignment))


def ncs_solve(instance: Instance) -> Solution:
    """Greedy baseline: repeatedly bind the closest capable server-user pair.

    Scans all (server, user) pairs in ascending key order (ties broken by
    server id); a pair binds when the user is still uncovered and the server
    has remaining capacity. Every server's final disk reaches its farthest
    assigned user.
    """
    require_capacity(instance)
    n, m = instance.n, instance.m
    table = order_table(instance)
    # Each row of the table is sorted already, so the one stable argsort in
    # key_order leaves only ties in distance across servers to settle.
    pairs = key_order(table.dist.ravel(), table.cosine.ravel(), table.tiebreak.ravel())
    remaining = instance.capacity.tolist()
    assignment = [-1] * n
    assigned = 0
    for s, u in zip((pairs // n).tolist(), table.order.ravel()[pairs].tolist()):
        if assigned == n:
            break
        if assignment[u] != -1 or remaining[s] == 0:
            continue
        assignment[u] = s
        remaining[s] -= 1
        assigned += 1

    # Server s's rank is the largest rank of a user it serves, -1 for none.
    serves = np.array(assignment) == np.arange(m)[:, None]
    ranks = np.where(serves, table.rank, -1).max(axis=1)
    return make_solution(instance, ranks.tolist(), assignment)
