"""Cover solutions: one radius and power per server plus a user->server assignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import Instance, order_table


@dataclass(frozen=True)
class Solution:
    """A power per server (its signal disk) and the server of every user.

    `radius[s]` and `power[s]` are server s's disk radius and transmission
    power, both None when the server is off. `assignment[u]` is the server
    that serves user u.
    """

    radius: tuple[Optional[float], ...]
    power: tuple[Optional[float], ...]
    assignment: tuple[int, ...]
    total_power: float

    def loads(self) -> list[int]:
        """Users served per server; an unassigned user (-1) counts for none."""
        counts = [0] * len(self.radius)
        for s in self.assignment:
            if 0 <= s < len(counts):
                counts[s] += 1
        return counts

    def to_json_dict(self) -> dict:
        per_server: dict[str, dict] = {}
        for s, (radius, power) in enumerate(zip(self.radius, self.power)):
            if radius is None:
                continue
            users = [u for u, srv in enumerate(self.assignment) if srv == s]
            per_server[str(s)] = {"radius": radius, "power": power, "users": users}
        return {"per_server": per_server, "total_power": self.total_power}


def make_solution(instance: Instance, ranks: Sequence[int], assignment: Sequence[int]) -> Solution:
    """The cover in which server s uses its disk at rank `ranks[s]` of the
    order table, or is off where `ranks[s]` is -1."""
    if len(ranks) != instance.m:
        raise ValueError("ranks must have one slot per server")
    if len(assignment) != instance.n:
        raise ValueError("assignment must cover every user")
    table = order_table(instance)
    radius = tuple(None if t < 0 else float(table.dist[s, t]) for s, t in enumerate(ranks))
    power = tuple(None if t < 0 else float(table.power[s, t]) for s, t in enumerate(ranks))
    total = sum(p for p in power if p is not None)
    return Solution(radius=radius, power=power, assignment=tuple(assignment), total_power=total)
