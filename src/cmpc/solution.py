"""Cover solutions: one chosen disk per server plus a user->server assignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Disk, Instance


@dataclass(frozen=True)
class Solution:
    """A power assignment (at most one disk per server) covering all users."""

    chosen: tuple[Optional[Disk], ...]
    assignment: tuple[int, ...]
    total_power: float

    def loads(self) -> list[int]:
        """Users served per server; an unassigned user (-1) counts for none."""
        counts = [0] * len(self.chosen)
        for s in self.assignment:
            if 0 <= s < len(counts):
                counts[s] += 1
        return counts

    def to_json_dict(self) -> dict:
        per_server: dict[str, dict] = {}
        for s, disk in enumerate(self.chosen):
            if disk is None:
                continue
            users = [u for u, srv in enumerate(self.assignment) if srv == s]
            per_server[str(s)] = {
                "radius": disk.key.dist,
                "power": disk.power,
                "users": users,
            }
        return {"per_server": per_server, "total_power": self.total_power}


def make_solution(
    instance: Instance,
    chosen: list[Optional[Disk]],
    assignment: list[int],
) -> Solution:
    total = sum(d.power for d in chosen if d is not None)
    if len(chosen) != instance.m:
        raise ValueError("chosen must have one slot per server")
    if len(assignment) != instance.n:
        raise ValueError("assignment must cover every user")
    return Solution(chosen=tuple(chosen), assignment=tuple(assignment), total_power=total)
