"""Checks on solver outputs that are computed apart from the solvers.

Nothing here calls into cmpc. Instances are read as raw coordinates,
capacities and power constants; solutions are read through their public
JSON form (per-server radius, power and users, plus the total power).
"""

from __future__ import annotations

import math

import numpy as np

MAX_ENUMERATED = 1 << 18  # 4^9; the arrays grow to about 20 * n bytes per assignment

# Distances are recomputed with numpy, the solvers use math.hypot; the two
# may differ in the last ulp, which a boundary user must not fail on.
DIST_RTOL = 1e-12
POWER_RTOL = 1e-9


class Geometry:
    """Raw arrays of one instance: positions, capacities, power law."""

    def __init__(self, instance):
        self.servers = np.array([(s.pos.x, s.pos.y) for s in instance.servers], dtype=np.float64)
        self.users = np.array([(u.pos.x, u.pos.y) for u in instance.users], dtype=np.float64)
        self.capacity = np.array([s.capacity for s in instance.servers], dtype=np.int64)
        self.c = float(instance.params.c)
        self.alpha = float(instance.params.alpha)
        diff = self.users[None, :, :] - self.servers[:, None, :]
        self.dist = np.hypot(diff[..., 0], diff[..., 1])  # [m, n]

    @property
    def m(self) -> int:
        return len(self.servers)

    @property
    def n(self) -> int:
        return len(self.users)

    def power(self, r):
        return self.c * np.asarray(r, dtype=np.float64) ** self.alpha

    def lower_bound(self) -> float:
        """max over users of c * (distance to the nearest server) ** alpha.

        Every cover pays at least this much: the server that covers the
        worst-placed user needs a radius of at least that user's nearest
        distance.
        """
        return float(self.power(self.dist.min(axis=0).max()))


def cover_errors(geo: Geometry, solution_json: dict) -> list[str]:
    """Geometric, capacity and power checks of one cover; empty when valid."""
    errors: list[str] = []
    seen = np.zeros(geo.n, dtype=np.int64)
    total = 0.0
    for key, rec in solution_json["per_server"].items():
        s = int(key)
        users = np.asarray(rec["users"], dtype=np.int64)
        radius = float(rec["radius"])
        if not 0 <= s < geo.m:
            errors.append(f"unknown server {s}")
            continue
        if len(users) > geo.capacity[s]:
            errors.append(f"server {s} serves {len(users)} users, capacity {geo.capacity[s]}")
        seen[users] += 1
        far = geo.dist[s, users] > radius * (1 + DIST_RTOL)
        if far.any():
            errors.append(f"server {s}: {int(far.sum())} assigned users outside radius {radius}")
        expected = float(geo.power(radius))
        if not math.isclose(float(rec["power"]), expected, rel_tol=POWER_RTOL, abs_tol=1e-300):
            errors.append(f"server {s}: power {rec['power']} != c*r^alpha {expected}")
        total += expected
    if (seen != 1).any():
        errors.append(f"{int((seen == 0).sum())} users uncovered, {int((seen > 1).sum())} covered twice")
    if not math.isclose(float(solution_json["total_power"]), total, rel_tol=POWER_RTOL, abs_tol=1e-300):
        errors.append(f"total power {solution_json['total_power']} != sum of c*r^alpha {total}")
    return errors


def exact_optimum(geo: Geometry) -> float:
    """Minimum total power over every assignment of users to servers.

    Each of the m ** n assignments that respects the capacities costs, per
    server, c * (distance to its farthest assigned user) ** alpha; an idle
    server costs nothing. Only for small instances.
    """
    m, n = geo.m, geo.n
    if m**n > MAX_ENUMERATED:
        raise ValueError(f"{m}**{n} assignments are too many to enumerate")
    server_of = np.indices((m,) * n, dtype=np.int8).reshape(n, -1).T  # [assignment, user]
    dist = geo.dist[server_of, np.arange(n)]
    total = np.zeros(len(server_of))
    fits = np.ones(len(server_of), dtype=bool)
    for s in range(m):
        mine = server_of == s
        total += geo.power(np.where(mine, dist, 0.0).max(axis=1))
        fits &= mine.sum(axis=1) <= geo.capacity[s]
    return float(total[fits].min())
