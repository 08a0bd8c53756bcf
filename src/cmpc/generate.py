"""Seeded random instance generation for the benchmark studies.

Users are uniform over the full square [0, l]^2; servers are uniform over a
concentric square whose side is a fraction `lam` of l, which controls how
concentrated the servers are. Capacities are integers drawn around the
average `kbar` and then topped up round-robin until they can hold all users.

Reproducibility: numpy's PCG64 generator seeded through SeedSequence(seed),
with three spawned substreams used in a fixed order (server positions, user
positions, capacities). Identical config and seed give identical instances
on any platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Instance, Point, PowerParams, Server, User


def _capacity_bounds(kbar: float) -> tuple[int, int]:
    """Least and greatest capacity drawn for average kbar: the integers in [kbar/2, 3*kbar/2]."""
    return math.ceil(kbar / 2.0), math.floor(3.0 * kbar / 2.0)


@dataclass(frozen=True)
class GenConfig:
    """Parameters of one random instance draw."""

    m: int
    n: int
    kbar: float
    seed: int
    c: float = 1.0
    alpha: float = 2.0
    l: float = 100.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.kbar >= 0 and math.isfinite(self.kbar)):
            raise ValueError(f"kbar must be finite and >= 0, got {self.kbar}")
        lo, hi = _capacity_bounds(self.kbar)
        if lo > hi:
            raise ValueError(f"kbar must be 0 or >= 2/3 (no integer capacity in [kbar/2, 3*kbar/2]), got {self.kbar}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        if self.l <= 0:
            raise ValueError("side length l must be positive")


def adjust_capacities(capacities: list[int], n: int) -> list[int]:
    """Top capacities up round-robin (from server 0) until they sum to >= n.

    Already-sufficient capacities are returned unchanged.
    """
    caps = list(capacities)
    deficit = n - sum(caps)
    if deficit <= 0:
        return caps
    for i in range(deficit):
        caps[i % len(caps)] += 1
    return caps


def gen_instance(config: GenConfig) -> Instance:
    """Draw one instance; deterministic in (config, seed)."""
    if config.lam * config.l == 0 and config.m > 1:
        warnings.warn("server area has side 0: all servers coincide", stacklevel=2)

    ss = np.random.SeedSequence(config.seed)
    server_stream, user_stream, cap_stream = (np.random.default_rng(s) for s in ss.spawn(3))

    side = config.lam * config.l
    origin = (config.l - side) / 2.0
    server_xy = origin + server_stream.uniform(0.0, 1.0, size=(config.m, 2)) * side
    user_xy = user_stream.uniform(0.0, config.l, size=(config.n, 2))

    lo, hi = _capacity_bounds(config.kbar)
    caps = cap_stream.integers(lo, hi + 1, size=config.m).tolist()
    caps = adjust_capacities(caps, config.n)

    servers = tuple(
        Server(id=i, pos=Point(x, y), capacity=k)
        for i, ((x, y), k) in enumerate(zip(server_xy.tolist(), caps))
    )
    users = tuple(User(id=j, pos=Point(x, y)) for j, (x, y) in enumerate(user_xy.tolist()))
    return Instance(params=PowerParams(config.c, config.alpha), servers=servers, users=users)
