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

from .model import MAX_CAPACITY, Instance, PowerParams


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
        if hi > MAX_CAPACITY:
            raise ValueError(f"kbar is too large: the largest capacity drawn, floor(3*kbar/2), exceeds 2**63 - 1, got {self.kbar}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        if not (self.l > 0 and math.isfinite(self.l)):
            raise ValueError(f"side length l must be finite and positive, got {self.l}")
        PowerParams(self.c, self.alpha)  # raises for a c or alpha that gen_instance could not use
        # A draw lies in the square [0, l]^2, so no power exceeds c * (2 l)**alpha
        # and no cover's total exceeds m times that.
        try:
            largest = self.m * self.c * (2.0 * self.l) ** self.alpha
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            raise ValueError(f"m = {self.m}, c = {self.c}, l = {self.l} and alpha = {self.alpha} admit powers past the float range")


def adjust_capacities(capacities: list[int], n: int) -> list[int]:
    """Top capacities up round-robin (from server 0) until they sum to >= n.

    Already-sufficient capacities are returned unchanged.
    """
    caps = list(capacities)
    deficit = n - sum(caps)
    if deficit <= 0:
        return caps
    rounds, rest = divmod(deficit, len(caps))
    return [k + rounds + (i < rest) for i, k in enumerate(caps)]


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
    caps = adjust_capacities(cap_stream.integers(lo, hi + 1, size=config.m).tolist(), config.n)
    return Instance(PowerParams(config.c, config.alpha), server_xy=server_xy, user_xy=user_xy, capacity=np.array(caps, dtype=np.int64))
