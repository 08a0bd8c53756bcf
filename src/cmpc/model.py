"""Geometric domain types for capacitated power cover instances.

A problem instance is a set of servers (position + integer capacity) and a
set of users (position) in the plane, plus the power-law constants. Each
(server, user) pair induces a candidate coverage disk centered at the server
with that user on its boundary; the solvers only ever consider these m*n
disks, all held in one array table per instance (OrderTable). Membership
in a disk is decided by a strict total order on (distance, direction) so
that equidistant users are still served in a well-defined sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Folds (sign-of-y descending, user id ascending) into one integer so that
# the order key stays a plain lexicographic triple (dist, cosine, tiebreak).
# User ids must stay below it.
_TIEBREAK_STRIDE = 2**32

# The ascent holds capacities in int64 arrays.
_MAX_CAPACITY = 2**63 - 1


@dataclass(frozen=True)
class PowerParams:
    """Constants of the power law p = c * r**alpha."""

    c: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"power scale c must be positive, got {self.c}")
        if not (self.alpha >= 1 and math.isfinite(self.alpha)):
            raise ValueError(f"attenuation factor alpha must be >= 1, got {self.alpha}")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Server:
    id: int
    pos: Point
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"server {self.id}: capacity must be >= 0, got {self.capacity}")
        if self.capacity > _MAX_CAPACITY:
            raise ValueError(f"server {self.id}: capacity must be <= 2**63 - 1, got {self.capacity}")


@dataclass(frozen=True)
class User:
    id: int
    pos: Point


@dataclass(frozen=True)
class Instance:
    """A power-cover problem: servers with capacities, users to cover.

    Construction checks shape invariants only. Total capacity >= n is a
    precondition of the covering solvers, not of the type itself, so that
    deficient instances can still be built and reported infeasible by the
    exact oracle.
    """

    params: PowerParams
    servers: tuple[Server, ...]
    users: tuple[User, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", tuple(self.servers))
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.servers) < 1:
            raise ValueError("instance needs at least one server")
        if len(self.users) < 1:
            raise ValueError("instance needs at least one user")
        for i, s in enumerate(self.servers):
            if s.id != i:
                raise ValueError(f"server ids must be 0..m-1 in order, got {s.id} at {i}")
        for j, u in enumerate(self.users):
            if u.id != j:
                raise ValueError(f"user ids must be 0..n-1 in order, got {u.id} at {j}")

    @property
    def m(self) -> int:
        return len(self.servers)

    @property
    def n(self) -> int:
        return len(self.users)

    @property
    def total_capacity(self) -> int:
        return sum(s.capacity for s in self.servers)

    def has_sufficient_capacity(self) -> bool:
        return self.total_capacity >= self.n

    @cached_property
    def _order_table(self) -> "OrderTable":
        # Not a field: equality, hashing and dataclasses.replace() ignore it,
        # and a replaced instance builds its own table.
        return _build_order_table(self)


class InsufficientCapacityError(ValueError):
    """Total capacity is below the number of users."""


def require_capacity(instance: Instance) -> None:
    """Raise InsufficientCapacityError unless the servers can hold every user,
    as the covering solvers need."""
    if not instance.has_sufficient_capacity():
        raise InsufficientCapacityError(f"total capacity {instance.total_capacity} < {instance.n} users")


@dataclass(frozen=True, eq=False)
class OrderTable:
    """Every candidate disk of an instance, as arrays with one row per server.

    Row s lists server s's disks in ascending order key: the triple of the
    boundary user's distance from the server, the cosine of the angle
    between the server->user vector and the x-axis (0 for a user on top of
    the server), and a tiebreak encoding (sign of the y-offset descending,
    user id ascending), compared lexicographically. `order[s, t]` is the
    boundary user of the disk at rank t, which contains exactly the users
    `order[s, :t + 1]`, and `dist`, `cosine`, `tiebreak` and `power` (c *
    dist**alpha) hold that disk's key and power. `rank[s, u]` is user u's
    rank around server s, the inverse of `order[s]`. The disk of server s at
    rank t has the flat index s * n + t in the solvers' flat disk arrays.
    """

    order: np.ndarray
    rank: np.ndarray
    dist: np.ndarray
    cosine: np.ndarray
    tiebreak: np.ndarray
    power: np.ndarray


def order_table(instance: Instance) -> OrderTable:
    """The OrderTable of `instance`: every server's users sorted by order key.

    Built on the first call and kept on the instance, so every solver and
    checker reads the same table; its arrays are read-only.
    """
    return instance._order_table


def key_order(dist: np.ndarray, cosine: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Stable argsort along the last axis by the key (dist, cosine, tiebreak).

    One stable argsort on dist, after which only the runs of exactly equal
    dist, rare on random draws and common on grids, are sorted again by
    (cosine, tiebreak). The key compares lexicographically, and entries
    equal in all three keys keep their input order, so on an OrderTable's
    flat arrays (server s's row from s * n on) the server breaks those ties.
    """
    order = np.argsort(dist, axis=-1, kind="stable")
    ranked = np.take_along_axis(dist, order, axis=-1)
    tied = ranked[..., 1:] == ranked[..., :-1]
    if not np.count_nonzero(tied):
        return order
    edge = np.zeros(tied.shape[:-1] + (1,), dtype=bool)
    follows = np.concatenate((edge, tied), axis=-1).ravel()  # equal to the entry before it
    at = np.flatnonzero(follows | np.concatenate((tied, edge), axis=-1).ravel())
    flat = order.reshape(-1)
    picked = flat[at]
    source = at - at % dist.shape[-1] + picked  # flat index into the key arrays
    run = np.cumsum(~follows[at])
    resort = np.argsort(tiebreak.reshape(-1)[source], kind="stable")
    resort = resort[np.argsort(cosine.reshape(-1)[source[resort]], kind="stable")]
    resort = resort[np.argsort(run[resort], kind="stable")]
    flat[at] = picked[resort]
    return flat.reshape(order.shape)


def _build_order_table(instance: Instance) -> OrderTable:
    """Build the OrderTable of `instance`, with read-only arrays.

    Keys and powers equal a scalar Python computation per pair bit for bit.
    Coordinate differences and the cosine division are single IEEE
    operations, so numpy computes them exactly as Python does; distances use
    math.hypot and powers Python's float `**`, pair by pair, because np.hypot
    and np.power round differently from them in the last bit on some inputs,
    and one such bit can reorder two users at nearly equal distance or move
    an event time, and so change a cover.

    Raises a ValueError naming a server and a user (_check_powers) unless
    every power is finite and so is every cover's total power.
    """
    m, n = instance.m, instance.n
    sx = np.array([s.pos.x for s in instance.servers], dtype=np.float64)[:, None]
    sy = np.array([s.pos.y for s in instance.servers], dtype=np.float64)[:, None]
    with np.errstate(over="ignore"):  # an infinite offset is reported by _check_powers
        dx = np.array([u.pos.x for u in instance.users], dtype=np.float64)[None, :] - sx
        dy = np.array([u.pos.y for u in instance.users], dtype=np.float64)[None, :] - sy
    dist = np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), np.float64, m * n).reshape(m, n)
    _check_powers(instance, dist)
    cosine = np.divide(dx, dist, out=np.zeros((m, n)), where=dist > 0)
    sign_y = (dy > 0).astype(np.int64) - (dy < 0)
    tiebreak = (1 - sign_y) * _TIEBREAK_STRIDE + np.arange(n, dtype=np.int64)

    order = key_order(dist, cosine, tiebreak)
    rows = np.arange(m)[:, None]
    rank = np.empty((m, n), dtype=np.int64)
    rank[rows, order] = np.arange(n, dtype=np.int64)
    dist = dist[rows, order]
    c, alpha = instance.params.c, instance.params.alpha
    powers = np.fromiter((c * r**alpha for r in dist.ravel().tolist()), np.float64, m * n)
    table = OrderTable(
        order=order,
        rank=rank,
        dist=dist,
        cosine=cosine[rows, order],
        tiebreak=tiebreak[rows, order],
        power=powers.reshape(m, n),
    )
    for array in (table.order, table.rank, table.dist, table.cosine, table.tiebreak, table.power):
        array.flags.writeable = False
    return table


def _check_powers(instance: Instance, dist: np.ndarray) -> None:
    """Raise a ValueError naming a server and a user unless every power
    c * dist**alpha is finite and so is every cover's total power.

    Power grows with distance, so a row's largest power is that of its
    farthest user, and it is worked out for those m pairs only, with the
    order build's own Python expression (whose ** raises OverflowError past
    the float range). A cover's total sums at most one power per server in
    server order, as make_solution and opt_solve sum it, and rounding is
    monotone, so it is at most the same sum of the row maxima.
    """
    c, alpha = instance.params.c, instance.params.alpha
    farthest = dist.argmax(axis=1)
    total = 0.0
    for s, (user, r) in enumerate(zip(farthest.tolist(), dist[np.arange(instance.m), farthest].tolist())):
        try:
            largest = c * r**alpha
        except OverflowError:
            largest = math.inf
        total += largest
        if not math.isfinite(largest):
            raise ValueError(f"server {s}, user {user}: power c * r**alpha = {c!r} * {r!r}**{alpha!r} is past the float range")
        if not math.isfinite(total):
            raise ValueError(
                f"server {s}, user {user}: the largest powers of servers 0..{s} sum past the float range, "
                "so a cover's total power could overflow"
            )


# --- instance JSON format -------------------------------------------------
#
# {"c": number, "alpha": number,
#  "servers": [{"x": number, "y": number, "k": integer}, ...],
#  "users":   [{"x": number, "y": number}, ...]}
#
# Array position defines the id of each server and user.


def instance_to_json_dict(instance: Instance) -> dict:
    return {
        "c": instance.params.c,
        "alpha": instance.params.alpha,
        "servers": [
            {"x": s.pos.x, "y": s.pos.y, "k": s.capacity} for s in instance.servers
        ],
        "users": [{"x": u.pos.x, "y": u.pos.y} for u in instance.users],
    }


def is_json_kind(value, kind: type) -> bool:
    """Whether the JSON value `value` may be read as `kind` without coercion.

    int takes JSON integers and integral floats, float any number, bool only
    true/false and str only strings. bool is never a number, although Python
    makes it an int subclass: `true` must not read as 1.
    """
    if kind is bool or kind is str:
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind is float or isinstance(value, int) or value.is_integer()


def _json_type(value) -> str:
    """The JSON name of the type of a value that `json.load` returned."""
    return {dict: "an object", list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(value), "a number")


def _json_field(record: dict, field_name: str, kind: type, where: str):
    if not isinstance(record, dict):
        raise ValueError(f"{where.rstrip('.')} must be an object, got {_json_type(record)}")
    value = record[field_name]
    if not is_json_kind(value, kind):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}{field_name} must be {noun}, got {value!r}")
    return kind(value)


def instance_from_json_dict(data: dict) -> Instance:
    """Parse the instance JSON format; raises ValueError naming a bad field.

    Numbers must be JSON numbers (not booleans or strings) and capacities
    integers, so that nothing is silently truncated or coerced.
    """
    if not isinstance(data, dict):
        raise ValueError(f"instance JSON: the top level must be an object, got {_json_type(data)}")
    for field_name in ("c", "alpha", "servers", "users"):
        if field_name not in data:
            raise ValueError(f"instance JSON: missing field '{field_name}'")
    for field_name in ("servers", "users"):
        if not isinstance(data[field_name], list):
            raise ValueError(f"instance JSON: {field_name} must be an array, got {_json_type(data[field_name])}")
    try:
        params = PowerParams(c=_json_field(data, "c", float, ""), alpha=_json_field(data, "alpha", float, ""))
        servers = tuple(
            Server(
                id=i,
                pos=Point(_json_field(rec, "x", float, f"servers[{i}]."), _json_field(rec, "y", float, f"servers[{i}].")),
                capacity=_json_field(rec, "k", int, f"servers[{i}]."),
            )
            for i, rec in enumerate(data["servers"])
        )
        users = tuple(
            User(id=j, pos=Point(_json_field(rec, "x", float, f"users[{j}]."), _json_field(rec, "y", float, f"users[{j}].")))
            for j, rec in enumerate(data["users"])
        )
    except KeyError as exc:
        raise ValueError(f"instance JSON: missing field {exc} in a server/user record") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"instance JSON: bad value ({exc})") from exc
    return Instance(params=params, servers=servers, users=users)


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json_dict(instance), fh, indent=2)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json_dict(json.load(fh))
