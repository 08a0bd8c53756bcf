"""Geometric domain types for capacitated power cover instances.

A problem instance is a set of servers (position + integer capacity) and a
set of users (position) in the plane, plus the power-law constants, held as
coordinate and capacity arrays; Point/Server/User records are read-only
views of them, built only when asked for. Each (server, user) pair induces
a candidate coverage disk centered at the server with that user on its
boundary; the solvers only ever consider these m*n disks, all held in one
array table per instance (OrderTable). Membership in a disk is decided by
a strict total order on (distance, direction) so that equidistant users
are still served in a well-defined sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

# Folds (sign-of-y descending, user id ascending) into one integer so that
# the order key stays a plain lexicographic triple (dist, cosine, tiebreak).
# User ids must stay below it.
_TIEBREAK_STRIDE = 2**32

# The ascent holds capacities in int64 arrays.
MAX_CAPACITY = 2**63 - 1


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
    """A position in the plane, as `Instance.servers` and `.users` give it."""

    x: float
    y: float


@dataclass(frozen=True)
class Server:
    """Server `id` of an instance, as `Instance.servers` gives it."""

    id: int
    pos: Point
    capacity: int


@dataclass(frozen=True)
class User:
    """User `id` of an instance, as `Instance.users` gives it."""

    id: int
    pos: Point


@dataclass(frozen=True, eq=False)
class Instance:
    """A power-cover problem: servers with capacities, users to cover.

    Held as read-only arrays: `server_xy` [m, 2] and `user_xy` [n, 2]
    float64 coordinates and `capacity` [m] int64, each given as an array or
    a nested sequence, copied and checked once when built (m, n >= 1,
    finite coordinates, capacities in [0, 2**63 - 1]), also by
    `dataclasses.replace`. `servers` and `users` are read-only views of the
    arrays as Server and User records, built on first access. Equal params
    and arrays make equal instances with equal hashes.

    Total capacity >= n is a precondition of the covering solvers, not of
    the type itself, so that deficient instances can still be built and
    reported infeasible by the exact oracle.
    """

    params: PowerParams
    server_xy: np.ndarray
    user_xy: np.ndarray
    capacity: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "server_xy", _coordinates(self.server_xy, "server"))
        object.__setattr__(self, "user_xy", _coordinates(self.user_xy, "user"))
        object.__setattr__(self, "capacity", _capacities(self.capacity, self.m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        arrays = zip((self.server_xy, self.user_xy, self.capacity), (other.server_xy, other.user_xy, other.capacity))
        return self.params == other.params and all(np.array_equal(a, b) for a, b in arrays)

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, which it equals.
        return hash((self.params, (self.server_xy + 0.0).tobytes(), (self.user_xy + 0.0).tobytes(), self.capacity.tobytes()))

    def __reduce__(self):
        # Pickles and copies are built again through __init__, so that their
        # arrays are read-only too (an unpickled array is writeable).
        return Instance, (self.params, self.server_xy, self.user_xy, self.capacity)

    @property
    def m(self) -> int:
        return len(self.server_xy)

    @property
    def n(self) -> int:
        return len(self.user_xy)

    @property
    def total_capacity(self) -> int:
        return sum(self.capacity.tolist())

    def has_sufficient_capacity(self) -> bool:
        return self.total_capacity >= self.n

    @cached_property
    def servers(self) -> tuple[Server, ...]:
        return tuple(Server(i, Point(x, y), k) for i, ((x, y), k) in enumerate(zip(self.server_xy.tolist(), self.capacity.tolist())))

    @cached_property
    def users(self) -> tuple[User, ...]:
        return tuple(User(j, Point(x, y)) for j, (x, y) in enumerate(self.user_xy.tolist()))

    @cached_property
    def _order_table(self) -> "OrderTable":
        # Not a field: equality, hashing and dataclasses.replace() ignore it,
        # and a replaced instance builds its own table.
        return _build_order_table(self)


def _coordinates(xy, kind: str) -> np.ndarray:
    """`xy` as a read-only [count, 2] float64 array, or a ValueError naming
    the first `kind` (server or user) whose coordinates are not finite. An
    int past the float range reads as the infinity it rounds to."""
    try:
        xy = np.array(xy, dtype=np.float64)
    except OverflowError:
        xy = np.vectorize(_float_or_inf, otypes=[np.float64])(np.array(xy, dtype=object))
    if not xy.size:
        raise ValueError(f"instance needs at least one {kind}")
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"{kind}_xy must have shape ({kind} count, 2), got {xy.shape}")
    if not np.isfinite(xy).all():
        i = int(np.isfinite(xy).all(axis=1).argmin())
        raise ValueError(f"{kind} {i}: coordinates must be finite, got ({xy[i, 0]}, {xy[i, 1]})")
    xy.flags.writeable = False
    return xy


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _capacities(capacity, m: int) -> np.ndarray:
    """`capacity` as a read-only [m] int64 array, or a ValueError naming the
    first server whose capacity is not an integer in [0, 2**63 - 1]. A
    sequence is read as Python ints, which numpy would turn into floats past
    the int64 range."""
    values = capacity if isinstance(capacity, np.ndarray) else np.array(list(capacity), dtype=object)
    if values.shape != (m,):
        raise ValueError(f"capacity must have one entry per server, shape ({m},), got {values.shape}")
    if values.dtype.kind not in "iu":
        for s, k in enumerate(values.tolist()):
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise ValueError(f"server {s}: capacity must be an integer, got {k!r}")
    bad = (values < 0) | (values > MAX_CAPACITY)
    if bad.any():
        s = int(bad.argmax())
        bound = ">= 0" if values[s] < 0 else "<= 2**63 - 1"
        raise ValueError(f"server {s}: capacity must be {bound}, got {values[s]}")
    values = values.astype(np.int64)
    values.flags.writeable = False
    return values


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
    flat[at] = picked[np.lexsort((tiebreak.reshape(-1)[source], cosine.reshape(-1)[source], run))]
    return flat.reshape(order.shape)


def _build_order_table(instance: Instance) -> OrderTable:
    """Build the OrderTable of `instance`, with read-only arrays.

    Keys and powers equal a scalar Python computation per pair bit for bit.
    Coordinate differences, the cosine division and the multiply by c are
    single IEEE operations, so numpy computes them exactly as Python does;
    distances use math.hypot and r**alpha math.pow (the C pow behind
    Python's float `**`), pair by pair, because np.hypot and np.power round
    differently from them in the last bit on some inputs, and one such bit
    can reorder two users at nearly equal distance or move an event time,
    and so change a cover.

    Raises a ValueError naming a server and a user (_check_powers) unless
    every power is finite and so is every cover's total power.
    """
    m, n = instance.m, instance.n
    with np.errstate(over="ignore"):  # an infinite offset is reported by _check_powers
        dx, dy = instance.user_xy.T[:, None, :] - instance.server_xy.T[:, :, None]
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
    powers = c * np.fromiter(map(math.pow, dist.ravel().tolist(), repeat(alpha)), np.float64, m * n)
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
        "servers": [{"x": x, "y": y, "k": k} for (x, y), k in zip(instance.server_xy.tolist(), instance.capacity.tolist())],
        "users": [{"x": x, "y": y} for x, y in instance.user_xy.tolist()],
    }


def json_value(value, kind: type, where: str, expected: str):
    """The JSON value `value` as `kind`, with no coercion, or a ValueError
    naming the field `where`: it must be `expected`, or it is past the
    float range (an integer that no float holds, read as a float).

    int takes JSON integers and integral floats, float any number, bool only
    true/false and str only strings. bool is never a number, although Python
    makes it an int subclass: `true` must not read as 1.
    """
    if kind is bool or kind is str:
        allowed = isinstance(value, kind)
    else:
        allowed = isinstance(value, (int, float)) and not isinstance(value, bool)
        allowed = allowed and (kind is float or isinstance(value, int) or value.is_integer())
    if not allowed:
        raise ValueError(f"{where} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{where} is past the float range, got an integer of {len(str(abs(value)))} digits") from None


def _json_type(value) -> str:
    """The JSON name of the type of a value that `json.load` returned."""
    return {dict: "an object", list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(value), "a number")


def _json_field(record: dict, field_name: str, kind: type, where: str):
    if not isinstance(record, dict):
        raise ValueError(f"{where.rstrip('.')} must be an object, got {_json_type(record)}")
    return json_value(record[field_name], kind, f"{where}{field_name}", "an integer" if kind is int else "a number")


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
        servers = [
            tuple(_json_field(rec, key, kind, f"servers[{i}].") for key, kind in (("x", float), ("y", float), ("k", int)))
            for i, rec in enumerate(data["servers"])
        ]
        user_xy = [(_json_field(rec, "x", float, f"users[{j}]."), _json_field(rec, "y", float, f"users[{j}].")) for j, rec in enumerate(data["users"])]
        return Instance(params, server_xy=[s[:2] for s in servers], user_xy=user_xy, capacity=[s[2] for s in servers])
    except KeyError as exc:
        raise ValueError(f"instance JSON: missing field {exc} in a server/user record") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"instance JSON: bad value ({exc})") from exc


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json_dict(instance), fh, indent=2)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json_dict(json.load(fh))
