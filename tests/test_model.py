import dataclasses
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from cmpc import (
    GenConfig,
    Instance,
    Point,
    PowerParams,
    Server,
    User,
    check_charging,
    gen_instance,
    ncs_solve,
    opt_solve,
    pd_solve,
    verify_dual_feasibility,
)
from cmpc import model
from cmpc.model import instance_from_json_dict, instance_to_json_dict, key_order, order_table
from cmpc.certify import charge_breakdown
from cmpc.reference import feasible_assignment

from _oracles import (
    OrderKey,
    ncs_solve_reference,
    order_key,
    pair_order_reference,
    power,
    table_key,
    table_order_reference,
)


def make_instance(server_specs, user_points, c=1.0, alpha=2.0):
    server_xy = [(x, y) for x, y, _ in server_specs]
    return Instance(PowerParams(c, alpha), server_xy, user_points, [k for _, _, k in server_specs])


def disk_keys(inst, s=0):
    """Server s's disk keys from the order table, by rank."""
    table = order_table(inst)
    return [table_key(table, s, t) for t in range(inst.n)]


# --- power law (the scalar reference) --------------------------------------


def test_power_examples():
    assert power(PowerParams(1.0, 2.0), 3.0) == 9.0
    assert power(PowerParams(1.0, 2.0), 0.0) == 0.0
    assert power(PowerParams(1.0, 1.0), 5.0) == 5.0


def test_power_rejects_negative_radius():
    with pytest.raises(ValueError):
        power(PowerParams(1.0, 2.0), -1.0)


def test_power_params_validation():
    with pytest.raises(ValueError):
        PowerParams(0.0, 2.0)
    with pytest.raises(ValueError):
        PowerParams(1.0, 0.5)


@given(
    c=st.floats(0.1, 10.0),
    alpha=st.floats(1.0, 3.0),
    r1=st.floats(0.0, 100.0),
    r2=st.floats(0.0, 100.0),
)
def test_power_monotone_and_unit(c, alpha, r1, r2):
    params = PowerParams(c, alpha)
    lo, hi = sorted((r1, r2))
    assert power(params, lo) <= power(params, hi)
    assert power(params, 1.0) == c


# --- order keys (the scalar reference, and the table against it) -----------


def test_order_key_examples():
    s = Server(0, Point(0, 0), 1)
    k = order_key(s, User(0, Point(3, 4)))
    assert (k.dist, k.cosine) == (5.0, 0.6)
    k = order_key(s, User(0, Point(0, 2)))
    assert (k.dist, k.cosine) == (2.0, 0.0)
    k = order_key(Server(0, Point(1, 1), 1), User(0, Point(1, 1)))
    assert (k.dist, k.cosine) == (0.0, 0.0)


def test_equal_cosine_mirror_tiebreak():
    # Users mirrored across the x-axis through the server share distance and
    # cosine; exactly one of the two disks must contain both users.
    inst = make_instance([(0.0, 0.0, 2)], [(1.0, 1.0), (1.0, -1.0)])
    boundary = order_table(inst).order[0].tolist()
    by_boundary = dict(zip(boundary, disk_keys(inst)))
    k0 = order_key(inst.servers[0], inst.users[0])
    k1 = order_key(inst.servers[0], inst.users[1])
    assert k0 != k1
    in_d0 = k0 <= by_boundary[0] and k1 <= by_boundary[0]
    in_d1 = k0 <= by_boundary[1] and k1 <= by_boundary[1]
    assert in_d0 != in_d1
    # Positive-y sorts first per the documented tiebreak.
    assert k0 < k1 and in_d1


points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=100)
@given(server=points, users=st.lists(points, min_size=2, max_size=8))
def test_order_key_is_a_strict_total_order(server, users):
    srv = Server(0, Point(*map(float, server)), 1)
    keys = [order_key(srv, User(j, Point(*map(float, u)))) for j, u in enumerate(users)]
    assert len(set(keys)) == len(keys)
    ordered = sorted(keys)
    for a, b in zip(ordered, ordered[1:]):
        assert a < b


@settings(max_examples=60)
@given(server=points, users=st.lists(points, min_size=1, max_size=7))
def test_containment_is_monotone_in_key(server, users):
    inst = make_instance(
        [(float(server[0]), float(server[1]), 1)],
        [(float(x), float(y)) for x, y in users],
    )
    members = [{u.id for u in inst.users if order_key(inst.servers[0], u) <= key} for key in disk_keys(inst)]
    for smaller, larger in zip(members, members[1:]):
        assert smaller <= larger
    for rank, inside in enumerate(members):
        assert len(inside) == rank + 1


# --- candidate disks --------------------------------------------------------


def test_order_table_nested_pair():
    inst = make_instance([(0.0, 0.0, 2)], [(1.0, 0.0), (2.0, 0.0)])
    assert order_table(inst).power[0].tolist() == [1.0, 4.0]
    small, large = disk_keys(inst)
    k0, k1 = (order_key(inst.servers[0], u) for u in inst.users)
    assert k0 <= large and k1 <= large
    assert k0 <= small and not k1 <= small


def test_order_table_cardinality():
    inst = make_instance(
        [(0.0, 0.0, 2), (5.0, 5.0, 1)],
        [(1.0, 0.0), (2.0, 0.0), (3.0, 3.0)],
    )
    table = order_table(inst)
    assert table.order.shape == (2, 3)
    for s in range(2):
        assert sorted(table.order[s].tolist()) == [0, 1, 2]
        keys = disk_keys(inst, s)
        assert keys == sorted(keys)


def test_contains_key_comparison():
    inst = make_instance([(0.0, 0.0, 1)], [(2.0, 0.0)])
    (key,) = disk_keys(inst)
    assert OrderKey(1.0, 0.0, 0) <= key
    assert key <= key
    # Same radius, larger cosine: outside by the direction ordering.
    assert not OrderKey(key.dist, key.cosine + 0.5, 0) <= key


# --- instance type ----------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        make_instance([(0.0, 0.0, 1)], [])


def test_insufficient_capacity_is_constructible():
    inst = make_instance([(0.0, 0.0, 1)], [(1.0, 0.0), (2.0, 0.0)])
    assert not inst.has_sufficient_capacity()


def test_instance_json_roundtrip():
    inst = make_instance(
        [(0.5, 1.5, 3), (10.0, 0.0, 2)],
        [(1.0, 0.0), (2.0, 3.0), (4.5, 4.5)],
        c=2.0,
        alpha=1.5,
    )
    data = json.loads(json.dumps(instance_to_json_dict(inst)))
    back = instance_from_json_dict(data)
    assert back == inst


def test_instance_json_missing_field():
    with pytest.raises(ValueError, match="servers"):
        instance_from_json_dict({"c": 1.0, "alpha": 2.0, "users": []})


@pytest.mark.parametrize(
    "data, message",
    [
        (5, "the top level must be an object, got a number"),
        (None, "the top level must be an object, got null"),
        ("abc", "the top level must be an object, got a string"),
        ([], "the top level must be an object, got an array"),
        ({"c": 1.0, "alpha": 2.0, "servers": {"x": 1}, "users": []}, "servers must be an array, got an object"),
        ({"c": 1.0, "alpha": 2.0, "servers": [], "users": "ab"}, "users must be an array, got a string"),
        ({"c": 1.0, "alpha": 2.0, "servers": [5], "users": []}, r"servers\[0\] must be an object, got a number"),
        ({"c": 1.0, "alpha": 2.0, "servers": [], "users": [None]}, r"users\[0\] must be an object, got null"),
    ],
)
def test_instance_json_rejects_wrong_containers(data, message):
    with pytest.raises(ValueError, match=message) as caught:
        instance_from_json_dict(data)
    assert "\n" not in str(caught.value)


def _json_instance():
    return {
        "c": 1.0,
        "alpha": 2.0,
        "servers": [{"x": 0.0, "y": 0.0, "k": 2}],
        "users": [{"x": 1.0, "y": 0.0}],
    }


def test_instance_json_accepts_integral_capacity():
    data = _json_instance()
    data["servers"][0]["k"] = 2.0
    assert instance_from_json_dict(data).servers[0].capacity == 2


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("servers", 0, "k"), 2.7, r"servers\[0\]\.k must be an integer"),
        (("servers", 0, "k"), True, r"servers\[0\]\.k must be an integer"),
        (("servers", 0, "x"), True, r"servers\[0\]\.x must be a number"),
        (("servers", 0, "y"), False, r"servers\[0\]\.y must be a number"),
        (("users", 0, "x"), True, r"users\[0\]\.x must be a number"),
        (("users", 0, "y"), "0.5", r"users\[0\]\.y must be a number"),
        (("c",), True, r"c must be a number"),
        (("alpha",), True, r"alpha must be a number"),
    ],
)
def test_instance_json_rejects_coerced_values(path, value, message):
    data = _json_instance()
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        instance_from_json_dict(data)


def test_order_table_sorts_by_key():
    inst = make_instance([(0.0, 0.0, 3)], [(3.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert order_table(inst).order[0].tolist() == [1, 2, 0]


# --- order table ------------------------------------------------------------
#
# The table must equal the scalar reference (order_key, power) bit for bit: it
# computes distances with math.hypot and powers with Python's float **, not
# np.hypot / np.power, because those round differently in the last bit on
# some inputs, and one bit reorders keys that differ only there and changes
# covers.

grid = st.integers(-6, 6).map(float)
anywhere = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def degenerate_instances(draw):
    """Servers on a grid; users random, plus mirror-symmetric, coincident
    with a server, duplicated and collinear ones."""
    servers = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=4))
    users = draw(st.lists(st.tuples(grid | anywhere, grid | anywhere), min_size=1, max_size=6))
    sx, sy = servers[0]
    gx, gy = draw(st.tuples(grid, grid))
    users.append((gx, gy))
    users.append((gx, 2 * sy - gy))  # mirror image across server 0's horizontal
    users.append((2 * sx - gx, gy))  # mirror image across server 0's vertical
    users.append(servers[-1])  # on top of a server
    users.append(users[0])  # duplicate
    users.extend((sx + k * (gx - sx), sy + k * (gy - sy)) for k in (2.0, 3.0))  # collinear
    alpha = draw(st.sampled_from([1.0, 2.0, 2.5, 3.7]))
    c = draw(st.sampled_from([1.0, 0.37]))
    return make_instance([(x, y, 1) for x, y in servers], users, c=c, alpha=alpha)


def _bits(key):
    return (key.dist.hex(), key.cosine.hex(), key.tiebreak)


def assert_table_matches_scalar_path(inst):
    table = order_table(inst)
    for s, srv in enumerate(inst.servers):
        keys = [order_key(srv, u) for u in inst.users]
        reference = sorted(range(inst.n), key=keys.__getitem__)
        assert table.order[s].tolist() == reference
        for t, uid in enumerate(reference):
            assert table.rank[s, uid] == t
            assert _bits(table_key(table, s, t)) == _bits(keys[uid])
            assert table.power[s, t].hex() == power(inst.params, keys[uid].dist).hex()


@settings(max_examples=150, deadline=None)
@given(inst=degenerate_instances())
def test_order_table_matches_scalar_keys_bit_for_bit(inst):
    assert_table_matches_scalar_path(inst)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 3.7])
def test_order_table_matches_scalar_keys_on_generated_instance(alpha):
    # 5000 pairs at random float coordinates: enough that np.hypot or
    # np.power in place of the scalar operations would differ on some.
    assert_table_matches_scalar_path(gen_instance(GenConfig(m=10, n=500, kbar=60.0, seed=11, alpha=alpha)))


# --- key_order against the multi-key lexsorts it replaced -------------------


@st.composite
def tied_grid_instances(draw):
    """Servers and users on a small integer grid, so that distances tie within
    a row and across servers; servers coincide, users sit on a server and
    share positions. Total capacity covers every user."""
    side = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, side).map(float), st.integers(0, side).map(float))
    servers = draw(st.lists(cell, min_size=1, max_size=6))
    users = draw(st.lists(cell, min_size=1, max_size=30))
    capacity = draw(st.lists(st.integers(0, len(users)), min_size=len(servers), max_size=len(servers)))
    capacity[-1] += max(0, len(users) - sum(capacity))
    return make_instance([(x, y, k) for (x, y), k in zip(servers, capacity)], users)


def flat_keys(table):
    return table.dist.ravel(), table.cosine.ravel(), table.tiebreak.ravel()


@settings(max_examples=200, deadline=None)
@given(inst=tied_grid_instances())
def test_key_order_matches_four_key_lexsort(inst):
    table = order_table(inst)
    assert key_order(*flat_keys(table)).tolist() == pair_order_reference(table).tolist()
    assert table.order.tolist() == table_order_reference(inst).tolist()


@settings(max_examples=200, deadline=None)
@given(inst=tied_grid_instances())
def test_ncs_matches_lexsort_greedy(inst):
    assert ncs_solve(inst).to_json_dict() == ncs_solve_reference(inst).to_json_dict()


def test_tied_grid_instances_reach_the_fix_up():
    # Distance alone orders a tied run by position: in a row by user id, in
    # the flat pairs by server. Each strategy draw below has such a run that
    # (cosine, tiebreak) must reorder, plus the degenerate positions.
    def positions(inst):
        return [(s.pos.x, s.pos.y) for s in inst.servers], [(u.pos.x, u.pos.y) for u in inst.users]

    def reorders_across_servers(inst):
        dist = order_table(inst).dist.ravel()
        return not np.array_equal(np.argsort(dist, kind="stable"), pair_order_reference(order_table(inst)))

    def reorders_in_a_row(inst):
        dist = np.array([[order_key(srv, u).dist for u in inst.users] for srv in inst.servers])
        return not np.array_equal(np.argsort(dist, axis=-1, kind="stable"), order_table(inst).order)

    conditions = [
        reorders_across_servers,
        reorders_in_a_row,
        lambda inst: len(set(positions(inst)[0])) < inst.m,
        lambda inst: len(set(positions(inst)[1])) < inst.n,
        lambda inst: bool(set(positions(inst)[0]) & set(positions(inst)[1])),
    ]
    for condition in conditions:
        find(tied_grid_instances(), condition, settings=settings(max_examples=500, database=None, phases=[Phase.generate]))


# --- one table per instance -------------------------------------------------


def test_one_instance_builds_one_order_table(monkeypatch):
    builds = []
    build = model._build_order_table
    monkeypatch.setattr(model, "_build_order_table", lambda inst: builds.append(inst) or build(inst))
    inst = gen_instance(GenConfig(m=3, n=7, kbar=3.0, seed=5))
    _, duals, trace = pd_solve(inst)
    ncs_solve(inst)
    assert opt_solve(inst).status == "optimal"
    assert verify_dual_feasibility(inst, duals) == []
    assert check_charging(inst, trace, duals) == []
    charge_breakdown(inst, trace, duals, 0)
    assert feasible_assignment([inst.n - 1] * inst.m, inst) is not None
    assert len(builds) == 1
    assert order_table(inst) is order_table(inst)


def test_order_table_arrays_are_read_only():
    table = order_table(gen_instance(GenConfig(m=2, n=4, kbar=2.0, seed=1)))
    for f in dataclasses.fields(table):
        array = getattr(table, f.name)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = array[0, 1]
        with pytest.raises(ValueError, match="read-only"):
            array.ravel()[0] = array[0, 1]


def test_replaced_instance_gets_its_own_table():
    inst = gen_instance(GenConfig(m=2, n=5, kbar=3.0, seed=2))
    table = order_table(inst)
    cubic = dataclasses.replace(inst, params=PowerParams(3.0, 3.0))
    fresh = order_table(cubic)
    assert fresh is not table
    assert np.array_equal(fresh.order, table.order)
    for s in range(inst.m):
        for t in range(inst.n):
            assert fresh.power[s, t] == power(cubic.params, fresh.dist[s, t])
            assert table.power[s, t] == power(inst.params, table.dist[s, t])


def test_cached_table_leaves_equality_and_hash_alone():
    def fresh():
        return make_instance([(0.0, 0.0, 2), (3.0, 1.0, 1)], [(1.0, 0.0), (2.0, 2.0)])

    a, b = fresh(), fresh()
    before = hash(a)
    order_table(a)
    assert a == b and hash(a) == hash(b) == before
    assert a != dataclasses.replace(b, params=PowerParams(2.0, 2.0))


# --- powers and capacities past the machine's range ---------------------------

# Each is rejected by the order build with one ValueError naming a server and
# a user: a power whose ** overflows, a finite r**alpha that c scales past
# the float range, and two finite powers (1.44e308 each) whose sum, every
# cover's total, overflows.
OVERFLOWING = {
    "pow": ([(0.0, 0.0, 2)], [(1e200, 0.0)], 1.0, "server 0, user 0: power c * r**alpha"),
    "c": ([(0.0, 0.0, 2)], [(1e10, 0.0)], 1e300, "server 0, user 0: power c * r**alpha"),
    "sum": (
        [(0.0, 0.0, 1), (0.0, 0.0, 1)],
        [(1.2e154, 0.0), (-1.2e154, 1.0)],
        1.0,
        "server 1, user 0: the largest powers of servers 0..1 sum past the float range",
    ),
    "offset": ([(-1e308, 0.0, 2)], [(1e308, 0.0)], 1.0, "server 0, user 0: power c * r**alpha = 1.0 * inf**2.0"),
}


@pytest.mark.parametrize("case", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_order_table_rejects_powers_past_the_float_range(case):
    servers, users, c, message = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        for solve in (order_table, pd_solve, ncs_solve, opt_solve):
            with pytest.raises(ValueError, match=re.escape(message)):
                solve(make_instance(servers, users, c=c))


def test_covers_just_inside_the_float_range_stay_finite():
    # Two largest powers of 8e307 sum to 1.6e308 and one of c = the largest
    # float: the order build accepts them, every cover's total is finite and
    # the exact search starts from an incumbent it can beat.
    r = math.sqrt(8e307)
    for inst in (
        make_instance([(0.0, 0.0, 1), (0.0, 0.0, 1)], [(r, 0.0), (-r, 1.0)]),
        make_instance([(0.0, 0.0, 1)], [(1.0, 0.0)], c=sys.float_info.max, alpha=1.0),
    ):
        result = opt_solve(inst)
        assert result.status == "optimal" and math.isfinite(result.value)
        assert pd_solve(inst)[0].total_power == ncs_solve(inst).total_power == result.value


def test_capacity_must_fit_int64():
    # The ascent holds capacities in an int64 array.
    data = _json_instance()
    data["servers"][0]["k"] = 1e19
    with pytest.raises(ValueError, match=re.escape("capacity must be <= 2**63 - 1, got 10000000000000000000")):
        instance_from_json_dict(data)
    inst = make_instance([(0.0, 0.0, 2**63 - 1)], [(1.0, 0.0), (2.0, 0.0)])
    assert pd_solve(inst)[0].total_power == ncs_solve(inst).total_power == opt_solve(inst).value == 4.0
