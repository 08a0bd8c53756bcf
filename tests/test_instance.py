"""The arrays-first Instance: built from numpy arrays, from nested sequences
or from JSON, it is one value with one order table, every constructor
rejects what the solvers cannot hold, and Server/User records are only
read-only views of its arrays."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
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
from cmpc.metrics import util_variance, validate
from cmpc.model import MAX_CAPACITY, instance_from_json_dict, instance_to_json_dict, order_table
from cmpc.primal_dual import pd_solve_batch


def from_arrays(params, server_xy, user_xy, capacity):
    return Instance(
        params,
        server_xy=np.array(server_xy, dtype=np.float64),
        user_xy=np.array(user_xy, dtype=np.float64),
        capacity=np.array(capacity, dtype=np.int64),
    )


def from_sequences(params, server_xy, user_xy, capacity):
    return Instance(params, server_xy, user_xy, capacity)


def from_json(params, server_xy, user_xy, capacity):
    text = json.dumps(instance_to_json_dict(from_arrays(params, server_xy, user_xy, capacity)))
    return instance_from_json_dict(json.loads(text))


BUILDERS = {"arrays": from_arrays, "sequences": from_sequences, "json": from_json}


def pd_outcome(instance):
    """The cover and trace of pd_solve, or the error it raises."""
    try:
        solution, _, trace = pd_solve(instance)
    except Exception as exc:
        return type(exc), str(exc)
    return solution, trace


# Signed zeros, the least subnormal and coordinates whose squares near the
# float range, among ordinary ones; with alpha <= 2 every power stays finite.
coordinate = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150]) | st.floats(-100.0, 100.0, allow_nan=False)
point = st.tuples(coordinate, coordinate)


@st.composite
def instance_data(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    capacity = draw(st.lists(st.sampled_from([0, MAX_CAPACITY]) | st.integers(0, n), min_size=m, max_size=m))
    params = PowerParams(draw(st.sampled_from([1.0, 3.5])), draw(st.sampled_from([1.0, 2.0])))
    return params, draw(st.lists(point, min_size=m, max_size=m)), draw(st.lists(point, min_size=n, max_size=n)), capacity


@settings(max_examples=150, deadline=None)
@given(data=instance_data())
def test_three_constructors_give_one_instance(data):
    arrays, sequences, parsed = (build(*data) for build in BUILDERS.values())
    assert arrays == sequences == parsed
    assert hash(arrays) == hash(sequences) == hash(parsed)
    tables = [order_table(inst) for inst in (arrays, sequences, parsed)]
    for f in dataclasses.fields(tables[0]):
        first = getattr(tables[0], f.name)
        for table in tables[1:]:
            other = getattr(table, f.name)
            assert other.dtype == first.dtype and other.shape == first.shape
            assert other.tobytes() == first.tobytes()
    outcomes = [pd_outcome(inst) for inst in (arrays, sequences, parsed)]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_constructors_cover_the_edge_values():
    data = (PowerParams(1.0, 2.0), [(-0.0, 5e-324), (1e150, 0.0)], [(0.0, -1e150), (1.0, 1.0)], [0, MAX_CAPACITY])
    arrays, sequences, parsed = (build(*data) for build in BUILDERS.values())
    assert arrays == sequences == parsed
    assert math.copysign(1.0, parsed.server_xy[0, 0]) == -1.0  # the sign survives JSON
    assert parsed.capacity.tolist() == [0, MAX_CAPACITY]
    assert pd_outcome(arrays) == pd_outcome(sequences) == pd_outcome(parsed)
    assert pd_solve(arrays)[0].assignment == (1, 1)


def test_negative_zero_equals_zero():
    def build(zero):
        return from_arrays(PowerParams(1.0, 2.0), [(zero, 0.0)], [(1.0, zero)], [1])

    assert build(-0.0) == build(0.0)
    assert hash(build(-0.0)) == hash(build(0.0))
    assert build(0.0) != from_arrays(PowerParams(1.0, 2.0), [(0.0, 0.0)], [(1.0, 5e-324)], [1])


def test_arrays_are_read_only_copies():
    server_xy, user_xy, capacity = np.zeros((1, 2)), np.array([[1.0, 2.0]]), np.array([3])
    inst = Instance(PowerParams(1.0, 2.0), server_xy=server_xy, user_xy=user_xy, capacity=capacity)
    for array in (inst.server_xy, inst.user_xy, inst.capacity):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    user_xy[0, 0] = 9.0  # the caller's array stays its own
    assert inst.user_xy.tolist() == [[1.0, 2.0]]
    assert inst.server_xy.dtype == np.float64 and inst.capacity.dtype == np.int64


def test_pickles_and_copies_stay_read_only():
    inst = gen_instance(GenConfig(m=2, n=4, kbar=3.0, seed=1))
    order_table(inst)
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
        assert twin == inst and hash(twin) == hash(inst)
        assert not any(a.flags.writeable for a in (twin.server_xy, twin.user_xy, twin.capacity))
        assert order_table(twin).order.tobytes() == order_table(inst).order.tobytes()


def test_objects_are_built_from_the_arrays_once():
    inst = from_sequences(PowerParams(1.0, 2.0), [(0, 1)], [(3, 4), (5.5, 6)], [2])
    assert inst.servers == (Server(0, Point(0.0, 1.0), 2),)
    assert inst.users == (User(0, Point(3.0, 4.0)), User(1, Point(5.5, 6.0)))
    assert inst.servers is inst.servers and inst.users is inst.users
    assert type(inst.users[0].pos.x) is float and type(inst.servers[0].capacity) is int
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.servers[0].capacity = 0


def test_records_build_no_instance():
    inst = gen_instance(GenConfig(m=2, n=4, kbar=3.0, seed=1))
    with pytest.raises(TypeError):
        Instance(inst.params, inst.servers, inst.users)
    with pytest.raises(TypeError):
        Instance(inst.params, inst.servers, inst.users, inst.capacity)


def test_replace_takes_arrays_or_params():
    inst = gen_instance(GenConfig(m=3, n=6, kbar=3.0, seed=9))
    table = order_table(inst)
    moved = dataclasses.replace(inst, user_xy=inst.user_xy[::-1])
    assert moved.user_xy.tolist() == inst.user_xy[::-1].tolist() and not moved.user_xy.flags.writeable
    assert np.array_equal(moved.server_xy, inst.server_xy) and np.array_equal(moved.capacity, inst.capacity)
    assert order_table(moved).order.tolist() != table.order.tolist()
    emptied = dataclasses.replace(inst, capacity=[0, 0, 0])
    assert emptied.capacity.tolist() == [0, 0, 0] and np.array_equal(emptied.user_xy, inst.user_xy)
    assert message_of(lambda: dataclasses.replace(inst, capacity=[0, -1, 0])) == "server 1: capacity must be >= 0, got -1"
    cubic = dataclasses.replace(inst, params=PowerParams(1.0, 3.0))
    assert order_table(cubic) is not table and cubic == dataclasses.replace(inst, params=PowerParams(1.0, 3.0))


def test_sweep_path_builds_no_point_server_or_user(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the sweep path")

    for cls in (Point, Server, User):
        monkeypatch.setattr(cls, "__init__", refuse)
    instances = [gen_instance(GenConfig(m=4, n=12, kbar=4.0, seed=seed)) for seed in range(3)]
    covers, _, _ = pd_solve_batch(instances)
    for inst, pd_cover in zip(instances, covers):
        for solution in (pd_cover, ncs_solve(inst)):
            assert validate(inst, solution).ok
            util_variance(inst, solution)
    small = gen_instance(GenConfig(m=2, n=5, kbar=3.0, seed=1))
    _, duals, trace = pd_solve(small)
    assert verify_dual_feasibility(small, duals) == [] and check_charging(small, trace, duals) == []
    assert opt_solve(small).status == "optimal"
    with pytest.raises(AssertionError, match="built on the sweep path"):
        small.users


# --- rejected input, by every constructor -------------------------------------

GOOD = (PowerParams(1.0, 2.0), [(0.0, 0.0), (1.0, 1.0)], [(2.0, 0.0)], [1, 1])

BAD = {
    "server-nan": ((1, [(0.0, 0.0), (math.nan, 1.0)]), "server 1: coordinates must be finite, got (nan, 1.0)"),
    "server-inf": ((1, [(math.inf, 0.0), (1.0, 1.0)]), "server 0: coordinates must be finite, got (inf, 0.0)"),
    "user-nan": ((2, [(2.0, math.nan)]), "user 0: coordinates must be finite, got (2.0, nan)"),
    "user-inf": ((2, [(2.0, -math.inf)]), "user 0: coordinates must be finite, got (2.0, -inf)"),
    "capacity-negative": ((3, [1, -1]), "server 1: capacity must be >= 0, got -1"),
    "capacity-past-int64": ((3, [2**63, 1]), "server 0: capacity must be <= 2**63 - 1, got 9223372036854775808"),
}


def with_bad(field):
    data = list(GOOD)
    data[field[0]] = field[1]
    return data


def message_of(build):
    with pytest.raises(ValueError) as caught:
        build()
    message = str(caught.value)
    assert "\n" not in message
    return message


@pytest.mark.parametrize("case", BAD.values(), ids=BAD.keys())
def test_every_constructor_rejects_bad_values(case):
    field, expected = case
    params, server_xy, user_xy, capacity = with_bad(field)
    # Arrays: lists, so that 2**63 reaches the check instead of numpy's int64 cast.
    assert message_of(lambda: Instance(params, server_xy=server_xy, user_xy=user_xy, capacity=capacity)) == expected
    # JSON: json.loads reads NaN and Infinity.
    text = json.dumps({"c": 1.0, "alpha": 2.0, "servers": [{"x": x, "y": y, "k": k} for (x, y), k in zip(server_xy, capacity)],
                       "users": [{"x": x, "y": y} for x, y in user_xy]})
    assert message_of(lambda: instance_from_json_dict(json.loads(text))) == f"instance JSON: bad value ({expected})"


@pytest.mark.parametrize(
    "capacity, message",
    [
        (np.array([2**63, 1], dtype=np.uint64), "server 0: capacity must be <= 2**63 - 1, got 9223372036854775808"),
        (np.array([1.0, 2.0]), "server 0: capacity must be an integer, got 1.0"),
        (np.array([True, True]), "server 0: capacity must be an integer, got True"),
        ([1, 2.5], "server 1: capacity must be an integer, got 2.5"),
        ([1], "capacity must have one entry per server, shape (2,), got (1,)"),
    ],
    ids=["uint64", "float", "bool", "list-float", "short"],
)
def test_array_constructor_rejects_capacities_it_would_coerce(capacity, message):
    params, server_xy, user_xy, _ = GOOD
    assert message_of(lambda: Instance(params, server_xy=server_xy, user_xy=user_xy, capacity=capacity)) == message


@pytest.mark.parametrize(
    "server_xy, user_xy, message",
    [
        ([], [(0.0, 0.0)], "instance needs at least one server"),
        ([(0.0, 0.0)], np.empty((0, 2)), "instance needs at least one user"),
        ([0.0, 0.0], [(0.0, 0.0)], "server_xy must have shape (server count, 2), got (2,)"),
        ([(0.0, 0.0)], [(0.0, 0.0, 0.0)], "user_xy must have shape (user count, 2), got (1, 3)"),
    ],
)
def test_array_constructor_rejects_shapes(server_xy, user_xy, message):
    assert message_of(lambda: Instance(PowerParams(1.0, 2.0), server_xy=server_xy, user_xy=user_xy, capacity=[1] * len(server_xy))) == message


@pytest.mark.parametrize(
    "server_xy, user_xy, message",
    [
        ([(10**400, 0)], [(0, 0)], "server 0: coordinates must be finite, got (inf, 0.0)"),
        ([(0, 0)], [(0, 0), (1, -(10**400))], "user 1: coordinates must be finite, got (1.0, -inf)"),
    ],
    ids=["server", "user"],
)
def test_array_constructor_names_an_int_past_the_float_range(server_xy, user_xy, message):
    # numpy raises OverflowError converting such an int; the point is named
    # as for any other coordinate that is not finite.
    assert message_of(lambda: Instance(PowerParams(1.0, 2.0), server_xy, user_xy, [1] * len(server_xy))) == message
