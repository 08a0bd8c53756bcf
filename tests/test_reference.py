import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpc import (
    GenConfig,
    Instance,
    InsufficientCapacityError,
    Point,
    PowerParams,
    Server,
    User,
    gen_instance,
    ncs_solve,
    opt_solve,
    pd_solve,
    validate,
)
from cmpc.model import order_table
from cmpc.reference import feasible_assignment

from _oracles import brute_force_assignment_exists, flat_enumeration_optimum, order_key, table_key


def make_instance(server_specs, user_points, c=1.0, alpha=2.0):
    servers = tuple(Server(i, Point(x, y), k) for i, (x, y, k) in enumerate(server_specs))
    users = tuple(User(j, Point(x, y)) for j, (x, y) in enumerate(user_points))
    return Instance(PowerParams(c, alpha), servers, users)


def three_user_instance():
    return make_instance(
        [(0.0, 0.0, 1), (10.0, 0.0, 2)],
        [(1.0, 0.0), (2.0, 0.0), (9.0, 0.0)],
    )


# --- feasible_assignment ----------------------------------------------------


def test_forced_assignment():
    inst = make_instance(
        [(0.0, 0.0, 1), (10.0, 0.0, 1)],
        [(1.0, 0.0), (9.0, 0.0)],
    )
    choice = [0, 0]  # each server's nearest-user disk
    assignment = feasible_assignment(choice, inst)
    assert assignment == [0, 1]


def test_halls_condition_assignment():
    # Both disks contain both users; capacities 1 and 1 still admit a
    # perfect assignment.
    inst = make_instance(
        [(0.0, 0.0, 1), (3.0, 0.0, 1)],
        [(1.0, 0.0), (2.0, 0.0)],
    )
    choice = [1, 1]  # rank-1 (outer) disk of each server
    assignment = feasible_assignment(choice, inst)
    assert assignment is not None
    assert sorted(assignment) == [0, 1]


def test_capacity_deficit_assignment():
    inst = make_instance([(0.0, 0.0, 1)], [(1.0, 0.0), (2.0, 0.0)])
    assert feasible_assignment([1], inst) is None


def test_unchosen_server_takes_no_users():
    inst = make_instance(
        [(0.0, 0.0, 2), (10.0, 0.0, 2)],
        [(1.0, 0.0), (2.0, 0.0)],
    )
    assignment = feasible_assignment([1, None], inst)
    assert assignment == [0, 0]
    assert feasible_assignment([None, None], inst) is None


coords = st.tuples(st.integers(0, 8), st.integers(0, 8))


@settings(max_examples=60, deadline=None)
@given(
    servers=st.lists(st.tuples(coords, st.integers(0, 3)), min_size=1, max_size=3),
    users=st.lists(coords, min_size=1, max_size=5),
    picks=st.data(),
)
def test_matching_agrees_with_brute_force(servers, users, picks):
    inst = make_instance(
        [(float(x), float(y), k) for (x, y), k in servers],
        [(float(x), float(y)) for x, y in users],
    )
    table = order_table(inst)
    n = inst.n
    choice = []
    for s in range(inst.m):
        rank = picks.draw(st.integers(-1, n - 1), label=f"rank_{s}")
        choice.append(None if rank < 0 else rank)

    allowed = [[] for _ in range(n)]
    for s, rank in enumerate(choice):
        if rank is None:
            continue
        for u in range(n):
            if order_key(inst.servers[s], inst.users[u]) <= table_key(table, s, rank):
                allowed[u].append(s)
    capacities = [srv.capacity for srv in inst.servers]

    assignment = feasible_assignment(choice, inst)
    exists = brute_force_assignment_exists(allowed, capacities)
    assert (assignment is not None) == exists
    if assignment is not None:
        loads = [0] * inst.m
        for u, s in enumerate(assignment):
            assert s in allowed[u]
            loads[s] += 1
        assert all(loads[s] <= capacities[s] for s in range(inst.m))


# --- exact search -----------------------------------------------------------


def test_opt_three_user_example():
    res = opt_solve(three_user_instance())
    assert res.status == "optimal"
    assert res.value == 65.0


def test_opt_single_server_covers_farthest():
    inst = make_instance([(0.0, 0.0, 3)], [(1.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    res = opt_solve(inst)
    assert res.status == "optimal"
    assert res.value == pytest.approx(4.0, rel=1e-12)


def test_opt_reports_infeasible():
    inst = make_instance([(0.0, 0.0, 1)], [(1.0, 0.0), (2.0, 0.0)])
    res = opt_solve(inst)
    assert res.status == "infeasible"
    with pytest.raises(ValueError):
        res.value


def test_opt_budget_exhaustion():
    inst = gen_instance(GenConfig(m=4, n=10, kbar=5.0, seed=17))
    res = opt_solve(inst, budget=3)
    assert res.status == "budget_exceeded"
    assert res.solution is None
    assert res.nodes_explored >= 3


@pytest.mark.parametrize("budget", [0, -3])
def test_opt_rejects_budget_below_one(budget):
    inst = gen_instance(GenConfig(m=4, n=10, kbar=5.0, seed=17))
    with pytest.raises(ValueError, match=f"node budget must be >= 1, got {budget}"):
        opt_solve(inst, budget)


def test_opt_matches_flat_enumeration_micro():
    for seed in range(25):
        inst = gen_instance(GenConfig(m=1 + seed % 2, n=2 + seed % 3, kbar=2.0, seed=seed))
        res = opt_solve(inst)
        assert res.status == "optimal"
        assert res.value == flat_enumeration_optimum(inst)


def test_opt_result_json():
    res = opt_solve(three_user_instance())
    data = res.to_json_dict()
    assert data["status"] == "optimal"
    assert data["nodes_explored"] > 0
    assert data["solution"]["total_power"] == 65.0


# --- greedy baseline --------------------------------------------------------


def test_ncs_independent_pairs_match_opt():
    inst = make_instance(
        [(0.0, 0.0, 1), (10.0, 0.0, 1)],
        [(1.0, 0.0), (9.0, 0.0)],
    )
    sol = ncs_solve(inst)
    assert sol.total_power == 2.0
    assert sol.assignment == (0, 1)


def test_ncs_three_user_example():
    sol = ncs_solve(three_user_instance())
    assert sol.total_power == 65.0
    assert sol.assignment == (0, 1, 1)


def test_ncs_single_server_equals_opt():
    inst = make_instance([(0.0, 0.0, 4)], [(1.0, 2.0), (3.0, 1.0), (0.5, 0.5)])
    assert ncs_solve(inst).total_power == opt_solve(inst).value


def test_ncs_requires_capacity():
    inst = make_instance([(0.0, 0.0, 1)], [(1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(InsufficientCapacityError):
        ncs_solve(inst)


def test_ncs_greedy_can_be_suboptimal():
    # The nearest pair grabs a user that the optimum would hand elsewhere.
    inst = make_instance(
        [(0.0, 0.0, 1), (3.0, 0.0, 2)],
        [(1.0, 0.0), (-2.0, 0.0)],
        alpha=1.0,
    )
    ncs = ncs_solve(inst)
    opt = opt_solve(inst)
    assert ncs.total_power >= opt.value


# --- cross-solver ordering --------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_opt_lower_bounds_heuristics(seed):
    inst = gen_instance(
        GenConfig(m=1 + seed % 3, n=4 + seed % 6, kbar=3.0 + (seed % 3), seed=4000 + seed)
    )
    res = opt_solve(inst)
    assert res.status == "optimal"
    assert validate(inst, res.solution).ok
    pd, _, _ = pd_solve(inst)
    ncs = ncs_solve(inst)
    assert res.value <= pd.total_power + 1e-9
    assert res.value <= ncs.total_power + 1e-9
    assert pd.total_power <= inst.m * res.value * (1 + 1e-9) + 1e-12
