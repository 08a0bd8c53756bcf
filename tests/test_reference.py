import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpc import (
    GenConfig,
    Instance,
    InsufficientCapacityError,
    PowerParams,
    gen_instance,
    ncs_solve,
    opt_solve,
    pd_solve,
    validate,
)
from cmpc.model import order_table
from cmpc.reference import feasible_assignment, private_users_fit, reach_costs

from _oracles import (
    brute_force_assignment_exists,
    flat_enumeration_optimum,
    opt_solve_reference,
    order_key,
    table_key,
)


def make_instance(server_specs, user_points, c=1.0, alpha=2.0):
    server_xy = [(x, y) for x, y, _ in server_specs]
    return Instance(PowerParams(c, alpha), server_xy, user_points, [k for _, _, k in server_specs])


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
    for budget in (1, 3, 50):
        res = opt_solve(inst, budget=budget)
        assert res.status == "budget_exceeded"
        assert res.solution is None
        assert res.nodes_explored == budget


def test_opt_budget_of_exactly_the_search_suffices():
    inst = gen_instance(GenConfig(m=4, n=10, kbar=5.0, seed=17))
    full = opt_solve(inst)
    exact = opt_solve(inst, budget=full.nodes_explored)
    assert exact.to_json_dict() == full.to_json_dict()
    short = opt_solve(inst, budget=full.nodes_explored - 1)
    assert (short.status, short.nodes_explored) == ("budget_exceeded", full.nodes_explored - 1)


@pytest.mark.parametrize("budget", [0, -3])
def test_opt_rejects_budget_below_one(budget):
    inst = gen_instance(GenConfig(m=4, n=10, kbar=5.0, seed=17))
    with pytest.raises(ValueError, match=f"node budget must be >= 1, got {budget}"):
        opt_solve(inst, budget)


@pytest.mark.parametrize("budget", [50.5, True])
def test_opt_rejects_a_budget_that_is_not_an_int(budget):
    # `nodes == budget` never holds for 50.5, which would switch the budget
    # off; True would read as a budget of 1.
    inst = gen_instance(GenConfig(m=4, n=10, kbar=3.0, seed=109065))
    with pytest.raises(ValueError, match=f"node budget must be an int, got {budget!r}"):
        opt_solve(inst, budget)


def test_opt_matches_flat_enumeration_micro():
    for seed in range(25):
        inst = gen_instance(GenConfig(m=1 + seed % 2, n=2 + seed % 3, kbar=2.0, seed=seed))
        res = opt_solve(inst)
        assert res.status == "optimal"
        assert res.value == flat_enumeration_optimum(inst)


@pytest.mark.parametrize("m", range(1, 7))
def test_opt_matches_unpruned_search(m):
    # Per m, 7 user counts x 3 alphas x 3 capacity levels (total about 2.5n,
    # 1.6n and 1.2n, at least 1 per server): 378 instances over m = 1-6. The
    # flat enumeration cross-checks those with at most 1024 assignments. At
    # m = 4 and 5, a tight slice (total capacity about n, n = 8-10) adds 9
    # instances each, where the capacity prune cuts most nodes.
    configs = [
        GenConfig(m=m, n=n, kbar=max(ratio * n / m, 1.0), alpha=alpha, seed=50_000 + 1000 * m + 100 * n + 10 * level + int(alpha))
        for n, alpha, (level, ratio) in itertools.product(range(2, 9), (1.0, 2.0, 3.0), enumerate((2.5, 1.6, 1.2)))
    ]
    if m in (4, 5):
        configs += [
            GenConfig(m=m, n=n, kbar=n / m, alpha=alpha, seed=60_000 + 100 * m + 10 * n + int(alpha))
            for n, alpha in itertools.product(range(8, 11), (1.0, 2.0, 3.0))
        ]
    for config in configs:
        inst = gen_instance(config)
        res = opt_solve(inst)
        ref = opt_solve_reference(inst)
        assert res.status == ref.status, config
        assert res.to_json_dict().get("solution") == ref.to_json_dict().get("solution"), config
        assert res.nodes_explored <= ref.nodes_explored, config
        if res.status == "optimal" and m**inst.n <= 1024:
            assert res.value == flat_enumeration_optimum(inst), config


def test_capacity_prune_uses_both_limits():
    # Total capacity is n here. A node is pruned when the users outside every
    # chosen disk, or those beyond the chosen servers' capacity, overflow the
    # servers left. The search takes 12 nodes; with the first limit alone
    # (n - |covered|) it takes 20, with the second alone (n - cap) 23.
    inst = gen_instance(GenConfig(m=4, n=5, kbar=1.25, seed=70039))
    res = opt_solve(inst)
    assert (res.status, res.nodes_explored) == ("optimal", 12)
    assert res.to_json_dict()["solution"] == opt_solve_reference(inst).to_json_dict()["solution"]


def test_opt_result_json():
    res = opt_solve(three_user_instance())
    data = res.to_json_dict()
    assert data["status"] == "optimal"
    assert data["nodes_explored"] > 0
    assert data["solution"]["total_power"] == 65.0


@settings(max_examples=60, deadline=None)
@given(
    servers=st.lists(st.tuples(coords, st.integers(0, 3)), min_size=1, max_size=4),
    users=st.lists(coords, min_size=1, max_size=6),
    alpha=st.sampled_from([1.0, 2.0, 3.0]),
    picks=st.data(),
)
def test_reach_bound_never_exceeds_a_completion(servers, users, alpha, picks):
    # opt_solve prunes a node at server s once power_so_far plus the largest
    # reach cost of an uncovered user meets the incumbent. That sum must not
    # exceed the power, summed left to right, of any leaf below that covers
    # every user (enumerated here), and so not the cheapest feasible one.
    inst = make_instance(
        [(float(x), float(y), k) for (x, y), k in servers],
        [(float(x), float(y)) for x, y in users],
        alpha=alpha,
    )
    table = order_table(inst)
    m, n = inst.m, inst.n
    power = table.power.tolist()
    members = [[1 << h for h in row] for row in table.order.tolist()]
    masks = [[sum(row[: t + 1]) for t in range(n)] for row in members]
    s = picks.draw(st.integers(0, m), label="server")
    power_so_far, covered = 0.0, 0
    for srv in range(s):
        rank = picks.draw(st.integers(-1, n - 1), label=f"rank_{srv}")
        if rank >= 0:
            power_so_far += power[srv][rank]
            covered |= masks[srv][rank]
    uncovered = [h for h in range(n) if not covered >> h & 1]
    if s == m or not uncovered:
        return
    bound = power_so_far + max(float(reach_costs(table)[s, h]) for h in uncovered)
    for rest in itertools.product(range(-1, n), repeat=m - s):
        leaf_power, leaf_covered = power_so_far, covered
        for srv, rank in enumerate(rest, start=s):
            if rank >= 0:
                leaf_power += power[srv][rank]
                leaf_covered |= masks[srv][rank]
        if leaf_covered == (1 << n) - 1:
            assert bound <= leaf_power


@settings(max_examples=100, deadline=None)
@given(
    servers=st.lists(st.tuples(coords, st.integers(0, 3)), min_size=1, max_size=4),
    users=st.lists(coords, min_size=1, max_size=6),
    picks=st.data(),
)
def test_capacity_bound_never_prunes_a_feasible_completion(servers, users, picks):
    # opt_solve prunes a node at server s (servers 0..s-1 chosen; s = m is a
    # leaf) once n - min(cap, |covered|) exceeds the capacity of servers
    # s..m-1. Then no completion of the chosen prefix may have a matching.
    inst = make_instance(
        [(float(x), float(y), k) for (x, y), k in servers],
        [(float(x), float(y)) for x, y in users],
    )
    table = order_table(inst)
    m, n = inst.m, inst.n
    capacity = [srv.capacity for srv in inst.servers]
    s = picks.draw(st.integers(0, m), label="server")
    prefix, covered, cap = [], 0, 0
    for srv in range(s):
        rank = picks.draw(st.integers(-1, n - 1), label=f"rank_{srv}")
        prefix.append(None if rank < 0 else rank)
        if rank >= 0:
            covered |= sum(1 << h for h in table.order[srv, : rank + 1].tolist())
            cap += capacity[srv]
    if n - min(cap, covered.bit_count()) <= sum(capacity[s:]):
        return
    for rest in itertools.product([None, *range(n)], repeat=m - s):
        assert feasible_assignment(prefix + list(rest), inst) is None


@settings(max_examples=100, deadline=None)
@given(
    servers=st.lists(st.tuples(coords, st.integers(0, 3)), min_size=1, max_size=4),
    users=st.lists(coords, min_size=1, max_size=6),
    picks=st.data(),
)
def test_private_user_test_never_rejects_a_feasible_leaf(servers, users, picks):
    inst = make_instance(
        [(float(x), float(y), k) for (x, y), k in servers],
        [(float(x), float(y)) for x, y in users],
    )
    table = order_table(inst)
    choice, masks = [], []
    for s in range(inst.m):
        rank = picks.draw(st.integers(-1, inst.n - 1), label=f"rank_{s}")
        choice.append(None if rank < 0 else rank)
        masks.append(0 if rank < 0 else sum(1 << h for h in table.order[s, : rank + 1].tolist()))
    capacity = [srv.capacity for srv in inst.servers]
    if feasible_assignment(choice, inst) is not None:
        assert private_users_fit(masks, capacity)


def test_private_user_test_rejects_an_overfull_server():
    # Server 0's outer disk holds both users, and server 0 holds one. With
    # server 1's inner disk on, user 0 is shared and user 1 alone is private
    # to server 0: the leaf passes and is feasible. With server 1 off, both
    # users are private to server 0: the leaf is rejected, as the matching
    # fails.
    inst = make_instance([(0.0, 0.0, 1), (-3.0, 0.0, 1)], [(-1.0, 0.0), (2.0, 0.0)])
    table = order_table(inst)
    assert table.order.tolist() == [[0, 1], [0, 1]]
    assert private_users_fit([0b11, 0b01], [1, 1])
    assert feasible_assignment([1, 0], inst) == [1, 0]
    assert not private_users_fit([0b11, 0b00], [1, 1])
    assert feasible_assignment([1, None], inst) is None


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
