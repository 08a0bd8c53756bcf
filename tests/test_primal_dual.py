import numpy as np
import pytest

from cmpc import (
    GenConfig,
    Instance,
    InsufficientCapacityError,
    Point,
    PowerParams,
    Server,
    User,
    check_charging,
    dual_objective,
    gen_instance,
    pd_solve,
    validate,
    verify_dual_feasibility,
)
from cmpc import primal_dual
from cmpc.model import build_disks, order_table
from cmpc.primal_dual import apply_selection, init_solver, next_event, trace_to_json_list

from _oracles import ManualDuals


def make_instance(server_specs, user_points, c=1.0, alpha=2.0):
    servers = tuple(Server(i, Point(x, y), k) for i, (x, y, k) in enumerate(server_specs))
    users = tuple(User(j, Point(x, y)) for j, (x, y) in enumerate(user_points))
    return Instance(PowerParams(c, alpha), servers, users)


def two_user_line():
    return make_instance([(0.0, 0.0, 2)], [(1.0, 0.0), (2.0, 0.0)])


# --- hand-simulated runs ----------------------------------------------------


def test_single_server_two_users_ascent():
    # Selection at clock 1 (radius 1), then clock 3 (radius 2); the final
    # cover is the radius-2 disk alone, with both users priced 1 and 3.
    sol, duals, trace = pd_solve(two_user_line())
    assert sol.total_power == 4.0
    assert [ev.clock for ev in trace] == [1.0, 3.0]
    assert [ev.boundary_user for ev in trace] == [0, 1]
    assert duals.theta.tolist() == [1.0, 3.0]
    assert duals.theta[0] + duals.theta[1] == trace[-1].power
    assert dual_objective(duals) == 4.0
    assert verify_dual_feasibility(two_user_line(), duals) == []
    assert sol.assignment == (0, 0)


def test_two_symmetric_servers():
    inst = make_instance(
        [(0.0, 0.0, 1), (10.0, 0.0, 1)],
        [(1.0, 0.0), (9.0, 0.0)],
    )
    sol, duals, trace = pd_solve(inst)
    assert sol.total_power == 2.0
    assert sol.assignment == (0, 1)
    assert all(ev.clock == 1.0 for ev in trace)


def test_single_server_covers_farthest():
    inst = make_instance(
        [(0.0, 0.0, 5)],
        [(1.0, 2.0), (3.0, 0.5), (0.5, 0.5), (2.0, 2.0)],
    )
    sol, _, _ = pd_solve(inst)
    dists = [
        ((u.pos.x) ** 2 + (u.pos.y) ** 2) ** 0.5 for u in inst.users
    ]
    assert sol.total_power == pytest.approx(max(dists) ** 2, rel=1e-12)


def test_insufficient_capacity_rejected():
    inst = make_instance([(0.0, 0.0, 1)], [(1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(InsufficientCapacityError):
        pd_solve(inst)


# --- next_event -------------------------------------------------------------


def test_next_event_gamma_rate():
    # One active disk: p=4, two uncovered members, capacity 5 -> delta 2.
    inst = make_instance([(0.0, 0.0, 5)], [(0.0, 2.0), (2.0, 0.0)])
    state, duals = init_solver(inst)
    state.active[0] = False
    delta, tights = next_event(state, duals)
    assert delta == 2.0
    assert tights == [1]


def test_next_event_capacity_clamped_rate():
    # p=6, four uncovered members, remaining capacity 2 -> rate 2, delta 3.
    r = 6.0**0.5
    inst = make_instance(
        [(0.0, 0.0, 2)],
        [(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)],
    )
    state, duals = init_solver(inst)
    state.active[:3] = False
    delta, tights = next_event(state, duals)
    assert delta == pytest.approx(3.0, rel=1e-12)
    assert tights == [3]


def test_next_event_simultaneous_ties_ordered():
    inst = make_instance(
        [(0.0, 0.0, 1), (10.0, 0.0, 1)],
        [(1.0, 0.0), (9.0, 0.0)],
    )
    state, duals = init_solver(inst)
    delta, tights = next_event(state, duals)
    assert delta == 1.0
    assert tights == [0, 2]  # flat indices s*n + rank of (0, 0) and (1, 0)


# --- apply_selection --------------------------------------------------------


def test_apply_selection_updates_state():
    inst = two_user_line()
    state, duals = init_solver(inst)
    delta, tights = next_event(state, duals)
    newly = apply_selection(state, duals, tights[0])
    assert newly == [0]
    assert state.remaining_capacity[0] == 1
    assert not state.active[0] and state.active[1]
    assert state.lhs[1] == 2.0
    assert duals.covered_at[0] == 1.0


def test_apply_selection_vacuous_tie_sibling():
    # Two servers equidistant from both users: all four disks go tight at
    # once; the first big disk covers everything, its sibling is vacuous.
    inst = make_instance(
        [(0.0, 0.0, 2), (2.0, 0.0, 2)],
        [(1.0, 0.5), (1.0, -0.5)],
    )
    sol, duals, trace = pd_solve(inst)
    assert sol.assignment == (0, 0)
    assert sol.chosen[1] is None
    assert len(trace) == 1
    assert sol.total_power == pytest.approx(1.25, rel=1e-12)


def test_exhausted_server_disks_stop_ascending():
    inst = make_instance(
        [(0.0, 0.0, 1), (50.0, 0.0, 1)],
        [(1.0, 0.0), (2.0, 0.0)],
    )
    state, duals = init_solver(inst)
    delta, tights = next_event(state, duals)
    apply_selection(state, duals, tights[0])
    assert state.remaining_capacity[0] == 0
    charge = state.lhs.copy()
    delta, _ = next_event(state, duals)
    assert delta > 0
    assert np.array_equal(state.lhs[: inst.n], charge[: inst.n])  # all of server 0's disks


def test_apply_selection_requires_tight_active_disk():
    inst = two_user_line()
    state, duals = init_solver(inst)
    with pytest.raises(ValueError, match="not tight"):
        apply_selection(state, duals, 0)
    state.active[0] = False
    with pytest.raises(ValueError, match="active"):
        apply_selection(state, duals, 0)


def test_next_event_stall_detection():
    from cmpc import AscentStalledError

    inst = two_user_line()
    state, duals = init_solver(inst)
    state.active[:] = False
    with pytest.raises(AscentStalledError):
        next_event(state, duals)


# --- dual bookkeeping -------------------------------------------------------


def test_dual_objective_values():
    _, duals, _ = pd_solve(two_user_line())
    assert dual_objective(duals) == 4.0

    state, fresh = init_solver(two_user_line())
    assert dual_objective(fresh) == 0.0

    manual = ManualDuals(
        theta=np.array([2.0, 2.0]),
        beta=np.zeros(2),
        mu=np.zeros(2),
    )
    assert dual_objective(manual) == 4.0


def test_verify_zero_duals_feasible():
    inst = two_user_line()
    manual = ManualDuals(theta=np.zeros(2), beta=np.zeros(2), mu=np.zeros(1))
    assert verify_dual_feasibility(inst, manual) == []


def test_verify_flags_overpriced_user():
    inst = two_user_line()
    p_min = min(d.power for d in build_disks(inst))
    manual = ManualDuals(
        theta=np.array([p_min + 1.0, 0.0]),
        beta=np.zeros(2),
        mu=np.zeros(1),
    )
    violations = verify_dual_feasibility(inst, manual)
    assert violations
    assert all(v.constraint == "user price exceeds disk prices" for v in violations)


def test_verify_flags_overcharged_disk():
    inst = two_user_line()
    manual = ManualDuals(
        theta=np.zeros(2),
        beta=np.array([0.0, 0.0]),
        mu=np.zeros(1),
        gamma={(0, 0): 5.0},
    )
    violations = verify_dual_feasibility(inst, manual)
    assert any(v.constraint == "disk budget exceeded" for v in violations)


def test_mu_absorbs_depleted_server_pressure():
    # Server 0 fills up while users remain near it; its retired larger disks
    # keep collecting gamma, so mu must rise to keep the disk constraints
    # feasible while theta prices stay at the users' cover times.
    inst = make_instance(
        [(0.0, 0.0, 2), (100.0, 0.0, 2)],
        [(1.0, 0.0), (2.0, 0.0), (2.1, 0.0), (2.2, 0.0)],
        alpha=1.0,
    )
    sol, duals, trace = pd_solve(inst)
    assert validate(inst, sol).ok
    assert duals.mu[0] > 0
    assert verify_dual_feasibility(inst, duals) == []
    assert check_charging(inst, trace, duals) == []
    assert dual_objective(duals) <= sol.total_power + 1e-9


def finalize_reference_mu(inst, duals):
    """mu by one Python-level sum per disk, the loop finalize() replaces."""
    n = inst.n
    table = order_table(inst)
    powers = table.power.ravel()
    mu = np.zeros(inst.m)
    for idx in range(inst.m * n):
        s, rank = divmod(idx, n)
        members = table.order[s, : rank + 1]
        lhs = inst.servers[s].capacity * duals.beta[idx] + float(duals.gamma_members_array(idx, members).sum())
        mu[s] = max(mu[s], lhs - powers[idx])
    return mu


@pytest.mark.parametrize("block_elements", [1, 64, 1 << 16])
@pytest.mark.parametrize("seed", range(6))
def test_finalize_matches_per_disk_reference(seed, block_elements, monkeypatch):
    # Small blocks split each server's disks into many row blocks, one row
    # each at block_elements=1. Sums change association order, so mu may
    # differ from the reference by rounding only.
    monkeypatch.setattr(primal_dual, "FINALIZE_BLOCK_ELEMENTS", block_elements)
    m, n = 2 + seed % 4, 20 + 7 * seed
    inst = gen_instance(GenConfig(m=m, n=n, kbar=n / m, seed=500 + seed))
    _, duals, _ = pd_solve(inst)
    reference = finalize_reference_mu(inst, duals)
    scale = max(1.0, float(order_table(inst).power.max()))
    assert np.allclose(duals.mu, reference, rtol=0.0, atol=1e-9 * scale)
    assert (reference > 0).any()  # the instance exercises mu


# --- whole-run properties ---------------------------------------------------


def test_deterministic_trace_and_duals():
    inst = gen_instance(GenConfig(m=4, n=25, kbar=8.0, seed=321))
    first = pd_solve(inst)
    second = pd_solve(inst)
    assert trace_to_json_list(first[2]) == trace_to_json_list(second[2])
    assert first[0].total_power == second[0].total_power
    assert np.array_equal(first[1].theta, second[1].theta)


def test_trace_json_shape():
    _, _, trace = pd_solve(two_user_line())
    events = trace_to_json_list(trace)
    assert events == [
        {"clock": 1.0, "server": 0, "boundary_user": 0, "newly_covered": [0]},
        {"clock": 3.0, "server": 0, "boundary_user": 1, "newly_covered": [1]},
    ]


@pytest.mark.parametrize("seed", range(40))
def test_random_instances_feasible_and_priced(seed):
    kbar = [2.0, 5.0, 11.0][seed % 3]
    inst = gen_instance(GenConfig(m=1 + seed % 5, n=6 + seed % 17, kbar=kbar, seed=900 + seed))
    sol, duals, trace = pd_solve(inst)
    report = validate(inst, sol)
    assert report.ok, report.violations
    assert verify_dual_feasibility(inst, duals, tol=1e-7) == []
    assert check_charging(inst, trace, duals, tol=1e-7) == []
    loads = sol.loads(inst.m)
    for s, srv in enumerate(inst.servers):
        assert loads[s] <= srv.capacity
    # Selected radii only grow per server.
    last_rank = {}
    for ev in trace:
        assert ev.rank > last_rank.get(ev.server, -1)
        last_rank[ev.server] = ev.rank
    # The cover's power never exceeds m times the total user prices.
    assert sol.total_power <= inst.m * float(duals.theta.sum()) + 1e-7
