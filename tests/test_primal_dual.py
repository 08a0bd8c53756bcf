import copy
import dataclasses
import tracemalloc
from types import SimpleNamespace

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
from cmpc import cli as cli_module
from cmpc import primal_dual
from cmpc.cli import cli
from cmpc.model import dump_instance, order_table
from cmpc.primal_dual import (
    EVENT_BUFFERS,
    AscentStalledError,
    apply_selection,
    charge_breakdown,
    init_solver,
    next_event,
    trace_to_json_list,
)

from _oracles import ManualDuals, next_event_reference, reference_charge_breakdown, reference_dual_violations
from test_golden import ascent_instances


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
    # Both disks have p=4. Disk 1 holds two uncovered members, capacity 5
    # -> delta 2; disk 0 holds one and is half charged by then.
    inst = make_instance([(0.0, 0.0, 5)], [(0.0, 2.0), (2.0, 0.0)])
    duals = init_solver(inst)
    delta, tights = next_event(duals)
    assert delta == 2.0
    assert tights == [1]
    assert duals.lhs[0] == 2.0


def test_next_event_capacity_clamped_rate():
    # p=6 for every disk, remaining capacity 2 -> rate 2 for the disks with
    # two or more uncovered members, delta 3 (unclamped, rate 4 would give 1.5).
    r = 6.0**0.5
    inst = make_instance(
        [(0.0, 0.0, 2)],
        [(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)],
    )
    duals = init_solver(inst)
    delta, tights = next_event(duals)
    assert delta == pytest.approx(3.0, rel=1e-12)
    assert tights == [1, 2, 3]


def test_next_event_simultaneous_ties_ordered():
    inst = make_instance(
        [(0.0, 0.0, 1), (10.0, 0.0, 1)],
        [(1.0, 0.0), (9.0, 0.0)],
    )
    duals = init_solver(inst)
    delta, tights = next_event(duals)
    assert delta == 1.0
    assert tights == [0, 2]  # flat indices s*n + rank of (0, 0) and (1, 0)


# --- apply_selection --------------------------------------------------------


def test_apply_selection_updates_state():
    inst = two_user_line()
    duals = init_solver(inst)
    delta, tights = next_event(duals)
    newly = apply_selection(duals, tights[0])
    assert newly == [0]
    assert duals.remaining_capacity[0] == 1
    assert not duals.is_active(0) and duals.is_active(1)
    assert duals.lhs[1] == 2.0
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
    duals = init_solver(inst)
    delta, tights = next_event(duals)
    apply_selection(duals, tights[0])
    assert duals.remaining_capacity[0] == 0
    charge = duals.lhs.copy()
    delta, _ = next_event(duals)
    assert delta > 0
    assert np.array_equal(duals.lhs[: inst.n], charge[: inst.n])  # all of server 0's disks


def test_apply_selection_requires_tight_active_disk():
    inst = two_user_line()
    duals = init_solver(inst)
    with pytest.raises(ValueError, match="not tight"):
        apply_selection(duals, 0)
    duals.remaining_capacity[0] = 0
    with pytest.raises(ValueError, match="active"):
        apply_selection(duals, 0)


def test_next_event_stall_detection():
    from cmpc import AscentStalledError

    inst = two_user_line()
    duals = init_solver(inst)
    duals.remaining_capacity[:] = 0
    with pytest.raises(AscentStalledError):
        next_event(duals)


def test_inactive_disks_stop_ascending_and_refuse_selection():
    # Ample (kbar 2n) and tight (kbar n/m) capacity alternate. A disk that is
    # not active must keep its charge and stay out of the tight list at the
    # next event. Selecting a selected disk again, a smaller disk of the same
    # server, or the largest disk of an exhausted server must fail.
    checked = exhausted = 0
    for i in range(30):
        m, n = 2 + i % 5, 10 + 2 * i
        kbar = float(n) / m if i % 2 else 2.0 * n
        inst = gen_instance(GenConfig(m=m, n=n, kbar=kbar, seed=6000 + i, alpha=(1.0, 2.0, 3.3)[i % 3]))
        duals = init_solver(inst)
        inactive = np.zeros(m * n, dtype=bool)
        charge = duals.lhs.copy()
        while np.isnan(duals.covered_at).any():
            _, tights = next_event(duals)
            assert np.array_equal(duals.lhs[inactive], charge[inactive])
            assert not inactive[tights].any()
            checked += int(inactive.sum())
            for idx in tights:
                if duals.is_active(idx):
                    apply_selection(duals, idx)
            inactive = np.array([not duals.is_active(idx) for idx in range(m * n)])
            charge = duals.lhs.copy()
            for s, last in enumerate(duals.last_selected):
                if last < 0:
                    continue
                refused = {last, s * n + (last - s * n) // 2}
                if duals.remaining_capacity[s] == 0:
                    refused.add((s + 1) * n - 1)
                    exhausted += 1
                for idx in refused:
                    with pytest.raises(ValueError, match="active"):
                        apply_selection(duals, idx)
    assert checked > 0 and exhausted > 0


# --- in-place event loop ---------------------------------------------------


def lockstep_instances():
    yield from ascent_instances()
    yield gen_instance(GenConfig(m=50, n=800, kbar=1600.0, seed=1))
    yield gen_instance(GenConfig(m=10, n=400, kbar=40.0, seed=1))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def assert_same_ascent(duals, reference):
    assert same_bits(duals.lhs, reference.lhs)
    assert same_bits(duals.gamma_start, reference.gamma_start)
    assert same_bits(duals.clock, reference.clock)
    assert np.array_equal(duals.remaining_capacity, reference.remaining_capacity)
    assert np.array_equal(duals.uncovered, np.isnan(duals.covered_at)[duals.table.order])


def step_lockstep(duals, reference):
    """One event of both states, with the same selections."""
    delta, tights = next_event(duals)
    ref_delta, ref_tights = next_event_reference(reference)
    assert same_bits(delta, ref_delta)
    assert tights == ref_tights
    assert_same_ascent(duals, reference)
    for idx in tights:
        if duals.is_active(idx):
            assert apply_selection(duals, idx) == apply_selection(reference, idx)
    assert_same_ascent(duals, reference)


@pytest.mark.parametrize("inst", lockstep_instances(), ids=lambda inst: f"m{inst.m}-n{inst.n}")
def test_next_event_matches_reference_in_lockstep(inst):
    # The in-place event loop must reach the charges, clocks and gamma starts
    # of the one that built every array afresh, bit for bit, at every event.
    duals, reference = init_solver(inst), init_solver(inst)
    while np.isnan(duals.covered_at).any():
        step_lockstep(duals, reference)


def test_next_event_stalls_like_reference():
    # Zeroing every server's capacity mid-ascent stalls both loops, after
    # both have moved the same beta-phase disks into their gamma phase.
    inst = gen_instance(GenConfig(m=10, n=400, kbar=40.0, seed=1))
    duals, reference = init_solver(inst), init_solver(inst)
    for _ in range(3):
        step_lockstep(duals, reference)
    assert np.isnan(reference.gamma_start).any()
    for state, advance in ((duals, next_event), (reference, next_event_reference)):
        state.remaining_capacity[:] = 0
        with pytest.raises(AscentStalledError):
            advance(state)
    assert not np.isnan(reference.gamma_start).any()
    assert_same_ascent(duals, reference)


def test_next_event_allocates_no_disk_array():
    # After the first event, one event allocates less than one float64 array
    # over the m*n disks.
    m, n = 50, 800
    duals = init_solver(gen_instance(GenConfig(m=m, n=n, kbar=2.0 * n, seed=1)))
    _, tights = next_event(duals)
    for idx in tights:
        if duals.is_active(idx):
            apply_selection(duals, idx)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        next_event(duals)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < m * n * 8


def test_solved_state_holds_no_event_buffers():
    inst = gen_instance(GenConfig(m=5, n=60, kbar=20.0, seed=3))
    assert set(EVENT_BUFFERS) <= set(vars(init_solver(inst)))
    _, duals, _ = pd_solve(inst)
    assert set(vars(duals)) == {
        "table", "powers", "tight_tol", "lhs", "capacity", "remaining_capacity", "last_selected",
        "assignment", "clock", "covered_at", "gamma_start", "mu",
    }


# --- dual bookkeeping -------------------------------------------------------


def test_dual_objective_values():
    _, duals, _ = pd_solve(two_user_line())
    assert dual_objective(duals) == 4.0

    fresh = init_solver(two_user_line())
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
    p_min = float(order_table(inst).power.min())
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


def test_verify_flags_negative_slack_price_on_its_server():
    inst = make_instance([(0.0, 0.0, 2), (10.0, 0.0, 2)], [(1.0, 0.0), (2.0, 0.0)])
    manual = ManualDuals(theta=np.zeros(2), beta=np.zeros(4), mu=np.array([0.0, -0.5]))
    violations = verify_dual_feasibility(inst, manual)
    assert [(v.constraint, v.amount, v.server, v.user, v.disk) for v in violations] == [
        ("negative slack price", 0.5, 1, None, None)
    ]
    assert str(violations[0]) == "negative slack price violated by 5.000e-01 (server 1)"
    # Like every other sign check, it allows rounding down to -tol.
    manual = ManualDuals(theta=np.zeros(2), beta=np.zeros(4), mu=np.array([0.0, -1e-8]))
    assert verify_dual_feasibility(inst, manual, tol=1e-7) == []


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-7])
def test_checkers_reject_tol_that_is_not_finite_and_nonnegative(tol):
    # A NaN tol makes every comparison false; a negative one flags exact prices.
    inst = two_user_line()
    _, duals, trace = pd_solve(inst)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        verify_dual_feasibility(inst, duals, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_charging(inst, trace, duals, tol=tol)
    assert verify_dual_feasibility(inst, duals, tol=0.0) == []
    assert check_charging(inst, trace, duals, tol=0.0) == []


def test_cli_verify_rejects_nan_tol(tmp_path, capsys, monkeypatch):
    def solve_not_expected(instance):
        raise AssertionError("verify solved before checking --tol")

    monkeypatch.setattr(cli_module, "pd_solve", solve_not_expected)
    path = tmp_path / "line.json"
    dump_instance(two_user_line(), str(path))
    assert cli(["verify", "--in", str(path), "--tol", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("verify: tol must be finite and >= 0")
    assert "verify: ok" not in captured.out


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


def finalize_reference_mu(inst, duals, block_elements):
    """mu by one Python-level sum per disk over gamma_block reads.

    Gamma prices are read per server in blocks of block_elements // n ranks
    (at least one), each against all of the server's users; a disk's sum takes
    the prefix of its row that holds its members.
    """
    m, n = inst.m, inst.n
    table = order_table(inst)
    step = max(1, block_elements // n)
    mu = np.zeros(m)
    for s in range(m):
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            gammas = duals.gamma_block(s * n + lo, s * n + hi, table.order[s])
            for rank in range(lo, hi):
                idx = s * n + rank
                lhs = inst.servers[s].capacity * duals.beta[idx] + float(gammas[rank - lo, : rank + 1].sum())
                mu[s] = max(mu[s], lhs - float(table.power[s, rank]))
    return mu


def finalize_cases():
    for seed in range(6):
        m, n = 2 + seed % 4, 20 + 7 * seed
        yield pytest.param(gen_instance(GenConfig(m=m, n=n, kbar=n / m, seed=500 + seed)), True, id=str(seed))
    # Users on an integer grid: many disks share a gamma start. Capacity is
    # ample in the first, so no server needs slack there.
    grid_ample, grid_tight = list(ascent_instances())[-2:]
    yield pytest.param(grid_ample, False, id="grid-ample")
    yield pytest.param(grid_tight, True, id="grid-tight")


@pytest.mark.parametrize("block_elements", [1, 64, 1 << 16])
@pytest.mark.parametrize("inst, exercises_mu", finalize_cases())
def test_finalize_matches_per_disk_reference(inst, exercises_mu, block_elements):
    # finalize sums gamma prices by prefix sums over runs of equal gamma
    # start; the reference reads them through gamma_block, one row per call
    # at block_elements=1 and whole servers at 1 << 16. Sums change
    # association order, so mu may differ by rounding only.
    _, duals, _ = pd_solve(inst)
    reference = finalize_reference_mu(inst, duals, block_elements)
    scale = max(1.0, float(order_table(inst).power.max()))
    assert np.allclose(duals.mu, reference, rtol=0.0, atol=1e-9 * scale)
    assert (reference > 0).any() == exercises_mu


@pytest.mark.parametrize("inst", ascent_instances())
def test_gamma_start_never_decreases_with_rank(inst):
    # finalize's run count, at most one run per event plus one, rests on this.
    _, duals, trace = pd_solve(inst)
    starts = duals.gamma_start.reshape(inst.m, inst.n)
    assert not np.isnan(starts).any()
    assert (np.diff(starts, axis=1) >= 0).all()
    assert all(len(np.unique(row)) <= len(trace) + 1 for row in starts)


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
    loads = sol.loads()
    for s, srv in enumerate(inst.servers):
        assert loads[s] <= srv.capacity
    # Selected radii only grow per server.
    last_rank = {}
    for ev in trace:
        assert ev.rank > last_rank.get(ev.server, -1)
        last_rank[ev.server] = ev.rank
    # The cover's power never exceeds m times the total user prices.
    assert sol.total_power <= inst.m * float(duals.theta.sum()) + 1e-7


# --- blocked checkers against the per-disk and per-segment references -------


def checker_instance(seed):
    kbar = [2.0, 5.0, 11.0][seed % 3]
    return gen_instance(GenConfig(m=1 + seed % 5, n=6 + seed % 17, kbar=kbar, seed=700 + seed))


def perturbed_duals(inst, seed):
    """pd_solve's duals as ManualDuals, with noise on a tenth of the prices.

    Half of the mu values get noise, as there are only m of them. Each disk
    also gets a price for a user outside it, which both checkers must ignore.
    """
    _, duals, _ = pd_solve(inst)
    rng = np.random.default_rng(seed)
    table = order_table(inst)
    m, n = inst.m, inst.n
    sigma = 0.05 * float(table.power.max())

    def noisy(values, share=0.1):
        values = np.array(values, dtype=np.float64)
        return values + (rng.random(values.shape) < share) * rng.normal(0.0, sigma, values.shape)

    gamma = {}
    for s in range(m):
        members = table.order[s]
        prices = noisy(duals.gamma_block(s * n, (s + 1) * n, members))
        for t in range(n):
            gamma.update({(int(members[j]), s * n + t): float(prices[t, j]) for j in range(t + 1) if prices[t, j]})
            if t + 1 < n:
                gamma[(int(members[-1]), s * n + t)] = -sigma
    return ManualDuals(theta=noisy(duals.theta), beta=noisy(duals.beta), mu=noisy(duals.mu, 0.5), gamma=gamma)


@pytest.mark.parametrize("block_elements", [1, 64, primal_dual.CHECK_BLOCK_ELEMENTS])
@pytest.mark.parametrize("seed", range(40))
def test_blocked_verify_matches_per_disk_reference(seed, block_elements, monkeypatch):
    # Small blocks split each server's disks into many row blocks, one row
    # each at block_elements=1. Budget sums change association order, so
    # amounts may differ from the reference by rounding only.
    monkeypatch.setattr(primal_dual, "CHECK_BLOCK_ELEMENTS", block_elements)
    inst = checker_instance(seed)
    duals = perturbed_duals(inst, seed)
    got = verify_dual_feasibility(inst, duals)
    expected = reference_dual_violations(inst, duals)
    where = [(v.constraint, v.user, v.disk, v.server) for v in got]
    assert where == [(v.constraint, v.user, v.disk, v.server) for v in expected]
    power = order_table(inst).power.ravel()
    for v, ref in zip(got, expected):
        scale = max(1.0, float(power[v.disk] if v.disk is not None else power.max()))
        assert abs(v.amount - ref.amount) <= 1e-9 * scale


def test_perturbed_duals_raise_every_violation_kind():
    kinds = set()
    for seed in range(40):
        inst = checker_instance(seed)
        kinds.update(v.constraint for v in verify_dual_feasibility(inst, perturbed_duals(inst, seed)))
    assert kinds == {
        "negative user price",
        "negative flat price",
        "negative slack price",
        "negative individual price",
        "user price exceeds disk prices",
        "disk budget exceeded",
    }


@pytest.mark.parametrize("seed", range(40))
def test_charge_breakdown_matches_per_segment_reference(seed):
    inst = checker_instance(seed)
    _, duals, trace = pd_solve(inst)
    for i, ev in enumerate(trace):
        got = charge_breakdown(inst, trace, duals, i)
        expected = reference_charge_breakdown(inst, trace, duals, i)
        assert list(got) == list(expected)
        assert all(abs(got[h] - expected[h]) <= 1e-12 * max(1.0, ev.power) for h in expected)


# --- checkers at bench scale ------------------------------------------------


@pytest.fixture(scope="module")
def bench_scale():
    # m=10, n=400 with total capacity ~n, the certify-tight benchmark's first size.
    inst = gen_instance(GenConfig(m=10, n=400, kbar=40.0, seed=3000))
    solution, duals, trace = pd_solve(inst)
    return inst, solution, duals, trace


def test_checkers_accept_bench_scale_solve(bench_scale):
    inst, _, duals, trace = bench_scale
    assert verify_dual_feasibility(inst, duals) == []
    assert check_charging(inst, trace, duals) == []


def test_verify_pins_lowered_mu_to_its_server(bench_scale):
    inst, solution, duals, _ = bench_scale
    s = int(np.argmax(duals.mu))
    assert duals.mu[s] > 1.0
    assert solution.loads()[s] == inst.servers[s].capacity
    lowered = copy.copy(duals)
    lowered.mu = duals.mu.copy()
    lowered.mu[s] -= 1.0
    violations = verify_dual_feasibility(inst, lowered)
    assert violations
    assert {v.constraint for v in violations} == {"disk budget exceeded"}
    assert {v.disk // inst.n for v in violations} == {s}


def test_check_charging_pins_raised_power_to_its_event(bench_scale):
    inst, _, duals, trace = bench_scale
    i = len(trace) // 2
    bumped = list(trace)
    bumped[i] = dataclasses.replace(trace[i], power=trace[i].power + 1.0)
    violations = check_charging(inst, bumped, duals)
    assert {v.event_index for v in violations} == {i}
    assert "power vs beta-charge + gamma" in {v.kind for v in violations}


def test_check_charging_pins_lowered_theta_to_its_user(bench_scale):
    # The final cover may charge user h at most m * theta_h in total; lower
    # one charged user's theta to a 2m-th of its charge from one final disk.
    inst, _, duals, trace = bench_scale
    last_event = max({ev.server: i for i, ev in enumerate(trace)}.values())
    charges = charge_breakdown(inst, trace, duals, last_event)
    h = max(charges, key=charges.get)
    assert charges[h] > 1.0
    theta = duals.theta.copy()
    theta[h] = charges[h] / (2 * inst.m)
    lowered = SimpleNamespace(theta=theta, covered_at=duals.covered_at, gamma_start=duals.gamma_start)
    cover = [v for v in check_charging(inst, trace, lowered) if v.event_index == -1]
    assert [v.kind for v in cover] == [f"user {h} charged above m * theta"]
    assert cover[0].amount >= charges[h] / 2


def test_cli_verify_bench_scale_instance(bench_scale, tmp_path, capsys):
    path = tmp_path / "bench_scale.json"
    dump_instance(bench_scale[0], str(path))
    assert cli(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("verify: ok")
