import copy
import dataclasses
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
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
    check_charging,
    dual_objective,
    gen_instance,
    ncs_solve,
    pd_solve,
    validate,
    verify_dual_feasibility,
)
from cmpc import primal_dual
from cmpc.cli import cli
from cmpc.model import dump_instance, order_table
from cmpc.certify import CHECK_TOL, TIGHTNESS_TOL, charge_breakdown
from cmpc.primal_dual import (
    EVENT_BUFFERS,
    AscentStalledError,
    apply_selection,
    init_solver,
    next_event,
    trace_to_json_list,
)

from _oracles import (
    ManualDuals,
    finalize_mu_by_runs,
    next_event_reference,
    reference_charge_breakdown,
    reference_dual_violations,
)
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
    assert check_charging(two_user_line(), trace, duals) == []
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
    assert sol.radius[1] is None and sol.power[1] is None
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


def test_event_that_covers_nobody_stalls_the_solve(monkeypatch):
    # Raised, not asserted, so that it holds under python -O too.
    monkeypatch.setattr(primal_dual, "next_event", lambda duals: (0.0, []))
    with pytest.raises(AscentStalledError, match="covered no user"):
        pd_solve(two_user_line())


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
        # Every event covers a user, so n events suffice.
        for _ in range(n):
            if not np.isnan(duals.covered_at).any():
                break
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
        assert not np.isnan(duals.covered_at).any()
    assert checked > 0 and exhausted > 0


# --- in-place event loop ---------------------------------------------------


def lockstep_instances():
    yield from ascent_instances()
    yield gen_instance(GenConfig(m=50, n=800, kbar=1600.0, seed=1))
    yield gen_instance(GenConfig(m=10, n=400, kbar=40.0, seed=1))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def charges(duals) -> np.ndarray:
    """A copy of every disk's charge: during the ascent the ranks at or
    beyond the width take their row's charge at width - 1, the one they
    share. The state itself is left as it is."""
    m, n = duals.table.order.shape
    filled = duals.lhs.reshape(m, n).copy()
    width = vars(duals).get("_width", n)
    filled[:, width:] = filled[:, width - 1 : width]
    return filled.ravel()


def assert_same_ascent(duals, reference):
    assert same_bits(charges(duals), charges(reference))
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


def select_tight(duals, tights):
    for idx in tights:
        if duals.is_active(idx):
            apply_selection(duals, idx)


def at_crossover(crossover, call, inst):
    """call(inst) with the shared suffix's crossover set to `crossover`:
    0 forces the suffix on wherever it applies, inf keeps every rank."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primal_dual, "SUFFIX_CROSSOVER", crossover)
        return call(inst)


def suffix_instances():
    yield from ascent_instances()
    # The 20 users on a grid of ascent_instances(), with servers on grid
    # points: disks beyond the width tie with the one at width - 1.
    grid = [(float(j % 5), float(j // 5)) for j in range(20)]
    yield make_instance([(4.0, 2.0, 6), (2.0, 2.0, 14)], grid)
    yield make_instance([(4.0, 0.0, 3), (3.0, 1.0, 4), (3.0, 0.0, 1), (2.0, 1.0, 12)], grid)
    yield gen_instance(GenConfig(m=50, n=800, kbar=20.0, seed=1))
    yield gen_instance(GenConfig(m=20, n=300, kbar=15.0, seed=1))


@pytest.mark.parametrize("inst", suffix_instances(), ids=lambda inst: f"m{inst.m}-n{inst.n}")
def test_suffix_ascent_matches_reference_in_lockstep(inst):
    # With the suffix forced on, the event loop that works on the ranks
    # below the width must still reach the reference's charges, clocks, gamma
    # starts and tight lists at every event, bit for bit; the reference runs
    # at full width.
    duals, reference = at_crossover(0, init_solver, inst), at_crossover(np.inf, init_solver, inst)
    assert reference._width == inst.n
    while np.isnan(duals.covered_at).any():
        step_lockstep(duals, reference)


def test_suffix_instances_exercise_the_suffix():
    # Most start with a suffix, and on the grid ones disks beyond the width
    # go tight, which only the screen at width - 1 finds.
    started = beyond = 0
    for inst in suffix_instances():
        duals = at_crossover(0, init_solver, inst)
        started += duals._width < inst.n
        while np.isnan(duals.covered_at).any():
            _, tights = next_event(duals)
            beyond += sum(idx % inst.n >= duals._width for idx in tights)
            select_tight(duals, tights)
    assert started >= 12 and beyond >= 5


def shared_attributes(duals) -> list[tuple[str, str]]:
    """The pairs of the state's array attributes that share memory."""
    arrays = [(name, value) for name, value in vars(duals).items() if isinstance(value, np.ndarray)]
    return [(a, b) for i, (a, x) in enumerate(arrays) for b, y in arrays[i + 1 :] if np.shares_memory(x, y)]


def test_deep_copy_mid_ascent_ascends_on_its_own():
    # A deep copy and an unpickled state must ascend on arrays of their own,
    # to the original's charges and cover; no attribute of any of them is a
    # view of another.
    inst = gen_instance(GenConfig(m=50, n=800, kbar=20.0, seed=1))
    duals = init_solver(inst)
    for _ in range(40):
        select_tight(duals, next_event(duals)[1])
    assert duals._width < inst.n
    branches = [copy.deepcopy(duals), pickle.loads(pickle.dumps(duals))]
    for state in (duals, *branches):
        assert shared_attributes(state) == []
        # Every event covers a user, so n events suffice.
        for _ in range(inst.n):
            if np.isnan(state.covered_at).any():
                select_tight(state, next_event(state)[1])
        assert not np.isnan(state.covered_at).any()
        assert shared_attributes(state) == []
    for branch in branches:
        for name in ("gamma_start", "covered_at", "assignment"):
            assert same_bits(getattr(duals, name), getattr(branch, name)), name
        assert same_bits(charges(duals), charges(branch))


def test_suffix_crossover_and_decreasing_powers_keep_full_width(monkeypatch):
    inst = gen_instance(GenConfig(m=50, n=800, kbar=20.0, seed=1))
    # 50 * (800 - 30) disks spared: above the crossover.
    assert init_solver(inst)._width == 30
    assert at_crossover(50 * (800 - 30) + 1, init_solver, inst)._width == 800
    # A row of powers that decreases somewhere keeps every rank.
    table = order_table(inst)
    power = table.power.copy()
    power[7, 500] = np.nextafter(power[7, 499], 0.0)
    monkeypatch.setattr(primal_dual, "order_table", lambda _: dataclasses.replace(table, power=power))
    assert at_crossover(0, init_solver, inst)._width == 800


def grid_instances():
    """Small instances with users on a 4 x 4 grid, so positions repeat, and
    some servers with no capacity; total capacity covers every user."""

    @st.composite
    def draw(data):
        m = data(st.integers(2, 5))
        n = data(st.integers(2, 24))
        points = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda p: Point(float(p[0]), float(p[1])))
        users = [User(j, data(points)) for j in range(n)]
        capacities = data(st.lists(st.integers(0, max(1, n // 2)), min_size=m, max_size=m))
        capacities[-1] += max(0, n - sum(capacities))
        servers = [Server(i, data(points), k) for i, k in enumerate(capacities)]
        alpha = data(st.sampled_from((1.0, 2.0, 3.3)))
        return Instance(PowerParams(1.0, alpha), tuple(servers), tuple(users))

    return draw()


@settings(max_examples=150, deadline=None)
@given(grid_instances())
def test_suffix_on_and_off_solve_alike(inst):
    sol_on, duals_on, trace_on = at_crossover(0, pd_solve, inst)
    sol_off, duals_off, trace_off = at_crossover(np.inf, pd_solve, inst)
    assert sol_on == sol_off
    assert trace_on == trace_off
    for name in ("theta", "beta", "gamma_start", "mu", "lhs"):
        assert same_bits(getattr(duals_on, name), getattr(duals_off, name)), name


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


def traced_peak(call) -> int:
    """Peak bytes that call() allocates over what was traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_next_event_allocates_no_disk_array():
    # After the first event, one event allocates less than one float64 array
    # over the m*n disks.
    m, n = 50, 800
    duals = init_solver(gen_instance(GenConfig(m=m, n=n, kbar=2.0 * n, seed=1)))
    select_tight(duals, next_event(duals)[1])
    assert traced_peak(lambda: next_event(duals)) < m * n * 8
    # So does every event on the shared suffix (kbar 20), widening or not.
    duals = init_solver(gen_instance(GenConfig(m=m, n=n, kbar=20.0, seed=1)))
    widths = [duals._width]
    select_tight(duals, next_event(duals)[1])
    while np.isnan(duals.covered_at).any():
        tights = []
        assert traced_peak(lambda: tights.extend(next_event(duals)[1])) < m * n * 8
        select_tight(duals, tights)
        widths.append(duals._width)
    assert widths[0] < n and len(set(widths)) > 10


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
        gamma_start=np.full(2, np.nan),
    )
    assert dual_objective(manual) == 4.0


def test_verify_zero_duals_feasible():
    inst = two_user_line()
    manual = ManualDuals(theta=np.zeros(2), beta=np.zeros(2), mu=np.zeros(1), gamma_start=np.full(2, np.nan))
    assert verify_dual_feasibility(inst, manual) == []


def test_verify_flags_overpriced_user():
    inst = two_user_line()
    p_min = float(order_table(inst).power.min())
    manual = ManualDuals(
        theta=np.array([p_min + 1.0, 0.0]),
        beta=np.zeros(2),
        mu=np.zeros(1),
        gamma_start=np.full(2, np.nan),
    )
    violations = verify_dual_feasibility(inst, manual)
    assert violations
    assert all(v.constraint == "user price exceeds disk prices" for v in violations)


def test_verify_flags_overcharged_disk():
    # Gamma prices start at 0, so user 0 pays gamma 5 into both disks, of
    # powers 1 and 4; user 1 pays nothing.
    inst = two_user_line()
    manual = ManualDuals(theta=np.array([5.0, 0.0]), beta=np.zeros(2), mu=np.zeros(1), gamma_start=np.zeros(2))
    violations = verify_dual_feasibility(inst, manual)
    assert [(v.constraint, v.amount, v.disk) for v in violations] == [
        ("disk budget exceeded", 4.0, 0),
        ("disk budget exceeded", 1.0, 1),
    ]


def test_verify_flags_negative_slack_price_on_its_server():
    inst = make_instance([(0.0, 0.0, 2), (10.0, 0.0, 2)], [(1.0, 0.0), (2.0, 0.0)])
    manual = ManualDuals(theta=np.zeros(2), beta=np.zeros(4), mu=np.array([0.0, -0.5]), gamma_start=np.full(4, np.nan))
    violations = verify_dual_feasibility(inst, manual)
    assert [(v.constraint, v.amount, v.server, v.user, v.disk) for v in violations] == [
        ("negative slack price", 0.5, 1, None, None)
    ]
    assert str(violations[0]) == "negative slack price violated by 5.000e-01 (server 1)"
    # Like every other sign check, it allows rounding down to -CHECK_TOL times
    # the largest power (81 here), and no further.
    tol = CHECK_TOL * float(order_table(inst).power.max())
    for slack, flagged in ((-0.5 * tol, False), (-2.0 * tol, True)):
        manual = ManualDuals(theta=np.zeros(2), beta=np.zeros(4), mu=np.array([0.0, slack]), gamma_start=np.full(4, np.nan))
        assert bool(verify_dual_feasibility(inst, manual)) == flagged


def test_cli_verify_has_no_tolerance_option(tmp_path, capsys):
    # The checkers derive their tolerance from the instance; there is no knob.
    path = tmp_path / "line.json"
    dump_instance(two_user_line(), str(path))
    assert cli(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("verify: ok (events=2,")
    assert cli(["verify", "--in", str(path), "--tol", "1e-7"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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
    """mu by one Python-level sum per disk of its members' max(0, theta - g)."""
    m, n = inst.m, inst.n
    table = order_table(inst)
    mu = np.zeros(m)
    for idx in range(m * n):
        s, rank = divmod(idx, n)
        gammas = np.maximum(duals.theta[table.order[s, : rank + 1]] - duals.gamma_start[idx], 0.0)
        lhs = inst.servers[s].capacity * duals.beta[idx] + float(gammas.sum())
        mu[s] = max(mu[s], lhs - float(table.power[s, rank]))
    return mu


def scaled(inst, scale):
    """`inst` with power scale c * scale; a power-of-two scale scales every disk power exactly."""
    return dataclasses.replace(inst, params=dataclasses.replace(inst.params, c=inst.params.c * scale))


def finalize_cases():
    for seed in range(6):
        m, n = 2 + seed % 4, 20 + 7 * seed
        yield pytest.param(gen_instance(GenConfig(m=m, n=n, kbar=n / m, seed=500 + seed)), True, id=str(seed))
    # Users on an integer grid: many disks share a gamma start. Capacity is
    # ample in the first, so no server needs slack there.
    grid_ample, grid_tight = list(ascent_instances())[-2:]
    yield pytest.param(grid_ample, False, id="grid-ample")
    yield pytest.param(grid_tight, True, id="grid-tight")


@pytest.mark.parametrize("scale", [1, 64, 1 << 16])
@pytest.mark.parametrize("inst, exercises_mu", finalize_cases())
def test_finalize_matches_per_disk_reference(inst, exercises_mu, scale):
    # finalize sums gamma prices by prefix sums over runs of equal gamma
    # start; the reference sums each disk's members on their own, at powers
    # scaled by 2^0, 2^6 and 2^16. Sums change association order, so mu may
    # differ by rounding only.
    inst = scaled(inst, scale)
    _, duals, _ = pd_solve(inst)
    reference = finalize_reference_mu(inst, duals)
    scale = max(1.0, float(order_table(inst).power.max()))
    assert np.allclose(duals.mu, reference, rtol=0.0, atol=1e-9 * scale)
    assert (reference > 0).any() == exercises_mu


def most_runs(inst, duals) -> int:
    """The largest number of runs of equal gamma start on one server."""
    starts = duals.gamma_start.reshape(inst.m, inst.n)
    return int((np.diff(starts, axis=1) != 0).sum(axis=1).max()) + 1


@pytest.mark.parametrize("scale", [1, 64, 1 << 16])
@pytest.mark.parametrize("inst, exercises_mu", finalize_cases())
def test_finalize_mu_is_the_per_run_sums_bit_for_bit(inst, exercises_mu, scale):
    # finalize sums up to m runs at a time; each run's prefix sum must be the
    # same sequential sum as the per-run loop's, so mu is equal bit for bit.
    _, duals, _ = pd_solve(scaled(inst, scale))
    assert same_bits(duals.mu, finalize_mu_by_runs(duals))


def test_finalize_cases_split_a_server_across_blocks():
    # A server with more than m runs has its runs in more than one block of
    # m; the m=2 tight draw that finalize_cases() starts with has one.
    inst = gen_instance(GenConfig(m=2, n=20, kbar=10.0, seed=500))
    _, duals, _ = pd_solve(inst)
    assert most_runs(inst, duals) > inst.m


@pytest.mark.parametrize("inst", lockstep_instances(), ids=lambda inst: f"m{inst.m}-n{inst.n}")
def test_finalize_mu_is_the_per_run_sums_on_lockstep_instances(inst):
    _, duals, _ = pd_solve(inst)
    assert same_bits(duals.mu, finalize_mu_by_runs(duals))


def sweep_instances():
    # The user-count study's draws at seed base 3000: m=10, n=20..200, three each.
    for p, n in enumerate(range(20, 201, 10)):
        for t in range(3):
            yield gen_instance(GenConfig(m=10, n=n, kbar=50.0, seed=3000 + 3 * p + t))


def oracle_instances():
    # 150 pairs at seed base 1000: ample (m=4-6, n=6-8, capacity 2.5n)
    # alternating with tight (m=4, n=8, capacity 1.2n).
    for i in range(150):
        m, n = ((4, 8), (5, 7), (6, 6))[i % 3]
        yield gen_instance(GenConfig(m=m, n=n, kbar=2.5 * n / m, seed=1000 + 2 * i))
        yield gen_instance(GenConfig(m=4, n=8, kbar=2.4, seed=1001 + 2 * i))


@pytest.mark.parametrize("draws, count", [(sweep_instances, 57), (oracle_instances, 300)], ids=["sweep", "oracle"])
def test_finalize_mu_is_the_per_run_sums_on_small_draws(draws, count):
    split = 0
    instances = list(draws())
    for inst in instances:
        _, duals, _ = pd_solve(inst)
        assert same_bits(duals.mu, finalize_mu_by_runs(duals))
        split += most_runs(inst, duals) > inst.m
    assert len(instances) == count
    assert split > 0


@pytest.mark.parametrize("kbar", [20.0, 1600.0], ids=["many-runs", "one-run"])
def test_finalize_peak_allocation_is_pinned(kbar, monkeypatch):
    # At m=50, n=800 the per-run loop's finalize peaked at 1,025,776 traced
    # bytes (kbar 20 and 1600 alike); the runs summed in the freed work
    # buffers must not exceed it, also when every server holds one run and
    # one block's gather spans all m*n disks.
    finalize, peaks = primal_dual.DualState.finalize, []
    monkeypatch.setattr(primal_dual.DualState, "finalize", lambda duals: peaks.append(traced_peak(lambda: finalize(duals))))
    pd_solve(gen_instance(GenConfig(m=50, n=800, kbar=kbar, seed=1)))
    assert len(peaks) == 1
    assert peaks[0] <= 1_025_776


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
    assert verify_dual_feasibility(inst, duals) == []
    assert check_charging(inst, trace, duals) == []
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

    Half of the mu values get noise, as there are only m of them, and a
    twentieth of the gamma starts become NaN: those disks have no gamma phase.
    """
    _, duals, _ = pd_solve(inst)
    rng = np.random.default_rng(seed)
    sigma = 0.05 * float(order_table(inst).power.max())

    def noisy(values, share=0.1):
        values = np.array(values, dtype=np.float64)
        return values + (rng.random(values.shape) < share) * rng.normal(0.0, sigma, values.shape)

    gamma_start = noisy(duals.gamma_start)
    gamma_start[rng.random(gamma_start.shape) < 0.05] = np.nan
    return ManualDuals(theta=noisy(duals.theta), beta=noisy(duals.beta), mu=noisy(duals.mu, 0.5), gamma_start=gamma_start)


@pytest.mark.parametrize("scale", [1, 64, 1 << 14])
@pytest.mark.parametrize("seed", range(40))
def test_blocked_verify_matches_per_disk_reference(seed, scale):
    # The checker flags a disk's members at once by min(g, max theta) - beta,
    # equal to the reference's per-member theta - beta - gamma in exact
    # arithmetic only. Powers scaled by 2^6 and 2^14 scale the ascent, every
    # price and the tolerance exactly, so large amounts meet the same relative
    # test as small ones. Budget sums change association order, so amounts may
    # differ from the reference by rounding only.
    inst = scaled(checker_instance(seed), scale)
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
    # Gamma prices are max(0, theta - g) >= 0, so no individual price is negative.
    kinds = set()
    for seed in range(40):
        inst = checker_instance(seed)
        kinds.update(v.constraint for v in verify_dual_feasibility(inst, perturbed_duals(inst, seed)))
    assert kinds == {
        "negative user price",
        "negative flat price",
        "negative slack price",
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


# --- unit independence ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 39), k=st.integers(-40, 40))
def test_power_unit_scales_the_ascent_and_checkers_exactly(seed, k):
    # c -> 2^k * c scales every disk power exactly, so the tight test, relative
    # to each power, and the checkers' tolerance, relative to the largest,
    # scale with it: the same cover and events, clocks and prices times 2^k.
    inst = checker_instance(seed)
    big = scaled(inst, 2.0**k)
    sol, duals, trace = pd_solve(inst)
    big_sol, big_duals, big_trace = pd_solve(big)
    assert big_sol.assignment == sol.assignment
    assert len(big_trace) == len(trace)
    assert [ev.clock for ev in big_trace] == [ev.clock * 2.0**k for ev in trace]
    assert same_bits(big_duals.theta, duals.theta * 2.0**k)
    assert same_bits(big_duals.mu, duals.mu * 2.0**k)
    assert verify_dual_feasibility(big, big_duals) == []
    assert check_charging(big, big_trace, big_duals) == []

    def where(instance, duals, trace):
        noisy = perturbed_duals(instance, seed)
        paid = SimpleNamespace(theta=noisy.theta, gamma_start=noisy.gamma_start, covered_at=duals.covered_at)
        return (
            [(v.constraint, v.user, v.disk, v.server) for v in verify_dual_feasibility(instance, noisy)],
            [(v.event_index, v.kind) for v in check_charging(instance, trace, paid)],
        )

    assert where(big, big_duals, big_trace) == where(inst, duals, trace)


def coordinate_scaled(inst, scale):
    """`inst` with every coordinate times `scale`."""
    def move(pos):
        return Point(pos.x * scale, pos.y * scale)

    return dataclasses.replace(
        inst,
        servers=tuple(dataclasses.replace(s, pos=move(s.pos)) for s in inst.servers),
        users=tuple(dataclasses.replace(u, pos=move(u.pos)) for u in inst.users),
    )


def test_coordinate_unit_keeps_the_cover():
    # Coordinates times 2^k scale every distance exactly and, for an integer
    # alpha, every power by 2^(k alpha) up to the rounding of r**alpha, which
    # can differ in the last bits: the same covers and selections, clocks and
    # mu times 2^(k alpha) to a relative 1e-12.
    for i in range(200):
        m, n, alpha = 2 + i % 5, 10 + 3 * (i % 17), float(1 + i % 3)
        kbar = float(n) / m if i % 2 else 2.5 * n / m
        inst = gen_instance(GenConfig(m=m, n=n, kbar=kbar, seed=9000 + i, alpha=alpha))
        sol, duals, trace = pd_solve(inst)
        ncs = ncs_solve(inst)
        for k in (-40, -7, 3, 20):
            power_scale = 2.0 ** (k * alpha)
            big = coordinate_scaled(inst, 2.0**k)
            big_sol, big_duals, big_trace = pd_solve(big)
            assert big_sol.assignment == sol.assignment
            assert ncs_solve(big).assignment == ncs.assignment
            assert [ev.disk_index for ev in big_trace] == [ev.disk_index for ev in trace]
            clocks = np.array([ev.clock for ev in trace]) * power_scale
            assert np.allclose([ev.clock for ev in big_trace], clocks, rtol=1e-12, atol=0.0)
            largest = float(big_duals.powers.max())
            assert np.allclose(big_duals.mu, duals.mu * power_scale, rtol=1e-12, atol=1e-12 * largest)


def test_tiny_power_unit_gives_the_unit_cover():
    # At c = 1e-12 an absolute floor on the tight test once made every disk
    # tight at its first event: 60 events, one per user, and another cover.
    def solve(c):
        return pd_solve(gen_instance(GenConfig(m=5, n=60, kbar=24.0, seed=3, c=c)))

    unit_sol, _, unit_trace = solve(1.0)
    tiny_sol, _, tiny_trace = solve(1e-12)
    assert len(unit_trace) == len(tiny_trace) == 18
    assert tiny_sol.assignment == unit_sol.assignment
    assert tiny_sol.total_power == pytest.approx(unit_sol.total_power * 1e-12, rel=1e-9)


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_charging_allows_the_ascent_its_tight_gap(c):
    # B's disk is 1e-10 of its power short of tight when A's goes tight, so
    # the ascent selects both at one clock and records B's full power: its
    # charge falls short by that gap, within TIGHTNESS_TOL but far above
    # CHECK_TOL. A power raised beyond the gap is still reported.
    inst = make_instance([(0.0, 0.0, 1), (10.0, 0.0, 1)], [(1.0, 0.0), (11.0 + 1e-10, 0.0)], c=c, alpha=1.0)
    sol, duals, trace = pd_solve(inst)
    assert [(ev.server, ev.clock) for ev in trace] == [(0, c), (1, c)]
    assert trace[1].power - c > 50 * CHECK_TOL * trace[1].power
    assert sol.assignment == (0, 1)
    assert check_charging(inst, trace, duals) == []
    assert verify_dual_feasibility(inst, duals) == []
    raised = [trace[0], dataclasses.replace(trace[1], power=trace[1].power * (1 + 2 * TIGHTNESS_TOL))]
    assert [v.kind for v in check_charging(inst, raised, duals)] == ["power vs beta-charge + gamma", "power vs per-user charges"]


def fault_reports(inst):
    """Reports of both checkers on pd's duals with one fault each: event
    power raised 10%, the largest mu halved, the largest theta raised 10%."""
    _, duals, trace = pd_solve(inst)

    def reports(trace, **prices):
        faulty = SimpleNamespace(
            theta=duals.theta, beta=duals.beta, mu=duals.mu, gamma_start=duals.gamma_start, covered_at=duals.covered_at
        )
        vars(faulty).update(prices)
        return len(verify_dual_feasibility(inst, faulty)) + len(check_charging(inst, trace, faulty))

    i = len(trace) // 2
    raised_power = list(trace)
    raised_power[i] = dataclasses.replace(trace[i], power=trace[i].power * 1.1)
    mu, theta = duals.mu.copy(), duals.theta.copy()
    mu[np.argmax(mu)] /= 2
    theta[np.argmax(theta)] *= 1.1
    return reports(trace), reports(raised_power), reports(trace, mu=mu), reports(trace, theta=theta)


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


def test_verify_pins_lowered_beta_to_its_disk(bench_scale):
    # Take a disk whose boundary user was covered before the disk's gamma
    # start g while an earlier member was covered later, and lower its beta
    # from g to the boundary user's theta. Then exactly the members covered
    # later than the boundary user pay too little, while the boundary user
    # itself does not: only a running max over the members finds the disk.
    inst, _, duals, _ = bench_scale
    n = inst.n
    table = order_table(inst)
    theta, starts = duals.theta, duals.gamma_start
    ranked = theta[table.order].ravel()
    earlier_max = np.maximum.accumulate(theta[table.order], axis=1).ravel()
    candidates = np.flatnonzero((ranked < starts) & (earlier_max > ranked + 1.0))
    idx = int(candidates[len(candidates) // 2])
    members = table.order[idx // n, : idx % n + 1]
    beta = duals.beta.copy()
    beta[idx] = ranked[idx]
    expected = [int(h) for h in members if theta[h] > beta[idx]]
    assert len(expected) >= 2
    # No member sits within the checkers' tolerance above the lowered beta.
    tol = CHECK_TOL * float(table.power.max())
    assert not ((theta[members] > beta[idx]) & (theta[members] <= beta[idx] + tol)).any()

    lowered = ManualDuals(theta=theta, beta=beta, mu=duals.mu, gamma_start=starts)
    violations = verify_dual_feasibility(inst, lowered)
    assert [(v.constraint, v.disk, v.user) for v in violations] == [
        ("user price exceeds disk prices", idx, h) for h in expected
    ]
    scale = float(table.power.max())
    for v in violations:
        assert abs(v.amount - (min(theta[v.user], starts[idx]) - beta[idx])) <= 1e-9 * scale


def test_check_charging_pins_raised_power_to_its_event(bench_scale):
    inst, _, duals, trace = bench_scale
    i = len(trace) // 2
    bumped = list(trace)
    bumped[i] = dataclasses.replace(trace[i], power=trace[i].power + 1.0)
    violations = check_charging(inst, bumped, duals)
    assert {v.event_index for v in violations} == {i}
    assert "power vs beta-charge + gamma" in {v.kind for v in violations}


def test_check_charging_pins_lowered_theta_to_its_user(bench_scale):
    # Lower one user's theta to half its charge from a final disk: that
    # disk's event reports the overcharge, and so does every other event
    # charging the user above its new theta, and no other event.
    inst, _, duals, trace = bench_scale
    final_event = max({ev.server: i for i, ev in enumerate(trace)}.values())
    charges = charge_breakdown(inst, trace, duals, final_event)
    h = max(charges, key=charges.get)
    assert charges[h] > 1.0
    theta = duals.theta.copy()
    theta[h] = charges[h] / 2
    lowered = SimpleNamespace(theta=theta, covered_at=duals.covered_at, gamma_start=duals.gamma_start)
    violations = check_charging(inst, trace, lowered)
    assert {v.kind for v in violations} == {"charge exceeds a user's theta"}
    overcharged = [i for i in range(len(trace)) if charge_breakdown(inst, trace, duals, i).get(h, 0.0) > theta[h]]
    assert [v.event_index for v in violations] == overcharged
    assert final_event in overcharged
    assert next(v.amount for v in violations if v.event_index == final_event) == charges[h] / 2


def test_checkers_find_faults_at_a_tiny_power_unit(bench_scale):
    # An absolute tolerance once hid all three faults at c = 1e-12.
    inst = bench_scale[0]
    tiny = scaled(inst, 1e-12)
    unit_reports = fault_reports(inst)
    assert unit_reports[0] == 0 and min(unit_reports[1:]) > 0
    assert fault_reports(tiny) == unit_reports


def test_cli_verify_bench_scale_instance(bench_scale, tmp_path, capsys):
    path = tmp_path / "bench_scale.json"
    dump_instance(bench_scale[0], str(path))
    assert cli(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("verify: ok")
