"""A batch of instances of one shape (pd_solve_batch) solves each instance
bit for bit as pd_solve does alone."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpc import GenConfig, Instance, PowerParams, gen_instance, pd_solve
from cmpc import primal_dual
from cmpc.primal_dual import pd_solve_batch

ALPHAS = (1.0, 2.0, 3.3)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def drawn(m, n, capacity, alpha, seed):
    """gen_instance with total capacity about `capacity` * n."""
    return gen_instance(GenConfig(m=m, n=n, kbar=capacity * n / m, seed=seed, alpha=alpha))


def on_top(instance):
    """`instance` with user j moved onto server j, for j < m and j < n / 2:
    a disk of power 0, selected at clock 0."""
    moved = min(instance.m, instance.n // 2)
    user_xy = instance.user_xy.copy()
    user_xy[:moved] = instance.server_xy[:moved]
    return dataclasses.replace(instance, user_xy=user_xy)


def on_grid(m, n, alpha, positions, capacities):
    """Users at the integer points (j % 5, j // 5), servers at `positions` of
    that grid: many disks tie in power, so many go tight at once."""
    user_xy = [(j % 5, j // 5) for j in range(n)]
    capacities = list(capacities)
    capacities[-1] += max(0, n - sum(capacities))
    return Instance(PowerParams(1.0, alpha), positions, user_xy, capacities)


@st.composite
def batches(draw):
    """2-5 instances of one shape (m, n): drawn with ample (2x) or tight (1x)
    total capacity, with users on top of servers, or on an integer grid."""
    kind = draw(st.sampled_from(("ample", "tight", "on top", "grid")))
    count, m = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    n = draw(st.integers(max(2, m), 40))
    alpha, seed = draw(st.sampled_from(ALPHAS)), draw(st.integers(0, 2**20))
    if kind == "grid":
        point = st.tuples(st.integers(0, 4), st.integers(0, n // 5))
        return [
            on_grid(m, n, alpha, draw(st.lists(point, min_size=m, max_size=m)), draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))
            for _ in range(count)
        ]
    batch = [drawn(m, n, 2.0 if kind == "ample" else 1.0, alpha, seed + b) for b in range(count)]
    return [on_top(instance) for instance in batch] if kind == "on top" else batch


def assert_batch_solves_alone(batch):
    """Each instance's cover, trace and prices from the batch equal those of
    its own pd_solve, bit for bit; returns the lone solves."""
    solutions, duals, traces = pd_solve_batch(batch)
    m, n = batch[0].m, batch[0].n
    alone = [pd_solve(instance) for instance in batch]
    for b, (solution, lone, trace) in enumerate(alone):
        assert solutions[b] == solution
        # repr shows every field, and its type: a numpy scalar would print as one.
        assert [repr(ev) for ev in traces[b]] == [repr(ev) for ev in trace]
        users, disks = slice(b * n, (b + 1) * n), slice(b * m * n, (b + 1) * m * n)
        assert same_bits(duals.theta[users], lone.theta)
        assert same_bits(duals.covered_at[users], lone.covered_at)
        assert same_bits(duals.gamma_start[disks], lone.gamma_start)
        assert same_bits(duals.beta[disks], lone.beta)
        assert same_bits(duals.clock[b], lone.clock)
    return alone


@settings(max_examples=120, deadline=None)
@given(batches())
def test_batch_solves_each_instance_as_alone(batch):
    assert_batch_solves_alone(batch)


def fixed_groups():
    yield "ample", [drawn(6, 40, 2.0, ALPHAS[b % 3], 500 + b) for b in range(4)]
    yield "tight", [drawn(5, 40, 1.0, ALPHAS[b % 3], 600 + b) for b in range(5)]
    yield "on top", [on_top(drawn(4, 12, 1.5, 2.0, 700 + b)) for b in range(3)]
    corners = ((0, 0), (4, 0), (2, 3))
    yield "grid", [on_grid(3, 20, 2.0, corners, capacities) for capacities in ((20, 20, 20), (8, 6, 6), (2, 9, 9))]


def test_fixed_groups_tie_run_out_and_finish_apart(monkeypatch):
    # Record, before each step of a batch, which instances still have
    # uncovered users: one that finished steps by 0 while others go on.
    real, apart = primal_dual.next_event, []

    def next_event(duals):
        if duals.clock.size > 1:
            left = np.isnan(duals.covered_at).reshape(duals.clock.size, -1).any(axis=1)
            apart.append(bool(left.any() and not left.all()))
        return real(duals)

    monkeypatch.setattr(primal_dual, "next_event", next_event)
    seen = set()
    for kind, batch in fixed_groups():
        alone = assert_batch_solves_alone(batch)
        traces = [trace for _, _, trace in alone]
        if any(len({ev.clock for ev in trace}) < len(trace) for trace in traces):
            seen.add(f"{kind}: simultaneous selections")
        if any((duals.mu > 0).any() for _, duals, _ in alone):
            seen.add(f"{kind}: mu > 0")
        if any(ev.remaining_after == 0 for trace in traces for ev in trace):
            seen.add(f"{kind}: a server runs out")
        if any(trace[0].clock == 0.0 and trace[0].power == 0.0 for trace in traces):
            seen.add(f"{kind}: a power-0 disk at clock 0")
        if any(apart):
            seen.add(f"{kind}: an instance finishes first")
        apart.clear()
    assert {"grid: simultaneous selections", "tight: mu > 0", "tight: a server runs out", "on top: a power-0 disk at clock 0"} <= seen
    assert {kind for kind, _ in fixed_groups()} == {item.split(":")[0] for item in seen if item.endswith("finishes first")}


def test_batch_of_one_is_pd_solve_but_finalize():
    instance = drawn(5, 60, 1.0, 2.0, 3)
    (solution,), duals, (trace,) = pd_solve_batch([instance])
    lone = pd_solve(instance)
    assert (solution, trace) == (lone[0], lone[2])
    assert same_bits(duals.clock, lone[1].clock) and duals.clock.shape == (1,)
    assert not duals.mu.any() and (lone[1].mu > 0).any()


def test_batch_rejects_no_instance():
    with pytest.raises(ValueError, match="at least one instance"):
        pd_solve_batch([])


def test_batch_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="one shape"):
        pd_solve_batch([drawn(3, 10, 2.0, 2.0, 1), drawn(3, 11, 2.0, 2.0, 2)])


def test_batch_stalls_where_one_instance_cannot_ascend():
    # Instance 1 of the union keeps its users but loses every server's room:
    # none of its disks has a positive rate, so its step has no minimum.
    first, second = drawn(3, 10, 2.0, 2.0, 1), drawn(3, 10, 2.0, 2.0, 2)
    duals = primal_dual.init_solver(first, second)
    duals.remaining_capacity[first.m :] = 0
    with pytest.raises(primal_dual.AscentStalledError, match="an instance has users uncovered but no disk that can ascend"):
        primal_dual.next_event(duals)


@pytest.mark.parametrize("m, n, kbar, count", [(3, 10, 20.0, 1), (50, 800, 20.0, 1), (3, 10, 20.0, 2)], ids=["lone", "lone-block", "batch"])
def test_finished_ascent_steps_by_zero(m, n, kbar, count):
    # Once every user is covered, no disk ascends: each clock steps by 0 and
    # no disk goes tight, on the full-width and the block path alike.
    duals = primal_dual.init_solver(*(gen_instance(GenConfig(m=m, n=n, kbar=kbar, seed=b)) for b in range(count)))
    assert (duals._block is not None) == (m == 50)
    while np.isnan(duals.covered_at).any():
        for idx in primal_dual.next_event(duals)[1]:
            if duals.is_active(idx):
                primal_dual.apply_selection(duals, idx)
    clocks = np.copy(duals.clock)
    delta, tights = primal_dual.next_event(duals)
    assert same_bits(delta, np.zeros(count)) and tights == []
    assert same_bits(duals.clock, clocks)
