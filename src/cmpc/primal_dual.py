"""Event-driven dual-ascent solver for the capacitated power cover problem.

The LP relaxation of the covering program has one price theta_h per user and,
per candidate disk, a flat price beta (paid by every user when the disk holds
more uncovered users than the server could serve) plus individual prices
gamma_{h,disk}. All prices of uncovered users rise at unit rate on a common
clock. A disk accumulates charge at rate

    min(remaining capacity of its server, uncovered users it contains)

and is selected the moment its accumulated charge reaches its power. A
selection assigns the disk's uncovered users to its server, consumes that much
remaining capacity, and retires every smaller concentric disk. The last disk a
server selects is its final power assignment.

Instead of stepping time, the solver jumps between selection events with
closed-form inter-event times; the piecewise-constant rates make this exact.

Two bookkeeping rules keep the final prices feasible for the covering dual
even though remaining capacity (not nominal capacity) drives the ascent:

* gamma prices of a retired disk's uncovered members keep rising until those
  users are covered elsewhere, so no user's theta ever outruns the prices of
  a disk containing it;
* any excess this creates over a disk's power is absorbed by the per-server
  slack price mu (the dual variable of the one-disk-per-server constraint),
  which is zero unless a server exhausts its capacity while users linger
  uncovered nearby.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Disk, Instance, OrderTable, order_table
from .solution import Solution, make_solution

# A disk is tight when its remaining charge gap is below this, relative to
# max(1, power): event times are exact in simple cases but accumulate
# rounding over many events.
TIGHTNESS_TOL = 1e-9

# Elements per temporary array in DualState.finalize, which sums gamma prices
# over blocks of a server's disks instead of an n x n matrix at once.
FINALIZE_BLOCK_ELEMENTS = 1 << 16


class InsufficientCapacityError(ValueError):
    """Total capacity is below the number of users."""


class CapacityInvariantError(RuntimeError):
    """A tight disk would cover more users than its server can still serve.

    Structurally unreachable under the selection order used here; raised as a
    hard diagnostic (with the partial event trace) if numerics prove otherwise.
    """

    def __init__(self, message: str, disk: Disk, newly_covered: Sequence[int], remaining: int):
        super().__init__(message)
        self.disk = disk
        self.newly_covered = list(newly_covered)
        self.remaining = remaining
        self.trace: list[SelectionEvent] = []


class AscentStalledError(RuntimeError):
    """No disk can ascend although users remain uncovered."""


@dataclass(frozen=True)
class SelectionEvent:
    """One selection: a disk went tight and took over its uncovered users."""

    clock: float
    server: int
    boundary_user: int
    rank: int
    disk_index: int
    newly_covered: tuple[int, ...]
    power: float
    remaining_after: int

    def to_json_dict(self) -> dict:
        return {
            "clock": self.clock,
            "server": self.server,
            "boundary_user": self.boundary_user,
            "newly_covered": list(self.newly_covered),
        }


EventTrace = list[SelectionEvent]


def trace_to_json_list(trace: EventTrace) -> list[dict]:
    return [ev.to_json_dict() for ev in trace]


class SolverState:
    """Mutable ascent state: accumulated charge, retired disks, capacities.

    The disk of server s at rank t lives at flat index s*n + t (see
    OrderTable); `lhs[idx]` is its accumulated charge and `tight_tol[idx]`
    the charge gap below which it counts as tight.
    """

    def __init__(self, instance: Instance):
        m, n = instance.m, instance.n
        self.n = n
        self.m = m
        self.table = order_table(instance)
        self.powers = self.table.power.ravel()
        self.tight_tol = TIGHTNESS_TOL * np.maximum(1.0, self.powers)
        self.lhs = np.zeros(m * n, dtype=np.float64)
        self.active = np.ones(m * n, dtype=bool)
        self.capacity = np.array([s.capacity for s in instance.servers], dtype=np.int64)
        self.remaining_capacity = self.capacity.copy()
        self.last_selected: list[Optional[int]] = [None] * m
        self.covered = np.zeros(n, dtype=bool)
        self.assignment = np.full(n, -1, dtype=np.int64)
        self.trace: EventTrace = []


class DualState:
    """Dual prices of a run, reconstructable at any clock value.

    Prices follow the clock in lockstep, so they are stored in closed form:
    a disk born with more uncovered members than remaining capacity pays into
    beta from clock 0 until `gamma_start`, after which (or from 0 otherwise)
    each still-uncovered member h pays gamma at unit rate until covered_at[h].
    Hence beta = gamma_start for beta-phase disks and

        gamma[h, disk] = max(0, covered_at[h] - gamma_start[disk]).

    mu stays zero during the ascent; finalize() raises mu[s] just enough to
    absorb any overshoot of k_s * beta + sum(gamma) over a disk's power.
    """

    def __init__(self, state: SolverState):
        self.n = state.n
        self.m = state.m
        self._table = state.table
        self._capacity = state.capacity
        self._powers = state.powers
        self.clock = 0.0
        self.covered_at = np.full(state.n, np.nan, dtype=np.float64)
        # Before any selection the disk at rank t holds t + 1 uncovered users.
        self.born_beta = (np.arange(1, state.n + 1) > state.capacity[:, None]).ravel()
        self.gamma_start = np.where(self.born_beta, np.nan, 0.0)
        self.mu = np.zeros(state.m, dtype=np.float64)

    @property
    def theta(self) -> np.ndarray:
        return np.where(np.isnan(self.covered_at), self.clock, self.covered_at)

    @property
    def beta(self) -> np.ndarray:
        phase_end = np.where(np.isnan(self.gamma_start), self.clock, self.gamma_start)
        return np.where(self.born_beta, phase_end, 0.0)

    def gamma_members_array(self, disk_index: int, members: np.ndarray) -> np.ndarray:
        """Gamma prices of `members` (the disk's users, in any order) in that disk."""
        g = self.gamma_start[disk_index]
        if math.isnan(g):
            return np.zeros(len(members))
        paid_until = np.where(np.isnan(self.covered_at[members]), self.clock, self.covered_at[members])
        return np.maximum(0.0, paid_until - g)

    def finalize(self) -> None:
        """Set mu to the least slack making every disk constraint feasible.

        The disk of server s at rank t needs k_s * beta + sum over its members
        j <= t of max(0, paid_j - gamma_start) <= power + mu_s. The sums are
        taken over blocks of ranks, so temporaries stay O(block * n).
        """
        m, n = self.m, self.n
        paid = self.theta
        # A disk still in its beta phase has no gamma prices.
        start = np.nan_to_num(self.gamma_start.reshape(m, n), nan=np.inf)
        lhs = self._capacity[:, None] * self.beta.reshape(m, n)
        step = min(n, max(1, FINALIZE_BLOCK_ELEMENTS // n))
        later_member = np.triu(np.ones((step, step), dtype=bool), 1)
        for s in range(m):
            paid_s = paid[self._table.order[s]]
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                gap = paid_s[None, :hi] - start[s, lo:hi, None]
                np.maximum(gap, 0.0, out=gap)
                gap[:, lo:][later_member[: hi - lo, : hi - lo]] = 0.0
                lhs[s, lo:hi] += gap.sum(axis=1)
        excess = (lhs - self._powers.reshape(m, n)).max(axis=1)
        self.mu = np.maximum(0.0, excess)


def init_solver(instance: Instance) -> tuple[SolverState, DualState]:
    state = SolverState(instance)
    duals = DualState(state)
    return state, duals


def next_event(state: SolverState, duals: DualState) -> tuple[float, list[int]]:
    """Advance the clock to the next time a disk goes tight.

    Ascent rates are min(remaining capacity, uncovered members), zero for
    retired disks, emptied disks and exhausted servers. Disks still in their
    beta phase whose uncovered members fit the remaining capacity leave it at
    the current clock, before the rates apply. Returns the time advanced and
    the flat indices of every disk tight at the new clock, ascending: that is
    (server id, key) order, the processing order.
    """
    census = np.cumsum(~state.covered[state.table.order], axis=1)
    room = state.remaining_capacity[:, None]
    # gamma_start is NaN exactly on active disks in their beta phase (retiring
    # sets it). Within one event "fits the remaining capacity" only turns
    # true, so checking it once per event records the same clock as checking
    # it after every selection.
    duals.gamma_start[np.isnan(duals.gamma_start) & (census <= room).ravel()] = duals.clock
    rates = np.minimum(room, census).ravel()
    rates[~state.active] = 0
    positive = rates > 0
    if not positive.any():
        raise AscentStalledError("no disk can ascend but users remain uncovered")
    residual = state.powers - state.lhs
    delta = max(float(np.min(residual[positive] / rates[positive])), 0.0)
    after = residual - rates * delta
    state.lhs += rates * delta
    duals.clock += delta
    return delta, np.flatnonzero(positive & (after <= state.tight_tol)).tolist()


def _retire(state: SolverState, duals: DualState, lo: int, hi: int) -> None:
    # Retired beta-phase disks get a synthetic gamma phase from now on, so
    # lingering uncovered members keep paying; finalize() routes any excess
    # over the disk power into mu.
    state.active[lo:hi] = False
    start = duals.gamma_start[lo:hi]
    start[np.isnan(start)] = duals.clock


def apply_selection(state: SolverState, duals: DualState, idx: int) -> list[int]:
    """Select a tight disk: assign its uncovered users, retire smaller disks.

    `idx` is the disk's flat index. Returns the newly covered users,
    ascending. A tight disk whose uncovered set was emptied by an earlier
    selection in the same event is only retired; nothing else changes.
    """
    if not state.active[idx]:
        raise ValueError("apply_selection: disk is no longer active")
    if state.powers[idx] - state.lhs[idx] > state.tight_tol[idx]:
        raise ValueError("apply_selection: disk is not tight")
    n = state.n
    s, rank = divmod(idx, n)
    members = state.table.order[s, : rank + 1]
    newly = members[~state.covered[members]]
    if not len(newly):
        _retire(state, duals, idx, idx + 1)
        return []
    if len(newly) > state.remaining_capacity[s]:
        raise CapacityInvariantError(
            f"tight disk (server {s}, rank {rank}) holds {len(newly)} uncovered "
            f"users but only {state.remaining_capacity[s]} capacity remains",
            state.table.disk(s, rank),
            newly.tolist(),
            int(state.remaining_capacity[s]),
        )

    state.covered[newly] = True
    state.assignment[newly] = s
    duals.covered_at[newly] = duals.clock
    state.remaining_capacity[s] -= len(newly)

    prev = state.last_selected[s]
    assert prev is None or prev < idx, "selected disks of a server must grow"
    state.last_selected[s] = idx

    _retire(state, duals, s * n, idx + 1)
    if state.remaining_capacity[s] == 0:
        _retire(state, duals, s * n, (s + 1) * n)
    return sorted(newly.tolist())


def pd_solve(instance: Instance) -> tuple[Solution, DualState, EventTrace]:
    """Cover all users by dual ascent; return the cover, prices and trace.

    Raises InsufficientCapacityError when total capacity < n, and
    CapacityInvariantError (trace attached) if a selection would ever exceed
    remaining capacity.
    """
    if not instance.has_sufficient_capacity():
        raise InsufficientCapacityError(
            f"total capacity {instance.total_capacity} < {instance.n} users"
        )
    state, duals = init_solver(instance)
    n = instance.n
    while not state.covered.all():
        _, tights = next_event(state, duals)
        progressed = False
        for idx in tights:
            if not state.active[idx]:
                continue
            try:
                newly = apply_selection(state, duals, idx)
            except CapacityInvariantError as err:
                err.trace = list(state.trace)
                raise
            if newly:
                progressed = True
                s, rank = divmod(idx, n)
                state.trace.append(
                    SelectionEvent(
                        clock=duals.clock,
                        server=s,
                        boundary_user=int(state.table.order[s, rank]),
                        rank=rank,
                        disk_index=idx,
                        newly_covered=tuple(newly),
                        power=float(state.powers[idx]),
                        remaining_after=int(state.remaining_capacity[s]),
                    )
                )
        assert progressed, "an event must cover at least one user"

    # Every disk has left its beta phase once nobody is uncovered.
    leftover = np.isnan(duals.gamma_start)
    duals.gamma_start[leftover] = duals.clock
    duals.finalize()

    chosen: list[Optional[Disk]] = [
        state.table.disk(*divmod(i, n)) if i is not None else None for i in state.last_selected
    ]
    solution = make_solution(instance, chosen, [int(s) for s in state.assignment])
    return solution, duals, list(state.trace)


def dual_objective(duals) -> float:
    """Value of the ascent's dual solution: sum(theta) - sum(mu)."""
    return float(np.sum(duals.theta) - np.sum(duals.mu))


@dataclass(frozen=True)
class DualViolation:
    constraint: str
    amount: float
    user: Optional[int] = None
    disk: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.user is not None:
            where.append(f"user {self.user}")
        if self.disk is not None:
            where.append(f"disk {self.disk}")
        return f"{self.constraint} violated by {self.amount:.3e} ({', '.join(where) or 'global'})"


def verify_dual_feasibility(instance: Instance, duals, tol: float = 1e-7) -> list[DualViolation]:
    """Check the dual prices against the covering dual's constraints.

    For every user h inside disk D: theta_h <= beta_D + gamma_{h,D} + tol.
    For every disk D of server i: k_i * beta_D + sum_h gamma_{h,D} <= p_D + mu_i + tol.
    All prices must be >= -tol. Returns every violation found (empty means
    feasible); this checker is independent of the ascent bookkeeping.
    `duals` provides `theta`, `beta`, `mu` and
    `gamma_members_array(disk_index, members)`, the gamma prices of the
    given members (read from this checker's own order table) in that disk.
    """
    m, n = instance.m, instance.n
    table = order_table(instance)
    theta = np.asarray(duals.theta, dtype=np.float64)
    beta = np.asarray(duals.beta, dtype=np.float64)
    mu = np.asarray(duals.mu, dtype=np.float64)
    violations: list[DualViolation] = []

    for h in np.nonzero(theta < -tol)[0].tolist():
        violations.append(DualViolation("negative user price", float(-theta[h]), user=h))
    for idx in np.nonzero(beta < -tol)[0].tolist():
        violations.append(DualViolation("negative flat price", float(-beta[idx]), disk=idx))
    for i in np.nonzero(mu < 0)[0].tolist():
        violations.append(DualViolation("negative slack price", float(-mu[i]), disk=None, user=None))

    for idx in range(m * n):
        s, rank = divmod(idx, n)
        members = table.order[s, : rank + 1]
        gammas = np.asarray(duals.gamma_members_array(idx, members), dtype=np.float64)
        slack = theta[members] - beta[idx] - gammas
        for pos in np.nonzero((gammas < -tol) | (slack > tol))[0].tolist():
            h, g = int(members[pos]), float(gammas[pos])
            if g < -tol:
                violations.append(DualViolation("negative individual price", -g, user=h, disk=idx))
            if slack[pos] > tol:
                violations.append(DualViolation("user price exceeds disk prices", float(slack[pos]), user=h, disk=idx))
        lhs = instance.servers[s].capacity * beta[idx] + float(gammas.sum())
        budget_slack = lhs - table.power[s, rank] - mu[s]
        if budget_slack > tol:
            violations.append(DualViolation("disk budget exceeded", float(budget_slack), disk=idx))
    return violations


@dataclass(frozen=True)
class ChargingViolation:
    event_index: int
    kind: str
    amount: float

    def __str__(self) -> str:
        return f"event {self.event_index}: {self.kind} off by {self.amount:.3e}"


def charge_breakdown(
    instance: Instance,
    trace: EventTrace,
    duals,
    event_index: int,
    table: Optional[OrderTable] = None,
) -> dict[int, float]:
    """Per-user charges paying for one selection event's disk power.

    While the disk held more uncovered members than its server's remaining
    capacity, the remaining-capacity-many lowest-key uncovered members each paid at unit rate
    into the flat price; afterwards every still-uncovered member paid its
    individual price until covered. The charges are rebuilt from the event
    trace and closed-form prices, independently of the ascent's running sums;
    they sum to the disk's power and never exceed a user's theta. `table`
    is the instance's OrderTable, built here when not given.
    """
    ev = trace[event_index]
    if table is None:
        table = order_table(instance)
    members = table.order[ev.server, : ev.rank + 1].tolist()
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)
    g = float(duals.gamma_start[ev.disk_index])

    charges = {h: float(max(0.0, covered_at[h] - g)) for h in members}

    if g > 0:
        # Remaining capacity of this server over time, from the trace.
        timeline: list[tuple[float, int]] = [(0.0, instance.servers[ev.server].capacity)]
        for other in trace:
            if other.server == ev.server:
                timeline.append((other.clock, other.remaining_after))
        # Segment boundaries: any event can change the uncovered census.
        cuts = sorted({0.0} | {e.clock for e in trace if e.clock < g}) + [g]
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                continue
            kp = next(kp for start, kp in reversed(timeline) if start <= a)
            paying = [h for h in members if covered_at[h] > a][:kp]
            for h in paying:
                charges[h] += b - a
    return charges


def check_charging(
    instance: Instance,
    trace: EventTrace,
    duals,
    tol: float = 1e-7,
) -> list[ChargingViolation]:
    """Audit the charging accounting of every selection event.

    For each selected disk, its power must equal the flat-price charge it
    collected (remaining capacity integrated over its saturated phase) plus
    its members' individual payments; the same total must be recoverable as
    per-user charges of at most theta_h each; and across the final cover no
    user may be charged by more than m disks. Everything is reconstructed
    from the trace and the closed-form prices, independently of the ascent's
    running sums.
    """
    n = instance.n
    table = order_table(instance)
    theta = np.asarray(duals.theta, dtype=np.float64)
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)

    timelines: dict[int, list[tuple[float, int]]] = {
        s.id: [(0.0, s.capacity)] for s in instance.servers
    }
    for ev in trace:
        timelines[ev.server].append((ev.clock, ev.remaining_after))

    def beta_charge(server: int, until: float) -> float:
        total = 0.0
        segments = timelines[server]
        for seg_idx, (start, kp) in enumerate(segments):
            end = segments[seg_idx + 1][0] if seg_idx + 1 < len(segments) else math.inf
            lo, hi = start, min(end, until)
            if hi > lo:
                total += kp * (hi - lo)
        return total

    violations: list[ChargingViolation] = []
    for ev_i, ev in enumerate(trace):
        idx = ev.disk_index
        members = table.order[ev.server, : ev.rank + 1]
        g = float(duals.gamma_start[idx])
        gamma_sum = float(np.maximum(0.0, covered_at[members] - g).sum())
        charge = beta_charge(ev.server, g) + gamma_sum
        scale = max(1.0, ev.power)
        if abs(ev.power - charge) > tol * scale:
            violations.append(ChargingViolation(ev_i, "power vs beta-charge + gamma", abs(ev.power - charge)))

        charges = charge_breakdown(instance, trace, duals, ev_i, table)
        total = sum(charges.values())
        if abs(ev.power - total) > tol * scale:
            violations.append(ChargingViolation(ev_i, "power vs per-user charges", abs(ev.power - total)))
        overpaid = max((c - theta[h] for h, c in charges.items()), default=0.0)
        if overpaid > tol * max(1.0, float(theta.max(initial=1.0))):
            violations.append(ChargingViolation(ev_i, "charge exceeds a user's theta", float(overpaid)))

    # Across the final cover, each user pays for at most one disk per server.
    final_events: dict[int, int] = {}
    for ev_i, ev in enumerate(trace):
        final_events[ev.server] = ev_i
    charged_count = np.zeros(n, dtype=np.int64)
    for ev_i in final_events.values():
        for h, c in charge_breakdown(instance, trace, duals, ev_i, table).items():
            if c > 0:
                charged_count[h] += 1
    for h in np.nonzero(charged_count > instance.m)[0]:
        violations.append(
            ChargingViolation(-1, f"user {h} charged by more than m disks", float(charged_count[h]))
        )
    return violations
