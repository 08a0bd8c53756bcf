"""Event-driven dual-ascent solver for the capacitated power cover problem.

The LP relaxation of the covering program has one price theta_h per user and,
per candidate disk, a flat price beta (paid by every user when the disk holds
more uncovered users than the server could serve) plus individual prices
gamma_{h,disk}. All prices of uncovered users rise at unit rate on a common
clock. A disk accumulates charge at rate

    min(remaining capacity of its server, uncovered users it contains)

and is selected the moment its accumulated charge reaches its power. A
selection assigns the disk's uncovered users to its server and consumes that
much remaining capacity; every smaller concentric disk then holds no uncovered
user and stops ascending. The last disk a server selects is its final power
assignment.

Instead of stepping time, the solver jumps between selection events with
closed-form inter-event times; the piecewise-constant rates make this exact.

Two bookkeeping rules keep the final prices feasible for the covering dual
even though remaining capacity (not nominal capacity) drives the ascent:

* gamma prices of the uncovered members of an exhausted server's disks keep
  rising until those users are covered elsewhere, so no user's theta ever
  outruns the prices of a disk containing it;
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

from .model import Disk, Instance, order_table
from .solution import Solution, make_solution

# A disk is tight when its remaining charge gap is below this, relative to
# max(1, power): event times are exact in simple cases but accumulate
# rounding over many events.
TIGHTNESS_TOL = 1e-9

# Elements per [disks, members] block in verify_dual_feasibility. Larger
# blocks save little time and raise peak memory.
CHECK_BLOCK_ELEMENTS = 1 << 14


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


# The ascent-only arrays of DualState, dropped once the ascent is over.
EVENT_BUFFERS = ("uncovered", "_rows", "_rates", "_residual", "_scratch", "_positive", "_flag")


class DualState:
    """The ascent's state: charges, capacities, cover and dual prices.

    The disk of server s at rank t lives at flat index s*n + t (see
    OrderTable); `lhs[idx]` is its accumulated charge and `tight_tol[idx]`
    the charge gap below which it counts as tight. `last_selected[s]` is the
    flat index of server s's last selection, -1 before its first.

    Prices follow the clock in lockstep, so they are stored in closed form:
    a disk born with more uncovered members than remaining capacity pays into
    beta from clock 0 until `gamma_start`, after which (or from 0 otherwise)
    each still-uncovered member h pays gamma at unit rate until covered_at[h].
    Hence beta = gamma_start (the clock while still NaN) and

        gamma[h, disk] = max(0, covered_at[h] - gamma_start[disk]).

    mu stays zero during the ascent; finalize() raises mu[s] just enough to
    absorb any overshoot of k_s * beta + sum(gamma) over a disk's power.

    During the ascent `uncovered[s, t]` is 1.0 while the user at rank t of
    server s is uncovered and 0.0 after, i.e. isnan(covered_at)[order], kept
    by apply_selection. It and the event loop's work buffers (EVENT_BUFFERS)
    are allocated once per solve and dropped by finalize().
    """

    def __init__(self, instance: Instance):
        m, n = instance.m, instance.n
        self.table = order_table(instance)
        self.powers = self.table.power.ravel()
        self.tight_tol = TIGHTNESS_TOL * np.maximum(1.0, self.powers)
        self.lhs = np.zeros(self.powers.size, dtype=np.float64)
        self.capacity = np.array([s.capacity for s in instance.servers], dtype=np.int64)
        self.remaining_capacity = self.capacity.copy()
        self.last_selected = [-1] * m
        self.assignment = np.full(n, -1, dtype=np.int64)
        self.clock = 0.0
        self.covered_at = np.full(n, np.nan, dtype=np.float64)
        # Before any selection the disk at rank t holds t + 1 uncovered users.
        self.gamma_start = np.where(np.arange(1, n + 1) > self.capacity[:, None], np.nan, 0.0).ravel()
        self.mu = np.zeros(m, dtype=np.float64)
        # float64, not bool: a cumsum over bools would allocate a float copy.
        self.uncovered = np.ones((m, n), dtype=np.float64)
        self._rows = np.arange(m)[:, None]
        self._rates = np.empty((m, n), dtype=np.float64)
        self._residual = np.empty(m * n, dtype=np.float64)
        self._scratch = np.empty(m * n, dtype=np.float64)
        self._positive = np.empty(m * n, dtype=bool)
        self._flag = np.empty(m * n, dtype=bool)

    @property
    def theta(self) -> np.ndarray:
        return np.where(np.isnan(self.covered_at), self.clock, self.covered_at)

    @property
    def beta(self) -> np.ndarray:
        return np.where(np.isnan(self.gamma_start), self.clock, self.gamma_start)

    def is_active(self, idx: int) -> bool:
        """Whether the disk at flat index `idx` can still be selected.

        It can while its server has capacity left and it is larger than the
        server's last selection.
        """
        s = idx // self.table.order.shape[1]
        return bool(self.remaining_capacity[s] > 0) and idx > self.last_selected[s]

    def gamma_block(self, lo: int, hi: int, members: np.ndarray) -> np.ndarray:
        """Gamma prices of `members` in the disks with flat indices lo..hi-1.

        Returns a [hi - lo, len(members)] array. Entries of users outside a
        disk carry no meaning; callers mask them by rank.
        """
        covered_at = self.covered_at[members]
        paid_until = np.where(np.isnan(covered_at), self.clock, covered_at)
        # A disk still in its beta phase (start NaN) has no gamma prices.
        start = np.nan_to_num(self.gamma_start[lo:hi], nan=np.inf)
        gap = paid_until[None, :] - start[:, None]
        return np.maximum(gap, 0.0, out=gap)

    def finalize(self) -> None:
        """Set mu to the least slack making every disk constraint feasible.

        The disk of server s at rank t needs k_s * beta + sum over its members
        order[s, :t + 1] of gamma <= power + mu_s, where gamma[h, disk] =
        max(0, theta_h - gamma_start[disk]). So the disks of a run [lo, hi) of
        ranks that share one gamma start g take their gamma sums from one
        prefix sum of max(0, theta - g) over order[s, :hi], whatever the
        starts are. Called once every disk has left its beta phase.

        The runs are few because gamma_start never decreases with rank: it
        starts at 0 below the capacity and NaN above; each event stamps its
        clock on the disks in beta that leave it, (census <= room) |
        (room == 0), a rank prefix of them since census is a cumsum over rank;
        and pd_solve stamps the rest with the last clock. So a server has at
        most E + 1 runs for E events: O(m * n * (E + 1)) time, O(n)
        temporaries.
        """
        m, n = self.table.order.shape
        theta = self.theta[self.table.order]
        starts = self.gamma_start.reshape(m, n)
        lhs = self.capacity[:, None] * self.beta.reshape(m, n)
        for s in range(m):
            edges = [0, *(np.flatnonzero(np.diff(starts[s])) + 1).tolist(), n]
            for lo, hi in zip(edges, edges[1:]):
                gamma = np.maximum(theta[s, :hi] - starts[s, lo], 0.0)
                lhs[s, lo:hi] += np.cumsum(gamma)[lo:hi]
        excess = (lhs - self.table.power).max(axis=1)
        self.mu = np.maximum(0.0, excess)
        for name in EVENT_BUFFERS:
            vars(self).pop(name, None)


def init_solver(instance: Instance) -> DualState:
    return DualState(instance)


def next_event(duals: DualState) -> tuple[float, list[int]]:
    """Advance the clock to the next time a disk goes tight.

    Ascent rates are min(remaining capacity, uncovered members): zero for
    disks at or below their server's last selection, whose members are all
    covered, and for exhausted servers. Disks still in their beta phase whose
    uncovered members fit the remaining capacity, or whose server is
    exhausted, leave it at the current clock, before the rates apply. Returns
    the time advanced and the flat indices of every disk tight at the new
    clock, ascending: that is (server id, key) order, the processing order.

    Every m*n array is computed in place in the state's work buffers. Rates
    are small integers held exactly in float64, so each value is the same
    IEEE expression as with integer rates: the step is min(residual / rate)
    over the positive rates, the charge lhs + rate * delta and the tight test
    residual - rate * delta <= tol.
    """
    census = duals._rates
    np.cumsum(duals.uncovered, axis=1, out=census)
    room = duals.remaining_capacity[:, None].astype(np.float64)
    # Within one event "fits the remaining capacity" only turns true, so
    # checking it once per event records the same clock as checking it after
    # every selection. An exhausted server's disks get a gamma phase from now
    # on, so lingering uncovered members keep paying; finalize() routes any
    # excess over the disk power into mu.
    in_beta = np.isnan(duals.gamma_start, out=duals._flag)
    if in_beta.any():
        leaves_beta = duals._positive
        # (census <= room) | (room == 0), with an exhausted server's room as inf.
        np.less_equal(census, np.where(room == 0, np.inf, room), out=leaves_beta.reshape(census.shape))
        leaves_beta &= in_beta
        np.copyto(duals.gamma_start, duals.clock, where=leaves_beta)

    rates = np.minimum(census, room, out=census).reshape(-1)
    positive = np.greater(rates, 0.0, out=duals._positive)
    if not positive.any():
        raise AscentStalledError("no disk can ascend but users remain uncovered")
    residual, scratch = duals._residual, duals._scratch
    np.subtract(duals.powers, duals.lhs, out=residual)
    # where= leaves the other entries of scratch stale, so the min skips them too.
    np.divide(residual, rates, out=scratch, where=positive)
    delta = max(float(np.minimum.reduce(scratch, where=positive, initial=np.inf)), 0.0)
    step = np.multiply(rates, delta, out=scratch)
    duals.lhs += step
    residual -= step
    duals.clock += delta
    tight = np.less_equal(residual, duals.tight_tol, out=duals._flag)
    tight &= positive
    return delta, np.flatnonzero(tight).tolist()


def apply_selection(duals: DualState, idx: int) -> list[int]:
    """Select a tight disk: assign its uncovered users to its server.

    `idx` is the disk's flat index. Returns the newly covered users,
    ascending. A tight disk whose uncovered set was emptied by an earlier
    selection in the same event changes nothing. Smaller disks of the server
    stop ascending, as their members are all covered.
    """
    if not duals.is_active(idx):
        raise ValueError("apply_selection: disk is no longer active")
    if duals.powers[idx] - duals.lhs[idx] > duals.tight_tol[idx]:
        raise ValueError("apply_selection: disk is not tight")
    s, rank = divmod(idx, duals.table.order.shape[1])
    members = duals.table.order[s, : rank + 1]
    newly = members[np.isnan(duals.covered_at[members])]
    if not len(newly):
        return []
    if len(newly) > duals.remaining_capacity[s]:
        raise CapacityInvariantError(
            f"tight disk (server {s}, rank {rank}) holds {len(newly)} uncovered "
            f"users but only {duals.remaining_capacity[s]} capacity remains",
            duals.table.disk(s, rank),
            newly.tolist(),
            int(duals.remaining_capacity[s]),
        )

    duals.assignment[newly] = s
    duals.covered_at[newly] = duals.clock
    duals.uncovered[duals._rows, duals.table.rank[:, newly]] = 0.0
    duals.remaining_capacity[s] -= len(newly)
    duals.last_selected[s] = idx
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
    duals = init_solver(instance)
    n = instance.n
    trace: EventTrace = []
    while np.isnan(duals.covered_at).any():
        _, tights = next_event(duals)
        progressed = False
        for idx in tights:
            if not duals.is_active(idx):
                continue
            try:
                newly = apply_selection(duals, idx)
            except CapacityInvariantError as err:
                err.trace = list(trace)
                raise
            if newly:
                progressed = True
                s, rank = divmod(idx, n)
                trace.append(
                    SelectionEvent(
                        clock=duals.clock,
                        server=s,
                        boundary_user=int(duals.table.order[s, rank]),
                        rank=rank,
                        disk_index=idx,
                        newly_covered=tuple(newly),
                        power=float(duals.powers[idx]),
                        remaining_after=int(duals.remaining_capacity[s]),
                    )
                )
        assert progressed, "an event must cover at least one user"

    # Every disk has left its beta phase once nobody is uncovered.
    leftover = np.isnan(duals.gamma_start)
    duals.gamma_start[leftover] = duals.clock
    duals.finalize()

    chosen: list[Optional[Disk]] = [
        duals.table.disk(*divmod(i, n)) if i >= 0 else None for i in duals.last_selected
    ]
    solution = make_solution(instance, chosen, [int(s) for s in duals.assignment])
    return solution, duals, trace


def dual_objective(duals) -> float:
    """Value of the ascent's dual solution: sum(theta) - sum(mu)."""
    return float(np.sum(duals.theta) - np.sum(duals.mu))


@dataclass(frozen=True)
class DualViolation:
    constraint: str
    amount: float
    user: Optional[int] = None
    disk: Optional[int] = None
    server: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.server is not None:
            where.append(f"server {self.server}")
        if self.user is not None:
            where.append(f"user {self.user}")
        if self.disk is not None:
            where.append(f"disk {self.disk}")
        return f"{self.constraint} violated by {self.amount:.3e} ({', '.join(where) or 'global'})"


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):  # a NaN tol would hide every violation
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def verify_dual_feasibility(instance: Instance, duals, tol: float = 1e-7) -> list[DualViolation]:
    """Check the dual prices against the covering dual's constraints.

    For every user h inside disk D: theta_h <= beta_D + gamma_{h,D} + tol.
    For every disk D of server i: k_i * beta_D + sum_h gamma_{h,D} <= p_D + mu_i + tol.
    All prices must be >= -tol. Returns every violation found (empty means
    feasible), disk by disk in flat index order; this checker is independent
    of the ascent bookkeeping. `duals` provides `theta`, `beta`, `mu` and
    `gamma_block(lo, hi, members)`, the [hi - lo, len(members)] gamma prices
    of `members` in the disks with flat indices lo..hi-1. Each server's disks
    are checked in blocks of ranks, one gamma_block call per block. Raises
    ValueError unless `tol` is finite and >= 0.
    """
    _check_tol(tol)
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
    for s in np.nonzero(mu < -tol)[0].tolist():
        violations.append(DualViolation("negative slack price", float(-mu[s]), server=s))

    step = min(n, max(1, CHECK_BLOCK_ELEMENTS // n))
    for s in range(m):
        theta_s = theta[table.order[s]]
        capacity = instance.servers[s].capacity
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            # Row r is the disk at rank lo + r; it contains members[:lo + r + 1].
            members = table.order[s, :hi]
            inside = np.arange(hi)[None, :] <= np.arange(lo, hi)[:, None]
            gammas = np.asarray(duals.gamma_block(s * n + lo, s * n + hi, members), dtype=np.float64)
            row_beta = beta[s * n + lo : s * n + hi]
            slack = theta_s[None, :hi] - row_beta[:, None]
            slack -= gammas
            negative = inside & (gammas < -tol)
            exceeds = inside & (slack > tol)
            flagged = negative | exceeds
            lhs = capacity * row_beta + gammas.sum(axis=1, where=inside)
            budget_slack = lhs - table.power[s, lo:hi] - mu[s]
            over_budget = budget_slack > tol
            for r in np.flatnonzero(flagged.any(axis=1) | over_budget).tolist():
                idx = s * n + lo + r
                for pos in np.flatnonzero(flagged[r]).tolist():
                    h = int(members[pos])
                    if negative[r, pos]:
                        violations.append(DualViolation("negative individual price", float(-gammas[r, pos]), user=h, disk=idx))
                    if exceeds[r, pos]:
                        violations.append(DualViolation("user price exceeds disk prices", float(slack[r, pos]), user=h, disk=idx))
                if over_budget[r]:
                    violations.append(DualViolation("disk budget exceeded", float(budget_slack[r]), disk=idx))
    return violations


@dataclass(frozen=True)
class ChargingViolation:
    event_index: int
    kind: str
    amount: float

    def __str__(self) -> str:
        return f"event {self.event_index}: {self.kind} off by {self.amount:.3e}"


def _flat_phase(instance: Instance, trace: EventTrace, server: int, g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segments [a, b) of the flat-price phase [0, g), cut at every event clock
    (any event can change a census), and `server`'s remaining capacity kp in
    each: its value after the server's last event at or before a. `trace` is
    in clock order, as pd_solve records it.
    """
    cuts, kp = [0.0], [instance.servers[server].capacity]
    for e in trace:
        if e.clock >= g:
            break
        if e.clock > cuts[-1]:
            cuts.append(e.clock)
            kp.append(kp[-1])
        if e.server == server:
            kp[-1] = e.remaining_after
    return np.array(cuts), np.array(cuts[1:] + [g]), np.array(kp)


def charge_breakdown(instance: Instance, trace: EventTrace, duals, event_index: int) -> dict[int, float]:
    """Per-user charges paying for one selection event's disk power.

    While the disk held more uncovered members than its server's remaining
    capacity, the remaining-capacity-many lowest-key uncovered members each paid at unit rate
    into the flat price; afterwards every still-uncovered member paid its
    individual price until covered. The charges are rebuilt from the event
    trace and closed-form prices, independently of the ascent's running sums;
    they sum to the disk's power and never exceed a user's theta. Returns
    the charges keyed by member, in rank order.
    """
    ev = trace[event_index]
    members = order_table(instance).order[ev.server, : ev.rank + 1]
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)[members]
    g = float(duals.gamma_start[ev.disk_index])

    # fmax: a NaN price (uncovered user, or no gamma phase) charges nothing.
    charges = np.fmax(0.0, covered_at - g)
    if g > 0:
        a, b, kp = _flat_phase(instance, trace, ev.server, g)
        # In each segment the kp lowest-key uncovered members pay.
        alive = covered_at[None, :] > a[:, None]
        paying = alive & (np.cumsum(alive, axis=1) <= kp[:, None])
        charges += (b - a) @ paying
    return dict(zip(members.tolist(), charges.tolist()))


def check_charging(
    instance: Instance,
    trace: EventTrace,
    duals,
    tol: float = 1e-7,
) -> list[ChargingViolation]:
    """Audit the charging accounting of every selection event.

    For each selected disk, its power must equal the flat-price charge it
    collected (remaining capacity integrated over its flat-price phase) plus
    its members' individual payments; the same total must be recoverable as
    per-user charges of at most theta_h each; and the final cover (each
    server's last selection) may charge each user h at most m * theta_h in
    total, which gives total power <= m * sum(theta). Everything is
    reconstructed from the trace and the closed-form prices, independently of
    the ascent's running sums. Raises ValueError unless `tol` is finite and
    >= 0.
    """
    _check_tol(tol)
    table = order_table(instance)
    theta = np.asarray(duals.theta, dtype=np.float64)
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)
    theta_scale = max(1.0, float(theta.max(initial=1.0)))
    final_events = {ev.server: ev_i for ev_i, ev in enumerate(trace)}
    cover_charge = np.zeros(instance.n, dtype=np.float64)

    violations: list[ChargingViolation] = []
    for ev_i, ev in enumerate(trace):
        members = table.order[ev.server, : ev.rank + 1]
        g = float(duals.gamma_start[ev.disk_index])
        a, b, kp = _flat_phase(instance, trace, ev.server, g)
        charge = float((b - a) @ kp) + float(np.maximum(0.0, covered_at[members] - g).sum())
        scale = max(1.0, ev.power)
        if abs(ev.power - charge) > tol * scale:
            violations.append(ChargingViolation(ev_i, "power vs beta-charge + gamma", abs(ev.power - charge)))

        charges = charge_breakdown(instance, trace, duals, ev_i)
        paid = np.fromiter(charges.values(), np.float64, len(charges))
        if final_events[ev.server] == ev_i:
            cover_charge[members] += paid
        total = sum(charges.values())
        if abs(ev.power - total) > tol * scale:
            violations.append(ChargingViolation(ev_i, "power vs per-user charges", abs(ev.power - total)))
        overpaid = float((paid - theta[members]).max(initial=0.0))
        if overpaid > tol * theta_scale:
            violations.append(ChargingViolation(ev_i, "charge exceeds a user's theta", overpaid))

    excess = cover_charge - instance.m * theta
    for h in np.flatnonzero(excess > tol * theta_scale).tolist():
        violations.append(ChargingViolation(-1, f"user {h} charged above m * theta", float(excess[h])))
    return violations
