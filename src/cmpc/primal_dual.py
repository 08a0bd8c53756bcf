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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Instance, order_table
from .solution import Solution, make_solution

# A disk is tight when its remaining charge gap is below this times its own
# power: event times are exact in simple cases but accumulate rounding over
# many events. Relative to the power alone, so the cover does not depend on
# the power unit c.
TIGHTNESS_TOL = 1e-9

# Both checkers compare every quantity they check against this times the
# instance's largest candidate power (check_charging's power identities also
# allow the ascent's TIGHTNESS_TOL): prices, charges and budgets all scale
# with c, so a fault is found or missed alike in every power unit.
CHECK_TOL = 1e-12


class InsufficientCapacityError(ValueError):
    """Total capacity is below the number of users."""


class CapacityInvariantError(RuntimeError):
    """A tight disk would cover more users than its server can still serve.

    Structurally unreachable under the selection order used here; raised as a
    hard diagnostic (with the partial event trace) if numerics prove otherwise.
    """

    def __init__(self, message: str, server: int, rank: int, newly_covered: Sequence[int], remaining: int):
        super().__init__(message)
        self.server = server
        self.rank = rank
        self.newly_covered = list(newly_covered)
        self.remaining = remaining
        self.trace: list[SelectionEvent] = []


class AscentStalledError(RuntimeError):
    """Users remain uncovered but no disk can ascend, or an event covered none."""


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
    are allocated once per solve; finalize() reuses them, then drops them.
    """

    def __init__(self, instance: Instance):
        m, n = instance.m, instance.n
        self.table = order_table(instance)
        self.powers = self.table.power.ravel()
        self.tight_tol = TIGHTNESS_TOL * self.powers
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
        most E + 1 runs for E events: O(m * n * (E + 1)) time.

        The runs of all servers, in flat index order, are summed up to m at
        a time: one matrix with a row max(0, theta[order[s]] - g) per run of
        server s and start g, one cumsum along the ranks, and a gather that
        gives each disk the sum in its own run's row. A row is the same
        sequential sum as a cumsum over order[s, :hi] alone, so the budgets
        are those of one run at a time, bit for bit. Ranked theta, the
        budgets, the matrix and its sums use the ascent's m*n work buffers,
        free by now; the gather index of m runs spans at most m*n disks.
        """
        m, n = self.table.order.shape
        # mode="clip" (every index is in range) takes straight into out,
        # which the default mode would buffer.
        theta = np.take(self.theta, self.table.order, out=self._rates, mode="clip")
        starts = self.gamma_start.reshape(m, n)
        lhs = np.multiply(self.capacity[:, None], self.beta.reshape(m, n), out=self.uncovered).ravel()
        # A run opens at rank 0 and wherever the start differs from the rank before.
        opens = self._flag.reshape(m, n)
        opens[:, 0] = True
        np.not_equal(starts[:, 1:], starts[:, :-1], out=opens[:, 1:])
        servers, ranks = np.nonzero(opens)
        bounds = [*(servers * n + ranks).tolist(), m * n]
        # Disk p of run r takes the sum at p + shift[r] - c * n of the
        # flattened rows of runs c, c + 1, ...
        shift = (np.arange(servers.size) - servers) * n
        for c in range(0, servers.size, m):
            runs = servers[c : c + m]
            rows = np.take(theta, runs, axis=0, out=self._scratch[: runs.size * n].reshape(-1, n), mode="clip")
            np.subtract(rows, starts[runs, ranks[c : c + m], None], out=rows)
            prefix = np.cumsum(np.maximum(rows, 0.0, out=rows), axis=1, out=self._residual[: rows.size].reshape(-1, n))
            lo, hi = bounds[c], bounds[c + runs.size]
            index = np.repeat(shift[c : c + m] - c * n, np.diff(bounds[c : c + m + 1]))
            index += np.arange(lo, hi)
            lhs[lo:hi] += np.take(prefix, index, out=self._scratch[: hi - lo], mode="clip")
        self.mu = np.maximum(0.0, np.subtract(lhs, self.powers, out=lhs).reshape(m, n).max(axis=1))
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
    residual, scratch = duals._residual, duals._scratch
    np.subtract(duals.powers, duals.lhs, out=residual)
    # where= leaves the other entries of scratch stale, so the min skips them
    # too; it is inf when no rate is positive.
    np.divide(residual, rates, out=scratch, where=positive)
    step_min = float(np.minimum.reduce(scratch, where=positive, initial=np.inf))
    if step_min == np.inf:
        raise AscentStalledError("no disk can ascend but users remain uncovered")
    delta = max(step_min, 0.0)
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
            s,
            rank,
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

    Raises InsufficientCapacityError when total capacity < n,
    CapacityInvariantError (trace attached) if a selection would ever exceed
    remaining capacity, and AscentStalledError if an event covers no user.
    """
    if not instance.has_sufficient_capacity():
        raise InsufficientCapacityError(
            f"total capacity {instance.total_capacity} < {instance.n} users"
        )
    duals = init_solver(instance)
    n = instance.n
    trace: EventTrace = []
    uncovered = n
    while uncovered:
        _, tights = next_event(duals)
        before = uncovered
        for idx in tights:
            if not duals.is_active(idx):
                continue
            try:
                newly = apply_selection(duals, idx)
            except CapacityInvariantError as err:
                err.trace = list(trace)
                raise
            if newly:
                uncovered -= len(newly)
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
        if uncovered == before:
            raise AscentStalledError("an event covered no user although users remain uncovered")

    # Every disk has left its beta phase once nobody is uncovered.
    leftover = np.isnan(duals.gamma_start)
    duals.gamma_start[leftover] = duals.clock
    duals.finalize()

    ranks = [i - s * n if i >= 0 else -1 for s, i in enumerate(duals.last_selected)]
    solution = make_solution(instance, ranks, duals.assignment.tolist())
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


def verify_dual_feasibility(instance: Instance, duals) -> list[DualViolation]:
    """Check the dual prices against the covering dual's constraints.

    `duals` provides `theta`, `beta`, `mu` and `gamma_start`; the individual
    prices take the ascent's closed form gamma_{h,D} = max(0, theta_h - g_D),
    g_D = gamma_start[D], with a NaN start (no gamma phase) read as +inf.
    With tol = CHECK_TOL * the largest candidate power:
    for every user h inside disk D: theta_h <= beta_D + gamma_{h,D} + tol;
    for every disk D of server i: k_i * beta_D + sum_h gamma_{h,D} <= p_D + mu_i + tol;
    theta, beta and mu must be >= -tol; gamma is by its form. Returns every
    violation found (empty means feasible), disk by disk in flat index order,
    a disk's members in rank order and its budget last; this checker is
    independent of the ascent bookkeeping.

    Member h of D satisfies its constraint iff min(theta_h, g_D) - beta_D <=
    tol, so all members of D do iff min(g_D, max theta over them) - beta_D <=
    tol: one running max of theta in rank order finds the violated disks in
    O(m * n), and only their members are expanded. The gamma sums of the
    budgets take one prefix sum of max(0, theta - g) in rank order per
    distinct start g, over the servers with a disk starting at g and the
    ranks up to the last one holding g: O(m * n * (E + 1)) for the at most
    E + 1 starts of an ascent with E events.
    """
    m, n = instance.m, instance.n
    table = order_table(instance)
    tol = CHECK_TOL * float(table.power.max())
    theta = np.asarray(duals.theta, dtype=np.float64)
    beta = np.asarray(duals.beta, dtype=np.float64)
    mu = np.asarray(duals.mu, dtype=np.float64)
    starts = np.nan_to_num(np.asarray(duals.gamma_start, dtype=np.float64), nan=np.inf)
    violations: list[DualViolation] = []

    for h in np.nonzero(theta < -tol)[0].tolist():
        violations.append(DualViolation("negative user price", float(-theta[h]), user=h))
    for idx in np.nonzero(beta < -tol)[0].tolist():
        violations.append(DualViolation("negative flat price", float(-beta[idx]), disk=idx))
    for s in np.nonzero(mu < -tol)[0].tolist():
        violations.append(DualViolation("negative slack price", float(-mu[s]), server=s))

    ranked = theta[table.order]
    exceeds = (np.minimum(starts.reshape(m, n), np.maximum.accumulate(ranked, axis=1)) - beta.reshape(m, n) > tol).ravel()
    capacity = np.array([srv.capacity for srv in instance.servers], dtype=np.float64)
    lhs = capacity[:, None] * beta.reshape(m, n)
    # Each disk takes one start, so the starts may come in any order. The
    # sums run up to the last rank holding g.
    for g in set(starts[starts < np.inf].tolist()):
        at = starts.reshape(m, n) == g
        rows = np.flatnonzero(at.any(axis=1))
        hi = n - np.argmax(at.any(axis=0)[::-1])
        gamma = np.cumsum(np.maximum(ranked[rows, :hi] - g, 0.0), axis=1)
        lhs[rows, :hi] += np.where(at[rows, :hi], gamma, 0.0)
    budget_slack = (lhs - table.power - mu[:, None]).ravel()
    over_budget = budget_slack > tol

    for idx in np.flatnonzero(exceeds | over_budget).tolist():
        if exceeds[idx]:
            members = table.order[idx // n, : idx % n + 1]
            slack = theta[members] - beta[idx] - np.maximum(theta[members] - starts[idx], 0.0)
            for pos in np.flatnonzero(slack > tol).tolist():
                violations.append(DualViolation("user price exceeds disk prices", float(slack[pos]), user=int(members[pos]), disk=idx))
        if over_budget[idx]:
            violations.append(DualViolation("disk budget exceeded", float(budget_slack[idx]), disk=idx))
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


def check_charging(instance: Instance, trace: EventTrace, duals) -> list[ChargingViolation]:
    """Audit the charging accounting of every selection event.

    For each selected disk, its power must equal the flat-price charge it
    collected (remaining capacity integrated over its flat-price phase) plus
    its members' individual payments, and the same total must be recoverable
    as per-user charges of at most theta_h each. The final cover is at most m
    disks, one per server, so these give total power <= m * sum(theta).
    Everything is reconstructed from the trace and the closed-form prices,
    independently of the ascent's running sums, and checked to within
    CHECK_TOL * the largest candidate power; the two power identities also
    allow the ascent's own TIGHTNESS_TOL * power, as it selects a disk whose
    charge is short of its power by at most that.
    """
    table = order_table(instance)
    tol = CHECK_TOL * float(table.power.max())
    theta = np.asarray(duals.theta, dtype=np.float64)
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)

    violations: list[ChargingViolation] = []
    for ev_i, ev in enumerate(trace):
        members = table.order[ev.server, : ev.rank + 1]
        g = float(duals.gamma_start[ev.disk_index])
        a, b, kp = _flat_phase(instance, trace, ev.server, g)
        charge = float((b - a) @ kp) + float(np.maximum(0.0, covered_at[members] - g).sum())
        short = tol + TIGHTNESS_TOL * ev.power
        if abs(ev.power - charge) > short:
            violations.append(ChargingViolation(ev_i, "power vs beta-charge + gamma", abs(ev.power - charge)))

        charges = charge_breakdown(instance, trace, duals, ev_i)
        paid = np.fromiter(charges.values(), np.float64, len(charges))
        # Pairwise, not sequential, summation: its rounding stays far below
        # CHECK_TOL even for disks with thousands of members.
        total = float(paid.sum())
        if abs(ev.power - total) > short:
            violations.append(ChargingViolation(ev_i, "power vs per-user charges", abs(ev.power - total)))
        overpaid = float((paid - theta[members]).max(initial=0.0))
        if overpaid > tol:
            violations.append(ChargingViolation(ev_i, "charge exceeds a user's theta", overpaid))
    return violations
