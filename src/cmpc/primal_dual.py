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
from typing import Sequence

import numpy as np

# The checkers live in certify; their names stay reachable here too.
from .certify import (  # noqa: F401
    CHECK_TOL,
    TIGHTNESS_TOL,
    ChargingViolation,
    DualViolation,
    charge_breakdown,
    check_charging,
    dual_objective,
    verify_dual_feasibility,
)
from .model import Instance, order_table
from .solution import Solution, make_solution


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


# The ascent-only fields of DualState, dropped once the ascent is over.
EVENT_BUFFERS = (
    "uncovered", "_width", "_rows", "_rates", "_residual", "_scratch", "_positive", "_flag",
)

# The event loop keeps every rank of every server unless the shared suffix
# would spare at least this many disks, m * (n - width) at the start: below
# it the suffix's bookkeeping costs more than it saves (README, event loop).
SUFFIX_CROSSOVER = 15_000

# A suffix disk can go tight only where its row's disk at width - 1 ends the
# step with a charge gap below this times its power (see next_event).
SUFFIX_SCREEN = 1e-6


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

    The shared suffix. Once a disk's census (its uncovered members) exceeds
    its server's remaining capacity, so does every larger disk's: the census
    is a cumsum over rank. Let g_s be the largest first such rank of server s
    at any event so far. Every disk of s at rank g_s or beyond has then been
    in its beta phase at rate = remaining capacity since clock 0, so all of
    them hold one charge, bit for bit. The event loop works on the ranks
    [0, width) of every server only; rank width - 1 is at or beyond g_s for
    every server with capacity left and stands for its whole suffix. The
    width starts at min(n, max k_s + 1) (g_s = k_s at clock 0) and grows when
    a server's census at width - 1 comes to fit its room (next_event). It is
    n from the start when m * (n - width) < SUFFIX_CROSSOVER, or when some
    row of powers decreases, which the suffix's step needs (next_event).
    So during the ascent `lhs` is exact on the ranks [0, width) only, and
    finalize() fills in the ranks beyond: it is whole after finalize().
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
        width = min(n, max(s.capacity for s in instance.servers) + 1)
        power = self.table.power
        if m * (n - width) < SUFFIX_CROSSOVER or (power[:, 1:] < power[:, :-1]).any():
            width = n
        self._rows = np.arange(m)[:, None]
        self._rates = np.empty(m * n, dtype=np.float64)
        self._residual = np.empty(m * n, dtype=np.float64)
        self._scratch = np.empty(m * n, dtype=np.float64)
        self._positive = np.empty(m * n, dtype=bool)
        self._flag = np.empty(m * n, dtype=bool)
        self._width = width

    def _widen(self, ended: np.ndarray, census: np.ndarray, room: np.ndarray) -> None:
        """Keep the suffix whole for the servers whose disk at width - 1 just
        left its beta phase (`ended`); `census` and `room` are per server.

        An exhausted server's suffix leaves it at the same clock; its charge
        stays frozen at width - 1. A server with room left now fits its census
        there: the width moves to one past its first rank over room (n if
        none), and the new ranks of every server take their row's shared
        charge. Scans the suffixes of those servers only, in the work buffers
        the event has no more use for.
        """
        m, n = self.table.order.shape
        width = self._width
        rows = np.flatnonzero(ended)
        room = room[rows]
        self.gamma_start.reshape(m, n)[rows[room == 0], width:] = self.clock
        live = room > 0
        if not live.any():
            return
        span = n - width
        size = int(live.sum()) * span
        tail = np.take(self.uncovered[:, width:], rows[live], axis=0, out=self._residual[:size].reshape(-1, span), mode="clip")
        counts = np.cumsum(tail, axis=1, out=self._scratch[:size].reshape(-1, span))
        counts += census[rows[live], None]
        # The census grows with rank, so the ranks that fit come first.
        fits = np.less_equal(counts, room[live, None], out=self._flag[:size].reshape(-1, span))
        new = min(n, width + 1 + int(np.count_nonzero(fits, axis=1).max()))
        charges = self.lhs.reshape(m, n)
        charges[:, width:new] = charges[:, width - 1 : width]
        self._width = new

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

        The runs of all servers are summed up to m at a time, in order of
        their end rank hi: one matrix with a row max(0, theta[order[s, :H]] -
        g) per run of server s and start g, H the block's largest hi, one
        cumsum along the ranks, and a gather that gives each disk the sum in
        its own run's row. A row is the same sequential sum as a cumsum over
        order[s, :hi] alone, so the budgets are those of one run at a time,
        bit for bit; as blocks hold runs of similar ends, the sums stop near
        where their runs do. Ranked theta, the budgets, the matrix and its
        sums use the ascent's m*n work buffers, free by now; the gather index
        of m runs spans at most m*n disks.
        """
        m, n = self.table.order.shape
        # mode="clip" (every index is in range) takes straight into out,
        # which the default mode would buffer.
        theta = self.theta.take(self.table.order, out=self._rates.reshape(m, n), mode="clip")
        starts = self.gamma_start.reshape(m, n)
        lhs = np.multiply(self.capacity[:, None], self.beta.reshape(m, n), out=self.uncovered).ravel()
        # A run opens at rank 0 and wherever the start differs from the rank before.
        opens = self._flag.reshape(m, n)
        opens[:, 0] = True
        np.not_equal(starts[:, 1:], starts[:, :-1], out=opens[:, 1:])
        servers, ranks = opens.nonzero()
        heads = servers * n + ranks
        lengths = np.empty_like(heads)
        np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
        lengths[-1] = m * n - heads[-1]
        by_end = (ranks + lengths).argsort(kind="stable")
        # Run r holds the ranks [ranks[r], ends[r]) of servers[r]; the runs
        # are now in order of their ends, and run r takes row r % m of its
        # block, which stops at the block's last end.
        servers, ranks, lengths = servers[by_end], ranks[by_end], lengths[by_end]
        ends = ranks + lengths
        count = servers.size
        highs = ends[np.minimum(np.arange(m - 1, count + m - 1, m), count - 1)]
        row = np.arange(count) % m * highs.repeat(m)[:count]
        # Rank t of run r takes prefix[row r, t], at src[r] + its place among
        # the block's disks, into lhs at that plus shift[r], s * n + t.
        first = lengths.cumsum() - lengths
        src = row + ranks - first + first[::m].repeat(m)[:count]
        shift = servers * n - row
        gamma_starts = starts[servers, ranks, None]
        for c, high in zip(range(0, count, m), highs.tolist()):
            runs = slice(c, c + m)
            rows = theta[:, :high].take(servers[runs], axis=0, out=self._scratch[: min(m, count - c) * high].reshape(-1, high), mode="clip")
            np.subtract(rows, gamma_starts[runs], out=rows)
            prefix = np.add.accumulate(np.maximum(rows, 0.0, out=rows), axis=1, out=self._residual[: rows.size].reshape(-1, high))
            index = src[runs].repeat(lengths[runs])
            index += np.arange(index.size)
            sums = prefix.take(index, out=self._scratch[: index.size], mode="clip")
            index += shift[runs].repeat(lengths[runs])
            lhs[index] += sums
        self.mu = np.maximum(0.0, np.subtract(lhs, self.powers, out=lhs).reshape(m, n).max(axis=1))
        charges = self.lhs.reshape(m, n)
        charges[:, self._width :] = charges[:, self._width - 1 : self._width]
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

    Every array over the ranks [0, width) of all servers is computed in place
    in the state's work buffers. Rates are small integers held exactly in
    float64, so each value is the same IEEE expression as with integer rates:
    the step is min(residual / rate) over the positive rates, the charge
    lhs + rate * delta and the tight test residual - rate * delta <= tol.

    The ranks beyond the width (see DualState) share the charge L and the
    rate of their row's rank w = width - 1, and their powers do not fall
    below p_w. As subtraction and division round monotonically, none has a
    smaller quotient than w's: the step is that of all m*n disks. A suffix
    disk t is tight when r_t = (p_t - L) - x <= 1e-9 p_t, x = rate * delta.
    Then r_w <= r_t, and if r_w > 0 then p_w > L, x < p_w - L and p_t - L is
    at most x + 1e-9 p_t up to a few ulps, so p_t <= p_w (1 + 2e-9) and
    r_w <= 1e-9 p_t < SUFFIX_SCREEN p_w. So only the rows whose rank w passes
    that screen have their suffix tested disk by disk, exactly as above.
    """
    m, n = duals.table.order.shape
    room = duals.remaining_capacity[:, None].astype(np.float64)
    while True:
        # The work buffers' leading m * width entries, flat and as [m, width]
        # rows: elementwise work among buffers runs cheaper on the flat ones.
        width = duals._width
        size = m * width
        rates, positive_flat, tight = duals._rates[:size], duals._positive[:size], duals._flag[:size]
        census, positive, flag = rates.reshape(m, width), positive_flat.reshape(m, width), tight.reshape(m, width)
        starts = duals.gamma_start.reshape(m, n)[:, :width]
        np.add.accumulate(duals.uncovered[:, :width], axis=1, out=census)
        # Within one event "fits the remaining capacity" only turns true, so
        # checking it once per event records the same clock as checking it
        # after every selection. An exhausted server's disks get a gamma phase
        # from now on, so lingering uncovered members keep paying; finalize()
        # routes any excess over the disk power into mu.
        in_beta = np.isnan(starts, out=flag)
        if not in_beta.any():
            break
        leaves_beta = positive
        # (census <= room) | (room == 0), with an exhausted server's room as inf.
        np.less_equal(census, np.where(room == 0, np.inf, room), out=leaves_beta)
        leaves_beta &= in_beta
        np.copyto(starts, duals.clock, where=leaves_beta)
        if width == n or not leaves_beta[:, -1].any():
            break
        duals._widen(leaves_beta[:, -1], census[:, -1], room[:, 0])
        if duals._width == width:
            break

    residual_flat, scratch_flat = duals._residual[:size], duals._scratch[:size]
    residual, scratch = residual_flat.reshape(m, width), scratch_flat.reshape(m, width)
    lhs, powers = duals.lhs.reshape(m, n)[:, :width], duals.table.power[:, :width]
    # The census becomes the rates in place.
    np.minimum(census, room, out=census)
    np.subtract(powers, lhs, out=residual)
    np.greater(rates, 0.0, out=positive_flat)
    # where= leaves the other entries of scratch stale, so the min skips them
    # too; it is inf when no rate is positive.
    np.divide(residual_flat, rates, out=scratch_flat, where=positive_flat)
    step_min = float(np.minimum.reduce(scratch_flat, where=positive_flat, initial=np.inf))
    if step_min == np.inf:
        raise AscentStalledError("no disk can ascend but users remain uncovered")
    delta = max(step_min, 0.0)
    step = np.multiply(rates, delta, out=scratch_flat)
    residual_flat -= step
    np.less_equal(residual, duals.tight_tol.reshape(m, n)[:, :width], out=flag)
    tight &= positive_flat
    tights = tight.nonzero()[0]
    if width < n:
        tights += tights // width * (n - width)
        screened = np.flatnonzero(positive[:, -1] & (residual[:, -1] <= SUFFIX_SCREEN * powers[:, -1]))
        if screened.size:
            beyond = slice(width, n)
            gap = duals.table.power[screened, beyond] - lhs[screened, -1:]
            gap -= scratch[screened, -1:]
            rows, ranks = np.nonzero(gap <= duals.tight_tol.reshape(m, n)[screened, beyond])
            tights = np.sort(np.concatenate((tights, screened[rows] * n + width + ranks)))
    lhs += scratch
    duals.clock += delta
    return delta, tights.tolist()


def apply_selection(duals: DualState, idx: int) -> list[int]:
    """Select a tight disk: assign its uncovered users to its server.

    `idx` is the disk's flat index. Returns the newly covered users,
    ascending. A tight disk whose uncovered set was emptied by an earlier
    selection in the same event changes nothing. Smaller disks of the server
    stop ascending, as their members are all covered.
    """
    if not duals.is_active(idx):
        raise ValueError("apply_selection: disk is no longer active")
    n = duals.table.order.shape[1]
    s, rank = divmod(idx, n)
    # A disk beyond the width holds its row's charge at width - 1.
    if duals.powers[idx] - duals.lhs[s * n + min(rank, duals._width - 1)] > duals.tight_tol[idx]:
        raise ValueError("apply_selection: disk is not tight")
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
