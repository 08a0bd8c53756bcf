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
from typing import NamedTuple, Sequence

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


class Block(NamedTuple):
    """The layout of next_event's block of disks (see DualState)."""

    size: int
    rows: np.ndarray  # its servers, ascending
    widths: np.ndarray  # their widths
    starts: np.ndarray  # the block position of each server's first disk
    lasts: np.ndarray  # and of its disk at width - 1
    tails: np.ndarray  # the flat index of that disk


# The ascent-only fields of DualState, dropped once the ascent is over.
EVENT_BUFFERS = ("uncovered", "_widths", "_lows", "_rows", "_floats", "_bools", "_index", "_block")

# The event loop keeps every rank of every server unless the suffixes would
# spare at least this many disks, m * (n - max k_s - 1) at the start: below
# it their bookkeeping costs more than it saves (README, event loop).
SUFFIX_CROSSOVER = 10_000

# _widen looks for a server's new first rank over room among this many ranks
# beyond its width before it scans the rest of the row.
WIDEN_WINDOW = 64

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

    The suffixes. Once a disk's census (its uncovered members) exceeds its
    server's remaining capacity, so does every larger disk's: the census is
    a cumsum over rank. So the disks of server s still in their beta phase
    are the ranks [g_s, n), and each of them has ascended at rate =
    remaining capacity since clock 0: they all hold one charge, bit for bit.
    Each server keeps its own width w_s = g_s + 1 (n if g_s = n), in
    `_widths`; rank w_s - 1 stands for the whole suffix [w_s - 1, n). The
    widths start at min(n, k_s + 1) (g_s = k_s at clock 0) and grow when a
    server's census at w_s - 1 comes to fit its room (next_event); an
    exhausted server's width stays. They are n from the start when m * (n -
    max k_s - 1) < SUFFIX_CROSSOVER, or when some row of powers decreases,
    which the suffix's step needs (next_event). So during the ascent `lhs`
    is exact on the ranks [0, w_s) of each row only, and finalize() fills in
    the ranks beyond: it is whole after finalize().

    The block. While some width is below n, next_event works on the ranks
    [z_s, w_s) of each server with capacity left, laid one after another
    in the work buffers; a server that runs out stays until the next event
    has stamped its suffix. No member of a disk below z_s (`_lows`) is
    uncovered, so its census is zero and stays so: it ascends no more.
    `_index[:size]` holds the block's flat indices, ascending, and `_block`
    its layout. `_widen` lays the block out again whenever a width grows or
    a server in it runs out of capacity, with the lows the event before
    found. `_block` is None at full width, where the event loop works on
    the state's own flat arrays.
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
        self._widths = np.minimum(n, self.capacity + 1)
        self._lows = np.zeros(m, dtype=np.int64)
        power = self.table.power
        full = m * (n - int(self._widths.max())) < SUFFIX_CROSSOVER or (power[:, 1:] < power[:, :-1]).any()
        # Rates (census), residuals and steps.
        self._floats = np.empty((3, m * n), dtype=np.float64)
        self._bools = np.empty((2, m * n), dtype=bool)
        self._index = self._block = None
        if full:
            self._widths[:] = n
        else:
            self._index = np.empty(m * n, dtype=np.int64)
            self._lay_out(np.arange(m))

    def _lay_out(self, rows: np.ndarray) -> None:
        """Lay the block out over the servers `rows` (see the class docstring)."""
        n = self.table.order.shape[1]
        widths, lows = self._widths[rows], self._lows[rows]
        lengths = widths - lows
        ends = np.add.accumulate(lengths)
        size = int(ends[-1]) if rows.size else 0
        heads = rows * n
        tails = heads + widths
        tails -= 1
        heads += lows
        index = self._index[:size]
        # Ones, and at each server's first position the jump from the tail
        # before it, so that a cumsum counts through every server's ranks.
        index.fill(1)
        if size:
            index[ends[:-1]] = heads[1:] - tails[:-1]
            index[0] = heads[0]
        np.add.accumulate(index, out=index)
        self._block = Block(size, rows, widths, ends - lengths, ends - 1, tails)

    def _widen(self, rows: np.ndarray, census: np.ndarray, room: np.ndarray) -> None:
        """Keep the suffixes whole for the servers `rows`, whose disk at
        w_s - 1 just left its beta phase, and lay the block out again over
        the servers with capacity left; `census` and `room` are per row.

        An exhausted server's suffix leaves its beta phase at the same clock;
        its charge stays frozen at w_s - 1, and so does its width. A server
        with room left now fits its census there: its suffix's ranks that fit
        leave their beta phase now, w_s moves to one past its first rank over
        room (n if none), and the new ranks take the row's shared charge.
        Scans the suffixes of those servers only.
        """
        n = self.table.order.shape[1]
        widths = self._widths[rows].tolist()
        for i, (s, width, count, left) in enumerate(zip(rows.tolist(), widths, census.tolist(), room.tolist())):
            lo = s * n
            if left == 0:
                self.gamma_start[lo + width : lo + n] = self.clock
            elif width < n:
                # The census grows by one at each uncovered user, so the ranks
                # that fit end at the (spare + 1)-th uncovered user beyond the
                # width; it is most often near, so a window is searched first.
                tail, spare = self.uncovered[s, width:], int(left - count)
                ahead = tail[:WIDEN_WINDOW].nonzero()[0]
                if spare >= ahead.size:
                    ahead = tail.nonzero()[0]
                fits = int(ahead[spare]) if spare < ahead.size else n - width
                self.gamma_start[lo + width : lo + width + fits] = self.clock
                widths[i] = min(n, width + fits + 1)
                self.lhs[lo + width : lo + widths[i]] = self.lhs[lo + width - 1]
        self._widths[rows] = widths
        self._lay_out(np.flatnonzero(self.remaining_capacity))

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
        # The block's index is of no more use.
        self._index = self._block = None
        # mode="clip" (every index is in range) takes straight into out,
        # which the default mode would buffer.
        theta = self.theta.take(self.table.order, out=self._floats[0].reshape(m, n), mode="clip")
        starts = self.gamma_start.reshape(m, n)
        # beta is gamma_start now that no disk is in its beta phase.
        lhs = np.multiply(self.capacity[:, None], starts, out=self.uncovered).ravel()
        # A run opens at rank 0 and wherever the start differs from the rank before.
        opens = self._bools[1].reshape(m, n)
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
            rows = theta[:, :high].take(servers[runs], axis=0, out=self._floats[2, : min(m, count - c) * high].reshape(-1, high), mode="clip")
            np.subtract(rows, gamma_starts[runs], out=rows)
            prefix = np.add.accumulate(np.maximum(rows, 0.0, out=rows), axis=1, out=self._floats[1, : rows.size].reshape(-1, high))
            index = src[runs].repeat(lengths[runs])
            index += np.arange(index.size)
            sums = prefix.take(index, out=self._floats[2, : index.size], mode="clip")
            index += shift[runs].repeat(lengths[runs])
            lhs[index] += sums
        self.mu = np.maximum(0.0, np.subtract(lhs, self.powers, out=lhs).reshape(m, n).max(axis=1))
        charges = self.lhs.reshape(m, n)
        for s in np.flatnonzero(self._widths < n).tolist():
            width = self._widths[s]
            charges[s, width:] = charges[s, width - 1]
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

    The event works on flat arrays of disks, in place in the state's work
    buffers: at full width on the state's own charges, powers and
    tolerances, else on the block (see DualState), whose charges, powers
    and tolerances it takes and whose charges it then steps in place. Rates are small integers held exactly in float64, so
    each value is the same IEEE expression as with integer rates: the step
    is min(residual / rate) over the positive rates, the charge lhs + rate *
    delta and the tight test residual - rate * delta <= tol.

    Each row's ranks beyond its width w_s share the charge L and the rate of
    its rank w = w_s - 1, and their powers do not fall below p_w. As
    subtraction and division round monotonically, none has a smaller
    quotient than w's: the step is that of all m*n disks. A suffix disk t is
    tight when r_t = (p_t - L) - x <= 1e-9 p_t, x = rate * delta. Then r_w <=
    r_t, and if r_w > 0 then p_w > L, x < p_w - L and p_t - L is at most x +
    1e-9 p_t up to a few ulps, so p_t <= p_w (1 + 2e-9) and r_w <= 1e-9 p_t <
    SUFFIX_SCREEN p_w. So only the rows whose rank w passes that screen have
    their suffix tested disk by disk, exactly as above.
    """
    m, n = duals.table.order.shape
    room = duals.remaining_capacity.astype(np.float64)
    block = duals._block
    if block is None:
        rates, residual, step = duals._floats
        census = rates.reshape(m, n)
        np.add.accumulate(duals.uncovered, axis=1, out=census)
        # Within one event "fits the remaining capacity" only turns true, so
        # checking it once per event records the same clock as checking it
        # after every selection. An exhausted server's disks get a gamma phase
        # from now on, so lingering uncovered members keep paying; finalize()
        # routes any excess over the disk power into mu.
        in_beta = np.isnan(duals.gamma_start, out=duals._bools[1])
        if in_beta.any():
            leaves_beta = duals._bools[0]
            # (census <= room) | (room == 0), with an exhausted server's room as inf.
            np.less_equal(census, np.where(room == 0, np.inf, room)[:, None], out=leaves_beta.reshape(m, n))
            leaves_beta &= in_beta
            np.copyto(duals.gamma_start, duals.clock, where=leaves_beta)
        # The census becomes the rates in place.
        np.minimum(census, room[:, None], out=census)
        np.subtract(duals.powers, duals.lhs, out=residual)
    else:
        rates = _block_rates(duals, room)
        block, index = duals._block, duals._index[: rates.size]
        residual, step = duals._floats[1:, : rates.size]
        duals.powers.take(index, out=residual, mode="clip")
        residual -= duals.lhs.take(index, out=step, mode="clip")

    positive, tight = duals._bools[:, : rates.size]
    np.greater(rates, 0.0, out=positive)
    # where= leaves the other entries of step stale, so the min skips them
    # too; it is inf when no rate is positive.
    np.divide(residual, rates, out=step, where=positive)
    step_min = float(np.minimum.reduce(step, where=positive, initial=np.inf))
    if step_min == np.inf:
        raise AscentStalledError("no disk can ascend but users remain uncovered")
    delta = max(step_min, 0.0)
    np.multiply(rates, delta, out=step)
    residual -= step
    # The block's tolerances go where its rates were.
    tol = duals.tight_tol if block is None else duals.tight_tol.take(index, out=rates, mode="clip")
    np.less_equal(residual, tol, out=tight)
    tight &= positive
    tights = tight.nonzero()[0]
    if block is None:
        duals.lhs += step
    else:
        tights = index.take(tights)
        # A rank whose census is zero ascends no more; the next layout drops it.
        ascending = np.add.reduceat(positive, block.starts, dtype=np.int64)
        duals._lows[block.rows] = block.widths - np.maximum(ascending, 1)
        screened = np.flatnonzero(residual.take(block.lasts) <= SUFFIX_SCREEN * duals.powers.take(block.tails))
        if screened.size:
            found = [tights]
            rows, lasts, tails = block.rows[screened].tolist(), block.lasts[screened].tolist(), block.tails[screened].tolist()
            for row, last, tail in zip(rows, lasts, tails):
                beyond = slice(tail + 1, (row + 1) * n)
                gap = duals.powers[beyond] - duals.lhs[tail]
                gap -= step[last]
                found.append(beyond.start + np.flatnonzero(gap <= duals.tight_tol[beyond]))
            tights = np.sort(np.concatenate(found))
        np.add.at(duals.lhs, index, step)
    duals.clock += delta
    return delta, tights.tolist()


def _block_rates(duals: DualState, room: np.ndarray) -> np.ndarray:
    """The rates of the block's disks, in its census buffer, once the disks
    that leave their beta phase now have left it; `room` is per server.

    The census is one flat cumsum that restarts from zero at each server's
    first rank z_s, whose ranks below hold no uncovered user. Counts are
    integers, exact in float64, so it is the per-row cumsum bit for bit.

    Only a row's last rank w_s - 1 can be in beta in the block: once a
    disk's census fits its room, it fits at every later event, since a
    selection by its server lowers the room by what it takes from the
    census of its disks at or beyond the selected rank and empties those
    below it, and one by another server lowers the census only. So the rate
    is the census at every other rank, and only the last ranks are checked.
    When one leaves its beta phase, or a server in the block has run out of
    capacity, _widen lays the block out again and the census is taken anew.
    """
    block = duals._block
    census = duals.uncovered.take(duals._index[: block.size], out=duals._floats[0, : block.size], mode="clip")
    # Each row's census at its last rank: the uncovered users of its ranks.
    counts = np.add.reduceat(census, block.starts)
    rooms = room.take(block.rows)
    leaves_beta = counts <= rooms
    leaves_beta |= rooms == 0
    leaves_beta &= np.isnan(duals.gamma_start.take(block.tails))
    if leaves_beta.any() or not rooms.all():
        # The new last ranks do not fit, and no server left is exhausted.
        duals.gamma_start[block.tails[leaves_beta]] = duals.clock
        duals._widen(block.rows[leaves_beta], counts[leaves_beta], rooms[leaves_beta])
        block = duals._block
        census = duals.uncovered.take(duals._index[: block.size], out=duals._floats[0, : block.size], mode="clip")
        counts = np.add.reduceat(census, block.starts)
        rooms = room.take(block.rows)
    # The running count enters each row holding the row before's census.
    census[block.starts[1:]] -= counts[:-1]
    np.add.accumulate(census, out=census)
    census[block.lasts] = np.minimum(counts, rooms)
    return census


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
    # A disk beyond its row's width holds the row's charge at width - 1.
    if duals.powers[idx] - duals.lhs[s * n + min(rank, duals._widths[s] - 1)] > duals.tight_tol[idx]:
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
