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

from typing import NamedTuple, Sequence

import numpy as np

# The checkers live in certify; benchmark/tracing.py wraps them here.
from .certify import TIGHTNESS_TOL, charge_breakdown, check_charging, verify_dual_feasibility  # noqa: F401
from .model import Instance, order_table, require_capacity
from .slack import slack_prices
from .solution import EventTrace, SelectionEvent, Solution, make_solution


class CapacityInvariantError(RuntimeError):
    """A tight disk would cover more users than its server can still serve.

    Structurally unreachable under the selection order used here; raised as a
    hard diagnostic if numerics prove otherwise.
    """


class AscentStalledError(RuntimeError):
    """Users remain uncovered but no disk can ascend, or an event covered none."""


class UnionTable(NamedTuple):
    """A batch's order tables as one (see DualState)."""

    order: np.ndarray  # [B * m, n]: instance b's rows, its users offset by b * n
    rank: np.ndarray  # [m, B * n]: the instances' rank tables side by side
    power: np.ndarray  # [B * m, n]


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

    The batch. `clock` holds one clock per instance, in an array of shape
    (B,), and an event steps each instance by its own delta (next_event); a
    lone instance is a batch of one. A state of B > 1 instances of one
    shape (m, n) is the disjoint union of theirs, always at full width: row
    b*m + s is server s of instance b, whose users are offset by b*n, and
    `table` is their UnionTable.
    """

    def __init__(self, *instances: Instance):
        count, m, n = len(instances), instances[0].m, instances[0].n
        tables = [order_table(instance) for instance in instances]
        self.table = tables[0] if count == 1 else UnionTable(
            np.concatenate([table.order + b * n for b, table in enumerate(tables)]),
            np.concatenate([table.rank for table in tables], axis=1),
            np.concatenate([table.power for table in tables]),
        )
        self.powers = self.table.power.ravel()
        self.tight_tol = TIGHTNESS_TOL * self.powers
        self.lhs = np.zeros(self.powers.size, dtype=np.float64)
        self.capacity = np.concatenate([instance.capacity for instance in instances])
        self.remaining_capacity = self.capacity.copy()
        self.last_selected = [-1] * (count * m)
        self.assignment = np.full(count * n, -1, dtype=np.int64)
        self.clock = np.zeros(count)
        self.covered_at = np.full(count * n, np.nan, dtype=np.float64)
        # Before any selection the disk at rank t holds t + 1 uncovered users.
        self.gamma_start = np.where(np.arange(1, n + 1) > self.capacity[:, None], np.nan, 0.0).ravel()
        self.mu = np.zeros(count * m, dtype=np.float64)
        # float64, not bool: a cumsum over bools would allocate a float copy.
        self.uncovered = np.ones((count * m, n), dtype=np.float64)
        # Each instance's rows, as a column.
        self._rows = np.arange(count * m).reshape(count, m, 1)
        self._widths = np.minimum(n - 1, self.capacity) + 1
        self._lows = np.zeros(count * m, dtype=np.int64)
        # Work rows, unpacked by each event: rates (census), residuals and
        # steps; the mask of disks that fit their room, then of positive
        # rates, and that of tight disks.
        self._floats = tuple(np.empty((3, count * m * n), dtype=np.float64))
        self._bools = tuple(np.empty((2, count * m * n), dtype=bool))
        self._index = self._block = None
        # The gate of the block (see above): a lone instance whose suffixes
        # spare SUFFIX_CROSSOVER disks at the start and whose rows of powers
        # never decrease.
        power = self.table.power
        if count > 1 or m * (n - self._widths.max()) < SUFFIX_CROSSOVER or (power[:, 1:] < power[:, :-1]).any():
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

    def _at_clock(self, prices: np.ndarray) -> np.ndarray:
        """`prices` with each NaN, a price still rising, at its instance's clock."""
        rows = prices.reshape(self.clock.size, -1)
        return np.where(np.isnan(rows), self.clock[:, None], rows).ravel()

    @property
    def theta(self) -> np.ndarray:
        return self._at_clock(self.covered_at)

    @property
    def beta(self) -> np.ndarray:
        return self._at_clock(self.gamma_start)

    def is_active(self, idx: int) -> bool:
        """Whether the disk at flat index `idx` can still be selected.

        It can while its server has capacity left and it is larger than the
        server's last selection.
        """
        s = idx // self.table.order.shape[1]
        return bool(self.remaining_capacity[s] > 0) and idx > self.last_selected[s]

    def finalize(self) -> None:
        """Set mu to the least slack making every disk constraint feasible
        (cmpc.slack), fill in each row's charges beyond its width, and drop
        the event buffers. Called once every disk has left its beta phase."""
        m, n = self.table.order.shape
        # The block's index is of no more use.
        self._index = self._block = None
        self.mu = slack_prices(self)
        charges = self.lhs.reshape(m, n)
        for s in (self._widths < n).nonzero()[0].tolist():
            width = self._widths[s]
            charges[s, width:] = charges[s, width - 1]
        state = vars(self)
        for name in EVENT_BUFFERS:
            state.pop(name, None)


def init_solver(instance: Instance, *batch: Instance) -> DualState:
    """The state of `instance`'s ascent, or of a batch's with `batch`'s instances after it."""
    return DualState(instance, *batch)


def next_event(duals: DualState) -> tuple[np.ndarray, list[int]]:
    """Advance each instance's clock to the next time one of its disks goes
    tight.

    Ascent rates are min(remaining capacity, uncovered members): zero for
    disks at or below their server's last selection, whose members are all
    covered, and for exhausted servers. Disks still in their beta phase whose
    uncovered members fit the remaining capacity, or whose server is
    exhausted, leave it at the current clock, before the rates apply. Returns
    the time each clock advanced and the flat indices of every disk tight at
    the new clocks, ascending: that is (server id, key) order, the
    processing order.

    The event works on flat arrays of disks, in place in the state's work
    buffers: at full width on the state's own charges, powers and
    tolerances, else on the block (see DualState), whose charges, powers
    and tolerances it takes and whose charges it then steps in place. Rates are small integers held exactly in float64, so
    each value is the same IEEE expression as with integer rates: the step
    is min(residual / rate) over an instance's positive rates, exact in any
    order, the charge lhs + rate * delta and the tight test residual - rate *
    delta <= tol. An instance with no positive rate steps by 0 once it has
    covered every user, as a finished instance of a batch waits for the
    others, and stalls (AscentStalledError) while it has not.

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
    # In float64, as the rates are. A capacity of 2**53 or more may round,
    # but stays above every census, which is at most n.
    room = duals.remaining_capacity.astype(np.float64)
    block, clocks = duals._block, duals.clock
    if block is None:
        rates, residual, step = duals._floats
        positive, tight = duals._bools
        census = rates.reshape(m, n)
        np.add.accumulate(duals.uncovered, axis=1, out=census)
        # Within one event "fits the remaining capacity" only turns true, so
        # checking it once per event records the same clock as checking it
        # after every selection. An exhausted server's disks get a gamma phase
        # from now on, so lingering uncovered members keep paying; finalize()
        # routes any excess over the disk power into mu.
        # The disks that fit, (census <= room) | (room == 0) with an exhausted
        # server's room as inf, held where the positive rates go below, take
        # the clock if in beta (NaN); fmin keeps the gamma start, an earlier
        # clock, of the others.
        room = room[:, None]
        np.less_equal(census, np.where(room, room, np.inf), out=positive.reshape(m, n))
        starts = duals.gamma_start.reshape(clocks.size, -1)
        np.fmin(starts, clocks[:, None], out=starts, where=positive.reshape(clocks.size, -1))
        # The census becomes the rates in place.
        np.minimum(census, room, out=census)
        np.subtract(duals.powers, duals.lhs, out=residual)
    else:
        rates = _block_rates(duals, room)
        block, index = duals._block, duals._index[: rates.size]
        residual, step, positive, tight = (buffer[: rates.size] for buffer in (*duals._floats[1:], *duals._bools))
        duals.powers.take(index, out=residual, mode="clip")
        residual -= duals.lhs.take(index, out=step, mode="clip")

    np.greater(rates, 0.0, out=positive)
    # where= leaves the other entries of step stale, so the min skips them
    # too; an instance's is inf when none of its rates is positive.
    np.divide(residual, rates, out=step, where=positive)
    steps = step.reshape(clocks.size, -1)
    delta = np.minimum.reduce(steps, axis=1, where=positive.reshape(clocks.size, -1), initial=np.inf)
    deltas = delta.tolist()
    if np.inf in deltas or min(deltas) < 0.0:
        idle = delta == np.inf
        if (idle & np.isnan(duals.covered_at).reshape(clocks.size, -1).any(axis=1)).any():
            raise AscentStalledError("an instance has users uncovered but no disk that can ascend")
        delta[idle] = 0.0
        np.maximum(delta, 0.0, out=delta)
    np.multiply(rates.reshape(clocks.size, -1), delta[:, None], out=steps)
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
    clocks += delta
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
    census = duals.uncovered.take(duals._index[: block.size], out=duals._floats[0][: block.size], mode="clip")
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
        census = duals.uncovered.take(duals._index[: block.size], out=duals._floats[0][: block.size], mode="clip")
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
    ascending (in a batch, as numbered in the union). A tight disk whose
    uncovered set was emptied by an earlier selection in the same event
    changes nothing. Smaller disks of the server stop ascending, as their
    members are all covered.
    """
    if not duals.is_active(idx):
        raise ValueError("apply_selection: disk is no longer active")
    n = duals.table.order.shape[1]
    s, rank = divmod(idx, n)
    # A disk beyond its row's width holds the row's charge at width - 1.
    if duals.powers.item(idx) - duals.lhs.item(s * n + min(rank, duals._widths.item(s) - 1)) > duals.tight_tol.item(idx):
        raise ValueError("apply_selection: disk is not tight")
    # The disk's uncovered members, in rank order.
    newly = duals.table.order[s].take(duals.uncovered[s, : rank + 1].nonzero()[0])
    if not len(newly):
        return []
    if len(newly) > duals.remaining_capacity[s]:
        raise CapacityInvariantError(
            f"tight disk (server {s}, rank {rank}) holds {len(newly)} uncovered "
            f"users but only {duals.remaining_capacity[s]} capacity remains"
        )

    b = s // duals._rows.shape[1]
    duals.assignment[newly] = s
    duals.covered_at[newly] = duals.clock[b]
    duals.uncovered[duals._rows[b], duals.table.rank.take(newly, axis=1)] = 0.0
    duals.remaining_capacity[s] -= len(newly)
    duals.last_selected[s] = idx
    return sorted(newly.tolist())


def pd_solve(instance: Instance) -> tuple[Solution, DualState, EventTrace]:
    """Cover all users by dual ascent; return the cover, prices and trace:
    pd_solve_batch on `instance` alone, then finalize.

    Raises InsufficientCapacityError when total capacity < n,
    CapacityInvariantError if a selection would ever exceed remaining
    capacity, and AscentStalledError if an event covers no user.
    """
    (solution,), duals, (trace,) = pd_solve_batch([instance])
    duals.finalize()
    return solution, duals, trace


def pd_solve_batch(instances: Sequence[Instance]) -> tuple[list[Solution], DualState, list[EventTrace]]:
    """pd_solve on each of `instances` in one ascent, all but finalize: the
    covers, the state and the traces.

    The instances, one or more, must share one shape (m, n); two or more
    work at full width, whatever their own gates say, and one as its gate
    says. Their state is the union of theirs (see DualState): instance b's
    prices are covered_at and theta[b*n:(b+1)*n], gamma_start and
    beta[b*m*n:(b+1)*m*n], its clock is clock[b], and mu stays zero. Each
    event steps every instance by its own delta until the last one has
    covered every user, so each cover, trace and price is bit for bit that
    of the instance's own pd_solve. Raises as pd_solve does, for the first instance short of
    capacity or at the first failing event.
    """
    if not instances:
        raise ValueError("a batch takes at least one instance")
    for instance in instances:
        require_capacity(instance)
    if len({(instance.m, instance.n) for instance in instances}) > 1:
        raise ValueError("a batch takes instances of one shape (m, n)")
    m, n = instances[0].m, instances[0].n
    duals = init_solver(*instances)
    traces: list[EventTrace] = [[] for _ in instances]
    uncovered = [n] * len(instances)
    while any(uncovered):
        _, tights = next_event(duals)
        clocks = duals.clock.tolist()
        before = list(uncovered)
        for idx in tights:
            s, rank = divmod(idx, n)
            # next_event finds no tight disk at or below its server's last
            # selection, whose members are all covered: so one is active
            # while its server has room, which an earlier selection may have
            # used up (apply_selection checks both).
            if not duals.remaining_capacity[s]:
                continue
            b = s // m
            newly = apply_selection(duals, idx)
            if newly:
                uncovered[b] -= len(newly)
                traces[b].append(
                    SelectionEvent(
                        clock=clocks[b],
                        server=s - b * m,
                        boundary_user=duals.table.order.item(s, rank) - b * n,
                        rank=rank,
                        disk_index=idx - b * m * n,
                        newly_covered=tuple(u - b * n for u in newly) if b else tuple(newly),
                        power=duals.powers.item(idx),
                        remaining_after=int(duals.remaining_capacity[s]),
                    )
                )
        if any(left and left == now for left, now in zip(before, uncovered)):
            raise AscentStalledError("an event covered no user although users remain uncovered")

    # Every disk has left its beta phase once nobody is uncovered.
    starts = duals.gamma_start.reshape(len(instances), -1)
    np.fmin(starts, duals.clock[:, None], out=starts)
    solutions = []
    for b, instance in enumerate(instances):
        ranks = [i - (b * m + s) * n if i >= 0 else -1 for s, i in enumerate(duals.last_selected[b * m : (b + 1) * m])]
        assignment = duals.assignment[b * n : (b + 1) * n] - b * m
        solutions.append(make_solution(instance, ranks, assignment.tolist()))
    return solutions, duals, traces
