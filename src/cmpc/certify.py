"""Certificate checkers for the dual ascent, apart from the ascent they check.

`verify_dual_feasibility` checks the dual prices against the covering dual's
constraints and `check_charging` audits how each selection's power was paid
for. Both rebuild what they check from the instance, the event trace and the
closed-form prices alone: duals are read by duck type (`theta`, `beta`,
`mu`, `gamma_start`, `covered_at`), the trace's events by their fields
(`clock`, `server`, `rank`, `disk_index`, `power`, `remaining_after`), and
nothing here reads the ascent's running sums or imports the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Instance, order_table

# A disk is tight when its remaining charge gap is below this times its own
# power: event times are exact in simple cases but accumulate rounding over
# many events. Relative to the power alone, so the cover does not depend on
# the power unit c. The ascent selects by it; check_charging allows it.
TIGHTNESS_TOL = 1e-9

# Both checkers compare every quantity they check against this times the
# instance's largest candidate power (check_charging's power identities also
# allow the ascent's TIGHTNESS_TOL): prices, charges and budgets all scale
# with c, so a fault is found or missed alike in every power unit.
CHECK_TOL = 1e-12

# Both checkers work through m*n disks or a trace's members in blocks of about
# this many float64 elements (256 KiB): few enough numpy calls, and a block's
# temporaries stay far below the order table's memory at any size.
_BLOCK = 1 << 15


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
    O(m * n), and only their members are expanded. For the gamma sums of the
    budgets, one lexsort groups the disks that have a start by (server,
    start), in whatever order the starts come along the ranks; each group
    takes one prefix sum of max(0, theta - g) in rank order up to its last
    rank, the same sequential sum for each of its disks as one over all n
    ranks. The groups are summed in order of their last rank, in blocks of
    at most _BLOCK elements (or one group).
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
    lhs = instance.capacity.astype(np.float64)[:, None] * beta.reshape(m, n)
    disks = np.flatnonzero(starts < np.inf)
    disks = disks[np.lexsort((starts[disks], disks // n))]
    g, server = starts[disks], disks // n
    head = np.flatnonzero((np.diff(server, prepend=-1) != 0) | (g != np.append(np.nan, g[:-1])))
    size = np.diff(np.append(head, disks.size))
    end = disks[head + size - 1] % n + 1
    by_end = np.argsort(end)
    head, size, ends = head[by_end], size[by_end], end[by_end].tolist()
    lo = 0
    while lo < len(ends):
        # A block's rows run to its last group's end: at most _BLOCK elements.
        top = min(len(ends), lo + max(1, _BLOCK // ends[lo]))
        top = min(top, lo + max(1, _BLOCK // ends[top - 1]))
        heads, sizes = head[lo:top], size[lo:top]
        sums = np.cumsum(np.maximum(ranked[server[heads], : ends[top - 1]] - g[heads, None], 0.0), axis=1)
        at = disks[np.repeat(heads - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())]
        lhs.ravel()[at] += sums[np.repeat(np.arange(top - lo), sizes), at % n]
        lo = top
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


def _capacity_steps(instance: Instance, trace: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The distinct event clocks from 0 on, ascending, and an [m, 1 + clocks]
    matrix of every server's remaining capacity: its capacity before clock 0,
    then from each clock to the next its value after the server's last event
    at or before that clock. One pass over `trace`, which is in clock order,
    as pd_solve records it.
    """
    capacity = instance.capacity.tolist()
    clocks, steps = [0.0], [capacity, capacity.copy()]
    for e in trace:
        if e.clock > clocks[-1]:
            clocks.append(e.clock)
            steps.append(steps[-1].copy())
        steps[-1][e.server] = e.remaining_after
    return np.array(clocks), np.array(steps).T


def _event_charges(table, steps, duals, ev) -> tuple[np.ndarray, float, np.ndarray]:
    """Members of `ev`'s disk in rank order, the charge it collected and each
    member's share. Its flat phase [0, g), g its gamma start, is cut at every
    event clock below g, as any event can change a census: in each segment
    the kp lowest-key uncovered members pay the server's remaining capacity
    kp at unit rate. From g on, each uncovered member pays until covered.
    """
    clocks, capacity = steps
    members = table.order[ev.server, : ev.rank + 1]
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)[members]
    g = float(duals.gamma_start[ev.disk_index])
    a = clocks[clocks < g]
    span, kp = np.diff(np.append(a, g)), capacity[ev.server, 1 : len(a) + 1]
    alive = covered_at[None, :] > a[:, None]
    paying = alive & (np.cumsum(alive, axis=1) <= kp[:, None])
    # The flat charge integrates kp over [0, g): a g below 0 runs backwards,
    # at the server's capacity before clock 0.
    charge = float(span @ kp) + min(g, 0.0) * capacity[ev.server, 0] + float(np.maximum(0.0, covered_at - g).sum())
    # fmax: a NaN price (uncovered user, or no gamma phase) charges nothing.
    return members, charge, np.fmax(0.0, covered_at - g) + span @ paying


def charge_breakdown(instance: Instance, trace: Sequence, duals, event_index: int) -> dict[int, float]:
    """Per-user charges paying for one selection event's disk power, keyed
    by member in rank order: those `check_charging` audits, rebuilt from the
    trace and the closed-form prices. They sum to the disk's power and never
    exceed a user's theta.
    """
    members, _, paid = _event_charges(order_table(instance), _capacity_steps(instance, trace), duals, trace[event_index])
    return dict(zip(members.tolist(), paid.tolist()))


def check_charging(instance: Instance, trace: Sequence, duals) -> list[ChargingViolation]:
    """Audit the charging accounting of every selection event.

    For each selected disk, its power must equal the flat-price charge it
    collected (remaining capacity integrated over its flat-price phase) plus
    its members' individual payments, and the same total must be recoverable
    as per-user charges of at most theta_h each, and its gamma start must not
    be negative (the first identity cannot see one: a start g < 0 moves
    k_s * g from the flat charge to the individual prices). The final cover
    is at most m disks, one per server, so these give total power <= m *
    sum(theta).
    Everything is reconstructed from the trace and the closed-form prices,
    independently of the ascent's running sums, and checked to within
    CHECK_TOL * the largest candidate power; the two power identities also
    allow the ascent's own TIGHTNESS_TOL * power, as it selects a disk whose
    charge is short of its power by at most that.

    All events are worked out together, in blocks of about _BLOCK members
    and [events, clocks] elements. Segment j of a flat phase [0, g) runs from
    clock a_j to the next clock below g, or to g, at the server's remaining
    capacity kp_j; member h is alive in it iff covered_at[h] > a_j, so in the
    first A_h segments, A_h the count of clocks below covered_at[h] (0 for a
    NaN), and the kp_j lowest-ranked alive members pay. So the flat charge is
    sum_j span_j * kp_j and the per-user total sum_h gamma_h + sum_j span_j *
    clip(kp_j, 0, alive_j), alive_j counted from one bincount of the A_h.

    The theta test is screened: h pays at most gamma_h + E_h, E_h the end of
    its last alive segment (0 if none), as the segments it pays in are among
    the first A_h, whose spans telescope from a_0 = 0 to E_h. Computed, each
    span is fl(b - a) <= (1 + u)(b - a), u = 2^-53, and a sum of L
    nonnegative terms in any order is at most (1 + (L - 1)u / (1 - (L - 1)u))
    times their exact sum: over L <= K segments, K the count of clocks, h's
    computed share is at most (1 + Ku / (1 - Ku)) * E_h <= (1 + (K + 1)u) *
    E_h for K <= 2^26 (past that the screen passes nothing), and fl(E_h *
    (1 + 2(K + 1)u)) is at least that (subnormal spans and sums are exact).
    Rounding is monotone, so fl(fl(gamma_h + that) - theta_h) is at least
    the exact pass's computed paid_h - theta_h, and an event whose bounds
    are all within tol passes its theta test. Every other event, and one
    with g = +inf (a span of inf, whose 0 * inf the exact pass turns into
    NaN), takes the exact [segments, members] pass of `charge_breakdown`
    for all its reports.
    """
    table = order_table(instance)
    n = instance.n
    tol = CHECK_TOL * float(table.power.max())
    theta = np.asarray(duals.theta, dtype=np.float64)
    covered_at = np.asarray(duals.covered_at, dtype=np.float64)
    starts = np.asarray(duals.gamma_start, dtype=np.float64)
    clocks, capacity = steps = _capacity_steps(instance, trace)
    events = list(trace)
    server, rank, disk = np.array([(e.server, e.rank, e.disk_index) for e in events], dtype=np.int64).reshape(-1, 3).T
    power = np.array([e.power for e in events], dtype=np.float64)
    g = starts[disk]
    segments = np.searchsorted(clocks, g)
    segments[np.isnan(g)] = 0
    k = clocks.size
    widths = np.append(np.diff(clocks), 0.0)
    ends = np.append(clocks, np.inf)
    grow = 1.0 + (k + 1) * 2.0**-52 if k <= 2**26 else np.inf
    charge, total, over = np.empty((3, len(events)))
    size = rank + 1
    # A block's members and [events, clocks] matrices: at most _BLOCK elements, or one event.
    cost = np.cumsum(np.append(0, size + k + 1))
    lo = 0
    while lo < len(events):
        top = max(lo + 1, int(np.searchsorted(cost, cost[lo] + _BLOCK, "right")) - 1)
        srv, gb, seg, sizes = server[lo:top], g[lo:top], segments[lo:top], size[lo:top]
        first = np.cumsum(sizes) - sizes
        members = table.order.ravel()[np.repeat(srv * n - first, sizes) + np.arange(sizes.sum())]
        cov, gm = covered_at[members], np.repeat(gb, sizes)
        # Each member's first segment not alive: the count of clocks below covered_at.
        dead = np.searchsorted(clocks, cov)
        dead[np.isnan(cov)] = 0
        gamma = np.fmax(0.0, cov - gm)
        alive = np.minimum(dead, np.repeat(seg, sizes))
        end = np.where(alive > 0, np.minimum(ends[alive], gm), 0.0)
        over[lo:top] = np.maximum.reduceat(gamma + end * grow - theta[members], first)
        # span[e, j]: the width of segment j of event e, 0 past its last.
        span = np.where(np.arange(k) < seg[:, None] - 1, widths, 0.0)
        cut = np.flatnonzero(seg)
        span[cut, seg[cut] - 1] = gb[cut] - clocks[seg[cut] - 1]
        kp = capacity[srv, 1:]
        dying = np.bincount(np.repeat(np.arange(top - lo) * (k + 1), sizes) + dead, minlength=(top - lo) * (k + 1))
        count = sizes[:, None] - np.cumsum(dying.reshape(-1, k + 1)[:, :k], axis=1)
        charge[lo:top] = (span * kp).sum(axis=1) + np.minimum(gb, 0.0) * capacity[srv, 0]
        charge[lo:top] += np.add.reduceat(np.maximum(0.0, cov - gm), first)
        total[lo:top] = np.add.reduceat(gamma, first) + (span * np.clip(kp, 0, count)).sum(axis=1)
        lo = top

    screened = (over <= tol) & (g != np.inf)
    short = tol + TIGHTNESS_TOL * power
    negative = g < -tol
    flagged = negative | ~(np.abs(power - charge) <= short) | ~(np.abs(power - total) <= short) | ~screened
    violations: list[ChargingViolation] = []
    for i in np.flatnonzero(flagged).tolist():
        overpaid = 0.0
        if not screened[i]:
            members, charge[i], paid = _event_charges(table, steps, duals, events[i])
            # Pairwise, not sequential, summation: its rounding stays far below
            # CHECK_TOL even for disks with thousands of members.
            total[i] = paid.sum()
            overpaid = float((paid - theta[members]).max(initial=0.0))
        if negative[i]:
            violations.append(ChargingViolation(i, "negative gamma start", float(-g[i])))
        # Each test is written as "not within", so that a NaN fails it.
        if not abs(power[i] - charge[i]) <= short[i]:
            violations.append(ChargingViolation(i, "power vs beta-charge + gamma", float(abs(power[i] - charge[i]))))
        if not abs(power[i] - total[i]) <= short[i]:
            violations.append(ChargingViolation(i, "power vs per-user charges", float(abs(power[i] - total[i]))))
        if not overpaid <= tol:
            violations.append(ChargingViolation(i, "charge exceeds a user's theta", overpaid))
    return violations
