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
    lhs = instance.capacity.astype(np.float64)[:, None] * beta.reshape(m, n)
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
    """
    table = order_table(instance)
    tol = CHECK_TOL * float(table.power.max())
    theta = np.asarray(duals.theta, dtype=np.float64)
    starts = np.asarray(duals.gamma_start, dtype=np.float64)
    steps = _capacity_steps(instance, trace)

    violations: list[ChargingViolation] = []
    for ev_i, ev in enumerate(trace):
        members, charge, paid = _event_charges(table, steps, duals, ev)
        short = tol + TIGHTNESS_TOL * ev.power
        if starts[ev.disk_index] < -tol:
            violations.append(ChargingViolation(ev_i, "negative gamma start", float(-starts[ev.disk_index])))
        # Each test is written as "not within", so that a NaN fails it.
        if not abs(ev.power - charge) <= short:
            violations.append(ChargingViolation(ev_i, "power vs beta-charge + gamma", abs(ev.power - charge)))
        # Pairwise, not sequential, summation: its rounding stays far below
        # CHECK_TOL even for disks with thousands of members.
        total = float(paid.sum())
        if not abs(ev.power - total) <= short:
            violations.append(ChargingViolation(ev_i, "power vs per-user charges", abs(ev.power - total)))
        overpaid = float((paid - theta[members]).max(initial=0.0))
        if not overpaid <= tol:
            violations.append(ChargingViolation(ev_i, "charge exceeds a user's theta", overpaid))
    return violations
