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


def _flat_phase(instance: Instance, trace: Sequence, server: int, g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def charge_breakdown(instance: Instance, trace: Sequence, duals, event_index: int) -> dict[int, float]:
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


def check_charging(instance: Instance, trace: Sequence, duals) -> list[ChargingViolation]:
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
