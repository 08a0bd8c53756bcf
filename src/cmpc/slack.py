"""The slack prices mu of a finished dual ascent (DualState.finalize).

The disk of server s at rank t needs k_s * beta + sum over its members
order[s, :t + 1] of gamma <= power + mu_s, where gamma[h, disk] = max(0,
theta_h - gamma_start[disk]). So the disks of a run [lo, hi) of ranks that
share one gamma start g take their gamma sums from one prefix sum of max(0,
theta - g) over order[s, :hi], whatever the starts are.

The runs are few because gamma_start never decreases with rank: it starts
at 0 below the capacity and NaN above; each event stamps its clock on the
disks in beta that leave it, (census <= room) | (room == 0), a rank prefix
of them since census is a cumsum over rank; and the solve stamps the rest
with the last clock. So a server has at most E + 1 runs for E events:
O(m * n * (E + 1)) time.

The runs of all servers are summed a block at a time, in order of their
end rank hi: one matrix with a row max(0, theta[order[s, :H]] - g) per run
of server s and start g, H the block's largest hi, one cumsum along the
ranks, and a gather that gives each disk the sum in its own run's row. A
row is the same sequential sum as a cumsum over order[s, :hi] alone, so the
budgets are those of one run at a time, bit for bit, however the runs fall
into blocks; as blocks hold runs of similar ends, the sums stop near where
their runs do.

A block holds per = max(m, SLACK_BLOCK // n) runs, so at most max(m * n,
SLACK_BLOCK) prices. Where its min(per, runs) rows fit m rows, as whenever
m * n >= SLACK_BLOCK, its matrix and sums take the ascent's m*n work
buffers, free by now like the ranked theta and the budgets; else two fresh
buffers of min(per, runs) * n <= SLACK_BLOCK prices. A solve has at most
m * n runs, so while m * n * n <= SLACK_BLOCK one block holds them all: a
tiny solve makes the block's dozen numpy calls once. The runs partition the
disks, so a block's gather index spans at most m*n of them.
"""

from __future__ import annotations

import numpy as np


# The prices a block of runs holds when m * n is smaller (see above): 16 KB.
# From 256, the largest m * n * n of the oracle workload's draws (m=4,
# n=8), each of those solves takes one block; above 4,399 the m=10, n=400
# draws of certify-tight would leave blocks of m. BENCH_31.json times
# finalize at sizes from m runs (0) to 8,192.
SLACK_BLOCK = 2048


def slack_prices(duals) -> np.ndarray:
    """The least mu making every disk constraint of `duals` feasible, once
    every disk has left its beta phase. Takes the state's work buffers
    (`uncovered`, `_floats`, `_bools`) as scratch."""
    m, n = duals.table.order.shape
    # Every user is covered by now, so theta is covered_at. mode="clip"
    # (every index is in range) takes straight into out, which the default
    # mode would buffer.
    theta = duals.covered_at.take(duals.table.order, out=duals._floats[0].reshape(m, n), mode="clip")
    starts = duals.gamma_start
    # beta is gamma_start now that no disk is in its beta phase.
    lhs = np.multiply(duals.capacity[:, None], starts.reshape(m, n), out=duals.uncovered).ravel()
    # A run opens at rank 0 and wherever the start differs from the rank before.
    opens = duals._bools[1]
    np.not_equal(starts[1:], starts[:-1], out=opens[1:])
    opens[::n] = True
    heads = opens.nonzero()[0]
    lengths = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1] = m * n - heads[-1]
    # Run r holds the flat disks [heads[r], heads[r] + lengths[r]), of server
    # servers[r] up to rank ends[r]. Sorted by their ends, the runs fall into
    # blocks of `per`, and a block's rows stop at its last run's end.
    servers, ends = np.divmod(heads, n)
    ends += lengths
    by_end = ends.argsort(kind="stable")
    heads, lengths, servers, ends = heads[by_end], lengths[by_end], servers[by_end], ends[by_end].tolist()
    count, per = heads.size, max(m, SLACK_BLOCK // n)
    # A block's matrix and its sums take at most min(per, count) rows of n.
    size = min(per, count) * n
    work = duals._floats[1:] if size <= m * n else np.empty((2, size))
    gamma_starts = starts.take(heads)[:, None]
    # The disks of the runs in order, as flat indices: lead[r] plus their place.
    lead, done = heads - (lengths.cumsum() - lengths), 0
    for c in range(0, count, per):
        runs, high = slice(c, c + per), ends[min(c + per, count) - 1]
        rows = theta[:, :high].take(servers[runs], axis=0, out=work[0][: min(per, count - c) * high].reshape(-1, high), mode="clip")
        np.subtract(rows, gamma_starts[runs], out=rows)
        prefix = np.add.accumulate(np.maximum(rows, 0.0, out=rows), axis=1, out=work[1][: rows.size].reshape(-1, high))
        # Rank t of the block's row i, server s, is prefix[i, t] and lhs[s * n + t].
        shift = servers[runs] * n - np.arange(0, rows.size, high)
        index = (lead[runs] - shift).repeat(lengths[runs])
        index += np.arange(done, done + index.size)
        done += index.size
        sums = prefix.take(index, out=work[0][: index.size], mode="clip")
        index += shift.repeat(lengths[runs])
        lhs[index] += sums
    return np.maximum.reduce(np.subtract(lhs, duals.powers, out=lhs).reshape(m, n), axis=1, initial=0.0)
