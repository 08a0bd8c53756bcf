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

The runs of all servers are summed up to m at a time, in order of their end
rank hi: one matrix with a row max(0, theta[order[s, :H]] - g) per run of
server s and start g, H the block's largest hi, one cumsum along the ranks,
and a gather that gives each disk the sum in its own run's row. A row is the
same sequential sum as a cumsum over order[s, :hi] alone, so the budgets are
those of one run at a time, bit for bit; as blocks hold runs of similar
ends, the sums stop near where their runs do. Ranked theta, the budgets, the
matrix and its sums use the ascent's m*n work buffers, free by now; the
gather index of m runs spans at most m*n disks.
"""

from __future__ import annotations

import numpy as np


def slack_prices(duals) -> np.ndarray:
    """The least mu making every disk constraint of `duals` feasible, once
    every disk has left its beta phase. Takes the state's work buffers
    (`uncovered`, `_floats`, `_bools`) as scratch."""
    m, n = duals.table.order.shape
    # mode="clip" (every index is in range) takes straight into out,
    # which the default mode would buffer.
    theta = duals.theta.take(duals.table.order, out=duals._floats[0].reshape(m, n), mode="clip")
    starts = duals.gamma_start.reshape(m, n)
    # beta is gamma_start now that no disk is in its beta phase.
    lhs = np.multiply(duals.capacity[:, None], starts, out=duals.uncovered).ravel()
    # A run opens at rank 0 and wherever the start differs from the rank before.
    opens = duals._bools[1].reshape(m, n)
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
        rows = theta[:, :high].take(servers[runs], axis=0, out=duals._floats[2, : min(m, count - c) * high].reshape(-1, high), mode="clip")
        np.subtract(rows, gamma_starts[runs], out=rows)
        prefix = np.add.accumulate(np.maximum(rows, 0.0, out=rows), axis=1, out=duals._floats[1, : rows.size].reshape(-1, high))
        index = src[runs].repeat(lengths[runs])
        index += np.arange(index.size)
        sums = prefix.take(index, out=duals._floats[2, : index.size], mode="clip")
        index += shift[runs].repeat(lengths[runs])
        lhs[index] += sums
    return np.maximum(0.0, np.subtract(lhs, duals.powers, out=lhs).reshape(m, n).max(axis=1))
