"""Pure-Python depth-first search kernel.

The compiled kernel in _dfs_core mirrors this module operation for
operation; the two must produce identical outcomes and identical statistics
for identical inputs, so any change here needs the same change there.

Conventions: vertices are handled in placement order ("positions");
prefix_index/prefix_flat is a CSR layout of, per position, the earlier
positions adjacent to it; used vertex and edge labels live in bitsets.
Statistics: nodes counts successful placements, backtracks counts removals,
max_depth is the deepest prefix of placed positions.  The node budget is
checked before every placement, the time budget every 4096 placements.
"""

from time import perf_counter

FOUND = 0
EXHAUSTED = 1
NODE_BUDGET = 2
TIME_BUDGET = 3


def run_dfs(p, q, first_cap, prefix_index, prefix_flat, node_budget,
            time_budget_ms):
    """Complete DFS over vertex-label assignments in [0, 2q-1].

    A position with a placed neighbor only tries values of the opposite
    parity, since every edge label must be odd.  Returns (status,
    labels_by_position | None, nodes, backtracks, max_depth).  Budgets are -1
    when unlimited.
    """
    t0 = perf_counter()
    max_label = 2 * q - 1
    labels = [0] * p
    last = [-1] * p            # last candidate value tried per position
    used_v = 0                 # vertex-label bitset
    used_e = 0                 # edge-label bitset
    nodes = 0
    backtracks = 0
    max_depth = 0
    pos = 0

    while True:
        cap = first_cap if pos == 0 else max_label
        lo = prefix_index[pos]
        hi = prefix_index[pos + 1]
        start = last[pos] + 1
        step = 1
        if hi > lo:
            req = (labels[prefix_flat[lo]] & 1) ^ 1
            if start & 1 != req:
                start += 1
            step = 2

        placed = False
        x = start
        while x <= cap:
            bit = 1 << x
            if not used_v & bit:
                new_bits = 0
                ok = True
                for i in range(lo, hi):
                    d = x - labels[prefix_flat[i]]
                    if d < 0:
                        d = -d
                    eb = 1 << d
                    if not d & 1 or (used_e | new_bits) & eb:
                        ok = False
                        break
                    new_bits |= eb
                if ok:
                    if node_budget >= 0 and nodes >= node_budget:
                        return (NODE_BUDGET, None, nodes, backtracks, max_depth)
                    labels[pos] = x
                    last[pos] = x
                    used_v |= bit
                    used_e |= new_bits
                    nodes += 1
                    if pos + 1 > max_depth:
                        max_depth = pos + 1
                    if (time_budget_ms >= 0 and nodes % 4096 == 0
                            and (perf_counter() - t0) * 1000.0 > time_budget_ms):
                        return (TIME_BUDGET, None, nodes, backtracks, max_depth)
                    placed = True
                    break
            x += step

        if placed:
            pos += 1
            if pos == p:
                return (FOUND, list(labels), nodes, backtracks, max_depth)
            last[pos] = -1
            continue

        # no candidate left at pos: undo the previous placement
        pos -= 1
        if pos < 0:
            return (EXHAUSTED, None, nodes, backtracks, max_depth)
        x = labels[pos]
        used_v &= ~(1 << x)
        for i in range(prefix_index[pos], prefix_index[pos + 1]):
            d = x - labels[prefix_flat[i]]
            if d < 0:
                d = -d
            used_e &= ~(1 << d)
        backtracks += 1
