# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled depth-first search kernel.

Mirrors _dfs_py.run_dfs operation for operation; the two must produce
identical outcomes and identical statistics for identical inputs.  Bitsets
are arrays of 64-bit words instead of Python big ints; everything else is a
direct transliteration.
"""

from libc.stdlib cimport calloc, free
from time import perf_counter

FOUND = 0
EXHAUSTED = 1
NODE_BUDGET = 2
TIME_BUDGET = 3


def run_dfs(int p, long long q, int first_cap, prefix_index, prefix_flat,
            long long node_budget, long long time_budget_ms):
    """Complete DFS over vertex-label assignments in [0, 2q-1].

    A position with a placed neighbor only tries values of the opposite
    parity, since every edge label must be odd.  Returns (status,
    labels_by_position | None, nodes, backtracks, max_depth).  Budgets are -1
    when unlimited.
    """
    cdef double t0 = perf_counter()
    cdef int max_label = 2 * q - 1
    cdef int words = (max_label >> 6) + 1
    cdef int nflat = len(prefix_flat)

    cdef int *labels = <int *> calloc(p, sizeof(int))
    cdef int *last = <int *> calloc(p, sizeof(int))
    cdef int *pidx = <int *> calloc(p + 1, sizeof(int))
    cdef int *pflat = <int *> calloc(nflat if nflat > 0 else 1, sizeof(int))
    cdef unsigned long long *used_v = <unsigned long long *> calloc(
        words, sizeof(unsigned long long))
    cdef unsigned long long *used_e = <unsigned long long *> calloc(
        words, sizeof(unsigned long long))
    cdef int *new_ds = <int *> calloc(p if p > 0 else 1, sizeof(int))

    if (labels == NULL or last == NULL or pidx == NULL or pflat == NULL
            or used_v == NULL or used_e == NULL or new_ds == NULL):
        free(labels); free(last); free(pidx); free(pflat)
        free(used_v); free(used_e); free(new_ds)
        raise MemoryError()

    cdef int i
    for i in range(p + 1):
        pidx[i] = prefix_index[i]
    for i in range(nflat):
        pflat[i] = prefix_flat[i]
    for i in range(p):
        last[i] = -1

    cdef long long nodes = 0, backtracks = 0
    cdef int max_depth = 0, pos = 0
    cdef int cap, lo, hi, start, step, req, x, d, cnt, j
    cdef bint ok, placed
    cdef int status = -1
    result_labels = None

    try:
        while True:
            cap = first_cap if pos == 0 else max_label
            lo = pidx[pos]
            hi = pidx[pos + 1]
            start = last[pos] + 1
            step = 1
            if hi > lo:
                req = (labels[pflat[lo]] & 1) ^ 1
                if (start & 1) != req:
                    start += 1
                step = 2

            placed = False
            x = start
            while x <= cap:
                if not (used_v[x >> 6] >> (x & 63)) & 1:
                    ok = True
                    cnt = 0
                    for i in range(lo, hi):
                        d = x - labels[pflat[i]]
                        if d < 0:
                            d = -d
                        if not (d & 1) or (used_e[d >> 6] >> (d & 63)) & 1:
                            ok = False
                            break
                        used_e[d >> 6] |= (<unsigned long long> 1) << (d & 63)
                        new_ds[cnt] = d
                        cnt += 1
                    if ok:
                        if node_budget >= 0 and nodes >= node_budget:
                            status = NODE_BUDGET
                            break
                        labels[pos] = x
                        last[pos] = x
                        used_v[x >> 6] |= (<unsigned long long> 1) << (x & 63)
                        nodes += 1
                        if pos + 1 > max_depth:
                            max_depth = pos + 1
                        if (time_budget_ms >= 0 and nodes % 4096 == 0
                                and (perf_counter() - t0) * 1000.0 > time_budget_ms):
                            status = TIME_BUDGET
                            break
                        placed = True
                        break
                    # roll back tentatively consumed edge labels
                    for j in range(cnt):
                        d = new_ds[j]
                        used_e[d >> 6] &= ~((<unsigned long long> 1) << (d & 63))
                x += step
            if status >= 0:
                break

            if placed:
                pos += 1
                if pos == p:
                    status = FOUND
                    result_labels = [labels[i] for i in range(p)]
                    break
                last[pos] = -1
                continue

            pos -= 1
            if pos < 0:
                status = EXHAUSTED
                break
            x = labels[pos]
            used_v[x >> 6] &= ~((<unsigned long long> 1) << (x & 63))
            for i in range(pidx[pos], pidx[pos + 1]):
                d = x - labels[pflat[i]]
                if d < 0:
                    d = -d
                used_e[d >> 6] &= ~((<unsigned long long> 1) << (d & 63))
            backtracks += 1
    finally:
        free(labels); free(last); free(pidx); free(pflat)
        free(used_v); free(used_e); free(new_ds)

    return (status, result_labels, nodes, backtracks, max_depth)
