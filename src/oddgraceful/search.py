"""Complete backtracking search for odd-graceful labelings.

The search assigns labels vertex by vertex in a BFS order rooted at a
maximum-degree vertex, so every vertex after the first has at least one
already-placed neighbor and edge constraints prune immediately.  It is an
independent oracle: it never consults the closed-form labelers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from .canon import canonical_dumps
from .graphs import Graph, two_coloring
from .labeling import Labeling, verify_odd_graceful


def engine_name() -> str:
    """Name of the search engine, recorded with benchmark results."""
    return "pure-python"


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for find_odd_graceful: None means unlimited, anything but
    None or an int >= 0 is rejected.  node_budget=0 stops before the first
    placement; the clock is read every 4096 placements, so a search shorter
    than that finishes whatever time_budget_ms says."""

    node_budget: Optional[int] = None
    time_budget_ms: Optional[int] = None

    def __post_init__(self):
        for name in ("node_budget", "time_budget_ms"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 0):
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    backtracks: int
    elapsed_ms: int
    max_depth: int


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: found / none / inconclusive plus statistics.

    status "none" is emitted only when the search tree was fully explored;
    "inconclusive" carries the exhausted budget as its reason.
    """

    status: str  # "found" | "none" | "inconclusive"
    stats: SearchStats
    reason: Optional[str] = None  # "node-budget" | "time-budget"
    labeling: Optional[Labeling] = None

    def to_json_obj(self) -> dict:
        return {
            "outcome": self.status,
            "reason": self.reason,
            "labels": self.labeling,
            "stats": {
                "nodes": self.stats.nodes_expanded,
                "backtracks": self.stats.backtracks,
                "elapsed_ms": self.stats.elapsed_ms,
                "max_depth": self.stats.max_depth,
            },
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_obj())


def _bfs_order(g: Graph):
    """Placement order: BFS from a maximum-degree vertex (smallest id on
    ties), neighbors visited in ascending id; restarted per component.
    Returns (order, connected)."""
    adj = g.adjacency()
    by_degree = sorted(range(g.p), key=lambda v: (-len(adj[v]), v))
    visited = [False] * g.p
    order = []
    roots = 0
    next_root = 0  # every vertex before it in by_degree is visited
    while len(order) < g.p:
        while visited[by_degree[next_root]]:
            next_root += 1
        root = by_degree[next_root]
        roots += 1
        visited[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for nb in adj[v]:
                if not visited[nb]:
                    visited[nb] = True
                    queue.append(nb)
    return order, roots == 1


def _earlier_neighbors(g: Graph, order):
    """Per placement position, the ascending positions of its neighbors
    placed before it."""
    pos_of = {v: d for d, v in enumerate(order)}
    adj = g.adjacency()
    return [tuple(sorted(pos_of[nb] for nb in adj[v] if pos_of[nb] < d))
            for d, v in enumerate(order)]


_FOUND = 0
_EXHAUSTED = 1
_NODE_BUDGET = 2
_TIME_BUDGET = 3


def _run_dfs(p, q, first_cap, earlier, node_budget, time_budget_ms):
    """Complete DFS over vertex-label assignments in [0, 2q-1].

    Vertices are handled in placement order ("positions"); earlier[pos]
    holds the earlier positions adjacent to pos.  Used vertex labels live
    in the bitset used_v, used edge labels d in used_e (bit d) and in its
    mirror used_r (bit 2q-1-d).  Each visit of a position computes its
    candidates as one bitset: a placed neighbor labeled y rules out y + d
    (used_e << y) and y - d (used_r >> (2q-1-y)) for every used d, and
    every value of y's parity, since every edge label must be odd; two
    neighbors whose labels have an even sum rule out their midpoint, where
    the two new edges would share a label.  The lowest candidate above the
    last value tried is placed, so values are tried in ascending order.
    Masks are recomputed on every visit, never kept per position, so only
    O(p + q) words are held at any depth.  Statistics: nodes counts
    successful placements, backtracks counts removals, max_depth is the
    deepest prefix of placed positions.  The node budget is checked before
    every placement, the time budget every 4096 placements; budgets are -1
    when unlimited.  Returns (status, labels_by_position | None, nodes,
    backtracks, max_depth).
    """
    t0 = perf_counter()
    max_label = 2 * q - 1
    full = (1 << (max_label + 1)) - 1
    first = (1 << (first_cap + 1)) - 1
    evens = full // 3          # bits 0, 2, 4, ...
    same_parity = (evens, evens << 1)
    labels = [0] * p
    last = [-1] * p            # last candidate value tried per position
    used_v = 0
    used_e = 0
    used_r = 0
    nodes = 0
    backtracks = 0
    max_depth = 0
    pos = 0

    while True:
        nbrs = earlier[pos]
        forbid = used_v
        for i, j in enumerate(nbrs):
            y = labels[j]
            forbid |= (same_parity[y & 1] | used_e << y
                       | used_r >> (max_label - y))
            for k in nbrs[i + 1:]:
                s = y + labels[k]
                if not s & 1:
                    forbid |= 1 << (s >> 1)
        start = last[pos] + 1
        cand = ((first if pos == 0 else full) & ~forbid) >> start

        if cand:
            if node_budget >= 0 and nodes >= node_budget:
                return (_NODE_BUDGET, None, nodes, backtracks, max_depth)
            x = start + (cand & -cand).bit_length() - 1
            labels[pos] = x
            last[pos] = x
            used_v |= 1 << x
            for j in nbrs:
                d = x - labels[j]
                if d < 0:
                    d = -d
                used_e |= 1 << d
                used_r |= 1 << (max_label - d)
            nodes += 1
            pos += 1
            if pos > max_depth:
                max_depth = pos
            if (time_budget_ms >= 0 and nodes % 4096 == 0
                    and (perf_counter() - t0) * 1000.0 > time_budget_ms):
                return (_TIME_BUDGET, None, nodes, backtracks, max_depth)
            if pos == p:
                return (_FOUND, labels, nodes, backtracks, max_depth)
            last[pos] = -1
            continue

        # no candidate left at pos: undo the previous placement
        pos -= 1
        if pos < 0:
            return (_EXHAUSTED, None, nodes, backtracks, max_depth)
        x = labels[pos]
        used_v ^= 1 << x
        for j in earlier[pos]:
            d = x - labels[j]
            if d < 0:
                d = -d
            used_e ^= 1 << d
            used_r ^= 1 << (max_label - d)
        backtracks += 1


def find_odd_graceful(g: Graph, cfg: SearchConfig = SearchConfig()
                      ) -> SearchOutcome:
    """Find an odd-graceful labeling of g or certify that none exists.

    A graph with an odd cycle is "none" with zero statistics, in O(p + q):
    every edge label is odd, so labels alternate parity along each edge and
    an odd-graceful graph is bipartite.  Otherwise a complete depth-first
    search with ascending value order runs.  Pruning: a new edge label that
    is even or already used kills the branch; candidate values are
    restricted to the parity forced by an already-placed neighbor; and the
    first placed vertex of a connected graph is capped at q-1 (the
    complement transform maps any solution to one satisfying the cap, so no
    verdict is lost).  Every found labeling is re-verified before return.
    """
    if g.p == 0:
        raise ValueError("cannot search the empty graph")
    t0 = perf_counter()
    if two_coloring(g) is None:
        return SearchOutcome("none", SearchStats(
            0, 0, int((perf_counter() - t0) * 1000), 0))
    q = g.q

    if q == 0:
        elapsed = int((perf_counter() - t0) * 1000)
        if g.p == 1:
            labeling = [0]
            _assert_sound(g, labeling)
            return SearchOutcome("found", SearchStats(1, 0, elapsed, 1),
                                 labeling=labeling)
        # two or more isolated vertices cannot share the single label 0
        return SearchOutcome("none", SearchStats(0, 0, elapsed, 0))

    order, connected = _bfs_order(g)
    first_cap = q - 1 if connected else 2 * q - 1
    node_budget = -1 if cfg.node_budget is None else cfg.node_budget
    time_budget = -1 if cfg.time_budget_ms is None else cfg.time_budget_ms

    status, pos_labels, nodes, backtracks, max_depth = _run_dfs(
        g.p, q, first_cap, _earlier_neighbors(g, order), node_budget,
        time_budget)

    elapsed = int((perf_counter() - t0) * 1000)
    stats = SearchStats(nodes, backtracks, elapsed, max_depth)
    if status == _FOUND:
        labeling = [None] * g.p
        for v, x in zip(order, pos_labels):
            labeling[v] = x
        _assert_sound(g, labeling)
        return SearchOutcome("found", stats, labeling=labeling)
    if status == _EXHAUSTED:
        return SearchOutcome("none", stats)
    reason = "node-budget" if status == _NODE_BUDGET else "time-budget"
    return SearchOutcome("inconclusive", stats, reason=reason)


def _assert_sound(g: Graph, labeling: Labeling) -> None:
    report = verify_odd_graceful(g, labeling)
    if not report.ok:
        raise AssertionError(
            f"search produced an invalid labeling: {report.violations[:3]}")


def exhaustive_oracle(g: Graph) -> SearchOutcome:
    """Brute-force cross-check: try every injection of vertices into
    {0..2q-1} with no pruning at all, testing each against the odd-graceful
    definition.  Guarded to q <= 6; the point is independence from the
    engine, not speed."""
    if g.p == 0:
        raise ValueError("cannot search the empty graph")
    if g.q > 6:
        raise ValueError("exhaustive_oracle is guarded to q <= 6")
    t0 = perf_counter()
    q = g.q
    pool = range(2 * q) if q > 0 else range(1)
    edges = g.edges
    tested = 0
    for perm in itertools.permutations(pool, g.p):
        tested += 1
        used = 0
        ok = True
        for a, b in edges:
            d = perm[a] - perm[b]
            if d < 0:
                d = -d
            bit = 1 << d
            if not d & 1 or used & bit:
                ok = False
                break
            used |= bit
        if ok:
            labeling = list(perm)
            _assert_sound(g, labeling)
            elapsed = int((perf_counter() - t0) * 1000)
            return SearchOutcome(
                "found", SearchStats(tested, 0, elapsed, g.p), labeling=labeling)
    elapsed = int((perf_counter() - t0) * 1000)
    return SearchOutcome(
        "none", SearchStats(tested, 0, elapsed, g.p if tested else 0))
