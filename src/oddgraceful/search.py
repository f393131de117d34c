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
from .graphs import Graph
from .labeling import Labeling, verify_odd_graceful


def engine_name() -> str:
    """Name of the search engine, recorded with benchmark results."""
    return "pure-python"


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for find_odd_graceful: None means unlimited, 0 stops before
    the first placement, negative values are rejected."""

    node_budget: Optional[int] = None
    time_budget_ms: Optional[int] = None

    def __post_init__(self):
        for name in ("node_budget", "time_budget_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


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
        labels = None
        if self.labeling is not None:
            labels = [self.labeling[v] for v in range(len(self.labeling))]
        return {
            "outcome": self.status,
            "reason": self.reason,
            "labels": labels,
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
    deg = [len(a) for a in adj]
    visited = [False] * g.p
    order = []
    roots = 0
    while len(order) < g.p:
        root = max((v for v in range(g.p) if not visited[v]),
                   key=lambda v: (deg[v], -v))
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
    holds the earlier positions adjacent to pos; used vertex and edge labels
    live in bitsets.  A position with a placed neighbor only tries values of
    the opposite parity, since every edge label must be odd.  Statistics:
    nodes counts successful placements, backtracks counts removals,
    max_depth is the deepest prefix of placed positions.  The node budget is
    checked before every placement, the time budget every 4096 placements;
    budgets are -1 when unlimited.  Returns (status, labels_by_position |
    None, nodes, backtracks, max_depth).
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
        nbrs = earlier[pos]
        start = last[pos] + 1
        step = 1
        if nbrs:
            req = (labels[nbrs[0]] & 1) ^ 1
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
                for j in nbrs:
                    d = x - labels[j]
                    if d < 0:
                        d = -d
                    eb = 1 << d
                    if not d & 1 or (used_e | new_bits) & eb:
                        ok = False
                        break
                    new_bits |= eb
                if ok:
                    if node_budget >= 0 and nodes >= node_budget:
                        return (_NODE_BUDGET, None, nodes, backtracks,
                                max_depth)
                    labels[pos] = x
                    last[pos] = x
                    used_v |= bit
                    used_e |= new_bits
                    nodes += 1
                    if pos + 1 > max_depth:
                        max_depth = pos + 1
                    if (time_budget_ms >= 0 and nodes % 4096 == 0
                            and (perf_counter() - t0) * 1000.0 > time_budget_ms):
                        return (_TIME_BUDGET, None, nodes, backtracks,
                                max_depth)
                    placed = True
                    break
            x += step

        if placed:
            pos += 1
            if pos == p:
                return (_FOUND, list(labels), nodes, backtracks, max_depth)
            last[pos] = -1
            continue

        # no candidate left at pos: undo the previous placement
        pos -= 1
        if pos < 0:
            return (_EXHAUSTED, None, nodes, backtracks, max_depth)
        x = labels[pos]
        used_v &= ~(1 << x)
        for j in earlier[pos]:
            d = x - labels[j]
            if d < 0:
                d = -d
            used_e &= ~(1 << d)
        backtracks += 1


def find_odd_graceful(g: Graph, cfg: SearchConfig = SearchConfig()
                      ) -> SearchOutcome:
    """Find an odd-graceful labeling of g or certify that none exists.

    Complete depth-first search with ascending value order.  Pruning: a new
    edge label that is even or already used kills the branch; candidate
    values are restricted to the parity forced by an already-placed
    neighbor; and the first placed vertex of a connected graph is capped at
    q-1 (the complement transform maps any solution to one satisfying the
    cap, so no verdict is lost).  Every found labeling is re-verified before
    return.
    """
    if g.p == 0:
        raise ValueError("cannot search the empty graph")
    t0 = perf_counter()
    q = g.q

    if q == 0:
        elapsed = int((perf_counter() - t0) * 1000)
        if g.p == 1:
            labeling = {0: 0}
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
        labeling = {order[d]: pos_labels[d] for d in range(g.p)}
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
            labeling = dict(enumerate(perm))
            _assert_sound(g, labeling)
            elapsed = int((perf_counter() - t0) * 1000)
            return SearchOutcome(
                "found", SearchStats(tested, 0, elapsed, g.p), labeling=labeling)
    elapsed = int((perf_counter() - t0) * 1000)
    return SearchOutcome(
        "none", SearchStats(tested, 0, elapsed, g.p if tested else 0))
