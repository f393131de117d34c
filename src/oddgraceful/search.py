"""Complete backtracking search for odd-graceful labelings.

The search assigns labels vertex by vertex in a BFS order rooted at a
maximum-degree vertex, so every vertex after the first has at least one
already-placed neighbor and edge constraints prune immediately.  It is an
independent oracle: it never consults the closed-form labelers.

Two interchangeable kernels implement the inner loop: a compiled extension
(_dfs_core) and a pure-Python fallback (_dfs_py).  The compiled kernel is
selected at import when available.  Both produce identical outcomes and
statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from . import _dfs_py
from .canon import canonical_dumps
from .graphs import Graph
from .labeling import Labeling, verify_odd_graceful

try:
    from . import _dfs_core as _kernel_default  # type: ignore[no-redef]
except ImportError:
    _kernel_default = _dfs_py


def engine_name() -> str:
    """Which DFS kernel is active: 'compiled' or 'pure-python'."""
    return "pure-python" if _kernel_default is _dfs_py else "compiled"


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


def _prefix_csr(g: Graph, order):
    """CSR arrays of already-placed neighbors per placement position."""
    pos_of = {v: d for d, v in enumerate(order)}
    adj = g.adjacency()
    prefix_index = [0]
    prefix_flat = []
    for d, v in enumerate(order):
        earlier = sorted(pos_of[nb] for nb in adj[v] if pos_of[nb] < d)
        prefix_flat.extend(earlier)
        prefix_index.append(len(prefix_flat))
    return prefix_index, prefix_flat


def find_odd_graceful(g: Graph, cfg: SearchConfig = SearchConfig(),
                      _kernel=None) -> SearchOutcome:
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
    kernel = _kernel if _kernel is not None else _kernel_default
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
    prefix_index, prefix_flat = _prefix_csr(g, order)
    first_cap = q - 1 if connected else 2 * q - 1
    node_budget = -1 if cfg.node_budget is None else cfg.node_budget
    time_budget = -1 if cfg.time_budget_ms is None else cfg.time_budget_ms

    status, pos_labels, nodes, backtracks, max_depth = kernel.run_dfs(
        g.p, q, first_cap, prefix_index, prefix_flat, node_budget,
        time_budget)

    elapsed = int((perf_counter() - t0) * 1000)
    stats = SearchStats(nodes, backtracks, elapsed, max_depth)
    if status == _dfs_py.FOUND:
        labeling = {order[d]: pos_labels[d] for d in range(g.p)}
        _assert_sound(g, labeling)
        return SearchOutcome("found", stats, labeling=labeling)
    if status == _dfs_py.EXHAUSTED:
        return SearchOutcome("none", stats)
    reason = "node-budget" if status == _dfs_py.NODE_BUDGET else "time-budget"
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
