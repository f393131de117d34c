"""Complete backtracking search for odd-graceful labelings.

The search walks the graph once, breadth first from a maximum-degree
vertex: the walk 2-colors the graph, which settles any graph with an odd
cycle, and fixes the order in which labels are placed, so every vertex after
a component's root has an already-placed neighbor and edge constraints prune
immediately.  A placement after which the largest missing edge label can no
longer be made is undone at once, and vertices with the same neighbors take
ascending values.  It is an independent oracle: it never consults the
closed-form labelers.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from time import perf_counter
from typing import NamedTuple, Optional

from .canon import canonical_dumps
from .graphs import Graph, _is_int, _walk
from .labeling import Labeling, max_label, verify_odd_graceful


def engine_name() -> str:
    """Name of the search engine, recorded with benchmark results."""
    return "pure-python"


class SearchConfig(namedtuple("SearchConfig", "node_budget time_budget_ms",
                              defaults=(None, None))):
    """Budgets for find_odd_graceful: None means unlimited, anything but
    None or an int >= 0 is rejected.  Both are checked just before a
    placement, on a clock that starts at the call: the node budget before
    every placement, the time budget before every 256th, the first
    included, so a budget of 0 of either kind stops before the first
    placement."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        self = super().__new__(cls, *fields, **named)
        for name in ("node_budget", "time_budget_ms"):
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < 0):
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that _replace checks its fields too


class SearchStats(NamedTuple):
    nodes_expanded: int
    backtracks: int
    elapsed_ms: int
    max_depth: int


class SearchOutcome(NamedTuple):
    """Result of a search: found / none / inconclusive plus statistics.

    status "none" is emitted only when the search tree was fully explored;
    "inconclusive" carries the exhausted budget as its reason.
    """

    status: str  # "found" | "none" | "inconclusive"
    stats: SearchStats
    reason: Optional[str] = None  # "node-budget" | "time-budget"
    labeling: Optional[Labeling] = None

    def to_json(self) -> str:
        return canonical_dumps({
            "outcome": self.status,
            "reason": self.reason,
            "labels": self.labeling,
            "stats": {
                "nodes": self.stats.nodes_expanded,
                "backtracks": self.stats.backtracks,
                "elapsed_ms": self.stats.elapsed_ms,
                "max_depth": self.stats.max_depth,
            },
        })


def _placement_tables(g: Graph, order):
    """Per placement position, from one pass over the walk order: earlier,
    the positions of its neighbors placed before it (in any order, which
    the search does not depend on); closes, the positions whose last
    neighbor in walk order is it (itself when no later position is
    adjacent), whose labels can start no new edge once it is placed; twin,
    the latest earlier position with the same neighbors, or -1."""
    adj = g.adjacency()
    pos_of = [0] * len(order)
    for d, v in enumerate(order):
        pos_of[v] = d
    earlier, twin = [], []
    closes = [[] for _ in order]
    latest = {}
    for d, v in enumerate(order):
        at = [pos_of[nb] for nb in adj[v]]
        earlier.append(tuple(k for k in at if k < d))
        closes[max([d, *at])].append(d)
        twin.append(latest.get(adj[v], -1))
        latest[adj[v]] = d
    return earlier, closes, twin


def find_odd_graceful(g: Graph, cfg: SearchConfig = SearchConfig()
                      ) -> SearchOutcome:
    """Find an odd-graceful labeling of g or certify that none exists.

    One BFS walk, rooted at a maximum-degree vertex (smallest id on ties)
    and restarted per component, both 2-colors g and fixes the placement
    order, so every vertex after a component's root has an already-placed
    neighbor and edge constraints prune at once.  A graph with an odd cycle
    is "none" with zero statistics, in O(p + q): every edge label is odd,
    so labels alternate parity along each edge and an odd-graceful graph is
    bipartite.

    Otherwise a complete depth-first search over [0, max_label(q)] places
    labels in walk order ("positions"), with the tables earlier, closes and
    twin that _placement_tables builds in one pass over the walk.  Used
    vertex labels live in the bitset used_v, used edge labels d in used_e
    (bit d) and in its mirror used_r (bit top-d, where top = max_label(q)).
    Each visit of a position computes its candidates as one bitset: a placed
    neighbor labeled y rules out y + d (used_e << y) and y - d
    (used_r >> (top-y)) for every used d.  The graph is bipartite and placed
    in walk order, so all placed neighbors of a position share one parity:
    every value of the first one's parity is ruled out, since edge labels
    are odd, and each pair of them rules out the midpoint of their labels,
    where the two new edges would share a label.  The first placed vertex of a
    connected graph is capped at max_label(q) // 2 (the complement transform
    maps any solution to one satisfying the cap, so no verdict is lost).
    The lowest candidate above the last value tried is placed, so values are
    tried in ascending order.  With none left, the placement at pos - 1 is
    undone.  One block flips the bits of a placement and of its undo: the
    used bits a placement sets were clear (the masks keep each new edge
    label odd and distinct) and the avail bits it clears were set.

    Each visit first checks the cut.  Let L be the largest odd label in
    [1, top] that no placed edge has, and avail the bitset of values that
    are unused or held by a placed position with an unplaced neighbor (the
    labels of closes[pos] leave it once pos is placed).  If no x has both x
    and x + L in avail, the position gets no candidate.  This is sound: in
    any completion L is the label of an edge with an unplaced end, and both
    its ends take values in avail.  So the cut removes only subtrees without
    a solution, the search meets its first solution in the same order and
    returns the same verdict and labeling as without the cut, in no more
    nodes.  A visit after an undo re-checks a state that passed before.

    Twins, vertices with the same neighbors, can swap labels in any
    labeling.  So the first labeling in placement order gives them
    ascending values (swapping a descending pair would make it earlier),
    and a position starts its values above the label of its latest earlier
    twin, twin[pos].  This too keeps the first solution, and the verdict,
    while fewer candidates are tried.  Masks are recomputed on every visit
    and the cut keeps one more mask, so only O(p + q) words are held at any
    depth.

    Both budgets are checked together, just before a placement, on a clock
    that starts at the call: the node budget before every placement, the
    deadline before every 256th (the first included), which at the
    pure-Python kernel's speed stops a timed search within about a
    millisecond of its deadline.  Statistics: nodes
    counts placements, backtracks counts removals, max_depth is the deepest
    prefix of placed positions.  A cut placement counts as one node and one
    backtrack, so backtracks equals nodes when the tree is exhausted.  Every
    found labeling is re-verified before return.
    """
    if g.p == 0:
        raise ValueError("cannot search the empty graph")
    # through SearchConfig's checks, so a plain pair is checked too
    node_budget, time_budget_ms = SearchConfig._make(cfg)
    t0 = perf_counter()
    adj = g.adjacency()
    walk = _walk(g, sorted(range(g.p), key=lambda v: -len(adj[v])))
    if walk is None:
        return SearchOutcome(
            "none", SearchStats(0, 0, int((perf_counter() - t0) * 1000), 0))
    order, _, components = walk
    earlier, closes, twin = _placement_tables(g, order)
    p = g.p
    top = max_label(g.q)
    full = (1 << (top + 1)) - 1
    first = (1 << ((top // 2 if components == 1 else top) + 1)) - 1
    evens = full // 3          # bits 0, 2, 4, ... (none when q = 0)
    odds = evens << 1          # the edge labels 1, 3, ..., top
    same_parity = (evens, odds)
    labels = [0] * p
    last = [-1] * p            # last candidate value tried per position
    used_v = used_e = used_r = 0
    avail = full               # values an unplaced edge end may still take
    nodes = backtracks = max_depth = 0
    pos = 0

    while True:
        # the cut: the largest missing edge label needs two values of avail
        # that far apart; where none are, pos gets no candidate
        missing = odds ^ used_e
        cand = 0
        if not missing or avail & avail >> (missing.bit_length() - 1):
            nbrs = earlier[pos]
            forbid = used_v
            if nbrs:
                forbid |= same_parity[labels[nbrs[0]] & 1]
            for i, j in enumerate(nbrs):
                y = labels[j]
                forbid |= used_e << y | used_r >> (top - y)
                for k in nbrs[i + 1:]:
                    forbid |= 1 << ((y + labels[k]) >> 1)
            start = last[pos] + 1
            cand = ((first if pos == 0 else full) & ~forbid) >> start

        if cand:
            if node_budget is not None and nodes >= node_budget:
                status, reason = "inconclusive", "node-budget"
                break
            # elapsed ms against the int budget: no budget overflows a float
            if (time_budget_ms is not None and not nodes & 255
                    and (perf_counter() - t0) * 1000 > time_budget_ms):
                status, reason = "inconclusive", "time-budget"
                break
            x = start + (cand & -cand).bit_length() - 1
            labels[pos] = last[pos] = x
            nodes += 1
        else:
            # no candidate left at pos: undo the previous placement
            pos -= 1
            if pos < 0:
                status, reason = "none", None
                break
            x = labels[pos]
            nbrs = earlier[pos]
            backtracks += 1

        # placing x at pos and undoing it flip the same bits: a placement
        # sets used bits that were clear and clears the avail bits of the
        # labels it closes
        used_v ^= 1 << x
        for j in nbrs:
            d = x - labels[j]
            if d < 0:
                d = -d
            used_e ^= 1 << d
            used_r ^= 1 << (top - d)
        for j in closes[pos]:
            avail ^= 1 << labels[j]

        if cand:
            pos += 1
            if pos > max_depth:
                max_depth = pos
            if pos == p:
                status, reason = "found", None
                break
            # values up to the label of an earlier twin count as tried
            t = twin[pos]
            last[pos] = -1 if t < 0 else labels[t]

    stats = SearchStats(nodes, backtracks,
                        int((perf_counter() - t0) * 1000), max_depth)
    labeling = None
    if status == "found":
        labeling = [None] * p
        for v, x in zip(order, labels):
            labeling[v] = x
        _assert_sound(g, labeling)
    return SearchOutcome(status, stats, reason, labeling)


def _assert_sound(g: Graph, labeling: Labeling) -> None:
    report = verify_odd_graceful(g, labeling)
    if not report.ok:
        raise AssertionError(
            f"search produced an invalid labeling: {report.violations[:3]}")


def exhaustive_oracle(g: Graph) -> SearchOutcome:
    """Brute-force cross-check: try every injection of vertices into
    [0, max_label(q)] with no pruning at all, testing each against the
    odd-graceful definition.  Guarded to q <= 6; the point is independence
    from the engine, not speed."""
    if g.p == 0:
        raise ValueError("cannot search the empty graph")
    if g.q > 6:
        raise ValueError("exhaustive_oracle is guarded to q <= 6")
    t0 = perf_counter()
    pool = range(max_label(g.q) + 1)
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
