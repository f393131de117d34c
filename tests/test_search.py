"""Search engine: corpus verdicts, oracle agreement, budgets, determinism
and pinned statistics."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import (corona_pendants, degree, ladder, path_graph,
                           triangular_snake)
from oddgraceful import graphs
from oddgraceful import (Graph, SearchConfig, build_theorem1, build_theorem2,
                         build_theorem3, cycle_graph, exhaustive_oracle,
                         find_odd_graceful, verify_odd_graceful)


def corpus():
    return {
        "P2": path_graph(2),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "C3": cycle_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "snake1": triangular_snake(1),
        "K13": corona_pendants(path_graph(1), 3),
    }


# C6 carries the odd-graceful labeling (0,1,4,9,2,11) around the cycle, so
# it is found; odd cycles are not bipartite and certify none.
VERDICTS = {"P2": "found", "P3": "found", "P4": "found", "C3": "none",
            "C4": "found", "C5": "none", "C6": "found", "snake1": "none",
            "K13": "found"}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_corpus_verdicts(name):
    assert find_odd_graceful(corpus()[name]).status == VERDICTS[name]


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_oracle_agrees_with_engine(name):
    g = corpus()[name]
    assert exhaustive_oracle(g).status == find_odd_graceful(g).status


def test_oracle_p2_first_labeling():
    outcome = exhaustive_oracle(path_graph(2))
    assert outcome.status == "found" and outcome.labeling == [0, 1]


def test_oracle_guard_rejects_large():
    with pytest.raises(ValueError):
        exhaustive_oracle(path_graph(8))  # q = 7


def test_found_labelings_pass_verifier():
    for name, g in corpus().items():
        outcome = find_odd_graceful(g)
        if outcome.status == "found":
            assert verify_odd_graceful(g, outcome.labeling).ok, name


def test_complement_symmetry_first_label_capped():
    # BFS roots at the smallest max-degree id, so vertex 0 is placed first
    outcome = find_odd_graceful(cycle_graph(4))
    assert outcome.labeling[0] <= cycle_graph(4).q - 1


def test_non_bipartite_always_none():
    for g in (cycle_graph(3), cycle_graph(7), triangular_snake(3)):
        assert find_odd_graceful(g).status == "none"


def test_determinism_including_stats():
    for g in (cycle_graph(6), build_theorem1(2, 1), path_graph(4)):
        a = find_odd_graceful(g)
        b = find_odd_graceful(g)
        assert a.status == b.status and a.labeling == b.labeling
        assert (a.stats.nodes_expanded, a.stats.backtracks,
                a.stats.max_depth) == (b.stats.nodes_expanded,
                                       b.stats.backtracks, b.stats.max_depth)


def test_node_budget_inconclusive():
    g = build_theorem1(3, 1)
    outcome = find_odd_graceful(g, SearchConfig(node_budget=10))
    assert outcome.status == "inconclusive"
    assert outcome.reason == "node-budget"
    assert outcome.stats.nodes_expanded == 10
    assert outcome.labeling is None


def test_node_budget_zero():
    outcome = find_odd_graceful(path_graph(3), SearchConfig(node_budget=0))
    assert outcome.status == "inconclusive"
    assert outcome.stats.nodes_expanded == 0


def test_node_budget_large_enough_finds():
    g = build_theorem1(2, 1)
    outcome = find_odd_graceful(g, SearchConfig(node_budget=10 ** 6))
    assert outcome.status == "found"
    assert outcome.stats.nodes_expanded <= 10 ** 6
    assert verify_odd_graceful(g, outcome.labeling).ok


def test_time_budget_inconclusive():
    g = build_theorem2(2, 1)
    outcome = find_odd_graceful(g, SearchConfig(time_budget_ms=0))
    assert outcome.status == "inconclusive"
    assert outcome.reason == "time-budget"
    assert outcome.stats.nodes_expanded % 256 == 0


def c4_plus_5k1():
    """C4 plus five isolated vertices: bipartite, but p = 9 > 2q = 8, so no
    labeling exists and the search must exhaust its tree."""
    return Graph([f"v{i + 1}" for i in range(9)], cycle_graph(4).edges)


def two_k1():
    """Two isolated vertices: q = 0, so both would need the label 0."""
    return Graph(["v1", "v2"], [])


# (graph, node budget, status, reason, nodes, backtracks, max_depth,
# labels by vertex id): the search's statistics are part of its contract.
# Odd cycles (C5, C7) are settled by the two-coloring before any search;
# edgeless graphs run through the kernel over the single label 0.
PINNED_STATS = {
    "K1": (lambda: path_graph(1), None, "found", None, 1, 0, 1, [0]),
    "K1@0": (lambda: path_graph(1), 0, "inconclusive", "node-budget",
             0, 0, 0, None),
    "2K1": (two_k1, None, "none", None, 1, 1, 1, None),
    "2K1@0": (two_k1, 0, "inconclusive", "node-budget", 0, 0, 0, None),
    "C5": (lambda: cycle_graph(5), None, "none", None, 0, 0, 0, None),
    "C6": (lambda: cycle_graph(6), None, "found", None, 10, 4, 6,
           [0, 1, 4, 9, 2, 11]),
    "C7": (lambda: cycle_graph(7), None, "none", None, 0, 0, 0, None),
    "C4+5K1": (c4_plus_5k1, None, "none", None, 144, 144, 8, None),
    "t1(3,1)": (lambda: build_theorem1(3, 1), None, "found", None, 383, 371,
                12, [1, 0, 3, 24, 5, 12, 22, 25, 16, 7, 20, 23]),
    "t3(1,1)": (lambda: build_theorem3(1, 1), None, "found", None, 70, 58,
                12, [0, 14, 1, 6, 3, 21, 23, 5, 22, 19, 20, 2]),
    "t2(2,1)": (lambda: build_theorem2(2, 1), None, "found", None, 196, 180,
                16, [0, 1, 6, 10, 29, 2, 3, 23, 31, 30, 19, 21, 4, 25, 12, 8]),
    "C12": (lambda: cycle_graph(12), None, "found", None, 226, 214, 12,
            [0, 1, 4, 9, 20, 7, 22, 3, 10, 19, 2, 23]),
    "t2(2,2)": (lambda: build_theorem2(2, 2), None, "found", None, 9809,
                9785, 24, [0, 1, 8, 14, 45, 2, 3, 35, 5, 47, 10, 46, 29, 43,
                           31, 33, 4, 20, 39, 41, 16, 18, 6, 12]),
    "t3(2,1)@2000": (lambda: build_theorem3(2, 1), 2000, "inconclusive",
                     "node-budget", 2000, 1985, 16, None),
    "C12@100": (lambda: cycle_graph(12), 100, "inconclusive", "node-budget",
                100, 90, 11, None),
}


@pytest.mark.parametrize("name", list(PINNED_STATS))
def test_search_statistics_pinned(name):
    make, budget, status, reason, nodes, backtracks, depth, labels = \
        PINNED_STATS[name]
    g = make()
    outcome = find_odd_graceful(g, SearchConfig(node_budget=budget))
    assert (outcome.status, outcome.reason) == (status, reason)
    assert (outcome.stats.nodes_expanded, outcome.stats.backtracks,
            outcome.stats.max_depth) == (nodes, backtracks, depth)
    if labels is None:
        assert outcome.labeling is None
    else:
        assert [outcome.labeling[v] for v in range(g.p)] == labels


def test_backtracks_bounded_by_nodes():
    for g in corpus().values():
        stats = find_odd_graceful(g).stats
        assert stats.backtracks <= stats.nodes_expanded


def test_exhaustion_backtracks_equal_nodes():
    stats = find_odd_graceful(c4_plus_5k1()).stats
    assert stats.nodes_expanded > 0
    assert stats.backtracks == stats.nodes_expanded


def test_disconnected_graph_searched():
    g = Graph(["v1", "v2", "v3", "v4"], [(0, 1), (2, 3)])
    outcome = find_odd_graceful(g)
    assert outcome.status == "found"
    assert verify_odd_graceful(g, outcome.labeling).ok


def test_single_vertex_and_empty():
    outcome = find_odd_graceful(path_graph(1))
    assert outcome.status == "found" and outcome.labeling == [0]
    assert exhaustive_oracle(path_graph(1)).status == "found"
    with pytest.raises(ValueError):
        find_odd_graceful(Graph([], []))
    with pytest.raises(ValueError):
        exhaustive_oracle(Graph([], []))
    assert find_odd_graceful(two_k1()).status == "none"
    assert exhaustive_oracle(two_k1()).status == "none"


def test_many_components_placed_in_linear_time():
    # one edge plus 20,000 isolated vertices: choosing each component's root
    # by rescanning every vertex is quadratic, about a minute at this size
    g = Graph([f"v{i + 1}" for i in range(20_002)], [(0, 1)])
    t0 = time.perf_counter()
    outcome = find_odd_graceful(g)
    assert outcome.status == "none"
    assert time.perf_counter() - t0 < 10.0


def test_negative_budgets_rejected():
    with pytest.raises(ValueError):
        SearchConfig(node_budget=-5)
    with pytest.raises(ValueError):
        SearchConfig(time_budget_ms=-1)
    with pytest.raises(ValueError, match="time_budget_ms"):
        SearchConfig(None, -1)  # positional fields are checked too


@pytest.mark.parametrize("value", [True, False, 2.5, 10.0, "10"])
@pytest.mark.parametrize("name", ["node_budget", "time_budget_ms"])
def test_non_int_budgets_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        SearchConfig(**{name: value})
    with pytest.raises(ValueError, match=name):
        SearchConfig()._replace(**{name: value})


def test_zero_time_budget_stops_before_the_first_placement():
    # the deadline is read before the first placement, as the node budget is
    outcome = find_odd_graceful(path_graph(3), SearchConfig(time_budget_ms=0))
    assert (outcome.status, outcome.reason) == ("inconclusive", "time-budget")
    assert outcome.stats.nodes_expanded == 0
    assert outcome.labeling is None


def test_huge_time_budget_is_no_limit():
    # elapsed milliseconds are compared with the int budget, which no
    # float conversion overflows
    g = cycle_graph(6)
    outcome = find_odd_graceful(g, SearchConfig(time_budget_ms=10 ** 400))
    unlimited = find_odd_graceful(g)
    assert (outcome.status, outcome.reason) == ("found", None)
    assert outcome.labeling == unlimited.labeling
    assert outcome.stats.nodes_expanded == unlimited.stats.nodes_expanded


def test_odd_cycle_certified_before_any_search():
    # without the certificate the search spends its 10 nodes and stops
    # inconclusive
    outcome = find_odd_graceful(triangular_snake(40),
                                SearchConfig(node_budget=10))
    assert (outcome.status, outcome.reason) == ("none", None)
    assert (outcome.stats.nodes_expanded, outcome.stats.backtracks,
            outcome.stats.max_depth) == (0, 0, 0)


def test_deep_search_memory_is_linear():
    # the star K(1,22000): p = 22,001, q = 22,000.  The cut never fires,
    # since the center keeps 0 open and 2q-1 stays free, so 6,000 nodes
    # place 6,000 positions without a backtrack.  A kernel holding one 2q-bit
    # mask per placed position would hold 6,000 * 44,000 bits, about 33 MB,
    # here.
    g = corona_pendants(path_graph(1), 22_000)
    g.adjacency()
    tracemalloc.start()
    try:
        outcome = find_odd_graceful(g, SearchConfig(node_budget=6000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.status == "inconclusive"
    assert outcome.stats.max_depth == 6000
    assert peak < 8 * 10 ** 6


def test_outcome_json_shape():
    import json

    outcome = find_odd_graceful(path_graph(3))
    obj = json.loads(outcome.to_json())
    assert obj["outcome"] == "found" and obj["reason"] is None
    assert len(obj["labels"]) == 3
    assert set(obj["stats"]) == {"nodes", "backtracks", "elapsed_ms",
                                 "max_depth"}


@st.composite
def searchable_graphs(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)
                 if pairs else st.just([]))
    return Graph([f"v{i + 1}" for i in range(p)], edges)


@given(searchable_graphs())
@settings(max_examples=60, deadline=None)
def test_engine_agrees_with_oracle_on_random_graphs(g):
    engine = find_odd_graceful(g)
    oracle = exhaustive_oracle(g)
    assert engine.status == oracle.status
    if engine.status == "found":
        assert verify_odd_graceful(g, engine.labeling).ok
        if g.q:
            # edge label 2q-1 forces both ends of the label range
            assert {0, 2 * g.q - 1} <= set(engine.labeling)


# -- reference equivalence ---------------------------------------------------
#
# _reference_dfs is the scan kernel the bitset kernel replaced: it tries
# every value of the forced parity in ascending order and checks each placed
# neighbor.  It takes its placement order from graphs._walk, as the kernel
# does, but computes the earlier neighbors of each position itself, from the
# edge list (_earlier_positions), so a fault in the kernel's tables shows.
# Without cut it is the cut-less oracle.  With cut=True it also
# applies the kernel's two prunings: the cut after each placement,
# recomputed from scratch by _largest_missing_label_fits, and the twin
# order, each position starting above the label of the latest earlier
# position with the same neighbor set (_previous_twins); on bipartite graphs
# the bitset kernel must then place the same values in the same order, so
# every statistic agrees.


def _largest_missing_label_fits(labels, placed, earlier, used_v, used_e,
                                max_label):
    """Whether the largest odd edge label no placed edge has yet is the
    difference of two values that are unused or held by a placed position
    with an unplaced neighbor (True when every edge label is used)."""
    missing = [d for d in range(1, max_label + 1, 2) if not used_e >> d & 1]
    if not missing:
        return True
    avail = {x for x in range(max_label + 1) if not used_v >> x & 1}
    avail |= {labels[j] for k in range(placed, len(earlier))
              for j in earlier[k] if j < placed}
    return any(x + missing[-1] in avail for x in avail)


def _earlier_positions(g, order):
    pos_of = {v: d for d, v in enumerate(order)}
    earlier = [set() for _ in range(g.p)]
    for a, b in g.edges:
        lo, hi = sorted((pos_of[a], pos_of[b]))
        earlier[hi].add(lo)
    return [sorted(e) for e in earlier]


def _previous_twins(g, order):
    nbrs = [set() for _ in range(g.p)]
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [max((e for e in range(d) if nbrs[order[e]] == nbrs[order[d]]),
                default=-1) for d in range(g.p)]


def _reference_dfs(p, q, first_cap, earlier, node_budget, cut=False,
                   twins=None):
    max_label = 2 * q - 1
    labels = [0] * p
    last = [-1] * p
    used_v = 0
    used_e = 0
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
                        return ("inconclusive", "node-budget", None, nodes,
                                backtracks, max_depth)
                    labels[pos] = x
                    last[pos] = x
                    used_v |= bit
                    used_e |= new_bits
                    nodes += 1
                    if pos + 1 > max_depth:
                        max_depth = pos + 1
                    placed = True
                    break
            x += step

        if placed:
            pos += 1
            if pos == p:
                return ("found", None, list(labels), nodes, backtracks,
                        max_depth)
            if not cut or _largest_missing_label_fits(
                    labels, pos, earlier, used_v, used_e, max_label):
                last[pos] = -1
                if cut and twins[pos] >= 0:
                    last[pos] = labels[twins[pos]]
                continue

        pos -= 1
        if pos < 0:
            return ("none", None, None, nodes, backtracks, max_depth)
        x = labels[pos]
        used_v &= ~(1 << x)
        for j in earlier[pos]:
            d = x - labels[j]
            if d < 0:
                d = -d
            used_e &= ~(1 << d)
        backtracks += 1


def run_reference(g, node_budget, cut):
    """_reference_dfs on g in the kernel's placement order (BFS from a
    maximum-degree vertex, smallest id first), with the labeling mapped back
    to vertex ids."""
    order, _, components = graphs._walk(
        g, sorted(range(g.p), key=lambda v: (-degree(g, v), v)))
    status, reason, by_pos, nodes, backtracks, depth = _reference_dfs(
        g.p, g.q, g.q - 1 if components == 1 else 2 * g.q - 1,
        _earlier_positions(g, order),
        -1 if node_budget is None else node_budget, cut,
        _previous_twins(g, order))
    labeling = None
    if by_pos is not None:
        labeling = [None] * g.p
        for v, x in zip(order, by_pos):
            labeling[v] = x
    return status, reason, labeling, nodes, backtracks, depth


def assert_matches_reference(g, node_budget):
    status, reason, labeling, nodes, backtracks, depth = run_reference(
        g, node_budget, cut=True)
    outcome = find_odd_graceful(g, SearchConfig(node_budget=node_budget))
    assert (outcome.status, outcome.reason, outcome.labeling) == (
        status, reason, labeling)
    assert (outcome.stats.nodes_expanded, outcome.stats.backtracks,
            outcome.stats.max_depth) == (nodes, backtracks, depth)


def assert_cut_loses_nothing(g):
    # the cut removes only subtrees without a solution and the twin order
    # only labelings after the first, so wherever the cut-less scan decides,
    # the kernel decides alike in no more nodes
    status, _, labeling, nodes, _, _ = run_reference(g, 10 ** 5, cut=False)
    if status == "inconclusive":
        return
    outcome = find_odd_graceful(g, SearchConfig(node_budget=nodes))
    assert (outcome.status, outcome.labeling) == (status, labeling)
    assert outcome.stats.nodes_expanded <= nodes


@st.composite
def bipartite_graphs(draw):
    p = draw(st.integers(min_value=2, max_value=12))
    side = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=p - 2,
                                  max_size=p - 2))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)
             if side[a] != side[b]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                          max_size=12))
    return Graph([f"v{i + 1}" for i in range(p)], edges)


@given(bipartite_graphs(), st.sampled_from([0, 1, 50, None]))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_on_random_bipartite_graphs(g, budget):
    assert_matches_reference(g, budget)


@given(bipartite_graphs())
@settings(max_examples=150, deadline=None)
def test_cut_loses_nothing_on_random_bipartite_graphs(g):
    assert_cut_loses_nothing(g)


# the five closed-form failures of search-audit, then two whose candidate
# masks span several machine words (q = 48 and q = 162)
REFERENCE_CASES = {
    "t1(5,1)": (lambda: build_theorem1(5, 1), 10 ** 4),
    "t1(6,1)": (lambda: build_theorem1(6, 1), 10 ** 4),
    "t2(2,1)": (lambda: build_theorem2(2, 1), 10 ** 4),
    "t2(2,2)": (lambda: build_theorem2(2, 2), 10 ** 4),
    "t3(2,1)": (lambda: build_theorem3(2, 1), 10 ** 4),
    "t1(10,1)": (lambda: build_theorem1(10, 1), 5 * 10 ** 4),
    "t3(10,2)": (lambda: build_theorem3(10, 2), 5 * 10 ** 4),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_kernel_matches_reference_on_fixed_cases(name):
    make, budget = REFERENCE_CASES[name]
    assert_matches_reference(make(), budget)


# graphs the cut-less scan decides within 10^5 nodes, C4+5K1 by exhaustion
CUTLESS_CASES = {
    "C8": lambda: cycle_graph(8),
    "C10": lambda: cycle_graph(10),
    "ladder(4)": lambda: ladder(4),
    "ladder(5)": lambda: ladder(5),
    "P8": lambda: path_graph(8),
    "t1(2,2)": lambda: build_theorem1(2, 2),
    "t1(3,1)": lambda: build_theorem1(3, 1),
    "t3(1,1)": lambda: build_theorem3(1, 1),
    "C4+5K1": c4_plus_5k1,
}


@pytest.mark.parametrize("name", list(CUTLESS_CASES))
def test_cut_loses_nothing_on_fixed_cases(name):
    assert_cut_loses_nothing(CUTLESS_CASES[name]())
