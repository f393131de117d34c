"""Search engine: corpus verdicts, oracle agreement, budgets, determinism
and pinned statistics."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgraceful import search
from oddgraceful import (Graph, SearchConfig, build_theorem1, build_theorem2,
                         build_theorem3, corona_pendants, cycle_graph,
                         exhaustive_oracle, find_odd_graceful, path_graph,
                         triangular_snake, verify_odd_graceful)


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
    # large enough to run past the first 4096-expansion time check
    g = build_theorem2(2, 1)
    outcome = find_odd_graceful(g, SearchConfig(time_budget_ms=0))
    assert outcome.status == "inconclusive"
    assert outcome.reason == "time-budget"


def c4_plus_5k1():
    """C4 plus five isolated vertices: bipartite, but p = 9 > 2q = 8, so no
    labeling exists and the search must exhaust its tree."""
    return Graph([f"v{i + 1}" for i in range(9)], cycle_graph(4).edges)


# (graph, node budget, status, reason, nodes, backtracks, max_depth,
# labels by vertex id): the search's statistics are part of its contract.
# Odd cycles (C5, C7) are settled by the two-coloring before any search.
PINNED_STATS = {
    "C5": (lambda: cycle_graph(5), None, "none", None, 0, 0, 0, None),
    "C6": (lambda: cycle_graph(6), None, "found", None, 36, 30, 6,
           [0, 1, 4, 9, 2, 11]),
    "C7": (lambda: cycle_graph(7), None, "none", None, 0, 0, 0, None),
    "C4+5K1": (c4_plus_5k1, None, "none", None, 1160, 1160, 8, None),
    "t1(3,1)": (lambda: build_theorem1(3, 1), None, "found", None, 3026, 3014,
                12, [1, 0, 3, 24, 5, 12, 22, 25, 16, 7, 20, 23]),
    "t3(1,1)": (lambda: build_theorem3(1, 1), None, "found", None, 14886,
                14874, 12, [0, 14, 1, 6, 3, 21, 23, 5, 22, 19, 20, 2]),
    "t2(2,1)@2000": (lambda: build_theorem2(2, 1), 2000, "inconclusive",
                     "node-budget", 2000, 1990, 15, None),
    "C12@1000": (lambda: cycle_graph(12), 1000, "inconclusive", "node-budget",
                 1000, 993, 11, None),
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
    two_isolated = Graph(["v1", "v2"], [])
    assert find_odd_graceful(two_isolated).status == "none"
    assert exhaustive_oracle(two_isolated).status == "none"


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


@pytest.mark.parametrize("value", [True, False, 2.5, 10.0, "10"])
@pytest.mark.parametrize("name", ["node_budget", "time_budget_ms"])
def test_non_int_budgets_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        SearchConfig(**{name: value})


def test_zero_time_budget_lets_a_short_search_finish():
    # the clock is read every 4096 placements, so three placements finish
    outcome = find_odd_graceful(path_graph(3), SearchConfig(time_budget_ms=0))
    assert outcome.status == "found"
    assert verify_odd_graceful(path_graph(3), outcome.labeling).ok


def test_odd_cycle_certified_before_any_search():
    # without the certificate the search spends its 10 nodes and stops
    # inconclusive
    outcome = find_odd_graceful(triangular_snake(40),
                                SearchConfig(node_budget=10))
    assert (outcome.status, outcome.reason) == ("none", None)
    assert (outcome.stats.nodes_expanded, outcome.stats.backtracks,
            outcome.stats.max_depth) == (0, 0, 0)


def test_deep_search_memory_is_linear():
    # t1(1000,10): p = 22,000, q = 22,998.  6,000 nodes place 6,000
    # positions without a backtrack.  A kernel holding one 2q-bit mask per
    # placed position would hold 6,000 * 46,000 bits, about 34 MB, here.
    g = build_theorem1(1000, 10)
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
# neighbor.  On bipartite graphs the bitset kernel must place the same
# values in the same order, so every statistic agrees.


def _reference_dfs(p, q, first_cap, earlier, node_budget):
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
            last[pos] = -1
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


def assert_matches_reference(g, node_budget):
    order, connected = search._bfs_order(g)
    status, reason, by_pos, nodes, backtracks, depth = _reference_dfs(
        g.p, g.q, g.q - 1 if connected else 2 * g.q - 1,
        search._earlier_neighbors(g, order),
        -1 if node_budget is None else node_budget)
    labeling = None
    if by_pos is not None:
        labeling = [None] * g.p
        for v, x in zip(order, by_pos):
            labeling[v] = x
    outcome = find_odd_graceful(g, SearchConfig(node_budget=node_budget))
    assert (outcome.status, outcome.reason, outcome.labeling) == (
        status, reason, labeling)
    assert (outcome.stats.nodes_expanded, outcome.stats.backtracks,
            outcome.stats.max_depth) == (nodes, backtracks, depth)


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


# the five capped search-audit instances, then two whose candidate masks
# span several machine words (q = 48 and q = 162)
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
