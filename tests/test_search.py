"""Search engine: corpus verdicts, oracle agreement, budgets, determinism
and pinned statistics."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# (graph, node budget, status, reason, nodes, backtracks, max_depth,
# labels by vertex id): the search's statistics are part of its contract.
PINNED_STATS = {
    "C5": (lambda: cycle_graph(5), None, "none", None, 322, 322, 4, None),
    "C6": (lambda: cycle_graph(6), None, "found", None, 36, 30, 6,
           [0, 1, 4, 9, 2, 11]),
    "C7": (lambda: cycle_graph(7), None, "none", None, 9136, 9136, 6, None),
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
    stats = find_odd_graceful(cycle_graph(5)).stats
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

