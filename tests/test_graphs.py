"""Construction, tagging, and serialization tests for the graph families."""

import hashlib
import json
import re
import tracemalloc
from collections import namedtuple
from enum import IntEnum
from itertools import islice
from operator import is_, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddgraceful
from constructions import (cartesian_product, corona_pendants, degree, ladder,
                           path_graph, subdivide, triangular_snake,
                           two_coloring)
from oddgraceful import (Family, Graph, SearchConfig, Violation,
                         build_theorem1, build_theorem2, build_theorem3,
                         cycle_graph, is_bipartite, label_theorem1,
                         label_theorem2, label_theorem3,
                         labeling_from_json_obj, labeling_to_json,
                         verify_odd_graceful)
from oddgraceful.canon import _HASH_BLOCK, canonical_dumps, sha256_hex
from oddgraceful.cli import parse_grid
from oddgraceful.graphs import (_WRITE_BLOCK, MAX_THEOREM_Q, THEOREM_FAMILIES,
                                IdOrder, theorem_order)


def test_path_graph_counts():
    assert (path_graph(1).p, path_graph(1).q) == (1, 0)
    assert (path_graph(2).p, path_graph(2).q) == (2, 1)
    assert (path_graph(5).p, path_graph(5).q) == (5, 4)


def test_path_graph_rejects_empty():
    for n in (0, 2.0, True):
        with pytest.raises(ValueError, match="n >= 1"):
            path_graph(n)


def test_path_graph_tags():
    g = path_graph(3)
    assert [str(t) for t in g.tags] == ["v1", "v2", "v3"]


def test_cartesian_product_smallest_ladder_is_4_cycle():
    g = cartesian_product(path_graph(2), path_graph(2))
    assert (g.p, g.q) == (4, 4)
    assert all(degree(g, v) == 2 for v in range(4))


@pytest.mark.parametrize("n", range(1, 9))
def test_cartesian_product_path_times_k2_counts(n):
    g = cartesian_product(path_graph(n), path_graph(2))
    assert (g.p, g.q) == (2 * n, 3 * n - 2)


def test_cartesian_product_p1_times_k2():
    g = cartesian_product(path_graph(1), path_graph(2))
    assert (g.p, g.q) == (2, 1)


def test_cartesian_product_rejects_empty():
    with pytest.raises(ValueError):
        cartesian_product(Graph([], []), path_graph(2))


def test_cycle_graph_rejects_fewer_than_3_vertices():
    for n in (2, 3.0, True):
        with pytest.raises(ValueError, match="n >= 3"):
            cycle_graph(n)


def test_corona_pendants_rejects_negative_count():
    for m in (-1, 1.0, True):
        with pytest.raises(ValueError, match=">= 0"):
            corona_pendants(path_graph(2), m)


# a constructor that derives tags must not build a graph whose file
# Graph.from_json_obj rejects for a repeated tag
@pytest.mark.parametrize("build, tag", [
    (lambda: subdivide(Graph(["a", "b", "s(a,b)"], [(0, 1)])), "s(a,b)"),
    (lambda: cartesian_product(Graph(["a", "a,b"], []),
                               Graph(["b,c", "c"], [])), "(a,b,c)"),
], ids=["subdivide", "cartesian_product"])
def test_derived_tags_must_be_unique(build, tag):
    with pytest.raises(ValueError,
                       match=re.escape(f"duplicate vertex tag {tag!r}")):
        build()


def test_ladder_counts_and_tags():
    g = ladder(2)
    assert (g.p, g.q) == (4, 4)
    assert (ladder(3).p, ladder(3).q) == (6, 7)
    assert (ladder(10).p, ladder(10).q) == (20, 28)
    assert [str(t) for t in g.tags] == ["u1", "u2", "v1", "v2"]
    idx = {t: v for v, t in enumerate(g.tags)}
    assert (idx["u1"], idx["u2"]) in g.edges or (idx["u2"], idx["u1"]) in g.edges


def test_ladder_matches_cartesian_product_structure():
    for n in (2, 3, 5):
        lad = ladder(n)
        prod = cartesian_product(path_graph(n), path_graph(2))
        assert (lad.p, lad.q) == (prod.p, prod.q)
        assert sorted(degree(lad, v) for v in range(lad.p)) == \
            sorted(degree(prod, v) for v in range(prod.p))


def test_ladder_rejects_small():
    for n in (1, 2.0, True):
        with pytest.raises(ValueError, match="n >= 2"):
            ladder(n)


def test_corona_counts():
    g = corona_pendants(ladder(2), 1)
    assert (g.p, g.q) == (8, 8)


def test_corona_zero_is_identity():
    g = ladder(3)
    assert corona_pendants(g, 0) == g


def test_corona_star():
    g = corona_pendants(path_graph(1), 3)
    assert (g.p, g.q) == (4, 3)
    assert degree(g, 0) == 3
    assert all(degree(g, v) == 1 for v in range(1, 4))


def test_corona_pendant_tags_and_degrees():
    base = ladder(2)
    g = corona_pendants(base, 2)
    for v in range(base.p):
        assert degree(g, v) == degree(base, v) + 2
    assert str(g.tags[4]) == "p(u1,1)"
    assert str(g.tags[5]) == "p(u1,2)"
    for v in range(base.p, g.p):
        assert degree(g, v) == 1


def test_corona_over_pendants_does_not_nest_tags():
    g = corona_pendants(corona_pendants(path_graph(1), 1), 1)
    assert g.tags == ("v1", "p(v1,1)", "p(v1,2)", "p(p(v1,1),1)")
    # a, b and c already carry 0, 1 and 2 pendants: each new pendant is
    # numbered after its parent's last one
    base = Graph(["a", "b", "c", "p(b,1)", "p(c,1)", "p(c,2)"],
                 [(1, 3), (2, 4), (2, 5)])
    g = corona_pendants(base, 2)
    assert g.tags == base.tags + (
        "p(a,1)", "p(a,2)", "p(b,2)", "p(b,3)", "p(c,3)", "p(c,4)",
        "p(p(b,1),1)", "p(p(b,1),2)", "p(p(c,1),1)", "p(p(c,1),2)",
        "p(p(c,2),1)", "p(p(c,2),2)")
    assert g.edges == (
        (0, 6), (0, 7), (1, 3), (1, 8), (1, 9), (2, 4), (2, 5), (2, 10),
        (2, 11), (3, 12), (3, 13), (4, 14), (4, 15), (5, 16), (5, 17))


def test_subdivide_examples():
    assert (subdivide(path_graph(2)).p, subdivide(path_graph(2)).q) == (3, 2)
    g = subdivide(ladder(2))
    assert (g.p, g.q) == (8, 8)
    c6 = subdivide(triangular_snake(1))
    assert (c6.p, c6.q) == (6, 6)
    assert all(degree(c6, v) == 2 for v in range(6))
    assert is_bipartite(c6)


def test_triangular_snake_counts():
    for k, (p, q) in {1: (3, 3), 2: (5, 6), 4: (9, 12)}.items():
        g = triangular_snake(k)
        assert (g.p, g.q) == (p, q)


def test_triangular_snake_rejects_zero():
    for k in (0, 1.0, True):
        with pytest.raises(ValueError, match="k >= 1"):
            triangular_snake(k)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("m", range(1, 6))
def test_build_theorem1_counts(n, m):
    g = build_theorem1(n, m)
    assert g.p == 2 * n * (m + 1)
    assert g.q == 2 * m * n + 3 * n - 2


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("m", range(1, 6))
def test_build_theorem2_counts(n, m):
    g = build_theorem2(n, m)
    assert g.p == (5 * n - 2) * (m + 1)
    assert g.q == m * (5 * n - 2) + 2 * (3 * n - 2)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("m", range(1, 6))
def test_build_theorem3_counts(k, m):
    g = build_theorem3(k, m)
    assert g.p == (5 * k + 1) * (m + 1)
    assert g.q == (5 * m + 6) * k + m


# the paper's closed forms: theorem number -> (p, q) at size a and m
PAPER_COUNTS = {
    1: lambda n, m: (2 * n * (m + 1), 2 * m * n + 3 * n - 2),
    2: lambda n, m: ((5 * n - 2) * (m + 1), m * (5 * n - 2) + 2 * (3 * n - 2)),
    3: lambda k, m: ((5 * k + 1) * (m + 1), (5 * m + 6) * k + m),
}
# the benchmark's large-instance workload: (number, a, m)
LARGE_INSTANCES = [(1, 2000, 30), (2, 1000, 20), (3, 1000, 20)]
# sha256 of each one's to_json(), pinned by the benchmark's worker
LARGE_INSTANCE_FINGERPRINTS = {
    (1, 2000, 30):
        "6a55e75c669690dc1f495c9516fd112870df6258f7cd7aa63b17bcfff3a99e6c",
    (2, 1000, 20):
        "8c296fef6d57fdaa84e1f76e2f68207a0e3d648ee0e95c0c64703762c952ae4e",
    (3, 1000, 20):
        "308d7295fe17df2f963df6d11e3287ef3ef906eca972299216b3d0c3cc240916",
}


@pytest.mark.parametrize("number, a, m", LARGE_INSTANCES)
def test_large_instance_fingerprints(number, a, m):
    # the graph writer at q near 10^5, without running the benchmark
    build = {1: build_theorem1, 2: build_theorem2, 3: build_theorem3}[number]
    g = build(a, m)
    text = g.to_json()
    assert g.fingerprint() == hashlib.sha256(text.encode()).hexdigest()
    assert g.fingerprint() == LARGE_INSTANCE_FINGERPRINTS[number, a, m]


@pytest.fixture
def graph_writes(monkeypatch):
    """List that every graph whose canonical text is written during the test
    is appended to, once per write."""
    writes = []
    write = Graph._write_json

    def counting_write(self):
        writes.append(self)
        return write(self)

    monkeypatch.setattr(Graph, "_write_json", counting_write)
    return writes


@pytest.mark.parametrize("first", ["to_json", "fingerprint",
                                   "labeling_to_json",
                                   "labeling_from_json_obj"])
def test_each_graph_is_written_once(graph_writes, first):
    # a graph file, its fingerprint and a labeling file bound to it, read
    # back, format the graph once, whichever of them comes first
    labels, _ = label_theorem1(3, 2)
    doc = json.loads(labeling_to_json(build_theorem1(3, 2), labels))
    g = build_theorem1(3, 2)
    calls = {"to_json": g.to_json, "fingerprint": g.fingerprint,
             "labeling_to_json": lambda: labeling_to_json(g, labels),
             "labeling_from_json_obj": lambda: labeling_from_json_obj(g, doc)}
    graph_writes.clear()
    calls.pop(first)()
    for call in calls.values():
        call()
    assert graph_writes == [g]
    text = g.to_json()
    assert g.to_json() is text
    assert g.fingerprint() == hashlib.sha256(text.encode()).hexdigest()
    assert labeling_to_json(g, labels) == canonical_dumps(
        {"graph_fingerprint": g.fingerprint(), "labels": labels})
    assert labeling_from_json_obj(g, doc) == labels
    assert graph_writes == [g]
    back = Graph.from_json_obj(json.loads(text))
    assert back.to_json() == text
    assert graph_writes == [g, back]


@pytest.mark.parametrize("number, build",
                         [(1, build_theorem1), (2, build_theorem2),
                          (3, build_theorem3)])
def test_theorem_q_matches_builders(number, build):
    # the checked order counts p and q from the family table; both must be
    # the paper's counts and the built graph's
    for a in range(2, 8):
        for m in range(1, 5):
            order, g = theorem_order(number, a, m), build(a, m)
            assert (order.p, order.q) == PAPER_COUNTS[number](a, m)
            assert (order.p, order.q) == (g.p, g.q)
    for a, m in [(a, m) for n, a, m in LARGE_INSTANCES if n == number]:
        order = theorem_order(number, a, m)
        assert (order.p, order.q) == PAPER_COUNTS[number](a, m)
    assert theorem_order(1, 2000, 30).q == 125_998


def test_theorem_size_limit():
    # theorem3 at k = 90909, m = 1 has exactly q = 11k + 1 = 10^6 edges
    assert theorem_order(3, 90909, 1).q == MAX_THEOREM_Q
    # sizes whose index ranges are too long for len() are rejected too
    for number, a, m in ((3, 90910, 1), (1, 100_000_000, 1), (2, 2, 10**7),
                         (1, 2**63, 1), (2, 2**63, 1), (3, 2**63, 1),
                         (1, 2, 2**63), (3, 1, 2**63)):
        with pytest.raises(ValueError, match="limit"):
            theorem_order(number, a, m)
    with pytest.raises(ValueError, match="limit"):
        build_theorem1(100_000_000, 1)
    with pytest.raises(ValueError, match="limit"):
        build_theorem3(2**63, 1)


def _table_sizes(number):
    """Sizes least..least+7 of theorem `number`, then its LARGE_INSTANCES
    sizes."""
    least = THEOREM_FAMILIES[number].least
    return [*range(least, least + 8),
            *(a for n, a, _ in LARGE_INSTANCES if n == number)]


@pytest.mark.parametrize("number", sorted(THEOREM_FAMILIES))
def test_edge_class_ranges_have_equal_length(number):
    # _build zips the two index ranges of an edge class and IdOrder.q counts
    # one of them, so an unequal pair would drop edges without an error
    for a in _table_sizes(number):
        _, edge_classes = THEOREM_FAMILIES[number].classes(a)
        for _, xs, _, ys in edge_classes:
            assert len(xs) == len(ys), (number, a, xs, ys)


@pytest.mark.parametrize("number", sorted(THEOREM_FAMILIES))
def test_edge_classes_list_the_smaller_id_first(number):
    # the Graph constructor keeps the builder's tuples only when every edge
    # is (smaller id, larger id); a class listed the other way round would
    # copy every edge of the graph without failing any other test
    for a in _table_sizes(number):
        order = IdOrder(number, a, 1)
        for x, xs, y, ys in order.edges:
            assert all(map(lt, order.ids(x, xs), order.ids(y, ys))), (
                number, a, x, y)


def test_builders_reject_domain_violations():
    for bad in (lambda: build_theorem1(1, 1), lambda: build_theorem1(2, 0),
                lambda: build_theorem2(1, 1), lambda: build_theorem2(2, 0),
                lambda: build_theorem3(0, 1), lambda: build_theorem3(1, 0),
                lambda: build_theorem2(2, True),
                lambda: build_theorem3(True, 1),
                lambda: build_theorem1(2.0, 1),
                lambda: build_theorem1(2, 1.0)):
        with pytest.raises(ValueError):
            bad()


def test_builders_are_bipartite():
    for g in (ladder(5), build_theorem1(3, 2), build_theorem2(3, 1),
              build_theorem3(2, 1)):
        assert is_bipartite(g)
    assert not is_bipartite(triangular_snake(2))
    assert not is_bipartite(cycle_graph(5))


def test_pendant_degree_property():
    for g, skeleton_p, m in ((build_theorem1(3, 2), 6, 2),
                             (build_theorem2(2, 3), 8, 3),
                             (build_theorem3(2, 1), 11, 1)):
        for v in range(skeleton_p):
            assert not g.tags[v].startswith("p(")
        for v in range(skeleton_p, g.p):
            assert g.tags[v].startswith("p(")
            assert degree(g, v) == 1


def test_canonical_vertex_order_theorem3():
    g = build_theorem3(2, 1)
    heads = [str(t) for t in g.tags[:11]]
    assert heads == ["u1", "u2", "u3", "v1", "v2", "w1", "w2",
                     "y1", "y2", "z1", "z2"]
    tail = [str(t) for t in g.tags[11:]]
    assert tail == [f"p({h},1)" for h in heads]


def test_theorem2_rungs_at_odd_positions_only():
    g = build_theorem2(3, 1)
    idx = {t: v for v, t in enumerate(g.tags)}
    for j in (1, 2, 3):
        w = idx[f"w{j}"]
        nbrs = {str(g.tags[v]) for v in g.adjacency()[w]}
        assert nbrs == {f"u{2 * j - 1}", f"v{2 * j - 1}", f"p(w{j},1)"}


def test_theorem2_skeleton_matches_subdivided_ladder():
    import networkx as nx
    for n in (2, 3, 4):
        full = build_theorem2(n, 1)
        sub = subdivide(ladder(n))
        assert full.p == sub.p * 2  # pendants double the count at m=1
        skeleton = nx.Graph([(a, b) for a, b in full.edges
                             if a < sub.p and b < sub.p])
        skeleton.add_nodes_from(range(sub.p))
        assert nx.is_isomorphic(skeleton, nx.Graph(list(sub.edges)))


# each theorem graph is its base graph with m pendants on every vertex
CORONA_BASES = {
    "theorem1": (build_theorem1, ladder,
                 ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2))),
    "theorem2": (build_theorem2, lambda n: subdivide(ladder(n)),
                 ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2))),
    "theorem3": (build_theorem3, lambda k: subdivide(triangular_snake(k)),
                 [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]),
}


@pytest.mark.parametrize("number", CORONA_BASES)
def test_theorem_isomorphic_to_corona_of_base(number):
    import networkx as nx
    build, base, sizes = CORONA_BASES[number]
    for a, m in sizes:
        built = build(a, m)
        ref = corona_pendants(base(a), m)
        assert (built.p, built.q) == (ref.p, ref.q)
        assert sorted(degree(built, v) for v in range(built.p)) == \
            sorted(degree(ref, v) for v in range(ref.p))
        assert nx.is_isomorphic(nx.Graph(list(built.edges)),
                                nx.Graph(list(ref.edges)))


def test_theorem3_skeleton_isomorphic_to_subdivided_snake():
    import networkx as nx
    for k in (1, 2, 3):
        built = build_theorem3(k, 1)
        skeleton_p = 5 * k + 1
        skel_edges = [(a, b) for a, b in built.edges
                      if a < skeleton_p and b < skeleton_p]
        ref = subdivide(triangular_snake(k))
        assert len(skel_edges) == ref.q
        assert nx.is_isomorphic(nx.Graph(skel_edges),
                                nx.Graph(list(ref.edges)))


AUDIT_GRID = ("theorem1:n=2..100,m=1..5;theorem2:n=2..50,m=1..5;"
              "theorem3:k=1..50,m=1..5")
# sha256 over g.to_json() for every AUDIT_GRID instance in sorted order,
# taken when each builder was still a hand-written loop
AUDIT_GRID_GRAPHS_SHA256 = (
    "7a5dae4699bbccc0a2ad2e725d76c0286cc17f31fc572ed0371d53dc8583fb5c")


def test_builders_match_golden_graph_digest():
    # a built graph's tags are its IdOrder, which formats one tag for
    # tag(v) and every tag for tags and the writer; both forms are checked
    # against each other and the writer's against the digest
    builders = {1: build_theorem1, 2: build_theorem2, 3: build_theorem3}
    digest = hashlib.sha256()
    for number, a, m in sorted(set(parse_grid(AUDIT_GRID))):
        g = builders[number](a, m)
        one_by_one = tuple(map(g.tag, range(g.p)))
        assert g.tags == one_by_one
        digest.update(g.to_json().encode("utf-8"))
    assert digest.hexdigest() == AUDIT_GRID_GRAPHS_SHA256
    for n in (2, 3, 7):  # m = 0: no pendants
        g = ladder(n)
        one_by_one = tuple(map(g.tag, range(g.p)))
        assert g.tags == one_by_one == tuple(
            [f"u{i}" for i in range(1, n + 1)]
            + [f"v{i}" for i in range(1, n + 1)])


def test_tag_rejects_ids_outside_the_graph():
    # a built graph's tags are its IdOrder; a graph read from a file holds
    # them in a tuple, where -1 would index
    eager = Graph.from_json_obj(
        json.loads(build_theorem1(3, 1).to_json()))
    for g in (build_theorem1(3, 1), ladder(3), eager, path_graph(2)):
        for v in (g.p, g.p + 1, -1, -g.p):
            with pytest.raises(IndexError):
                g.tag(v)
        assert tuple(map(g.tag, range(g.p))) == g.tags
    order = IdOrder(1, 3, 1)  # p = 12
    assert order[11] == "p(v3,1)"
    assert len(order) == order.p
    assert tuple(order) == tuple(order[v] for v in range(order.p))
    for v in (12, -1):
        with pytest.raises(IndexError):
            order[v]


def _theorem_graph_with_tags_read():
    g = build_theorem1(2, 1)
    assert g.tags[5] == "p(u2,1)"
    return g


def _order_tag(g, v):
    # the tag of v read off the IdOrder that built g
    return theorem_order(1, g.family.n, g.family.m)[v]


@pytest.mark.parametrize("method", ["tag", "degree", "order"])
@pytest.mark.parametrize("make", [
    lambda: build_theorem1(2, 1), _theorem_graph_with_tags_read,
    lambda: Graph.from_json_obj(json.loads(build_theorem1(2, 1).to_json())),
], ids=["fresh", "tags-read", "loaded"])
@pytest.mark.parametrize("v", [1.0, 5.5, True, -1, "p"])
def test_vertex_id_is_an_exact_int_in_range(method, make, v):
    # a float or a bool id once read tag 'u2.0', 'p(u2.0,1.5)' or 'u2' off
    # a fresh theorem graph, and Graph.degree(-1) the degree of vertex p-1;
    # the tests' degree helper reads the same gate through g.tag, and an
    # IdOrder's order[v] holds it for every tag read off a theorem graph
    g = make()
    v = g.p if v == "p" else v
    with pytest.raises(IndexError) as exc:
        {"tag": Graph.tag, "degree": degree, "order": _order_tag}[method](g, v)
    assert str(exc.value) == f"vertex id {v} is not in 0..{g.p - 1}"


def test_construction_determinism():
    a = build_theorem3(3, 2)
    b = build_theorem3(3, 2)
    assert a.tags == b.tags and a.edges == b.edges and a.family == b.family


# (tags, edges, the message Graph must raise)
_BAD_EDGE_CASES = [
    (["v1"], [(0, 0)], "self-loop at vertex 0"),
    (["v1", "v2"], [(0, 2)], "edge (0,2) references an undeclared vertex"),
    (["v1", "v2"], [(-1, 0)], "edge (-1,0) references an undeclared vertex"),
    (["v1", "v2"], [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    # every edge an oriented tuple: the check keeps the input tuples
    (["v1", "v2"], [(0, 1), (0, 1)], "duplicate edge (0, 1)"),
    (["v1", "v2"], [(0, 5)], "edge (0,5) references an undeclared vertex"),
    (["a", "b", "c"], [(False, True), (1.0, 2)],
     "edge (False,True) has an endpoint that is not an int"),
    (["a", "b", "c"], [(0, 1), (1.0, 2)],
     "edge (1.0,2) has an endpoint that is not an int"),
    (["a", "b"], [("x", 1)], "edge ('x',1) has an endpoint that is not an int"),
    (["a", "b"], [(0, 1, 2)], "edge (0, 1, 2) is not a pair of vertex ids"),
    (["a", "b"], [(0, 1), (1,)], "edge (1,) is not a pair of vertex ids"),
    (["a", "b"], [(0, 1), 7], "edge 7 is not a pair of vertex ids"),
    (["a", "b"], [(0, 1), (0, 1.5), (0, 1, 1)],
     "edge (0,1.5) has an endpoint that is not an int"),
    (["a", "b"], [(0, 2), [0, 1, 1]],
     "edge (0,2) references an undeclared vertex"),
    # several bad edges: the message names the first one in input order
    (["a", "b", "c"], [(0, 1), (2, 5), (1, 1), (1, 0), (0, 1.5)],
     "edge (2,5) references an undeclared vertex"),
    (["a", "b", "c"], [(2, 1), (1, 2), (0, 0), (0, 3)],
     "duplicate edge (1, 2)"),
    (["a", "b", "c"], [(0, 1), (2, 2), (1, 0), (True, 2)],
     "self-loop at vertex 2"),
    (["a", "b", "c"], [(0, 2), (0, 2.0), (9, 9)],
     "edge (0,2.0) has an endpoint that is not an int"),
    # the first repeat in input order, not the first in sorted order
    (["a", "b", "c"], [(1, 2), (0, 1), (2, 1), (1, 0)],
     "duplicate edge (1, 2)"),
    # a repeat before a bad edge is named first
    (["a", "b"], [(0, 1), (1, 0), 7], "duplicate edge (0, 1)"),
    (["a", "b"], [(0, 1), (1, 0), (0, 1.5)], "duplicate edge (0, 1)"),
]


def test_graph_validation():
    for tags, edges, message in _BAD_EDGE_CASES:
        with pytest.raises(ValueError) as exc:
            Graph(tags, edges)
        assert str(exc.value) == message


def test_graph_keeps_oriented_edge_tuples():
    # exact tuples with the smaller id first are kept as given, sorted
    edges = [(1, 2), (0, 2), (0, 1)]
    g = Graph(["a", "b", "c"], edges)
    assert all(map(is_, g.edges, sorted(edges)))
    # anything else is rebuilt as fresh plain tuples: lists
    edges = [[0, 1], [1, 2]]
    g = Graph(["a", "b", "c"], edges)
    assert g.edges == ((0, 1), (1, 2))
    assert {type(e) for e in g.edges} == {tuple}
    assert not any(e is f for e in g.edges for f in edges)
    # edge by edge: beside a reversed pair or a tuple subclass, which are
    # rebuilt, an oriented tuple is still kept
    edge = namedtuple("Edge", "a b")
    for edges in ([(0, 1), (2, 1)], [(0, 1), edge(1, 2)]):
        g = Graph(["a", "b", "c"], edges)
        assert g.edges == ((0, 1), (1, 2))
        assert g.edges[0] is edges[0]
        assert type(g.edges[1]) is tuple and g.edges[1] is not edges[1]


def test_theorem_graph_memory_per_edge():
    # t1(500,30): q = 31,498.  The built graph keeps the builder's edge
    # tuples and finds duplicates without a set of every edge, and writing
    # its text keeps the text but not the formatted tags.  A second copy of
    # the edges while building, or the tags kept after the write, each add
    # over 60 bytes per edge.  The writer formats its arrays in blocks, so
    # its temporaries above the built graph are the pieces and the joined
    # text (about 2 x 43 bytes per edge); one % over a whole array held
    # about 170.  The fingerprint hashes the kept text in blocks, where
    # encoding it whole held a second copy (about 42 bytes per edge).
    build_theorem1(3, 2).fingerprint()  # first-use allocations stay outside
    tracemalloc.start()
    try:
        g = build_theorem1(500, 30)
        built, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g.to_json()
        held, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g.fingerprint()
        hash_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < 150 * g.q
    assert held < 170 * g.q
    assert write_peak - built < 120 * g.q
    assert hash_peak - held < 10 * g.q


@pytest.mark.parametrize("family", [{"kind": "x"}, ("ladder", 2), "ladder",
                                    0])
def test_graph_rejects_a_family_that_is_not_a_Family(family):
    # otherwise to_json raises AttributeError, or writes "family":null for
    # a falsy one, so the file does not read back equal
    with pytest.raises(ValueError) as exc:
        Graph(["a"], [], family)
    assert str(exc.value) == f"graph family {family!r} is not a Family"


def _reference_edge_check(edges, p):
    """The constructor's rule, edge by edge: the message for the first
    offending edge in input order, or None when every edge is good."""
    seen = set()
    for e in edges:
        if len(e) != 2:
            return f"edge {e!r} is not a pair of vertex ids"
        a, b = e
        if type(a) is not int or type(b) is not int:
            return f"edge ({a!r},{b!r}) has an endpoint that is not an int"
        if a == b:
            return f"self-loop at vertex {a}"
        if not (0 <= a < p and 0 <= b < p):
            return f"edge ({a},{b}) references an undeclared vertex"
        e = (min(a, b), max(a, b))
        if e in seen:
            return f"duplicate edge {e}"
        seen.add(e)
    return None


@st.composite
def edge_lists(draw):
    """Shuffled simple edge lists with randomly reversed pairs, and with a
    few bad edges (some not pairs) mixed in when bad is drawn."""
    p = draw(st.integers(min_value=1, max_value=8))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                 if pairs else st.just([]))
    edges = [draw(st.sampled_from([(a, b), (b, a)])) for a, b in edges]
    if draw(st.booleans()):
        end = st.integers(min_value=-2, max_value=p + 1) | st.sampled_from(
            [True, False, 1.0, 0.5])
        bad = draw(st.lists(st.tuples(end, end) | st.tuples(end)
                            | st.tuples(end, end, end), min_size=1,
                            max_size=3))
        edges += bad + draw(st.lists(st.sampled_from(edges), max_size=2)
                            if edges else st.just([]))
    return p, draw(st.permutations(edges))


@given(edge_lists())
@settings(max_examples=300, deadline=None)
def test_graph_edges_match_reference(case):
    p, edges = case
    tags = [f"v{i}" for i in range(p)]
    message = _reference_edge_check(edges, p)
    if message is None:
        expected = tuple(sorted({(min(a, b), max(a, b)) for a, b in edges}))
        assert Graph(tags, edges).edges == expected
        assert Graph(tags, iter(edges)).edges == expected
    else:
        with pytest.raises(ValueError) as exc:
            Graph(tags, iter(edges))
        assert str(exc.value) == message


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_adjacency_matches_sorted_reference(case):
    p, edges = case
    if _reference_edge_check(edges, p) is not None:
        return
    g = Graph([f"v{i}" for i in range(p)], edges)
    expected = tuple(
        tuple(sorted([b for a, b in g.edges if a == v]
                     + [a for a, b in g.edges if b == v]))
        for v in range(p))
    assert g.adjacency() == expected


def test_two_coloring_alternates():
    colors = two_coloring(path_graph(5))
    assert colors == [0, 1, 0, 1, 0]
    assert two_coloring(cycle_graph(3)) is None


def test_package_exports_resolve_without_tag_api():
    for name in oddgraceful.__all__:
        assert hasattr(oddgraceful, name), name
    # two_coloring and Graph.degree had no caller in the package; the tests
    # keep them in constructions.py
    removed = {"Tag", "U", "V", "W", "Y", "Z", "generic", "parse_tag",
               "cartesian_product", "subdivide", "two_coloring",
               "path_graph", "ladder", "triangular_snake", "corona_pendants"}
    assert not removed & set(oddgraceful.__all__)
    assert not [name for name in removed if hasattr(oddgraceful, name)]
    # only the tests build paths, ladders, snakes and coronas; the pendant
    # tag parser and the shared pendant edges went with them
    assert not [name for name in removed | {"_PENDANT_RE", "_pendant_edges",
                                            "re"}
                if hasattr(oddgraceful.graphs, name)]
    assert not hasattr(Graph, "degree")
    # a theorem graph's tags are its IdOrder, read as a sequence: one store
    assert not [name for name in ("tag", "tags") if hasattr(IdOrder, name)]
    assert "_order" not in Graph.__slots__


def test_file_formats_have_one_reader_and_one_writer():
    # Graph.to_json and Graph.from_json_obj alone know the family object's
    # file form, and VerificationReport.to_json a violation's
    removed = [(Graph, "from_json"), (Family, "to_json_obj"),
               (Family, "from_json_obj"), (Violation, "to_json_obj")]
    assert not [(cls.__name__, name) for cls, name in removed
                if hasattr(cls, name)]


def test_graph_json_round_trip_byte_identical():
    # corona twice: v1 gets pendants p(v1,1) and then p(v1,2)
    twice = corona_pendants(corona_pendants(path_graph(1), 1), 1)
    assert str(twice.tags[2]) == "p(v1,2)"
    for g in (ladder(3), build_theorem1(2, 1), build_theorem2(2, 1),
              build_theorem3(2, 2), subdivide(triangular_snake(2)), twice):
        text = g.to_json()
        back = Graph.from_json_obj(json.loads(text))
        assert back == g
        assert back.to_json() == text
        assert back.fingerprint() == g.fingerprint()
        assert text.endswith("\n")


def test_graph_json_edges_sorted_small_id_first():
    g = build_theorem1(2, 1)
    for a, b in g.edges:
        assert a < b
    assert list(g.edges) == sorted(g.edges)


def test_graph_json_rejects_malformed():
    with pytest.raises(ValueError):
        Graph.from_json_obj(json.loads(
            '{"vertices": [{"id": 1, "tag": "v1"}], "edges": []}'))
    with pytest.raises(ValueError):
        Graph.from_json_obj(json.loads('{"edges": []}'))


def _vertex_not_object(doc):
    doc["vertices"][1] = "u2"


def _tag_not_string(doc):
    doc["vertices"][0]["tag"] = 7


def _float_edge_id(doc):
    doc["edges"][0] = [0, 1.0]


def _bool_edge(doc):
    doc["edges"][0] = [False, True]


def _edge_not_a_pair(doc):
    doc["edges"][0] = [0, 1, 2]


def _edge_not_an_array(doc):
    doc["edges"][0] = {"a": 0, "b": 1}


def _duplicate_tag(doc):
    doc["vertices"][1]["tag"] = "u1"


def _empty_tag(doc):
    doc["vertices"][0]["tag"] = ""


def _missing_tag(doc):
    del doc["vertices"][0]["tag"]


def _family_kind_not_string(doc):
    doc["family"]["kind"] = ["x"]


def _family_n_not_int(doc):
    doc["family"]["n"] = "two"


def _family_m_bool(doc):
    doc["family"]["m"] = True


def _family_k_float(doc):
    doc["family"]["k"] = 2.0


def _family_not_object(doc):
    doc["family"] = "ladder"


def _family_key_misspelled(doc):
    doc["family"]["M"] = doc["family"].pop("m")


# ways to break the ladder(2) graph document; each must be rejected
MALFORMED_GRAPH_DOCS = [_vertex_not_object, _tag_not_string, _float_edge_id,
                        _bool_edge, _edge_not_a_pair, _edge_not_an_array,
                        _duplicate_tag, _empty_tag, _missing_tag,
                        _family_kind_not_string,
                        _family_n_not_int, _family_m_bool, _family_k_float,
                        _family_not_object, _family_key_misspelled]


@pytest.mark.parametrize("break_doc", MALFORMED_GRAPH_DOCS)
def test_graph_loader_rejects_malformed_document(break_doc):
    doc = json.loads(ladder(2).to_json())
    Graph.from_json_obj(doc)  # the unbroken document loads
    break_doc(doc)
    with pytest.raises(ValueError):
        Graph.from_json_obj(doc)


@pytest.mark.parametrize("break_doc, message", [
    (lambda doc: doc.update(directed=False),
     "graph document has an unknown key 'directed'"),
    (lambda doc: doc["vertices"][2].update(label=5),
     "vertex entry 2 has an unknown key 'label'"),
    (_family_key_misspelled, "family object has an unknown key 'M'"),
], ids=["document", "vertex-entry", "family"])
def test_graph_loader_names_an_unknown_key(break_doc, message):
    # a misspelled family 'm' once loaded as m=None and was written back
    # without it
    doc = json.loads(ladder(2).to_json())
    break_doc(doc)
    with pytest.raises(ValueError) as exc:
        Graph.from_json_obj(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"kind": "x", "n": True}, "family field 'n' must be an int or null"),
    ({"kind": "x", "k": 2.0}, "family field 'k' must be an int or null"),
    ({"kind": "x", "m": "1"}, "family field 'm' must be an int or null"),
    ({"kind": 3}, "family object needs a string 'kind' field"),
], ids=["n-bool", "k-float", "m-str", "kind-int"])
def test_family_constructor_rejects_what_the_loader_rejects(fields, message):
    # otherwise a graph carrying such a family writes a file that
    # Graph.from_json_obj cannot read back
    with pytest.raises(ValueError, match=re.escape(message)):
        Family(**fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph.from_json_obj({"vertices": [], "edges": [], "family": fields})
    with pytest.raises(ValueError, match=re.escape(message)):
        Family("ladder")._replace(**fields)


@pytest.mark.parametrize("family", ["ladder", ["ladder"], 3, True])
def test_graph_loader_rejects_a_family_that_is_not_an_object(family):
    doc = {"vertices": [], "edges": [], "family": family}
    with pytest.raises(ValueError) as exc:
        Graph.from_json_obj(doc)
    assert str(exc.value) == "family object needs a string 'kind' field"


@pytest.mark.parametrize("tags, message", [
    ([1, 2], "vertex 0 needs a non-empty string tag"),
    (["a", "a"], "duplicate vertex tag 'a'"),
    ([""], "vertex 0 needs a non-empty string tag"),
    ([None], "vertex 0 needs a non-empty string tag"),
    (["a", "b", 7, "a"], "vertex 2 needs a non-empty string tag"),
], ids=["ints", "repeat", "empty", "none", "first-in-id-order"])
def test_graph_constructor_rejects_what_the_loader_rejects(tags, message):
    # otherwise Graph builds a graph whose file Graph.from_json_obj rejects,
    # or whose to_json raises
    doc = {"vertices": [{"id": i, "tag": t} for i, t in enumerate(tags)],
           "edges": []}
    for load in (lambda: Graph(tags, []), lambda: Graph.from_json_obj(doc)):
        with pytest.raises(ValueError) as exc:
            load()
        assert str(exc.value) == message


@pytest.mark.parametrize("edge", [[True, 1], [0, 1.0], ["a", 1], [None, 1]])
def test_graph_loader_leaves_endpoints_to_the_constructor(edge):
    doc = {"vertices": [{"id": 0, "tag": "a"}, {"id": 1, "tag": "b"}],
           "edges": [edge]}
    with pytest.raises(ValueError) as exc:
        Graph.from_json_obj(doc)
    a, b = edge
    assert str(exc.value) == (
        f"edge ({a!r},{b!r}) has an endpoint that is not an int")


@pytest.mark.parametrize("edge", [[0, 1, 2], [0], [], "ab",
                                  {"a": 0, "b": 1}])
def test_graph_loader_names_an_edge_that_is_not_a_pair(edge):
    # the loader rejects an edge that is not an array, and the constructor
    # one that is not a pair, both in the same words
    doc = {"vertices": [{"id": 0, "tag": "a"}, {"id": 1, "tag": "b"}],
           "edges": [[0, 1], edge]}
    with pytest.raises(ValueError) as exc:
        Graph.from_json_obj(doc)
    assert str(exc.value) == f"edge {edge!r} is not a pair of vertex ids"


def test_graph_rejects_a_str_subclass_tag():
    # to_json writes tags through %s, which calls __str__, so such a tag
    # would be written as "other"; the constructor admits exact strs only
    class Other(str):
        def __str__(self):
            return "other"

    with pytest.raises(ValueError) as exc:
        Graph([Other("a"), "b"], [])
    assert str(exc.value) == "vertex 0 needs a non-empty string tag"


class N(IntEnum):
    ONE, TWO, THREE = 1, 2, 3


class S(str):
    pass


P2 = path_graph(2)


def _theorem_gates(name, call):
    return [(f"{name}-size", lambda x: call(x, 1), 2),
            (f"{name}-m", lambda x: call(2, x), 1)]


# every gate that admits an int or a str: (id, call, an exact value that
# call accepts); the same value as an IntEnum member or a str subclass is
# rejected
GATES = [
    ("Family-n", lambda x: Family("ladder", n=x), 2),
    ("Family-k", lambda x: Family("ladder", k=x), 2),
    ("Family-m", lambda x: Family("ladder", m=x), 2),
    ("Graph-endpoint", lambda x: Graph(["a", "b", "c"], [(0, x)]), 2),
    ("from_json_obj-id", lambda x: Graph.from_json_obj(
        {"vertices": [{"id": 0, "tag": "a"}, {"id": x, "tag": "b"}],
         "edges": []}), 1),
    ("path_graph", path_graph, 2),
    ("cycle_graph", cycle_graph, 3),
    ("ladder", ladder, 2),
    ("triangular_snake", triangular_snake, 2),
    ("corona_pendants", lambda x: corona_pendants(path_graph(2), x), 1),
    *_theorem_gates("build_theorem1", build_theorem1),
    *_theorem_gates("build_theorem2", build_theorem2),
    *_theorem_gates("build_theorem3", build_theorem3),
    *_theorem_gates("label_theorem1", label_theorem1),
    *_theorem_gates("label_theorem2", label_theorem2),
    *_theorem_gates("label_theorem3", label_theorem3),
    ("verify-labels", lambda x: verify_odd_graceful(path_graph(2), [0, x]),
     1),
    ("labeling_from_json_obj-labels", lambda x: labeling_from_json_obj(
        P2, {"graph_fingerprint": P2.fingerprint(), "labels": [0, x]}), 1),
    ("SearchConfig-nodes", lambda x: SearchConfig(node_budget=x), 1),
    ("SearchConfig-time", lambda x: SearchConfig(time_budget_ms=x), 1),
    ("Graph-tag", lambda x: Graph([x], []), "a"),
    ("Family-kind", Family, "ladder"),
    ("labeling_from_json_obj-fingerprint", lambda x: labeling_from_json_obj(
        P2, {"graph_fingerprint": x, "labels": [0, 1]}), P2.fingerprint()),
]


@pytest.mark.parametrize("call, exact", [
    pytest.param(call, exact, id=name) for name, call, exact in GATES])
def test_gates_admit_exact_ints_and_strs_only(call, exact):
    call(exact)
    with pytest.raises(ValueError):
        call(S(exact) if type(exact) is str else N(exact))


@given(st.lists(st.sampled_from(["", "a", "b"]) | st.text(max_size=2)
                | st.integers(0, 2) | st.none(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_graph_constructor_accepts_only_tags_a_file_can_hold(tags):
    good = (all(type(t) is str and t for t in tags)
            and len(set(tags)) == len(tags))
    if not good:
        with pytest.raises(ValueError):
            Graph(tags, [])
        return
    g = Graph(tags, [])
    assert Graph.from_json_obj(json.loads(g.to_json())) == g


@st.composite
def small_graphs(draw):
    p = draw(st.integers(min_value=1, max_value=8))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)
                 if pairs else st.just([]))
    return Graph([f"v{i + 1}" for i in range(p)], edges)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_subdivide_counts_property(g):
    s = subdivide(g)
    assert s.p == g.p + g.q
    assert s.q == 2 * g.q
    # every cycle doubles in length, so subdivisions are always bipartite
    assert is_bipartite(s)


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_corona_degree_property(g, m):
    c = corona_pendants(g, m)
    assert c.p == g.p * (m + 1)
    assert c.q == g.q + g.p * m
    for v in range(g.p):
        assert degree(c, v) == degree(g, v) + m


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_graph_json_round_trip_property(g):
    text = g.to_json()
    assert Graph.from_json_obj(json.loads(text)).to_json() == text


_sizes = st.none() | st.integers()


@st.composite
def tagged_graphs(draw):
    """Graphs with arbitrary unique tags (quotes, backslashes, control and
    non-ASCII characters) and an optional family of any kind text."""
    tags = draw(st.lists(st.text(min_size=1), min_size=1, max_size=6,
                         unique=True))
    pairs = [(a, b) for a in range(len(tags)) for b in range(a + 1, len(tags))]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)
                 if pairs else st.just([]))
    family = draw(st.none() | st.builds(Family, st.text(), _sizes, _sizes,
                                        _sizes))
    return Graph(tags, edges, family)


@given(tagged_graphs())
@settings(max_examples=200, deadline=None)
def test_graph_json_is_canonical_json(g):
    text = g.to_json()
    assert canonical_dumps(json.loads(text)) == text
    assert Graph.from_json_obj(json.loads(text)) == g


def test_graph_json_exact_text():
    g = Graph(['a"b', "a\\b", "é"], [(1, 0), (1, 2)],
              Family("ladder", n=2, m=0))
    assert g.to_json() == (
        r'{"edges":[[0,1],[1,2]],"family":{"kind":"ladder","m":0,"n":2},'
        r'"vertices":[{"id":0,"tag":"a\"b"},{"id":1,"tag":"a\\b"},'
        r'{"id":2,"tag":"\u00e9"}]}' "\n")
    assert Graph([], []).to_json() == (
        '{"edges":[],"family":null,"vertices":[]}\n')
    assert Graph(["a", "b c"], []).to_json() == (
        '{"edges":[],"family":null,'
        '"vertices":[{"id":0,"tag":"a"},{"id":1,"tag":"b c"}]}\n')


def _reference_graph_json(g):
    """The graph file as canonical_dumps writes its dict form: the text
    Graph.to_json must match byte for byte."""
    fam = g.family
    family = None if fam is None else {
        key: value for key, value in [("kind", fam.kind), ("n", fam.n),
                                      ("k", fam.k), ("m", fam.m)]
        if value is not None}
    return canonical_dumps({
        "edges": [list(e) for e in g.edges],
        "family": family,
        "vertices": [{"id": i, "tag": t} for i, t in enumerate(g.tags)]})


# printable ASCII but the quote and the backslash: text the JSON encoder
# writes as is
_safe_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                   exclude_characters='"\\'), min_size=1)
_escaped_char = (st.sampled_from(['"', "\\"])
                 | st.integers(0, 0x1f).map(chr)  # control characters
                 | st.integers(0x7f, 0x10ffff).map(chr)  # non-ASCII
                 | st.integers(0xd800, 0xdfff).map(chr))  # lone surrogates


@st.composite
def mostly_safe_graphs(draw):
    """Graphs whose tags the encoder writes as is, but for at most one tag
    holding one character it escapes, placed first, last or anywhere."""
    tags = draw(st.lists(_safe_text, max_size=6, unique=True))
    if draw(st.booleans()):
        bad = draw(st.tuples(st.text(max_size=2), _escaped_char,
                             st.text(max_size=2)).map("".join))
        at = draw(st.sampled_from([0, len(tags)])
                  | st.integers(0, len(tags)))
        tags.insert(at, bad)
    p = len(tags)
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)
                 if pairs else st.just([]))
    family = draw(st.none() | st.builds(Family, _safe_text, _sizes, _sizes,
                                        _sizes))
    return Graph(tags, edges, family)


@given(mostly_safe_graphs() | tagged_graphs())
@settings(max_examples=300, deadline=None)
def test_graph_json_matches_reference_writer(g):
    assert g.to_json() == _reference_graph_json(g)


# entry counts on either side of the writer's block boundaries
_BLOCK_SIZES = [0, 1, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1,
                2 * _WRITE_BLOCK + 1]


def _graph_with_sizes(p, q, tags=None):
    """A graph on p vertices tagged v0.., or tags, with its first q edges in
    order of id distance: (0,1), (1,2), ..., then (0,2), (1,3), ..."""
    edges = islice(((i, i + d) for d in range(1, p) for i in range(p - d)), q)
    return Graph(tags or [f"v{i}" for i in range(p)], list(edges))


@pytest.mark.parametrize("p, q", [(p, q) for p in _BLOCK_SIZES
                                  for q in _BLOCK_SIZES
                                  if q <= p * (p - 1) // 2])
def test_graph_json_matches_reference_across_blocks(p, q):
    g = _graph_with_sizes(p, q)
    assert (g.p, g.q) == (p, q)
    assert g.to_json() == _reference_graph_json(g)


@pytest.mark.parametrize("n", [0, 1, _HASH_BLOCK - 1, _HASH_BLOCK,
                               _HASH_BLOCK + 1, 2 * _HASH_BLOCK + 1])
def test_sha256_hex_hashes_the_whole_encoding(n):
    # the text is hashed a block of characters at a time; one- to four-byte
    # characters in turn, so multi-byte ones sit on the block boundaries
    text = ("a\u00e9\u20ac\U0001f600" * n)[:n]
    assert sha256_hex(text) == hashlib.sha256(
        text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("p, at", [  # in the first block, a later, the last
    (p, at) for p in _BLOCK_SIZES[1:]
    for at in sorted({0, _WRITE_BLOCK, p - 1}) if at < p])
@pytest.mark.parametrize("bad", ['a"b', "\u00e9"])
def test_escaping_is_decided_per_block(p, at, bad):
    # a block whose tags need no escaping is written as is and one with an
    # escaping tag tag by tag, with the same bytes either way
    tags = [f"v{i}" for i in range(p)]
    tags[at] = bad
    g = _graph_with_sizes(p, p - 1, tags)
    text = g.to_json()
    assert text == _reference_graph_json(g)
    assert json.loads(text)["vertices"][at]["tag"] == bad
