"""Verifier behavior: exhaustive violation reports, complement transform,
fast boolean check, and file formats."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import path_graph
from oddgraceful import (Graph, build_theorem1, complement_labeling,
                         cycle_graph, is_odd_graceful, label_theorem1,
                         verify_odd_graceful)
from oddgraceful.cli import _THEOREMS, parse_grid
from oddgraceful.labeling import (DUPLICATE_EDGE_LABEL,
                                  DUPLICATE_VERTEX_LABEL, EDGE_LABEL_EVEN,
                                  KIND_ORDER, MISSING_ODD_EDGE_LABEL,
                                  MISSING_VERTEX_LABEL,
                                  VERTEX_LABEL_OUT_OF_RANGE,
                                  VerificationReport, Violation,
                                  first_violation, labeling_from_json_obj,
                                  labeling_to_json)


def test_p2_passes():
    report = verify_odd_graceful(path_graph(2), [0, 1])
    assert report.ok and report.q == 1 and report.violations == ()


def test_p3_consecutive_labels_fail():
    report = verify_odd_graceful(path_graph(3), [0, 1, 2])
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == [DUPLICATE_EDGE_LABEL, MISSING_ODD_EDGE_LABEL]
    dup, missing = report.violations
    assert dup.label == 1 and dup.edge_ids == ((0, 1), (1, 2))
    assert missing.label == 3


def test_theorem1_instance_passes_with_full_odd_edge_set():
    g = build_theorem1(2, 1)
    labels, _ = label_theorem1(2, 1)
    report = verify_odd_graceful(g, labels)
    assert report.ok
    got = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
    assert got == [1, 3, 5, 7, 9, 11, 13, 15]


def test_missing_vertex_label_reported():
    report = verify_odd_graceful(path_graph(3), [0, None, 3])
    assert not report.ok
    assert report.violations[0].kind == MISSING_VERTEX_LABEL
    assert report.violations[0].vertex_ids == (1,)


def test_out_of_range_labels_reported():
    g = path_graph(2)  # q=1, range [0, 1]
    report = verify_odd_graceful(g, [-1, 2])
    kinds = {v.kind for v in report.violations}
    assert VERTEX_LABEL_OUT_OF_RANGE in kinds
    out = [v for v in report.violations if v.kind == VERTEX_LABEL_OUT_OF_RANGE]
    assert {(v.vertex_ids[0], v.label) for v in out} == {(0, -1), (1, 2)}


def test_duplicate_vertex_label_first_witness_pair():
    g = path_graph(4)
    report = verify_odd_graceful(g, [2, 5, 2, 2])
    dups = [v for v in report.violations if v.kind == DUPLICATE_VERTEX_LABEL]
    assert len(dups) == 1
    assert dups[0].vertex_ids == (0, 2) and dups[0].label == 2


def test_even_edge_labels_reported():
    report = verify_odd_graceful(path_graph(3), [0, 2, 5])
    evens = [v for v in report.violations if v.kind == EDGE_LABEL_EVEN]
    assert len(evens) == 1
    assert evens[0].edge_ids == ((0, 1),) and evens[0].label == 2


def test_violations_sorted_by_kind_then_ids():
    g = path_graph(4)  # q=3, range [0, 5]
    report = verify_odd_graceful(g, [9, 9, None, 0])
    kinds = [v.kind for v in report.violations]
    ranks = [KIND_ORDER.index(k) for k in kinds]
    assert ranks == sorted(ranks)
    assert kinds[0] == MISSING_VERTEX_LABEL


def test_verifier_is_deterministic():
    g = build_theorem1(2, 2)
    labels = [(v * 7) % 10 for v in range(g.p)]
    assert verify_odd_graceful(g, labels) == verify_odd_graceful(g, labels)


def test_q_zero_single_vertex_accepts_only_zero():
    g = path_graph(1)
    assert verify_odd_graceful(g, [0]).ok
    report = verify_odd_graceful(g, [1])
    assert [v.kind for v in report.violations] == [VERTEX_LABEL_OUT_OF_RANGE]


def test_q_zero_two_isolated_vertices_cannot_pass():
    g = Graph(["v1", "v2"], [])
    for labels in ([0, 0], [0, 1]):
        assert not verify_odd_graceful(g, labels).ok


def test_complement_examples():
    g = path_graph(2)
    assert complement_labeling(g, [0, 1]) == [1, 0]
    # q = 0: the range is the single label 0, which maps to itself
    assert complement_labeling(path_graph(1), [0]) == [0]


def test_complement_is_involution_and_preserves_verdict():
    g = build_theorem1(3, 1)
    labels, _ = label_theorem1(3, 1)
    comp = complement_labeling(g, labels)
    assert complement_labeling(g, comp) == labels
    assert verify_odd_graceful(g, comp).ok
    broken = list(labels)
    broken[0] = labels[1]
    assert verify_odd_graceful(g, broken).ok == \
        verify_odd_graceful(g, complement_labeling(g, broken)).ok


def test_complement_requires_total_labeling():
    with pytest.raises(ValueError):
        complement_labeling(path_graph(2), [0, None])


def test_parity_bipartition_on_passing_labeling():
    g = build_theorem1(2, 2)
    labels, _ = label_theorem1(2, 2)
    assert verify_odd_graceful(g, labels).ok
    for a, b in g.edges:
        assert (labels[a] + labels[b]) % 2 == 1


def test_report_json_shape():
    g = path_graph(3)
    report = verify_odd_graceful(g, [0, 1, 2])
    obj = json.loads(report.to_json(g))
    assert obj["ok"] is False and obj["q"] == 2
    assert obj["violations"][0]["kind"] == DUPLICATE_EDGE_LABEL
    assert obj["violations"][0]["edges"] == [["v1", "v2"], ["v2", "v3"]]


# Violation.short renders the sweep CSV's first_violation cell; the tag
# s(u1,u2) pins the rewrite of each comma to '.'.
@pytest.mark.parametrize("labels, kind, cell", [
    ([None, 0, 3], MISSING_VERTEX_LABEL, "MissingVertexLabel(s(u1.u2))"),
    ([9, 0, 3], VERTEX_LABEL_OUT_OF_RANGE,
     "VertexLabelOutOfRange(s(u1.u2)=9)"),
    ([1, 0, 1], DUPLICATE_VERTEX_LABEL, "DuplicateVertexLabel(s(u1.u2) w 1)"),
    ([2, 0, 3], EDGE_LABEL_EVEN, "EdgeLabelEven(s(u1.u2)-v=2)"),
    ([1, 0, 1], DUPLICATE_EDGE_LABEL, "DuplicateEdgeLabel(1)"),
    ([1, 0, 1], MISSING_ODD_EDGE_LABEL, "MissingOddEdgeLabel(3)"),
])
def test_violation_short_renders_each_kind(labels, kind, cell):
    g = Graph(["s(u1,u2)", "v", "w"], [(0, 1), (1, 2)])
    report = verify_odd_graceful(g, labels)
    assert [v.short(g) for v in report.violations if v.kind == kind] == [cell]


def test_labeling_json_round_trip_with_missing_labels():
    g = path_graph(3)
    labels = [4, None, 1]
    text = labeling_to_json(g, labels)
    obj = json.loads(text)
    assert obj == {"graph_fingerprint": g.fingerprint(),
                   "labels": [4, None, 1]}
    assert labeling_from_json_obj(g, obj) == labels


@pytest.mark.parametrize("labels", [[0], [0, 1, 99], []])
def test_wrong_length_labeling_raises(labels):
    g = path_graph(2)
    for check in (verify_odd_graceful, is_odd_graceful, labeling_to_json,
                  complement_labeling):
        with pytest.raises(ValueError, match="labels for 2 vertices"):
            check(g, labels)


@pytest.mark.parametrize("labels, bad", [
    ([0, 1.0], "vertex 1 has label 1.0"),
    ([0, 1.5], "vertex 1 has label 1.5"),
    ([True, 0], "vertex 0 has label True"),
    (["0", 1.0], "vertex 0 has label '0'"),
])
def test_non_int_label_is_rejected(labels, bad):
    g = path_graph(2)
    for check in (verify_odd_graceful, is_odd_graceful, labeling_to_json,
                  complement_labeling):
        with pytest.raises(ValueError, match=f"^{bad}, not an int or None$"):
            check(g, labels)


def test_dict_labeling_is_rejected():
    g = path_graph(2)
    for check in (verify_odd_graceful, is_odd_graceful, labeling_to_json,
                  complement_labeling):
        with pytest.raises(TypeError):
            check(g, {0: 0, 1: 1})


def test_labeling_json_rejects_malformed():
    g = path_graph(2)
    fp = g.fingerprint()
    with pytest.raises(ValueError):
        labeling_from_json_obj(g, {"labels": [0, 1]})
    with pytest.raises(ValueError):
        labeling_from_json_obj(g, {"graph_fingerprint": fp,
                                   "labels": [0, "y"]})
    with pytest.raises(ValueError):
        labeling_from_json_obj(g, {"graph_fingerprint": fp, "labels": 3})
    with pytest.raises(ValueError, match="'graph_fingerprint' must be a"):
        labeling_from_json_obj(g, {"graph_fingerprint": 5, "labels": [0, 1]})


# a labeling document for path_graph(2), with one field replaced, and the
# reader's whole message; the fingerprint is filled in by the test
@pytest.mark.parametrize("field, value, message", [
    ("graph_fingerprint", "0" * 64,
     "labeling fingerprint does not match the graph"),
    ("graph_fingerprint", None, "'graph_fingerprint' must be a string"),
    ("labels", {"0": 0, "1": 1},
     "'labels' must be an array indexed by vertex id"),
    ("labels", "01", "'labels' must be an array indexed by vertex id"),
    ("labels", [0, "y"], "vertex 1 has label 'y', not an int or None"),
    ("labels", [0, 1.0], "vertex 1 has label 1.0, not an int or None"),
    ("labels", [0], "1 labels for 2 vertices: a labeling's length is the "
                    "vertex count"),
    ("label", [0, 1], "labeling document has an unknown key 'label'"),
], ids=["other-graph", "fingerprint-null", "labels-object", "labels-string",
        "label-string", "label-float", "short", "unknown-key"])
def test_labeling_reader_names_the_first_fault_once(field, value, message):
    g = path_graph(2)
    doc = {"graph_fingerprint": g.fingerprint(), "labels": [0, 1]}
    doc[field] = value
    with pytest.raises(ValueError) as exc:  # never TypeError
        labeling_from_json_obj(g, doc)
    assert str(exc.value) == message


def test_labeling_reader_checks_the_binding_before_the_labels():
    # a file for another graph is named as such, even when its labels would
    # not fit this one
    g, other = path_graph(2), path_graph(3)
    doc = json.loads(labeling_to_json(other, [0, 1, 2]))
    with pytest.raises(ValueError,
                       match="^labeling fingerprint does not match the graph$"):
        labeling_from_json_obj(g, doc)
    assert labeling_from_json_obj(other, doc) == [0, 1, 2]


@st.composite
def graph_and_labels(draw):
    p = draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)
                 if pairs else st.just([]))
    g = Graph([f"v{i + 1}" for i in range(p)], edges)
    top = max(2 * g.q - 1, 1)
    labels = [draw(st.integers(min_value=-2, max_value=top + 2))
              if draw(st.booleans()) else None for _ in range(p)]
    return g, labels


@given(graph_and_labels())
@settings(max_examples=120, deadline=None)
def test_fast_check_agrees_with_full_verifier(case):
    g, labels = case
    report = verify_odd_graceful(g, labels)
    assert is_odd_graceful(g, labels) == report.ok
    assert first_violation(g, labels) == _ok_and_first_of(report)


def _ok_and_first_of(report):
    """What first_violation must return: report.ok and the report's first
    violation other than MissingVertexLabel, or None."""
    return report.ok, next((v for v in report.violations
                            if v.kind != MISSING_VERTEX_LABEL), None)


def test_first_violation_takes_the_canonical_first_of_a_phase():
    # the scan meets the duplicate of 0 (vertex 1) before the out-of-range
    # label 9 (vertex 2), but out-of-range sorts first; the missing vertex
    # label is skipped, and the edge phase's even label 0 sorts after both
    g = path_graph(4)
    labels = [0, 0, 9, None]
    ok, first = first_violation(g, labels)
    assert not ok
    assert first == Violation(VERTEX_LABEL_OUT_OF_RANGE, vertex_ids=(2,),
                              label=9)
    assert (ok, first) == _ok_and_first_of(verify_odd_graceful(g, labels))


AUDIT_GRID = ("theorem1:n=2..100,m=1..5;theorem2:n=2..50,m=1..5;"
              "theorem3:k=1..50,m=1..5")


def test_first_violation_agrees_with_report_on_audit_grid():
    for number, a, m in sorted(set(parse_grid(AUDIT_GRID))):
        _, build, label, _ = _THEOREMS[number]
        g = build(a, m)
        for repairs in (False, True):
            labels, _ = label(a, m, apply_repairs=repairs)
            report = verify_odd_graceful(g, labels)
            assert first_violation(g, labels) == _ok_and_first_of(report), (
                number, a, m, repairs)


@given(graph_and_labels())
@settings(max_examples=80, deadline=None)
def test_ok_reports_have_no_violations_and_exact_multiset(case):
    g, labels = case
    report = verify_odd_graceful(g, labels)
    assert report.ok == (report.violations == ())
    if report.ok and g.q:
        got = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
        assert got == list(range(1, 2 * g.q, 2))


def test_complement_on_found_cycle_labeling():
    g = cycle_graph(4)
    labels = [0, 7, 4, 5]
    assert verify_odd_graceful(g, labels).ok
    assert verify_odd_graceful(g, complement_labeling(g, labels)).ok


def _reference_verify(g, labels):
    """The dict-based verifier the list-indexed one replaced, kept as the
    definition of the report: every violation, witness and order."""
    q = g.q
    max_label = 2 * q - 1 if q > 0 else 0
    violations = []

    vertex_first, vertex_second = {}, {}
    for v, x in enumerate(labels):
        if x is None:
            violations.append(Violation(MISSING_VERTEX_LABEL, vertex_ids=(v,)))
            continue
        if not (0 <= x <= max_label):
            violations.append(
                Violation(VERTEX_LABEL_OUT_OF_RANGE, vertex_ids=(v,), label=x))
        if vertex_first.setdefault(x, v) != v:
            vertex_second.setdefault(x, v)

    for value in sorted(vertex_second):
        violations.append(Violation(
            DUPLICATE_VERTEX_LABEL,
            vertex_ids=(vertex_first[value], vertex_second[value]),
            label=value,
        ))

    edge_first, edge_second = {}, {}
    for e in g.edges:
        x, y = labels[e[0]], labels[e[1]]
        if x is None or y is None:
            continue
        d = abs(x - y)
        if d % 2 == 0:
            violations.append(
                Violation(EDGE_LABEL_EVEN, edge_ids=(e,), label=d))
        if edge_first.setdefault(d, e) != e:
            edge_second.setdefault(d, e)

    for value in sorted(edge_second):
        violations.append(Violation(
            DUPLICATE_EDGE_LABEL,
            edge_ids=(edge_first[value], edge_second[value]),
            label=value,
        ))

    for odd in range(1, 2 * q, 2):
        if odd not in edge_first:
            violations.append(Violation(MISSING_ODD_EDGE_LABEL, label=odd))

    violations.sort(key=Violation.sort_key)
    return VerificationReport(ok=not violations, q=q,
                              violations=tuple(violations))


_HUGE = 10 ** 18


@st.composite
def graph_and_wild_labels(draw):
    """Small graphs with labelings that mix None, negative values, values
    above 2q-1 and near +-10**18, repeated vertex values and even edge
    labels."""
    p = draw(st.integers(min_value=1, max_value=9))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                 if pairs else st.just([]))
    g = Graph([f"v{i + 1}" for i in range(p)], edges)
    top = 2 * g.q - 1
    label = st.one_of(
        st.none(),
        st.integers(min_value=-3, max_value=top + 3),
        st.integers(min_value=0, max_value=max(top, 0)),
        st.integers(min_value=_HUGE - 3, max_value=_HUGE + 3),
        st.integers(min_value=-_HUGE - 3, max_value=-_HUGE + 3))
    labels = draw(st.lists(label, min_size=p, max_size=p))
    # repeat some earlier values so duplicate vertex labels come often
    for v in draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                           max_size=3)):
        labels[v] = labels[draw(st.integers(min_value=0, max_value=p - 1))]
    return g, labels


@given(graph_and_wild_labels())
@settings(max_examples=400, deadline=None)
def test_verifier_matches_dict_reference(case):
    g, labels = case
    reference = _reference_verify(g, labels)
    assert verify_odd_graceful(g, labels) == reference
    assert is_odd_graceful(g, labels) == reference.ok


@pytest.mark.parametrize("g, labels", [
    (path_graph(3), [0, 1, 3]),       # edge values 1, 2: 3 is missing
    (path_graph(4), [0, 5, 1, 4]),    # edge values 5, 4, 3: 1 is missing
    (cycle_graph(4), [0, 7, 1, 4]),   # edge values 7, 6, 3, 4: 1, 5
])
def test_distinct_edge_values_with_an_even_one_miss_an_odd(g, labels):
    report = verify_odd_graceful(g, labels)
    assert report == _reference_verify(g, labels)
    kinds = {v.kind for v in report.violations}
    assert {EDGE_LABEL_EVEN, MISSING_ODD_EDGE_LABEL} <= kinds


def test_huge_label_reports_out_of_range_without_a_list_that_size():
    g = path_graph(2)
    report = verify_odd_graceful(g, [0, _HUGE])
    assert report == _reference_verify(g, [0, _HUGE])
    assert [v.kind for v in report.violations] == [
        VERTEX_LABEL_OUT_OF_RANGE, EDGE_LABEL_EVEN, MISSING_ODD_EDGE_LABEL]
    # a holder list sized by the label would take 8 MB here
    tracemalloc.start()
    try:
        verify_odd_graceful(g, [0, 10 ** 6])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
