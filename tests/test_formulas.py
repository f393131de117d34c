"""Closed-form labelers: frozen hand-evaluated instances, grid behavior of
the literal transcription, and the quarantined repair flag."""

import hashlib

import pytest

from oddgraceful import (Graph, build_theorem1, build_theorem2, build_theorem3,
                         label_theorem1, label_theorem2, label_theorem3,
                         labeling_to_json, verify_odd_graceful)
from oddgraceful.cli import _THEOREMS, parse_grid
from oddgraceful.formulas import SCHEMES
from oddgraceful.graphs import IdOrder, pendant, theorem_order
from oddgraceful.labeling import (DUPLICATE_EDGE_LABEL,
                                  DUPLICATE_VERTEX_LABEL,
                                  MISSING_ODD_EDGE_LABEL,
                                  MISSING_VERTEX_LABEL)

from test_graphs import LARGE_INSTANCES

# hand-evaluated instances, by vertex id in canonical order
T1_2_1 = [13, 4, 0, 15, 8, 11, 1, 12]
T1_3_1 = [21, 6, 19, 0, 25, 2, 14, 15, 8, 1, 22, 7]
T1_2_2 = [21, 4, 0, 23, 12, 10, 17, 19, 1, 3, 18, 16]
T2_3_1 = ([6, 39, 8, 37, 10] + [0, 53, 2, 51, 4] + [41, 45, 49]
          + [23, 20, 29, 14, 35] + [1, 50, 7, 44, 13] + [26, 32, 38])
T2_2_1 = ([4, 23, 6] + [0, 31, 2] + [23, 27]
          + [15, 10, 21] + [1, 28, 7] + [16, 22])
T3_1_1 = [0, 8, 23, 4, 7, 19, 3, 17, 2, 21, 12, 6]
T3_1_2 = ([0, 12, 35, 6, 11, 29]
          + [3, 5, 27, 25, 2, 4, 33, 31, 20, 18, 8, 10])
T3_2_1 = ([0, 8, 16, 45, 39, 4, 12, 15, 7, 41, 35]
          + [3, 13, 33, 2, 10, 43, 37, None, 28, 6, 14])  # p(y1,1) unassigned


def test_theorem1_frozen_instances():
    for (n, m), want in (((2, 1), T1_2_1), ((3, 1), T1_3_1), ((2, 2), T1_2_2)):
        labels, interp = label_theorem1(n, m)
        assert labels == want
        assert interp.uncovered == ()
        assert verify_odd_graceful(build_theorem1(n, m), labels).ok


def test_theorem1_edge_labels_cover_all_odds():
    g = build_theorem1(3, 1)
    labels, _ = label_theorem1(3, 1)
    got = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
    assert got == list(range(1, 26, 2))


def test_theorem1_note_documents_base_row():
    _, interp = label_theorem1(2, 1)
    assert [fid for fid, _ in interp.notes] == ["t1.v-pendant-base-row"]


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_theorem1_literal_passes_through_n4(n, m):
    labels, _ = label_theorem1(n, m)
    assert verify_odd_graceful(build_theorem1(n, m), labels).ok


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(5, 11))
def test_theorem1_literal_duplicates_pendant_edges_from_n5(n, m):
    g = build_theorem1(n, m)
    labels, _ = label_theorem1(n, m)
    report = verify_odd_graceful(g, labels)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert DUPLICATE_EDGE_LABEL in kinds


def test_theorem1_n5_collision_witness():
    # v4's and v5's pendant edges both evaluate to 7 under the literal rows
    g = build_theorem1(5, 1)
    labels, _ = label_theorem1(5, 1)
    idx = {t: v for v, t in enumerate(g.tags)}
    assert labels[idx["v4"]] == 43 and labels[idx["p(v4,1)"]] == 36
    assert labels[idx["v5"]] == 4 and labels[idx["p(v5,1)"]] == 11
    report = verify_odd_graceful(g, labels)
    dups = [v for v in report.violations if v.kind == DUPLICATE_EDGE_LABEL]
    assert dups[0].label == 7


def test_theorem2_frozen_pass_instance():
    g = build_theorem2(3, 1)
    labels, interp = label_theorem2(3, 1)
    assert labels == T2_3_1
    report = verify_odd_graceful(g, labels)
    assert report.ok
    got = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
    assert got == list(range(1, 54, 2))
    assert [fid for fid, _ in interp.notes] == ["t2.rung-midpoints"]


def test_theorem2_frozen_n2_collision():
    g = build_theorem2(2, 1)
    labels, _ = label_theorem2(2, 1)
    assert labels == T2_2_1
    report = verify_odd_graceful(g, labels)
    assert not report.ok
    dups = [v for v in report.violations if v.kind == DUPLICATE_VERTEX_LABEL]
    assert len(dups) == 1
    assert [str(g.tags[v]) for v in dups[0].vertex_ids] == ["u2", "w1"]
    assert dups[0].label == 23 == 2 * g.q - 9


@pytest.mark.parametrize("m", range(1, 6))
def test_theorem2_n2_collision_value_for_all_m(m):
    g = build_theorem2(2, m)
    labels, _ = label_theorem2(2, m)
    idx = {t: v for v, t in enumerate(g.tags)}
    assert labels[idx["u2"]] == labels[idx["w1"]] == 2 * g.q - 9
    report = verify_odd_graceful(g, labels)
    dups = [v for v in report.violations if v.kind == DUPLICATE_VERTEX_LABEL]
    assert len(dups) == 1 and dups[0].label == 2 * g.q - 9


@pytest.mark.parametrize("m", range(1, 6))
def test_theorem2_literal_passes_at_n3(m):
    labels, _ = label_theorem2(3, m)
    assert verify_odd_graceful(build_theorem2(3, m), labels).ok


@pytest.mark.parametrize("n", range(4, 11))
def test_theorem2_literal_w_collides_with_v6_from_n4(n):
    # w_n = 2q-5 meets v6 = 2q-6+1 once the v path reaches index 6
    g = build_theorem2(n, 1)
    labels, _ = label_theorem2(n, 1)
    idx = {t: v for v, t in enumerate(g.tags)}
    assert labels[idx[f"w{n}"]] == labels[idx["v6"]] == 2 * g.q - 5
    report = verify_odd_graceful(g, labels)
    dups = [v for v in report.violations if v.kind == DUPLICATE_VERTEX_LABEL]
    assert [str(g.tags[v]) for v in dups[0].vertex_ids] == ["v6", f"w{n}"]


def test_theorem3_frozen_instances():
    g = build_theorem3(1, 1)
    labels, interp = label_theorem3(1, 1)
    assert labels == T3_1_1
    assert interp.uncovered == ()
    report = verify_odd_graceful(g, labels)
    assert report.ok
    got = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
    assert got == list(range(1, 24, 2))

    g = build_theorem3(1, 2)
    labels, _ = label_theorem3(1, 2)
    assert labels == T3_1_2
    assert verify_odd_graceful(g, labels).ok


@pytest.mark.parametrize("m", range(1, 6))
def test_theorem3_k1_passes(m):
    labels, interp = label_theorem3(1, m)
    assert interp.uncovered == ()
    assert verify_odd_graceful(build_theorem3(1, m), labels).ok


def test_theorem3_k2_partial_with_edge_collision():
    g = build_theorem3(2, 1)
    labels, interp = label_theorem3(2, 1)
    assert [str(t) for t in interp.uncovered] == ["p(y1,1)"]
    assert labels == T3_2_1
    report = verify_odd_graceful(g, labels)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == [MISSING_VERTEX_LABEL, DUPLICATE_EDGE_LABEL,
                     MISSING_ODD_EDGE_LABEL, MISSING_ODD_EDGE_LABEL]
    missing, dup = report.violations[0], report.violations[1]
    assert str(g.tags[missing.vertex_ids[0]]) == "p(y1,1)"
    assert dup.label == 21
    dup_tags = {frozenset(str(g.tags[x]) for x in e) for e in dup.edge_ids}
    assert dup_tags == {frozenset({"z2", "p(z2,1)"}),
                        frozenset({"y2", "p(y2,1)"})}
    assert {v.label for v in report.violations[2:]} == {11, 13}


@pytest.mark.parametrize("k,holes", [(2, ["p(y1,1)"]), (3, ["p(y1,1)"]),
                                     (4, ["p(y1,1)"]),
                                     (5, ["p(y1,1)", "p(y3,1)"]),
                                     (6, ["p(y1,1)"]),
                                     (7, ["p(y1,1)", "p(y5,1)"])])
def test_theorem3_uncovered_pattern(k, holes):
    _, interp = label_theorem3(k, 1)
    assert [str(t) for t in interp.uncovered] == holes


def test_theorem3_uncovered_scales_with_m():
    _, interp = label_theorem3(2, 3)
    assert [str(t) for t in interp.uncovered] == [
        "p(y1,1)", "p(y1,2)", "p(y1,3)"]


def test_max_label_attained_on_passing_instances():
    cases = [(label_theorem1, build_theorem1, (3, 2)),
             (label_theorem2, build_theorem2, (3, 1)),
             (label_theorem3, build_theorem3, (1, 4))]
    for labeler, builder, (a, m) in cases:
        g = builder(a, m)
        labels, _ = labeler(a, m)
        assert verify_odd_graceful(g, labels).ok
        assert max(labels) == 2 * g.q - 1


def test_labelers_are_deterministic():
    for labeler, args in ((label_theorem1, (4, 2)), (label_theorem2, (4, 2)),
                          (label_theorem3, (3, 2))):
        assert labeler(*args) == labeler(*args)


def test_labelers_reject_domain_violations():
    for labeler in (label_theorem1, label_theorem2):
        with pytest.raises(ValueError):
            labeler(1, 1)
    with pytest.raises(ValueError):
        label_theorem3(0, 1)
    with pytest.raises(ValueError):
        label_theorem3(1, 0)
    # a size that is not an int, bools included, as the builders reject it
    for labeler, a, m in ((label_theorem2, 2, True), (label_theorem3, True, 1),
                          (label_theorem1, 2.0, 1), (label_theorem1, 2, 1.0)):
        with pytest.raises(ValueError):
            labeler(a, m)


# -- arithmetic vertex ids ----------------------------------------------------

AUDIT_GRID = ("theorem1:n=2..100,m=1..5;theorem2:n=2..50,m=1..5;"
              "theorem3:k=1..50,m=1..5")
# sha256 over labeling_to_json(g, labels) then interp.to_json() for every
# AUDIT_GRID instance in sorted order, apply_repairs False then True; taken
# when the labelers still looked their vertex ids up by tag
AUDIT_GRID_LABELINGS_SHA256 = (
    "351f2bf9854792b976638b728a7d106590cd9ebfb6f7f499b98cd732dde5360a")


def test_labelers_match_golden_digest_on_audit_grid():
    digest = hashlib.sha256()
    for number, a, m in sorted(set(parse_grid(AUDIT_GRID))):
        _, build, label, _ = _THEOREMS[number]
        g = build(a, m)
        for repairs in (False, True):
            labels, interp = label(a, m, apply_repairs=repairs)
            digest.update(labeling_to_json(g, labels).encode("utf-8"))
            digest.update(interp.to_json().encode("utf-8"))
    assert digest.hexdigest() == AUDIT_GRID_LABELINGS_SHA256


# the vertex every scheme labels 2q-1: v2 in schemes 1 and 2, v1 in scheme 3
TOP_VERTEX = {1: "v2", 2: "v2", 3: "v1"}


@pytest.mark.parametrize("repairs", (False, True))
@pytest.mark.parametrize("number,a,m", [
    (1, 2, 1), (1, 5, 3), (1, 8, 2), (2, 2, 1), (2, 4, 2), (2, 7, 3),
    (3, 1, 1), (3, 2, 3), (3, 5, 1), (3, 8, 2)])
def test_labeler_ids_and_q_match_the_built_graph(number, a, m, repairs):
    _, build, label, _ = _THEOREMS[number]
    g = build(a, m)
    labels, interp = label(a, m, apply_repairs=repairs)
    idx = {t: v for v, t in enumerate(g.tags)}
    uncovered = sorted(idx[str(t)] for t in interp.uncovered)
    assert len(labels) == g.p
    assert [v for v, x in enumerate(labels) if x is None] == uncovered
    assert labels[idx[TOP_VERTEX[number]]] == 2 * g.q - 1


# -- the scheme tables --------------------------------------------------------

def rows_in_effect(number, a, m, repairs):
    """The scheme's rows at (a, m), each repaired row replaced when repairs
    is set, and the repairs as {name: row}."""
    _, rows, fixes = SCHEMES[number](a, m, theorem_order(number, a, m).q)
    fixes = {name: row for name, (_, row) in fixes.items()}
    return ({**rows, **fixes} if repairs else rows), fixes


def row_labels(idx, row, m):
    """{vertex id: label} of one row, its formula evaluated once per vertex
    and each id looked up in idx, the tag index of the built graph."""
    letter, is_pendant, indices, label = row
    js = range(1, m + 1) if is_pendant else (0,)
    return {idx[pendant(f"{letter}{i}", j) if j else f"{letter}{i}"]:
            label(i, j) for i in indices for j in js}


def test_scheme_rows_write_disjoint_vertices():
    for number, a, m in sorted(set(parse_grid(AUDIT_GRID))):
        g = _THEOREMS[number][1](a, m)
        idx = {t: v for v, t in enumerate(g.tags)}
        for repairs in (False, True):
            rows, fixes = rows_in_effect(number, a, m, repairs)
            written = [set(row_labels(idx, row, m)) for row in rows.values()]
            assert len(set().union(*written)) == sum(map(len, written)), \
                (number, a, m, repairs)
        # a repair covers the row it replaces, so writing it over the
        # literal labeling replaces that row
        literal, _ = rows_in_effect(number, a, m, False)
        for name, row in fixes.items():
            assert set(row_labels(idx, row, m)) >= set(
                row_labels(idx, literal[name], m))


def assert_labeler_matches_rows(number, a, m, g):
    """The labeler's slices equal the rows evaluated vertex by vertex, under
    both repair settings, and uncovered names exactly the rest."""
    idx = {t: v for v, t in enumerate(g.tags)}
    for repairs in (False, True):
        want = [None] * g.p
        rows, _ = rows_in_effect(number, a, m, repairs)
        for row in rows.values():
            for v, x in row_labels(idx, row, m).items():
                want[v] = x
        labels, interp = _THEOREMS[number][2](a, m, apply_repairs=repairs)
        assert labels == want, (number, a, m, repairs)
        assert list(interp.uncovered) == [
            g.tags[v] for v, x in enumerate(want) if x is None]


def test_labelers_match_rows_evaluated_per_vertex_on_audit_grid():
    for number, a, m in sorted(set(parse_grid(AUDIT_GRID))):
        assert_labeler_matches_rows(number, a, m, _THEOREMS[number][1](a, m))


@pytest.mark.parametrize("number,a,m", LARGE_INSTANCES)
def test_labelers_match_rows_evaluated_per_vertex_on_large_instances(
        number, a, m):
    assert_labeler_matches_rows(number, a, m, _THEOREMS[number][1](a, m))


@pytest.fixture
def graphs_constructed(monkeypatch):
    """List that every Graph constructed during the test is appended to."""
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    return built


def test_labelers_construct_no_graph(graphs_constructed):
    for labeler, a in ((label_theorem1, 5), (label_theorem2, 4),
                       (label_theorem3, 5)):
        for repairs in (False, True):
            labeler(a, 2, apply_repairs=repairs)
    assert graphs_constructed == []


def test_builders_construct_one_graph(graphs_constructed):
    for build, a in ((build_theorem1, 3), (build_theorem2, 3),
                     (build_theorem3, 2)):
        graphs_constructed.clear()
        g = build(a, 2)
        assert graphs_constructed == [g]


def test_builders_and_labelers_construct_one_order(monkeypatch):
    # one checked IdOrder per call gives the domain check, p, q and the ids
    orders = []
    init = IdOrder.__init__

    def counting_init(self, *args):
        orders.append(args)
        init(self, *args)

    monkeypatch.setattr(IdOrder, "__init__", counting_init)
    for number, a in ((1, 3), (2, 3), (3, 2)):
        _, build, label, _ = _THEOREMS[number]
        for call in (lambda: build(a, 2), lambda: label(a, 2),
                     lambda: label(a, 2, apply_repairs=True)):
            orders.clear()
            call()
            assert orders == [(number, a, 2)]


# -- quarantined repairs ------------------------------------------------------


def test_repairs_match_literal_rows_at_verified_instances():
    for n, m in ((2, 1), (3, 1), (2, 2), (4, 3)):
        assert label_theorem1(n, m)[0] == \
            label_theorem1(n, m, apply_repairs=True)[0]
    assert label_theorem2(3, 1)[0] == \
        label_theorem2(3, 1, apply_repairs=True)[0]


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(2, 11))
def test_repaired_theorem1_passes_whole_grid(n, m):
    labels, interp = label_theorem1(n, m, apply_repairs=True)
    assert verify_odd_graceful(build_theorem1(n, m), labels).ok
    note_ids = [fid for fid, _ in interp.notes]
    assert ("t1.repair.v-odd-row" in note_ids) == (n >= 5)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(2, 11))
def test_repaired_theorem2_passes_whole_grid(n, m):
    labels, interp = label_theorem2(n, m, apply_repairs=True)
    assert verify_odd_graceful(build_theorem2(n, m), labels).ok
    note_ids = [fid for fid, _ in interp.notes]
    assert ("t2.repair.w-row" in note_ids) == (n != 3)


@pytest.mark.parametrize("k", range(2, 8))
def test_repaired_theorem3_covers_everything_but_still_collides(k):
    labels, interp = label_theorem3(k, 2, apply_repairs=True)
    g = build_theorem3(k, 2)
    assert interp.uncovered == ()
    assert len(labels) == g.p
    assert "t3.repair.y-odd-rows" in [fid for fid, _ in interp.notes]
    # range repairs cannot fix the y_k/z value collisions
    assert not verify_odd_graceful(g, labels).ok


def test_repairs_default_off():
    labels, interp = label_theorem1(5, 1)
    assert "t1.repair.v-odd-row" not in [fid for fid, _ in interp.notes]
    assert not verify_odd_graceful(build_theorem1(5, 1), labels).ok
