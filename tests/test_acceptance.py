"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 2 and 3 are transcribed exactly as stated even though parts of
them are mathematically unattainable, so they fail by design; the failure
messages carry the hand-checkable counterexamples.  In short:

* criterion 2 expects the scheme-1 labeling to pass for every n in 2..10,
  but the declared odd-index v-pendant row duplicates an even-row pendant
  edge label once n reaches 5 (at n=5, m=1 both evaluate to 7, and 9 is
  never attained), so the 30 instances with n >= 5 fail;
* criterion 3 expects scheme 2 to pass for n in 3..10, but the declared
  w row gives w_n = 2q-5 = v6 for every n >= 4, so only n=3 passes;

Criterion 5 departs from its stated verdict table in one entry: the table
says none for C6, but C6 carries the odd-graceful labeling (0,1,4,9,2,11)
around the cycle, with edge labels {1,3,5,7,9,11} = {1, ..., 2q-1} for q=6.
That agrees with C_n being odd-graceful exactly when n is even (Gnanajothi
1991, via Gallian's survey) and with exhaustive enumeration over all
injections, so the test expects found for C6.

Everything else, including every hand-verified instance these expectations
extrapolate from, passes.
"""

import time

from constructions import corona_pendants, path_graph, triangular_snake
from oddgraceful import (SearchConfig, build_theorem1, build_theorem2,
                         build_theorem3, complement_labeling, cycle_graph,
                         exhaustive_oracle, find_odd_graceful, label_theorem1,
                         label_theorem2, label_theorem3, verify_odd_graceful)
from oddgraceful.cli import build_sweep_rows, main, parse_grid, rows_to_csv
from oddgraceful.labeling import DUPLICATE_EDGE_LABEL, DUPLICATE_VERTEX_LABEL


def _criterion(number, description, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_count_formulas():
    def body():
        t0 = time.perf_counter()
        for n in range(2, 11):
            for m in range(1, 6):
                g1 = build_theorem1(n, m)
                assert (g1.p, g1.q) == (2 * n * (m + 1), 2 * m * n + 3 * n - 2)
                g2 = build_theorem2(n, m)
                assert (g2.p, g2.q) == ((5 * n - 2) * (m + 1),
                                        m * (5 * n - 2) + 2 * (3 * n - 2))
        for k in range(1, 11):
            for m in range(1, 6):
                g3 = build_theorem3(k, m)
                assert (g3.p, g3.q) == ((5 * k + 1) * (m + 1),
                                        (5 * m + 6) * k + m)
        assert time.perf_counter() - t0 < 1.0

    _criterion(1, "count formulas exact on the full grids", body)


def test_criterion_2_theorem1_audit():
    def body():
        t0 = time.perf_counter()
        failures = []
        for n in range(2, 11):
            for m in range(1, 6):
                g = build_theorem1(n, m)
                labels, _ = label_theorem1(n, m)
                report = verify_odd_graceful(g, labels)
                if report.ok:
                    got = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
                    assert got == list(range(1, 2 * g.q, 2)), (n, m)
                else:
                    failures.append(
                        (n, m, report.violations[0].short(g)))
        elapsed = time.perf_counter() - t0
        assert not failures, (
            "criterion expects all 45 instances to pass, but the declared "
            "odd-index v-pendant row 2m(i-1)+2j+1 collides with the even "
            "row from i=5 on (at n=5, m=1: |43-36| = |4-11| = 7 twice, 9 "
            f"never attained); failing instances: {failures}")
        assert elapsed < 1.0

    _criterion(2, "scheme-1 labelings verify on 2..10 x 1..5", body)


def test_criterion_3_theorem2_audit():
    def body():
        t0 = time.perf_counter()
        for m in range(1, 6):  # n = 2: exactly one DuplicateVertexLabel
            g = build_theorem2(2, m)
            labels, _ = label_theorem2(2, m)
            report = verify_odd_graceful(g, labels)
            assert not report.ok
            dups = [v for v in report.violations
                    if v.kind == DUPLICATE_VERTEX_LABEL]
            assert len(dups) == 1, (2, m)
            assert [str(g.tags[v]) for v in dups[0].vertex_ids] == ["u2", "w1"]
            assert dups[0].label == 2 * g.q - 9
        failures = []
        for n in range(3, 11):
            for m in range(1, 6):
                g = build_theorem2(n, m)
                labels, _ = label_theorem2(n, m)
                report = verify_odd_graceful(g, labels)
                if not report.ok:
                    failures.append((n, m, report.violations[0].short(g)))
        elapsed = time.perf_counter() - t0
        assert not failures, (
            "criterion expects every n in 3..10 to pass, but the declared "
            "w row 2q-1-4n+4(i-1) gives w_n = 2q-5 = v6 whenever n >= 4, "
            f"so only n=3 passes; failing instances: {failures}")
        assert elapsed < 1.0

    _criterion(3, "scheme-2 audit: n=2 collides on (u2,w1,2q-9), n>=3 pass",
               body)


def test_criterion_4_theorem3_audit():
    def body():
        for m in range(1, 6):
            g = build_theorem3(1, m)
            labels, interp = label_theorem3(1, m)
            assert interp.uncovered == ()
            assert verify_odd_graceful(g, labels).ok, (1, m)

        rows = build_sweep_rows(parse_grid("theorem3:k=1..2,m=1"), "never", 0)
        by_key = {(r["n_or_k"], r["m"]): r for r in rows}
        assert by_key[(1, 1)]["closed_form_verdict"] == "pass"
        row = by_key[(2, 1)]
        assert row["closed_form_verdict"] == "partial(1)"
        assert row["first_violation"] == "DuplicateEdgeLabel(21)"

        g = build_theorem3(2, 1)
        labels, interp = label_theorem3(2, 1)
        assert [str(t) for t in interp.uncovered] == ["p(y1,1)"]
        report = verify_odd_graceful(g, labels)
        dups = [v for v in report.violations
                if v.kind == DUPLICATE_EDGE_LABEL]
        assert len(dups) == 1 and dups[0].label == 21
        involved = {frozenset(str(g.tags[x]) for x in e)
                    for e in dups[0].edge_ids}
        assert involved == {frozenset({"z2", "p(z2,1)"}),
                            frozenset({"y2", "p(y2,1)"})}

    _criterion(4, "scheme-3 audit: k=1 passes, (2,1) partial with "
                  "uncovered y1-pendant and duplicate edge label 21", body)


def test_criterion_5_oracle_agreement():
    def body():
        t0 = time.perf_counter()
        corpus = {
            "P2": (path_graph(2), "found"),
            "P3": (path_graph(3), "found"),
            "P4": (path_graph(4), "found"),
            "C3": (cycle_graph(3), "none"),
            "C4": (cycle_graph(4), "found"),
            "C5": (cycle_graph(5), "none"),
            "C6": (cycle_graph(6), "found"),
            "snake1": (triangular_snake(1), "none"),
            "K13": (corona_pendants(path_graph(1), 3), "found"),
        }
        mismatches = []
        for name, (g, expected) in corpus.items():
            engine = find_odd_graceful(g)
            if g.q <= 6:
                oracle = exhaustive_oracle(g)
                assert engine.status == oracle.status, name
            if engine.status == "found":
                assert verify_odd_graceful(g, engine.labeling).ok, (
                    name, engine.labeling)
            if engine.status != expected:
                detail = ""
                if engine.status == "found":
                    detail = f" (labeling {engine.labeling})"
                mismatches.append(f"{name}: expected {expected}, "
                                  f"search says {engine.status}{detail}")
        elapsed = time.perf_counter() - t0
        assert not mismatches, (
            "verdicts differ from the expected-verdict table: "
            f"{mismatches}")
        assert elapsed < 10.0

    _criterion(5, "engine/oracle agreement and expected verdicts on the "
                  "small corpus", body)


def test_criterion_6_search_finds_theorem1_instance():
    def body():
        g = build_theorem1(2, 1)
        outcome = find_odd_graceful(g, SearchConfig(node_budget=10 ** 6))
        assert outcome.status == "found"
        assert outcome.stats.nodes_expanded <= 10 ** 6
        assert verify_odd_graceful(g, outcome.labeling).ok

    _criterion(6, "complete search finds a labeling of the (2,1) ladder "
                  "family instance within 10^6 nodes", body)


def _passing_labelings():
    """Every passing labeling produced by criteria 2-6."""
    out = []
    for n in range(2, 11):
        for m in range(1, 6):
            g = build_theorem1(n, m)
            labels, _ = label_theorem1(n, m)
            if verify_odd_graceful(g, labels).ok:
                out.append((g, labels))
            g = build_theorem2(n, m)
            labels, _ = label_theorem2(n, m)
            if verify_odd_graceful(g, labels).ok:
                out.append((g, labels))
    for m in range(1, 6):
        g = build_theorem3(1, m)
        labels, _ = label_theorem3(1, m)
        if verify_odd_graceful(g, labels).ok:
            out.append((g, labels))
    for g in (path_graph(2), path_graph(3), path_graph(4), cycle_graph(4),
              cycle_graph(6), corona_pendants(path_graph(1), 3),
              build_theorem1(2, 1)):
        outcome = find_odd_graceful(g)
        if outcome.status == "found":
            out.append((g, outcome.labeling))
    return out


def test_criterion_7_metamorphic_suite():
    def body():
        cases = _passing_labelings()
        assert len(cases) >= 20
        for g, labels in cases:
            comp = complement_labeling(g, labels)
            assert verify_odd_graceful(g, comp).ok
            for a, b in g.edges:
                assert (labels[a] + labels[b]) % 2 == 1

    _criterion(7, "complement labelings pass and label parity 2-colors "
                  "every passing instance", body)


def test_criterion_8_determinism(tmp_path):
    def body():
        grid = ("theorem1:n=2..10,m=1..5;theorem2:n=2..10,m=1..5;"
                "theorem3:k=1..10,m=1..5")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"sweep-{name}.csv"
            code = main(["sweep", "--grid", grid, "--search-policy", "never",
                         "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        artifacts = []
        for name in ("a", "b"):
            gpath = tmp_path / f"g-{name}.json"
            lpath = tmp_path / f"l-{name}.json"
            assert main(["gen", "--family", "sub-tri-snake", "--k", "2",
                         "--m", "1", "--out", str(gpath)]) == 0
            assert main(["label", "--theorem", "3", "--k", "2", "--m", "1",
                         "--out", str(lpath)]) == 0
            sidecar = lpath.with_name(lpath.name[:-5] + ".interp.json")
            artifacts.append(gpath.read_bytes() + lpath.read_bytes()
                             + sidecar.read_bytes())
        assert artifacts[0] == artifacts[1]

        rows = build_sweep_rows(parse_grid("theorem1:n=2..4,m=1"), "never", 0)
        assert rows_to_csv(rows) == rows_to_csv(
            build_sweep_rows(parse_grid("theorem1:n=2..4,m=1"), "never", 0))

    _criterion(8, "full sweep and file artifacts are byte-identical across "
                  "repeat runs", body)
