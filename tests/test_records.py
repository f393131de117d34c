"""The package's records are NamedTuples: immutable, with their defaults,
equal to the plain tuple of their fields, and written to JSON by their own
methods, byte for byte as pinned and as a reference writer kept here
spells them out (a record serialized whole would come out as a JSON
list)."""

import json

import pytest

from oddgraceful import (Family, FormulaInterpretation, SearchConfig,
                         SearchOutcome, SearchStats, VerificationReport,
                         build_theorem2, cycle_graph, find_odd_graceful,
                         label_theorem2, label_theorem3, verify_odd_graceful)
from oddgraceful.canon import canonical_dumps, sha256_hex
from oddgraceful.cli import _THEOREMS, parse_grid
from oddgraceful.graphs import THEOREM_FAMILIES
from test_formulas import AUDIT_GRID
from test_search import PINNED_STATS

STATS = SearchStats(nodes_expanded=3, backtracks=1, elapsed_ms=0,
                    max_depth=2)

# one instance of each record, built with every default it has, and the
# field values those defaults must give
RECORDS = {
    "Family": (Family("ladder"), {"n": None, "k": None, "m": None}),
    "TheoremFamily": (THEOREM_FAMILIES[1], {}),
    "VerificationReport": (VerificationReport(True, 0), {"violations": ()}),
    "FormulaInterpretation": (FormulaInterpretation(),
                              {"notes": (), "uncovered": ()}),
    "SearchConfig": (SearchConfig(),
                     {"node_budget": None, "time_budget_ms": None}),
    "SearchStats": (STATS, {}),
    "SearchOutcome": (SearchOutcome("none", STATS),
                      {"reason": None, "labeling": None}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record, defaults = RECORDS[name]
    for field in (*record._fields, "unknown_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert {f: getattr(record, f) for f in defaults} == defaults
    assert record == tuple(getattr(record, f) for f in record._fields)


def test_record_json_matches_golden_digests():
    g = build_theorem2(4, 1)
    report = verify_odd_graceful(g, label_theorem2(4, 1)[0])
    assert sha256_hex(report.to_json(g)) == (
        "b4dc7725767c3e14e5398d27ad4583ca1e3663b20f2894a8fb9249775bc8952c")

    interp = label_theorem3(2, 1)[1]
    assert sha256_hex(interp.to_json()) == (
        "5eb080686cb7a70bca40f7ee9c9f40134579982c301abeda87d67a1f40d7dcf7")

    obj = json.loads(find_odd_graceful(cycle_graph(6)).to_json())
    del obj["stats"]["elapsed_ms"]  # the only field that varies by run
    assert sha256_hex(canonical_dumps(obj)) == (
        "736b9bc57eb32b3eab4e75f4bab9386e91988fb17c489509efbd0755cb37c5f9")


# -- reference writer: each record's JSON object spelled out, key by key,
# with lists where the records hold tuples

def reference_violation(v, g):
    return {"kind": v.kind,
            "vertices": [g.tag(x) for x in v.vertex_ids],
            "vertex_ids": list(v.vertex_ids),
            "edges": [[g.tag(a), g.tag(b)] for a, b in v.edge_ids],
            "edge_ids": [[a, b] for a, b in v.edge_ids],
            "label": v.label}


def reference_report(report, g):
    return {"ok": report.ok, "q": report.q,
            "violations": [reference_violation(v, g)
                           for v in report.violations]}


def reference_interpretation(interp):
    return {"notes": [[fid, text] for fid, text in interp.notes],
            "uncovered": list(interp.uncovered)}


def reference_outcome(outcome):
    return {"outcome": outcome.status, "reason": outcome.reason,
            "labels": outcome.labeling,
            "stats": {"nodes": outcome.stats.nodes_expanded,
                      "backtracks": outcome.stats.backtracks,
                      "elapsed_ms": outcome.stats.elapsed_ms,
                      "max_depth": outcome.stats.max_depth}}


def test_report_and_interpretation_json_match_reference_on_audit_grid():
    for number, a, m in sorted(set(parse_grid(AUDIT_GRID))):
        _, build, label, _ = _THEOREMS[number]
        g = build(a, m)
        for repairs in (False, True):
            labels, interp = label(a, m, apply_repairs=repairs)
            report = verify_odd_graceful(g, labels)
            assert report.to_json(g) == canonical_dumps(
                reference_report(report, g)), (number, a, m, repairs)
            assert interp.to_json() == canonical_dumps(
                reference_interpretation(interp)), (number, a, m, repairs)


@pytest.mark.parametrize("name", list(PINNED_STATS))
def test_outcome_json_matches_reference(name):
    make, budget = PINNED_STATS[name][:2]
    outcome = find_odd_graceful(make(), SearchConfig(node_budget=budget))
    # elapsed_ms is read from the same outcome, so the whole text compares
    assert outcome.to_json() == canonical_dumps(reference_outcome(outcome))
