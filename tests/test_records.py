"""The package's records are NamedTuples: immutable, with their defaults,
equal to the plain tuple of their fields, and written to JSON by their own
methods, byte for byte as pinned (a record serialized whole would come out
as a JSON list)."""

import pytest

from oddgraceful import (Family, FormulaInterpretation, SearchConfig,
                         SearchOutcome, SearchStats, VerificationReport,
                         build_theorem2, cycle_graph, find_odd_graceful,
                         label_theorem2, label_theorem3, verify_odd_graceful)
from oddgraceful.canon import canonical_dumps, sha256_hex
from oddgraceful.graphs import THEOREM_FAMILIES

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

    obj = find_odd_graceful(cycle_graph(6)).to_json_obj()
    del obj["stats"]["elapsed_ms"]  # the only field that varies by run
    assert sha256_hex(canonical_dumps(obj)) == (
        "736b9bc57eb32b3eab4e75f4bab9386e91988fb17c489509efbd0755cb37c5f9")
