"""The audit benchmark's contract with the package: one untraced and one
traced pass of each workload of auditbench/worker.py (audit-grid,
large-instance and search-audit) must each check out with no failures.
This catches a change that breaks a name, a shape or a pinned output the
benchmark relies on (the sweep CSV sha256, the large instances' verdicts
and fingerprints, the search verdicts and their JSON), on either path."""

import random
import sys
from pathlib import Path

import pytest

import oddgraceful

AUDITBENCH = Path(__file__).resolve().parent.parent / "auditbench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(AUDITBENCH))
    try:
        import worker
    finally:
        sys.path.remove(str(AUDITBENCH))
    return worker


@pytest.mark.parametrize("name", ["audit-grid", "large-instance",
                                  "search-audit"])
def test_untraced_pass_has_no_failures(worker, name):
    workload = worker.WORKLOADS[name](oddgraceful, random.Random(0))
    result = workload.run_pass(None)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("name", ["audit-grid", "large-instance",
                                  "search-audit"])
def test_traced_pass_has_no_failures(worker, name):
    workload = worker.WORKLOADS[name](oddgraceful, random.Random(0))
    result = workload.run_pass(worker.Tracer())
    assert result.attempted > 0
    assert result.failed == 0
