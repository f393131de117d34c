"""Pass a tier-1 test run only when it fails exactly as expected.

Usage: python .github/tier1_gate.py TIER1_JUNIT_XML

Reads the JUnit XML that `pytest --junitxml` writes and exits 0 only when
the run holds tests, none of them errored, and the failed tests are exactly
EXPECTED_FAILURES: the audits of schemes 1 and 2, which fail because the
paper's closed forms break on part of the audit grid.  Anything else, one
more failure or one of these passing, exits 1 and says what differs.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_2_theorem1_audit",
    "tests.test_acceptance::test_criterion_3_theorem2_audit",
}


def main(path: str) -> int:
    cases = list(ET.parse(path).iter("testcase"))
    failed, errored = set(), set()
    for case in cases:
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None:
            failed.add(name)
        if case.find("error") is not None:
            errored.add(name)
    problems = [f"errored: {name}" for name in sorted(errored)]
    problems += [f"failed unexpectedly: {name}"
                 for name in sorted(failed - EXPECTED_FAILURES)]
    problems += [f"expected to fail but did not: {name}"
                 for name in sorted(EXPECTED_FAILURES - failed)]
    if not cases:
        problems.append("no test ran")
    print(f"{len(cases)} tests, {len(failed)} failed, {len(errored)} errored")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
