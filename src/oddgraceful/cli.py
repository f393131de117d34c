"""Command-line surface: generate graphs, apply closed-form labelings,
verify, search, sweep parameter grids, and export DOT.

Exit codes: 0 success (verify: labeling ok; search: found), 1 verify found
violations / search certified none / sweep mismatched the expected table,
2 invalid arguments, unreadable or mismatched files, 3 search budget
exhausted.  Reports go to stdout, diagnostics to stderr; exit codes are the
only machine contract on the status channel.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from .canon import canonical_dumps
from .formulas import label_theorem1, label_theorem2, label_theorem3
from .graphs import (Graph, build_theorem1, build_theorem2, build_theorem3,
                     check_theorem_domain)
from .labeling import (MISSING_VERTEX_LABEL, labeling_from_json_obj,
                       labeling_to_json, verify_odd_graceful)
from .search import SearchConfig, find_odd_graceful

FAMILIES = ("ladder", "sub-ladder", "sub-tri-snake")  # theorems 1, 2, 3
_THEOREMS = {
    1: ("n", build_theorem1, label_theorem1, "theorem1"),
    2: ("n", build_theorem2, label_theorem2, "theorem2"),
    3: ("k", build_theorem3, label_theorem3, "theorem3"),
}

SWEEP_HEADER = ("family,n_or_k,m,p,q,closed_form_verdict,first_violation,"
                "search_outcome,search_nodes,elapsed_ms")
SWEEP_SEARCH_Q_CAP = 30
SWEEP_DEFAULT_NODE_BUDGET = 10_000_000


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_graph(path: str) -> Graph:
    return Graph.from_json_obj(_load_json(path))


def _write_outputs(*files) -> int:
    """Write (path, text) pairs.  Returns exit status 0, or 2 with an error
    line when a path cannot be written."""
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        return _fail(str(exc))
    return 0


def _sidecar_path(out_path: str) -> str:
    if out_path.endswith(".json"):
        return out_path[: -len(".json")] + ".interp.json"
    return out_path + ".interp.json"


# -- commands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    param, builder, _, _ = _THEOREMS[FAMILIES.index(args.family) + 1]
    value = getattr(args, param)
    if value is None:
        return _fail(f"family {args.family} needs --{param}")
    try:
        g = builder(value, args.m)
    except ValueError as exc:
        return _fail(str(exc))
    return _write_outputs((args.out, g.to_json()))


def cmd_label(args) -> int:
    param, builder, labeler, _ = _THEOREMS[args.theorem]
    value = getattr(args, param)
    if value is None:
        return _fail(f"theorem {args.theorem} needs --{param}")
    try:
        g = builder(value, args.m)
        labels, interp = labeler(value, args.m)
    except ValueError as exc:
        return _fail(str(exc))
    return _write_outputs((args.out, labeling_to_json(g, labels)),
                          (_sidecar_path(args.out), interp.to_json()))


def cmd_verify(args) -> int:
    try:
        g = _load_graph(args.graph)
        raw = _load_json(args.labeling)
        fp, labels = labeling_from_json_obj(raw)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    if fp != g.fingerprint():
        return _fail("labeling fingerprint does not match the graph")
    if len(raw["labels"]) != g.p:
        return _fail("labeling array length does not match the vertex count")
    report = verify_odd_graceful(g, labels)
    sys.stdout.write(report.to_json(g))
    return 0 if report.ok else 1


def cmd_search(args) -> int:
    try:
        cfg = SearchConfig(node_budget=args.max_nodes,
                           time_budget_ms=args.timeout_ms)
        g = _load_graph(args.graph)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    try:
        outcome = find_odd_graceful(g, cfg)
    except ValueError as exc:
        return _fail(str(exc))
    sys.stdout.write(outcome.to_json())
    if outcome.status == "found":
        return 0
    if outcome.status == "none":
        return 1
    return 3


def parse_grid(spec: str):
    """Grid spec: semicolon-separated clauses 'theorem1:n=2..10,m=1..5'.

    theorem1/theorem2 take n, theorem3 takes k.  Ranges are 'lo..hi' or a
    single integer, and must lie in the theorem's domain (n >= 2, k >= 1,
    m >= 1).  Returns a list of (theorem_number, param_value, m).
    """
    def parse_range(text):
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)

    instances = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, params = clause.partition(":")
        name = name.strip()
        if name not in ("theorem1", "theorem2", "theorem3"):
            raise ValueError(f"unknown family {name!r} in grid")
        number = int(name[-1])
        expected_param = _THEOREMS[number][0]
        ranges = {}
        for item in params.split(","):
            key, _, value = item.strip().partition("=")
            if key not in (expected_param, "m") or not value:
                raise ValueError(f"bad grid item {item!r} for {name}")
            ranges[key] = parse_range(value)
        if expected_param not in ranges or "m" not in ranges:
            raise ValueError(f"{name} needs {expected_param}= and m= ranges")
        try:
            check_theorem_domain(number, ranges[expected_param][0],
                                 ranges["m"][0])
        except ValueError as exc:
            raise ValueError(f"grid clause {clause!r}: {exc}") from None
        for a in ranges[expected_param]:
            for m in ranges["m"]:
                instances.append((number, a, m))
    if not instances:
        raise ValueError("grid is empty")
    return instances


def build_sweep_rows(instances, policy: str, node_budget: int):
    """One row dict per instance, sorted by (family, n_or_k, m).

    Search runs per policy: 'never', 'on-fail' (closed-form verification
    failed and q <= 30), or 'always' (still capped at q <= 30).  Rows not
    searched carry zeros in the statistics columns.
    """
    rows = []
    for number, a, m in sorted(set(instances)):
        param, builder, labeler, family = _THEOREMS[number]
        g = builder(a, m)
        labels, interp = labeler(a, m)
        report = verify_odd_graceful(g, labels)
        if report.ok:
            verdict = "pass"
        elif interp.uncovered:
            verdict = f"partial({len(interp.uncovered)})"
        else:
            verdict = "fail"
        uncovered = set(interp.uncovered)
        first = ""
        for violation in report.violations:
            if (violation.kind == MISSING_VERTEX_LABEL
                    and g.tags[violation.vertex_ids[0]] in uncovered):
                continue  # already summarized by the partial verdict
            first = violation.short(g)
            break
        run_search = (policy == "always" or
                      (policy == "on-fail" and not report.ok))
        if run_search and g.q <= SWEEP_SEARCH_Q_CAP:
            outcome = find_odd_graceful(
                g, SearchConfig(node_budget=node_budget))
            search_outcome = outcome.status
            search_nodes = outcome.stats.nodes_expanded
            elapsed_ms = outcome.stats.elapsed_ms
        else:
            search_outcome, search_nodes, elapsed_ms = "skipped", 0, 0
        rows.append({
            "family": family,
            "n_or_k": a,
            "m": m,
            "p": g.p,
            "q": g.q,
            "closed_form_verdict": verdict,
            "first_violation": first,
            "search_outcome": search_outcome,
            "search_nodes": search_nodes,
            "elapsed_ms": elapsed_ms,
        })
    return rows


def rows_to_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{r['family']},{r['n_or_k']},{r['m']},{r['p']},{r['q']},"
            f"{r['closed_form_verdict']},{r['first_violation']},"
            f"{r['search_outcome']},{r['search_nodes']},{r['elapsed_ms']}")
    return "\n".join(lines) + "\n"


def _load_expected(path: str):
    expected = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "family,n_or_k,m,verdict":
        raise ValueError("expected table needs header family,n_or_k,m,verdict")
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad expected row {ln!r}")
        expected[(parts[0], int(parts[1]), int(parts[2]))] = parts[3]
    return expected


def cmd_sweep(args) -> int:
    node_budget = (args.max_nodes if args.max_nodes is not None
                   else SWEEP_DEFAULT_NODE_BUDGET)
    try:
        SearchConfig(node_budget=node_budget)  # rejects a negative budget
        instances = parse_grid(args.grid)
        expected = _load_expected(args.expected) if args.expected else None
        # opened before the sweep, so an unwritable path costs no work
        out = open(args.out, "w", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    with out:
        rows = build_sweep_rows(instances, args.search_policy, node_budget)
        try:
            out.write(rows_to_csv(rows))
            out.flush()
        except OSError as exc:
            return _fail(str(exc))
    if expected is None:
        return 0
    mismatches = []
    seen = {(r["family"], r["n_or_k"], r["m"]): r["closed_form_verdict"]
            for r in rows}
    for key, want in sorted(expected.items()):
        got = seen.get(key)
        if got != want:
            mismatches.append(f"{key}: expected {want}, got {got}")
    for msg in mismatches:
        print(f"verdict mismatch {msg}", file=sys.stderr)
    return 1 if mismatches else 0


def cmd_export(args) -> int:
    try:
        g = _load_graph(args.graph)
        labels = None
        if args.labeling:
            fp, labels = labeling_from_json_obj(_load_json(args.labeling))
            if fp != g.fingerprint():
                return _fail("labeling fingerprint does not match the graph")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    if args.format == "json":
        sys.stdout.write(g.to_json())
        return 0
    sys.stdout.write(to_dot(g, labels))
    return 0


def to_dot(g: Graph, labels=None) -> str:
    """DOT rendering with stable ordering; vertex labels become xlabel
    annotations and edge labels become edge label annotations."""
    lines = ["graph G {"]
    for v in range(g.p):
        tag = str(g.tags[v])
        if labels is not None and v in labels:
            lines.append(f'  "{tag}" [xlabel={labels[v]}];')
        else:
            lines.append(f'  "{tag}";')
    for a, b in g.edges:
        ta, tb = str(g.tags[a]), str(g.tags[b])
        if labels is not None and a in labels and b in labels:
            lines.append(f'  "{ta}" -- "{tb}" [label={abs(labels[a] - labels[b])}];')
        else:
            lines.append(f'  "{ta}" -- "{tb}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddgraceful",
        description="Odd-graceful labeling laboratory: family constructions, "
                    "closed-form labelings, exact verification, complete "
                    "search, and grid sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance as graph JSON")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="apply a closed-form labeling scheme")
    p.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="labeling JSON path; an .interp.json sidecar with "
                        "interpretation notes is written next to it")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="verify a labeling against a graph")
    p.add_argument("graph")
    p.add_argument("labeling")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="complete search for a labeling")
    p.add_argument("graph")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--timeout-ms", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="audit a parameter grid into a CSV")
    p.add_argument("--grid", required=True,
                   help="e.g. 'theorem1:n=2..10,m=1..5;theorem3:k=1..2,m=1'")
    p.add_argument("--out", required=True)
    p.add_argument("--expected", default=None,
                   help="CSV of expected closed-form verdicts to check")
    p.add_argument("--search-policy", choices=("never", "on-fail", "always"),
                   default="on-fail")
    p.add_argument("--max-nodes", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="export a graph (and labeling) as DOT")
    p.add_argument("graph")
    p.add_argument("labeling", nargs="?", default=None)
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
