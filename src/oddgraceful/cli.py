"""Command-line surface: generate graphs, apply closed-form labelings,
verify, search, sweep parameter grids, and export DOT.

Exit codes: 0 success (verify: labeling ok; search: found), 1 verify found
violations / search certified none / sweep mismatched the expected table,
2 invalid arguments, unreadable or mismatched files, 3 search budget
exhausted.  Reports go to stdout, diagnostics to stderr; exit codes are the
only machine contract on the status channel.

Commands raise ValueError or OSError on malformed input; main is the one
place that turns either into a single `error:` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .formulas import label_theorem1, label_theorem2, label_theorem3
from .graphs import (THEOREM_FAMILIES, Graph, build_theorem1, build_theorem2,
                     build_theorem3, theorem_order)
from .labeling import (first_violation, labeling_from_json_obj,
                       labeling_to_json, verify_odd_graceful)
from .search import SearchConfig, find_odd_graceful

FAMILIES = tuple(f.kind for f in THEOREM_FAMILIES.values())  # theorem 1 first
# theorem number -> (size parameter, builder, labeler, sweep family name)
_THEOREMS = {
    number: (THEOREM_FAMILIES[number].param, build, label, f"theorem{number}")
    for number, build, label in (
        (1, build_theorem1, label_theorem1),
        (2, build_theorem2, label_theorem2),
        (3, build_theorem3, label_theorem3))}
_THEOREM_NUMBERS = {family: number
                    for number, (*_, family) in _THEOREMS.items()}

# the sweep CSV's columns, in order: the keys of each build_sweep_rows row
SWEEP_COLUMNS = ("family", "n_or_k", "m", "p", "q", "closed_form_verdict",
                 "first_violation", "search_outcome", "search_nodes",
                 "elapsed_ms")
SWEEP_SEARCH_Q_CAP = 30
SWEEP_DEFAULT_NODE_BUDGET = 100_000


def _load_json(path: str):
    """The JSON in the file at path: the one place that parses file text.
    A key repeated in one object is rejected, not read as its last value;
    every parse error names the file."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValueError(f"{path}: JSON key {key!r} repeated")
                seen.add(key)
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return Graph.from_json_obj(_load_json(path))


def _write_outputs(*files) -> int:
    """Write (path, text) pairs and return exit status 0."""
    for path, text in files:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _sidecar_path(out_path: str) -> str:
    if out_path.endswith(".json"):
        return out_path[: -len(".json")] + ".interp.json"
    return out_path + ".interp.json"


# -- commands ---------------------------------------------------------------


def _size(args, number: int, what: str) -> int:
    """The --n or --k value that theorem `number` takes, raising ValueError
    when it is missing or when the other size flag is given."""
    param = _THEOREMS[number][0]
    other = "k" if param == "n" else "n"
    if getattr(args, other) is not None:
        raise ValueError(f"{what} takes --{param}, not --{other}")
    value = getattr(args, param)
    if value is None:
        raise ValueError(f"{what} needs --{param}")
    return value


def cmd_gen(args) -> int:
    number = FAMILIES.index(args.family) + 1
    value = _size(args, number, f"family {args.family}")
    g = _THEOREMS[number][1](value, args.m)
    return _write_outputs((args.out, g.to_json()))


def cmd_label(args) -> int:
    _, builder, labeler, _ = _THEOREMS[args.theorem]
    value = _size(args, args.theorem, f"theorem {args.theorem}")
    g = builder(value, args.m)
    labels, interp = labeler(value, args.m)
    return _write_outputs((args.out, labeling_to_json(g, labels)),
                          (_sidecar_path(args.out), interp.to_json()))


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    labels = labeling_from_json_obj(g, _load_json(args.labeling))
    report = verify_odd_graceful(g, labels)
    sys.stdout.write(report.to_json(g))
    return 0 if report.ok else 1


def cmd_search(args) -> int:
    cfg = SearchConfig(node_budget=args.max_nodes,
                       time_budget_ms=args.timeout_ms)
    outcome = find_odd_graceful(_load_graph(args.graph), cfg)
    sys.stdout.write(outcome.to_json())
    return {"found": 0, "none": 1}.get(outcome.status, 3)


def parse_grid(spec: str):
    """Grid spec: semicolon-separated clauses 'theorem1:n=2..10,m=1..5'.

    theorem1/theorem2 take n, theorem3 takes k.  Ranges are 'lo..hi' or a
    single integer, and both ends must lie in the theorem's domain (n >= 2,
    k >= 1, m >= 1, q <= MAX_THEOREM_Q), so an oversized grid is rejected
    before any instance is listed.  Returns a list of (theorem_number,
    param_value, m).
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
        number = _THEOREM_NUMBERS.get(name)
        if number is None:
            raise ValueError(f"unknown family {name!r} in grid")
        expected_param = _THEOREMS[number][0]
        try:
            ranges = {}
            for item in params.split(","):
                key, _, value = item.strip().partition("=")
                if key not in (expected_param, "m") or not value:
                    raise ValueError(f"bad item {item!r}")
                if key in ranges:
                    raise ValueError(f"repeats {key}=")
                ranges[key] = parse_range(value)
            if expected_param not in ranges or "m" not in ranges:
                raise ValueError(f"needs {expected_param}= and m= ranges")
            for end in (0, -1):  # q grows with both parameters
                theorem_order(number, ranges[expected_param][end],
                              ranges["m"][end])
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
        # the unlabeled vertices are exactly interp.uncovered, which the
        # partial verdict already summarizes, so first skips them
        ok, first = first_violation(g, labels)
        if ok:
            verdict = "pass"
        elif interp.uncovered:
            verdict = f"partial({len(interp.uncovered)})"
        else:
            verdict = "fail"
        run_search = (policy == "always" or
                      (policy == "on-fail" and not ok))
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
            "first_violation": "" if first is None else first.short(g),
            "search_outcome": search_outcome,
            "search_nodes": search_nodes,
            "elapsed_ms": elapsed_ms,
        })
    return rows


def rows_to_csv(rows) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join([str(r[c]) for c in SWEEP_COLUMNS]) for r in rows]
    return "\n".join(lines) + "\n"


# every closed_form_verdict build_sweep_rows can emit
_VERDICT_RE = re.compile(r"pass|fail|partial\([1-9][0-9]*\)")


def _load_expected(path: str):
    """The --expected table as {(family, n_or_k, m): verdict}, raising
    ValueError on a row that names no theorem, has a non-integer size or
    holds a verdict the sweep cannot emit."""
    expected = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is skipped
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "family,n_or_k,m,verdict":
        raise ValueError("expected table needs header family,n_or_k,m,verdict")
    for ln in lines[1:]:
        try:
            family, a, m, verdict = ln.split(",")  # four fields or ValueError
            if family not in _THEOREM_NUMBERS:
                raise ValueError(
                    f"family must be one of {', '.join(_THEOREM_NUMBERS)}")
            if not _VERDICT_RE.fullmatch(verdict):
                raise ValueError("verdict must be pass, fail or partial(N)")
            key = (family, int(a), int(m))
        except ValueError as exc:
            raise ValueError(f"bad expected row {ln!r}: {exc}") from None
        if key in expected:
            raise ValueError(f"repeated expected row {ln!r}")
        expected[key] = verdict
    return expected


def cmd_sweep(args) -> int:
    SearchConfig(node_budget=args.max_nodes)  # rejects a negative budget
    instances = parse_grid(args.grid)
    expected = _load_expected(args.expected) if args.expected else None
    # opened before the sweep, so an unwritable path costs no work
    with open(args.out, "w", encoding="utf-8", newline="") as out:
        rows = build_sweep_rows(instances, args.search_policy, args.max_nodes)
        out.write(rows_to_csv(rows))
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
    g = _load_graph(args.graph)
    labels = (labeling_from_json_obj(g, _load_json(args.labeling))
              if args.labeling else None)
    if args.format == "json":
        sys.stdout.write(g.to_json())
        return 0
    sys.stdout.write(to_dot(g, labels))
    return 0


def to_dot(g: Graph, labels=None) -> str:
    """DOT rendering with stable ordering; vertex labels become xlabel
    annotations and edge labels become edge label annotations.  Tags are
    quoted with backslash and double quote escaped."""
    if labels is None:
        labels = [None] * g.p
    ids = ['"' + tag.replace("\\", "\\\\").replace('"', '\\"') + '"'
           for tag in g.tags]
    lines = ["graph G {"]
    for vid, x in zip(ids, labels):
        lines.append(f"  {vid};" if x is None else f"  {vid} [xlabel={x}];")
    for a, b in g.edges:
        edge = f"  {ids[a]} -- {ids[b]}"
        if labels[a] is None or labels[b] is None:
            lines.append(edge + ";")
        else:
            lines.append(f"{edge} [label={abs(labels[a] - labels[b])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a malformed command line, so that main reports
    it as one error line instead of argparse's usage block; subparsers
    inherit the class."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--theorem", type=int, required=True,
                   choices=tuple(_THEOREMS))
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
    p.add_argument("--max-nodes", type=int,
                   default=SWEEP_DEFAULT_NODE_BUDGET)
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
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
