"""One measuring process of the audit benchmark (started by run.py).

The worker imports the built package, constructs its workload's inputs from
the seed, prints "ready", and then (unless --setup-only) runs passes over the
workload in a closed loop until --seconds are used up.  Every output it times
is checked.  The last line on stdout is a JSON record with the metrics; run.py
adds setup time and the run's provenance.

With --trace 1 untraced and traced passes alternate.  A traced pass wraps
each call into a package layer in a span (see spans.py) and the record holds
per-layer metrics instead of end-to-end ones.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter

from spans import Tracer, patched

AUDIT_GRID = ("theorem1:n=2..100,m=1..5;theorem2:n=2..50,m=1..5;"
              "theorem3:k=1..50,m=1..5")
# sha256 of the `sweep --search-policy never` CSV over AUDIT_GRID, taken at
# the commit that introduced this benchmark: sweeps must stay byte-identical.
AUDIT_GRID_CSV_SHA256 = (
    "af80fd6b6e4e39adfc47eda7c37fa105b6d1e4c1a3495d3839a8623936402bfe")

# (theorem, n or k, m, apply_repairs) -> (report.ok, violations, uncovered,
# graph fingerprint), pinned at the commit that introduced this benchmark.
LARGE_INSTANCES = {
    (1, 2000, 30, True): (
        True, 0, 0,
        "6a55e75c669690dc1f495c9516fd112870df6258f7cd7aa63b17bcfff3a99e6c"),
    (2, 1000, 20, False): (
        False, 4487, 0,
        "8c296fef6d57fdaa84e1f76e2f68207a0e3d648ee0e95c0c64703762c952ae4e"),
    (3, 1000, 20, False): (
        False, 80, 20,
        "308d7295fe17df2f963df6d11e3287ef3ef906eca972299216b3d0c3cc240916"),
}

# Per-instance time cap for the closed-form failures with q <= 30.  At the
# pure-Python kernel's 78k-135k nodes/s it stops each one after 40k-70k
# nodes; an engine that decides them does so well inside it.
SEARCH_CAP_MS = 500
# (graph, n or k, m, time cap in ms or None for no budget)
SEARCH_INSTANCES = [
    ("theorem1", 5, 1, SEARCH_CAP_MS),
    ("theorem1", 6, 1, SEARCH_CAP_MS),
    ("theorem2", 2, 1, SEARCH_CAP_MS),
    ("theorem2", 2, 2, SEARCH_CAP_MS),
    ("theorem3", 2, 1, SEARCH_CAP_MS),
    ("cycle", 7, None, None),
    ("cycle", 9, None, None),
    ("cycle", 12, None, None),
    ("theorem1", 3, 1, None),
    ("theorem3", 1, 1, None),
]


class Pass:
    """Outcome of one pass over a workload.  wall is the summed time of the
    timed calls only; output checks run outside it."""

    def __init__(self, tracer):
        self.tracer = tracer  # the pass's Tracer, None when untraced
        self.wall = 0.0
        self.latencies = {}   # instance -> seconds
        self.rest = 0.0       # timed work outside any one instance
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.decided = 0      # existence settled: verified labeling or none
        self.edges = 0        # sum of q over the instances


def _fail(p, what, count=1):
    print(f"check failed: {what}", file=sys.stderr)
    p.failed += count


class AuditGrid:
    """An in-process `oddgraceful sweep --search-policy never` over the
    990-instance AUDIT_GRID: build_sweep_rows, then rows_to_csv."""

    def __init__(self, og):
        from oddgraceful import cli, formulas
        self.cli, self.formulas = cli, formulas
        # no seed: the sweep sorts its rows, so instance order has no effect
        self.instances = cli.parse_grid(AUDIT_GRID)

    def run_pass(self, tracer):
        cli = self.cli
        p = Pass(tracer)
        p.instances = p.attempted = len(self.instances)
        marks = []
        table = {}
        for number, (param, build, label, family) in cli._THEOREMS.items():
            if tracer is None:
                build = _marking(build, marks)
            else:
                build = _instance_span(tracer, family, build)
                label = tracer.wrap("formulas.label", label,
                                    lambda r: len(r[1].uncovered))
            table[number] = (param, build, label, family)
        bindings = [(cli, "_THEOREMS", table)]
        sweep, to_csv = cli.build_sweep_rows, cli.rows_to_csv
        if tracer is not None:
            bindings += _graph_builds_in(self.formulas, tracer)
            bindings += [
                (cli, "verify_odd_graceful", _verify_span(tracer, getattr(
                    cli, "verify_odd_graceful", None))),
                (cli, "find_odd_graceful", _search_span(tracer, getattr(
                    cli, "find_odd_graceful", None))),
            ]
            sweep = tracer.wrap("cli.sweep", sweep)
            to_csv = tracer.wrap("cli.csv", to_csv)
        try:
            with patched(bindings):
                t0 = perf_counter()
                rows = sweep(self.instances, "never",
                             cli.SWEEP_DEFAULT_NODE_BUDGET)
                t1 = perf_counter()
                text = to_csv(rows)
                t2 = perf_counter()
        except Exception:
            traceback.print_exc()
            _fail(p, "audit-grid sweep raised", p.attempted)
            return p
        p.wall = t2 - t0
        if tracer is None:
            if len(marks) != len(rows):
                _fail(p, f"{len(marks)} graph builds seen through "
                         f"cli._THEOREMS for {len(rows)} rows", p.attempted)
                return p
            marks.append(t1)
            p.latencies = {(r["family"], r["n_or_k"], r["m"]): b - a
                           for r, a, b in zip(rows, marks, marks[1:])}
            p.rest = t2 - t1
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != AUDIT_GRID_CSV_SHA256:
            _fail(p, f"audit-grid CSV sha256 {digest}", p.attempted)
            return p
        p.edges = sum(r["q"] for r in rows)
        p.decided = sum(r["closed_form_verdict"] == "pass"
                        or r["search_outcome"] in ("found", "none")
                        for r in rows)
        return p


class LargeInstance:
    """Build, label, verify_odd_graceful, is_odd_graceful and the file
    formats (Graph.to_json, fingerprint, labeling_to_json) for three
    instances with q of about 10^5: one passing, one failing, one partial."""

    def __init__(self, og, rng):
        from oddgraceful import formulas
        self.og, self.formulas = og, formulas
        self.instances = sorted(LARGE_INSTANCES)
        rng.shuffle(self.instances)

    def run_pass(self, tracer):
        og = self.og
        p = Pass(tracer)
        bindings = []
        verify, fast = og.verify_odd_graceful, og.is_odd_graceful
        graph_json, fingerprint = og.Graph.to_json, og.Graph.fingerprint
        labeling_json = og.labeling_to_json
        if tracer is not None:
            bindings = _graph_builds_in(self.formulas, tracer)
            verify = _verify_span(tracer, verify)
            fast = tracer.wrap("labeling.is_odd_graceful", fast)
            graph_json = tracer.wrap("canon.json", graph_json, len)
            fingerprint = tracer.wrap("canon.json", fingerprint)
            labeling_json = tracer.wrap("canon.json", labeling_json, len)
        for key in self.instances:
            number, a, m, repairs = key
            build = getattr(og, f"build_theorem{number}")
            label = getattr(og, f"label_theorem{number}")
            if tracer is not None:
                tracer.instance = f"theorem{number}:{a},{m}"
                build = tracer.wrap("graphs.build", build)
                label = tracer.wrap("formulas.label", label,
                                    lambda r: len(r[1].uncovered))
            p.instances += 1
            p.attempted += 1
            try:
                with patched(bindings):
                    t0 = perf_counter()
                    g = build(a, m)
                    labels, interp = label(a, m, apply_repairs=repairs)
                    report = verify(g, labels)
                    ok = fast(g, labels)
                    gj = graph_json(g)
                    fp = fingerprint(g)
                    lj = labeling_json(g, labels)
                    t1 = perf_counter()
            except Exception:
                traceback.print_exc()
                _fail(p, f"large-instance {key} raised")
                continue
            p.wall += t1 - t0
            p.latencies[key] = t1 - t0
            p.edges += g.q
            got = (report.ok, len(report.violations), len(interp.uncovered),
                   fp)
            if got != LARGE_INSTANCES[key]:
                _fail(p, f"large-instance {key}: (ok, violations, uncovered, "
                         f"fingerprint) = {got}")
            elif ok != report.ok:
                _fail(p, f"large-instance {key}: is_odd_graceful={ok} but "
                         f"report.ok={report.ok}")
            elif (hashlib.sha256(gj.encode("utf-8")).hexdigest() != fp
                  or not lj.startswith(f'{{"graph_fingerprint":"{fp}"')):
                _fail(p, f"large-instance {key}: file formats disagree with "
                         "the fingerprint")
            elif report.ok:
                p.decided += 1
        return p


class SearchAudit:
    """find_odd_graceful with the default engine on five closed-form
    failures under a time cap and five instances that always decide."""

    def __init__(self, og, rng):
        from oddgraceful import search
        self.og, self.search = og, search
        self.instances = list(SEARCH_INSTANCES)
        rng.shuffle(self.instances)

    def _graph_maker(self, kind):
        if kind == "cycle":
            return lambda n, m: self.og.cycle_graph(n)
        return getattr(self.og, f"build_{kind}")

    def run_pass(self, tracer):
        og = self.og
        p = Pass(tracer)
        bindings = []
        find, outcome_json = og.find_odd_graceful, og.SearchOutcome.to_json
        if tracer is not None:
            bindings = [(self.search, "verify_odd_graceful", _verify_span(
                tracer, getattr(self.search, "verify_odd_graceful", None)))]
            find = _search_span(tracer, find)
            outcome_json = tracer.wrap("canon.json", outcome_json, len)
        for kind, a, m, cap in self.instances:
            make = self._graph_maker(kind)
            name = f"{kind}:{a}" if m is None else f"{kind}:{a},{m}"
            if tracer is not None:
                tracer.instance = name
                make = tracer.wrap("graphs.build", make)
            cfg = og.SearchConfig(time_budget_ms=cap)
            p.instances += 1
            p.attempted += 1
            try:
                with patched(bindings):
                    t0 = perf_counter()
                    g = make(a, m)
                    outcome = find(g, cfg)
                    outcome_json(outcome)
                    t1 = perf_counter()
            except Exception:
                traceback.print_exc()
                _fail(p, f"search-audit {name} raised")
                continue
            p.wall += t1 - t0
            p.latencies[(kind, a, m)] = t1 - t0
            p.edges += g.q
            problem = self._check(g, outcome)
            if problem:
                _fail(p, f"search-audit {name}: {problem}")
            elif outcome.status != "inconclusive":
                p.decided += 1
        return p

    def _check(self, g, outcome):
        og = self.og
        if outcome.status == "found":
            labels = outcome.labeling
            if len(labels) != g.p or not og.verify_odd_graceful(g, labels).ok:
                return "found labeling does not verify"
        elif outcome.status == "none":
            # An odd cycle rules out any odd-graceful labeling; small graphs
            # are settled by the brute-force oracle.  Any other "none" has no
            # independent confirmation and counts as failed.
            if og.is_bipartite(g) and not (
                    g.q <= 6 and og.exhaustive_oracle(g).status == "none"):
                return "none is not independently confirmed"
        elif outcome.status != "inconclusive":
            return f"unknown status {outcome.status!r}"
        return None


WORKLOADS = {
    "audit-grid": lambda og, rng: AuditGrid(og),
    "large-instance": LargeInstance,
    "search-audit": SearchAudit,
}


# -- span helpers ------------------------------------------------------------


def _marking(build, marks):
    def build_and_mark(*args, **kwargs):
        marks.append(perf_counter())
        return build(*args, **kwargs)
    return build_and_mark


def _instance_span(tracer, family, build):
    traced = tracer.wrap("graphs.build", build)

    def build_instance(a, m, *args, **kwargs):
        tracer.instance = f"{family}:{a},{m}"
        return traced(a, m, *args, **kwargs)
    return build_instance


def _graph_builds_in(formulas, tracer):
    """The labelers rebuild their graph through these module attributes;
    their spans become children of the formulas.label span."""
    return [(formulas, name, tracer.wrap("graphs.build",
                                         getattr(formulas, name, None)))
            for name in ("build_theorem1", "build_theorem2",
                         "build_theorem3")]


def _verify_span(tracer, verify):
    return tracer.wrap("labeling.verify", verify,
                       lambda r: len(r.violations))


def _search_span(tracer, find):
    return tracer.wrap("search.find", find, lambda r: (
        r.status, r.stats.nodes_expanded, r.stats.backtracks))


# -- metrics -----------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes):
    """End-to-end metrics over untraced passes.  An instance's latency is
    its median over the passes, and wall_s is the sum of those medians plus
    the median time of the timed work outside any instance (CSV emission):
    the time of one pass, with slowdowns that hit single passes filtered
    out.  The 99th percentile interpolates between the instances, never
    beyond the slowest."""
    per_instance = defaultdict(list)
    for p in passes:
        for key, seconds in p.latencies.items():
            per_instance[key].append(seconds)
    typical = sorted(median(v) for v in per_instance.values())
    wall = sum(typical) + median(p.rest for p in passes)
    return {
        "wall_s": _metric(wall, "s"),
        "instances_per_s": _metric(len(typical) / wall, "1/s"),
        "instance_p50_ms": _metric(median(typical) * 1000, "ms"),
        "instance_p99_ms": _metric(
            quantiles(typical, n=100, method="inclusive")[98] * 1000, "ms"),
        "edges_per_s": _metric(passes[0].edges / wall, "1/s"),
        "decided_frac": _metric(sum(p.decided for p in passes)
                                / sum(p.instances for p in passes),
                                "fraction"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics, averaged over the traced passes."""
    rows = []
    for p in traced:
        calls, busy, own, info = p.tracer.totals()
        search = [s[5] for s in p.tracer.spans if s[0] == "search.find"]
        nodes = sum(s[1] for s in search)
        rows.append({
            "graphs.busy_s": busy["graphs.build"],
            "graphs.calls": calls["graphs.build"],
            "graphs.builds_per_instance": calls["graphs.build"] / p.instances,
            "formulas.busy_s": busy["formulas.label"],
            "formulas.self_s": own["formulas.label"],
            "formulas.uncovered": info["formulas.label"],
            "labeling.verify_s": busy["labeling.verify"],
            "labeling.violations": info["labeling.verify"],
            "labeling.is_odd_graceful_s": busy["labeling.is_odd_graceful"],
            "canon.json_s": busy["canon.json"],
            "canon.bytes": info["canon.json"],
            "search.busy_s": busy["search.find"],
            "search.nodes": nodes,
            "search.backtracks": sum(s[2] for s in search),
            "search.nodes_per_s": (nodes / busy["search.find"]
                                   if busy["search.find"] else 0.0),
            "search.nodes_to_decision": sum(
                s[1] for s in search if s[0] != "inconclusive"),
            "search.inconclusive": sum(s[0] == "inconclusive"
                                       for s in search),
            "cli.sweep_s": busy["cli.sweep"],
            "cli.self_s": own["cli.sweep"],
            "cli.csv_s": busy["cli.csv"],
            "trace.wall_s": p.wall,
            "trace.unattributed_s": p.wall - sum(own.values()),
        })
    metrics = {name: fmean(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (fmean(p.wall for p in traced)
                                   - fmean(p.wall for p in untraced))
    return {name: _metric(value, _layer_unit(name))
            for name, value in metrics.items()}


def _layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "canon.bytes":
        return "bytes"
    if name == "graphs.builds_per_instance":
        return "1/instance"
    return "count"


def write_spans(path, traced):
    with open(path, "w", encoding="utf-8") as fh:
        for number, p in enumerate(traced):
            for name, start, end, parent, instance, info in p.tracer.spans:
                fh.write(json.dumps([number, name, start, end, parent,
                                     instance, info]) + "\n")


# -- main --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lib", required=True,
                        help="directory holding the built oddgraceful")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.lib)
    import oddgraceful as og
    if Path(args.lib).resolve() not in Path(og.__file__).resolve().parents:
        print(f"imported {og.__file__}, not the build in {args.lib}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](og, random.Random(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = []
    start = perf_counter()
    while True:
        before = perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(workload.run_pass(Tracer() if traced else None))
        now = perf_counter()
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and now - start + (now - before) / 2 > args.seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {"engine": og.engine_name(), "attempted": attempted,
              "failed": failed, "passes": len(passes)}
    if failed == 0:
        if args.trace:
            traced = [p for p in passes if p.tracer]
            record["metrics"] = per_layer(
                traced, [p for p in passes if not p.tracer])
            if args.spans_out:
                write_spans(args.spans_out, traced)
        else:
            record["metrics"] = end_to_end(passes)
            record["samples"] = {"pass_wall_s": [p.wall for p in passes],
                                 "instances": len(passes[0].latencies)}
    print(json.dumps(record), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
