"""Exact verification of the odd-graceful property.

A labeling is the `labels` array of the labeling file: a list indexed by
vertex id, with None for an unlabeled vertex.  Each edge gets the absolute
difference of its endpoint labels.  A labeling of a graph with q edges is
odd-graceful when the vertex labels are pairwise distinct values in
[0, max_label(q)], where max_label(q) = max(2q-1, 0), and the induced edge
labels are exactly the odd numbers {1, 3, ..., 2q-1}.

The definition is written once, as one scan that yields every violation in
the report's canonical order: by kind in KIND_ORDER, then by involved ids,
so reports diff cleanly across sweep runs.  verify_odd_graceful reads it to
the end, is_odd_graceful stops at the first violation, and first_violation
at the first other than MissingVertexLabel.  Labelings may be partial;
unlabeled vertices become MissingVertexLabel violations, but a labeling
whose length is not the vertex count raises ValueError.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, not_
from typing import List, NamedTuple, Optional, Tuple

from .canon import canonical_dumps
from .graphs import Graph, _is_int, _reject_unknown_keys

Labeling = List[Optional[int]]

MISSING_VERTEX_LABEL = "MissingVertexLabel"
VERTEX_LABEL_OUT_OF_RANGE = "VertexLabelOutOfRange"
DUPLICATE_VERTEX_LABEL = "DuplicateVertexLabel"
EDGE_LABEL_EVEN = "EdgeLabelEven"
DUPLICATE_EDGE_LABEL = "DuplicateEdgeLabel"
MISSING_ODD_EDGE_LABEL = "MissingOddEdgeLabel"

KIND_ORDER = (
    MISSING_VERTEX_LABEL,
    VERTEX_LABEL_OUT_OF_RANGE,
    DUPLICATE_VERTEX_LABEL,
    EDGE_LABEL_EVEN,
    DUPLICATE_EDGE_LABEL,
    MISSING_ODD_EDGE_LABEL,
)


class Violation(NamedTuple):
    """One violated odd-graceful condition.

    vertex_ids / edge_ids identify the witnesses; label is the offending
    value where one exists.  Duplicate-label kinds carry the lexicographically
    first witness pair per duplicated value.
    """

    kind: str
    vertex_ids: Tuple[int, ...] = ()
    edge_ids: Tuple[Tuple[int, int], ...] = ()
    label: Optional[int] = None

    def short(self, g: Graph) -> str:
        """Compact comma-free rendering used in sweep CSV cells.

        Commas in tags are replaced by '.' so the cell never needs quoting.
        """
        def tag(v):
            return g.tag(v).replace(",", ".")

        if self.kind == MISSING_VERTEX_LABEL:
            return f"{self.kind}({tag(self.vertex_ids[0])})"
        if self.kind == VERTEX_LABEL_OUT_OF_RANGE:
            return f"{self.kind}({tag(self.vertex_ids[0])}={self.label})"
        if self.kind == DUPLICATE_VERTEX_LABEL:
            a, b = self.vertex_ids
            return f"{self.kind}({tag(a)} {tag(b)} {self.label})"
        if self.kind == EDGE_LABEL_EVEN:
            a, b = self.edge_ids[0]
            return f"{self.kind}({tag(a)}-{tag(b)}={self.label})"
        return f"{self.kind}({self.label})"


class VerificationReport(NamedTuple):
    ok: bool
    q: int
    violations: Tuple[Violation, ...] = ()

    def to_json(self, g: Graph) -> str:
        """The report, each violation's ids also given as tags of g."""
        tag = g.tag
        return canonical_dumps({
            "ok": self.ok,
            "q": self.q,
            "violations": [{
                "kind": v.kind,
                "vertices": list(map(tag, v.vertex_ids)),
                "vertex_ids": v.vertex_ids,
                "edges": [[tag(a), tag(b)] for a, b in v.edge_ids],
                "edge_ids": v.edge_ids,
                "label": v.label,
            } for v in self.violations],
        })


def _check_labeling(g: Graph, labels: Labeling) -> None:
    """Reject anything but a list with one int or None per vertex of g
    (an exact int: a bool or a float is not a label)."""
    if not isinstance(labels, list):
        raise TypeError(f"a labeling is a list, not {type(labels).__name__}")
    if len(labels) != g.p:
        raise ValueError(f"{len(labels)} labels for {g.p} vertices: a "
                         "labeling's length is the vertex count")
    if not set(map(type, labels)) <= {int, type(None)}:
        v = next(v for v, x in enumerate(labels)
                 if x is not None and not _is_int(x))
        raise ValueError(
            f"vertex {v} has label {labels[v]!r}, not an int or None")


def max_label(q: int) -> int:
    """Largest label in range for a graph with q edges: 2q-1, or 0 when
    q = 0, so that a single vertex labeled 0 is odd-graceful."""
    return max(2 * q - 1, 0)


def _violations(g: Graph, labels: Labeling):
    """Yield each violated odd-graceful condition, in the report's order.

    MissingVertexLabel and EdgeLabelEven are yielded as their pass meets
    them, in id order (g.edges is sorted).  Out-of-range labels wait for the
    end of the vertex pass, and each pass's repeated values for the end of
    that pass, where they are yielded once per value with its first two
    holders, by first holder.  MissingOddEdgeLabel follows by ascending
    label.  Out-of-range and duplicate vertex labels still give their edges
    a value, so the scan is exhaustive when run to the end.  The first
    holder of each in-range value sits in a list indexed by value and of any
    other value in a dict, so nothing is sized by a label's value.
    """
    _check_labeling(g, labels)
    top = max_label(g.q)

    vertex_first, vertex_other, repeats = [None] * (top + 1), {}, {}
    out_of_range = []
    for v, x in enumerate(labels):
        if x is None:
            yield Violation(MISSING_VERTEX_LABEL, vertex_ids=(v,))
            continue
        if 0 <= x <= top:
            held = vertex_first[x]
            if held is None:
                vertex_first[x] = v
                continue
        else:
            out_of_range.append(Violation(VERTEX_LABEL_OUT_OF_RANGE,
                                          vertex_ids=(v,), label=x))
            held = vertex_other.setdefault(x, v)
            if held == v:
                continue
        repeats.setdefault(x, (held, v))
    yield from out_of_range
    for x, pair in sorted(repeats.items(), key=itemgetter(1)):
        yield Violation(DUPLICATE_VERTEX_LABEL, vertex_ids=pair, label=x)

    edge_first, edge_other, repeats = [None] * (top + 1), {}, {}
    for e in g.edges:
        a, b = e
        x, y = labels[a], labels[b]
        if x is None or y is None:
            continue
        d = x - y if x > y else y - x
        if not d & 1:
            yield Violation(EDGE_LABEL_EVEN, edge_ids=(e,), label=d)
        if d <= top:
            held = edge_first[d]
            if held is None:
                edge_first[d] = e
                continue
        else:
            held = edge_other.setdefault(d, e)
            if held == e:
                continue
        repeats.setdefault(d, (held, e))
    for d, pair in sorted(repeats.items(), key=itemgetter(1)):
        yield Violation(DUPLICATE_EDGE_LABEL, edge_ids=pair, label=d)

    # an edge is a non-empty tuple, so not_ is true exactly at unheld values
    for odd in compress(range(1, top + 1, 2), map(not_, edge_first[1::2])):
        yield Violation(MISSING_ODD_EDGE_LABEL, label=odd)


def verify_odd_graceful(g: Graph, labels: Labeling) -> VerificationReport:
    """Check every odd-graceful condition and report all violations.

    The label range is [0, max_label(q)]; for q = 0 only the single label 0
    is in range, so a one-vertex graph labeled 0 passes vacuously and
    nothing larger can.  Time is linear in p + q.
    """
    violations = tuple(_violations(g, labels))
    return VerificationReport(ok=not violations, q=g.q, violations=violations)


def is_odd_graceful(g: Graph, labels: Labeling) -> bool:
    """Boolean form of verify_odd_graceful: the same scan, stopped at the
    first violation, and no report is built."""
    return next(_violations(g, labels), None) is None


def first_violation(g: Graph, labels: Labeling):
    """(ok, first violation other than MissingVertexLabel, or None) of
    verify_odd_graceful's report: the scan, read up to that violation."""
    ok = True
    for v in _violations(g, labels):
        if v.kind != MISSING_VERTEX_LABEL:
            return False, v
        ok = False
    return ok, None


def complement_labeling(g: Graph, labels: Labeling) -> Labeling:
    """Map every label x to max_label(q) - x.

    The transform preserves edge labels and the label range, so it is an
    involution that preserves the odd-graceful property.  Requires a total
    labeling.
    """
    _check_labeling(g, labels)
    if None in labels:
        raise ValueError(f"vertex {labels.index(None)} is unlabeled")
    top = max_label(g.q)
    return [top - x for x in labels]


# -- file format -------------------------------------------------------------


def labeling_to_json(g: Graph, labels: Labeling) -> str:
    """Labeling file: graph fingerprint plus the labeling itself, an array
    indexed by vertex id with null for unlabeled vertices."""
    _check_labeling(g, labels)
    return canonical_dumps({"graph_fingerprint": g.fingerprint(),
                            "labels": labels})


def labeling_from_json_obj(g: Graph, obj: dict) -> Labeling:
    """The labels of a labeling document for g, raising ValueError unless the
    document has its shape (its two keys and no other), is bound to g by its
    fingerprint and holds a labeling of g (see _check_labeling)."""
    if not isinstance(obj, dict):
        raise ValueError("labeling document must be a JSON object")
    _reject_unknown_keys(obj, ("graph_fingerprint", "labels"),
                         "labeling document")
    try:
        fp, labels = obj["graph_fingerprint"], obj["labels"]
    except KeyError as exc:
        raise ValueError(
            "labeling document needs 'graph_fingerprint' and 'labels'") from exc
    if type(fp) is not str:
        raise ValueError("'graph_fingerprint' must be a string")
    if not isinstance(labels, list):  # _check_labeling raises TypeError
        raise ValueError("'labels' must be an array indexed by vertex id")
    if fp != g.fingerprint():
        raise ValueError("labeling fingerprint does not match the graph")
    _check_labeling(g, labels)
    return labels
