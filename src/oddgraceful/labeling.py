"""Exact verification of the odd-graceful property.

A labeling is the `labels` array of the labeling file: a list indexed by
vertex id, with None for an unlabeled vertex.  Each edge gets the absolute
difference of its endpoint labels.  A labeling of a graph with q edges is
odd-graceful when the vertex labels are pairwise distinct values in
[0, max_label(q)], where max_label(q) = max(2q-1, 0), and the induced edge
labels are exactly the odd numbers {1, 3, ..., 2q-1}.

The definition is written once, as one scan that yields each violation as
it is seen, in three phases: vertex kinds, edge kinds, then missing odd edge
labels in ascending order.  verify_odd_graceful runs it to the end and
reports every violation in a canonical order (kind, then involved ids) so
reports diff cleanly across sweep runs; is_odd_graceful stops at the first,
and first_violation once no later violation can sort first.  Labelings may
be partial; unlabeled vertices become MissingVertexLabel violations, but a
labeling whose length is not the vertex count raises ValueError.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import List, NamedTuple, Optional, Tuple

from .canon import canonical_dumps
from .graphs import Graph, _is_int

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
_KIND_RANK = {kind: i for i, kind in enumerate(KIND_ORDER)}
_KIND_PHASE = dict(zip(KIND_ORDER, (0, 0, 0, 1, 1, 2)))  # see _violations


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

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.vertex_ids, self.edge_ids,
                -1 if self.label is None else self.label)

    def to_json_obj(self, g: Graph) -> dict:
        return {
            "kind": self.kind,
            "vertices": [g.tag(v) for v in self.vertex_ids],
            "vertex_ids": list(self.vertex_ids),
            "edges": [[g.tag(a), g.tag(b)] for a, b in self.edge_ids],
            "edge_ids": [[a, b] for a, b in self.edge_ids],
            "label": self.label,
        }

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

    def to_json_obj(self, g: Graph) -> dict:
        return {
            "ok": self.ok,
            "q": self.q,
            "violations": [v.to_json_obj(g) for v in self.violations],
        }

    def to_json(self, g: Graph) -> str:
        return canonical_dumps(self.to_json_obj(g))


def _check_labeling(g: Graph, labels: Labeling) -> None:
    """Reject anything but a list with one int or None per vertex of g
    (a bool or a float is not a label)."""
    if not isinstance(labels, list):
        raise TypeError(f"a labeling is a list, not {type(labels).__name__}")
    if len(labels) != g.p:
        raise ValueError(f"{len(labels)} labels for {g.p} vertices")
    if not set(map(type, labels)) <= {int, type(None)}:
        v = next(v for v, x in enumerate(labels)
                 if x is not None and type(x) is not int)
        raise ValueError(
            f"vertex {v} has label {labels[v]!r}, not an int or None")


def max_label(q: int) -> int:
    """Largest label in range for a graph with q edges: 2q-1, or 0 when
    q = 0, so that a single vertex labeled 0 is odd-graceful."""
    return max(2 * q - 1, 0)


def _violations(g: Graph, labels: Labeling):
    """Yield each violated odd-graceful condition as soon as it is seen.

    Readers rely on the three phases: every vertex kind, every edge kind,
    then MissingOddEdgeLabel by ascending label (ranks 0-2, 3-4, 5).
    A repeated vertex or edge value is yielded once, with its first two
    holders.  Out-of-range and duplicate vertex labels still give their
    edges a value, so the scan is exhaustive when run to the end.  The
    first holder of each in-range value sits in a list indexed by value and
    of any other value in a dict, so nothing is sized by a label's value.
    """
    _check_labeling(g, labels)
    top = max_label(g.q)

    vertex_first, vertex_other, repeated = [None] * (top + 1), {}, set()
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
            yield Violation(VERTEX_LABEL_OUT_OF_RANGE, vertex_ids=(v,),
                            label=x)
            held = vertex_other.setdefault(x, v)
            if held == v:
                continue
        if x not in repeated:
            repeated.add(x)
            yield Violation(DUPLICATE_VERTEX_LABEL, vertex_ids=(held, v),
                            label=x)

    edge_first, edge_other, repeated = [None] * (top + 1), {}, set()
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
        if d not in repeated:
            repeated.add(d)
            yield Violation(DUPLICATE_EDGE_LABEL, edge_ids=(held, e), label=d)

    # an edge is a non-empty tuple, so not_ is true exactly at unheld values
    for odd in compress(range(1, top + 1, 2), map(not_, edge_first[1::2])):
        yield Violation(MISSING_ODD_EDGE_LABEL, label=odd)


def verify_odd_graceful(g: Graph, labels: Labeling) -> VerificationReport:
    """Check every odd-graceful condition and report all violations.

    The label range is [0, max_label(q)]; for q = 0 only the single label 0
    is in range, so a one-vertex graph labeled 0 passes vacuously and
    nothing larger can.  Time is linear in p + q.
    """
    violations = sorted(_violations(g, labels), key=Violation.sort_key)
    return VerificationReport(ok=not violations, q=g.q,
                              violations=tuple(violations))


def is_odd_graceful(g: Graph, labels: Labeling) -> bool:
    """Boolean form of verify_odd_graceful: the same scan, stopped at the
    first violation, and no report is built."""
    return next(_violations(g, labels), None) is None


def first_violation(g: Graph, labels: Labeling):
    """(ok, first violation other than MissingVertexLabel, or None) of
    verify_odd_graceful's report: the scan is read to the end of the first
    phase with one (phases sort in order) or to the first missing odd label."""
    ok, held = True, []  # such violations of the first phase that has any
    for v in _violations(g, labels):
        ok = False
        if v.kind == MISSING_VERTEX_LABEL:
            continue
        if held and _KIND_PHASE[v.kind] > _KIND_PHASE[held[0].kind]:
            break
        held.append(v)
        if v.kind == MISSING_ODD_EDGE_LABEL:
            break
    return ok, min(held, key=Violation.sort_key, default=None)


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


def labeling_from_json_obj(obj: dict) -> Tuple[str, Labeling]:
    """Parse a labeling file into (fingerprint, labels)."""
    if not isinstance(obj, dict):
        raise ValueError("labeling document must be a JSON object")
    try:
        fp = obj["graph_fingerprint"]
        arr = obj["labels"]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            "labeling document needs 'graph_fingerprint' and 'labels'") from exc
    if not isinstance(fp, str):
        raise ValueError("'graph_fingerprint' must be a string")
    if not isinstance(arr, list):
        raise ValueError("'labels' must be an array indexed by vertex id")
    for v, x in enumerate(arr):
        if x is not None and not _is_int(x):
            raise ValueError(f"label at index {v} is not an integer")
    return fp, arr
