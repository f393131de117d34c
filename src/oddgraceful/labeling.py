"""Exact verification of the odd-graceful property.

A labeling is the `labels` array of the labeling file: a list indexed by
vertex id, with None for an unlabeled vertex.  Each edge gets the absolute
difference of its endpoint labels.  A labeling of a graph with q edges is
odd-graceful when the vertex labels are pairwise distinct values in
[0, 2q-1] and the induced edge labels are exactly the odd numbers
{1, 3, ..., 2q-1}.

Verification is exhaustive: every violated condition is reported, not just
the first, and violations come out in a canonical order (kind, then involved
ids) so reports diff cleanly across sweep runs.  Labelings may be partial;
unlabeled vertices become MissingVertexLabel violations, but a labeling
whose length is not the vertex count raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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


@dataclass(frozen=True)
class Violation:
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
            "vertices": [g.tags[v] for v in self.vertex_ids],
            "vertex_ids": list(self.vertex_ids),
            "edges": [[g.tags[a], g.tags[b]] for a, b in self.edge_ids],
            "edge_ids": [[a, b] for a, b in self.edge_ids],
            "label": self.label,
        }

    def short(self, g: Graph) -> str:
        """Compact comma-free rendering used in sweep CSV cells.

        Commas in tags are replaced by '.' so the cell never needs quoting.
        """
        def tag(v):
            return g.tags[v].replace(",", ".")

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


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    q: int
    violations: Tuple[Violation, ...] = field(default_factory=tuple)

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


def verify_odd_graceful(g: Graph, labels: Labeling) -> VerificationReport:
    """Check every odd-graceful condition and report all violations.

    The label range is [0, 2q-1]; for q = 0 only the single label 0 is in
    range, so a one-vertex graph labeled 0 passes vacuously and nothing
    larger can.  Out-of-range and duplicate vertex labels still contribute
    to edge-label computation so reports stay exhaustive.

    Time is linear in p + q.  The first holder of each in-range vertex or
    edge value sits in a list indexed by value; out-of-range values go to a
    dict, so nothing allocated is sized by a label's value.
    """
    _check_labeling(g, labels)
    q = g.q
    max_label = 2 * q - 1 if q > 0 else 0
    violations = []

    # first holder of each value (list for in-range values, dict for the
    # rest); a duplicate is reported by its first two holders only
    vertex_first, vertex_other, vertex_dups = [None] * (max_label + 1), {}, {}
    for v, x in enumerate(labels):
        if x is None:
            violations.append(Violation(MISSING_VERTEX_LABEL, vertex_ids=(v,)))
            continue
        if 0 <= x <= max_label:
            held = vertex_first[x]
            if held is None:
                vertex_first[x] = v
                continue
        else:
            violations.append(
                Violation(VERTEX_LABEL_OUT_OF_RANGE, vertex_ids=(v,), label=x))
            held = vertex_other.setdefault(x, v)
            if held == v:
                continue
        vertex_dups.setdefault(x, (held, v))

    for value in sorted(vertex_dups):
        violations.append(Violation(
            DUPLICATE_VERTEX_LABEL,
            vertex_ids=vertex_dups[value],
            label=value,
        ))

    edge_first, edge_other, edge_dups = [None] * (max_label + 1), {}, {}
    for e in g.edges:
        x, y = labels[e[0]], labels[e[1]]
        if x is None or y is None:
            continue
        d = abs(x - y)
        if d % 2 == 0:
            violations.append(
                Violation(EDGE_LABEL_EVEN, edge_ids=(e,), label=d))
        if d <= max_label:
            held = edge_first[d]
            if held is None:
                edge_first[d] = e
                continue
        else:
            held = edge_other.setdefault(d, e)
            if held == e:
                continue
        edge_dups.setdefault(d, (held, e))

    for value in sorted(edge_dups):
        violations.append(Violation(
            DUPLICATE_EDGE_LABEL,
            edge_ids=edge_dups[value],
            label=value,
        ))

    for odd in range(1, 2 * q, 2):
        if edge_first[odd] is None:
            violations.append(Violation(MISSING_ODD_EDGE_LABEL, label=odd))

    violations.sort(key=Violation.sort_key)
    return VerificationReport(ok=not violations, q=q, violations=tuple(violations))


def is_odd_graceful(g: Graph, labels: Labeling) -> bool:
    """Fast boolean form of verify_odd_graceful: same definition, first
    failure short-circuits, no report is built."""
    _check_labeling(g, labels)
    q = g.q
    max_label = 2 * q - 1 if q > 0 else 0
    seen = bytearray(max_label + 1)
    for x in labels:
        if x is None or not (0 <= x <= max_label) or seen[x]:
            return False
        seen[x] = 1
    # every label is now in [0, max_label], so every difference is too
    used = bytearray(max_label + 1)
    for a, b in g.edges:
        d = labels[a] - labels[b]
        if d < 0:
            d = -d
        if not (d & 1) or used[d]:
            return False
        used[d] = 1
    return True


def complement_labeling(g: Graph, labels: Labeling) -> Labeling:
    """Map every label x to 2q-1-x.

    The transform preserves edge labels and the label range, so it is an
    involution that preserves the odd-graceful property.  Requires a total
    labeling.
    """
    _check_labeling(g, labels)
    if None in labels:
        raise ValueError(f"vertex {labels.index(None)} is unlabeled")
    top = 2 * g.q - 1
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
    if not isinstance(arr, list):
        raise ValueError("'labels' must be an array indexed by vertex id")
    for v, x in enumerate(arr):
        if x is not None and not _is_int(x):
            raise ValueError(f"label at index {v} is not an integer")
    return fp, arr
