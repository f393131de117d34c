"""Tagged graph constructions for pendant ladder and snake families.

Vertices carry structured tags (u3, w1, p(u3,2), ...) so that label formulas
stated per symbol class and index can be applied without guessing which
vertex is which.  Vertex ids are dense 0..p-1 in a fixed canonical order:
u vertices by index, then v, w, y, z, then pendants grouped by parent
(parents in id order, pendant index ascending).  Graphs are immutable once
built, and identical parameters always produce identical vertex orderings
and edge sets.

The closed-form labelers in formulas.py compute vertex ids from this order
by arithmetic instead of building the graph and looking tags up, so
build_theorem1/2/3 must keep it exactly: changing it changes every
labeling they produce.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .canon import canonical_dumps, sha256_hex

_ROLE_ORDER = {"u": 0, "v": 1, "w": 2, "y": 3, "z": 4}
_ROLE_RE = re.compile(r"^([uvwyz])([1-9][0-9]*)$")
_PENDANT_RE = re.compile(r"^p\((.+),([1-9][0-9]*)\)$")


@dataclass(frozen=True)
class Tag:
    """Structured vertex name: a role tag (u3), a pendant (p(u3,2)), or a
    generic free-form name for vertices created by untyped constructions."""

    kind: str
    index: int = 0
    parent: Optional["Tag"] = None
    name: str = ""

    def __post_init__(self):
        if self.kind in _ROLE_ORDER:
            if self.index < 1:
                raise ValueError("role tag index is 1-based")
        elif self.kind == "p":
            # a pendant's parent is never itself a pendant
            if self.parent is None or self.parent.kind == "p":
                raise ValueError("pendant parent must be a non-pendant tag")
            if self.index < 1:
                raise ValueError("pendant index is 1-based")
        elif self.kind == "g":
            if not self.name:
                raise ValueError("generic tag needs a name")
        else:
            raise ValueError(f"unknown tag kind: {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "g":
            return self.name
        if self.kind == "p":
            return f"p({self.parent},{self.index})"
        return f"{self.kind}{self.index}"


def U(i: int) -> Tag:
    return Tag("u", i)


def V(i: int) -> Tag:
    return Tag("v", i)


def W(i: int) -> Tag:
    return Tag("w", i)


def Y(i: int) -> Tag:
    return Tag("y", i)


def Z(i: int) -> Tag:
    return Tag("z", i)


def pendant(parent: Tag, j: int) -> Tag:
    return Tag("p", j, parent=parent)


def generic(name: str) -> Tag:
    return Tag("g", name=name)


def parse_tag(text: str) -> Tag:
    """Parse the tag grammar used in graph files.

    Role tags look like "u3", pendants like "p(u3,2)"; anything else is kept
    as a generic tag with the text as its name.
    """
    m = _ROLE_RE.match(text)
    if m:
        return Tag(m.group(1), int(m.group(2)))
    m = _PENDANT_RE.match(text)
    if m:
        parent = parse_tag(m.group(1))
        if parent.kind != "p":
            return Tag("p", int(m.group(2)), parent=parent)
    return generic(text)


@dataclass(frozen=True)
class Family:
    """Construction parameters attached to a generated graph instance."""

    kind: str
    n: Optional[int] = None
    k: Optional[int] = None
    m: Optional[int] = None

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind}
        if self.n is not None:
            obj["n"] = self.n
        if self.k is not None:
            obj["k"] = self.k
        if self.m is not None:
            obj["m"] = self.m
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "Family":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("family object needs a 'kind' field")
        return Family(
            kind=obj["kind"],
            n=obj.get("n"),
            k=obj.get("k"),
            m=obj.get("m"),
        )


class Graph:
    """Immutable undirected graph over dense vertex ids 0..p-1 with tags.

    Edges are stored with the smaller id first and sorted lexicographically.
    Construction validates that there are no self-loops, no duplicate edges,
    and that every endpoint is a declared vertex.
    """

    __slots__ = ("tags", "edges", "family", "_adj", "_tag_index")

    def __init__(self, tags: Sequence[Tag], edges: Iterable[tuple],
                 family: Optional[Family] = None):
        self.tags = tuple(tags)
        p = len(self.tags)
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < p and 0 <= b < p):
                raise ValueError(f"edge ({a},{b}) references an undeclared vertex")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self.edges = tuple(sorted(seen))
        self.family = family
        self._adj = None
        self._tag_index = None

    @property
    def p(self) -> int:
        return len(self.tags)

    @property
    def q(self) -> int:
        return len(self.edges)

    def adjacency(self):
        """Neighbor ids per vertex, each list sorted ascending."""
        if self._adj is None:
            adj = [[] for _ in range(self.p)]
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def tag_index(self) -> dict:
        """Map from tag string to vertex id."""
        if self._tag_index is None:
            self._tag_index = {str(t): i for i, t in enumerate(self.tags)}
        return self._tag_index

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.tags == other.tags and self.edges == other.edges
                and self.family == other.family)

    __hash__ = None

    def __repr__(self):
        fam = f", family={self.family}" if self.family else ""
        return f"Graph(p={self.p}, q={self.q}{fam})"

    # -- file format ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "family": self.family.to_json_obj() if self.family else None,
            "vertices": [{"id": i, "tag": str(t)} for i, t in enumerate(self.tags)],
            "edges": [[a, b] for a, b in self.edges],
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_obj())

    def fingerprint(self) -> str:
        """Hex digest of the canonical graph JSON; binds labeling files to
        the exact graph they label."""
        return sha256_hex(self.to_json())

    @staticmethod
    def from_json_obj(obj: dict) -> "Graph":
        """Parse a graph document, raising ValueError on anything malformed.

        Ids and edge endpoints must be ints (bools and floats are rejected),
        vertex entries objects with a string tag, and tags unique.
        """
        if not isinstance(obj, dict):
            raise ValueError("graph document must be a JSON object")
        vertices, edges = obj.get("vertices"), obj.get("edges")
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise ValueError(
                "graph document needs 'vertices' and 'edges' arrays")
        tags = []
        seen_tags = set()
        for i, entry in enumerate(vertices):
            if not isinstance(entry, dict):
                raise ValueError(f"vertex entry {i} is not an object")
            if not _is_int(entry.get("id")) or entry["id"] != i:
                raise ValueError("vertex ids must be dense 0..p-1 in order")
            text = entry.get("tag")
            if not isinstance(text, str):
                raise ValueError(f"vertex {i} needs a string tag")
            if text in seen_tags:
                raise ValueError(f"duplicate vertex tag {text!r}")
            seen_tags.add(text)
            tags.append(parse_tag(text))
        pairs = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2
                    and _is_int(e[0]) and _is_int(e[1])):
                raise ValueError(f"edge {e!r} is not a pair of vertex ids")
            pairs.append((e[0], e[1]))
        fam = obj.get("family")
        family = Family.from_json_obj(fam) if fam is not None else None
        return Graph(tags, pairs, family)

    @staticmethod
    def from_json(text: str) -> "Graph":
        import json

        return Graph.from_json_obj(json.loads(text))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# -- basic constructions ---------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path on n vertices tagged v1..vn."""
    if n < 1:
        raise ValueError("path_graph needs n >= 1")
    return Graph([V(i) for i in range(1, n + 1)],
                 [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices tagged v1..vn."""
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph([V(i) for i in range(1, n + 1)], edges)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (x1,x2)~(y1,y2) iff one coordinate is equal and the
    other is adjacent.  Product vertices receive generic pair tags."""
    if g1.p == 0 or g2.p == 0:
        raise ValueError("cartesian_product needs non-empty graphs")
    tags = [generic(f"({t1},{t2})") for t1 in g1.tags for t2 in g2.tags]

    def vid(i1, i2):
        return i1 * g2.p + i2

    edges = []
    for i1 in range(g1.p):
        for a, b in g2.edges:
            edges.append((vid(i1, a), vid(i1, b)))
    for a, b in g1.edges:
        for i2 in range(g2.p):
            edges.append((vid(a, i2), vid(b, i2)))
    return Graph(tags, edges)


def _ladder_parts(n: int):
    """Tags and edges of the ladder on n rungs (n >= 2)."""
    tags = [U(i) for i in range(1, n + 1)] + [V(i) for i in range(1, n + 1)]
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))          # u path
        edges.append((n + i, n + i + 1))  # v path
    for i in range(n):
        edges.append((i, n + i))          # rungs
    return tags, edges


def ladder(n: int) -> Graph:
    """Two parallel paths u1..un and v1..vn joined by rungs ui-vi."""
    if n < 2:
        raise ValueError("ladder needs n >= 2")
    tags, edges = _ladder_parts(n)
    return Graph(tags, edges, Family("ladder", n=n, m=0))


def _append_pendants(tags: list, edges: list, m: int) -> None:
    """Append m pendant vertices and edges to every vertex in tags, grouped
    by parent in parent id order with pendant index ascending, so pendant j
    of vertex x gets id p + x*m + j - 1.  Parents that are already pendants
    get generic parent tags so pendant tags never nest."""
    for v in range(len(tags)):
        t = tags[v]
        parent_tag = t if t.kind != "p" else generic(str(t))
        for j in range(1, m + 1):
            edges.append((v, len(tags)))
            tags.append(pendant(parent_tag, j))


def corona_pendants(g: Graph, m: int) -> Graph:
    """Attach m new degree-1 vertices to every vertex of g.

    Pendants are appended after the original vertices (see
    _append_pendants).  With m = 0 the result equals g, family included.
    """
    if m < 0:
        raise ValueError("pendant count must be >= 0")
    tags, edges = list(g.tags), list(g.edges)
    _append_pendants(tags, edges, m)
    return Graph(tags, edges, g.family if m == 0 else None)


def subdivide(g: Graph) -> Graph:
    """Replace every edge (a,b) by a-c and c-b through a fresh midpoint c.

    Midpoints are appended in canonical edge order and get generic tags
    s(tagA,tagB); the result has p+q vertices and 2q edges.
    """
    tags = list(g.tags)
    edges = []
    for a, b in g.edges:
        mid = len(tags)
        tags.append(generic(f"s({g.tags[a]},{g.tags[b]})"))
        edges.append((a, mid))
        edges.append((mid, b))
    return Graph(tags, edges)


def triangular_snake(k: int) -> Graph:
    """Chain of k triangles: path u1..u(k+1) with apex wi over each edge."""
    if k < 1:
        raise ValueError("triangular_snake needs k >= 1")
    tags = [U(i) for i in range(1, k + 2)] + [W(i) for i in range(1, k + 1)]
    edges = []
    for i in range(k):
        w = k + 1 + i
        edges.append((i, i + 1))
        edges.append((i, w))
        edges.append((w, i + 1))
    return Graph(tags, edges)


# -- the three pendant families --------------------------------------------

# theorem number -> (name of its size parameter, least value); every theorem
# also needs m >= 1
_THEOREM_DOMAINS = {1: ("n", 2), 2: ("n", 2), 3: ("k", 1)}


def check_theorem_domain(number: int, a: int, m: int) -> None:
    """Raise ValueError unless theorem `number` is defined at size a and m
    pendants per vertex."""
    param, least = _THEOREM_DOMAINS[number]
    if a < least:
        raise ValueError(f"theorem{number} needs {param} >= {least}")
    if m < 1:
        raise ValueError(f"theorem{number} needs m >= 1")


def build_theorem1(n: int, m: int) -> Graph:
    """Ladder on n rungs with m pendant edges on every vertex.

    Ids: u_i = i-1, v_i = n+i-1, pendants from 2n.
    p = 2n(m+1), q = 2mn + 3n - 2.
    """
    check_theorem_domain(1, n, m)
    tags, edges = _ladder_parts(n)
    _append_pendants(tags, edges, m)
    return Graph(tags, edges, Family("ladder", n=n, m=m))


def build_theorem2(n: int, m: int) -> Graph:
    """Subdivided ladder with m pendant edges on every vertex.

    The side paths become u1..u(2n-1) and v1..v(2n-1); each original rung
    gains a midpoint, so rungs exist only at odd path positions 2j-1 and the
    midpoints are w1..wn.  With side = 2n-1, ids are u_i = i-1,
    v_i = side+i-1, w_j = 2*side+j-1, pendants from 5n-2.
    p = (5n-2)(m+1), q = m(5n-2) + 2(3n-2).
    """
    check_theorem_domain(2, n, m)
    side = 2 * n - 1
    tags = ([U(i) for i in range(1, side + 1)]
            + [V(i) for i in range(1, side + 1)]
            + [W(j) for j in range(1, n + 1)])
    edges = []
    for i in range(side - 1):
        edges.append((i, i + 1))                  # u path
        edges.append((side + i, side + i + 1))    # v path
    for j in range(1, n + 1):
        u_id = 2 * j - 2
        v_id = side + 2 * j - 2
        w_id = 2 * side + j - 1
        edges.append((u_id, w_id))
        edges.append((w_id, v_id))
    _append_pendants(tags, edges, m)
    return Graph(tags, edges, Family("sub-ladder", n=n, m=m))


def build_theorem3(k: int, m: int) -> Graph:
    """Subdivided triangular snake with m pendant edges on every vertex.

    Block i of the subdivided snake contributes the six edges ui-yi,
    yi-u(i+1), ui-vi, vi-wi, wi-zi, zi-u(i+1).  Ids: u_i = i-1 (i <= k+1),
    v_i = k+i, w_i = 2k+i, y_i = 3k+i, z_i = 4k+i, pendants from 5k+1.
    p = (5k+1)(m+1), q = (5m+6)k + m.
    """
    check_theorem_domain(3, k, m)
    tags = ([U(i) for i in range(1, k + 2)]
            + [V(i) for i in range(1, k + 1)]
            + [W(i) for i in range(1, k + 1)]
            + [Y(i) for i in range(1, k + 1)]
            + [Z(i) for i in range(1, k + 1)])
    v0, w0, y0, z0 = k + 1, 2 * k + 1, 3 * k + 1, 4 * k + 1
    edges = []
    for i in range(k):
        u, u_next = i, i + 1
        v, w, y, z = v0 + i, w0 + i, y0 + i, z0 + i
        edges.append((u, y))
        edges.append((y, u_next))
        edges.append((u, v))
        edges.append((v, w))
        edges.append((w, z))
        edges.append((z, u_next))
    _append_pendants(tags, edges, m)
    return Graph(tags, edges, Family("sub-tri-snake", k=k, m=m))


# -- structural helpers -----------------------------------------------------


def two_coloring(g: Graph):
    """BFS 2-coloring: list of 0/1 colors, or None if some component has an
    odd cycle."""
    colors = [-1] * g.p
    adj = g.adjacency()
    for root in range(g.p):
        if colors[root] != -1:
            continue
        colors[root] = 0
        queue = [root]
        while queue:
            v = queue.pop(0)
            for nb in adj[v]:
                if colors[nb] == -1:
                    colors[nb] = colors[v] ^ 1
                    queue.append(nb)
                elif colors[nb] == colors[v]:
                    return None
    return colors


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None
