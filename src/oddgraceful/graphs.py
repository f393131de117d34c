"""Tagged graph constructions for pendant ladder and snake families.

Vertices carry plain string tags naming symbol class and index (u3, w1), so
that label formulas stated per class and index can be applied without
guessing which vertex is which.  Pendant j of the vertex tagged x is tagged
p(x,j) (pendant() is the only tag helper); untyped constructions use
free-form tags such as s(u1,u2).  Vertex ids are dense 0..p-1 in a fixed
canonical order: u vertices by index, then v, w, y, z, then pendants
grouped by parent (parents in id order, pendant index ascending).  Graphs
are immutable once built, and identical parameters always produce identical
vertex orderings and edge sets.

The closed-form labelers in formulas.py compute vertex ids from this order
by arithmetic instead of building the graph and looking tags up, so
build_theorem1/2/3 must keep it exactly: changing it changes every
labeling they produce.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, starmap
from operator import eq, itemgetter
from typing import Iterable, Optional, Sequence

from .canon import canonical_dumps, sha256_hex

_PENDANT_RE = re.compile(r"^p\((.+),([1-9][0-9]*)\)$")


def pendant(parent: str, j: int) -> str:
    """The tag of pendant j (1-based) of the vertex tagged parent."""
    return f"p({parent},{j})"


@dataclass(frozen=True)
class Family:
    """Construction parameters attached to a generated graph instance."""

    kind: str
    n: Optional[int] = None
    k: Optional[int] = None
    m: Optional[int] = None

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "n": self.n, "k": self.k, "m": self.m}
        return {key: value for key, value in obj.items() if value is not None}

    @staticmethod
    def from_json_obj(obj: dict) -> "Family":
        """Parse a family object: a string kind, and n, k and m each absent,
        null or an int (bools are rejected)."""
        if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
            raise ValueError("family object needs a string 'kind' field")
        for name in ("n", "k", "m"):
            value = obj.get(name)
            if value is not None and not _is_int(value):
                raise ValueError(
                    f"family field {name!r} must be an int or null")
        return Family(obj["kind"], obj.get("n"), obj.get("k"), obj.get("m"))


class Graph:
    """Immutable undirected graph over dense vertex ids 0..p-1 with tags.

    Edges are stored with the smaller id first and sorted lexicographically.
    Construction rejects, with ValueError, an endpoint that is not an int
    (bools and floats included), a self-loop, an endpoint that is not a
    declared vertex and a duplicate edge; the message names the first
    offending edge in input order.  The checks run as whole-list passes, so
    construction costs a few C-level scans and one sort of the edge list.
    The adjacency is computed on first use and kept.
    """

    __slots__ = ("tags", "edges", "family", "_adj")

    def __init__(self, tags: Sequence[str], edges: Iterable[tuple],
                 family: Optional[Family] = None):
        self.tags = tuple(tags)
        self.edges = tuple(_sorted_edges(list(edges), len(self.tags)))
        self.family = family
        self._adj = None

    @property
    def p(self) -> int:
        return len(self.tags)

    @property
    def q(self) -> int:
        return len(self.edges)

    def adjacency(self):
        """Neighbor ids per vertex, each list sorted ascending.

        No sort is needed: walking the sorted edges appends to vertex v
        first every x < v of an edge (x, v), in order of x, then every
        y > v of an edge (v, y), in order of y."""
        if self._adj is None:
            adj = [[] for _ in range(self.p)]
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = tuple(map(tuple, adj))
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def tag_index(self) -> dict:
        """Map from tag to vertex id."""
        return {t: i for i, t in enumerate(self.tags)}

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

    def to_json(self) -> str:
        """Canonical graph JSON written directly, byte for byte canonical_dumps
        of {"edges", "family", "vertices": [{"id", "tag"}, ...]}."""
        encode = json.encoder.encode_basestring_ascii  # as json.dumps does
        edges = ",".join([f"[{a},{b}]" for a, b in self.edges])
        vertices = ",".join([f'{{"id":{i},"tag":{encode(t)}}}'
                             for i, t in enumerate(self.tags)])
        family = self.family.to_json_obj() if self.family else None
        return (f'{{"edges":[{edges}],"family":{canonical_dumps(family)[:-1]},'
                f'"vertices":[{vertices}]}}\n')

    def fingerprint(self) -> str:
        """Hex digest of the canonical graph JSON; binds labeling files to
        the exact graph they label."""
        return sha256_hex(self.to_json())

    @staticmethod
    def from_json_obj(obj: dict) -> "Graph":
        """Parse a graph document, raising ValueError on anything malformed.

        Ids and edge endpoints must be ints (bools and floats are rejected),
        vertex entries objects with a non-empty string tag, and tags
        unique.  Tags are kept exactly as written.
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
            if not isinstance(text, str) or not text:
                raise ValueError(f"vertex {i} needs a non-empty string tag")
            if text in seen_tags:
                raise ValueError(f"duplicate vertex tag {text!r}")
            seen_tags.add(text)
            tags.append(text)
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
        return Graph.from_json_obj(json.loads(text))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _sorted_edges(edges: list, p: int) -> list:
    """The edges as (smaller id, larger id) pairs, sorted.

    Whole-list passes check that every endpoint is an int in 0..p-1 and
    that no edge is a self-loop or a duplicate; if one fails,
    _raise_first_bad_edge names the edge.
    """
    if set(map(type, chain.from_iterable(edges))) <= {int}:
        pairs = [(a, b) if a < b else (b, a) for a, b in edges]
        pairs.sort()
        if not pairs or (pairs[0][0] >= 0
                         and max(map(itemgetter(1), pairs)) < p
                         and not any(starmap(eq, pairs))
                         and len(set(pairs)) == len(pairs)):
            return pairs
    _raise_first_bad_edge(edges, p)


def _raise_first_bad_edge(edges: list, p: int) -> None:
    """Raise ValueError for the first edge in input order with an endpoint
    that is not an int, a self-loop, an undeclared vertex or an earlier
    copy, checked in that order.  Called only after a whole-list check in
    _sorted_edges failed, so some edge always raises."""
    seen = set()
    for a, b in edges:
        if type(a) is not int or type(b) is not int:
            raise ValueError(
                f"edge ({a!r},{b!r}) has an endpoint that is not an int")
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < p and 0 <= b < p):
            raise ValueError(
                f"edge ({a},{b}) references an undeclared vertex")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    raise AssertionError("bulk edge check failed but no edge did")


# -- basic constructions ---------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path on n vertices tagged v1..vn."""
    if n < 1:
        raise ValueError("path_graph needs n >= 1")
    return Graph([f"v{i}" for i in range(1, n + 1)],
                 [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices tagged v1..vn."""
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph([f"v{i}" for i in range(1, n + 1)], edges)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (x1,x2)~(y1,y2) iff one coordinate is equal and the
    other is adjacent.  Product vertices are tagged with the pair (t1,t2)."""
    if g1.p == 0 or g2.p == 0:
        raise ValueError("cartesian_product needs non-empty graphs")
    tags = [f"({t1},{t2})" for t1 in g1.tags for t2 in g2.tags]

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
    tags = ([f"u{i}" for i in range(1, n + 1)]
            + [f"v{i}" for i in range(1, n + 1)])
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
    of vertex x gets id p + x*m + j - 1.  A vertex that already has
    pendants numbers the new ones after them, so tags stay distinct."""
    taken = {}  # parent tag -> highest pendant index in tags
    for t in tags:
        match = _PENDANT_RE.match(t)
        if match:
            parent, j = match.group(1), int(match.group(2))
            taken[parent] = max(taken.get(parent, 0), j)
    p = len(tags)
    first = [taken.get(t, 0) + 1 for t in tags]
    tags += [pendant(parent, j) for parent, start in zip(tags, first)
             for j in range(start, start + m)]
    edges += [(v, p + v * m + j) for v in range(p) for j in range(m)]


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

    Midpoints are appended in canonical edge order and get tags
    s(tagA,tagB); the result has p+q vertices and 2q edges.
    """
    tags = list(g.tags)
    edges = []
    for a, b in g.edges:
        mid = len(tags)
        tags.append(f"s({g.tags[a]},{g.tags[b]})")
        edges.append((a, mid))
        edges.append((mid, b))
    return Graph(tags, edges)


def triangular_snake(k: int) -> Graph:
    """Chain of k triangles: path u1..u(k+1) with apex wi over each edge."""
    if k < 1:
        raise ValueError("triangular_snake needs k >= 1")
    tags = ([f"u{i}" for i in range(1, k + 2)]
            + [f"w{i}" for i in range(1, k + 1)])
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

# largest edge count a theorem instance may have, about eight times the
# largest benchmark instance (t1(2000,30), q = 125,998); building, labeling
# and verifying take time and memory linear in q
MAX_THEOREM_Q = 1_000_000


def theorem_q(number: int, a: int, m: int) -> int:
    """Edge count of theorem `number`'s graph at size a (n or k) with m
    pendants per vertex."""
    if number == 1:
        return 2 * m * a + 3 * a - 2
    if number == 2:
        return m * (5 * a - 2) + 2 * (3 * a - 2)
    return (5 * m + 6) * a + m


def check_theorem_domain(number: int, a: int, m: int) -> None:
    """Raise ValueError unless theorem `number` is defined at size a and m
    pendants per vertex, with at most MAX_THEOREM_Q edges."""
    param, least = _THEOREM_DOMAINS[number]
    if a < least:
        raise ValueError(f"theorem{number} needs {param} >= {least}")
    if m < 1:
        raise ValueError(f"theorem{number} needs m >= 1")
    q = theorem_q(number, a, m)
    if q > MAX_THEOREM_Q:
        raise ValueError(f"theorem{number} at {param}={a}, m={m} has "
                         f"q={q} edges; the limit is {MAX_THEOREM_Q}")


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
    tags = ([f"u{i}" for i in range(1, side + 1)]
            + [f"v{i}" for i in range(1, side + 1)]
            + [f"w{j}" for j in range(1, n + 1)])
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
    tags = ([f"u{i}" for i in range(1, k + 2)]
            + [f"{c}{i}" for c in "vwyz" for i in range(1, k + 1)])
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
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for nb in adj[v]:
                if colors[nb] == -1:
                    colors[nb] = colors[v] ^ 1
                    queue.append(nb)
                elif colors[nb] == colors[v]:
                    return None
    return colors


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None
