"""Tagged graphs: the three pendant families of the theorems, and cycles.

Vertices carry plain string tags naming symbol class and index (u3, w1), so
that label formulas stated per class and index can be applied without
guessing which vertex is which.  Pendant j of the vertex tagged x is tagged
p(x,j) (pendant() formats one such tag).  Every tag is a non-empty string
and no two vertices of a graph share one; the Graph constructor is the one
place that checks this.  Graphs are immutable once built, and identical
parameters always produce identical vertex orderings and edge sets.

The three theorem families are data: THEOREM_FAMILIES lists each one's
vertex classes and edge classes, and one interpreter builds every theorem
graph from it.  The table also fixes the canonical vertex id order: the
classes in table order, each by index, then the pendants grouped by parent
(parents in id order, pendant index ascending).  IdOrder is the one place
that turns a class and index into an id, and it counts the edges q from the
table; the closed-form labelers in formulas.py take both from the IdOrder
that theorem_order checks, so they agree with the builders by construction.
IdOrder is also the tag sequence of a theorem graph: order[v] formats one
tag and iterating formats all of them in id order, so a theorem graph holds
its IdOrder as its tags and formats them only when they are read or written.
Beside the table the package builds only cycle_graph; the generic
constructions that the tests check the table against (paths, ladders,
snakes, subdivisions, coronas) live with the tests.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain, islice, repeat
from operator import eq
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .canon import canonical_dumps, sha256_hex

# pendant tag = head + parent tag + index tail, also joined in bulk by
# IdOrder.__iter__
_PENDANT_HEAD, _PENDANT_TAIL = "p(", ",{})".format

# edges or vertices per % format when Graph._write_json writes an array
_WRITE_BLOCK = 1 << 12


def pendant(parent: str, j: int) -> str:
    """The tag of pendant j (1-based) of the vertex tagged parent."""
    return _PENDANT_HEAD + parent + _PENDANT_TAIL(j)


class Family(namedtuple("Family", "kind n k m", defaults=(None,) * 3)):
    """Construction parameters attached to a generated graph instance: a
    kind that is exactly a str, and n, k and m each None or exactly an int."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        self = super().__new__(cls, *fields, **named)
        if type(self.kind) is not str:
            raise ValueError("family object needs a string 'kind' field")
        for name in ("n", "k", "m"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ValueError(
                    f"family field {name!r} must be an int or null")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that _replace checks its fields too


class Graph:
    """Immutable undirected graph over dense vertex ids 0..p-1 with tags.

    Edges are stored with the smaller id first and sorted lexicographically;
    each edge given as an exact tuple already in that orientation is kept
    as given, not copied.  Construction rejects, with ValueError, a tag that
    is not a non-empty exact str or repeats an earlier one, then an edge
    that is not a pair, an endpoint that is not an exact int (a bool, say),
    a self-loop, an endpoint that is not a declared vertex and a duplicate
    edge, then a family that is neither None nor a Family; the message names
    the first offending tag in id order, or edge in input order.  The edge
    checks are one loop over the edges and one sort, after which duplicates
    are neighbors.  The adjacency and the canonical JSON text are each
    computed on first use and kept.

    tags is a sequence of strings, kept as a tuple, or a theorem graph's
    IdOrder, which formats the tags on each read and keeps none: all of
    them for `tags`, one for tag(v), one block at a time for the writer.
    """

    __slots__ = ("p", "edges", "family", "_tags", "_adj", "_json")

    def __init__(self, tags: Sequence[str], edges: Iterable[tuple],
                 family: Optional[Family] = None):
        if not isinstance(tags, IdOrder):  # an IdOrder's tags are valid
            tags = tuple(tags)
            _check_tags(tags)
        self._tags, self.p = tags, len(tags)
        self.edges = tuple(_sorted_edges(edges, self.p))
        if family is not None and not isinstance(family, Family):
            raise ValueError(f"graph family {family!r} is not a Family")
        self.family = family
        self._adj = self._json = None

    @property
    def tags(self) -> tuple:
        """Every vertex tag, in id order: the kept tuple, or a theorem
        graph's tags formatted afresh."""
        return tuple(self._tags)

    def tag(self, v: int) -> str:
        """The tag of vertex v; IndexError unless v is an int in 0..p-1."""
        _check_id(v, self.p)
        return self._tags[v]

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
        """Canonical graph JSON, written on the first call and kept: every
        later call returns the same str.  The fingerprint, and so the
        labeling file, reuse it."""
        if self._json is None:
            self._json = self._write_json()
        return self._json

    def _write_json(self) -> str:
        """Canonical graph JSON written directly, byte for byte canonical_dumps
        of {"edges", "family", "vertices": [{"id", "tag"}, ...]}, where the
        family is null or an object of its fields that are not None.

        Each array is written in blocks of _WRITE_BLOCK entries, each block
        one % format over its own flat tuple: the block's edge endpoints, or
        its vertex ids interleaved with its encoded tags.  Every tag is
        encoded as json.dumps encodes a str, so the bytes do not depend on
        the block size.  A theorem graph's tags are formatted block by block
        for this write only.  The pieces are joined once."""
        encode = json.encoder.encode_basestring_ascii  # as json.dumps does
        pieces = ['{"edges":[']
        for lo in range(0, self.q, _WRITE_BLOCK):
            block = self.edges[lo:lo + _WRITE_BLOCK]
            pieces.append("[%d,%d]," * len(block)
                          % tuple(chain.from_iterable(block)))
        if self.q:
            pieces[-1] = pieces[-1][:-1]
        family = None if self.family is None else {
            key: value for key, value in self.family._asdict().items()
            if value is not None}
        pieces.append('],"family":' + canonical_dumps(family)[:-1]
                      + ',"vertices":[')
        tags = map(encode, self._tags)
        for lo in range(0, self.p, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, self.p)
            fields = [None] * (2 * (hi - lo))
            fields[::2], fields[1::2] = range(lo, hi), islice(tags, hi - lo)
            pieces.append('{"id":%d,"tag":%s},' * (hi - lo) % tuple(fields))
        if self.p:
            pieces[-1] = pieces[-1][:-1]
        pieces.append("]}\n")
        return "".join(pieces)

    def fingerprint(self) -> str:
        """Hex digest of the canonical graph JSON; binds labeling files to
        the exact graph they label."""
        return sha256_hex(self.to_json())

    @staticmethod
    def from_json_obj(obj: dict) -> "Graph":
        """Parse a graph document, raising ValueError on anything malformed.

        Checks only the document's shape: 'vertices' and 'edges' arrays,
        vertex entries objects with dense int ids (bools and floats are
        rejected) and 'family' absent, null or an object, whose n, k and m
        may be absent.  The document, each vertex entry and the family
        object hold no key that the writer does not write.  Graph and
        Family check the tags, the edges and the family's fields, as for
        any graph, so an edge that is not an array of two ints is named as
        the constructor names it.  Tags are kept exactly as written.
        """
        if not isinstance(obj, dict):
            raise ValueError("graph document must be a JSON object")
        _reject_unknown_keys(obj, _GRAPH_KEYS, "graph document")
        vertices, edges = obj.get("vertices"), obj.get("edges")
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise ValueError(
                "graph document needs 'vertices' and 'edges' arrays")
        tags = []
        for i, entry in enumerate(vertices):
            if not isinstance(entry, dict):
                raise ValueError(f"vertex entry {i} is not an object")
            if not entry.keys() <= _VERTEX_KEYS:
                _reject_unknown_keys(entry, _VERTEX_KEYS, f"vertex entry {i}")
            if not _is_int(entry.get("id")) or entry["id"] != i:
                raise ValueError("vertex ids must be dense 0..p-1 in order")
            tags.append(entry.get("tag"))
        family = obj.get("family")
        if family is not None:
            if not isinstance(family, dict):
                raise ValueError("family object needs a string 'kind' field")
            _reject_unknown_keys(family, Family._fields, "family object")
            family = Family(*map(family.get, Family._fields))
        return Graph(tags, edges, family)


# the keys of a graph document and of one of its vertex entries
_GRAPH_KEYS, _VERTEX_KEYS = {"edges", "family", "vertices"}, {"id", "tag"}


def _reject_unknown_keys(obj: dict, known, where: str) -> None:
    """Raise ValueError naming the first key of obj, in its order, that is
    not in known; where names obj in the message."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where} has an unknown key {key!r}")


def _is_int(x) -> bool:
    """The one int rule: exactly an int.  The edge loop and the bulk type
    pass of labeling._check_labeling write it inline, for speed."""
    return type(x) is int


def _check_id(v: int, p: int) -> None:
    if not (_is_int(v) and 0 <= v < p):
        raise IndexError(f"vertex id {v} is not in 0..{p - 1}")


def _check_tags(tags: tuple) -> None:
    """Raise ValueError naming the first tag, in id order, that is not a
    non-empty str or repeats an earlier one: no graph file may hold it."""
    seen = set()
    for i, text in enumerate(tags):
        if type(text) is not str or not text:
            raise ValueError(f"vertex {i} needs a non-empty string tag")
        if text in seen:
            raise ValueError(f"duplicate vertex tag {text!r}")
        seen.add(text)


def _sorted_edges(edges: Iterable, p: int) -> list:
    """The edges as (smaller id, larger id) pairs, sorted.

    One loop checks each edge in input order, in the order of the messages:
    a pair, endpoints that are exact ints, no self-loop, declared vertices.
    An edge that is neither a tuple nor a list is a pair only when its two
    items are exact ints, so a graph file's string or object edge is not
    read as its characters or keys; only a failing edge pays for that test.
    An edge that is already an exact tuple (a, b) with a < b, as the
    builders emit them, is kept, so the graph holds no second copy of its
    edges; any other edge is rebuilt in place as a plain oriented tuple.
    Duplicates are neighbors after the sort, and are named in input order
    by _raise_first_repeat, also when a later edge fails first.
    """
    pairs = list(edges)
    for i, e in enumerate(pairs):
        try:
            a, b = e
        except (TypeError, ValueError):
            message = f"edge {e!r} is not a pair of vertex ids"
        else:
            if type(a) is not int or type(b) is not int:
                message = (f"edge ({a!r},{b!r}) has an endpoint"
                           " that is not an int")
                if not isinstance(e, (tuple, list)):
                    message = f"edge {e!r} is not a pair of vertex ids"
            elif a == b:
                message = f"self-loop at vertex {a}"
            elif not (0 <= a < p and 0 <= b < p):
                message = f"edge ({a},{b}) references an undeclared vertex"
            else:
                if b < a:
                    pairs[i] = (b, a)
                elif type(e) is not tuple:
                    pairs[i] = (a, b)
                continue
        _raise_first_repeat(pairs, i)
        raise ValueError(message)
    ordered = sorted(pairs)
    if any(map(eq, ordered, islice(ordered, 1, None))):
        _raise_first_repeat(pairs, len(pairs))
    return ordered


def _raise_first_repeat(pairs: list, end: int) -> None:
    """Raise ValueError naming the first of the oriented edges pairs[:end],
    in input order, that repeats an earlier one; return if none does."""
    seen = set()
    for e in islice(pairs, end):
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)


# -- basic constructions ---------------------------------------------------


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices tagged v1..vn."""
    if not _is_int(n) or n < 3:
        raise ValueError("cycle_graph needs an int n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph([f"v{i}" for i in range(1, n + 1)], edges)


# -- the three pendant families --------------------------------------------


class TheoremFamily(NamedTuple):
    """The graph family of one theorem, as data.

    kind names the family in graph files, and its size parameter param (n
    or k) is at least least; every theorem also needs m >= 1 pendants per
    vertex.  classes(a) gives the family at size a: its vertex classes in
    canonical id order, each a letter c and a count (c1..c(count)), and its
    edge classes, each (A, I, B, J) for the edges A_i - B_j with i, j taken
    pairwise from the index ranges I and J.  Class A comes before class B in
    the id order, so every edge is built smaller id first and the Graph
    constructor keeps the built tuples instead of copying them.
    """

    kind: str
    param: str
    least: int
    classes: Callable


def _ladder_classes(n):
    return ((("u", n), ("v", n)),
            (("u", range(1, n), "u", range(2, n + 1)),  # u path
             ("v", range(1, n), "v", range(2, n + 1)),  # v path
             ("u", range(1, n + 1), "v", range(1, n + 1))))  # rungs


def _sub_ladder_classes(n):
    # the side paths have 2n-1 vertices; the midpoint w_j of rung j joins
    # their odd positions 2j-1
    side, rungs, odd = 2 * n - 1, range(1, n + 1), range(1, 2 * n, 2)
    return ((("u", side), ("v", side), ("w", n)),
            (("u", range(1, side), "u", range(2, side + 1)),
             ("v", range(1, side), "v", range(2, side + 1)),
             ("u", odd, "w", rungs), ("v", odd, "w", rungs)))


def _sub_tri_snake_classes(k):
    # block i is the paths u_i y_i u(i+1) and u_i v_i w_i z_i u(i+1)
    i, right = range(1, k + 1), range(2, k + 2)
    return ((("u", k + 1), ("v", k), ("w", k), ("y", k), ("z", k)),
            (("u", i, "y", i), ("u", right, "y", i), ("u", i, "v", i),
             ("v", i, "w", i), ("w", i, "z", i), ("u", right, "z", i)))


THEOREM_FAMILIES = {
    1: TheoremFamily("ladder", "n", 2, _ladder_classes),
    2: TheoremFamily("sub-ladder", "n", 2, _sub_ladder_classes),
    3: TheoremFamily("sub-tri-snake", "k", 1, _sub_tri_snake_classes),
}

# largest edge count a theorem instance may have, about eight times the
# largest benchmark instance (t1(2000,30), q = 125,998); building, labeling
# and verifying take time and memory linear in q
MAX_THEOREM_Q = 1_000_000


class IdOrder:
    """The canonical vertex ids of theorem `number`'s graph at size a with m
    pendants per vertex.

    vertices and edges are the family's classes at size a.  The vertex
    classes come in table order, each indexed from 1, so c_i has id
    first[c] + i; then come the pendants, grouped by parent, so pendant j of
    the vertex with id x has id p0 + x*m + j - 1 (as _build numbers
    them).  p is the vertex count and q the edge count.
    """

    def __init__(self, number: int, a: int, m: int):
        self.number, self.a, self.m = number, a, m
        self.vertices, self.edges = THEOREM_FAMILIES[number].classes(a)
        self.first = {}
        p0 = 0
        for letter, count in self.vertices:
            self.first[letter] = p0 - 1
            p0 += count
        self.p0 = p0
        self.p = p0 * (m + 1)

    @property
    def q(self) -> int:
        """Edges per edge class (pairing two equal-length ranges), then m
        pendant edges on each of the p0 class vertices."""
        return sum(len(xs) for _, xs, _, _ in self.edges) + self.p0 * self.m

    def ids(self, letter: str, indices: range, j: int = 0) -> range:
        """Ids of letter_i for i in indices (an ascending range), or of
        pendant j of each when j >= 1."""
        first, step = self.first[letter] + indices.start, indices.step
        if j:
            first, step = self.p0 + first * self.m + j - 1, step * self.m
        return range(first, first + len(indices) * step, step)

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, v: int) -> str:
        """The tag of vertex v; IndexError unless v is an int in 0..p-1."""
        _check_id(v, self.p)
        if v >= self.p0:
            parent, j = divmod(v - self.p0, self.m)
            return pendant(self[parent], j + 1)
        for letter, first in reversed(self.first.items()):
            if first < v:
                return f"{letter}{v - first}"

    def __iter__(self) -> Iterator[str]:
        """Every tag in id order, as order[v] formats each: the class tags,
        then each one's pendants p(x,1)..p(x,m), each head joined to each
        index tail as it is read.  No class tag is a pendant tag, so every
        pendant index starts at 1."""
        tags = [f"{letter}{i}" for letter, count in self.vertices
                for i in range(1, count + 1)]
        heads = list(map(_PENDANT_HEAD.__add__, tags))
        tails = list(map(_PENDANT_TAIL, range(1, self.m + 1)))
        return chain(tags, (head + tail for head in heads for tail in tails))


def theorem_order(number: int, a: int, m: int) -> IdOrder:
    """The IdOrder of theorem `number` at size a with m pendants per vertex,
    raising ValueError unless a and m are exact ints (no bools) in the
    theorem's domain and its graph has at most MAX_THEOREM_Q edges."""
    family = THEOREM_FAMILIES[number]
    param, least = family.param, family.least
    if not (_is_int(a) and _is_int(m)):
        raise ValueError(f"theorem{number} needs int {param} and m")
    if a < least:
        raise ValueError(f"theorem{number} needs {param} >= {least}")
    if m < 1:
        raise ValueError(f"theorem{number} needs m >= 1")
    order = IdOrder(number, a, m)
    # a theorem graph is connected, so q >= p - 1; testing p first keeps
    # len() off index ranges longer than sys.maxsize, where it raises
    if order.p - 1 > MAX_THEOREM_Q or order.q > MAX_THEOREM_Q:
        raise ValueError(f"theorem{number} at {param}={a}, m={m} has over "
                         f"{MAX_THEOREM_Q} edges, the limit")
    return order


def _build(order: IdOrder) -> Graph:
    """The theorem graph numbered by order, read off its family table; no
    domain check.  The order is the graph's tag sequence."""
    edges = []
    for x, xs, y, ys in order.edges:
        edges += zip(order.ids(x, xs), order.ids(y, ys))
    # pendant j of the vertex with id x has id p0 + x*m + j - 1: each class
    # vertex id, repeated m times, zipped with the pendant id range
    p0, m = order.p0, order.m
    edges += zip(chain.from_iterable(map(repeat, range(p0), repeat(m))),
                 range(p0, order.p))
    family = THEOREM_FAMILIES[order.number]
    return Graph(order, edges,
                 Family(family.kind, **{family.param: order.a}, m=m))


def build_theorem1(n: int, m: int) -> Graph:
    """Ladder on n rungs with m pendant edges on every vertex.
    p = 2n(m+1), q = 2mn + 3n - 2."""
    return _build(theorem_order(1, n, m))


def build_theorem2(n: int, m: int) -> Graph:
    """Subdivided ladder with m pendant edges on every vertex.
    p = (5n-2)(m+1), q = m(5n-2) + 2(3n-2)."""
    return _build(theorem_order(2, n, m))


def build_theorem3(k: int, m: int) -> Graph:
    """Subdivided triangular snake with m pendant edges on every vertex.
    p = (5k+1)(m+1), q = (5m+6)k + m."""
    return _build(theorem_order(3, k, m))


# -- structural helpers -----------------------------------------------------


def _walk(g: Graph, roots: Iterable[int]):
    """BFS over every component of g, 2-coloring as it goes.

    Each root not yet reached starts a new component; neighbors are visited
    in ascending id.  Returns (order, colors, components): the vertices in
    visit order, a 0/1 color per vertex and the number of roots used; or
    None as soon as an edge joins two vertices of one color, which is an
    odd cycle.
    """
    colors = [-1] * g.p
    adj = g.adjacency()
    order = []
    components = 0
    for root in roots:
        if colors[root] != -1:
            continue
        components += 1
        colors[root] = 0
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for nb in adj[v]:
                if colors[nb] == -1:
                    colors[nb] = colors[v] ^ 1
                    order.append(nb)
                elif colors[nb] == colors[v]:
                    return None
    return order, colors, components


def is_bipartite(g: Graph) -> bool:
    """Whether g has no odd cycle."""
    return _walk(g, range(g.p)) is not None
