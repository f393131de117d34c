"""Reference constructions that the tests build small graphs with and compare
the theorem builders against, and the degree and 2-coloring that the tests
read off a graph.  The package never calls them, so they live with the
tests; the Graph constructor rejects any repeated tag they derive.

ladder(n) is the theorem-1 family table read at m = 0, so it is tagged and
numbered as build_theorem1's graph is, without pendants.  corona_pendants
writes its own pendant edges, so a theorem graph compared with the corona
of its base shares no pendant code with the table that built it."""

import re

from oddgraceful import Graph, pendant
from oddgraceful.graphs import IdOrder, _build, _is_int, _walk

_PENDANT_RE = re.compile(r"^p\((.+),([1-9][0-9]*)\)$")


def degree(g: Graph, v: int) -> int:
    """Neighbor count of v; IndexError, from g.tag, unless v is an int in
    0..p-1."""
    g.tag(v)
    return len(g.adjacency()[v])


def two_coloring(g: Graph):
    """The 0/1 colors of the package's BFS from the roots in id order, or
    None if some component has an odd cycle."""
    walk = _walk(g, range(g.p))
    return None if walk is None else walk[1]


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


def subdivide(g: Graph) -> Graph:
    """Replace every edge (a,b) by a-c and c-b through a fresh midpoint c.

    Midpoints are appended in canonical edge order and get tags
    s(tagA,tagB); the result has p+q vertices and 2q edges.
    """
    tags = list(g.tags)
    edges = []
    for a, b in g.edges:
        mid = len(tags)
        tags.append(f"s({tags[a]},{tags[b]})")
        edges.append((a, mid))
        edges.append((mid, b))
    return Graph(tags, edges)


def path_graph(n: int) -> Graph:
    """Path on n vertices tagged v1..vn."""
    if not _is_int(n) or n < 1:
        raise ValueError("path_graph needs an int n >= 1")
    return Graph([f"v{i}" for i in range(1, n + 1)],
                 [(i, i + 1) for i in range(n - 1)])


def ladder(n: int) -> Graph:
    """Two parallel paths u1..un and v1..vn joined by rungs ui-vi: the
    theorem-1 family without pendants."""
    if not _is_int(n) or n < 2:
        raise ValueError("ladder needs an int n >= 2")
    return _build(IdOrder(1, n, 0))


def corona_pendants(g: Graph, m: int) -> Graph:
    """Attach m new degree-1 vertices to every vertex of g.

    Pendants are appended after the original vertices, grouped by parent in
    parent id order, so the j-th new pendant of vertex x gets id
    p + x*m + j - 1.  They are numbered after each parent's existing
    pendants: a vertex that already has p(x,1) gets p(x,2) next.  With
    m = 0 the result equals g, family included.
    """
    if not _is_int(m) or m < 0:
        raise ValueError("pendant count must be an int >= 0")
    tags, edges = list(g.tags), list(g.edges)
    taken = {}  # parent tag -> highest pendant index in tags
    for match in filter(None, map(_PENDANT_RE.match, tags)):
        parent, j = match.group(1), int(match.group(2))
        taken[parent] = max(taken.get(parent, 0), j)
    tags += [pendant(x, taken.get(x, 0) + j)
             for x in tags for j in range(1, m + 1)]
    edges += [(x, g.p + x * m + j) for x in range(g.p) for j in range(m)]
    return Graph(tags, edges, g.family if m == 0 else None)


def triangular_snake(k: int) -> Graph:
    """Chain of k triangles: path u1..u(k+1) with apex wi over each edge."""
    if not _is_int(k) or k < 1:
        raise ValueError("triangular_snake needs an int k >= 1")
    tags = ([f"u{i}" for i in range(1, k + 2)]
            + [f"w{i}" for i in range(1, k + 1)])
    edges = []
    for i in range(k):
        w = k + 1 + i
        edges.append((i, i + 1))
        edges.append((i, w))
        edges.append((w, i + 1))
    return Graph(tags, edges)
