"""Reference constructions that the graph tests compare the theorem builders
against, and the degree and 2-coloring that the tests read off a graph.  The
package never calls them, so they live with the tests; the Graph constructor
rejects any repeated tag they derive."""

from oddgraceful import Graph
from oddgraceful.graphs import _walk


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
