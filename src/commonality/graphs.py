"""Small simple graphs: canonical forms, named constructions, the
even-subgraph expansion, and the enumeration of graph classes.

Vertices are 0..n-1.  Graphs are immutable and hashable so canonical forms
and expansions can be cached.  The vertex cap is 16, which keeps adjacency
rows in native ints and matches what the density engine can evaluate.
Every class of graphs on n points comes from one cached generator,
graph_classes(n); the connected bipartite graphs on up to five points are
a filter of its output.  Cached results are values a caller cannot
change: tuples, and read-only mappings for the expansions.
"""
from __future__ import annotations

import itertools
import re
from functools import cache, lru_cache
from types import MappingProxyType

MAX_VERTICES = 16


class Graph:
    """Immutable simple undirected graph on vertex set {0, ..., n-1}.

    adj[v] is a bitmask of neighbours.  Equality and hashing use (n, edges),
    so two graphs compare equal iff they are identical as labelled graphs.
    """

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n, edges=()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} out of range 0..{MAX_VERTICES}")
        adj = [0] * n
        es = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
            if u > v:
                u, v = v, u
            if (u, v) not in es:
                es.add((u, v))
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        self.n = n
        self.edges = frozenset(es)
        self.adj = tuple(adj)
        self._hash = hash((n, self.edges))

    @property
    def e(self):
        return len(self.edges)

    def degree(self, v):
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        return u != v and bool(self.adj[u] >> v & 1)

    def sorted_edges(self):
        return sorted(self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def parse_prelude(text: str, what: str, count: str):
    """The shared start of the text formats: stripped lines without blanks
    and '#' comments, the first of which is an integer.  Returns (that
    integer, the lines); what and count name the description and the first
    line in the error messages."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"empty {what} description")
    try:
        return int(lines[0]), lines
    except ValueError:
        raise ValueError(f"bad {count} line: {lines[0]!r}") from None


def parse_graph(text: str) -> Graph:
    """First non-blank line: n.  Each further line: one edge "u v", 0-indexed."""
    n, lines = parse_prelude(text, "graph", "vertex count")
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} out of range 0..{MAX_VERTICES}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def relabel(g: Graph, perm) -> Graph:
    """perm[old] = new vertex label; perm must be a bijection on range(n)."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"relabelling is not a permutation of 0..{g.n - 1}")
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def induced_subgraph(g: Graph, verts) -> Graph:
    """Induced subgraph on verts, relabelled to 0..len(verts)-1 in sorted order."""
    vs = sorted(set(verts))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph(len(vs), edges)


def drop_isolated(g: Graph) -> Graph:
    keep = [v for v in range(g.n) if g.adj[v]]
    return induced_subgraph(g, keep)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, edges)


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return Graph(g.n, edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        v = 0
        f = frontier
        while f:
            if f & 1:
                nxt |= g.adj[v]
            f >>= 1
            v += 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.e == g.n - 1 and is_connected(g)


def is_bipartite(g: Graph) -> bool:
    colour = {}
    for s in range(g.n):
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if g.has_edge(u, v):
                    if v not in colour:
                        colour[v] = colour[u] ^ 1
                        stack.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


# ---------------------------------------------------------------------------
# canonical form


def _pair_index_order(n):
    # pairs (i, j) with i < j, ordered so the first C(p, 2) pairs only touch
    # positions 0..p-1; this is what makes prefix pruning sound
    return [(i, j) for j in range(1, n) for i in range(j)]


def _refine(adj, partition):
    """Stable equitable refinement of an ordered partition. Deterministic."""
    while True:
        masks = []
        for cell in partition:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        changed = False
        new_partition = []
        for cell in partition:
            if len(cell) == 1:
                new_partition.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_partition.append(cell)
            else:
                changed = True
                for sig in sorted(groups, reverse=True):
                    new_partition.append(groups[sig])
        partition = new_partition
        if not changed:
            return partition


def _twin_reps(adj, cell):
    # branching on both of a twin pair only rediscovers the same leaf, since
    # swapping twins is an automorphism
    reps = []
    for v in cell:
        dup = False
        for u in reps:
            if adj[u] >> v & 1:
                if adj[u] ^ (1 << v) == adj[v] ^ (1 << u):
                    dup = True
                    break
            elif adj[u] == adj[v]:
                dup = True
                break
        if not dup:
            reps.append(v)
    return reps


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> Graph:
    """Canonical representative of g's isomorphism class.

    Ordered-partition refinement with individualization, preferring the
    lexicographically largest adjacency encoding.  Exact for any n <= 16;
    cheap in practice because refinement plus twin skipping leaves little
    branching on the graphs this package handles.
    """
    n = g.n
    if n <= 1 or g.e == 0 or g.e == n * (n - 1) // 2:
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]) if g.e else Graph(n)
    adj = g.adj
    pairs = _pair_index_order(n)
    total_bits = len(pairs)

    by_degree = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    initial = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    initial = _refine(adj, initial)

    best_code = -1
    best_order = None

    def prefix_code(order, p):
        # bits for all pairs inside the first p placed vertices
        code = 0
        for i, j in pairs[: p * (p - 1) // 2]:
            code = code << 1 | (adj[order[i]] >> order[j] & 1)
        return code

    def search(partition):
        nonlocal best_code, best_order
        order = []
        split_at = None
        for idx, cell in enumerate(partition):
            if len(cell) == 1:
                order.append(cell[0])
            else:
                split_at = idx
                break
        p = len(order)
        if best_code >= 0 and p >= 2:
            here = prefix_code(order, p)
            bits = p * (p - 1) // 2
            best_prefix = best_code >> (total_bits - bits)
            if here < best_prefix:
                return
        if split_at is None:
            code = prefix_code(order, n)
            if code > best_code:
                best_code = code
                best_order = list(order)
            return
        cell = partition[split_at]
        for v in _twin_reps(adj, cell):
            rest = [u for u in cell if u != v]
            refined = _refine(adj, partition[:split_at] + [[v], rest] + partition[split_at + 1:])
            search(refined)

    search(initial)
    perm = [0] * n
    for pos, v in enumerate(best_order):
        perm[v] = pos
    return relabel(g, perm)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# constructions


@lru_cache(maxsize=64)
def apex_add(h: Graph, a: int) -> Graph:
    """Add a new vertices, each adjacent to all of h and to none of each other."""
    if not 0 <= a <= MAX_VERTICES - h.n:
        raise ValueError(f"{a} apex vertices on {h.n} vertices is out of range")
    edges = list(h.edges)
    for i in range(a):
        w = h.n + i
        edges += [(w, v) for v in range(h.n)]
    return Graph(h.n + a, edges)


def pendant_map(t: Graph, u: int, h: Graph, v: int):
    """Glue tree t to h by identifying t's vertex u with h's vertex v.

    Returns (glued graph, mapping from t's vertices to the new labels).
    t's other vertices go to h.n, h.n+1, ... in sorted order.
    """
    if not is_tree(t):
        raise ValueError("attachment graph must be a tree")
    if not (0 <= u < t.n and 0 <= v < h.n):
        raise ValueError(f"attachment vertices {u}, {v} out of range")
    if h.n + t.n - 1 > MAX_VERTICES:
        raise ValueError("glued graph exceeds the vertex cap")
    mapping = {u: v}
    nxt = h.n
    for w in range(t.n):
        if w != u:
            mapping[w] = nxt
            nxt += 1
    edges = list(h.edges) + [(mapping[a], mapping[b]) for a, b in t.edges]
    return Graph(h.n + t.n - 1, edges), mapping


def pendant_attach(t: Graph, u: int, h: Graph, v: int) -> Graph:
    return pendant_map(t, u, h, v)[0]


# ---------------------------------------------------------------------------
# even-subgraph expansion


def _class_order(g: Graph):
    # the order of the enumerations: vertex count, edge count, edge list
    return g.n, g.e, g.sorted_edges()


@lru_cache(maxsize=4096)
def even_expansion(h: Graph) -> MappingProxyType:
    """Multiset of even edge subsets of h, grouped by isomorphism class: a
    read-only mapping from each canonical class to its integer count, in
    (vertex count, edge count, edge list) order.

    Each subset keeps only its non-isolated vertices before classifying, so
    the empty subset contributes the zero-vertex graph with count 1.  The
    counts sum to 2^(e-1) for e >= 1.
    """
    e = h.e
    if e > 20:
        raise ValueError(f"subset enumeration capped at 20 edges, got {e}")
    edges = h.sorted_edges()
    counts = {}
    for r in range(0, e + 1, 2):
        for subset in itertools.combinations(edges, r):
            key = canonical_form(drop_isolated(Graph(h.n, subset)))
            counts[key] = counts.get(key, 0) + 1
    return MappingProxyType({g: counts[g] for g in sorted(counts, key=_class_order)})


# ---------------------------------------------------------------------------
# catalog


def _complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _complete_multipartite(sizes):
    n = sum(sizes)
    if n > MAX_VERTICES:
        raise ValueError(f"complete multipartite graph on {n} vertices exceeds the cap")
    label = []
    for i, s in enumerate(sizes):
        label += [i] * s
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] != label[v]]
    return Graph(n, edges)


def _cycle(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


_FIXED = {
    "diamond": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "k3plus": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "chair": Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
    "k2,3-e": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]),
    "bull": Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
    "h1": Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]),
    "h2": Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4)]),
    "h3": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]),
    "h4": Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4), (2, 4)]),
    "jst": Graph(7, [(0, 1), (0, 2), (1, 2),
                     (1, 3), (1, 4), (3, 4),
                     (2, 5), (2, 6), (5, 6)]),
}


def catalog(name: str) -> Graph:
    """Named graphs.  Lowercase ids: k5, k2,3, k1,2,2, c6, p4, diamond,
    k3plus, chair, k2,3-e, d:2, beachball:3, h1..h4, jst.  Graphs are
    immutable, so each normalized name is built once; a bad name raises
    on every call."""
    try:
        return _catalog(name.strip().lower())
    except KeyError:
        raise KeyError(f"unknown catalog graph: {name!r}") from None


@cache
def _catalog(key: str) -> Graph:
    if key in _FIXED:
        return _FIXED[key]
    m = re.fullmatch(r"k(\d+)", key)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"k{n} needs 1 <= n <= {MAX_VERTICES}")
        return _complete(n)
    m = re.fullmatch(r"k(\d+),(\d+)", key)
    if m:
        return _complete_multipartite([int(m.group(1)), int(m.group(2))])
    m = re.fullmatch(r"k(\d+),(\d+),(\d+)", key)
    if m:
        return _complete_multipartite([int(m.group(i)) for i in (1, 2, 3)])
    m = re.fullmatch(r"c(\d+)", key)
    if m:
        return _cycle(int(m.group(1)))
    m = re.fullmatch(r"p(\d+)", key)
    if m:
        return _path(int(m.group(1)))
    m = re.fullmatch(r"d:(\d+)", key)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= MAX_VERTICES - 3:
            raise ValueError(f"d:{k} needs 1 <= k <= {MAX_VERTICES - 3}")
        return apex_add(_path(k + 1), 2)
    m = re.fullmatch(r"beachball:(\d+)", key)
    if m:
        k = int(m.group(1))
        if not 2 <= k <= (MAX_VERTICES - 2) // 2:
            raise ValueError(f"beachball:{k} needs 2 <= k <= {(MAX_VERTICES - 2) // 2}")
        return apex_add(_cycle(2 * k), 2)
    raise KeyError(key)


def catalog_names():
    names = ["k2", "k3", "k4", "k5"]
    names += [f"c{n}" for n in range(3, 8)]
    names += [f"p{n}" for n in range(2, 8)]
    names += ["k1,2", "k1,3", "k1,4", "k1,5", "k2,2", "k2,3", "k2,4", "k3,3"]
    names += ["k1,1,2", "k1,2,2", "k1,2,3", "k2,2,2"]
    names += ["diamond", "k3plus", "chair", "k2,3-e", "bull"]
    names += ["d:1", "d:2", "d:3", "d:4"]
    names += ["beachball:2", "beachball:3"]
    names += ["h1", "h2", "h3", "h4", "jst"]
    return names


def catalog_all():
    return [(name, catalog(name)) for name in catalog_names()]


@cache
def graph_classes(n: int) -> tuple:
    """Every graph on n points up to isomorphism, as canonical forms by edge
    count, each count in the order found: the classes with e + 1 edges are
    the distinct canonical forms of the classes with e edges plus one pair."""
    level, classes = [canonical_form(Graph(n))], []
    while level:
        classes += level
        level = list(dict.fromkeys(canonical_form(Graph(n, [*g.edges, pair])) for g in level
                                   for pair in itertools.combinations(range(n), 2)
                                   if not g.has_edge(*pair)))
    return tuple(classes)


@cache
def connected_bipartite_up_to_5() -> tuple:
    """Canonical forms of all connected bipartite graphs on 2..5 vertices,
    the ten of the apex theorem, in (vertex count, edge count, edge list)
    order."""
    return tuple(sorted((g for n in range(2, 6) for g in graph_classes(n)
                         if is_connected(g) and is_bipartite(g)), key=_class_order))
